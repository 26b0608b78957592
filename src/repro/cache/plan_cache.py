"""A parameterized plan cache whose admission test is the plan's validity
ranges.

Statements are keyed on their *shape* (literal-lifted canonical text, see
:mod:`repro.sql.parameterize`).  Each shape holds a small LRU set of plan
*variants* — physical plans previously produced by the optimizer for some
parameter values, annotated with the validity ranges the enumerator narrowed
during pruning (paper §3).  Reuse is admitted by re-estimating every guarded
edge's cardinality at the *new* parameter values (bind-value peeking) and
testing the fresh estimates against the candidate's ranges: inside all of
them, the §2.2 pruning argument guarantees no considered alternative beats
the cached plan, so optimization is skipped and the plan re-executed
verbatim; outside any of them, the caller falls through to the optimizer and
installs the new plan alongside.

Invalidation:

* a CHECK firing on a reused plan (POP re-optimization) discards that
  variant — runtime proved its ranges stale;
* catalog changes (new statistics, inserts, new indexes) drop every entry
  touching the affected tables;
* a fingerprint mismatch on lookup (someone mutated a cached plan in place)
  discards the variant — cached plans are immutable by contract, and the
  cache self-heals rather than reusing a corrupted plan.

Thread-safe: every public method holds one re-entrant lock, so concurrent
misses on the same shape (a cache stampede) serialize on install and at
worst optimize redundantly, never corrupt the table.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.locking import maybe_witness
from repro.core.feedback import CardinalityFeedback
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.fingerprint import plan_fingerprint
from repro.optimizer.parametric import (
    AdmissionReport,
    PeekingSelectivity,
    evaluate_plan_validity,
)
from repro.plan.logical import Query
from repro.plan.physical import PlanOp
from repro.stats.selectivity import SelectivityEstimator
from repro.storage.catalog import Catalog


def cache_usable(config) -> bool:
    """Whether a :class:`~repro.core.config.PopConfig` permits plan caching.

    Ablation and debugging modes change what a plan *means* (dry-run checks,
    forced triggers, ad hoc check ranges), so caching is disabled there —
    the cache must never change statement semantics.
    """
    return (
        config.plan_cache
        and not config.dry_run
        and not config.force_trigger_op_ids
        and config.adhoc_threshold_factor is None
    )


@dataclass
class PlanCacheConfig:
    """Capacity knobs: shapes are the outer LRU, variants the inner one."""

    #: Maximum number of distinct statement shapes held.
    capacity: int = 64
    #: Maximum plan variants kept per shape (different parameter regimes).
    variants_per_shape: int = 4

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.variants_per_shape < 1:
            raise ValueError("variants_per_shape must be >= 1")


@dataclass
class CacheStats:
    """Monotonic event counters (mirrored into ``repro.obs`` by the driver)."""

    hits: int = 0
    misses: int = 0
    installs: int = 0
    evictions: int = 0
    invalidations: int = 0
    admission_rejects: int = 0
    mutation_discards: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "installs": self.installs,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "admission_rejects": self.admission_rejects,
            "mutation_discards": self.mutation_discards,
        }


@dataclass
class CachedPlan:
    """One plan variant: the physical plan plus its identity and provenance."""

    shape: str
    plan: PlanOp
    fingerprint: str
    #: Base tables the plan reads — the invalidation footprint.
    tables: frozenset
    #: Parameter values the plan was optimized for (bind-value peeking).
    params: dict = field(default_factory=dict)
    checkpoints: int = 0
    hits: int = 0


@dataclass
class LookupResult:
    """Outcome of one cache probe."""

    entry: Optional[CachedPlan] = None
    #: Admission report of the reused entry (every range inside), or None.
    admission: Optional[AdmissionReport] = None
    #: Variants whose admission test was evaluated.
    examined: int = 0
    admission_rejects: int = 0
    mutation_discards: int = 0

    @property
    def hit(self) -> bool:
        return self.entry is not None


class PlanCache:
    """Shape-keyed, validity-range-admitted, LRU-evicted plan cache."""

    def __init__(self, config: Optional[PlanCacheConfig] = None):
        self.config = config if config is not None else PlanCacheConfig()
        self.stats = CacheStats()  # guarded-by: _lock
        #: shape -> (fingerprint -> CachedPlan); both levels ordered LRU->MRU.
        # guarded-by: _lock
        self._shapes: "OrderedDict[str, OrderedDict[str, CachedPlan]]" = (
            OrderedDict()
        )
        # Ranked "cache" in the repo lock order (repro.common.locking);
        # reentrant because lookup/install helpers nest public methods.
        self._lock = maybe_witness(threading.RLock(), "cache")

    # ---------------------------------------------------------------- lookup

    def lookup(
        self,
        shape: str,
        query: Query,
        params: dict[str, Any],
        catalog: Catalog,
        feedback: Optional[CardinalityFeedback] = None,
        base_selectivity: Optional[SelectivityEstimator] = None,
    ) -> LookupResult:
        """Probe for a reusable plan under the new parameter values.

        Builds fresh per-edge cardinality estimates for ``params`` (markers
        peeked to their bound values) and returns the most recently used
        variant whose every non-trivial validity/CHECK range contains its
        fresh estimate.  Re-fingerprints each candidate first: a mismatch
        means the cached plan was mutated in place, and the variant is
        dropped instead of reused.
        """
        with self._lock:
            result = LookupResult()
            variants = self._shapes.get(shape)
            if not variants:
                self.stats.misses += 1
                return result
            estimator = CardinalityEstimator(
                catalog,
                query,
                feedback=feedback,
                selectivity=PeekingSelectivity(params, base=base_selectivity),
            )
            for fingerprint in reversed(list(variants)):
                entry = variants[fingerprint]
                if plan_fingerprint(entry.plan) != entry.fingerprint:  # float-eq: str
                    del variants[fingerprint]
                    self.stats.mutation_discards += 1
                    self.stats.invalidations += 1
                    result.mutation_discards += 1
                    continue
                result.examined += 1
                admission = evaluate_plan_validity(entry.plan, estimator)
                if admission.admitted:
                    entry.hits += 1
                    self.stats.hits += 1
                    variants.move_to_end(fingerprint)
                    self._shapes.move_to_end(shape)
                    result.entry = entry
                    result.admission = admission
                    return result
                self.stats.admission_rejects += 1
                result.admission_rejects += 1
            if not variants:
                del self._shapes[shape]
            self.stats.misses += 1
            return result

    # --------------------------------------------------------------- install

    def install(
        self,
        shape: str,
        plan: PlanOp,
        tables,
        params: Optional[dict[str, Any]] = None,
        checkpoints: int = 0,
    ) -> tuple[Optional[CachedPlan], int]:
        """Insert a freshly optimized plan as a variant of ``shape``.

        Returns ``(entry, evicted)`` — ``entry`` is None when an identical
        plan (same fingerprint) is already cached (its slot is refreshed),
        ``evicted`` counts variants dropped to respect the capacities.
        """
        with self._lock:
            fingerprint = plan_fingerprint(plan)
            variants = self._shapes.get(shape)
            if variants is None:
                variants = OrderedDict()
                self._shapes[shape] = variants
            self._shapes.move_to_end(shape)
            if fingerprint in variants:
                variants.move_to_end(fingerprint)
                return None, 0
            entry = CachedPlan(
                shape=shape,
                plan=plan,
                fingerprint=fingerprint,
                tables=frozenset(tables),
                params=dict(params or {}),
                checkpoints=checkpoints,
            )
            variants[fingerprint] = entry
            self.stats.installs += 1
            evicted = 0
            while len(variants) > self.config.variants_per_shape:
                variants.popitem(last=False)
                evicted += 1
            while len(self._shapes) > self.config.capacity:
                _, dropped = self._shapes.popitem(last=False)
                evicted += len(dropped)
            self.stats.evictions += evicted
            return entry, evicted

    # ---------------------------------------------------------- invalidation

    def discard(self, shape: str, fingerprint: str) -> bool:
        """Drop one variant (a CHECK fired on it)."""
        with self._lock:
            variants = self._shapes.get(shape)
            if variants is None or fingerprint not in variants:
                return False
            del variants[fingerprint]
            if not variants:
                del self._shapes[shape]
            self.stats.invalidations += 1
            return True

    def invalidate_tables(self, tables) -> int:
        """Drop every entry reading any of ``tables`` (stats/data/DDL change)."""
        affected = frozenset(tables)
        dropped = 0
        with self._lock:
            for shape in list(self._shapes):
                variants = self._shapes[shape]
                for fingerprint in list(variants):
                    if variants[fingerprint].tables & affected:
                        del variants[fingerprint]
                        dropped += 1
                if not variants:
                    del self._shapes[shape]
            self.stats.invalidations += dropped
        return dropped

    def clear(self) -> int:
        """Drop everything (counts as invalidation)."""
        with self._lock:
            dropped = len(self)
            self._shapes.clear()
            self.stats.invalidations += dropped
            return dropped

    # ------------------------------------------------------------ inspection

    def entries(self) -> list[CachedPlan]:
        """Snapshot of all variants, LRU shape first."""
        with self._lock:
            return [
                entry
                for variants in self._shapes.values()
                for entry in variants.values()
            ]

    def shapes(self) -> list[str]:
        with self._lock:
            return list(self._shapes)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._shapes.values())

    def __contains__(self, shape: str) -> bool:
        with self._lock:
            return shape in self._shapes
