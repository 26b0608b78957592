"""The public `Database` facade — the library's main entry point.

Typical use::

    from repro import Database, PopConfig

    db = Database()
    db.create_table("t", [("id", "int"), ("v", "str")])
    db.insert("t", [(1, "a"), (2, "b")])
    db.create_index("t_id", "t", "id")
    db.runstats()
    result = db.execute("SELECT t.v FROM t WHERE t.id = 1")
    print(result.rows)

``execute`` accepts SQL text or a :class:`repro.plan.logical.Query`, bind
parameters for ``?`` markers, and a :class:`PopConfig` controlling
progressive optimization (enabled with conservative defaults unless told
otherwise).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.cache import cache_usable
from repro.core.config import NO_POP, MemoryPolicy, PopConfig
from repro.core.driver import PopDriver, PopReport, StatementContext
from repro.core.feedback import CardinalityFeedback
from repro.sql.parameterize import parameterize_sql
from repro.core.learning import LearnedCardinalities
from repro.core.placement import optimize_and_place
from repro.executor.meter import WorkMeter
from repro.optimizer.costmodel import DEFAULT_COST_PARAMS, CostParams
from repro.optimizer.enumeration import OptimizerOptions
from repro.optimizer.optimizer import Optimizer
from repro.plan.explain import explain_plan
from repro.plan.logical import Query
from repro.stats.collect import runstats as collect_runstats
from repro.stats.selectivity import SelectivityEstimator
from repro.storage.catalog import Catalog
from repro.storage.table import Schema


@dataclass
class Result:
    """Rows plus the execution report of one statement."""

    columns: list
    rows: list
    report: PopReport

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class Database:
    """An in-memory database with a POP-enabled query processor."""

    def __init__(
        self,
        cost_params: CostParams = DEFAULT_COST_PARAMS,
        selectivity: Optional[SelectivityEstimator] = None,
    ):
        self.catalog = Catalog()
        self.cost_params = cost_params
        self.optimizer = Optimizer(
            self.catalog, cost_params=cost_params, selectivity=selectivity
        )
        #: §7 "Learning for the Future": when enabled, exact cardinalities
        #: observed at runtime correct the estimates of *future* statements.
        self.learning: Optional[LearnedCardinalities] = None
        #: Validity-range-aware plan cache (:mod:`repro.cache`); off until
        #: :meth:`enable_plan_cache`.
        self.plan_cache = None
        #: Per-database memory governor (:mod:`repro.governor`); off until
        #: :meth:`enable_memory_governor`.
        self.memory_governor = None
        #: Snapshot-transaction manager (:mod:`repro.txn`); off until
        #: :meth:`enable_transactions`.  When off, writes apply immediately
        #: and reads see latest data — the pre-transactional behavior.
        self.txn_manager = None
        #: Per-thread implicit transaction (:meth:`begin` / :meth:`commit` /
        #: :meth:`rollback`).
        self._txn_local = threading.local()

    def enable_learning(self) -> "LearnedCardinalities":
        """Turn on cross-statement cardinality learning (LEO-style)."""
        if self.learning is None:
            self.learning = LearnedCardinalities()
        return self.learning

    def disable_learning(self) -> None:
        self.learning = None

    def enable_plan_cache(
        self, capacity: int = 64, variants_per_shape: int = 4
    ):
        """Turn on the validity-range-aware plan cache for SQL statements.

        Statements are normalized (literals lifted to parameters) and keyed
        on shape; a cached plan is reused only when its validity ranges
        contain fresh cardinality estimates for the new parameter values,
        in which case optimization is skipped entirely.
        """
        from repro.cache import PlanCache, PlanCacheConfig

        if self.plan_cache is None:
            self.plan_cache = PlanCache(
                PlanCacheConfig(
                    capacity=capacity, variants_per_shape=variants_per_shape
                )
            )
        return self.plan_cache

    def disable_plan_cache(self) -> None:
        self.plan_cache = None

    def enable_memory_governor(
        self,
        budget_pages: float = 512.0,
        policy: Optional[MemoryPolicy] = None,
        metrics=None,
        tracer=None,
    ):
        """Turn on the shared-budget memory governor (:mod:`repro.governor`).

        Every subsequent :meth:`execute` is admitted against the budget,
        once its first plan is chosen, with a reservation sized from that
        plan's estimated memory (queuing, then shedding with
        :class:`~repro.common.errors.AdmissionRejected` when saturated),
        every grant is capped at the statement's reservation, and
        memory-consuming operators degrade by spilling when their grants
        are squeezed.

        ``metrics`` / ``tracer`` attach ``governor.*`` observability to
        admission decisions and renegotiations.
        """
        from repro.governor import MemoryGovernor

        if policy is None:
            policy = MemoryPolicy(budget_pages=budget_pages)
        self.memory_governor = MemoryGovernor(
            policy, metrics=metrics, tracer=tracer
        )
        return self.memory_governor

    def disable_memory_governor(self) -> None:
        self.memory_governor = None

    # ------------------------------------------------------------ transactions

    def enable_transactions(
        self,
        path: Optional[str] = None,
        checkpoint_interval: int = 16,
        crash_hook=None,
        metrics=None,
        tracer=None,
    ):
        """Turn on MVCC-lite snapshot transactions (:mod:`repro.txn`).

        With ``path``, commits are durable: each one appends a checksummed
        record to a write-ahead log and fsyncs before returning, and every
        ``checkpoint_interval`` commits the log is folded into an atomic
        checkpoint.  Re-opening a database on the same ``path`` runs
        recovery first (committed suffix replayed, torn tail truncated,
        uncommitted write-sets never seen).  Without ``path``,
        transactions provide isolation only.

        Once enabled, :meth:`insert` / :meth:`load_raw` stage into the
        calling thread's open transaction (or autocommit as a
        single-statement transaction), every statement reads from a pinned
        snapshot, and plan-cache invalidation coalesces to commit
        boundaries instead of firing per insert.
        """
        from repro.txn import TransactionManager

        if self.txn_manager is None:
            self.txn_manager = TransactionManager(
                self.catalog,
                directory=path,
                governor_source=lambda: self.memory_governor,
                metrics=metrics,
                tracer=tracer,
                checkpoint_interval=checkpoint_interval,
                crash_hook=crash_hook,
            )
            self.txn_manager.add_invalidation_callback(self._invalidate)
        return self.txn_manager

    def close(self) -> None:
        """Release durable resources (WAL file handle).  Safe to re-call."""
        if self.txn_manager is not None:
            self.txn_manager.close()

    def _require_txn_manager(self):
        if self.txn_manager is None:
            from repro.common.errors import TransactionError

            raise TransactionError(
                "transactions are not enabled: call enable_transactions() first"
            )
        return self.txn_manager

    def _thread_txn(self):
        """The calling thread's open implicit transaction, or ``None``."""
        txn = getattr(self._txn_local, "txn", None)
        if txn is not None and txn.state != "active":
            self._txn_local.txn = None
            return None
        return txn

    def begin(self):
        """Open the calling thread's implicit transaction."""
        manager = self._require_txn_manager()
        if self._thread_txn() is not None:
            from repro.common.errors import TransactionError

            raise TransactionError(
                "a transaction is already open on this thread"
            )
        txn = manager.begin()
        self._txn_local.txn = txn
        return txn

    def commit(self) -> int:
        """Commit the thread's implicit transaction; returns the new epoch."""
        manager = self._require_txn_manager()
        txn = self._thread_txn()
        if txn is None:
            from repro.common.errors import TransactionError

            raise TransactionError("no open transaction on this thread")
        self._txn_local.txn = None
        return manager.commit(txn)

    def rollback(self) -> None:
        """Discard the thread's implicit transaction (no-op write-set)."""
        manager = self._require_txn_manager()
        txn = self._thread_txn()
        if txn is None:
            from repro.common.errors import TransactionError

            raise TransactionError("no open transaction on this thread")
        self._txn_local.txn = None
        manager.rollback(txn)

    def _invalidate(self, tables=None) -> None:
        """Drop the cached plans and learned cardinalities that a data,
        statistics or DDL change to ``tables`` (all tables when ``None``)
        makes stale."""
        if self.learning is not None:
            self.learning.forget(tables)
        if self.plan_cache is None:
            return
        if tables is None:
            self.plan_cache.clear()
        else:
            self.plan_cache.invalidate_tables(tables)

    # ------------------------------------------------------------------ DDL

    def create_table(self, name: str, columns: Sequence[tuple[str, str]]):
        """Create a table from ``(column, type)`` pairs."""
        table = self.catalog.create_table(name, Schema.of(*columns))
        if self.txn_manager is not None:
            self.txn_manager.on_ddl(table)
        return table

    def create_index(self, name: str, table: str, column: str, kind: str = "sorted"):
        """Create a ``"sorted"`` or ``"hash"`` index on ``table.column``."""
        index = self.catalog.create_index(name, table, column, kind)
        if self.txn_manager is not None:
            self.txn_manager.on_ddl(index.table)
        self._invalidate([table])
        return index

    def insert(self, table: str, rows) -> None:
        """Insert rows.

        With transactions enabled the rows stage into the calling thread's
        open transaction (visible to others only at commit) or autocommit
        as one single-statement transaction; plan-cache invalidation then
        happens once per commit.  Without transactions the legacy direct
        path applies immediately and invalidates per call.
        """
        if self.txn_manager is not None:
            self._stage_or_autocommit(table, rows, raw=False)
            return
        self.catalog.table(table).insert_many(rows)
        self.catalog.rebuild_indexes(table)
        self._invalidate([table])

    def load_raw(self, table: str, rows: list) -> None:
        """Bulk load pre-coerced tuples and rebuild indexes."""
        if self.txn_manager is not None:
            self._stage_or_autocommit(table, rows, raw=True)
            return
        self.catalog.table(table).load_raw(rows)
        self.catalog.rebuild_indexes(table)
        self._invalidate([table])

    def _stage_or_autocommit(self, table: str, rows, raw: bool) -> None:
        manager = self.txn_manager
        txn = self._thread_txn()
        if txn is not None:
            manager.stage(txn, table, rows, raw=raw)
            return
        manager.autocommit(table, rows, raw=raw)

    def runstats(
        self,
        tables: Optional[Sequence[str]] = None,
        num_buckets: int = 20,
        num_mcvs: int = 10,
    ) -> None:
        """Collect optimizer statistics (the paper's RUNSTATS step)."""
        collect_runstats(
            self.catalog, tables, num_buckets=num_buckets, num_mcvs=num_mcvs
        )
        self._invalidate(tables)

    # ---------------------------------------------------------------- queries

    def _to_query(self, statement: str | Query) -> Query:
        if isinstance(statement, Query):
            return statement
        from repro.sql.binder import bind_sql

        return bind_sql(statement, self.catalog)

    def execute(
        self,
        statement: str | Query,
        params: Optional[dict[str, Any]] = None,
        pop: Optional[PopConfig] = None,
        meter: Optional[WorkMeter] = None,
        tracer=None,
        metrics=None,
        faults=None,
        profile: bool = False,
        cancel=None,
        plan_cache=None,
        snapshot=None,
        optimizer_options: Optional[OptimizerOptions] = None,
    ) -> Result:
        """Run a statement; POP is enabled by default.

        ``tracer`` / ``metrics`` (see :mod:`repro.obs`) attach structured
        tracing and metric collection to this statement; both default to
        off, which costs nothing.  ``faults`` (a
        :class:`repro.resilience.FaultPlan`) runs the statement under
        fault injection.  ``profile=True``
        attaches the live per-operator profiler (results land on the
        report's attempts).  Progress is read off the returned report
        (:func:`repro.obs.progress_history`).

        ``cancel`` (a :class:`~repro.common.cancel.CancelToken`) makes the
        statement cooperatively cancellable: admission waits, CHECK points,
        emit sites, and blocking operator phases all poll it, and a set
        token unwinds with
        :class:`~repro.common.errors.ExecutionCancelled` after releasing
        spill files and the governor reservation.  ``plan_cache`` overrides
        the database-wide cache for this statement (the server passes a
        per-session cache here so sessions cannot poison each other's
        plans); pass nothing to keep using :attr:`plan_cache`.

        ``snapshot`` pins the statement to an explicit
        :class:`repro.txn.Snapshot` (the server passes the session
        transaction's).  When omitted and transactions are enabled, the
        statement reads at the calling thread's open transaction's
        snapshot, or a fresh per-statement pin — either way every spill and
        re-optimization round of the statement sees one immutable
        row-set.

        ``optimizer_options`` are this statement's optimizer switches (e.g.
        hash joins off for Fig. 12; the defaults when omitted).  A statement
        that passes them, and one with ``stats`` faults, skips the plan
        cache: cached plans were chosen under the default options and the
        catalog's statistics.
        """
        config = pop if pop is not None else PopConfig()
        effective_cache = plan_cache if plan_cache is not None else self.plan_cache
        stmt = None
        if (
            effective_cache is not None
            and optimizer_options is None
            and (faults is None or not faults.stats_specs)
            and isinstance(statement, str)
            and cache_usable(config)
        ):
            # Normalize: lift literals to markers so repeated statements
            # differing only in literal values share one cache shape.  The
            # lifted values join the caller's bind parameters at runtime
            # (namespaces are disjoint: ``__litN`` vs user markers).
            stmt = parameterize_sql(statement, self.catalog)
            # Cached plans keep their CHECKs: a variant serves only
            # statements that would have placed the same ones.
            stmt.shape += " | checks=" + config.checks_key()
            query = stmt.query
            params = {**(params or {}), **stmt.params}
        else:
            query = self._to_query(statement)
        if snapshot is None and self.txn_manager is not None:
            txn = self._thread_txn()
            snapshot = (
                txn.snapshot if txn is not None
                else self.txn_manager.pin_snapshot()
            )
        sc = StatementContext(
            query,
            config,
            optimizer_options if optimizer_options is not None else OptimizerOptions(),
            params=params,
            meter=meter,
            feedback=(
                self.learning.seed(query) if self.learning is not None
                else CardinalityFeedback()
            ),
            faults=faults,
            plan_cache=effective_cache,
            statement=stmt,
            sql=statement if isinstance(statement, str) else None,
            governor=self.memory_governor,
            cancel=cancel,
            snapshot=snapshot,
            tracer=tracer,
            metrics=metrics,
            profile=profile,
        )
        rows, report = PopDriver(self.optimizer).run(sc)
        if self.learning is not None:
            self.learning.absorb(query, sc.feedback)
        return Result(columns=query.output_names, rows=rows, report=report)

    def execute_without_pop(
        self,
        statement: str | Query,
        params: Optional[dict[str, Any]] = None,
        meter: Optional[WorkMeter] = None,
    ) -> Result:
        """The paper's baseline: static optimization, no checkpoints."""
        return self.execute(statement, params=params, pop=NO_POP, meter=meter)

    def plan(
        self,
        statement: str | Query,
        params: Optional[dict[str, Any]] = None,
        pop: Optional[PopConfig] = None,
        optimizer_options: Optional[OptimizerOptions] = None,
    ):
        """Plan ``statement`` as the first attempt of :meth:`execute` would,
        without running it: ``(OptimizationResult, PlacementResult)``.

        ``params`` is accepted for symmetry with :meth:`execute`; markers
        are planned at default selectivities, as they are there.
        ``optimizer_options`` are this call's switches, as there.  With
        learning on, the plan uses what earlier statements learned, as
        :meth:`execute`'s first round does.
        """
        query = self._to_query(statement)
        config = pop if pop is not None else PopConfig()
        if config.max_reoptimizations < 1:
            config = NO_POP  # execute's only round is then its last: no CHECKs
        return optimize_and_place(
            self.optimizer, query, config, options=optimizer_options,
            feedback=self.learning.seed(query) if self.learning is not None else None,
        )

    def explain(
        self,
        statement: str | Query,
        params: Optional[dict[str, Any]] = None,
        pop: Optional[PopConfig] = None,
    ) -> str:
        """The plan (with checkpoints) the statement would run with."""
        return explain_plan(self.plan(statement, params, pop)[1].plan)
