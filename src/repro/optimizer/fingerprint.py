"""Structural plan fingerprints.

A fingerprint is a stable digest of everything that defines a physical
plan: operator kinds and their operator-specific fields, estimated
cardinalities and costs, validity ranges, CHECK ranges and flavors, and
tree structure.  Two uses:

* the plan cache deduplicates plan variants per statement shape by
  fingerprint, and
* cached plans must never be mutated in place (they are re-executed
  verbatim); ``PlanCache.lookup`` re-fingerprints every candidate before
  reuse, so a plan changed at any time — even during a reused run — is
  dropped before it can run again.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterator

from repro.plan.physical import PlanOp


def _num(value: float) -> str:
    """Canonical text for floats (inf-safe, round-trip stable)."""
    if math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return repr(float(value))


def _describe_tokens(op: PlanOp) -> Iterator[str]:
    """The identity-bearing tokens of one operator."""
    yield op.KIND
    # describe() covers the operator-specific fields (table, filters, join
    # predicates, sort keys, MV name, ...) in a stable textual form.
    yield op.describe()
    yield _num(op.est_card)
    yield _num(op.est_cost)
    for rng in op.validity_ranges:
        yield f"[{_num(rng.low)},{_num(rng.high)}]"
    check_range = getattr(op, "check_range", None)
    if check_range is not None:
        flavor = getattr(op, "flavor", "")
        yield f"check:{flavor}:[{_num(check_range.low)},{_num(check_range.high)}]"
        buffer_size = getattr(op, "buffer_size", None)
        if buffer_size is not None:
            yield f"buf:{buffer_size}"


def plan_fingerprint(root: PlanOp) -> str:
    """A stable hex digest of the plan's structure and annotations."""
    hasher = hashlib.sha256()
    for op in root.walk():
        for token in _describe_tokens(op):
            hasher.update(token.encode("utf-8", "replace"))
            hasher.update(b"\x1f")
        hasher.update(f"children:{len(op.children)}".encode())
        hasher.update(b"\x1e")
    return hasher.hexdigest()
