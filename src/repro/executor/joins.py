"""Join operators: nested-loop (index and rescan), hash, and sort-merge.

Under the memory governor, :class:`HashJoinExec` degrades Grace-style: a
build side that outgrows its grant is partitioned to spill files by a
deterministic key hash, the probe side is partitioned the same way, and
each partition pair is joined independently — recursing on partitions
that are still too big, and falling back to block nested-loop (the NLJN
flavor of the degradation ladder) past the recursion depth cap.
"""

from __future__ import annotations

import zlib
from itertools import chain, islice
from operator import itemgetter
from typing import Optional

from repro.common.errors import ExecutionError
from repro.executor.base import ExecutionContext, Operator
from repro.executor.check import CheckExec
from repro.executor.scans import IndexScanExec
from repro.expr.evaluate import compile_filter
from repro.plan.physical import Check, HashJoin, MergeJoin, NLJoin, find_ops


def _key_hashes(keys: list):
    """The 32-bit hash of each join key: ``crc32`` over its repr.

    Python's builtin ``hash`` is randomized per process for strings, which
    would make partition contents (and thus spill volume and row order)
    irreproducible across runs.  A single-column key arrives as the bare
    value (see :func:`_key_kernels`) and is hashed as the 1-tuple, so the
    hash does not depend on that representation.
    """
    if keys and keys[0].__class__ is not tuple:
        keys = zip(keys)
    return map(zlib.crc32, map(str.encode, map(repr, keys)))


def _route(rows: list[tuple], keys: list, depth: int, parts: list) -> None:
    """Append each row to the Grace partition its key falls in at ``depth``.

    The partition is base-``len(parts)`` digit ``depth`` of the key's hash,
    so each recursion depth reads bits no earlier depth read and a
    partition that is still too big splits at the next one.  (A hash
    salted with the depth cannot do that: CRC32 is affine, so for keys
    whose reprs have one length the salted hash is the unsalted one XOR a
    constant, and a partition split only by key length.)  The batch is
    bucketed in one pass, then written with one ``append_batch`` per
    non-empty bucket: each file gets its rows in arrival order and flushes
    at the same row counts as a row-at-a-time writer.
    """
    fanout = len(parts)
    scale = fanout**depth
    buckets: list[list[tuple]] = [[] for _ in parts]
    for digest, row in zip(_key_hashes(keys), rows):
        buckets[digest // scale % fanout].append(row)
    for part, bucket in zip(parts, buckets):
        if bucket:
            part.append_batch(bucket)


def _insert(table: dict, keys, rows: list[tuple]) -> None:
    """Add ``rows`` to the hash-join build ``table`` under their ``keys``."""
    get = table.get
    for key, row in zip(keys, rows):
        bucket = get(key)
        if bucket is None:
            table[key] = [row]
        else:
            bucket.append(row)


def _key_kernels(plan) -> tuple[list[int], list[int], itemgetter, itemgetter]:
    """An equi-join's key columns: ``(outer slots, inner slots, outer
    key_of, inner key_of)``.

    ``key_of(row)`` is one C-level ``itemgetter`` call; over a single slot
    it yields the bare value, over several a tuple — both sides of a join
    have the same arity, so their keys stay comparable and hash alike.
    """
    outer_tables = plan.outer.properties.tables
    outer_slots: list[int] = []
    inner_slots: list[int] = []
    for pred in plan.join_predicates:
        if pred.left.table in outer_tables:
            outer_col, inner_col = pred.left, pred.right
        else:
            outer_col, inner_col = pred.right, pred.left
        outer_slots.append(plan.outer.layout.slot(outer_col))
        inner_slots.append(plan.inner.layout.slot(inner_col))
    return outer_slots, inner_slots, itemgetter(*outer_slots), itemgetter(*inner_slots)


def _drop_null_keys(rows: list[tuple], slots: list[int]) -> list[tuple]:
    """``rows`` without those holding a NULL in a key slot (NULL joins
    nothing).  A batch without NULL keys — the common case — costs one
    C-level scan per key column and no copy."""
    for slot in slots:
        if None in map(itemgetter(slot), rows):
            rows = [row for row in rows if row[slot] is not None]
    return rows


class NLJoinExec(Operator):
    """Nested-loop join.

    ``index`` method: the inner is a correlated :class:`IndexScanExec`
    probed with the join keys of ``k = rows still wanted // fan`` outer rows
    per pull (``fan``: the longest rid list its index can return), so every
    pulled row's matches fit into the request.  ``k`` is 1 while a CHECK in
    the outer has yet to evaluate, so its event stamps the meter at the
    same row whatever the batch width.
    ``rescan`` method: the inner is a :class:`TempExec` reset and re-read per
    outer row.
    """

    def __init__(self, plan: NLJoin, ctx: ExecutionContext, outer: Operator, inner: Operator):
        super().__init__(plan, ctx)
        self.outer = outer
        self.inner = inner
        #: The outer row whose inner matches are being drained (rescan, or last probe key).
        self._outer_row: Optional[tuple] = None
        self._residual = None
        self._outer_key_slot: Optional[int] = None
        self._outer_checks: list[CheckExec] = []
        #: Latched on outer EOF so a follow-up ``next_batch`` call (after a
        #: partial batch was returned) never re-pulls an exhausted outer —
        #: a CHECK below would charge its EOF pull twice.
        self._outer_eof = False

    def open(self) -> None:
        super().open()
        self.outer.open()
        self.inner.open()
        plan = self.plan
        if plan.method == "index":
            if not isinstance(self.inner, IndexScanExec):
                raise ExecutionError("index NLJN requires a correlated index scan inner")
            corr = self.inner.plan.correlation
            if corr is None:
                raise ExecutionError("index NLJN inner has no correlation column")
            self._outer_key_slot = self.outer.plan.layout.slot(corr)
            checks = set(find_ops(plan.outer, Check))
            self._outer_checks = [
                op for op in self.ctx.operators if isinstance(op, CheckExec) and op.plan in checks
            ]
            # All predicates beyond the indexed one are residuals on the
            # concatenated row.
            residual = plan.join_predicates[1:]
        else:
            residual = plan.join_predicates
        self._residual = compile_filter(residual, plan.layout, self.ctx.params)
        self._outer_row = None
        self._outer_eof = False

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        assert self._residual is not None
        residual = self._residual
        inner = self.inner
        out: list[tuple] = []
        while len(out) < max_rows:
            room = max_rows - len(out)
            if self._outer_row is not None:
                # Inner request capped at the rows still wanted so the output
                # never overshoots ``max_rows``; the inner is drained to EOF
                # per outer row across calls regardless of request size.
                inner_batch = inner.next_batch(room)
                if inner_batch is None:
                    self._outer_row = None
                    continue
                orow = self._outer_row
                out += residual([orow + inner_row for inner_row in inner_batch])
                continue
            if self._outer_eof:
                break
            if self.plan.method == "rescan" or any(
                check.can_still_evaluate for check in self._outer_checks
            ):
                want = 1
            else:
                fan = inner.index.max_rids_per_key()  # type: ignore[attr-defined]
                want = max(1, room // fan) if fan else room
            batch = self.outer.next_batch(want)
            if batch is None:
                self._outer_eof = True
                break
            self._outer_row = batch[-1]
            if self.plan.method == "rescan":
                inner.reset()  # type: ignore[attr-defined]
                continue
            keys = [row[self._outer_key_slot] for row in batch]
            groups = inner.probe(keys, room)  # type: ignore[attr-defined]
            out += residual(
                [orow + irow for orow, matches in zip(batch, groups) for irow in matches]
            )
        if out:
            self.ctx.meter.charge(len(out) * self.ctx.cost_params.cpu_emit)
            return self.emit_batch(out)
        self.finish()
        return None

    def profile_extras(self) -> dict:
        return {"method": self.plan.method, "outer_rows": self.outer.rows_out}


class HashJoinExec(Operator):
    """Hash join: builds on the inner child, probes with the outer."""

    def __init__(self, plan: HashJoin, ctx: ExecutionContext, outer: Operator, inner: Operator):
        super().__init__(plan, ctx)
        self.outer = outer
        self.inner = inner
        self._table: dict = {}
        self._build_rows = 0
        self._build_complete = False
        self._matches: list[tuple] = []
        self._match_pos = 0
        self._outer_row: Optional[tuple] = None
        #: Outer rows pulled but not yet probed (a batch is charged and
        #: buffered whole, then probed row by row, so a key with more
        #: matches than the caller wants can be served across calls).
        self._outer_pending: list[tuple] = []
        self._pending_pos = 0
        #: Latched on outer EOF (see NLJoinExec._outer_eof).
        self._outer_eof = False
        (
            self._outer_slots,
            self._inner_slots,
            self._outer_key,
            self._inner_key,
        ) = _key_kernels(plan)
        self.spilled = False
        #: Deepest Grace recursion depth a non-empty partition pair was
        #: joined at (1: split once), and block nested-loop chunks joined.
        self.grace_depth = 0
        self.block_chunks = 0
        self._result_iter = None

    def open(self) -> None:
        super().open()
        p = self.ctx.cost_params
        if self.ctx.spill_enabled:
            self._open_grace()
            return
        # Build phase: drain the inner completely (a materialization of
        # sorts, though not one the prototype reuses — matching the paper's
        # "current implementation does not reuse hash join builds").
        self.inner.open()
        table = self._table = {}
        key_of = self._inner_key
        interruptible = self.ctx.interruptible
        batch_size = self.ctx.batch_size
        while True:
            batch = self.inner.next_batch(batch_size)
            if batch is None:
                break
            # Blocking build phase: poll before emit_batch() ever sees a row.
            if interruptible:
                self.ctx.check_interrupt()
            self.ctx.meter.charge(len(batch) * p.cpu_hash_build)
            batch = _drop_null_keys(batch, self._inner_slots)
            self._build_rows += len(batch)
            _insert(table, map(key_of, batch), batch)
        self._build_complete = True
        self._charge_spill(self._build_rows)
        self.outer.open()

    def close(self) -> None:
        """Release the build table and pending matches (idempotent)."""
        super().close()
        self._table = {}
        self._matches = []
        self._match_pos = 0
        self._outer_pending = []
        self._pending_pos = 0
        self._result_iter = None

    def _charge_spill(self, build_rows: int) -> None:
        """Charge the multi-stage partitioning I/O the cost model predicts.

        Deliberately evaluated *after* the build side is fully
        materialized, with a fresh ``grant_pages`` call: a grant that
        shrank mid-build is seen here, so an overcommitted build is at
        least priced and reported instead of passing silently (the
        pre-spill stopgap; with a memory policy attached the same
        condition triggers a real spill in :meth:`_open_grace`).
        """
        cm = self.ctx.cost_model
        p = self.ctx.cost_params
        build_pages = cm.pages_for(build_rows)
        grant = self.ctx.grant_pages(p.hash_mem_pages, "hash")
        if build_pages > grant:
            if self.ctx.metrics is not None:
                self.ctx.metrics.inc("executor.hash_overcommit")
            if self.ctx.tracer is not None:
                self.ctx.tracer.event(
                    "hash.overcommit",
                    span=self.ctx.exec_span_id,
                    op_id=self.plan.op_id,
                    build_pages=build_pages,
                    granted_pages=grant,
                )
            # Approximate the model's spill term with the build contribution
            # now; the probe contribution is charged per probe row below.
            self.ctx.meter.charge(2.0 * build_pages * p.io_page)
            self._probe_spill_per_row = 2.0 * p.io_page / p.rows_per_page
        else:
            self._probe_spill_per_row = 0.0

    # ------------------------------------------------------- governed build

    def _capacity_rows(self, grant: float) -> int:
        return max(1, int(grant * self.ctx.cost_params.rows_per_page))

    def _open_grace(self) -> None:
        """Governed build: in-memory while it fits, Grace partitions when
        it does not — and re-checked once the build side is complete, so a
        reservation renegotiated mid-build cannot overcommit silently."""
        p = self.ctx.cost_params
        fanout = self.ctx.memory.spill_partitions
        grant = self.ctx.grant_pages(p.hash_mem_pages, "hash")
        capacity = self._capacity_rows(grant)
        self.inner.open()
        self._table = {}
        build_parts = None
        interruptible = self.ctx.interruptible
        batch_size = self.ctx.batch_size
        while True:
            batch = self.inner.next_batch(batch_size)
            if batch is None:
                break
            # A kill mid-Grace-build must not leak the partition files it
            # already created: raising here unwinds into run_plan's
            # teardown, which closes this operator and releases the spill
            # manager exactly once.
            if interruptible:
                self.ctx.check_interrupt()
            self.ctx.meter.charge(len(batch) * p.cpu_hash_build)
            batch = _drop_null_keys(batch, self._inner_slots)
            keys = list(map(self._inner_key, batch))
            if build_parts is None:
                # In memory up to the first row past the capacity; that row
                # spills the table, and the rest of the batch is routed.
                take = min(len(batch), capacity + 1 - self._build_rows)
                _insert(self._table, keys[:take], batch[:take])
                self._build_rows += take
                if self._build_rows <= capacity:
                    continue
                build_parts = self._spill_table(fanout)
                batch, keys = batch[take:], keys[take:]
            self._build_rows += len(batch)
            _route(batch, keys, 0, build_parts)
        self._build_complete = True
        # Mid-build pressure re-check: the grant may have shrunk while the
        # build was draining; a table that no longer fits spills now.
        if build_parts is None and self._build_rows > 0:
            grant_now = self.ctx.grant_pages(p.hash_mem_pages, "hash")
            if self._build_rows > self._capacity_rows(grant_now):
                build_parts = self._spill_table(fanout)
                capacity = self._capacity_rows(grant_now)
        self._probe_spill_per_row = 0.0
        self.outer.open()
        if build_parts is not None:
            self.spilled = True
            for part in build_parts:
                part.close()
            self._result_iter = chain.from_iterable(
                self._grace_probe(build_parts, fanout, capacity)
            )

    def _spill_table(self, fanout: int):
        """Move the in-memory build table into partition spill files."""
        parts = [
            self.ctx.spill.create("hash", f"hash-build-p{i}") for i in range(fanout)
        ]
        table, self._table = self._table, {}
        rows = [row for bucket in table.values() for row in bucket]
        keys = [key for key, bucket in table.items() for _ in bucket]
        _route(rows, keys, 0, parts)
        return parts

    def _grace_probe(self, build_parts, fanout: int, capacity: int):
        """Partition the probe side, then join partition pairs; yields one
        list of joined rows per probe batch."""
        p = self.ctx.cost_params
        probe_parts = [
            self.ctx.spill.create("hash", f"hash-probe-p{i}") for i in range(fanout)
        ]
        interruptible = self.ctx.interruptible
        batch_size = self.ctx.batch_size
        while True:
            batch = self.outer.next_batch(batch_size)
            if batch is None:
                break
            if interruptible:
                self.ctx.check_interrupt()
            self.ctx.meter.charge(len(batch) * p.cpu_hash_probe)
            batch = _drop_null_keys(batch, self._outer_slots)
            _route(batch, list(map(self._outer_key, batch)), 0, probe_parts)
        for part in probe_parts:
            part.close()
        for build, probe in zip(build_parts, probe_parts):
            yield from self._join_partition(build, probe, 1, fanout, capacity)

    def _join_partition(self, build, probe, depth: int, fanout: int, capacity: int):
        """Join one build/probe partition pair, recursing or degrading."""
        if build.row_count == 0 or probe.row_count == 0:
            build.delete()
            probe.delete()
            return
        self.grace_depth = max(self.grace_depth, depth)
        if build.row_count <= capacity:
            yield from self._hash_rows(build.batches(), probe)
        elif depth <= self.ctx.memory.max_recursion_depth:
            # Re-partition both sides on the next hash digit and recurse.
            sub_build = [
                self.ctx.spill.create("hash", f"{build.label}.{i}") for i in range(fanout)
            ]
            sub_probe = [
                self.ctx.spill.create("hash", f"{probe.label}.{i}") for i in range(fanout)
            ]
            for batch in build.batches():
                _route(batch, list(map(self._inner_key, batch)), depth, sub_build)
            for batch in probe.batches():
                _route(batch, list(map(self._outer_key, batch)), depth, sub_probe)
            build.delete()
            probe.delete()
            for b, pr in zip(sub_build, sub_probe):
                b.close()
                pr.close()
                yield from self._join_partition(b, pr, depth + 1, fanout, capacity)
            return
        else:
            # Degradation ladder, last rung before the guard's safe plan:
            # block nested-loop within the partition (NLJN flavor) — the
            # build is processed one grant-sized chunk at a time, the probe
            # file rescanned per chunk.
            yield from self._block_join(build, probe, capacity)
        build.delete()
        probe.delete()

    def _block_join(self, build, probe, capacity: int):
        chunk: list[tuple] = []
        for batch in build.batches():
            chunk += batch
            while len(chunk) >= capacity:
                self.block_chunks += 1
                yield from self._hash_rows([chunk[:capacity]], probe)
                chunk = chunk[capacity:]
        if chunk:
            self.block_chunks += 1
            yield from self._hash_rows([chunk], probe)

    def _hash_rows(self, build_batches, probe):
        """Classic in-memory hash join of ``build_batches`` (a whole build
        partition, or one grant-sized chunk of it) with a probe file;
        yields one list of joined rows per probe batch."""
        table: dict = {}
        for batch in build_batches:
            _insert(table, map(self._inner_key, batch), batch)
        get, key_of = table.get, self._outer_key
        for batch in probe.batches():
            yield [
                prow + brow
                for key, prow in zip(map(key_of, batch), batch)
                for brow in get(key, ())
            ]

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        p = self.ctx.cost_params
        if self._result_iter is not None:
            out = list(islice(self._result_iter, max_rows))
            if not out:
                self.finish()
                return None
            self.ctx.meter.charge(len(out) * p.cpu_emit)
            return self.emit_batch(out)
        pairs, n = self._probe(max_rows)
        if not n:
            self.finish()
            return None
        self.ctx.meter.charge(n * p.cpu_emit)
        return self.emit_batch([orow + m for orow, matches in pairs for m in matches])

    def next_matches(self, max_rows: int) -> Optional[tuple[list, int]]:
        """``next_batch`` for a GROUP BY that folds this join's output (a
        groupjoin): the same pulls, charges and counters, but the batch is
        left as ``(probe row, matches)`` pairs, its rows never built.
        Returns ``(pairs, n)``, ``n`` the rows they stand for, or ``None``
        at end of stream.  In-memory joins only: a spilled join has no
        probe loop to share."""
        self.require_open()
        pairs, n = self._probe(max_rows)
        if not n:
            self.finish()
            return None
        self.ctx.meter.charge(n * self.ctx.cost_params.cpu_emit)
        return pairs, self.emit_count(n)

    def _probe(self, max_rows: int) -> tuple[list, int]:
        """Probe up to ``max_rows`` output rows' worth of outer rows: the
        ``(outer row, its matches)`` pairs, in output order, and the row
        count ``n`` they stand for (0 only at end of stream).  A key with
        more matches than still fit is served across calls from the carry
        (``_matches`` from ``_match_pos``).  Charges each outer batch it
        pulls; the caller charges the ``n`` rows."""
        pairs: list[tuple[tuple, list[tuple]]] = []
        n = 0
        get = self._table.get
        key_of = self._outer_key
        probe_charge = self.ctx.cost_params.cpu_hash_probe + self._probe_spill_per_row
        while n < max_rows:
            if self._match_pos < len(self._matches):
                # One key's matches overflowed an earlier request: serve
                # the carry before probing on.
                mp = self._match_pos
                take = min(max_rows - n, len(self._matches) - mp)
                pairs.append((self._outer_row, self._matches[mp:mp + take]))
                n += take
                self._match_pos = mp + take
                continue
            pending = self._outer_pending[self._pending_pos:]
            if pending:
                # NULL keys need no test here: the build skipped them, so
                # they miss like any other absent key.
                room = max_rows - n
                probed = 0
                for key, orow in zip(map(key_of, pending), pending):
                    probed += 1
                    matches = get(key)
                    if matches is None:
                        continue
                    if len(matches) > room:
                        self._outer_row = orow
                        self._matches = matches
                        self._match_pos = 0
                        break
                    pairs.append((orow, matches))
                    room -= len(matches)
                    if not room:
                        break
                self._pending_pos += probed
                n = max_rows - room
                continue
            if self._outer_eof:
                break
            # Outer request capped at the rows still wanted: the pull is
            # demand-driven up to one batch of slack.
            batch = self.outer.next_batch(max_rows - n)
            if batch is None:
                self._outer_eof = True
                break
            self.ctx.meter.charge(len(batch) * probe_charge)
            self._outer_pending = batch
            self._pending_pos = 0
        return pairs, n

    def profile_extras(self) -> dict:
        extras = {
            "build_rows": self._build_rows,
            "build_complete": self._build_complete,
            "probe_rows": self.outer.rows_out,
            "spilled": self.spilled,
        }
        if self.spilled:
            # How far the Grace join degraded.
            extras["grace_depth"] = self.grace_depth
            extras["block_chunks"] = self.block_chunks
        return extras


class MergeJoinExec(Operator):
    """Sort-merge join over two key-ordered inputs.

    Handles duplicate keys on both sides (cross product within key groups).
    """

    def __init__(self, plan: MergeJoin, ctx: ExecutionContext, outer: Operator, inner: Operator):
        super().__init__(plan, ctx)
        self.outer = outer
        self.inner = inner
        (
            self._outer_slots,
            self._inner_slots,
            self._outer_key,
            self._inner_key,
        ) = _key_kernels(plan)
        self._output: list[tuple] = []
        self._pos = 0

    def _drain(self, child: Operator) -> list[tuple]:
        interruptible = self.ctx.interruptible
        rows: list[tuple] = []
        batch_size = self.ctx.batch_size
        while True:
            batch = child.next_batch(batch_size)
            if batch is None:
                return rows
            rows.extend(batch)
            # Blocking merge build: poll per drained batch.
            if interruptible:
                self.ctx.check_interrupt()

    def open(self) -> None:
        super().open()
        p = self.ctx.cost_params
        self.outer.open()
        self.inner.open()
        left = self._drain(self.outer)
        right = self._drain(self.inner)
        self.ctx.meter.charge((len(left) + len(right)) * p.cpu_row)
        # NULL keys join nothing; without them the merge compares keys only.
        left = _drop_null_keys(left, self._outer_slots)
        right = _drop_null_keys(right, self._inner_slots)
        lkeys = list(map(self._outer_key, left))
        rkeys = list(map(self._inner_key, right))
        # Merge the two sorted inputs group by group.
        output: list[tuple] = []
        i = j = 0
        n_left, n_right = len(left), len(right)
        while i < n_left and j < n_right:
            lkey, rkey = lkeys[i], rkeys[j]
            if lkey < rkey:
                i += 1
            elif lkey > rkey:
                j += 1
            else:
                i_end = i + 1
                while i_end < n_left and lkeys[i_end] == lkey:
                    i_end += 1
                j_end = j + 1
                while j_end < n_right and rkeys[j_end] == rkey:
                    j_end += 1
                group = right[j:j_end]
                for lrow in left[i:i_end]:
                    output += [lrow + rrow for rrow in group]
                i, j = i_end, j_end
        self._output = output
        self._pos = 0

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        output = self._output
        pos = self._pos
        if pos >= len(output):
            self.finish()
            return None
        take = min(max_rows, len(output) - pos)
        self._pos = pos + take
        self.ctx.meter.charge(take * self.ctx.cost_params.cpu_emit)
        return self.emit_batch(output[pos:pos + take])

    def close(self) -> None:
        """Release the merged output buffer (idempotent)."""
        super().close()
        self._output = []
        self._pos = 0

    def profile_extras(self) -> dict:
        # Captured at first close, before the buffer above is released.
        return {
            "merged_rows": len(self._output),
            "outer_rows": self.outer.rows_out,
            "inner_rows": self.inner.rows_out,
        }
