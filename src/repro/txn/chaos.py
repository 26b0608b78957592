"""Kill-crash chaos for the transaction layer: die, recover, verify.

Two seeded scenarios prove the tentpole's durability and isolation
contracts end to end:

``crash``
    Many cases per seed.  Each case opens a durable database, arms one
    seeded kill (:class:`~repro.txn.faults.CrashPlan`) at a WAL or
    checkpoint point — plain death, a torn partial write, or a failed
    ``fsync`` — then runs a scripted sequence of committed transactions
    until the kill fires.  The in-memory state is thrown away (a
    :class:`~repro.txn.faults.SimulatedCrash` is a ``BaseException``;
    nothing catches it but the harness) and the database is re-opened
    from disk.  The recovered state must be **oracle-identical to a
    prefix of the committed transactions** — exactly ``k`` of them,
    where ``k`` is pinned by where the kill landed relative to the
    fsync: before the record was flushed -> the prior commit; after ->
    the in-flight one.  Never a torn row, never an uncommitted
    write-set, and never a lost index: the workload's index, created
    before the durable open, must survive both recoveries.  Recovery is
    then exercised a second time (idempotence) and the recovered
    database must accept new commits.

``snapshot``
    K writer threads append to a shared table in R-row transactions
    (retrying first-committer-wins conflicts) while K reader sessions on
    a live server open transactions and scan repeatedly.  Every read
    inside a transaction must be *identical* across repeats (the pinned
    snapshot cannot move) and *valid*: per writer, a contiguous prefix
    whose length is a multiple of R — a torn or half-installed commit
    would break contiguity.  One reader drops mid-transaction to prove
    abort-on-disconnect.  A pinned snapshot is then re-scanned at batch
    widths 1, 64, and 1024 after further commits — the watermark filter
    must be width-independent.

After each scenario the shared invariants are audited: the governor
drained with zero reservations, zero leaked spill directories or
``.tmp`` durability files, active-transaction count zero, and (when
``REPRO_LOCK_WITNESS=1``) every witnessed lock edge present in the
static lock graph.  Both run through ``python -m repro.chaos`` (see
:mod:`repro.chaos`); CI runs them blocking with two fixed seeds.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
from functools import partial
from typing import Optional

from repro.common.chaosutil import (
    Baseline,
    ScenarioOutcome,
    canonical_rows,
    query_seed,
    run_together,
)
from repro.common.errors import TransactionConflict, WalError
from repro.core.config import MemoryPolicy, PopConfig
from repro.core.database import Database
from repro.txn.faults import (
    FSYNC_FAIL,
    TORN,
    CrashInjector,
    CrashPlan,
    SimulatedCrash,
)

#: Tables and index of the crash workload (created before the durable
#: open, so the checkpoint-at-open captures them).
CRASH_TABLES = (
    ("events", (("e_id", "int"), ("e_val", "float"), ("e_note", "str"))),
    ("audit", (("a_id", "int"), ("a_tag", "str"))),
)
CRASH_INDEX = ("ix_events_id", "events", "e_id")
#: Committed transactions per crash case / checkpoint cadence.  Twelve
#: commits at interval three fold the log four times, so every
#: checkpoint point occurs at least ``MAX_TRIGGER`` times and every
#: seeded schedule actually fires.
CRASH_TXNS = 12
CHECKPOINT_INTERVAL = 3
MAX_TRIGGER = 4


# ------------------------------------------------------------------ crash


def _crash_script(rng: random.Random) -> list:
    """A deterministic sequence of write-sets (the committed-txn script)."""
    script = []
    next_id = {"events": 0, "audit": 0}
    for _ in range(CRASH_TXNS):
        writes = {}
        for name in ("events", "audit"):
            if name == "audit" and rng.random() < 0.4:
                continue  # not every transaction touches both tables
            rows = []
            for _ in range(rng.randint(1, 3)):
                i = next_id[name]
                next_id[name] += 1
                if name == "events":
                    rows.append((i, round(rng.uniform(0.0, 100.0), 6), f"e{i}"))
                else:
                    rows.append((i, f"t{i}"))
            writes[name] = rows
        script.append(writes)
    return script


def _states_after(script: list) -> list:
    """Canonical full-database state after each committed prefix.

    ``states[k]`` is the oracle for "exactly the first ``k`` transactions
    committed" — the only states recovery is ever allowed to produce.
    """
    acc: dict = {name: [] for name, _cols in CRASH_TABLES}
    states = [{name: canonical_rows(rows) for name, rows in acc.items()}]
    for writes in script:
        for name, rows in writes.items():
            acc[name].extend(rows)
        states.append({name: canonical_rows(rows) for name, rows in acc.items()})
    return states


def _db_state(db: Database, problems: list, label: str) -> Optional[dict]:
    from repro.common.errors import CatalogError

    state = {}
    for name, _cols in CRASH_TABLES:
        try:
            state[name] = canonical_rows(db.catalog.table(name).rows)
        except CatalogError:
            problems.append(f"{label}: table {name!r} missing after recovery")
            return None
    index, table, _column = CRASH_INDEX
    if index not in {ix.name for ix in db.catalog.indexes_on(table)}:
        problems.append(f"{label}: index {index!r} missing after recovery")
    return state


def _temp_leaks(directory: str) -> list:
    try:
        return sorted(n for n in os.listdir(directory) if ".tmp" in n)
    except OSError:
        return []


def _run_crash_case(seed: int, case: int, problems: list) -> bool:
    """One seeded kill-recover-verify cycle; ``True`` if the kill fired."""
    tag = f"crash seed={seed} case={case}"
    rng = random.Random(query_seed(seed, "txn-crash", str(case)))
    script = _crash_script(rng)
    states = _states_after(script)
    plan = CrashPlan.seeded(
        query_seed(seed, "txn-plan", str(case)), max_trigger=MAX_TRIGGER
    )
    injector = CrashInjector(plan)
    tmpdir = tempfile.mkdtemp(prefix="repro-txn-chaos-")
    try:
        db = Database()
        for name, columns in CRASH_TABLES:
            db.create_table(name, list(columns))
        db.create_index(*CRASH_INDEX)
        governor = db.enable_memory_governor(
            policy=MemoryPolicy(
                budget_pages=4096.0,
                min_reservation_pages=1.0,
                min_grant_pages=1.0,
            )
        )
        # Open cleanly, then arm: the schedule targets the scripted
        # commits, not the recovery that will later undo its damage.
        manager = db.enable_transactions(
            path=tmpdir, checkpoint_interval=CHECKPOINT_INTERVAL
        )
        manager.set_crash_hook(injector.hook)

        durable = 0  # commits whose commit() returned (fsync done)
        attempted = 0  # commits submitted (the last may be in flight)
        died: Optional[BaseException] = None
        try:
            for writes in script:
                txn = manager.begin()
                for name, rows in writes.items():
                    manager.stage(txn, name, rows)
                attempted += 1
                manager.commit(txn)
                durable += 1
        except SimulatedCrash as crash:
            died = crash
        except (WalError, OSError) as exc:
            # A failed fsync is reported, not fatal — but the harness
            # still abandons the process, the harsher recovery test.
            died = exc
        db.close()

        fired = injector.fired[0] if injector.fired else None
        if died is None and fired is None:
            problems.append(f"{tag}: schedule never fired ({plan.specs[0]})")
            return False
        if died is None and fired is not None:
            problems.append(f"{tag}: kill at {fired.point} did not surface")
            return True
        if fired is None:
            problems.append(f"{tag}: died without a scheduled kill: {died!r}")
            return False

        # Where the kill landed pins exactly how many commits survive:
        # before the record reached the OS -> the prior commit; a failed
        # fsync rolls the record back -> likewise; anywhere later the
        # record was already flushed or fsynced -> the in-flight commit.
        if fired.point == "wal.append" or (
            fired.point == "wal.fsync" and fired.kind == FSYNC_FAIL
        ):
            expected_k = durable
        else:
            expected_k = attempted

        snap = governor.snapshot()
        if snap["used_pages"] != 0 or snap["reservations"]:
            problems.append(
                f"{tag}: governor leaked across the crash: "
                f"used={snap['used_pages']} "
                f"reservations={snap['reservations']}"
            )

        # Recover into a fresh process-worth of state.
        db2 = Database()
        manager2 = db2.enable_transactions(
            path=tmpdir, checkpoint_interval=CHECKPOINT_INTERVAL
        )
        recovered = _db_state(db2, problems, tag)
        if recovered is None:
            return True
        if recovered != states[expected_k]:
            match = next(
                (k for k, s in enumerate(states) if s == recovered), None
            )
            problems.append(
                f"{tag}: kill at {fired.point}/{fired.kind} "
                f"(occurrence {fired.at_occurrence}) recovered to "
                f"{'prefix ' + str(match) if match is not None else 'a torn state'}"
                f", expected exactly {expected_k} of {attempted} commits"
            )
            return True
        if manager2.epoch != expected_k:
            problems.append(
                f"{tag}: recovered epoch {manager2.epoch}, "
                f"expected {expected_k}"
            )
        if fired.kind == TORN and fired.point == "wal.append":
            if manager2.recovered_truncated_bytes <= 0:
                problems.append(
                    f"{tag}: torn WAL tail was not truncated on recovery"
                )
        leaks = _temp_leaks(tmpdir)
        if leaks:
            problems.append(f"{tag}: temp files survived recovery: {leaks}")

        # The recovered database must keep working: one more commit...
        db2.insert("audit", [(99999, "post-recovery")])
        db2.close()
        # ...and a second recovery pass (idempotence) must see it.
        db3 = Database()
        manager3 = db3.enable_transactions(path=tmpdir)
        final = _db_state(db3, problems, tag + " (re-recovery)")
        if final is not None:
            expected_final = dict(states[expected_k])
            expected_final["audit"] = canonical_rows(
                list(states[expected_k]["audit"]) + [(99999, "post-recovery")]
            )
            if final != expected_final:
                problems.append(
                    f"{tag}: second recovery diverged from the first "
                    "plus the post-recovery commit"
                )
            if manager3.epoch != expected_k + 1:
                problems.append(
                    f"{tag}: epoch {manager3.epoch} after re-recovery, "
                    f"expected {expected_k + 1}"
                )
        db3.close()
        return True
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run_crash(seed: int, cases: int = 30, min_fired: int = 25) -> ScenarioOutcome:
    """Seeded kill-points across WAL and checkpoint, recover-and-verify."""
    problems: list = []
    baseline = Baseline()
    fired = 0
    for case in range(cases):
        if _run_crash_case(seed, case, problems):
            fired += 1
    if fired < min_fired:
        problems.append(
            f"only {fired} of {cases} cases fired a kill "
            f"(need >= {min_fired}) — the schedule is not biting"
        )
    baseline.audit(problems)
    return ScenarioOutcome(
        "crash", seed, not problems, problems,
        detail=f"cases={cases} kill_points_fired={fired}",
    )


# --------------------------------------------------------------- snapshot

SNAPSHOT_SQL = "SELECT l.l_writer, l.l_seq FROM chaos_log l"


def _valid_snapshot_rows(rows, writers: int, rows_per_txn: int) -> Optional[str]:
    """``None`` if ``rows`` is a union of committed per-writer prefixes."""
    per_writer: dict = {w: [] for w in range(writers)}
    for row in rows:
        w, seq = int(row[0]), int(row[1])
        if w not in per_writer:
            return f"unknown writer id {w}"
        per_writer[w].append(seq)
    for w, seqs in per_writer.items():
        seqs.sort()
        if seqs != list(range(len(seqs))):
            return f"writer {w}: non-contiguous sequence (torn commit?)"
        if len(seqs) % rows_per_txn != 0:
            return (
                f"writer {w}: {len(seqs)} rows visible, not a multiple of "
                f"the {rows_per_txn}-row transaction size (partial commit)"
            )
    return None


def run_snapshot(
    seed: int, writers: int = 3, txns_per_writer: int = 6, rows_per_txn: int = 5
) -> ScenarioOutcome:
    """Concurrent writers vs transactional readers on a live server."""
    from repro.server.client import ReproClient
    from repro.server.server import ReproServer, ServerConfig
    from repro.workloads.dmv.generator import DmvScale, make_dmv_db

    problems: list = []
    lock = threading.Lock()
    baseline = Baseline()

    db = make_dmv_db(
        scale=DmvScale(
            owners=300, cars=400, accidents=100, violations=150,
            insurance=400, dealers=20, inspections=200, registrations=400,
        ),
        seed=seed,
    )
    db.create_table("chaos_log", [("l_writer", "int"), ("l_seq", "int")])
    db.runstats(["chaos_log"])
    manager = db.enable_transactions()
    db.enable_memory_governor(
        policy=MemoryPolicy(
            budget_pages=4096.0, min_reservation_pages=1.0, min_grant_pages=1.0
        )
    )
    server = ReproServer(
        db,
        ServerConfig(
            max_sessions=writers + 6,
            workers=4,
            statement_timeout_seconds=120.0,
            idle_timeout_seconds=120.0,
        ),
    )
    host, port = server.start()

    def writer(w: int) -> None:
        rng = random.Random(query_seed(seed, "txn-writer", str(w)))
        seq = 0
        pause = threading.Event()
        for _ in range(txns_per_writer):
            rows = [(w, seq + i) for i in range(rows_per_txn)]
            stagger = rng.uniform(0.0, 0.005)
            while True:
                try:
                    db.begin()
                    db.insert("chaos_log", rows)
                    # Hold the staged write-set open a moment so writer
                    # transactions genuinely overlap — otherwise the
                    # first-committer-wins window never closes on anyone.
                    pause.wait(stagger)
                    db.commit()
                    break
                except TransactionConflict:
                    continue  # lost the epoch race — re-run on a fresh snapshot
            seq += rows_per_txn
            pause.wait(rng.uniform(0.0, 0.01))

    def reader(r: int) -> None:
        pause = threading.Event()
        try:
            cli = ReproClient(host, port)
        except OSError as exc:
            with lock:
                problems.append(f"reader {r}: connect failed: {exc}")
            return
        try:
            resp = cli.begin()
            if resp is None or not resp.get("ok"):
                with lock:
                    problems.append(f"reader {r}: begin failed: {resp}")
                return
            if r == 0:
                # Vanish mid-transaction: the teardown funnel must roll
                # the open transaction back (abort-on-disconnect).
                cli.execute(SNAPSHOT_SQL)
                cli.drop()
                return
            seen = None
            for repeat in range(4):
                resp = cli.execute(SNAPSHOT_SQL, request_id=f"r{r}.{repeat}")
                if resp is None or not resp.get("ok"):
                    with lock:
                        problems.append(
                            f"reader {r} repeat {repeat}: {resp and resp.get('error')}"
                        )
                    return
                rows = canonical_rows(resp.get("rows", []))
                if seen is None:
                    seen = rows
                elif rows != seen:
                    with lock:
                        problems.append(
                            f"reader {r}: snapshot moved between repeats "
                            f"({len(seen)} -> {len(rows)} rows)"
                        )
                    return
                pause.wait(0.02)
            fault = _valid_snapshot_rows(seen, writers, rows_per_txn)
            if fault is not None:
                with lock:
                    problems.append(f"reader {r}: {fault}")
            first_count = len(seen)
            resp = cli.commit()
            if resp is None or not resp.get("ok"):
                with lock:
                    problems.append(f"reader {r}: commit failed: {resp}")
                return
            # A later transaction must see at least as much (epochs are
            # monotone) and still a valid union of committed prefixes.
            cli.begin()
            resp = cli.execute(SNAPSHOT_SQL, request_id=f"r{r}.late")
            if resp is not None and resp.get("ok"):
                late = canonical_rows(resp.get("rows", []))
                if len(late) < first_count:
                    with lock:
                        problems.append(
                            f"reader {r}: later snapshot shrank "
                            f"({first_count} -> {len(late)})"
                        )
                fault = _valid_snapshot_rows(late, writers, rows_per_txn)
                if fault is not None:
                    with lock:
                        problems.append(f"reader {r} (late): {fault}")
            cli.rollback()
            cli.close()
        except OSError as exc:
            with lock:
                problems.append(f"reader {r}: socket error: {exc}")

    run_together(
        "snapshot",
        [partial(writer, w) for w in range(writers)]
        + [partial(reader, r) for r in range(writers)],
    )

    total = writers * txns_per_writer * rows_per_txn
    expected = canonical_rows(
        (w, s) for w in range(writers) for s in range(txns_per_writer * rows_per_txn)
    )
    final = canonical_rows(db.catalog.table("chaos_log").rows)
    if final != expected:
        problems.append(
            f"final state has {len(final)} rows, expected {total} "
            "(a commit was lost or duplicated)"
        )

    # A pinned snapshot re-read at batch widths 1/64/1024 after further
    # commits: the watermark filter must be width-independent.
    pinned = manager.pin_snapshot()
    visible = pinned.visible_rows("chaos_log")
    oracle = canonical_rows(db.catalog.table("chaos_log").rows[:visible])
    db.insert("chaos_log", [(writers + 7, i) for i in range(rows_per_txn)])
    for width in (1, 64, 1024):
        result = db.execute(
            SNAPSHOT_SQL,
            pop=PopConfig(reuse_policy="never", batch_size=width),
            snapshot=pinned,
        )
        if canonical_rows(result.rows) != oracle:
            problems.append(
                f"pinned snapshot diverged at batch width {width}"
            )
    latest = db.execute(
        SNAPSHOT_SQL, pop=PopConfig(reuse_policy="never")
    )
    if len(latest.rows) != total + rows_per_txn:
        problems.append(
            f"latest read saw {len(latest.rows)} rows, "
            f"expected {total + rows_per_txn}"
        )

    # The dropped reader's transaction must have been aborted.
    pause = threading.Event()
    for _ in range(100):
        if manager.active_count() == 0:
            break
        pause.wait(0.02)
    aborted = server.metrics.total("server.txn_aborted")
    if aborted < 1:
        problems.append("disconnect mid-transaction did not abort the txn")
    if manager.active_count() != 0:
        problems.append(
            f"{manager.active_count()} transaction(s) leaked past teardown"
        )

    server.shutdown(drain=True)
    baseline.audit(problems, db)
    stats = manager.snapshot_stats()
    return ScenarioOutcome(
        "snapshot", seed, not problems, problems,
        detail=(
            f"writers={writers} commits={stats['commits']} "
            f"conflicts={stats['conflicts']} aborted={int(aborted)}"
        ),
    )
