"""``server_mix``: socket reads beside paced durable commits.

Thread 1 is one :class:`~repro.server.ReproClient` in a closed loop over the
seeded read list (per-session plan cache on).  Thread 2 is an in-process
writer on an open-loop schedule: ``WRITE_RATE`` commits a second of
``ROWS_PER_COMMIT`` accident rows, each timed from the moment it was due, so
a stall is charged to the commits it delays.  Transactions use the engine's
defaults, stated here because they decide the numbers: fsync at every commit,
a full checkpoint every 16 commits.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import sys
import tempfile
import threading
import time

from repro import PopConfig, ResiliencePolicy
from repro.server import ReproClient, ReproServer, ServerConfig
from repro.server.protocol import decode_frame, encode_frame
from repro.storage.wal import CHECKPOINT_FILE

from bench import data
from bench.inprocess import (
    SETUP_REPEATS, Tally, TracedReplay, layer_metrics, repeated_set_up,
    warn_unattributed,
)
from bench.metrics import percentile
from bench.trace import FsyncMeter, SpanLog, TimedPlanCache
from bench.workloads import server_mix_reads

NAME = "server_mix"
WRITE_RATE = 8.0
ROWS_PER_COMMIT = 5
SERVER_WORKERS = 2
PINGS = 50
#: Response payloads kept for the direct encode/decode timing.
PAYLOADS_KEPT = 200


class Deployment:
    """DMV database with durable transactions behind a started server."""

    def __init__(self, smoke: bool):
        self.dataset = data.load_dmv(smoke)
        self.db = self.dataset.db
        self.oracle = self.dataset.oracle
        self.phases = self.dataset.phases
        self.cars = self.oracle.con.execute("SELECT count(*) FROM car").fetchone()[0]
        self.directory = tempfile.mkdtemp(prefix="bench-wal-")
        self.db.enable_transactions(path=self.directory)
        self.server = ReproServer(self.db, ServerConfig(workers=SERVER_WORKERS))
        self.address = self.server.start()

    def close(self) -> None:
        self.server.shutdown()
        self.dataset.close()
        shutil.rmtree(self.directory, ignore_errors=True)


class PacedWriter(threading.Thread):
    """Open-loop committer: commit ``k`` is due at ``start + k / rate``."""

    def __init__(self, deployment: Deployment, seed: int, first_id: int, probe=None):
        super().__init__(name="bench-writer")
        self.db = deployment.db
        self.cars = deployment.cars
        self.rng = random.Random(seed)
        self.next_id = first_id
        self.probe = probe
        self.stop = threading.Event()
        #: Per commit: (due, started, done, checkpoints written during it).
        self.commits: list[tuple] = []
        self.errors: list[str] = []

    def run(self) -> None:
        manager = self.db.txn_manager
        start = time.perf_counter()
        k = 0
        while True:
            due = start + k / WRITE_RATE
            if self.stop.wait(max(0.0, due - time.perf_counter())):
                return
            rows = [
                (self.next_id + i, self.rng.randrange(self.cars),
                 self.rng.randint(1995, 2004), self.rng.randint(1, 5),
                 self.rng.randrange(100))
                for i in range(ROWS_PER_COMMIT)
            ]
            self.next_id += ROWS_PER_COMMIT
            before = manager.snapshot_stats()["checkpoints"]
            started = time.perf_counter()
            try:
                self.db.insert("accident", rows)
            except Exception as exc:
                self.errors.append(repr(exc))
            done = time.perf_counter()
            after = manager.snapshot_stats()["checkpoints"]
            self.commits.append((due, started, done, after - before))
            if self.probe is not None:
                self.probe()
            k += 1

    def finish(self, tally: Tally) -> None:
        self.stop.set()
        self.join()
        tally.attempted += len(self.commits)
        for error in self.errors:
            tally.fail("commit", error)

    def latencies_ms(self) -> list[float]:
        return [1000.0 * (done - due) for due, _s, done, _c in self.commits]


def verify(deployment: Deployment, client, reads, tally: Tally):
    """Before the writer starts: every distinct read, once in-process with
    the cache off (for its work units, which the wire does not carry) and
    once over ``client``, each checked against sqlite; the socket pass also
    warms the session's plan cache, as a long-lived session's would be.
    Returns the work units and the verified rows per statement."""
    distinct = sorted(set(reads))
    units = 0.0
    for sql in distinct:
        tally.attempted += 1
        try:
            result = deployment.db.execute(sql)
        except Exception as exc:
            tally.fail("in-process read", repr(exc))
            continue
        units += result.report.total_units
        problem = deployment.oracle.check(sql, result.rows)
        if problem is not None:
            tally.fail("in-process read", problem)
    verified = {}
    for sql in distinct:
        tally.attempted += 1
        response = client.execute(sql)
        if not response or not response.get("ok"):
            tally.fail("socket read", str(response))
            continue
        problem = deployment.oracle.check(sql, response["rows"])
        if problem is not None:
            tally.fail("socket read", problem)
        verified[sql] = response["rows"]
    return units, verified


def still_correct(sql: str, rows, verified) -> bool:
    """During the mix only ``accident`` grows: reads that do not touch it
    must repeat exactly, the accident count may only rise."""
    expected = verified.get(sql)
    if expected is None:
        return True
    if "accident" in sql:
        return len(rows) == 1 and rows[0][0] >= expected[0][0]
    return rows == expected


def socket_pass(deployment, client, reads, seconds, seed, verified, tally,
                probe=None):
    """The mix: closed-loop reads over ``client`` for ``seconds`` beside the
    paced writer.  Returns the reads as (start offset, latency, sql), the
    writer, and kept responses."""
    timed, kept = [], []
    writer = PacedWriter(deployment, seed, first_id=10_000_000, probe=probe)
    gc.collect()
    writer.start()
    try:
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            sql = reads[i % len(reads)]
            i += 1
            tally.attempted += 1
            t0 = time.perf_counter()
            response = client.execute(sql)
            elapsed = time.perf_counter() - t0
            if not response or not response.get("ok"):
                tally.fail("read", str(response))
                continue
            timed.append((t0 - start, elapsed, sql))
            if not still_correct(sql, response["rows"], verified):
                tally.fail("read", "rows differ from the verified result")
            if len(kept) < PAYLOADS_KEPT:
                kept.append(response)
    finally:
        writer.finish(tally)
    return timed, writer, kept


def read_metrics(timed, classes, seconds: float, writer: PacedWriter) -> dict:
    """As in the in-process workloads, a statement of the list counts once,
    at the latency of its fastest execution: ``stmts_per_s`` is statements
    over the sum of those, p50 and p90 are percentiles over them.  A
    statement here is a (template, make) class, whose model and colour vary
    from read to read.  That filters interference, the writer's stalls and
    the plan cache's misses; those show in ``reads_per_s``, in p99 and in
    the commit mean, which are taken over every sample of the pass."""
    by_class: dict[tuple, list] = {}
    for _offset, latency, sql in timed:
        by_class.setdefault(classes[sql], []).append(latency)
    typical = [min(v) for v in by_class.values()]
    return {
        "stmts_per_s": len(typical) / sum(typical),
        "stmt_p50_ms": 1000.0 * percentile(typical, 0.50),
        "stmt_p90_ms": 1000.0 * percentile(typical, 0.90),
        "stmt_p99_ms":
            1000.0 * percentile([latency for _, latency, _ in timed], 0.99),
        "commit_mean_ms": statistics.mean(writer.latencies_ms()),
        "reads_per_s": len(timed) / seconds,
    }


def run_untraced(seed: int, seconds: float, smoke: bool):
    tally = Tally()
    reads, classes = server_mix_reads(seed)
    deployment, setup_s = repeated_set_up(
        lambda: Deployment(smoke), 1 if smoke else SETUP_REPEATS
    )
    try:
        with ReproClient(*deployment.address) as client:
            units, verified = verify(deployment, client, reads, tally)
            timed, writer, _ = socket_pass(
                deployment, client, reads, seconds, seed, verified, tally
            )
    finally:
        deployment.close()
    values = {"setup_s": setup_s, "work_units": units}
    values.update(read_metrics(timed, classes, seconds, writer))
    detail = {"samples": len(timed), "commits": len(writer.commits)}
    return values, tally, detail


# ------------------------------------------------------------ traced pass


def in_process_replay(deployment, reads, seconds, seed, tally, log: SpanLog):
    """The same read list through ``Database.execute`` with a bench-owned
    timed cache and the same paced writer: the sql / cache / optimizer /
    executor numbers the socket cannot show."""
    db = deployment.db
    # What the server runs each statement under (its _statement_config).
    config = PopConfig(
        resilience=ResiliencePolicy(
            deadline_seconds=deployment.server.config.statement_timeout_seconds,
            fallback_enabled=False,
        )
    )
    cache = TimedPlanCache(log)
    db.txn_manager.add_invalidation_callback(cache.invalidate_tables)
    replay = TracedReplay(db, log, tally)
    latencies = []
    for sql in sorted(set(reads)):
        db.execute(sql, pop=config, plan_cache=cache)
    warm = cache.stats.to_dict()
    writer = PacedWriter(deployment, seed + 1, first_id=20_000_000)
    writer.start()
    try:
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            done = replay.execute(
                i, "replayed read", reads[i % len(reads)], config,
                plan_cache=cache,
            )
            i += 1
            if done is not None:
                latencies.append(done[1])
    finally:
        writer.finish(tally)
        db.txn_manager.remove_invalidation_callback(cache.invalidate_tables)
    values = layer_metrics(replay, 1)
    stats = cache.stats.to_dict()
    values["cache.admission_rejects"] = (
        stats["admission_rejects"] - warm["admission_rejects"]
    )
    values["cache.invalidations"] = stats["invalidations"] - warm["invalidations"]
    return values, latencies


def run_traced(seed: int, seconds: float, smoke: bool, trace_path: str):
    tally = Tally()
    log = SpanLog(NAME)
    reads, classes = server_mix_reads(seed)
    deployment = Deployment(smoke)
    depth = [0]
    try:
        manager = deployment.db.txn_manager

        def probe():
            depth[0] = max(depth[0], deployment.server.stats()["queue_depth"])

        mix_seconds = 0.6 * seconds
        with ReproClient(*deployment.address) as client:
            _units, verified = verify(deployment, client, reads, tally)
            pings = []
            for _ in range(PINGS):
                t0 = time.perf_counter()
                client.ping()
                pings.append(time.perf_counter() - t0)
            before = manager.snapshot_stats()
            with FsyncMeter() as fsync:
                timed, writer, kept = socket_pass(
                    deployment, client, reads, mix_seconds, seed, verified,
                    tally, probe,
                )
        latencies = [latency for _, latency, _ in timed]
        after = manager.snapshot_stats()
        server_stats = deployment.server.stats()
        checkpoint_bytes = os.stat(
            os.path.join(deployment.directory, CHECKPOINT_FILE)
        ).st_size
        for due, started, done, _c in writer.commits:
            log.add("txn.commit", due, done, late=started - due)

        values, replayed = in_process_replay(
            deployment, reads, 0.4 * seconds, seed, tally, log
        )
    finally:
        deployment.close()

    frames = []
    t0 = time.perf_counter()
    for response in kept:
        frames.append(encode_frame(response))
    t1 = time.perf_counter()
    for frame in frames:
        decode_frame(frame)
    t2 = time.perf_counter()

    commits = writer.latencies_ms()
    with_checkpoint = [
        ms for ms, c in zip(commits, writer.commits) if c[3] > 0
    ]
    mix = read_metrics(timed, classes, mix_seconds, writer)
    values.update({
        "server.ping_rtt_ms": 1000.0 * statistics.median(pings),
        "server.wire_overhead_ms":
            1000.0 * (statistics.mean(latencies) - statistics.mean(replayed)),
        "server.encode_ms": 1000.0 * (t1 - t0) / len(frames),
        "server.decode_ms": 1000.0 * (t2 - t1) / len(frames),
        "server.bytes_out_per_stmt": statistics.mean(len(f) for f in frames),
        "server.queue_depth_max": depth[0],
        "server.shed": server_stats["shed_total"],
        "server.stmt_p99_ms": mix["stmt_p99_ms"],
        "server.reads_per_s": mix["reads_per_s"],
        "txn.commits": after["commits"] - before["commits"],
        "txn.conflicts": after["conflicts"] - before["conflicts"],
        "txn.checkpoints": after["checkpoints"] - before["checkpoints"],
        "txn.commit_p50_ms": statistics.median(commits),
        "txn.commit_mean_ms": mix["commit_mean_ms"],
        "txn.checkpoint_commit_ms":
            statistics.mean(with_checkpoint) if with_checkpoint else None,
        "txn.writer_late_max_ms":
            1000.0 * max(started - due for due, started, _d, _c in writer.commits),
        "storage.fsyncs": fsync.calls,
        "storage.fsync_ms": 1000.0 * fsync.seconds,
        "storage.wal_bytes_per_row":
            (after["wal_bytes"] - before["wal_bytes"])
            / (ROWS_PER_COMMIT * len(writer.commits)),
        "storage.checkpoint_bytes": checkpoint_bytes,
        "stats.runstats_ms": 1000.0 * deployment.phases["runstats"],
        "workloads.datagen_ms": 1000.0 * deployment.phases["datagen"],
    })
    log.write(trace_path)
    warn_unattributed(NAME, values)
    if not with_checkpoint:
        print("bench: warning: no commit spanned a checkpoint", file=sys.stderr)
    return values, tally, {"samples": len(latencies), "commits": len(commits)}
