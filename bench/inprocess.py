"""Runs an in-process workload: set-up, oracle check, measured rounds, and
the traced pass."""

from __future__ import annotations

import gc
import statistics
import sys
import time

from repro import MetricsRegistry, Tracer
from repro.executor.meter import WorkMeter
from repro.sql.binder import bind_sql
from repro.sql.parameterize import parameterize_sql
from repro.sql.parser import parse_sql
from repro.storage.spill import SpillManager

from bench.metrics import percentile
from bench.trace import SpanLog, TimedGovernor
from bench.workloads import InProcess

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class Tally:
    """Operations attempted and failed (errors + oracle mismatches)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"bench: FAILED {what}: {why}", file=sys.stderr)


def set_up(spec: InProcess, seed: int, smoke: bool):
    ds = spec.load(seed, smoke)
    if spec.memory is not None:
        ds.db.enable_memory_governor(policy=spec.memory)
    return ds


def repeated_set_up(build, repeats: int):
    """Set up ``repeats`` times; returns the last set-up and the median
    seconds.  Each earlier one is torn down before the next starts."""
    seconds, ds = [], None
    for _ in range(repeats):
        if ds is not None:
            ds.close()
            ds = None
            gc.collect()
        t0 = time.perf_counter()
        ds = build()
        seconds.append(time.perf_counter() - t0)
    return ds, statistics.median(seconds)


def verify_round(ds, spec: InProcess, tally: Tally) -> list:
    """The untimed warm-up round, checked statement by statement against
    sqlite.  Returns each statement's rows for the cheap per-execution check
    of the measured rounds."""
    expected = []
    for label, sql in spec.statements:
        tally.attempted += 1
        try:
            rows = ds.db.execute(sql, pop=spec.config).rows
        except Exception as exc:  # a failed statement is a counted outcome
            tally.fail(label, repr(exc))
            expected.append(None)
            continue
        problem = ds.oracle.check(sql, rows)
        if problem is not None:
            tally.fail(label, problem)
        expected.append(rows)
    return expected


def replay_round(ds, spec, config, expected, tally):
    """One round of the fixed list.  Returns each statement's latency in
    list order (``None`` where it failed) and the round's work units."""
    latencies, units = [], 0.0
    for i, (label, sql) in enumerate(spec.statements):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            result = ds.db.execute(sql, pop=config)
        except Exception as exc:
            tally.fail(label, repr(exc))
            latencies.append(None)
            continue
        latencies.append(time.perf_counter() - t0)
        units += result.report.total_units
        if result.rows != expected[i]:
            problem = ds.oracle.check(sql, result.rows)
            if problem is not None:
                tally.fail(label, problem)
    return latencies, units


def replay_for(seconds, ds, spec, config, expected, tally):
    """Whole rounds until ``seconds`` have passed; returns the rounds'
    latencies and work units."""
    rounds, units = [], []
    start = time.perf_counter()
    while True:
        latencies, round_units = replay_round(ds, spec, config, expected, tally)
        rounds.append(latencies)
        units.append(round_units)
        if time.perf_counter() - start >= seconds:
            return rounds, units


def fastest(rounds) -> list[float]:
    """Each statement's latency in the fastest of its rounds.  On a shared
    sandbox interference only ever adds time, in bursts of seconds, so a
    statement's fastest execution repeats from run to run where its mean,
    median or lower quartile do not (bench/README.md)."""
    per_statement = [
        [latency for latency in column if latency is not None]
        for column in zip(*rounds)
    ]
    return [min(column) for column in per_statement if column]


def latency_metrics(rounds) -> dict:
    typical = fastest(rounds)
    return {
        "stmts_per_s": len(typical) / sum(typical),
        "stmt_p50_ms": 1000.0 * percentile(typical, 0.50),
        "stmt_p90_ms": 1000.0 * percentile(typical, 0.90),
    }


def run_untraced(spec: InProcess, seed: int, seconds: float, smoke: bool):
    tally = Tally()
    ds, setup_s = repeated_set_up(
        lambda: set_up(spec, seed, smoke), 1 if smoke else SETUP_REPEATS
    )
    try:
        expected = verify_round(ds, spec, tally)
        gc.collect()
        rounds, units = replay_for(
            seconds, ds, spec, spec.config, expected, tally
        )
    finally:
        ds.close()
    values = {"setup_s": setup_s, "work_units": statistics.median(units)}
    values.update(latency_metrics(rounds))
    samples = sum(1 for r in rounds for latency in r if latency is not None)
    return values, tally, {"samples": samples, "rounds": len(rounds)}


# ------------------------------------------------------------ traced pass


def _counter_total(snapshot: dict, name: str, label: str = "") -> float:
    return sum(
        value for key, value in snapshot["counters"].items()
        if (key == name or key.startswith(name + "{")) and label in key
    )


class TracedReplay:
    """The per-statement step of a traced replay: direct timed calls into the
    sql layer (and the governor's sizing optimize), then ``Database.execute``
    under a fresh tracer and one shared metrics registry, with the program's
    spans adopted into the log and the reports' facts added up."""

    def __init__(self, db, log: SpanLog, tally: Tally):
        self.db, self.log, self.tally = db, log, tally
        self.registry = MetricsRegistry()
        self.rows_out = 0
        self.units = 0.0
        self.spill_pages = 0.0
        self.spill_bytes = 0
        self.spill_files = 0

    def execute(self, index: int, label: str, sql: str, config, **execute_args):
        """Returns the result and the seconds around ``Database.execute``,
        or ``None`` when the statement failed."""
        db, log = self.db, self.log
        self.tally.attempted += 1
        log.stmt = index
        log.timed("sql.parse", parse_sql, sql)
        query = log.timed("sql.bind", bind_sql, sql, db.catalog)
        log.timed("sql.parameterize", parameterize_sql, sql, db.catalog)
        if db.memory_governor is not None:
            # Database.execute sizes the reservation with a second optimizer
            # run before admission; time the same call.
            log.timed("governor.sizing_optimize", db.optimizer.optimize, query)
        tracer = Tracer()
        with log.statement(index) as statement:
            try:
                result = db.execute(
                    sql, pop=config, tracer=tracer, metrics=self.registry,
                    **execute_args,
                )
            except Exception as exc:
                self.tally.fail(label, repr(exc))
                return None
        log.adopt(tracer, statement)
        report = result.report
        self.rows_out += len(result.rows)
        self.units += sum(a.execution_units for a in report.attempts)
        self.spill_pages += report.spill_pages
        self.spill_bytes += report.spill_bytes
        self.spill_files += report.spill_files
        return result, statement["t1"] - statement["t0"]


def traced_replay(ds, spec, seconds, expected, tally, log: SpanLog):
    """Replays whole rounds traced; returns the replay and the rounds'
    latencies."""
    replay = TracedReplay(ds.db, log, tally)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append([None] * len(spec.statements))
        for i, (label, sql) in enumerate(spec.statements):
            done = replay.execute(i, label, sql, spec.config)
            if done is None:
                continue
            result, rounds[-1][i] = done
            if result.rows != expected[i]:
                problem = ds.oracle.check(sql, result.rows)
                if problem is not None:
                    tally.fail(label, problem)
        if time.perf_counter() - start >= seconds:
            return replay, rounds


def spill_throughput(ds, rows) -> tuple[float, float]:
    """Rows per second written to and read back from a spill file, by
    direct calls to ``SpillManager.spill_rows`` / ``SpillFile.rows``."""
    manager = SpillManager(WorkMeter(), ds.db.cost_params)
    try:
        t0 = time.perf_counter()
        spill = manager.spill_rows("bench", rows)
        spill.close()
        t1 = time.perf_counter()
        read = sum(1 for _ in spill.rows())
        t2 = time.perf_counter()
    finally:
        manager.close_all()
    return len(rows) / (t1 - t0), read / (t2 - t1)


def evaluate(formulas: dict) -> dict:
    """Each formula's value, or ``None`` with a warning when a span or
    counter it needs is missing: the traced pass never fails the run."""
    values = {}
    for name, formula in formulas.items():
        try:
            values[name] = formula()
        except (ArithmeticError, TypeError, KeyError) as exc:
            print(f"bench: warning: {name} unavailable: {exc!r}", file=sys.stderr)
            values[name] = None
    return values


def layer_metrics(replay: TracedReplay, rounds: int) -> dict:
    """Per-layer values of one traced replay; sums are per round."""
    log = replay.log
    snap = replay.registry.snapshot()

    def ms(name):
        return log.total_ms(name, required=name.startswith(("pop.", "optimizer.")))

    def counter(name, label=""):
        return _counter_total(snap, name, label) / rounds

    def scanned():
        return sum(
            counter("executor.rows", f"op={kind}")
            for kind in ("TBSCAN", "IXSCAN", "MVSCAN")
        )

    def attributed_ms():
        # Database.execute binds (or, with a cache, parameterizes) the
        # statement before the driver starts; the direct call stands in.
        cached = log.count("cache.lookup") > 0
        return (
            ms("sql.parameterize" if cached else "sql.bind")
            + ms("governor.sizing_optimize") + ms("governor.admit")
            + ms("governor.release") + ms("pop.statement")
        )

    def hit_rate():
        probes = counter("plan_cache.hits") + counter("plan_cache.misses")
        return counter("plan_cache.hits") / probes if probes else 0.0

    wall_ms = ms("bench.statement")
    return evaluate({
        "sql.parse_ms": lambda: ms("sql.parse") / rounds,
        "sql.bind_ms": lambda: ms("sql.bind") / rounds,
        "sql.parameterize_ms": lambda: ms("sql.parameterize") / rounds,
        "optimizer.optimize_ms": lambda: ms("optimizer.optimize") / rounds,
        "optimizer.share": lambda: ms("optimizer.optimize") / wall_ms,
        "optimizer.invocations": lambda: counter("optimizer.invocations"),
        "optimizer.plans_enumerated":
            lambda: counter("optimizer.plans_enumerated"),
        "optimizer.newton_iterations":
            lambda: counter("optimizer.newton_iterations"),
        "core.placement_ms": lambda: ms("pop.place_checkpoints") / rounds,
        "core.checkpoints_placed": lambda: counter("checkpoints.placed"),
        "core.checks_fired":
            lambda: counter("check.evaluations", "triggered=True"),
        "core.attempts": lambda: counter("pop.attempts"),
        "core.reoptimizations": lambda: counter("pop.reoptimizations"),
        "core.mv_reuses": lambda: counter("pop.mv_reuses"),
        "core.driver_other_ms":
            lambda: log.self_ms("pop.statement", "pop.attempt") / rounds,
        "core.unattributed_frac": lambda: (wall_ms - attributed_ms()) / wall_ms,
        "cache.lookup_ms": lambda: ms("cache.lookup") / rounds,
        "cache.install_ms": lambda: ms("cache.install") / rounds,
        "cache.hits": lambda: counter("plan_cache.hits"),
        "cache.misses": lambda: counter("plan_cache.misses"),
        "cache.hit_rate": hit_rate,
        "governor.admit_ms":
            lambda: (ms("governor.admit") + ms("governor.release")) / rounds,
        "governor.sizing_optimize_ms":
            lambda: ms("governor.sizing_optimize") / rounds,
        "executor.run_ms": lambda: ms("pop.execute") / rounds,
        "executor.share": lambda: ms("pop.execute") / wall_ms,
        "executor.rows_scanned": scanned,
        "executor.rows_out": lambda: replay.rows_out / rounds,
        "executor.scan_rows_per_s":
            lambda: scanned() * rounds / (ms("pop.execute") / 1000.0),
        "executor.units": lambda: replay.units / rounds,
        "storage.spill_pages": lambda: replay.spill_pages / rounds,
        "storage.spill_bytes": lambda: replay.spill_bytes / rounds,
        "storage.spill_files": lambda: replay.spill_files / rounds,
    })


def warn_unattributed(workload: str, values: dict) -> None:
    """The reconciliation check: layers should add up to 95% of the wall."""
    dark = values.get("core.unattributed_frac")
    if dark is not None and dark > 0.05:
        print(
            f"bench: warning: {workload}: {dark:.1%} of the wall around "
            "Database.execute is not attributed to a layer",
            file=sys.stderr,
        )


def run_traced(spec: InProcess, seed, seconds, smoke, trace_path):
    tally = Tally()
    log = SpanLog(spec.name)
    ds = set_up(spec, seed, smoke)
    db = ds.db
    try:
        expected = verify_round(ds, spec, tally)
        gc.collect()
        plain, plain_units = replay_for(
            seconds / 4, ds, spec, spec.config, expected, tally
        )
        plain_wall = sum(fastest(plain))
        gc.collect()
        if spec.memory is not None:
            db.memory_governor = TimedGovernor(log, spec.memory)
        replay, traced = traced_replay(
            ds, spec, seconds / 4, expected, tally, log
        )
        rounds = len(traced)
        values = layer_metrics(replay, rounds)
        values["obs.trace_overhead_frac"] = (
            sum(fastest(traced)) / plain_wall - 1.0
        )
        if spec.memory is not None:
            governor = db.memory_governor.snapshot()
            values["governor.queued"] = governor["queued_total"] / rounds
            values["governor.shed"] = governor["rejected_total"] / rounds
            values["governor.renegotiations"] = (
                governor["renegotiation_total"] / rounds
            )

        gc.collect()
        static, static_units = replay_for(
            seconds / 4, ds, spec, spec.static_config, expected, tally
        )
        static_wall = sum(fastest(static))
        values["core.static_wall_s"] = static_wall
        values["core.pop_speedup_wall"] = static_wall / plain_wall
        values["core.pop_speedup_units"] = (
            statistics.median(static_units) / statistics.median(plain_units)
        )

        if spec.memory is not None:
            db.disable_memory_governor()
            roomy, _ = replay_for(
                seconds / 4, ds, spec, spec.config, expected, tally
            )
            values["storage.spill_penalty_ms"] = 1000.0 * (
                plain_wall - sum(fastest(roomy))
            )
            write, read = spill_throughput(ds, expected[0])
            values["storage.spill_write_rows_per_s"] = write
            values["storage.spill_read_rows_per_s"] = read
    finally:
        ds.close()
    values["stats.runstats_ms"] = 1000.0 * ds.phases["runstats"]
    values["workloads.datagen_ms"] = 1000.0 * ds.phases["datagen"]
    log.write(trace_path)
    warn_unattributed(spec.name, values)
    return values, tally, {"rounds": rounds, "spans": len(log.spans)}
