"""An interactive SQL shell for the repro engine.

Run ``python -m repro`` for a REPL, or ``python -m repro --tpch 0.005 -c
"SELECT ..."`` for one-shot execution.  Statements end with ``;``; lines
starting with ``\\`` are meta commands (``\\help`` lists them).

The shell is deliberately dependency-free and stream-injectable so the test
suite can drive it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Optional, TextIO

from repro import NO_POP, Database, PopConfig
from repro.common.errors import ReproError, failure_class
from repro.core.flavors import ALL_FLAVORS
from repro.obs import MetricsRegistry, Tracer, render_progress

HELP = """\
meta commands:
  \\help                     this text
  \\load tpch [scale]        load the TPC-H-style workload (default 0.005)
  \\load dmv                 load the DMV-style workload
  \\tables                   list tables with row counts
  \\schema TABLE             show a table's columns
  \\explain SQL...           show the plan (with checkpoints) for a statement
  \\analyze SQL...           execute and show per-attempt plans with
                            estimated vs actual cardinalities
  \\lint SQL...              run the plan-semantics linter on a statement's
                            plan (checkpoints included)
  \\lint code                run the engine contract checker on the source
  \\lint concurrency         run the concurrency contract analyzer
  \\lint rules               list the plan-rule catalog
  \\pop on|off               enable/disable progressive optimization
  \\pop flavors F1,F2        set checkpoint flavors (LC,LCEM,ECB,ECWC,ECDC)
  \\learning on|off          cross-statement cardinality learning
  \\cache on|off|clear|stats validity-range-aware plan cache: show cached
                            statement shapes and hit/miss/invalidation
                            counters, enable/disable, or drop all entries
  \\txn begin|commit|rollback|status
                            snapshot transactions: begin pins a snapshot
                            (reads stay stable, inserts stage privately),
                            commit installs atomically (a lost
                            first-committer-wins race prints
                            error[conflict]: — re-run the transaction),
                            rollback discards; \\txn status shows the
                            epoch, WAL, and checkpoint counters
                            (\\txn on [DIR] enables, durable with DIR)
  \\save DIR                 write the database (tables, rows, indexes) to
                            DIR as one atomic checkpoint; refuses a DIR
                            whose write-ahead log is non-empty
  \\open DIR                 open a DIR written by \\save or by a durable
                            \\txn on DIR (checkpoint plus WAL suffix),
                            then RUNSTATS
  \\set NAME VALUE           bind a parameter for ? / :name markers
  \\params                   show current parameter bindings
  \\timing on|off            print work units and wall time per statement
  \\memory [on [BUDGET]|off] memory governor: show budget, live
                            reservations, admission queue depth, and spill
                            totals; \\memory on [BUDGET] enables it with a
                            shared page budget (default 512)
  \\serve [PORT]             serve this database to remote sessions over the
                            line-delimited JSON protocol (ephemeral port
                            when omitted); \\serve status shows live
                            sessions, \\serve stop drains and stops
  \\kill SESSION_ID          cancel a served session's in-flight statement
  \\chaos SEED|off           run statements under seeded fault injection:
                            stats faults (the statement plans with
                            corrupted statistics) and, under \\memory on,
                            reservation shrinks before one of the
                            statement's first eight memory grants
  \\chaos mem [SEED]         memory-pressure mode: inject only those
                            reservation shrinks (operators degrade by
                            spilling); needs \\memory on
  \\trace on|off [FILE]      record a JSONL execution trace (spans/events
                            for optimize, checkpoint placement, execution,
                            re-optimization; default file repro_trace.jsonl;
                            profiled statements also export a
                            .profile.jsonl alongside)
  \\profile on|off|last      per-operator live profiler: exclusive time,
                            calls and extras (est vs actual rows, q-error
                            and spill pages are recorded either way);
                            \\profile last re-prints the previous
                            statement's profiled EXPLAIN ANALYZE
  \\progress                 replay the last statement's progress from its
                            report (work-unit budget, CHECK-point
                            refinements); needs no \\profile
  \\metrics [reset]          show (or reset) collected engine metrics
  \\q                        quit
SQL statements end with ';'."""


class Shell:
    """The REPL engine; IO streams are injectable for testing."""

    def __init__(
        self,
        db: Optional[Database] = None,
        out: Optional[TextIO] = None,
    ):
        self.db = db if db is not None else Database()
        # Resolve stdout at call time so test harnesses can capture it.
        self.out = out if out is not None else sys.stdout
        self.pop_enabled = True
        self.flavors: Optional[frozenset] = None
        self.params: dict[str, Any] = {}
        self.timing = True
        self.running = True
        #: ``\chaos SEED`` runs every statement under seeded fault
        #: injection; per-statement seeds derive from this plus a
        #: statement counter.
        self.chaos_seed: Optional[int] = None
        self._chaos_statements = 0
        #: ``\chaos mem`` narrows injection to memory-pressure faults only.
        self.chaos_memory = False
        #: Engine metrics accumulate across the session; ``\metrics`` shows
        #: them, ``\metrics reset`` clears them.
        self.metrics = MetricsRegistry()
        #: Tracing is off until ``\trace on``; the trace file is rewritten
        #: after every statement so one-shot runs still leave a trace.
        self.tracer: Optional[Tracer] = None
        self.trace_path: Optional[str] = None
        #: ``\profile on`` attaches the live per-operator profiler to every
        #: statement; ``\profile last`` and ``\progress`` render the most
        #: recent statement's report.
        self.profile = False
        self.last_report = None
        #: ``\serve`` runs a background ReproServer over ``self.db``;
        #: drained on ``\serve stop`` and on quit.
        self.server = None

    # ---------------------------------------------------------------- output

    def write(self, text: str = "") -> None:
        self.out.write(text + "\n")

    # ----------------------------------------------------------------- loop

    def run(self, lines) -> None:
        """Consume an iterable of input lines until exhausted or ``\\q``."""
        buffer: list[str] = []
        for raw in lines:
            if not self.running:
                break
            line = raw.rstrip("\n")
            stripped = line.strip()
            if not buffer and stripped.startswith("\\"):
                self.handle_meta(stripped)
                continue
            if not stripped and not buffer:
                continue
            buffer.append(line)
            if stripped.endswith(";"):
                statement = "\n".join(buffer).strip().rstrip(";")
                buffer = []
                if statement:
                    self.execute_sql(statement)
        if buffer:
            self.execute_sql("\n".join(buffer).strip().rstrip(";"))

    # ----------------------------------------------------------------- meta

    def handle_meta(self, line: str) -> None:
        parts = line[1:].split()
        if not parts:
            return
        command, args = parts[0].lower(), parts[1:]
        handler: Optional[Callable] = getattr(self, f"_meta_{command}", None)
        if command == "q" or command == "quit":
            self._stop_server()
            self.running = False
            return
        if handler is None:
            self.write(f"unknown command \\{command} (try \\help)")
            return
        try:
            handler(args)
        except ReproError as exc:
            self.write(self._format_error(exc))

    def _meta_help(self, args) -> None:
        self.write(HELP)

    def _meta_load(self, args) -> None:
        if not args:
            self.write("usage: \\load tpch [scale] | \\load dmv")
            return
        workload = args[0].lower()
        if workload == "tpch":
            from repro.workloads.tpch.generator import load_tpch

            scale = float(args[1]) if len(args) > 1 else 0.005
            counts = load_tpch(self.db, scale_factor=scale)
            self.write(
                f"loaded TPC-H at scale {scale}: "
                + ", ".join(f"{t}={n}" for t, n in sorted(counts.items()))
            )
        elif workload == "dmv":
            from repro.workloads.dmv.generator import load_dmv

            counts = load_dmv(self.db)
            self.write(
                "loaded DMV: "
                + ", ".join(f"{t}={n}" for t, n in sorted(counts.items()))
            )
        else:
            self.write(f"unknown workload {workload!r} (tpch or dmv)")

    def _meta_tables(self, args) -> None:
        tables = self.db.catalog.tables()
        if not tables:
            self.write("(no tables — try \\load tpch)")
            return
        for table in sorted(tables, key=lambda t: t.name):
            self.write(f"  {table.name:20s} {table.row_count:>10,} rows")

    def _meta_schema(self, args) -> None:
        if not args:
            self.write("usage: \\schema TABLE")
            return
        table = self.db.catalog.table(args[0])
        for column in table.schema:
            self.write(f"  {column.name:24s} {column.dtype.value}")
        indexes = self.db.catalog.indexes_on(table.name)
        for index in indexes:
            kind = "sorted" if index.supports_range else "hash"
            self.write(f"  [index {index.name} on {index.column} ({kind})]")

    def _meta_explain(self, args) -> None:
        if not args:
            self.write("usage: \\explain SELECT ...")
            return
        sql = " ".join(args).rstrip(";")
        self.write(self.db.explain(sql, pop=self._config()))

    def _meta_analyze(self, args) -> None:
        if not args:
            self.write("usage: \\analyze SELECT ...")
            return
        from repro.plan.analyze import explain_analyze

        # \analyze always profiles so the per-attempt plans carry exclusive
        # time and spill annotations, whatever the \profile toggle says.
        result = self._run(" ".join(args).rstrip(";"), profile=True)
        if result is None:
            return
        self.write(explain_analyze(result.report))
        self.write(
            f"{len(result.rows)} row(s), "
            f"{result.report.total_units:,.0f} work units, "
            f"{result.report.reoptimizations} re-optimization(s)"
        )

    def _meta_lint(self, args) -> None:
        from repro.analysis import lint_statement, render_text

        if not args:
            self.write(
                "usage: \\lint SELECT ... | \\lint code | "
                "\\lint concurrency | \\lint rules"
            )
            return
        if args[0].lower() == "code" and len(args) == 1:
            from repro.analysis.contract import run_contract_checks

            self.write(render_text(run_contract_checks()))
            return
        if args[0].lower() == "concurrency" and len(args) == 1:
            from repro.analysis.concurrency import run_concurrency_checks

            self.write(render_text(run_concurrency_checks()))
            return
        if args[0].lower() == "rules" and len(args) == 1:
            from repro.analysis.plan_lint import rule_listing

            self.write("\n".join(rule_listing()))
            return
        sql = " ".join(args).rstrip(";")
        self.write(render_text(lint_statement(self.db, sql, self._config())))

    def _meta_pop(self, args) -> None:
        if not args:
            state = "on" if self.pop_enabled else "off"
            flavors = ",".join(sorted(self.flavors)) if self.flavors else "default"
            self.write(f"POP is {state} (flavors: {flavors})")
            return
        if args[0] == "on":
            self.pop_enabled = True
        elif args[0] == "off":
            self.pop_enabled = False
        elif args[0] == "flavors" and len(args) > 1:
            requested = {f.strip().upper() for f in args[1].split(",") if f.strip()}
            unknown = requested - set(ALL_FLAVORS)
            if unknown:
                self.write(f"unknown flavors: {sorted(unknown)}")
                return
            self.flavors = frozenset(requested)
        else:
            self.write("usage: \\pop on|off | \\pop flavors LC,LCEM")
            return
        self._meta_pop([])

    def _meta_learning(self, args) -> None:
        if args and args[0] == "on":
            self.db.enable_learning()
            self.write("learning on")
        elif args and args[0] == "off":
            self.db.disable_learning()
            self.write("learning off")
        else:
            state = "on" if self.db.learning is not None else "off"
            self.write(f"learning is {state}")

    def _meta_cache(self, args) -> None:
        if args and args[0] == "on":
            self.db.enable_plan_cache()
            self.write("plan cache on")
            return
        if args and args[0] == "off":
            self.db.disable_plan_cache()
            self.write("plan cache off")
            return
        cache = self.db.plan_cache
        if cache is None:
            self.write("plan cache is off (\\cache on to enable)")
            return
        if args and args[0] == "clear":
            dropped = cache.clear()
            self.write(f"plan cache cleared ({dropped} plan(s) dropped)")
            return
        if args and args[0] != "stats":
            self.write("usage: \\cache [on|off|clear|stats]")
            return
        stats = cache.stats
        self.write(
            f"plan cache: {len(cache)} plan(s) across "
            f"{len(cache.shapes())} shape(s)"
        )
        self.write(
            f"  hits={stats.hits} misses={stats.misses} "
            f"installs={stats.installs} evictions={stats.evictions}"
        )
        self.write(
            f"  invalidations={stats.invalidations} "
            f"admission_rejects={stats.admission_rejects} "
            f"mutation_discards={stats.mutation_discards}"
        )
        for entry in cache.entries():
            shape = entry.shape
            if len(shape) > 60:
                shape = shape[:57] + "..."
            self.write(
                f"  [{entry.fingerprint[:12]}] hits={entry.hits} "
                f"checks={entry.checkpoints} {shape}"
            )

    def _meta_txn(self, args) -> None:
        sub = args[0].lower() if args else "status"
        if sub == "on":
            path = args[1] if len(args) > 1 else None
            self.db.enable_transactions(
                path=path, metrics=self.metrics, tracer=self.tracer
            )
            where = f"durable in {path}" if path else "in-memory"
            self.write(f"transactions on ({where})")
            return
        manager = self.db.txn_manager
        if manager is None:
            self.write("transactions are off (\\txn on [DIR] to enable)")
            return
        if sub == "begin":
            txn = self.db.begin()
            self.write(f"begin: txn {txn.txn_id} at epoch {txn.begin_epoch}")
        elif sub == "commit":
            epoch = self.db.commit()
            self.write(f"commit: epoch {epoch}")
        elif sub == "rollback":
            self.db.rollback()
            self.write("rollback: write-set discarded")
        elif sub == "status":
            stats = manager.snapshot_stats()
            open_txn = self.db._thread_txn()
            if open_txn is not None:
                self.write(
                    f"open transaction: txn {open_txn.txn_id} "
                    f"(began at epoch {open_txn.begin_epoch}, "
                    f"{open_txn.staged_rows()} staged row(s))"
                )
            durable = "durable" if stats["durable"] else "in-memory"
            self.write(
                f"epoch {stats['epoch']} ({durable}), "
                f"{stats['active']} active transaction(s)"
            )
            self.write(
                f"  commits={stats['commits']} rollbacks={stats['rollbacks']} "
                f"conflicts={stats['conflicts']} "
                f"autocommits={stats['autocommits']}"
            )
            self.write(
                f"  wal: {stats['wal_records']} record(s), "
                f"{stats['wal_bytes']:,} byte(s); "
                f"checkpoints={stats['checkpoints']}; "
                f"recovered={stats['recovered_records']} record(s), "
                f"{stats['recovered_truncated_bytes']} torn byte(s) dropped"
            )
        else:
            self.write("usage: \\txn begin|commit|rollback|status | \\txn on [DIR]")

    def _meta_save(self, args) -> None:
        if not args:
            self.write("usage: \\save DIR")
            return
        from repro.storage.persistence import save_database

        save_database(self.db, args[0])
        self.write(f"saved to {args[0]}")

    def _meta_open(self, args) -> None:
        if not args:
            self.write("usage: \\open DIR")
            return
        from repro.storage.persistence import load_database

        self.db = load_database(args[0])
        self.write(f"opened {args[0]}")

    def _meta_set(self, args) -> None:
        if len(args) < 2:
            self.write("usage: \\set NAME VALUE")
            return
        name, raw = args[0], " ".join(args[1:])
        value: Any = raw
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw.strip("'\"")
        self.params[name] = value
        self.write(f"{name} = {value!r}")

    def _meta_params(self, args) -> None:
        if not self.params:
            self.write("(no parameters bound)")
        for name, value in sorted(self.params.items()):
            self.write(f"  {name} = {value!r}")

    def _meta_timing(self, args) -> None:
        if args:
            self.timing = args[0] == "on"
        self.write(f"timing is {'on' if self.timing else 'off'}")

    def _meta_chaos(self, args) -> None:
        if not args:
            if self.chaos_seed is None:
                self.write("chaos is off")
            else:
                mode = " (memory pressure)" if self.chaos_memory else ""
                self.write(f"chaos is on (seed {self.chaos_seed}){mode}")
            return
        if args[0] == "off":
            self.chaos_seed = None
            self.chaos_memory = False
            self.write("chaos off")
            return
        if args[0] == "mem":
            if self.db.memory_governor is None:
                self.write(
                    "chaos mem needs the memory governor: run \\memory on "
                    "first (a shrink renegotiates a governed reservation)"
                )
                return
            try:
                self.chaos_seed = int(args[1]) if len(args) > 1 else 1
            except ValueError:
                self.write("usage: \\chaos mem [SEED]")
                return
            self.chaos_memory = True
            self._chaos_statements = 0
            self.write(
                f"chaos on (memory pressure, seed {self.chaos_seed}) — "
                "reservations will shrink mid-query; sorts/joins/temps spill"
            )
            return
        try:
            self.chaos_seed = int(args[0])
        except ValueError:
            self.write("usage: \\chaos SEED | \\chaos mem [SEED] | \\chaos off")
            return
        self.chaos_memory = False
        self._chaos_statements = 0
        self.write(f"chaos on (seed {self.chaos_seed})")

    def _meta_memory(self, args) -> None:
        if args and args[0] == "on":
            try:
                budget = float(args[1]) if len(args) > 1 else 512.0
            except ValueError:
                self.write("usage: \\memory on [BUDGET_PAGES]")
                return
            self.db.enable_memory_governor(
                budget_pages=budget, metrics=self.metrics, tracer=self.tracer
            )
            self.write(f"memory governor on (budget {budget:g} pages)")
            return
        if args and args[0] == "off":
            self.db.disable_memory_governor()
            self.write("memory governor off")
            return
        if args:
            self.write("usage: \\memory [on [BUDGET_PAGES]|off]")
            return
        governor = self.db.memory_governor
        if governor is None:
            self.write("memory governor is off (\\memory on to enable)")
            return
        snap = governor.snapshot()
        self.write(
            f"budget {snap['budget_pages']:g} pages, "
            f"used {snap['used_pages']:g}, peak {snap['peak_pages']:g}, "
            f"queue depth {snap['queue_depth']}"
        )
        self.write(
            f"  admitted={snap['admitted_total']} "
            f"queued={snap['queued_total']} "
            f"shed={snap['rejected_total']} "
            f"renegotiations={snap['renegotiation_total']}"
        )
        self.write(
            f"  spilled: {snap['spill_files_total']} file(s), "
            f"{snap['spill_pages_total']:.1f} page(s), "
            f"{snap['spill_bytes_total']:,} byte(s)"
        )
        for res in snap["reservations"]:
            self.write(
                f"  [{res['pages']:g}/{res['initial_pages']:g} pages, "
                f"{res['renegotiations']} shrink(s)] {res['label']}"
            )

    def _meta_serve(self, args) -> None:
        if args and args[0] == "stop":
            if self.server is None:
                self.write("server is not running")
                return
            self._stop_server()
            self.write("server drained and stopped")
            return
        if args and args[0] == "status":
            if self.server is None:
                self.write("server is not running (\\serve to start)")
                return
            stats = self.server.stats()
            sessions = stats["sessions"]
            host, port = self.server.address
            self.write(
                f"serving on {host}:{port}: {sessions['live']} live "
                f"session(s) (peak {sessions['peak_sessions']}), "
                f"queue depth {stats['queue_depth']}"
            )
            self.write(
                f"  statements={stats['statements_total']} "
                f"cancelled={stats['cancelled_total']} "
                f"shed={stats['shed_total']} "
                f"idle_reaped={stats['idle_reaped_total']}"
            )
            for entry in sessions["sessions"]:
                self.write(
                    f"  [{entry['state']}] session {entry['session']}: "
                    f"{entry['statements']} statement(s), "
                    f"idle {entry['idle_seconds']}s"
                )
            return
        if self.server is not None:
            host, port = self.server.address
            self.write(
                f"server already running on {host}:{port} "
                "(\\serve stop to stop)"
            )
            return
        try:
            port = int(args[0]) if args else 0
        except ValueError:
            self.write("usage: \\serve [PORT|status|stop]")
            return
        from repro.server import ReproServer, ServerConfig

        # Share the shell's metrics registry so \metrics shows server.*
        # counters alongside the engine's.
        self.server = ReproServer(
            self.db, ServerConfig(port=port), metrics=self.metrics
        )
        host, port = self.server.start()
        self.write(
            f"serving on {host}:{port} "
            "(line-delimited JSON; \\serve stop to stop)"
        )

    def _meta_kill(self, args) -> None:
        if self.server is None:
            self.write("server is not running (\\serve to start)")
            return
        try:
            session_id = int(args[0]) if args else None
        except ValueError:
            session_id = None
        if session_id is None:
            self.write("usage: \\kill SESSION_ID")
            return
        target = self.server.registry.get(session_id)
        if target is None:
            self.write(f"no such session {session_id}")
            return
        was_running = target.cancel("killed from console")
        self.metrics.inc("server.kills")
        self.write(
            f"killed session {session_id} "
            f"({'statement cancelled' if was_running else 'was idle'})"
        )

    def _stop_server(self) -> None:
        """Drain and stop the background server, if one is running."""
        if self.server is not None:
            self.server.shutdown(drain=True)
            self.server = None

    def _meta_trace(self, args) -> None:
        if not args:
            if self.tracer is None:
                self.write("tracing is off")
            else:
                self.write(f"tracing is on -> {self.trace_path}")
            return
        if args[0] == "on":
            self.trace_path = args[1] if len(args) > 1 else "repro_trace.jsonl"
            self.tracer = Tracer()
            self.write(f"tracing on -> {self.trace_path}")
        elif args[0] == "off":
            if self.tracer is not None and self.trace_path is not None:
                self.tracer.write_jsonl(self.trace_path)
                self.write(
                    f"tracing off ({len(self.tracer.records)} record(s) "
                    f"written to {self.trace_path})"
                )
            else:
                self.write("tracing off")
            self.tracer = None
            self.trace_path = None
        else:
            self.write("usage: \\trace on|off [FILE]")

    def _meta_profile(self, args) -> None:
        if not args:
            self.write(f"profiling is {'on' if self.profile else 'off'}")
            return
        if args[0] == "on":
            self.profile = True
            self.write("profiling on")
        elif args[0] == "off":
            self.profile = False
            self.write("profiling off")
        elif args[0] == "last":
            from repro.plan.analyze import explain_analyze

            report = self.last_report
            if report is None or not report.profiled:
                self.write(
                    "(no profiled statement yet — \\profile on, then run one)"
                )
                return
            self.write(explain_analyze(report))
            self_units = sum(
                r.profile.self_units for r in report.profiled_records()
            )
            self.write(f"total self time: {self_units:,.1f} work units")
        else:
            self.write("usage: \\profile on|off|last")

    def _meta_progress(self, args) -> None:
        if self.last_report is None:
            self.write("(no statement yet — run one first)")
            return
        self.write(render_progress(self.last_report))

    def _meta_metrics(self, args) -> None:
        if args and args[0] == "reset":
            self.metrics.reset()
            self.write("metrics reset")
            return
        self.write(self.metrics.render_text())

    # ------------------------------------------------------------------ SQL

    @staticmethod
    def _format_error(exc: ReproError) -> str:
        """One-line classified error, e.g. ``error[timeout]: ...``."""
        return f"error[{failure_class(exc)}]: {exc}"

    def _config(self) -> PopConfig:
        if not self.pop_enabled:
            return NO_POP
        if self.flavors is not None:
            return PopConfig(flavors=self.flavors)
        return PopConfig()

    def _faults(self):
        """The next statement's fault plan when ``\\chaos`` is on."""
        if self.chaos_seed is None:
            return None
        from repro.resilience import ALL_KINDS, MEM_SHRINK, FaultPlan

        self._chaos_statements += 1
        kinds = (MEM_SHRINK,) if self.chaos_memory else ALL_KINDS
        return FaultPlan.seeded(
            self.chaos_seed + self._chaos_statements - 1,
            kinds=kinds,
            tables=[t.name for t in self.db.catalog.tables()],
        )

    def _flush_trace(self) -> None:
        """Rewrite the trace file with everything recorded so far."""
        if self.tracer is not None and self.trace_path is not None:
            try:
                self.tracer.write_jsonl(self.trace_path)
            except OSError as exc:
                self.write(f"error: cannot write trace to {self.trace_path}: {exc}")
                self.write("tracing disabled")
                self.tracer = None
                self.trace_path = None

    def _flush_profiles(self, report) -> None:
        """Export the statement's profiled attempt records next to the
        trace (``FILE.jsonl`` -> ``FILE.profile.jsonl``)."""
        if self.trace_path is None:
            return
        from repro.obs import write_profiles_jsonl

        path = self.trace_path.removesuffix(".jsonl") + ".profile.jsonl"
        try:
            write_profiles_jsonl(path, report.attempts)
        except OSError as exc:
            self.write(f"error: cannot write profiles to {path}: {exc}")

    def _run(self, sql: str, profile: bool, faults=None):
        """Execute one statement with the session's settings, keeping its
        report for the ``last`` verbs and ``\\progress``; ``None`` after
        printing a classified error."""
        try:
            result = self.db.execute(
                sql,
                params=self.params,
                pop=self._config(),
                tracer=self.tracer,
                metrics=self.metrics,
                faults=faults,
                profile=profile,
            )
        except ReproError as exc:
            self.write(self._format_error(exc))
            return None
        finally:
            self._flush_trace()
        self.last_report = result.report
        self._flush_profiles(result.report)
        return result

    def execute_sql(self, sql: str) -> None:
        result = self._run(sql, self.profile, faults=self._faults())
        if result is None:
            return
        widths = [max(len(c), 10) for c in result.columns]
        self.write("  ".join(c.ljust(w) for c, w in zip(result.columns, widths)))
        self.write("  ".join("-" * w for w in widths))
        shown = result.rows[:50]
        for row in shown:
            cells = [
                f"{v:.4f}" if isinstance(v, float) else str(v) for v in row
            ]
            self.write("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        if len(result.rows) > len(shown):
            self.write(f"... ({len(result.rows)} rows total)")
        if self.timing:
            report = result.report
            notes = []
            if report.reoptimizations:
                notes.append(f"{report.reoptimizations} re-optimization(s)")
            if report.faults_injected:
                notes.append(f"{report.faults_injected} fault(s)")
            if report.spilled:
                notes.append(
                    f"spilled {report.spill_pages:.0f} page(s) in "
                    f"{report.spill_files} file(s)"
                )
            note = f" ({', '.join(notes)})" if notes else ""
            self.write(
                f"{len(result.rows)} row(s), {report.total_units:,.0f} work "
                f"units, {report.wall_seconds * 1000:.1f} ms{note}"
            )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="POP reproduction SQL shell"
    )
    parser.add_argument("-c", "--command", help="execute one statement and exit")
    parser.add_argument(
        "--tpch", type=float, metavar="SCALE", help="preload TPC-H at SCALE"
    )
    parser.add_argument(
        "--dmv", action="store_true", help="preload the DMV workload"
    )
    parser.add_argument(
        "--no-pop", action="store_true", help="start with POP disabled"
    )
    args = parser.parse_args(argv)

    shell = Shell()
    if args.no_pop:
        shell.pop_enabled = False
    if args.tpch is not None:
        shell._meta_load(["tpch", str(args.tpch)])
    if args.dmv:
        shell._meta_load(["dmv"])
    if args.command:
        shell.execute_sql(args.command.rstrip(";"))
        return 0
    shell.write("repro shell — \\help for commands, \\q to quit")
    try:
        while shell.running:
            try:
                line = input("repro> ")
            except EOFError:
                break
            shell.run([line])
    except KeyboardInterrupt:
        pass
    finally:
        # The loop feeds run() one line at a time, so end-of-stream
        # cleanup (a \serve'd server outliving its shell) lives here,
        # not in run().
        shell._stop_server()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
