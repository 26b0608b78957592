"""Connection-chaos harness for the server runtime.

Five seeded scenarios drive real sockets against a live
:class:`~repro.server.server.ReproServer` over a governed DMV database
and audit the robustness contract the tentpole promises:

``disconnect``
    Clients vanish abruptly mid-query; survivors' rows must stay
    oracle-identical and every orphaned statement must be cancelled.
``slowloris``
    A connection trickles bytes of a never-completed frame; the idle
    reaper must close it with a classified ``timeout`` while a
    well-behaved session keeps getting served.
``malformed``
    Corrupt framing (not-JSON, non-object, oversized) is answered with a
    classified error and a hangup; *semantic* protocol errors (unknown
    op, bad SQL) keep the connection alive.
``overload``
    A connection storm against tight session/queue limits, all connected
    at once: exactly the clients over the session limit are refused as
    ``overloaded``, and every admitted statement either succeeds with
    oracle rows or is shed as ``overloaded`` — never hung, never given
    wrong rows.
``killspill``
    One session kills another mid-spilling-query; the victim's statement
    dies as ``cancelled`` but its *session* survives and serves the next
    statement.

After each scenario the harness drains the server and asserts the
shared invariants: the governor back to zero pages used with no
reservations and peak within budget, zero leaked ``repro-spill-*``
directories, the process thread count back to its baseline, and (when
``REPRO_LOCK_WITNESS=1``) every witnessed lock edge present in the
static lock graph with no wait-while-holding violations.

All five run through ``python -m repro.chaos`` (see :mod:`repro.chaos`);
CI runs them with two fixed seeds, and overload and killspill over ten
more each.
"""

from __future__ import annotations

import random
import threading
from functools import partial
from typing import Optional

from repro.common.chaosutil import (
    HEAVY_QUERIES,
    Baseline,
    ScenarioOutcome,
    canonical_rows,
    governed_dmv,
    query_seed,
    run_together,
)
from repro.server.client import ReproClient
from repro.server.server import ReproServer, ServerConfig
from repro.storage.spill import SpillManager

#: Three-way join + sort that must spill under the killspill budget.  How
#: long it runs does not matter: :func:`run_killspill` holds it at its first
#: spill file until the kill has been acknowledged.
KILL_QUERY = (
    "kill_join3",
    "SELECT o.o_name, c.c_model, g.g_id "
    "FROM registration g, car c, owner o "
    "WHERE g.g_car_id = c.c_id AND c.c_owner_id = o.o_id "
    "ORDER BY o.o_name, c.c_model, g.g_id",
)

#: Cheap point-ish query used to prove a session is still alive.
LIGHT_QUERY = (
    "light_heavy_cars",
    "SELECT c.c_id, c.c_make FROM car c WHERE c.c_weight > 3800 "
    "ORDER BY c.c_id",
)

ALL_QUERIES = HEAVY_QUERIES + [KILL_QUERY, LIGHT_QUERY]


class _Harness:
    """One governed DMV database + live server + shared audits."""

    def __init__(self, budget_fraction: float = 0.35, **config_overrides):
        self.db, self.oracle = governed_dmv(
            [sql for _name, sql in ALL_QUERIES], budget_fraction,
            max_queue_depth=64,
        )
        # Baselines *before* the server spawns anything.
        self.baseline = Baseline()
        self.server = ReproServer(self.db, ServerConfig(**config_overrides))
        self.host, self.port = self.server.start()

    def client(self, timeout: float = 60.0) -> ReproClient:
        return ReproClient(self.host, self.port, timeout=timeout)

    def check_rows(self, response: Optional[dict], sql: str) -> Optional[str]:
        """``None`` if ``response`` is a success with oracle rows."""
        if response is None:
            return "connection died awaiting the response"
        if not response.get("ok"):
            return (
                f"classified {response.get('error_class')!r}: "
                f"{response.get('error')}"
            )
        if canonical_rows(response.get("rows", [])) != self.oracle[sql]:
            return "rows diverge from oracle"
        return None

    def finish(self, problems: list) -> None:
        """Drain the server, then audit the shared invariants."""
        self.server.shutdown(drain=True)
        self.baseline.audit(problems, self.db)


# --------------------------------------------------------------- scenarios


def run_disconnect(seed: int, clients: int = 6) -> ScenarioOutcome:
    """Abrupt disconnects mid-query: survivors exact, orphans cancelled."""
    h = _Harness(
        max_sessions=clients + 2,
        workers=4,
        statement_timeout_seconds=120.0,
        idle_timeout_seconds=120.0,
    )
    rng = random.Random(query_seed(seed, "server", "disconnect"))
    plans = [
        (
            tid,
            *HEAVY_QUERIES[rng.randrange(len(HEAVY_QUERIES))],
            tid % 2 == 1,  # odd clients vanish right after submitting
        )
        for tid in range(clients)
    ]
    problems: list = []
    lock = threading.Lock()

    def worker(tid: int, name: str, sql: str, quitter: bool) -> None:
        try:
            cli = h.client()
        except OSError as exc:
            with lock:
                problems.append(f"client {tid}: connect failed: {exc}")
            return
        try:
            cli.send_frame({"op": "execute", "sql": sql, "id": tid})
            if quitter:
                cli.drop()  # vanish with the statement in flight
                return
            fault = h.check_rows(cli.recv(), sql)
            if fault is not None:
                with lock:
                    problems.append(f"client {tid} {name}: {fault}")
            cli.close()
        except OSError as exc:
            with lock:
                problems.append(f"client {tid}: socket error: {exc}")

    run_together("disc", [partial(worker, *plan) for plan in plans])
    # Give the server a moment to observe EOFs and cancel the orphans.
    pause = threading.Event()
    for _ in range(200):
        if h.server.registry.running_count() == 0:
            break
        pause.wait(0.02)
    cancelled = h.server.metrics.total("server.cancelled")
    if cancelled < 1:
        problems.append(
            "no disconnect produced a cancellation — scenario did not bite"
        )
    h.finish(problems)
    return ScenarioOutcome(
        "disconnect", seed, not problems, problems,
        detail=f"clients={clients} cancelled={int(cancelled)}",
    )


def run_slowloris(seed: int) -> ScenarioOutcome:
    """A trickling half-frame must be idle-reaped; others stay served."""
    h = _Harness(
        max_sessions=4,
        workers=2,
        idle_timeout_seconds=0.4,
        reap_interval_seconds=0.05,
        statement_timeout_seconds=120.0,
    )
    problems: list = []
    attacker = h.client(timeout=30.0)
    attacker.send_raw(b'{"op": "exe')  # frame never completed
    stop_trickle = threading.Event()

    def trickle() -> None:
        while not stop_trickle.wait(0.05):
            try:
                attacker.send_raw(b"c")
            except OSError:
                return  # server hung up on us — the desired outcome

    trickler = threading.Thread(target=trickle, name="chaos-slowloris")
    trickler.start()
    try:
        # While the attacker dangles, a well-behaved session is served.
        normal = h.client()
        _name, sql = LIGHT_QUERY
        fault = h.check_rows(normal.execute(sql), sql)
        if fault is not None:
            problems.append(f"normal client starved during slowloris: {fault}")
        normal.close()
        # The reaper's goodbye frame is classified as a timeout.
        try:
            goodbye = attacker.recv()
        except OSError:
            goodbye = None
        if goodbye is not None and goodbye.get("error_class") != "timeout":
            problems.append(
                f"slowloris reaped without a classified timeout: {goodbye}"
            )
    finally:
        stop_trickle.set()
        trickler.join()
        attacker.drop()
    # The reaper (not the attacker giving up) must have closed it.
    pause = threading.Event()
    for _ in range(100):
        if h.server.metrics.total("server.idle_reaped") >= 1:
            break
        pause.wait(0.02)
    reaped = h.server.metrics.total("server.idle_reaped")
    if reaped < 1:
        problems.append("idle reaper never fired on the slowloris connection")
    h.finish(problems)
    return ScenarioOutcome(
        "slowloris", seed, not problems, problems,
        detail=f"reaped={int(reaped)}",
    )


def run_malformed(seed: int) -> ScenarioOutcome:
    """Corrupt framing hangs up classified; semantic errors keep going."""
    h = _Harness(max_sessions=6, workers=2, statement_timeout_seconds=120.0)
    problems: list = []

    # Framing-level corruption: classified "user" error, then hangup.
    for label, payload in (
        ("not-json", b"this is not a frame\n"),
        ("non-object", b"[1, 2, 3]\n"),
    ):
        cli = h.client()
        try:
            cli.send_raw(payload)
            resp = cli.recv()
            if resp is None or resp.get("error_class") != "user":
                problems.append(
                    f"{label}: wanted a classified user error, got {resp}"
                )
            elif cli.recv() is not None:
                problems.append(f"{label}: server kept a corrupt connection")
        except OSError as exc:
            problems.append(f"{label}: socket error: {exc}")
        cli.drop()

    # Oversized frame: shed before the buffer grows unboundedly.  The
    # server may RST while we are still sending — that counts as shed.
    cli = h.client()
    try:
        cli.send_raw(b'{"op": "execute", "sql": "' + b"x" * (80 * 1024))
        resp = cli.recv()
        if resp is not None and resp.get("error_class") != "user":
            problems.append(f"oversized: unclassified response {resp}")
    except OSError:
        pass
    cli.drop()

    # Semantic errors: connection survives, next request is served.
    cli = h.client()
    try:
        resp = cli.request({"op": "frobnicate"})
        if resp is None or resp.get("error_class") != "user":
            problems.append(f"unknown op: wanted user error, got {resp}")
        resp = cli.execute("SELECT nonsense FROM nowhere")
        if resp is None or resp.get("ok"):
            problems.append(f"bad SQL: wanted a classified error, got {resp}")
        resp = cli.ping()
        if resp is None or not resp.get("ok"):
            problems.append(
                f"connection did not survive semantic errors: {resp}"
            )
        cli.close()
    except OSError as exc:
        problems.append(f"semantic-error client: socket error: {exc}")

    # And the server still serves a clean client afterwards.
    cli = h.client()
    _name, sql = LIGHT_QUERY
    fault = h.check_rows(cli.execute(sql), sql)
    if fault is not None:
        problems.append(f"server unhealthy after malformed input: {fault}")
    cli.close()
    errors = h.server.metrics.total("server.protocol_errors")
    if errors < 2:
        problems.append(
            f"expected >=2 framing protocol errors counted, saw {int(errors)}"
        )
    h.finish(problems)
    return ScenarioOutcome(
        "malformed", seed, not problems, problems,
        detail=f"protocol_errors={int(errors)}",
    )


def run_overload(seed: int, clients: int = 10) -> ScenarioOutcome:
    """Storm vs tight limits: every client succeeds exactly or is shed.

    Every client holds at a barrier once it is connected or refused, so all
    ``clients`` connections are open at once however the threads are
    scheduled: exactly ``clients - max_sessions`` are refused at accept.
    """
    max_sessions = 4
    h = _Harness(
        max_sessions=max_sessions,
        workers=2,
        max_pending_statements=2,
        statement_timeout_seconds=120.0,
        idle_timeout_seconds=120.0,
    )
    rng = random.Random(query_seed(seed, "server", "overload"))
    picks = [
        HEAVY_QUERIES[rng.randrange(len(HEAVY_QUERIES))]
        for _ in range(clients)
    ]
    counts = {"refused": 0, "ok": 0, "shed": 0}
    problems: list = []
    lock = threading.Lock()
    # Bounds the wait, so a client that fails to connect cannot hang the rest.
    all_connected = threading.Barrier(clients, timeout=60.0)

    def worker(tid: int, name: str, sql: str) -> None:
        try:
            cli = h.client()
        except OSError as exc:
            all_connected.abort()
            with lock:
                problems.append(f"storm client {tid}: connect failed: {exc}")
            return
        try:
            try:
                all_connected.wait()
            except threading.BrokenBarrierError:
                with lock:
                    problems.append(f"storm client {tid}: storm never all connected")
                return
            if cli.session_id is None:
                # Refused at accept — must be a classified shed.
                greeting = cli.greeting or {}
                if greeting.get("error_class") == "overloaded":
                    with lock:
                        counts["refused"] += 1
                else:
                    with lock:
                        problems.append(
                            f"storm client {tid}: refused without "
                            f"classification: {greeting}"
                        )
                return
            resp = cli.execute(sql, request_id=tid)
            if resp is None:
                with lock:
                    problems.append(f"storm client {tid}: connection died")
            elif resp.get("ok"):
                if canonical_rows(resp["rows"]) != h.oracle[sql]:
                    with lock:
                        problems.append(
                            f"storm client {tid} {name}: rows diverge"
                        )
                else:
                    with lock:
                        counts["ok"] += 1
            elif resp.get("error_class") == "overloaded":
                with lock:
                    counts["shed"] += 1
            else:
                with lock:
                    problems.append(
                        f"storm client {tid} {name}: unexpected failure "
                        f"{resp.get('error_class')!r}: {resp.get('error')}"
                    )
        except OSError as exc:
            with lock:
                problems.append(f"storm client {tid}: socket error: {exc}")
        finally:
            cli.drop()

    run_together(
        "storm", [partial(worker, tid, *picks[tid]) for tid in range(clients)]
    )
    if counts["refused"] != clients - max_sessions:
        problems.append(
            f"{counts['refused']} of {clients} clients refused at accept, "
            f"expected {clients - max_sessions}"
        )
    if counts["ok"] == 0:
        problems.append("storm produced zero successful statements")
    h.finish(problems)
    return ScenarioOutcome(
        "overload", seed, not problems, problems,
        detail=(
            f"clients={clients} refused={counts['refused']} "
            f"ok={counts['ok']} shed={counts['shed']}"
        ),
    )


def run_killspill(seed: int) -> ScenarioOutcome:
    """Kill a spilling statement: it dies cancelled, the session lives."""
    h = _Harness(
        budget_fraction=0.25,  # squeeze harder so the victim must spill
        max_sessions=4,
        workers=2,
        statement_timeout_seconds=120.0,
        idle_timeout_seconds=120.0,
    )
    problems: list = []
    # The kill lands mid-spill by construction, not by timing: the victim is
    # held where it creates its first spill file until the kill is
    # acknowledged, then let go to run into its next cancellation poll.
    spilling, kill_acked = threading.Event(), threading.Event()
    hold_seconds = 60.0  # bounds each wait, so a broken scenario cannot hang
    create = SpillManager.create

    def held_create(manager, category, label=None):
        if not spilling.is_set():
            spilling.set()
            kill_acked.wait(hold_seconds)
        return create(manager, category, label)

    SpillManager.create = held_create
    victim = h.client()
    killer = h.client()
    name, sql = KILL_QUERY
    try:
        victim.send_frame({"op": "execute", "sql": sql, "id": "victim"})
        if not spilling.wait(hold_seconds):
            problems.append(
                f"victim statement {name} never spilled — scenario did not bite"
            )
        resp = killer.kill(victim.session_id)
        if resp is None or not resp.get("ok") or not resp.get("was_running"):
            problems.append(f"kill op failed or found nothing in flight: {resp}")
        kill_acked.set()
        answer = victim.recv()
        if answer is None:
            problems.append(
                "victim connection died instead of getting a classified error"
            )
        elif answer.get("ok"):
            problems.append(
                f"victim statement {name} completed although it was killed "
                "mid-spill — cancellation was not observed"
            )
        elif answer.get("error_class") != "cancelled":
            problems.append(
                f"kill produced class {answer.get('error_class')!r}, "
                "wanted 'cancelled'"
            )
        # The statement died; the session must not have.
        _lname, light_sql = LIGHT_QUERY
        fault = h.check_rows(
            victim.execute(light_sql, request_id="after-kill"), light_sql
        )
        if fault is not None:
            problems.append(f"victim session unusable after kill: {fault}")
        victim.close()
        killer.close()
    except OSError as exc:
        problems.append(f"socket error during killspill: {exc}")
    finally:
        kill_acked.set()
        SpillManager.create = create
    kills = h.server.metrics.total("server.kills")
    if kills < 1:
        problems.append("kill op not counted in server.kills")
    h.finish(problems)
    return ScenarioOutcome(
        "killspill", seed, not problems, problems, detail=f"kills={int(kills)}"
    )
