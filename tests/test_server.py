"""The multi-session server runtime: protocol, sessions, robustness.

Integration tests drive real sockets against a live
:class:`~repro.server.server.ReproServer`; the slow-query tests stall
the table scan with a monkeypatch so cancellation/drain/shedding races
are deterministic rather than workload-sized.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from contextlib import contextmanager
from io import StringIO

import pytest

from repro.common.errors import ProtocolError
from repro.server import ReproClient, ReproServer, ServerConfig
from repro.server.protocol import (
    FrameReader,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    validate_request,
)

LIGHT_SQL = (
    "SELECT o.o_id, o.o_name FROM owner o WHERE o.o_zip < 5 ORDER BY o.o_id"
)
SCAN_SQL = "SELECT o.o_id FROM owner o"


@contextmanager
def serve(db, **overrides):
    server = ReproServer(db, ServerConfig(**overrides))
    host, port = server.start()
    try:
        yield server, host, port
    finally:
        server.shutdown(drain=False)


@pytest.fixture
def stalled_scans(monkeypatch):
    """Make every table scan sleep 1ms per row, so full scans take
    seconds — long enough that kills/sheds/drains land mid-query.

    Pulls are narrowed to 8 rows (partial batches are legal anywhere), so
    a cancel or deadline poll still comes round every 8ms."""
    from repro.executor.scans import TableScanExec

    original = TableScanExec.next_batch

    def stalled(self, max_rows):
        time.sleep(0.008)
        return original(self, min(max_rows, 8))

    monkeypatch.setattr(TableScanExec, "next_batch", stalled)


# ----------------------------------------------------------------- protocol


class TestProtocol:
    def test_frame_roundtrip(self):
        frame = {"op": "execute", "sql": "SELECT 1", "id": 7}
        raw = encode_frame(frame)
        assert raw.endswith(b"\n")
        assert decode_frame(raw[:-1]) == frame

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_frame(b"definitely not json")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_frame(b"[1, 2, 3]")

    def test_validate_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "frobnicate"})
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({})

    def test_responses_echo_request_id(self):
        ok = ok_response({"pong": True}, {"op": "ping", "id": "abc"})
        assert ok["ok"] and ok["id"] == "abc"
        err = error_response(ProtocolError("nope"), {"op": "x", "id": 3})
        assert err == {
            "ok": False, "error_class": "user", "error": "nope", "id": 3,
        }

    def test_reader_skips_blank_lines_and_caps_frames(self):
        left, right = socket.socketpair()
        try:
            reader = FrameReader(right, max_frame_bytes=64)
            left.sendall(b"\n  \n" + encode_frame({"op": "ping"}))
            assert reader.read_frame() == {"op": "ping"}
            left.sendall(b"x" * 128)
            with pytest.raises(ProtocolError, match="exceeds"):
                reader.read_frame()
        finally:
            left.close()
            right.close()

    def test_reader_eof_mid_frame_is_protocol_error(self):
        left, right = socket.socketpair()
        try:
            reader = FrameReader(right)
            left.sendall(b'{"op": "exe')
            left.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                reader.read_frame()
        finally:
            right.close()

    def test_reader_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        try:
            reader = FrameReader(right)
            left.sendall(encode_frame({"op": "ping"}))
            left.close()
            assert reader.read_frame() == {"op": "ping"}
            assert reader.read_frame() is None
        finally:
            right.close()


# ---------------------------------------------------------------- sessions


class TestSessionLifecycle:
    def test_connect_execute_disconnect(self, dmv_db):
        oracle = sorted(tuple(r) for r in dmv_db.execute(LIGHT_SQL).rows)
        with serve(dmv_db) as (server, host, port):
            with ReproClient(host, port) as cli:
                assert cli.session_id == 1
                assert cli.greeting["ok"]
                resp = cli.execute(LIGHT_SQL, request_id="q1")
                assert resp["ok"] and resp["id"] == "q1"
                assert resp["columns"] == ["o.o_id", "o.o_name"]
                assert sorted(tuple(r) for r in resp["rows"]) == oracle
                assert resp["attempts"] >= 1
            # the reader observes the close and retires the session
            deadline = time.monotonic() + 5.0
            while server.registry.count() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.registry.count() == 0
            stats = server.stats()
            assert stats["statements_total"] == 1
            assert stats["sessions"]["accepted_total"] == 1

    def test_ping_sessions_stats_ops(self, dmv_db):
        with serve(dmv_db) as (_server, host, port):
            with ReproClient(host, port) as cli:
                assert cli.ping()["pong"] is True
                snap = cli.sessions()
                assert snap["live"] == 1
                assert snap["sessions"][0]["session"] == cli.session_id
                stats = cli.stats()["stats"]
                assert stats["draining"] is False

    def test_sessions_are_isolated(self, dmv_db):
        """Distinct ids, and each session gets its own plan cache."""
        with serve(dmv_db) as (server, host, port):
            with ReproClient(host, port) as a, ReproClient(host, port) as b:
                assert a.session_id != b.session_id
                a.execute(LIGHT_SQL)
                a.execute(LIGHT_SQL)
                sessions = server.registry.sessions()
                caches = {s.session_id: s.plan_cache for s in sessions}
                assert caches[a.session_id] is not caches[b.session_id]
                # a's repeated statement hit only a's cache
                assert caches[a.session_id].stats.hits >= 1
                assert caches[b.session_id].stats.hits == 0

    def test_concurrent_sessions_share_no_statement_state(self, star_db):
        """Two sessions loop the same marker statement with different binds
        on two workers.  Each execution re-optimizes and promotes temp MVs
        that match on marker names, not values — so every response being
        oracle-identical means no session ever scanned (or dropped) the
        other's intermediate results or optimized under its options."""
        sql = (
            "SELECT c.c_nation, COUNT(*) FROM cust c, orders o "
            "WHERE o.o_custkey = c.c_id AND c.c_segment = ? "
            "GROUP BY c.c_nation"
        )
        binds = ("COMMON", "RARE")
        oracle = {
            v: sorted(star_db.execute_without_pop(sql, params={"p1": v}).rows)
            for v in binds
        }
        problems = []

        def session(value, host, port):
            try:
                with ReproClient(host, port) as cli:
                    for i in range(20):
                        resp = cli.execute(sql, params={"p1": value})
                        rows = sorted(tuple(r) for r in resp.get("rows", []))
                        if not resp["ok"] or rows != oracle[value]:
                            problems.append((value, i, len(rows), resp.get("error")))
            except Exception as exc:  # surfaced by the assert below
                problems.append((value, repr(exc)))

        # Switch threads far more often than the default 5 ms, so the two
        # workers really interleave inside each other's re-optimization.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serve(star_db, workers=2) as (_server, host, port):
                threads = [
                    threading.Thread(target=session, args=(v, host, port))
                    for v in binds
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120.0)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert problems == []

    def test_session_limit_sheds_classified(self, dmv_db):
        with serve(dmv_db, max_sessions=1) as (_server, host, port):
            with ReproClient(host, port) as first:
                assert first.session_id is not None
                refused = ReproClient(host, port)
                assert refused.session_id is None
                assert refused.greeting["error_class"] == "overloaded"
                refused.drop()

    def test_bad_sql_keeps_session(self, dmv_db):
        with serve(dmv_db) as (_server, host, port):
            with ReproClient(host, port) as cli:
                resp = cli.execute("SELECT nope FROM nothing")
                assert resp["ok"] is False
                assert resp["error_class"] == "user"
                assert cli.ping()["ok"]

    def test_one_statement_in_flight(self, dmv_db, stalled_scans):
        with serve(dmv_db) as (_server, host, port):
            with ReproClient(host, port) as cli:
                cli.send_frame({"op": "execute", "sql": SCAN_SQL, "id": 1})
                second = cli.request(
                    {"op": "execute", "sql": LIGHT_SQL, "id": 2}
                )
                assert second["id"] == 2
                assert second["ok"] is False
                assert second["error_class"] == "user"
                assert "in flight" in second["error"]


# -------------------------------------------------------------- robustness


class TestTimeoutsAndKill:
    def test_idle_session_is_reaped(self, dmv_db):
        with serve(
            dmv_db, idle_timeout_seconds=0.15, reap_interval_seconds=0.02
        ) as (server, host, port):
            cli = ReproClient(host, port, timeout=10.0)
            goodbye = cli.recv()  # blocks until the reaper says goodbye
            assert goodbye["ok"] is False
            assert goodbye["error_class"] == "timeout"
            assert cli.recv() is None
            cli.drop()
            assert server.metrics.total("server.idle_reaped") == 1

    def test_statement_deadline_classified_timeout(self, dmv_db, stalled_scans):
        with serve(
            dmv_db, statement_timeout_seconds=0.1
        ) as (_server, host, port):
            with ReproClient(host, port) as cli:
                resp = cli.execute(SCAN_SQL)
                assert resp["ok"] is False
                assert resp["error_class"] == "timeout"
                # the session outlives its statement's deadline
                assert cli.ping()["ok"]

    def test_kill_other_session_mid_query(self, dmv_db, stalled_scans):
        with serve(dmv_db) as (server, host, port):
            with ReproClient(host, port) as victim, \
                    ReproClient(host, port) as killer:
                victim.send_frame({"op": "execute", "sql": SCAN_SQL})
                time.sleep(0.2)  # scan is mid-flight (1ms/row stall)
                resp = killer.kill(victim.session_id)
                assert resp["ok"] and resp["killed"] == victim.session_id
                assert resp["was_running"] is True
                answer = victim.recv()
                assert answer["ok"] is False
                assert answer["error_class"] == "cancelled"
                # the statement died; the session did not
                again = victim.execute(LIGHT_SQL)
                assert again["ok"]
                assert server.metrics.total("server.kills") == 1

    def test_kill_unknown_session_is_user_error(self, dmv_db):
        with serve(dmv_db) as (_server, host, port):
            with ReproClient(host, port) as cli:
                resp = cli.kill(999)
                assert resp["ok"] is False
                assert resp["error_class"] == "user"

    def test_disconnect_mid_query_cancels_statement(self, dmv_db, stalled_scans):
        with serve(dmv_db) as (server, host, port):
            cli = ReproClient(host, port)
            cli.send_frame({"op": "execute", "sql": SCAN_SQL})
            time.sleep(0.2)
            cli.drop()  # vanish mid-query
            deadline = time.monotonic() + 10.0
            while (
                server.metrics.total("server.cancelled") < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert server.metrics.total("server.cancelled") == 1
            assert server.registry.running_count() == 0


class TestOverloadAndDrain:
    def test_full_statement_queue_sheds_classified(
        self, dmv_db, stalled_scans
    ):
        with serve(
            dmv_db, workers=1, max_pending_statements=1
        ) as (server, host, port):
            busy = ReproClient(host, port)
            queued = ReproClient(host, port)
            shed = ReproClient(host, port)
            try:
                busy.send_frame({"op": "execute", "sql": SCAN_SQL})
                time.sleep(0.1)  # the worker is now stuck in the scan
                queued.send_frame({"op": "execute", "sql": SCAN_SQL})
                time.sleep(0.1)  # fills the one queue slot
                resp = shed.execute(LIGHT_SQL)
                assert resp["ok"] is False
                assert resp["error_class"] == "overloaded"
                assert "queue full" in resp["error"]
                assert server.metrics.total("server.shed") == 1
                # shed client's *session* is fine
                assert shed.ping()["ok"]
            finally:
                for cli in (busy, queued, shed):
                    cli.drop()

    def test_drain_finishes_in_flight_statement(self, dmv_db):
        oracle = sorted(tuple(r) for r in dmv_db.execute(LIGHT_SQL).rows)
        with serve(dmv_db, drain_timeout_seconds=10.0) as (server, host, port):
            cli = ReproClient(host, port)
            cli.send_frame({"op": "execute", "sql": LIGHT_SQL})
            # wait until the statement is actually in flight (a frame
            # still in the kernel buffer is not drain's responsibility)
            deadline = time.monotonic() + 5.0
            while (
                server.registry.running_count() == 0
                and server.metrics.total("server.statements") < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            server.shutdown(drain=True)  # returns once drained
            resp = cli.recv()
            assert resp["ok"], f"in-flight statement lost by drain: {resp}"
            assert sorted(tuple(r) for r in resp["rows"]) == oracle
            cli.drop()

    def test_draining_server_refuses_new_work(self, dmv_db, stalled_scans):
        with serve(dmv_db, drain_timeout_seconds=0.2) as (server, host, port):
            cli = ReproClient(host, port)
            cli.send_frame({"op": "execute", "sql": SCAN_SQL})
            time.sleep(0.1)
            shutdown_err = None
            import threading

            def drain():
                server.shutdown(drain=True)

            t = threading.Thread(target=drain)
            t.start()
            time.sleep(0.05)
            # new connections are refused while draining
            try:
                late = ReproClient(host, port)
                assert late.session_id is None or (
                    late.greeting or {}
                ).get("error_class") == "overloaded"
                late.drop()
            except OSError:
                pass  # listener already closed — equally fine
            t.join(timeout=15.0)
            assert not t.is_alive(), shutdown_err
            # the straggler was cancelled, not leaked
            assert server.registry.running_count() == 0
            cli.drop()

    def test_shutdown_joins_all_threads(self, dmv_db):
        import threading

        baseline = threading.active_count()
        server = ReproServer(dmv_db, ServerConfig())
        host, port = server.start()
        cli = ReproClient(host, port)
        cli.execute(LIGHT_SQL)
        server.shutdown(drain=True)
        server.shutdown(drain=True)  # idempotent
        deadline = time.monotonic() + 5.0
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= baseline
        cli.drop()


# ------------------------------------------------------------ chaos harness


class TestChaosHarness:
    SCENARIOS = ["disconnect", "slowloris", "malformed", "overload", "killspill"]

    def test_full_scenario_sweep_single_seed(self):
        from repro.chaos import scenarios
        from repro.common.chaosutil import run_scenarios

        outcomes = run_scenarios(scenarios(), [11], self.SCENARIOS, verbose=False)
        assert [o.scenario for o in outcomes] == self.SCENARIOS
        failed = [o for o in outcomes if not o.ok]
        assert not failed, [(o.scenario, o.problems) for o in failed]

    def test_main_reports_and_exits_zero(self, capsys):
        from repro.chaos import main

        assert main(["--seeds", "12", "--scenario", "malformed"]) == 0
        out = capsys.readouterr().out
        assert "[ok] malformed seed=12" in out
        assert "1/1 scenario runs ok" in out


# ------------------------------------------------------------------- \serve


class TestServeMeta:
    def test_serve_status_stop_roundtrip(self, dmv_db):
        from repro.cli import Shell

        out = StringIO()
        shell = Shell(db=dmv_db, out=out)
        shell.handle_meta("\\serve")
        assert shell.server is not None
        host, port = shell.server.address
        with ReproClient(host, port) as cli:
            assert cli.execute(LIGHT_SQL)["ok"]
        shell.handle_meta("\\serve status")
        shell.handle_meta("\\serve stop")
        assert shell.server is None
        shell.handle_meta("\\serve stop")  # tolerated when not running
        text = out.getvalue()
        assert f"serving on {host}:{port}" in text
        assert "statements=1" in text
        assert "server drained and stopped" in text
        assert "server is not running" in text

    def test_quit_stops_server(self, dmv_db):
        from repro.cli import Shell

        shell = Shell(db=dmv_db, out=StringIO())
        shell.run(iter(["\\serve", "\\q"]))
        assert shell.server is None

    def test_kill_meta_command(self, dmv_db, stalled_scans):
        from repro.cli import Shell

        out = StringIO()
        shell = Shell(db=dmv_db, out=out)
        shell.handle_meta("\\kill 1")  # no server yet
        shell.handle_meta("\\serve")
        host, port = shell.server.address
        victim = ReproClient(host, port)
        try:
            victim.send_frame({"op": "execute", "sql": SCAN_SQL})
            time.sleep(0.2)
            shell.handle_meta("\\kill")  # usage
            shell.handle_meta("\\kill 999")
            shell.handle_meta(f"\\kill {victim.session_id}")
            answer = victim.recv()
            assert answer["ok"] is False
            assert answer["error_class"] == "cancelled"
        finally:
            victim.drop()
            shell.handle_meta("\\serve stop")
        text = out.getvalue()
        assert "server is not running" in text
        assert "usage: \\kill SESSION_ID" in text
        assert "no such session 999" in text
        assert f"killed session {victim.session_id} (statement cancelled)" in text
