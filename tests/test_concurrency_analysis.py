"""Concurrency contract analyzer + runtime lock-order witness tests.

Fixture modules seed one violation each and assert the exact finding
code; the clean fixture asserts zero findings.  The witness tests cover
edge recording, wait violations, and the chaos cross-check that ties the
runtime graph back to the static one.
"""

import textwrap
import threading

from repro.analysis.concurrency import (
    ConcurrencyPolicy,
    check_concurrency_module,
    run_concurrency_checks,
    static_lock_graph,
)
from repro.common.locking import (
    LOCK_ORDER,
    LockOrderWitness,
    LockSpec,
    active_witness,
    disable_witness,
    enable_witness,
    lock_rank,
    maybe_witness,
)


def fixture_policy() -> ConcurrencyPolicy:
    return ConcurrencyPolicy(
        locks=(
            LockSpec("alpha", "Alpha", "_lock", "lock", 0),
            LockSpec("beta", "Beta", "_lock", "lock", 1),
            LockSpec("cond", "Waiter", "_cond", "condition", 2),
            LockSpec("rl", "Reent", "_lock", "rlock", 3),
        ),
        receiver_hints={"alpha": "Alpha", "beta": "Beta", "waiter": "Waiter"},
    )


def check(source: str):
    return check_concurrency_module(
        textwrap.dedent(source), "fixture.py", policy=fixture_policy()
    )


def codes(findings) -> list:
    return sorted({f.rule for f in findings})


# ------------------------------------------------------------ seeded bugs


def test_lock_order_inversion_flagged():
    findings = check(
        """
        class Alpha:
            def __init__(self):
                self._lock = object()

        class Beta:
            def __init__(self):
                self._lock = object()

            def use(self, alpha):
                with self._lock:
                    with alpha._lock:
                        pass
        """
    )
    assert codes(findings) == ["cc-lock-order"]
    assert findings[0].line == 12
    assert findings[0].data["acquiring"] == "alpha"
    assert findings[0].data["holding"] == "beta"


def test_reacquire_non_reentrant_flagged_reentrant_ok():
    bad = check(
        """
        class Alpha:
            def __init__(self):
                self._lock = object()

            def nested(self):
                with self._lock:
                    with self._lock:
                        pass
        """
    )
    assert codes(bad) == ["cc-lock-order"]
    ok = check(
        """
        class Reent:
            def __init__(self):
                self._lock = object()

            def nested(self):
                with self._lock:
                    with self._lock:
                        pass
        """
    )
    assert ok == []


def test_wait_while_holding_flagged():
    findings = check(
        """
        class Waiter:
            def __init__(self):
                self._cond = object()

        class Beta:
            def __init__(self):
                self._lock = object()

        def stall(waiter, beta):
            with beta._lock:
                with waiter._cond:
                    waiter._cond.wait()
        """
    )
    assert codes(findings) == ["cc-wait-holding"]
    assert findings[0].data["waiting_on"] == "cond"
    assert findings[0].data["held"] == ["beta"]


def test_callback_under_lock_flagged():
    findings = check(
        """
        class Alpha:
            def __init__(self):
                self._lock = object()
                self._hooks = []

            def fire(self):
                with self._lock:
                    for hook in self._hooks:
                        hook(self)
        """
    )
    assert codes(findings) == ["cc-callback-under-lock"]
    assert findings[0].data["held"] == ["alpha"]


def test_callback_reached_through_call_chain():
    # The violation is two calls below the with-block: requires the
    # worklist propagation, not just the lexical pass.
    findings = check(
        """
        class Alpha:
            def __init__(self):
                self._lock = object()
                self._callbacks = []

            def outer(self):
                with self._lock:
                    self.middle()

            def middle(self):
                self.inner()

            def inner(self):
                for cb in self._callbacks:
                    cb()
        """
    )
    assert codes(findings) == ["cc-callback-under-lock"]


def test_on_attribute_invocation_is_a_callback():
    findings = check(
        """
        class Alpha:
            def __init__(self):
                self._lock = object()
                self.on_change = None

            def mutate(self):
                with self._lock:
                    self.on_change(self)
        """
    )
    assert codes(findings) == ["cc-callback-under-lock"]


def test_unguarded_state_flagged():
    findings = check(
        """
        class Alpha:
            def __init__(self):
                self._lock = object()
                self._counters = {}  # guarded-by: _lock

            def good(self):
                with self._lock:
                    self._counters["x"] = 1

            def bad(self):
                self._counters["x"] = 2
        """
    )
    assert codes(findings) == ["cc-unguarded-state"]
    assert findings[0].line == 12
    assert findings[0].data == {"attr": "_counters", "guard": "alpha"}


def test_locked_suffix_methods_assume_the_lock():
    findings = check(
        """
        class Alpha:
            def __init__(self):
                self._lock = object()
                self.total = 0  # guarded-by: _lock

            def _bump_locked(self):
                self.total += 1

            def bump(self):
                with self._lock:
                    self._bump_locked()

            def sneaky(self):
                self._bump_locked()
        """
    )
    assert codes(findings) == ["cc-locked-helper"]
    assert findings[0].line == 15


def test_unresolvable_annotation_flagged():
    findings = check(
        """
        class Alpha:
            def __init__(self):
                self._lock = object()
                self.x = 1  # guarded-by: _nope
        """
    )
    assert codes(findings) == ["cc-annotation"]


def test_waiver_comment_suppresses():
    findings = check(
        """
        class Alpha:
            def __init__(self):
                self._lock = object()
                self._counters = {}  # guarded-by: _lock

            def bad(self):
                self._counters["x"] = 2  # concurrency-ok: single-threaded test hook
        """
    )
    assert findings == []


def test_clean_fixture_has_zero_findings():
    findings = check(
        """
        class Alpha:
            def __init__(self):
                self._lock = object()
                self.total = 0  # guarded-by: _lock
                self._callbacks = []  # guarded-by: _lock

            def _bump_locked(self):
                self.total += 1

        class Beta:
            def __init__(self):
                self._lock = object()

            def ordered(self, alpha):
                # beta after alpha matches the declared ranks... reversed:
                # alpha (0) may be held while acquiring beta (1).
                with alpha._lock:
                    with self._lock:
                        pass

        def collect_then_dispatch(alpha):
            with alpha._lock:
                alpha._bump_locked()
                pending = list(alpha._callbacks)
            for cb in pending:
                cb()
        """
    )
    assert findings == []


# ----------------------------------------------------- gate & real tree


def test_cli_concurrency_gate_exit_codes(tmp_path):
    from repro.analysis.__main__ import main

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "mod.py").write_text(
        textwrap.dedent(
            """
            class MetricsRegistry:
                def __init__(self):
                    self._lock = object()

            class MemoryGovernor:
                def __init__(self, metrics):
                    self._cond = object()
                    self.metrics = metrics

                def inverted(self):
                    with self.metrics._lock:
                        with self._cond:
                            pass
            """
        )
    )
    assert main(["--concurrency", "--root", str(bad)]) == 2

    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "mod.py").write_text("x = 1\n")
    assert main(["--concurrency", "--root", str(clean)]) == 0


def test_repo_tree_is_clean():
    findings = [
        f for f in run_concurrency_checks() if f.rule.startswith("cc-")
    ]
    assert findings == [], [str(f.to_dict()) for f in findings]


def test_static_lock_graph_contains_governor_obs_edges():
    graph = static_lock_graph()
    assert ("governor", "obs.metrics") in graph
    # Every static edge respects the declared ranks (the gate enforces it,
    # but assert directly so this file stands alone).
    for held, acquired in graph:
        assert lock_rank(held) < lock_rank(acquired)


def test_policy_declaration_is_a_total_order():
    ranks = [spec.rank for spec in LOCK_ORDER]
    assert ranks == sorted(ranks)
    assert len(set(ranks)) == len(ranks)
    names = {spec.name for spec in LOCK_ORDER}
    assert {"governor", "cache", "obs.metrics", "obs.trace", "spill"} <= names


# ------------------------------------------------------------- witness


def test_witness_records_nested_acquisition_edges():
    witness = LockOrderWitness()
    outer = witness.wrap(threading.Lock(), "governor")
    inner = witness.wrap(threading.Lock(), "obs.metrics")
    with outer:
        with inner:
            pass
    assert witness.edges() == {("governor", "obs.metrics")}
    assert witness.wait_violations() == []


def test_witness_flags_wait_while_holding():
    witness = LockOrderWitness()
    other = witness.wrap(threading.Lock(), "cache")
    cond = witness.wrap(threading.Condition(), "governor")
    with other:
        with cond:
            cond.wait(timeout=0.001)
    violations = witness.wait_violations()
    assert len(violations) == 1
    assert violations[0].waiting_on == "governor"
    assert violations[0].held == ("cache",)


def test_maybe_witness_passthrough_and_wrap():
    disable_witness()
    lock = threading.Lock()
    assert maybe_witness(lock, "cache") is lock
    try:
        witness = enable_witness()
        wrapped = maybe_witness(threading.Lock(), "cache")
        assert wrapped is not lock
        with wrapped:
            with maybe_witness(threading.Lock(), "spill"):
                pass
        assert witness.edges() == {("cache", "spill")}
    finally:
        disable_witness()


def test_witness_env_arming(monkeypatch):
    disable_witness()
    monkeypatch.setenv("REPRO_LOCK_WITNESS", "1")
    try:
        assert active_witness() is not None
    finally:
        disable_witness()
    monkeypatch.setenv("REPRO_LOCK_WITNESS", "0")
    assert active_witness() is None


def test_chaos_memory_pressure_cross_checks_witness():
    from repro.resilience import run_memory

    disable_witness()
    witness = enable_witness()
    try:
        outcome = run_memory(5, threads=3, statements_per_thread=1)
        assert outcome.ok, outcome.problems
        edges = witness.edges()
        assert edges, "witnessed no lock edges under memory pressure"
        assert edges <= static_lock_graph()
        assert witness.wait_violations() == []
    finally:
        disable_witness()
