"""Concurrency contract analyzer + runtime lock-order witness tests.

Fixture modules seed one violation each and assert the exact finding
code; the clean fixture asserts zero findings.  The witness tests cover
edge recording, wait violations, and the chaos cross-check that ties the
runtime graph back to the static one.
"""

import textwrap
import threading

from repro.analysis import render_text
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


# ------------------------------------------- catch-table mutants, unique
# Each defect of docs/static_analysis.md's catch table that only one cc-*
# check catches, in the shape it takes in the engine, under the production
# policy (repro.common.locking's ranks and receiver hints).


def production(source: str, filename: str):
    return check_concurrency_module(textwrap.dedent(source), filename)


def test_mutant_26_metrics_bumped_under_the_spill_lock():
    """A spill-file counter bumped inside ``SpillManager``'s lock takes
    obs.metrics (rank 4) under spill (rank 6).  The runtime witness misses
    it: it only checks observed edges against the static graph, which then
    holds the inverted edge."""
    findings = production(
        """
        class MetricsRegistry:
            def inc(self, name, **labels):
                with self._lock:
                    pass

        class SpillManager:
            def create(self, category):
                with self._lock:
                    self._seq += 1
                    if self.metrics is not None:
                        self.metrics.inc("governor.spill_files", category=category)
        """,
        "storage/spill.py",
    )
    assert codes(findings) == ["cc-lock-order"]
    assert findings[0].data == {"acquiring": "obs.metrics", "holding": "spill"}


def test_mutant_27_wal_admission_under_the_epoch_lock():
    """Admitting the WAL buffer inside the epoch lock sleeps on the
    governor's condition with txn.epoch held."""
    findings = production(
        """
        class MemoryGovernor:
            def admit(self, pages, label="stmt"):
                with self._cond:
                    self._cond.wait(0.1)

        class TransactionManager:
            def commit(self, txn, governor):
                with self._epoch_lock:
                    reservation = governor.admit(1.0, label="txn.wal")
                return reservation
        """,
        "txn/manager.py",
    )
    assert codes(findings) == ["cc-wait-holding"]
    assert findings[0].data == {"waiting_on": "governor", "held": ["txn.epoch"]}


SPILL_COUNTER = """
    class SpillManager:
        def __init__(self):
            self.rows_read_back = 0  # guarded-by: {guard}

        def _note_read(self, spill, row_count):
            self.rows_read_back += row_count
"""


def test_mutant_29_spill_counter_updated_outside_its_lock():
    findings = production(SPILL_COUNTER.format(guard="_lock"), "storage/spill.py")
    assert codes(findings) == ["cc-unguarded-state"]
    assert findings[0].data == {"attr": "rows_read_back", "guard": "spill"}


def test_mutant_31_misspelt_guard_annotation():
    """With the guard misspelt the counter is unguarded as far as the
    analyzer knows, so the annotation check is the only one left."""
    findings = production(SPILL_COUNTER.format(guard="_lokc"), "storage/spill.py")
    assert codes(findings) == ["cc-annotation"]
    assert findings[0].data["annotation"] == "_lokc"


def test_mutant_30_locked_helper_called_without_the_condition():
    findings = production(
        """
        class MemoryGovernor:
            def used_pages(self):
                return self._used_locked()

            def _used_locked(self):
                return 0.0
        """,
        "governor/__init__.py",
    )
    assert codes(findings) == ["cc-locked-helper"]
    assert findings[0].data["required"] == ["governor"]


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
    assert findings == [], render_text(findings)


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
