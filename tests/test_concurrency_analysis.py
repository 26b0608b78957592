"""Concurrency contract analyzer tests.

Fixture modules seed one violation each and assert the exact finding
code; the clean fixture asserts zero findings.
"""

import textwrap

from repro.analysis import render_text
from repro.analysis.concurrency import (
    ConcurrencyPolicy,
    check_concurrency_module,
    run_concurrency_checks,
)
from repro.common.locking import LOCK_ORDER, LockSpec


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


def test_no_comment_waives_a_finding():
    """There is no waiver: a comment beside an unguarded write is still
    reported."""
    findings = check(
        """
        class Alpha:
            def __init__(self):
                self._lock = object()
                self._counters = {}  # guarded-by: _lock

            def bad(self):
                self._counters["x"] = 2  # concurrency-ok: test hook
        """
    )
    assert codes(findings) == ["cc-unguarded-state"]


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
    obs.metrics (rank 4) under spill (rank 6)."""
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


def test_policy_declaration_is_a_total_order():
    ranks = [spec.rank for spec in LOCK_ORDER]
    assert ranks == sorted(ranks)
    assert len(set(ranks)) == len(ranks)
    names = {spec.name for spec in LOCK_ORDER}
    assert {"governor", "cache", "obs.metrics", "obs.trace", "spill"} <= names
