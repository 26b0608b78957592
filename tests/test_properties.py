"""Tests for plan properties and validity ranges."""


from hypothesis import given
from hypothesis import strategies as st

from repro.plan.properties import PlanProperties, ValidityRange


class TestPlanProperties:
    def test_signature_ignores_order(self):
        a = PlanProperties(frozenset({"t"}), frozenset({"p"}), order=("t.x",))
        b = PlanProperties(frozenset({"t"}), frozenset({"p"}))
        assert a.signature == b.signature

    def test_with_order_and_unordered(self):
        props = PlanProperties(frozenset({"t"}), frozenset())
        ordered = props.with_order(("t.x",))
        assert ordered.order == ("t.x",)
        assert ordered.unordered().order == ()

    def test_merge_unions_tables_and_predicates(self):
        a = PlanProperties(frozenset({"t"}), frozenset({"p1"}))
        b = PlanProperties(frozenset({"u"}), frozenset({"p2"}))
        merged = a.merge(b, extra_predicates={"j"})
        assert merged.tables == {"t", "u"}
        assert merged.predicates == {"p1", "p2", "j"}
        assert merged.order == ()


class TestValidityRange:
    def test_initially_trivial(self):
        rng = ValidityRange()
        assert rng.is_trivial
        assert rng.contains(0)
        assert rng.contains(1e18)

    def test_narrow_high_only_shrinks(self):
        rng = ValidityRange()
        rng.narrow_high(100)
        rng.narrow_high(500)  # looser: ignored
        assert rng.high == 100
        rng.narrow_high(50)
        assert rng.high == 50

    def test_narrow_low_only_grows(self):
        rng = ValidityRange()
        rng.narrow_low(10)
        rng.narrow_low(5)  # looser: ignored
        assert rng.low == 10

    def test_contains_boundaries(self):
        rng = ValidityRange(low=10, high=20)
        assert rng.contains(10)
        assert rng.contains(20)
        assert not rng.contains(9.99)
        assert not rng.contains(20.01)

    def test_not_trivial_after_narrowing(self):
        rng = ValidityRange()
        rng.narrow_high(1000)
        assert not rng.is_trivial

    def test_copy_is_independent(self):
        a = ValidityRange(low=1, high=2)
        b = a.copy()
        b.narrow_high(1.5)
        assert a.high == 2

    def test_str_rendering(self):
        assert "inf" in str(ValidityRange())
        assert str(ValidityRange(3, 7)) == "[3, 7]"

    @given(
        st.floats(0, 1e6),
        st.floats(0, 1e6),
        st.floats(0, 1e6, allow_nan=False),
    )
    def test_narrowing_is_monotone(self, bound1, bound2, probe):
        rng = ValidityRange()
        rng.narrow_high(bound1)
        before = rng.contains(probe)
        rng.narrow_high(bound2)
        rng.narrow_low(min(bound1, bound2) / 2)
        # Narrowing can only remove points, never add them.
        assert not (rng.contains(probe) and not before)
