"""Tests for the Fig. 5 modified Newton–Raphson validity-range probe."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optimizer.validity import (
    DEFAULT_MAX_ITERATIONS,
    _probe,
    narrow_validity_range,
)
from repro.plan.properties import ValidityRange


def linear(fixed: float, slope: float):
    """A linear cost function of the edge cardinality."""
    return lambda c: fixed + slope * c


class TestUpwardProbe:
    def test_finds_crossover_of_linear_costs(self):
        # opt: 10 + 1c ; alt: 100 + 0.1c ; crossover at c = 100.
        result = _probe(10.0, linear(10, 1.0), linear(100, 0.1), True, 10)
        assert result.inversion_found
        assert result.bound >= 100.0
        # The committed bound is past the crossover but not wildly so.
        assert result.bound < 100.0 * 15

    def test_iteration_cap_respected(self):
        result = _probe(
            10.0, linear(10, 1.0), linear(1e9, 0.1), True, DEFAULT_MAX_ITERATIONS
        )
        assert result.iterations <= DEFAULT_MAX_ITERATIONS

    def test_no_crossover_diverging_reports_not_converging(self):
        # alt grows faster than opt: difference diverges, no crossover above.
        result = _probe(10.0, linear(0, 0.1), linear(5, 1.0), True, 3)
        assert not result.inversion_found
        assert not result.converging

    def test_opt_not_cheaper_at_estimate_is_noop(self):
        result = _probe(10.0, linear(100, 1.0), linear(0, 0.1), True, 3)
        assert result.bound is None
        assert result.iterations == 0


class TestDownwardProbe:
    def test_finds_lower_crossover(self):
        # opt cheap for large c, alt cheap for small c; crossover at c = 100.
        result = _probe(1000.0, linear(100, 0.1), linear(10, 1.0), False, 10)
        assert result.inversion_found
        assert result.bound <= 100.0
        assert result.bound > 100.0 / 15

    def test_no_lower_crossover(self):
        # opt is cheaper everywhere below the estimate.
        result = _probe(100.0, linear(0, 0.5), linear(50, 0.5), False, 3)
        assert not result.inversion_found


class TestNarrowValidityRange:
    def test_narrows_both_bounds(self):
        rng = ValidityRange()
        # opt optimal in a band: opt = 50 + 0.5c, alt = |c - 100| shape via
        # two comparisons is overkill; use one alt crossing above only.
        narrow_validity_range(rng, 10.0, linear(10, 1.0), linear(100, 0.1))
        assert rng.high < math.inf
        assert rng.high >= 100.0

    def test_lower_bound_narrowed(self):
        rng = ValidityRange()
        narrow_validity_range(rng, 1000.0, linear(100, 0.1), linear(10, 1.0))
        # Committed lower bound is finite and lies between the true
        # crossover (100) and the estimate; Fig. 5 step (g) may commit the
        # last probe point before the crossover is reached.
        assert 0.0 < rng.low < 1000.0

    def test_trivial_when_no_crossover(self):
        # alt is more expensive everywhere and sub-row bounds are
        # suppressed, so the range must stay trivial.
        rng = ValidityRange()
        narrow_validity_range(rng, 10.0, linear(0, 0.1), linear(1, 0.2))
        assert rng.is_trivial

    def test_step_g_commits_the_probe_point_without_inversion(self):
        # One downward iteration cannot reach the crossover at c=100 from
        # est=1000; Fig. 5 step (g) still commits the converging probe
        # point, which stays above the crossover (conservative).
        rng = ValidityRange()
        narrow_validity_range(
            rng, 1000.0, linear(100, 0.1), linear(10, 1.0), max_iterations=1,
        )
        assert 100.0 < rng.low < 1000.0

    def test_paper_literal_mode_commits_converging_bound(self):
        rng = ValidityRange()
        narrow_validity_range(
            rng, 10.0, linear(10, 1.0), linear(1e5, 0.5), max_iterations=2,
        )
        # Bound committed even though the crossover was not reached...
        assert rng.high < math.inf
        # ... and it never overshoots the true crossover (conservative).
        true_crossover = (1e5 - 10) / 0.5
        assert rng.high <= true_crossover

    def test_handles_step_discontinuity(self):
        """A spill-style step in the alternative's cost is still found."""

        def alt(c: float) -> float:
            return 10000.0 if c < 5000 else 0.2 * c

        rng = ValidityRange()
        narrow_validity_range(rng, 100.0, linear(0, 1.0), alt, max_iterations=6)
        assert rng.high < math.inf

    def test_more_iterations_never_loosen(self):
        bounds = []
        for iterations in (1, 2, 3, 5, 8):
            rng = ValidityRange()
            narrow_validity_range(
                rng, 10.0, linear(10, 1.0), linear(2000, 0.1),
                max_iterations=iterations,
            )
            bounds.append(rng.high)
        finite = [b for b in bounds if b < math.inf]
        assert finite, "at least the deep probes must find the crossover"


class TestConservativenessProperty:
    @given(
        st.floats(1, 1e4),       # estimate
        st.floats(0.01, 10),     # opt slope
        st.floats(0.01, 10),     # alt slope
        st.floats(0, 1e5),       # opt fixed
        st.floats(0, 1e5),       # alt fixed
    )
    def test_inversion_bound_is_genuine(self, est, s_opt, s_alt, f_opt, f_alt):
        """Whenever the probe reports an inversion, the alternative really is
        no more expensive at the committed bound — the paper's guarantee
        that a violated range implies a better plan exists."""
        cost_opt = linear(f_opt, s_opt)
        cost_alt = linear(f_alt, s_alt)
        result = _probe(est, cost_opt, cost_alt, True, 6)
        if result.inversion_found:
            assert cost_alt(result.bound) <= cost_opt(result.bound) + 1e-6


# ------------------------------------------------- frozen results, call counts


def _step_alt(c: float) -> float:
    return 10000.0 if c < 5000 else 0.2 * c


def _bumpy(c: float) -> float:
    return 500.0 + 40.0 * ((c // 7) % 3) - 0.05 * c


#: name -> (est, cost_opt, cost_alt, upward, max_iterations)
PROBE_CASES = {
    "crossover_up": (10.0, linear(10, 1.0), linear(100, 0.1), True, 10),
    "crossover_extrapolated_up": (10.0, linear(10, 1.0), linear(1e5, 0.5), True, 3),
    "crossover_down": (1000.0, linear(100, 0.1), linear(10, 1.0), False, 10),
    "divergence_up": (10.0, linear(0, 0.1), linear(5, 1.0), True, 3),
    "near_flat_down": (100.0, linear(0, 0.5), linear(50, 0.5), False, 3),
    "near_flat_up": (100.0, linear(0, 0.5), linear(50, 0.5), True, 6),
    "flat_exact_up": (64.0, linear(0, 1.0), linear(32, 1.0), True, 3),
    "step_up": (100.0, linear(0, 1.0), _step_alt, True, 6),
    "non_monotone_up": (20.0, linear(0, 1.0), _bumpy, True, 6),
    "non_monotone_down": (300.0, linear(0, 1.0), _bumpy, False, 6),
    "capped_converging_up": (10.0, linear(0, 1.0), lambda c: 1e6 / c, True, 3),
    "capped_converging_down": (1e5, lambda c: 1e6 / c, linear(0, 1.0), False, 3),
    "not_cheaper": (10.0, linear(100, 1.0), linear(0, 0.1), True, 3),
}

#: (bound, inversion_found, iterations, converging) of the probe that
#: re-evaluated both costs at every use of a point (commit b7b3e37).
PROBE_FROZEN = {
    "crossover_up": (109.99999999999937, True, 2, True),
    "crossover_extrapolated_up": (199980.0, True, 1, True),
    "crossover_down": (91.14844750185415, True, 6, True),
    "divergence_up": (13310.000000000004, False, 3, False),
    "near_flat_down": (1.1744508029092546e-13, False, 3, False),
    "near_flat_up": (1.1332956618556986e+17, False, 6, False),
    "flat_exact_up": (85.18400000000003, False, 3, False),
    "step_up": (10000.000000000002, True, 1, True),
    "non_monotone_up": (565.7142857142854, True, 4, True),
    "non_monotone_down": (0.0001693421790161332, False, 6, False),
    "capped_converging_up": (92.35758068957585, False, 3, True),
    "capped_converging_down": (10827.481540049326, False, 3, True),
    "not_cheaper": (None, False, 0, False),
}


@pytest.mark.parametrize("name", sorted(PROBE_CASES))
def test_probe_costs_each_function_once_per_point(name):
    """Fig. 5 needs the estimate point plus two points per iteration (the
    geometric step and the extrapolation): at most ``2·iterations + 1``
    evaluations of each cost function per direction, same result as ever."""
    est, cost_opt, cost_alt, upward, max_iterations = PROBE_CASES[name]
    calls = {"opt": 0, "alt": 0}

    def counted(which, fn):
        def call(c):
            calls[which] += 1
            return fn(c)
        return call

    result = _probe(
        est, counted("opt", cost_opt), counted("alt", cost_alt), upward, max_iterations
    )
    assert (
        result.bound, result.inversion_found, result.iterations, result.converging
    ) == PROBE_FROZEN[name]
    assert result.iterations <= max_iterations
    assert calls["opt"] == calls["alt"] <= 2 * result.iterations + 1
