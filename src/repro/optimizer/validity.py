"""Validity-range computation via sensitivity analysis (paper §2.2, Fig. 5).

When the dynamic-programming enumerator prunes an alternative plan ``Palt``
in favour of ``Popt`` (same properties, same input edges — *structurally
equivalent* plans), we ask: for which cardinalities of each input edge does
``Popt`` remain cheaper?  The answer narrows the edge's validity range; at
runtime a CHECK on that edge compares the observed row count against the
range and triggers re-optimization only when we can guarantee a better
structurally equivalent alternative exists.

Because real cost functions are piecewise, non-smooth and occasionally even
non-monotonic (our sort/hash spill steps reproduce this), the paper replaces
analytic root finding with a *modified Newton–Raphson* probe (Fig. 5):

* probe geometrically (×1.1) away from the estimate,
* take a secant/Newton extrapolation step towards the crossover,
* jump ×10 when the difference is diverging,
* cap the iterations (3 by default — the paper found that sufficient), and
* stop immediately on a cost inversion.

The same method runs in both directions: upward probing narrows the upper
bound, downward probing the lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.plan.properties import ValidityRange

#: Cost of a plan as a function of one input-edge cardinality.
CostFn = Callable[[float], float]

#: Fig. 5 probes the edge cardinality in multiplicative steps of 1.1.
PROBE_STEP = 1.1
#: Fig. 5 jumps by a factor of 10 when Newton–Raphson diverges.
DIVERGENCE_JUMP = 10.0
#: Fig. 5 caps the iteration count at 3.
DEFAULT_MAX_ITERATIONS = 3
_INF = math.inf
#: Fig. 5's damping constant, 11 (the secant step's denominator factor).
_DAMPING = PROBE_STEP * 10.0


@dataclass(slots=True)
class SensitivityResult:
    """Outcome of one directional probe."""

    bound: Optional[float]  #: the narrowed bound, or None when not narrowed
    inversion_found: bool  #: True when a genuine cost crossover was observed
    iterations: int
    #: True when the last step shrank the cost difference — evidence that a
    #: crossover lies ahead even though the iteration cap stopped the probe.
    converging: bool = False


def _probe(
    est_card: float,
    cost_opt: CostFn,
    cost_alt: CostFn,
    upward: bool,
    max_iterations: int,
) -> SensitivityResult:
    """One directional run of the Fig. 5 method.

    ``upward=True`` searches for the upper bound (card grows); ``False``
    mirrors every multiplicative step to search downward for the lower bound.
    It runs once per edge, direction and alternative of every join of a
    returned plan, so its clamps and finiteness tests are comparisons, not
    ``max()`` / ``math.isfinite()`` calls (``not 0.0 < card < inf`` is
    ``card <= 0 or not isfinite(card)``, NaN included).
    """
    step = PROBE_STEP if upward else 1.0 / PROBE_STEP
    jump = DIVERGENCE_JUMP if upward else 1.0 / DIVERGENCE_JUMP
    card = 1e-6 if 1e-6 > est_card else est_card  # max(est_card, 1e-6)
    bound: Optional[float] = None
    iterations = 0
    converging = False

    # Each cost function is evaluated once per probe point: ``opt``/``alt``
    # always hold the two costs at ``card``.
    # Loop invariant entering each iteration: opt < alt.
    opt, alt = cost_opt(card), cost_alt(card)
    if opt >= alt:
        # The "optimal" plan is not cheaper at the estimate itself; the caller
        # only prunes when it is, so nothing to do (guards degenerate ties).
        return SensitivityResult(None, False, 0)

    while iterations < max_iterations:
        iterations += 1
        curr_diff = alt - opt  # (a) — positive
        card *= step  # (b) need another point for the gradient
        if not 0.0 < card < _INF:
            break
        stepped = card
        opt, alt = cost_opt(card), cost_alt(card)
        new_diff = alt - opt  # (c)
        if new_diff < 0:
            # (d) cost inversion: the alternative is now cheaper — a genuine
            # crossover lies at or before this probe point.
            return SensitivityResult(card, True, iterations, True)
        converging = new_diff < curr_diff
        if new_diff > curr_diff:
            # (e) diverging: jump an order of magnitude to find the regime
            # change (e.g. a spill step) faster.
            card *= jump
        elif new_diff < curr_diff:
            # (f) converging: Newton/secant extrapolation towards the root.
            factor = 1.0 + new_diff / (_DAMPING * (curr_diff - new_diff))
            if factor < 1.0:  # max(factor, 1.0)
                factor = 1.0
            if upward:
                card *= factor
            else:
                card /= factor
        # new_diff == curr_diff: flat difference; keep the geometric step only.
        if not 0.0 < card < _INF:
            break
        # (g) remember the most advanced probe point as the candidate bound.
        bound = card
        if card != stepped:
            opt, alt = cost_opt(card), cost_alt(card)
        if opt >= alt:
            # Inversion (or tie) discovered after the extrapolation step.
            return SensitivityResult(bound, True, iterations, True)

    # Iteration cap reached without an inversion.  Fig. 5 commits the last
    # probe point (step g); we report whether the probe was still converging
    # so the caller can avoid committing a bound in pure-divergence cases
    # (where no crossover exists and the probe point is meaningless).
    return SensitivityResult(bound, False, iterations, converging)


def narrow_validity_range(
    validity: ValidityRange,
    est_card: float,
    cost_opt: CostFn,
    cost_alt: CostFn,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> int:
    """Narrow ``validity`` for one edge, given the winning and pruned plans'
    costs as functions of that edge's cardinality.

    Runs the Fig. 5 probe upward (upper bound) and downward (lower bound)
    and commits each bound the probe converged on (step (g); a probe that
    found an inversion always converged).

    Returns the total Newton–Raphson iterations spent across both probes
    (observability: ``optimizer.newton_iterations``).
    """
    up = _probe(est_card, cost_opt, cost_alt, True, max_iterations)
    if up.bound is not None and up.converging:
        validity.narrow_high(up.bound)
    down = _probe(est_card, cost_opt, cost_alt, False, max_iterations)
    # Lower bounds under one row could only ever trigger on an empty
    # intermediate result; suppress them as noise.
    if down.bound is not None and down.bound >= 1.0 and down.converging:
        validity.narrow_low(down.bound)
    return up.iterations + down.iterations
