"""Robustness maps: cost surfaces over cardinality perturbations.

Validity ranges answer a binary question — *would re-optimization beat this
plan at cardinality c?* — but robustness work (Graefe et al., "Visualizing
the robustness of query execution") argues the full *shape* of the cost
surface matters: a plan whose cost explodes just outside its range is
fragile even if the range itself is wide.  This module sweeps a log-spaced
cardinality grid around a chosen plan's most expensive join edges and
recosts the plan at every grid point with the real cost model — including
its sort/hash spill discontinuities, which is where fragility lives — and
emits the surface as JSON (benchmark/CI artifact) and as an ASCII heatmap
(``explain``-style terminal rendering).

Each grid point is one :meth:`repro.optimizer.costmodel.CostModel.recost`
call — the optimizer's own arithmetic, driven by the cost descriptions the
join nodes carry: the perturbed edges produce the grid's rows, every
cardinality above them scales with them, and at the estimate the plan
recosts to its ``est_cost`` exactly.  One gap: placement adds an LCEM TEMP's
cost to the TEMP but not to the operators above it, so a plan with an LCEM
CHECK recosts above its ``est_cost`` by that TEMP.
"""

from __future__ import annotations

import json
import math

#: Character ramp for the heatmap, coldest (cheapest) to hottest.
_RAMP = " .:-=+*#%@"

_JOIN_KINDS = ("NLJOIN", "HSJOIN", "MSJOIN")


def _join_edges(plan):
    """Candidate (join, child_index, validity_range) edges of a plan.

    Edges with a narrowed (non-trivial) validity range come first, ranked
    by the join's estimated cost — the same edges CHECKs guard, and the
    ones whose mis-estimation is most expensive.
    """
    narrowed = []
    trivial = []
    for op in plan.walk():
        if op.KIND not in _JOIN_KINDS:
            continue
        ranges = getattr(op, "validity_ranges", None) or []
        for idx, _child in enumerate(op.children):
            rng = ranges[idx] if idx < len(ranges) else None
            entry = (float(op.est_cost), op, idx, rng)
            if rng is not None and not rng.is_trivial:
                narrowed.append(entry)
            else:
                trivial.append(entry)
    narrowed.sort(key=lambda e: -e[0])
    trivial.sort(key=lambda e: -e[0])
    return narrowed + trivial


def _factor_grid(est_card: float, rng, points: int) -> list[float]:
    """Log-spaced multipliers spanning past the edge's validity bounds.

    Defaults to [1/8, 8]; a narrowed bound widens the sweep to 2x beyond
    it so the surface shows what lies outside the guaranteed region.  The
    grid always contains the factor 1.0 (the estimate itself) exactly.
    """
    lo, hi = 0.125, 8.0
    if rng is not None and est_card > 0:
        if rng.low and rng.low > 0:
            lo = min(lo, (rng.low / est_card) / 2.0)
        if rng.high and math.isfinite(rng.high):
            hi = max(hi, (rng.high / est_card) * 2.0)
    span = math.log(hi / lo)
    factors = [lo * math.exp(span * i / (points - 1)) for i in range(points)]
    nearest = min(range(points), key=lambda i: abs(math.log(factors[i])))
    factors[nearest] = 1.0
    return factors


class RobustnessMap:
    """Cost surface of one plan over a cardinality grid (1 or 2 edges)."""

    def __init__(self, plan, cost_model, points: int = 9, max_edges: int = 2):
        self.plan = plan
        self.cost_model = cost_model
        self.points = max(int(points), 3)
        self.max_edges = max(1, min(int(max_edges), 2))
        self._result = None

    def compute(self) -> dict:
        """Sweep the grid; returns (and caches) the JSON-ready surface."""
        if self._result is not None:
            return self._result
        picked = []
        seen_children = set()
        for _, join, idx, rng in _join_edges(self.plan):
            child = join.children[idx]
            if child.op_id in seen_children:
                continue
            seen_children.add(child.op_id)
            picked.append((join, idx, child, rng))
            if len(picked) >= self.max_edges:
                break
        edges = []
        factor_axes = []
        card_axes = []
        for join, _idx, child, rng in picked:
            est = child.est_card
            factors = _factor_grid(est, rng, self.points)
            factor_axes.append(factors)
            card_axes.append([est * f for f in factors])
            edges.append(
                {
                    "join_op_id": join.op_id,
                    "join": join.describe(),
                    "edge_op_id": child.op_id,
                    "edge": child.describe(),
                    "est_card": est,
                    "valid_low": rng.low if rng is not None else 0.0,
                    "valid_high": (
                        rng.high
                        if rng is not None and math.isfinite(rng.high)
                        else None
                    ),
                }
            )

        def cost_at(*rows) -> float:
            named = {child.op_id: n for (_, _, child, _), n in zip(picked, rows)}
            return self.cost_model.recost(self.plan, named)[self.plan]

        base_cost = cost_at()
        if not picked:
            cost = [[base_cost]]
            factor_axes = [[1.0]]
            card_axes = [[self.plan.est_card]]
        elif len(picked) == 1:
            cost = [[cost_at(n0) for n0 in card_axes[0]]]
        else:
            cost = [[cost_at(n0, n1) for n0 in card_axes[0]] for n1 in card_axes[1]]
        flat = [c for row in cost for c in row]
        max_cost = max(flat)
        min_cost = min(flat)
        self._result = {
            "edges": edges,
            "factors": factor_axes,
            "cards": card_axes,
            "base_cost": base_cost,
            "cost": cost,
            "min_cost": min_cost,
            "max_cost": max_cost,
            # Worst grid cost relative to the cost at the estimate: 1.0 is
            # a perfectly flat (maximally robust) surface.
            "fragility": max_cost / max(base_cost, 1e-9),
        }
        return self._result

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.compute(), indent=indent, sort_keys=True)

    def heatmap(self) -> str:
        """ASCII rendering: rows sweep edge 1 (if any), columns edge 0."""
        result = self.compute()
        lines = ["robustness map: plan cost over edge-cardinality grid"]
        for axis, edge in enumerate(result["edges"]):
            bound = (
                f"validity=[{edge['valid_low']:.0f}, "
                + (
                    f"{edge['valid_high']:.0f}]"
                    if edge["valid_high"] is not None
                    else "inf)"
                )
            )
            lines.append(
                f"  {'x' if axis == 0 else 'y'}: {edge['join']} <- "
                f"{edge['edge']} est={edge['est_card']:.0f} {bound}"
            )
        lo, hi = result["min_cost"], result["max_cost"]
        span = math.log(hi / lo) if hi > lo > 0 else 0.0

        def shade(value: float) -> str:
            if span <= 0:
                return _RAMP[0]
            t = math.log(value / lo) / span
            return _RAMP[min(int(t * (len(_RAMP) - 1)), len(_RAMP) - 1)]

        col_factors = result["factors"][0]
        row_factors = (
            result["factors"][1] if len(result["factors"]) > 1 else [1.0]
        )
        for i, row in enumerate(result["cost"]):
            label = f"{row_factors[i]:7.3f}x" if len(row_factors) > 1 else " " * 8
            lines.append(f"  {label} |{''.join(shade(c) for c in row)}|")
        marks = "".join(
            "^" if f == 1.0 else " " for f in col_factors
        )
        lines.append(f"  {' ' * 8} |{marks}| (^ = estimate)")
        lines.append(
            f"  x factors {col_factors[0]:.3f}..{col_factors[-1]:.3f}, "
            f"cost [{lo:.1f}, {hi:.1f}], "
            f"fragility={result['fragility']:.2f}"
        )
        return "\n".join(lines)
