"""EXPLAIN: human-readable rendering of physical plans."""

from __future__ import annotations

from repro.plan.physical import JoinOp, PlanOp


def explain_plan(root: PlanOp, show_cost: bool = True) -> str:
    """Render a plan tree as an indented text diagram.

    Join operators also print the validity ranges of their input edges when
    any range was narrowed, mirroring the paper's check-range reporting.
    """
    lines: list[str] = []

    def visit(op: PlanOp, depth: int) -> None:
        indent = "  " * depth
        parts = [f"{indent}{op.describe()}"]
        if show_cost:
            parts.append(f"  {{card={op.est_card:.1f} cost={op.est_cost:.1f}}}")
        if isinstance(op, JoinOp):
            ranges = [
                f"edge[{i}]={r}"
                for i, r in enumerate(op.validity_ranges)
                if not r.is_trivial
            ]
            if ranges:
                parts.append("  <" + " ".join(ranges) + ">")
        lines.append("".join(parts))
        for child in op.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def join_order(root: PlanOp) -> str:
    """Parenthesized join order, e.g. ``((a JOIN b) JOIN c)``."""

    def visit(op: PlanOp) -> str:
        if isinstance(op, JoinOp):
            return f"({visit(op.outer)} {op.KIND} {visit(op.inner)})"
        if not op.children:
            alias = getattr(op, "alias", None)
            if alias is not None:
                return alias
            return getattr(op, "mv_name", op.KIND)
        return visit(op.children[0])

    return visit(root)
