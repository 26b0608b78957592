"""repro — a reproduction of "Robust Query Processing through Progressive
Optimization" (Markl et al., SIGMOD 2004).

The package implements a complete in-memory relational engine (storage,
statistics, cost-based optimizer, iterator executor) plus the paper's
contribution: progressive query optimization (POP) with CHECK operators,
validity ranges computed by a modified Newton–Raphson sensitivity analysis,
and re-optimization that reuses materialized intermediate results.

Public API highlights:

* :class:`Database` — create tables/indexes, load data, run RUNSTATS,
  execute SQL with or without POP.
* :class:`PopConfig` — checkpoint flavors, re-optimization limits, reuse
  policy.
* :class:`Query` and the expression classes — programmatic query building.
* :class:`ResiliencePolicy` and :class:`FaultPlan` — the statement wall
  deadline and seeded fault injection (see :mod:`repro.resilience`).
* :func:`explain_analyze` and :class:`OpRecord` — each attempt's
  per-operator record (``report.attempts[i].record``) and its rendering.
"""

from repro.analysis import Finding, PlanLintError, lint_plan
from repro.core.config import NO_POP, MemoryPolicy, PopConfig, ResiliencePolicy
from repro.core.database import Database, Result
from repro.core.driver import PopDriver, PopReport
from repro.core.flavors import ALL_FLAVORS, DEFAULT_FLAVORS, TABLE1
from repro.core.learning import LearnedCardinalities
from repro.expr.expressions import ColumnRef, Literal, ParameterMarker
from repro.governor import MemoryGovernor, Reservation, estimate_plan_memory
from repro.expr.predicates import (
    Between,
    Comparison,
    InList,
    JoinPredicate,
    Like,
    Or,
)
from repro.obs import MetricsRegistry, OpRecord, Tracer
from repro.optimizer.costmodel import DEFAULT_COST_PARAMS, CostParams
from repro.optimizer.enumeration import OptimizerOptions
from repro.plan.analyze import explain_analyze
from repro.plan.logical import Aggregate, OrderItem, Query, TableRef
from repro.resilience import FaultPlan, FaultSpec

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Result",
    "PopConfig",
    "NO_POP",
    "ResiliencePolicy",
    "MemoryPolicy",
    "MemoryGovernor",
    "Reservation",
    "estimate_plan_memory",
    "FaultPlan",
    "FaultSpec",
    "PopDriver",
    "PopReport",
    "CostParams",
    "DEFAULT_COST_PARAMS",
    "OptimizerOptions",
    "Query",
    "TableRef",
    "Aggregate",
    "OrderItem",
    "ColumnRef",
    "Literal",
    "ParameterMarker",
    "Comparison",
    "Between",
    "InList",
    "Like",
    "Or",
    "JoinPredicate",
    "ALL_FLAVORS",
    "LearnedCardinalities",
    "Tracer",
    "MetricsRegistry",
    "OpRecord",
    "explain_analyze",
    "DEFAULT_FLAVORS",
    "TABLE1",
    "Finding",
    "PlanLintError",
    "lint_plan",
    "__version__",
]
