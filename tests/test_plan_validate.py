"""Every plan the optimizer and the placement pass produce for both
workloads and all checkpoint flavors passes the plan linter."""

import pytest

from repro import PopConfig
from repro.analysis import lint_plan
from repro.core.flavors import ECB, ECDC, ECWC, LC, LCEM
from repro.core.placement import place_checkpoints
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import Q10_MARKER, TPCH_QUERIES


class TestWorkloadPlans:
    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    def test_tpch_optimizer_plans_valid(self, tpch_db, name):
        plan = tpch_db.optimizer.optimize(tpch_db._to_query(TPCH_QUERIES[name])).plan
        assert lint_plan(plan) == []

    @pytest.mark.parametrize("idx", range(39))
    def test_dmv_optimizer_plans_valid(self, dmv_db, idx):
        name, sql = dmv_queries()[idx]
        plan = dmv_db.optimizer.optimize(dmv_db._to_query(sql)).plan
        assert lint_plan(plan) == [], name

    @pytest.mark.parametrize(
        "flavors",
        [
            frozenset({LC, LCEM}),
            frozenset({LC, ECB}),
            frozenset({LC, LCEM, ECWC, ECDC}),
        ],
        ids=lambda f: "+".join(sorted(f)),
    )
    def test_plans_with_checkpoints_valid(self, tpch_db, flavors):
        for name in ("Q3", "Q5", "Q9", "Q18"):
            opt = tpch_db.optimizer.optimize(tpch_db._to_query(TPCH_QUERIES[name]))
            placement = place_checkpoints(
                opt.plan,
                PopConfig(flavors=flavors, min_cost_for_checkpoints=0.0),
                tpch_db.optimizer.cost_model,
                is_spj=False,
            )
            assert lint_plan(placement.plan) == [], name

    def test_marker_plan_valid(self, tpch_db):
        plan = tpch_db.optimizer.optimize(tpch_db._to_query(Q10_MARKER)).plan
        assert lint_plan(plan) == []
