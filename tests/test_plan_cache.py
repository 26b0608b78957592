"""Unit tests for the validity-range-aware plan cache (repro.cache).

Covers cache mechanics (install/lookup/LRU/invalidation), the driver
integration (hits skip the optimizer, reopt discards the variant, metrics
and the meter category), bind-value peeking, the mutation self-heal, DDL
and statistics invalidation hooks, and the ``\\cache`` CLI command.
"""

from __future__ import annotations

import io

import pytest

from repro import Database, PopConfig
from repro.cache import PlanCache, PlanCacheConfig, cache_usable
from repro.core.config import NO_POP
from repro.obs import MetricsRegistry
from repro.optimizer.fingerprint import plan_fingerprint
from repro.optimizer.parametric import PeekingSelectivity, evaluate_plan_validity
from repro.sql.parameterize import parameterize_sql
from repro.stats.selectivity import SelectivityEstimator

from .conftest import canonical


def make_db(rows: int = 2000) -> Database:
    db = Database()
    db.create_table("t", [("id", "int"), ("k", "int"), ("v", "str")])
    db.create_table("s", [("id", "int"), ("w", "int")])
    db.insert("t", [(i, i % 13, f"v{i % 7}") for i in range(rows)])
    db.insert("s", [(i, i % 5) for i in range(rows // 4)])
    db.create_index("ix_t_id", "t", "id")
    db.runstats()
    return db


class TestDriverIntegration:
    def test_repeated_statement_hits_and_skips_optimizer(self):
        db = make_db()
        db.enable_plan_cache()
        metrics = MetricsRegistry()
        results = []
        for lit in (1, 2, 3, 1, 2, 3):
            r = db.execute(
                f"SELECT t.v FROM t WHERE t.k = {lit}", metrics=metrics
            )
            results.append(r)
        assert not results[0].report.cache_hit
        assert all(r.report.cache_hit for r in results[1:])
        counters = metrics.snapshot()["counters"]
        assert counters["optimizer.invocations"] == 1.0
        assert counters["plan_cache.hits"] == 5.0
        assert counters["plan_cache.misses"] == 1.0
        assert counters["plan_cache.installs"] == 1.0
        assert db.plan_cache.stats.hits == 5

    def test_cached_results_match_uncached(self):
        db = make_db()
        db.enable_plan_cache()
        for lit in range(13):
            sql = (
                "SELECT t.v, s.w FROM t, s "
                f"WHERE t.id = s.id AND t.k = {lit} AND s.w < 4"
            )
            cached = db.execute(sql)
            plain = db.execute(sql, pop=PopConfig(plan_cache=False))
            assert canonical(cached.rows) == canonical(plain.rows)
        assert db.plan_cache.stats.hits > 0

    def test_hit_records_admission_evaluations(self):
        db = make_db()
        db.enable_plan_cache()
        db.execute("SELECT t.v FROM t, s WHERE t.id = s.id AND t.k = 3")
        r = db.execute("SELECT t.v FROM t, s WHERE t.id = s.id AND t.k = 4")
        attempt = r.report.attempts[0]
        assert attempt.cache_hit
        assert attempt.cache_fingerprint is not None
        assert attempt.cache_admission  # at least one range evaluated
        assert all(e["inside"] for e in attempt.cache_admission)
        for e in attempt.cache_admission:
            assert e["low"] <= e["fresh_estimate"] <= e["high"]

    def test_meter_charges_plan_cache_category(self):
        from repro.executor.meter import WorkMeter

        db = make_db()
        db.enable_plan_cache()
        db.execute("SELECT t.v FROM t WHERE t.k = 1")
        meter = WorkMeter(track_categories=True)
        db.execute("SELECT t.v FROM t WHERE t.k = 2", meter=meter)
        by_cat = meter.by_category()
        assert by_cat.get("plan_cache", 0.0) > 0.0
        assert by_cat.get("optimize", 0.0) == 0.0

    def test_cache_off_by_default(self):
        db = make_db()
        db.execute("SELECT t.v FROM t WHERE t.k = 1")
        db.execute("SELECT t.v FROM t WHERE t.k = 2")
        assert db.plan_cache is None

    def test_pop_config_opt_out(self):
        db = make_db()
        db.enable_plan_cache()
        cfg = PopConfig(plan_cache=False)
        db.execute("SELECT t.v FROM t WHERE t.k = 1", pop=cfg)
        db.execute("SELECT t.v FROM t WHERE t.k = 2", pop=cfg)
        assert len(db.plan_cache) == 0
        assert db.plan_cache.stats.misses == 0  # never even probed

    def test_works_without_pop(self):
        db = make_db()
        db.enable_plan_cache()
        a = db.execute("SELECT t.v FROM t WHERE t.k = 5", pop=NO_POP)
        b = db.execute("SELECT t.v FROM t WHERE t.k = 6", pop=NO_POP)
        assert not a.report.cache_hit and b.report.cache_hit
        assert canonical(b.rows) == canonical(
            db.execute(
                "SELECT t.v FROM t WHERE t.k = 6",
                pop=PopConfig(plan_cache=False),
            ).rows
        )

    def test_ablation_modes_disable_caching(self):
        assert cache_usable(PopConfig())
        assert not cache_usable(PopConfig(plan_cache=False))
        assert not cache_usable(PopConfig(dry_run=True))
        assert not cache_usable(PopConfig(adhoc_threshold_factor=4.0))
        assert not cache_usable(PopConfig(force_trigger_op_ids=frozenset({1})))
        assert not cache_usable(PopConfig(adaptive_reopt_limit=True))

    def test_query_objects_bypass_cache(self):
        from repro.sql.binder import bind_sql

        db = make_db()
        db.enable_plan_cache()
        query = bind_sql("SELECT t.v FROM t WHERE t.k = 1", db.catalog)
        db.execute(query)
        db.execute(query)
        assert len(db.plan_cache) == 0


class TestInvalidation:
    def test_reoptimization_discards_variant(self):
        from repro.plan.physical import Check, find_ops
        from repro.workloads.dmv.generator import DmvScale, make_dmv_db

        db = make_dmv_db(
            scale=DmvScale(
                owners=1500,
                cars=2000,
                accidents=500,
                violations=700,
                insurance=2000,
                dealers=120,
                inspections=1300,
                registrations=2000,
            ),
            seed=7,
        )
        db.enable_plan_cache()
        tmpl = (
            "SELECT o.o_id, o.o_name FROM car c, owner o "
            "WHERE c.c_owner_id = o.o_id AND c.c_make = 'MAKE00' "
            "AND c.c_model = '{m}'"
        )
        db.execute(tmpl.format(m="MODEL00_8"))
        assert len(db.plan_cache) == 1
        entry = db.plan_cache.entries()[0]
        checks = find_ops(entry.plan, Check)
        assert checks, "cached plan should carry a CHECK"
        # Narrow the cached CHECK so the next reuse's actual cardinality
        # (~79 rows for MODEL00_7) lands above it and fires at runtime.
        # Reinstall via the public API so the cache key stays consistent.
        db.plan_cache.discard(entry.shape, entry.fingerprint)
        checks[0].check_range.high = 50.0
        db.plan_cache.install(
            entry.shape,
            entry.plan,
            entry.tables,
            params=entry.params,
            checkpoints=entry.checkpoints,
        )
        before = db.plan_cache.stats.to_dict()
        r = db.execute(tmpl.format(m="MODEL00_7"))
        assert r.report.attempts[0].cache_hit
        assert r.report.reoptimizations == 1
        # The stale variant was discarded by the driver when its CHECK fired.
        stats = db.plan_cache.stats.to_dict()
        assert stats["invalidations"] - before["invalidations"] == 1
        narrowed_fp = plan_fingerprint(entry.plan)
        assert narrowed_fp not in [
            e.fingerprint for e in db.plan_cache.entries()
        ]
        # Results are still correct despite the mid-flight re-optimization.
        plain = db.execute(
            tmpl.format(m="MODEL00_7"), pop=PopConfig(plan_cache=False)
        )
        assert canonical(r.rows) == canonical(plain.rows)

    def test_insert_invalidates_affected_tables_only(self):
        db = make_db()
        db.enable_plan_cache()
        db.execute("SELECT t.v FROM t WHERE t.k = 1")
        db.execute("SELECT s.w FROM s WHERE s.w = 1")
        assert len(db.plan_cache) == 2
        db.insert("s", [(99991, 1)])
        shapes = db.plan_cache.shapes()
        assert len(db.plan_cache) == 1
        assert all("s:s" not in shape for shape in shapes)
        assert db.plan_cache.stats.invalidations == 1

    def test_runstats_invalidates(self):
        db = make_db()
        db.enable_plan_cache()
        db.execute("SELECT t.v FROM t WHERE t.k = 1")
        assert len(db.plan_cache) == 1
        db.runstats(["t"])
        assert len(db.plan_cache) == 0

    def test_runstats_all_tables_clears_cache(self):
        db = make_db()
        db.enable_plan_cache()
        db.execute("SELECT t.v FROM t WHERE t.k = 1")
        db.execute("SELECT s.w FROM s WHERE s.w = 1")
        db.runstats()
        assert len(db.plan_cache) == 0

    def test_create_index_invalidates(self):
        db = make_db()
        db.enable_plan_cache()
        db.execute("SELECT t.v FROM t WHERE t.k = 1")
        db.create_index("ix_t_k", "t", "k")
        assert len(db.plan_cache) == 0
        # A fresh optimization may now pick the new index; reuse must not
        # resurrect the pre-index plan.
        r = db.execute("SELECT t.v FROM t WHERE t.k = 1")
        assert not r.report.cache_hit

    def test_mutated_cached_plan_is_discarded_not_reused(self):
        db = make_db()
        db.enable_plan_cache()
        db.execute("SELECT t.v FROM t WHERE t.k = 1")
        entry = db.plan_cache.entries()[0]
        entry.plan.est_card = entry.plan.est_card + 123.0  # corrupt in place
        r = db.execute("SELECT t.v FROM t WHERE t.k = 2")
        assert not r.report.cache_hit
        assert db.plan_cache.stats.mutation_discards == 1
        # The fresh plan was installed; the corrupted one is gone.
        entries = db.plan_cache.entries()
        assert len(entries) == 1
        assert entries[0].fingerprint != entry.fingerprint or (
            plan_fingerprint(entries[0].plan) == entries[0].fingerprint
        )

    def test_plan_mutated_during_its_reused_run_never_runs_again(
        self, monkeypatch
    ):
        from repro.core import driver as driver_module

        db = make_db()
        db.enable_plan_cache()
        db.execute("SELECT t.v FROM t WHERE t.k = 1")
        (entry,) = db.plan_cache.entries()
        real_run_plan = driver_module.run_plan
        ran = []

        def run_plan(plan, ctx, sink):
            ran.append(plan)
            result = real_run_plan(plan, ctx, sink)
            if plan is entry.plan:
                plan.est_card = plan.est_card + 123.0  # corrupt in place
            return result

        monkeypatch.setattr(driver_module, "run_plan", run_plan)
        reused = db.execute("SELECT t.v FROM t WHERE t.k = 2")
        assert reused.report.cache_hit and ran == [entry.plan]
        # Nothing re-checks the plan after its run: the variant stays...
        assert [e.plan for e in db.plan_cache.entries()] == [entry.plan]
        again = db.execute("SELECT t.v FROM t WHERE t.k = 3")
        # ...until the next lookup re-fingerprints and drops it unrun.
        assert not again.report.cache_hit
        assert db.plan_cache.stats.mutation_discards == 1
        assert len(ran) == 2 and ran[1] is not entry.plan
        assert all(e.plan is not entry.plan for e in db.plan_cache.entries())
        assert canonical(again.rows) == canonical(
            db.execute(
                "SELECT t.v FROM t WHERE t.k = 3",
                pop=PopConfig(plan_cache=False),
            ).rows
        )

    def test_cached_plans_never_mutated_by_reuse(self):
        db = make_db()
        db.enable_plan_cache()
        db.execute("SELECT t.v, s.w FROM t, s WHERE t.id = s.id AND t.k = 1")
        entry = db.plan_cache.entries()[0]
        before = plan_fingerprint(entry.plan)
        for lit in (2, 3, 4, 5):
            db.execute(
                "SELECT t.v, s.w FROM t, s "
                f"WHERE t.id = s.id AND t.k = {lit}"
            )
        assert plan_fingerprint(entry.plan) == before
        assert db.plan_cache.stats.mutation_discards == 0


class TestCacheMechanics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCacheConfig(capacity=0)
        with pytest.raises(ValueError):
            PlanCacheConfig(variants_per_shape=0)

    def test_variant_dedup_by_fingerprint(self):
        db = make_db()
        db.enable_plan_cache()
        stmt = parameterize_sql("SELECT t.v FROM t WHERE t.k = 1", db.catalog)
        opt = db.optimizer.optimize(stmt.query)
        entry, evicted = db.plan_cache.install(stmt.shape, opt.plan, {"t"})
        assert entry is not None and evicted == 0
        again, evicted = db.plan_cache.install(stmt.shape, opt.plan, {"t"})
        assert again is None and evicted == 0
        assert len(db.plan_cache) == 1
        assert db.plan_cache.stats.installs == 1

    def test_shape_lru_eviction(self):
        db = make_db()
        cache = PlanCache(PlanCacheConfig(capacity=2))
        for _i, sql in enumerate(
            [
                "SELECT t.v FROM t WHERE t.k = 1",
                "SELECT t.id FROM t WHERE t.k = 1",
                "SELECT t.k FROM t WHERE t.id = 1",
            ]
        ):
            stmt = parameterize_sql(sql, db.catalog)
            opt = db.optimizer.optimize(stmt.query)
            cache.install(stmt.shape, opt.plan, {"t"})
        assert len(cache.shapes()) == 2
        assert cache.stats.evictions == 1
        first = parameterize_sql(
            "SELECT t.v FROM t WHERE t.k = 1", db.catalog
        )
        assert first.shape not in cache  # oldest shape evicted

    def test_clear_counts_invalidations(self):
        db = make_db()
        db.enable_plan_cache()
        db.execute("SELECT t.v FROM t WHERE t.k = 1")
        db.execute("SELECT s.w FROM s WHERE s.w = 1")
        assert db.plan_cache.clear() == 2
        assert db.plan_cache.stats.invalidations == 2
        assert len(db.plan_cache) == 0


class TestPeekingSelectivity:
    def test_peeked_marker_matches_literal_estimate(self):
        db = make_db()
        stmt = parameterize_sql("SELECT t.v FROM t WHERE t.k = 3", db.catalog)
        assert stmt.params  # the literal was lifted
        peek = PeekingSelectivity(stmt.params, base=SelectivityEstimator())
        stats = db.catalog.statistics("t")
        pred = stmt.query.local_predicates[0]
        from repro.sql.binder import bind_sql

        literal_query = bind_sql(
            "SELECT t.v FROM t WHERE t.k = 3", db.catalog
        )
        literal_pred = literal_query.local_predicates[0]
        base = SelectivityEstimator()
        assert peek.local_selectivity(pred, stats) == pytest.approx(
            base.local_selectivity(literal_pred, stats)
        )

    def test_unbound_marker_keeps_default(self):
        db = make_db()
        stmt = parameterize_sql("SELECT t.v FROM t WHERE t.k = 3", db.catalog)
        peek = PeekingSelectivity({}, base=SelectivityEstimator())
        stats = db.catalog.statistics("t")
        pred = stmt.query.local_predicates[0]
        base = SelectivityEstimator()
        assert peek.local_selectivity(pred, stats) == pytest.approx(
            base.local_selectivity(pred, stats)
        )

    def test_admission_rejects_out_of_range_estimates(self):
        db = make_db()
        db.enable_plan_cache()
        db.execute("SELECT t.v, s.w FROM t, s WHERE t.id = s.id AND t.k = 1")
        entry = db.plan_cache.entries()[0]
        from repro.optimizer.cardinality import CardinalityEstimator

        stmt = parameterize_sql(
            "SELECT t.v, s.w FROM t, s WHERE t.id = s.id AND t.k = 1",
            db.catalog,
        )
        estimator = CardinalityEstimator(
            db.catalog,
            stmt.query,
            selectivity=PeekingSelectivity(stmt.params),
        )
        report = evaluate_plan_validity(entry.plan, estimator)
        assert report.admitted  # same params -> inside by construction

        class Inflated(SelectivityEstimator):
            def local_selectivity(self, pred, stats):
                return 1.0

        inflated = CardinalityEstimator(
            db.catalog, stmt.query, selectivity=Inflated()
        )
        inflated_report = evaluate_plan_validity(entry.plan, inflated)
        if not inflated_report.admitted:
            assert inflated_report.violations
            for violation in inflated_report.violations:
                assert not violation.inside


class TestCliCacheCommand:
    def run_shell(self, lines):
        out = io.StringIO()
        from repro.cli import Shell

        shell = Shell(out=out)
        shell.timing = False
        shell.run(lines)
        return out.getvalue()

    def test_cache_lifecycle(self):
        text = self.run_shell(
            [
                "\\cache",
                "\\cache on",
                "\\cache stats",
                "\\cache clear",
                "\\cache off",
            ]
        )
        assert "plan cache is off" in text
        assert "plan cache on" in text
        assert "hits=0 misses=0" in text
        assert "plan cache cleared" in text
        assert "plan cache off" in text

    def test_cache_stats_after_statements(self):
        text = self.run_shell(
            [
                "\\load dmv",
                "\\cache on",
                "SELECT c.c_make FROM car c WHERE c.c_make = 'MAKE01';",
                "SELECT c.c_make FROM car c WHERE c.c_make = 'MAKE02';",
                "\\cache",
            ]
        )
        assert "hits=1 misses=1" in text
        assert "installs=1" in text
        assert "c:car" in text

    def test_cache_help_listed(self):
        text = self.run_shell(["\\help"])
        assert "\\cache" in text
