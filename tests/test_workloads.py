"""Tests for the TPC-H and DMV workload generators and query sets."""

import collections
import hashlib

import pytest
from bench.data import DMV_SEED, DMV_SMOKE_SCALE, TPCH_SEED, TPCH_SMOKE_SCALE

from repro.expr.expressions import ParameterMarker
from repro.workloads.dmv.generator import DmvScale, generate_dmv
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.generator import TpchScale, generate_tpch
from repro.workloads.tpch.queries import Q10_MARKER, TPCH_QUERIES
from repro.workloads.tpch.schema import SHIPMODE_COUNT


class TestTpchGenerator:
    def test_scale_derivation(self):
        scale = TpchScale.of(0.01)
        assert scale.customer == 1500
        assert scale.orders == 15000

    def test_fixed_small_tables(self):
        data = generate_tpch(0.002)
        assert len(data["region"]) == 5
        assert len(data["nation"]) == 25

    def test_relative_sizes(self):
        data = generate_tpch(0.002)
        assert len(data["lineitem"]) > len(data["orders"]) > len(data["customer"])
        assert len(data["partsupp"]) == 4 * len(data["part"])

    def test_determinism(self):
        a = generate_tpch(0.002, seed=5)
        b = generate_tpch(0.002, seed=5)
        assert a["lineitem"] == b["lineitem"]

    def test_seed_changes_data(self):
        a = generate_tpch(0.002, seed=5)
        b = generate_tpch(0.002, seed=6)
        assert a["lineitem"] != b["lineitem"]

    def test_foreign_keys_valid(self):
        data = generate_tpch(0.002)
        customers = {row[0] for row in data["customer"]}
        assert all(o[1] in customers for o in data["orders"])
        orders = {row[0] for row in data["orders"]}
        assert all(l[0] in orders for l in data["lineitem"])

    def test_shipmode_skew_spans_orders_of_magnitude(self):
        data = generate_tpch(0.01)
        counts = collections.Counter(row[10] for row in data["lineitem"])
        assert len(counts) == SHIPMODE_COUNT
        top = counts.most_common(1)[0][1]
        bottom = min(counts.values())
        assert top / max(1, bottom) > 50  # the Figure 11 sweep range


#: SHA-256 of ``repr`` of each generated dataset: the generators' defaults
#: (also the benchmark's data) and the benchmark's smoke data
#: (``bench/data.py``).  A generator change that moves one row of these
#: shifts the data under every frozen fixture, so it has to fail here first.
DATA_DIGESTS = {
    "tpch": (
        lambda: generate_tpch(0.01, 42),
        "c01be56314ebb4b21b38b0fcc8567c34734a24e1fabc8de3f4bbf925ee1c7326",
    ),
    "tpch_smoke": (
        lambda: generate_tpch(TPCH_SMOKE_SCALE, TPCH_SEED),
        "6cb3df9a53e241d67278156fd3a9f5e079bf69e68a680d57fb2d4c12a59a6af7",
    ),
    "dmv": (
        lambda: generate_dmv(None, 7),
        "ee71b0629a49b4c8556030009d199ffa353e65ed6a11f08556004dbd49af0260",
    ),
    "dmv_smoke": (
        lambda: generate_dmv(DMV_SMOKE_SCALE, DMV_SEED),
        "f596ea241755f822f6a8a86516eba54c0f5c7071eb1c184c5853fb951e0bf4c6",
    ),
}


@pytest.mark.parametrize("name", DATA_DIGESTS)
def test_generated_data_is_pinned(name):
    generate, digest = DATA_DIGESTS[name]
    assert hashlib.sha256(repr(generate()).encode()).hexdigest() == digest


class TestTpchQueries:
    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    def test_query_binds(self, tpch_db, name):
        query = tpch_db._to_query(TPCH_QUERIES[name])
        assert query.tables

    @pytest.mark.parametrize("name", ["Q3", "Q4", "Q10", "Q11"])
    def test_query_runs_with_and_without_pop(self, tpch_db, name):
        from tests.conftest import canonical

        with_pop = tpch_db.execute(TPCH_QUERIES[name])
        without = tpch_db.execute_without_pop(TPCH_QUERIES[name])
        assert canonical(with_pop.rows) == canonical(without.rows)

    def test_q10_marker_has_parameter(self, tpch_db):
        query = tpch_db._to_query(Q10_MARKER)
        markers = [
            p.operand.name for p in query.local_predicates
            if isinstance(getattr(p, "operand", None), ParameterMarker)
        ]
        assert markers == ["p1"]


class TestDmvGenerator:
    SCALE = DmvScale(
        owners=800, cars=1000, accidents=200, violations=300,
        insurance=1000, dealers=60, inspections=600, registrations=1000,
    )

    def test_row_counts(self):
        data = generate_dmv(self.SCALE)
        assert len(data["car"]) == 1000
        assert len(data["owner"]) == 800

    def test_model_determines_make(self):
        """The MAKE↔MODEL functional dependency (paper §6)."""
        data = generate_dmv(self.SCALE)
        model_to_make = {}
        for row in data["car"]:
            make, model = row[2], row[3]
            assert model_to_make.setdefault(model, make) == make

    def test_weight_tracks_model(self):
        data = generate_dmv(self.SCALE)
        by_model = collections.defaultdict(list)
        for row in data["car"]:
            by_model[row[3]].append(row[5])
        for weights in by_model.values():
            assert max(weights) - min(weights) <= 80  # +/-40 band

    def test_zip_correlation(self):
        """A car is registered in its owner's zip ~90% of the time."""
        data = generate_dmv(self.SCALE)
        owner_zip = {row[0]: row[4] for row in data["owner"]}
        same = sum(1 for c in data["car"] if c[7] == owner_zip[c[1]])
        assert same / len(data["car"]) > 0.8

    def test_color_correlated_with_make(self):
        data = generate_dmv(self.SCALE)
        by_make = collections.defaultdict(collections.Counter)
        for row in data["car"]:
            by_make[row[2]][row[4]] += 1
        dominant = 0
        total = 0
        for _make, counter in by_make.items():
            if sum(counter.values()) < 30:
                continue
            top3 = sum(c for _, c in counter.most_common(3))
            dominant += top3
            total += sum(counter.values())
        assert total and dominant / total > 0.7

    def test_determinism(self):
        assert generate_dmv(self.SCALE, seed=3) == generate_dmv(self.SCALE, seed=3)


class TestDmvQueries:
    def test_exactly_39_queries(self):
        queries = dmv_queries()
        assert len(queries) == 39
        assert len({name for name, _ in queries}) == 39

    @pytest.mark.parametrize("idx", range(0, 39, 4))
    def test_queries_run_on_tiny_scale(self, dmv_db, idx):
        from tests.conftest import canonical

        name, sql = dmv_queries()[idx]
        pop = dmv_db.execute(sql)
        base = dmv_db.execute_without_pop(sql)
        assert canonical(pop.rows) == canonical(base.rows), name
