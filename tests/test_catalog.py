"""Tests for repro.storage.catalog."""

import pytest

from repro.common.errors import CatalogError
from repro.storage.catalog import Catalog, TempMVRegistry
from repro.storage.table import Schema


def fresh_catalog() -> Catalog:
    catalog = Catalog()
    catalog.create_table("t", Schema.of(("a", "int"), ("b", "str")))
    return catalog


class TestTables:
    def test_create_and_fetch(self):
        catalog = fresh_catalog()
        assert catalog.table("t").name == "t"
        assert catalog.has_table("T")  # case-insensitive

    def test_duplicate_create_rejected(self):
        catalog = fresh_catalog()
        with pytest.raises(CatalogError, match="already exists"):
            catalog.create_table("T", Schema.of(("x", "int")))

    def test_missing_table_raises(self):
        with pytest.raises(CatalogError, match="no table"):
            Catalog().table("ghost")

    def test_drop_table_removes_everything(self):
        catalog = fresh_catalog()
        catalog.create_index("ix", "t", "a")
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        assert catalog.indexes_on("t") == []

    def test_drop_missing_raises(self):
        with pytest.raises(CatalogError):
            fresh_catalog().drop_table("ghost")

    def test_tables_lists_all(self):
        catalog = fresh_catalog()
        catalog.create_table("u", Schema.of(("x", "int")))
        assert sorted(t.name for t in catalog.tables()) == ["t", "u"]


class TestIndexes:
    def test_create_both_kinds(self):
        catalog = fresh_catalog()
        catalog.create_index("s", "t", "a", kind="sorted")
        catalog.create_index("h", "t", "a", kind="hash")
        assert len(catalog.indexes_on("t")) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(CatalogError, match="unknown index kind"):
            fresh_catalog().create_index("x", "t", "a", kind="btree")

    def test_duplicate_name_rejected(self):
        catalog = fresh_catalog()
        catalog.create_index("ix", "t", "a")
        with pytest.raises(CatalogError, match="already exists"):
            catalog.create_index("ix", "t", "b")

    def test_index_on_column_prefers_sorted(self):
        catalog = fresh_catalog()
        catalog.create_index("h", "t", "a", kind="hash")
        catalog.create_index("s", "t", "a", kind="sorted")
        assert catalog.index_on_column("t", "a").name == "s"

    def test_index_on_column_falls_back_to_hash(self):
        catalog = fresh_catalog()
        catalog.create_index("h", "t", "a", kind="hash")
        assert catalog.index_on_column("t", "a").name == "h"

    def test_index_on_column_none_when_absent(self):
        assert fresh_catalog().index_on_column("t", "a") is None

    def test_rebuild_indexes(self):
        catalog = fresh_catalog()
        catalog.create_index("ix", "t", "a", kind="hash")
        catalog.table("t").insert((1, "x"))
        catalog.rebuild_indexes("t")
        assert list(catalog.index_on_column("t", "a").lookup(1)) == [0]


class TestStatistics:
    def test_set_and_get(self):
        catalog = fresh_catalog()
        catalog.set_statistics("t", {"rows": 0})
        assert catalog.statistics("t") == {"rows": 0}

    def test_missing_statistics_is_none(self):
        assert fresh_catalog().statistics("t") is None

    def test_set_statistics_validates_table(self):
        with pytest.raises(CatalogError):
            fresh_catalog().set_statistics("ghost", {})


class TestTempMVs:
    """The statement-scoped registry (the catalog itself holds no MVs)."""

    def test_register_and_fetch(self):
        registry = TempMVRegistry()
        mv = registry.register(
            tables=frozenset({"t"}),
            predicate_ids=frozenset({"p"}),
            columns=("t.a", "t.b"),
            rows=[(1, "x"), (2, "y")],
        )
        assert mv.cardinality == 2
        assert registry.get(mv.name) is mv
        assert list(registry) == [mv]

    def test_names_are_unique(self):
        registry = TempMVRegistry()
        a = registry.register(frozenset(), frozenset(), (), [])
        b = registry.register(frozenset(), frozenset(), (), [])
        assert a.name != b.name

    def test_registries_are_independent(self):
        registry = TempMVRegistry()
        registry.register(frozenset(), frozenset(), (), [])
        assert len(registry) == 1
        assert list(TempMVRegistry()) == []

    def test_catalog_holds_no_temp_mvs(self):
        assert not [name for name in dir(fresh_catalog()) if "mv" in name.lower()]

    def test_missing_mv_raises(self):
        with pytest.raises(CatalogError, match="no temp MV"):
            TempMVRegistry().get("ghost")

    def test_order_recorded(self):
        mv = TempMVRegistry().register(
            frozenset({"t"}), frozenset(), ("t.a",), [(1,)], order=("t.a",)
        )
        assert mv.order == ("t.a",)
