"""Tests for repro.common.values."""

import datetime

import pytest

from repro.common.errors import SchemaError
from repro.common.values import (
    DataType,
    coerce,
    date_to_days,
)


class TestDataType:
    def test_parse_known_types(self):
        assert DataType.parse("int") is DataType.INT
        assert DataType.parse("FLOAT") is DataType.FLOAT
        assert DataType.parse("Str") is DataType.STR
        assert DataType.parse("date") is DataType.DATE

    def test_parse_unknown_type_raises(self):
        with pytest.raises(SchemaError, match="unknown data type"):
            DataType.parse("varchar")


class TestDates:
    def test_epoch_is_day_zero(self):
        assert date_to_days("1970-01-01") == 0

    def test_day_number_is_the_calendar_distance(self):
        epoch = datetime.date(1970, 1, 1)
        for text in ["1992-06-13", "2004-06-18", "1970-01-02", "2038-01-19"]:
            days = datetime.timedelta(days=date_to_days(text))
            assert (epoch + days).isoformat() == text

    def test_ordering_matches_calendar(self):
        assert date_to_days("1995-03-15") < date_to_days("1995-03-16")
        assert date_to_days("1994-12-31") < date_to_days("1995-01-01")


class TestCoerce:
    def test_none_passes_through(self):
        for dtype in DataType:
            assert coerce(None, dtype) is None

    def test_int_coercion(self):
        assert coerce("42", DataType.INT) == 42
        assert coerce(3.9, DataType.INT) == 3

    def test_float_coercion(self):
        assert coerce(1, DataType.FLOAT) == 1.0
        assert isinstance(coerce(1, DataType.FLOAT), float)

    def test_str_coercion(self):
        assert coerce(7, DataType.STR) == "7"

    def test_date_from_iso_string(self):
        assert coerce("1970-01-11", DataType.DATE) == 10

    def test_date_from_int(self):
        assert coerce(100, DataType.DATE) == 100

    def test_invalid_coercion_raises(self):
        with pytest.raises(SchemaError, match="cannot coerce"):
            coerce("not a number", DataType.INT)
        with pytest.raises(SchemaError, match="cannot coerce"):
            coerce("not-a-date", DataType.DATE)
