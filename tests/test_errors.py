"""Unit tests for the scalar readers of ``errors`` (``as_count``, ``as_positive``) and its text formats
(``as_json``, ``table_text``, ``as_table``)."""

import math
import re

import numpy as np
import pytest

from nbpriors.errors import (MAX_ARRIVALS, DomainError, ResourceLimitError, as_count, as_json, as_positive, as_table,
                             table_text)


class TestAsCount:
    @pytest.mark.parametrize("value", [2.5, "x", "2.5", None], ids=["fraction", "string", "fraction_string", "none"])
    def test_a_value_that_is_not_an_integer_is_a_domain_error(self, value):
        with pytest.raises(DomainError, match="^" + re.escape(f"n must be an integer, got {value!r}") + "$"):
            as_count("n", value)

    @pytest.mark.parametrize("value, minimum", [(0, 1), (-1, 0), (99, 100)])
    def test_below_the_minimum_is_a_domain_error(self, value, minimum):
        with pytest.raises(DomainError) as info:
            as_count("n", value, minimum)
        assert str(info.value) == f"n must be at least {minimum}, got {value}"

    @pytest.mark.parametrize("value", [MAX_ARRIVALS, float(MAX_ARRIVALS), str(MAX_ARRIVALS)])
    def test_the_bound_itself_reads_as_an_int(self, value):
        count = as_count("n", value)
        assert count == MAX_ARRIVALS and type(count) is int

    def test_past_the_bound_is_a_resource_limit(self):
        with pytest.raises(ResourceLimitError) as info:
            as_count("replications", MAX_ARRIVALS + 1)
        assert str(info.value) == f"replications {MAX_ARRIVALS + 1} exceeds the hard bound {MAX_ARRIVALS}"

    def test_the_minimum_is_checked_first(self):
        with pytest.raises(DomainError, match="^n must be at least 200000000, got 100000001$"):
            as_count("n", MAX_ARRIVALS + 1, minimum=2 * MAX_ARRIVALS)


class TestAsPositive:
    @pytest.mark.parametrize("value, expected", [(0.5, 0.5), ("2", 2.0), (1, 1.0), (5e-324, 5e-324)])
    def test_reads_a_positive_finite_real(self, value, expected):
        number = as_positive("theta", value)
        assert number == expected and type(number) is float

    @pytest.mark.parametrize("value", ["x", None, [1.0]], ids=["string", "none", "list"])
    def test_a_value_that_is_not_a_real_is_a_domain_error(self, value):
        with pytest.raises(DomainError, match="^" + re.escape(f"theta must be a real number, got {value!r}") + "$"):
            as_positive("theta", value)

    @pytest.mark.parametrize("value", [0.0, -1.5, math.inf, math.nan, "-2"])
    def test_a_real_that_is_not_positive_and_finite_is_a_domain_error(self, value):
        with pytest.raises(DomainError) as info:
            as_positive("theta", value)
        assert str(info.value) == f"theta must be a positive finite real, got {float(value)}"


class TestAsJson:
    def test_reads_any_json_value(self):
        assert as_json("spec", '{"a": [1, 2.5]}') == {"a": [1, 2.5]}
        assert as_json("spec", "3") == 3

    @pytest.mark.parametrize("text", ["{bad", "", "[1,"], ids=["brace", "empty", "truncated"])
    def test_text_that_does_not_parse_is_a_domain_error(self, text):
        with pytest.raises(DomainError, match="^spec does not parse: "):
            as_json("spec", text)


class TestCsvTables:
    def test_writes_integers_as_they_are_and_reals_by_repr(self):
        rows = [(1, np.int64(2), 0.1), (True, np.float64(1e-300), 3)]
        assert table_text(("a", "b", "c"), rows) == "a,b,c\n1,2,0.1\nTrue,1e-300,3\n"
        assert table_text(["a"], []) == "a\n"

    def test_reads_back_what_it_writes(self):
        rows = as_table("table", table_text(("n", "x"), [(3, 0.1), (4, 1 / 3)]), ("n", "x"))
        assert rows == [{"n": 3, "x": 0.1}, {"n": 4, "x": 1 / 3}]
        assert [type(row["n"]) for row in rows] == [int, int]

    @pytest.mark.parametrize("text, header, message", [
        ("", None, "empty table table"),
        ("a,b\n1,2\n", ("a", "c"), "table must start with an 'a,c' header"),
        ("a,b,a\n1,2,3\n", None, "table header repeats a column: 'a,b,a'"),
        ("a,b\n1,2,3\n", None, "table row has 3 cells, header has 2"),
        ("a,b\n1,2\n1,y\n", None, "table row 2, column 'b': 'y' is not a number"),
    ], ids=["empty", "header", "repeated_column", "long_row", "non_numeric"])
    def test_bad_table_is_a_domain_error(self, text, header, message):
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            as_table("table", text, header)
