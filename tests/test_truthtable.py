"""Truth table construction, evaluation, and minterm text parsing."""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from qcamaj import (
    TruthTable,
    MintermRangeError,
    format_minterms,
    parse_minterm_spec,
)
from qcamaj.errors import ParseError
from qcamaj.truthtable import maj3, maj5, var_table

import _oracles


def test_variable_zero_is_most_significant_bit():
    # minterm 4 of three variables is A=1, B=0, C=0
    tt = TruthTable.from_minterms(3, {4})
    assert tt.eval((1, 0, 0)) == 1
    assert tt.eval((0, 0, 1)) == 0
    tt = TruthTable.from_minterms(3, {1})
    assert tt.eval((0, 0, 1)) == 1
    assert tt.eval((1, 0, 0)) == 0


def test_eval_indexes_every_row():
    tt = TruthTable.from_minterms(3, {0, 3, 5, 6})
    for k, bits in enumerate(itertools.product((0, 1), repeat=3)):
        assert tt.eval(bits) == (1 if k in {0, 3, 5, 6} else 0)


def test_minterms_round_trip():
    for ms in [set(), {0}, {7}, {1, 2, 7}, set(range(8))]:
        tt = TruthTable.from_minterms(3, ms)
        assert tt.minterms() == frozenset(ms)


def test_constant_tables():
    assert TruthTable.constant(3, 0).minterms() == frozenset()
    assert TruthTable.constant(3, 1).minterms() == frozenset(range(8))
    assert TruthTable.constant(1, 1).bits == (1, 1)
    with pytest.raises(ValueError):
        TruthTable.constant(3, 2)


def test_bits_length_must_match_n_vars():
    with pytest.raises(ValueError):
        TruthTable(3, (0, 1))
    with pytest.raises(ValueError):
        TruthTable(3, tuple([0] * 8 + [1]))
    with pytest.raises(ValueError) as raised:
        TruthTable(3, 5)
    assert str(raised.value) == "truth table bits must be a sequence, got 5"


def test_bits_must_be_binary():
    with pytest.raises(ValueError):
        TruthTable(1, (0, 2))


def test_n_vars_bounds():
    with pytest.raises(ValueError):
        TruthTable.from_minterms(0, set())
    with pytest.raises(ValueError):
        TruthTable.from_minterms(9, set())
    # 8 variables is the documented ceiling and must work
    tt = TruthTable.from_minterms(8, {255})
    assert tt.eval((1,) * 8) == 1
    # n_vars is an int, not a float, a string or a bool
    for bad in (2.0, 2.5, float("nan"), "3", True):
        for make in (lambda: TruthTable.from_int(bad, 3),
                     lambda: TruthTable.from_minterms(bad, set()),
                     lambda: TruthTable(bad, (0, 1))):
            with pytest.raises(ValueError) as raised:
                make()
            assert str(raised.value) == f"n_vars must be an int, got {bad!r}"
    with pytest.raises(ValueError) as raised:
        TruthTable.from_int(9, 0)
    assert str(raised.value) == "n_vars must be between 1 and 8, got 9"


def test_minterm_out_of_range_names_the_offender():
    with pytest.raises(MintermRangeError) as exc:
        TruthTable.from_minterms(3, {2, 8})
    assert exc.value.minterm == 8
    assert exc.value.n_vars == 3
    assert "8" in str(exc.value)
    for bad in (1.5, "1"):
        with pytest.raises(ValueError) as raised:
            TruthTable.from_minterms(3, [1, bad])
        assert str(raised.value) == f"minterm must be an int, got {bad!r}"
    with pytest.raises(ValueError) as raised:
        TruthTable.from_minterms(3, 5)
    assert str(raised.value) == "minterms must be an iterable of ints, got 5"


def test_eval_rejects_wrong_arity_and_values():
    tt = TruthTable.from_minterms(2, {1})
    with pytest.raises(ValueError):
        tt.eval((0,))
    with pytest.raises(ValueError):
        tt.eval((0, 2))
    with pytest.raises(ValueError) as raised:
        tt.eval(5)
    assert str(raised.value) == "assignment must be a sequence, got 5"


def test_parse_minterm_spec_basic():
    assert parse_minterm_spec("sum(3,4,5,6,7)") == frozenset({3, 4, 5, 6, 7})
    assert parse_minterm_spec("SUM(1,2,7)") == frozenset({1, 2, 7})
    assert parse_minterm_spec(" sum ( 0 , 7 ) ") == frozenset({0, 7})
    assert parse_minterm_spec("sum()") == frozenset()
    # whitespace is stripped before matching, so split digit runs rejoin
    assert parse_minterm_spec("sum(1 2)") == frozenset({12})


def test_parse_minterm_spec_rejects_garbage():
    for bad in ["", "sum", "sum(", "sum(1,)", "minterms(1)",
                "sum(1)(", "sum(a)"]:
        with pytest.raises(ParseError):
            parse_minterm_spec(bad)
    for bad in (None, b"sum(1)"):
        with pytest.raises(ValueError) as raised:
            parse_minterm_spec(bad)
        assert str(raised.value) == f"minterm set must be a str, got {bad!r}"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_minterm_spec("xum(1)")
    assert exc.value.position == 0


@pytest.mark.parametrize("text, position", [
    ("sum(1, 2) x", 10), ("sum(1,x)", 6), ("sum(1,)", 6), ("sum(1", 5),
    ("  sum(1)  x", 10), ("sum(1)(", 6), ("", 0), ("  ", 2),
])
def test_parse_error_points_at_the_first_bad_character(text, position):
    with pytest.raises(ParseError) as exc:
        parse_minterm_spec(text)
    assert exc.value.position == position


def test_leading_zeros_do_not_count_toward_an_index_length():
    # in any script, and however many; 100 significant digits are the most
    zeros = "0" * 200
    assert parse_minterm_spec(f"sum({zeros}1)") == frozenset({1})
    assert parse_minterm_spec(f"sum(3,{zeros})") == frozenset({0, 3})
    assert parse_minterm_spec("sum(" + "\u0660" * 300 + "\u0663)") == {3}
    assert parse_minterm_spec("sum(" + "0" * 5000 + "7)") == {7}
    assert parse_minterm_spec(f"sum({zeros}{'9' * 100})") == {10 ** 100 - 1}


@pytest.mark.parametrize("text, position", [
    ("sum(" + "9" * 101 + ")", 4),
    ("sum(1, " + "0" * 50 + "1" * 101 + ")", 7),
    ("sum(" + "0" * 120 + ", " + "\u0661" * 101 + ")", 126),
])
def test_an_index_past_100_significant_digits_is_a_parse_error(text, position):
    with pytest.raises(ParseError, match="index of 101 digits") as exc:
        parse_minterm_spec(text)
    assert exc.value.position == position


# the keyword in both cases, symbols, digits, a letter, a non-ASCII digit
# and whitespace
SPEC_PIECES = list("sumSUM(),019x") + ["\u0663", " ", "\t", "\n"]
# every prefix of a well-formed set, once its whitespace is removed
SPEC_PREFIX = re.compile(
    r"|s|su|sum|sum\(\)|sum\((\d+,)*\d*|sum\((\d+,)*\d+\)", re.IGNORECASE)


@given(st.lists(st.sampled_from(SPEC_PIECES), max_size=20).map("".join))
def test_arbitrary_minterm_text_parses_or_points_at_its_break(text):
    try:
        parse_minterm_spec(text)
    except ParseError as e:
        p = e.position
        assert 0 <= p <= len(text)
        assert SPEC_PREFIX.fullmatch("".join(text[:p].split()))
        if p < len(text):
            assert not text[p].isspace()
            assert not SPEC_PREFIX.fullmatch("".join(text[:p + 1].split()))


def test_format_minterms_sorted():
    assert format_minterms({5, 1, 3}) == "sum(1,3,5)"
    assert format_minterms(set()) == "sum()"
    # an element is a minterm as TruthTable.from_minterms takes one
    assert format_minterms([True, 2]) == "sum(1,2)"
    for bad in (5, ["a", 1], ["a", "b"], [1.5, 2]):
        with pytest.raises(ValueError) as raised:
            format_minterms(bad)
        assert str(raised.value) == (
            f"minterms must be an iterable of ints, got {bad!r}")
    # a negative index, which no sum(...) text can hold
    for bad in ([-1, 300], {-5}, [False, -1]):
        with pytest.raises(ValueError) as raised:
            format_minterms(bad)
        assert str(raised.value) == (
            f"minterms must not be negative, got {bad!r}")


# (n_vars, minterm set) pairs over every supported width
TABLES = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1))))


@given(TABLES)
def test_spec_text_round_trip(case):
    n, ms = case
    tt = TruthTable.from_minterms(n, ms)
    text = format_minterms(tt.minterms())
    assert parse_minterm_spec(text) == frozenset(ms)
    assert TruthTable.from_minterms(n, parse_minterm_spec(text)) == tt


@given(TABLES)
def test_int_form_round_trip(case):
    n, ms = case
    tt = TruthTable.from_minterms(n, ms)
    assert tt.to_int() == sum(1 << m for m in ms)
    assert TruthTable.from_int(n, tt.to_int()) == tt


def test_from_int_rejects_tables_that_do_not_fit():
    for n_vars, table in ((3, 256), (3, -1), (9, 0)):
        with pytest.raises(ValueError):
            TruthTable.from_int(n_vars, table)
    for table in (1.0, True):
        with pytest.raises(ValueError) as raised:
            TruthTable.from_int(3, table)
        assert str(raised.value) == f"table must be an int, got {table!r}"


def test_var_table_sets_the_minterms_where_the_variable_is_one():
    for n_vars in range(1, 9):
        for i in range(n_vars):
            expected = sum(1 << k for k in range(1 << n_vars)
                           if (k >> (n_vars - 1 - i)) & 1)
            assert var_table(n_vars, i) == expected, (n_vars, i)


@given(st.lists(st.integers(0, 255), min_size=5, max_size=5))
def test_majorities_agree_with_their_sums_of_products(tables):
    a, b, c, d, e = tables
    assert maj3(a, b, c) == _oracles.maj3_sop(a, b, c)
    assert maj5(a, b, c, d, e) == _oracles.maj5_sop(a, b, c, d, e)
