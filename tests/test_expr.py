"""Expression text parsing and its agreement with an independent evaluator."""

import itertools

import pytest
from hypothesis import given, strategies as st

from qcamaj import parse_expr, format_expr, truth_table
from qcamaj.errors import ParseError, UnknownVariableError

import _oracles

NAMES = ("A", "B", "C")


def minterms(text, names=NAMES):
    return truth_table(parse_expr(text, names)).minterms()


def test_single_variable_and_constants():
    assert minterms("A") == frozenset({4, 5, 6, 7})
    assert minterms("C'") == frozenset({0, 2, 4, 6})
    assert minterms("0") == frozenset()
    assert minterms("1") == frozenset(range(8))


def test_majority_gate():
    assert minterms("M(A,B,C)") == frozenset({3, 5, 6, 7})


def test_and_or_via_constant_operands():
    assert minterms("M(A,B,0)") == frozenset({6, 7})
    assert minterms("M(A,B,1)") == frozenset({2, 3, 4, 5, 6, 7})
    assert minterms("M5(A,B,C,0,0)") == frozenset({7})
    assert minterms("M5(A,B,C,1,1)") == frozenset({1, 2, 3, 4, 5, 6, 7})


def test_postfix_complement_stacks():
    assert minterms("A''") == minterms("A")
    assert minterms("M(A,B,C)'") == frozenset(range(8)) - {3, 5, 6, 7}


def test_whitespace_and_case_insensitive_gate_names():
    assert minterms(" m ( A , B , C ) ") == minterms("M(A,B,C)")
    assert minterms("m5(A,A,B,C,1)") == minterms("M5(A,A,B,C,1)")


def test_agrees_with_independent_evaluator():
    samples = [
        "M(A,B,C)",
        "M(M(A,B,0),C,0)",
        "M5(A,B,C,1,1)'",
        "M(M(A,B,C'),M(A,B',C),M(A',B,C))",
        "M5(M(A,B,C)',M5(A,A,B,C,1),A,B,C)",
    ]
    for text in samples:
        assert minterms(text) == _oracles.minterms_of_expr(text, NAMES), text


def test_wrong_arity_raises():
    for text in ["M(A,B)", "M5(A,B,C)", "M(A,B,C,A,B)"]:
        with pytest.raises(ParseError) as exc:
            parse_expr(text, NAMES)
        assert "operands" in str(exc.value)


def test_unknown_variable_raises():
    with pytest.raises(UnknownVariableError):
        parse_expr("M(A,B,D)", NAMES)


def test_malformed_text_raises_with_position():
    cases = {
        "": 0,
        "M(A,B": 5,
        "M(A,B,C))": 8,
        "2": 0,
        "M(A,,B)": 4,
        "A B": 2,
    }
    for text, pos in cases.items():
        with pytest.raises(ParseError) as exc:
            parse_expr(text, NAMES)
        assert exc.value.position == pos, text


def test_deep_nesting_parses_without_recursion():
    n = 20000
    net = parse_expr("M(" * n + "A" + ",B,C)" * n, NAMES)
    assert len(net.nodes) == n + 3
    assert truth_table(net).minterms() == frozenset({3, 5, 6, 7})


# tokens and characters the tokenizer treats differently: gate names,
# symbols, declared and undeclared names, constants, a bad digit, a
# non-ASCII letter and a numeric character that is not a digit
FUZZ_PIECES = ["M", "M5", "m", "(", ")", ",", "'", "A", "B", "C", "D",
               "0", "1", "2", "_", "\u00e9", "\u00bd", " ", "\t", "\n"]


@given(st.lists(st.sampled_from(FUZZ_PIECES), max_size=30).map("".join))
def test_arbitrary_text_parses_or_raises_parse_error(text):
    try:
        parse_expr(text, NAMES)
    except ParseError as e:
        assert 0 <= e.position <= len(text)


# each gate level adds at least two leaves, so 11 leaves nest gates at
# most five deep
WELL_FORMED = st.recursive(
    st.sampled_from(["A", "B", "C", "0", "1"]),
    lambda inner: st.one_of(
        st.lists(inner, min_size=3, max_size=3).map(
            lambda xs: "M(" + ",".join(xs) + ")"),
        st.lists(inner, min_size=5, max_size=5).map(
            lambda xs: "M5(" + ",".join(xs) + ")"),
        inner.map(lambda x: x + "'"),
    ),
    max_leaves=11,
)


@given(WELL_FORMED)
def test_well_formed_text_agrees_with_independent_evaluator(text):
    assert minterms(text) == _oracles.minterms_of_expr(text, NAMES)


def test_duplicate_or_empty_variable_names_rejected():
    with pytest.raises(ValueError):
        parse_expr("A", ("A", "A"))
    with pytest.raises(ValueError):
        parse_expr("A", ())


def test_format_parse_round_trip():
    texts = [
        "M(A,B,C)",
        "M(M(A,B,0),C,0)",
        "M5(M(A,B,C)',M5(A,A,B,C,1),A,B,C)",
        "M(A',B',1)'",
    ]
    for text in texts:
        net = parse_expr(text, NAMES)
        again = parse_expr(format_expr(net), NAMES)
        assert truth_table(again) == truth_table(net)


def test_shared_subterms_parse_to_one_node():
    from qcamaj import cost

    net = parse_expr("M(M(A,B,0),M(A,B,0)',C)", NAMES)
    report = cost(net)
    assert report.maj3_count == 2
    assert report.inverter_count == 1
