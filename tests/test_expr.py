"""Expression text parsing and its agreement with an independent evaluator."""

import itertools
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qcamaj import (NetworkBuilder, combined_cost, evaluate, parse_expr,
                    format_expr, to_text, truth_table)
from qcamaj.errors import ArityError, ParseError, UnknownVariableError
from qcamaj.expr import parse_into

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
        "M(A B,C)": 4,
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
# symbols, declared and undeclared names, constants, bad digits (one a
# digit run), a non-ASCII letter, numeric characters that are not digits
# ("\u00bd", the roman numeral "\u216b"), a digit that is not decimal
# ("\u00b2"), a decimal digit that is not ASCII ("\u0663"), whitespace
# that is not ASCII or not printable, and a bad character
FUZZ_PIECES = ["M", "M5", "m", "(", ")", ",", "'", "A", "B", "C", "D",
               "0", "1", "2", "12", "_", "_x", "\u00e9", "\u00bd",
               "\u00b2", "\u216b", "\u0663", " ", "\u00a0", "\t", "\n",
               "\x1c", "#"]


@given(st.lists(st.sampled_from(FUZZ_PIECES), max_size=30).map("".join))
def test_arbitrary_text_parses_or_raises_parse_error(text):
    try:
        parse_expr(text, NAMES)
    except ParseError as e:
        assert 0 <= e.position <= len(text)


def test_edge_cases_of_the_token_rules():
    bad = {
        # a bad character anywhere wins over the earlier arity error
        "M(A,B)#": ("unexpected character '#'", 6),
        # "\u00b2" is a digit, so it continues the digit run
        "1\u00b2": ("constants are 0 or 1, found '1\u00b2'", 0),
        # numeric characters that are not digits start no token
        "\u00bd": ("unexpected character '\u00bd'", 0),
        "\u216b": ("unexpected character '\u216b'", 0),
        "A B": ("trailing input 'B'", 2),
        "1A": ("trailing input 'A'", 1),
        "M(A,B,2)": ("constants are 0 or 1, found '2'", 6),
    }
    for text, (message, pos) in bad.items():
        with pytest.raises(ParseError) as exc:
            parse_expr(text, NAMES)
        assert str(exc.value) == f"{message} (at position {pos})", text
        assert exc.value.position == pos, text
    # "\x1c" is whitespace to str.isspace
    assert minterms("M(A,B,C)\x1c") == minterms("M(A,B,C)")


def test_regex_classes_are_the_str_predicates_the_grammar_names():
    # the tokenizer's exactness rests on these, for every code point
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]
    assert re.findall(r"\w", every) == [
        c for c in every if c.isalnum() or c == "_"]


# name lists of the differential test: ASCII, and one with a non-ASCII
# letter and a leading underscore
DIFF_NAMES = [NAMES, ("A", "\u00e9", "_x")]
DIFF_TEXT = st.one_of(
    st.lists(st.sampled_from(FUZZ_PIECES), max_size=30).map("".join),
    st.text(max_size=12),
)


def outcome(parse, builder, text, names):
    """to_text of the parsed network, or the error's type, message and
    position."""
    try:
        root = parse(builder, text, names)
    except ParseError as e:
        return type(e), str(e), e.position
    return to_text(builder.build(root))


@given(DIFF_TEXT, st.sampled_from(DIFF_NAMES))
def test_parser_agrees_with_the_former_parser(text, names):
    try:
        got = to_text(parse_expr(text, names))
    except ParseError as e:
        got = type(e), str(e), e.position
    assert got == outcome(_oracles.parse_reference, NetworkBuilder(3), text,
                          names)
    # into a pool that holds nodes already: the same outcome, and the
    # same nodes afterwards, after an error too
    results = []
    for parse in (parse_into, _oracles.parse_reference):
        b = NetworkBuilder(3)
        parse(b, f"M({names[0]},{names[1]},0)'", names)
        results.append((outcome(parse, b, text, names), b._nodes))
    assert results[0] == results[1]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def random_expression(monkeypatch):
    """perfbench/workloads.random_expression, which writes the texts of
    the benchmark's verify requests."""
    # the benchmark's modules import each other by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    own = {p.stem for p in PERFBENCH.glob("*.py")}
    before = set(sys.modules)
    import workloads
    yield workloads.random_expression
    for name in (set(sys.modules) - before) & own:
        del sys.modules[name]


def one_character_mutations(rng, text, names):
    """Seeded one-character edits of `text`: a character deleted, "#",
    a space or a no-break space inserted, a name swapped for an
    undeclared one, a ")" doubled, and a "(" put after a name that may
    have been read before."""
    def at():
        return rng.randrange(len(text) + 1)

    i = at()
    yield text[:i] + text[i + 1:]
    for ch in "# \u00a0":
        i = at()
        yield text[:i] + ch + text[i:]
    i = text.index(rng.choice(names))
    yield text[:i] + "Z" + text[i + 1:]
    i = rng.choice([k for k, ch in enumerate(text) if ch == ")"])
    yield text[:i] + ")" + text[i:]
    i = rng.choice([k for k, ch in enumerate(text) if ch in names]) + 1
    yield text[:i] + "(" + text[i:]


def test_parser_agrees_with_the_former_parser_on_workload_texts(
        random_expression):
    rng = random.Random(27)
    for n, gates in [(5, 20), (6, 60), (7, 150), (8, 320)]:
        names = "ABCDEFGH"[:n]
        for share in (0.0, 0.3):
            text = random_expression(rng, names, gates, share)
            for case in [text, *one_character_mutations(rng, text, names)]:
                try:
                    got = to_text(parse_expr(case, names))
                except ParseError as e:
                    got = type(e), str(e), e.position
                assert got == outcome(_oracles.parse_reference,
                                      NetworkBuilder(n), case, names)
                # into a pool that holds nodes already
                results = []
                for parse in (parse_into, _oracles.parse_reference):
                    b = NetworkBuilder(n)
                    parse(b, "M(B',M(A,C,1),E)'", names)
                    results.append((outcome(parse, b, case, names),
                                    b._nodes))
                assert results[0] == results[1]


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


@given(WELL_FORMED)
def test_evaluate_agrees_with_independent_evaluator_on_every_row(text):
    net = parse_expr(text, NAMES)
    for bits in itertools.product((0, 1), repeat=3):
        assert evaluate(net, bits) == _oracles.eval_expr(
            text, dict(zip(NAMES, bits))), (text, bits)


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


def test_parse_into_shares_subterms_across_expressions():
    b = NetworkBuilder(3)
    first = parse_into(b, "M(A,B,C)", NAMES)
    second = parse_into(b, "M(M(A,B,C)',C,A)", NAMES)
    net = b.build(second)
    # the second text's M(A,B,C) is the first text's node
    assert net.nodes[net.nodes[second].args[0]].args == (first,)
    both = combined_cost((b.build(first), b.build(second)))
    assert (both.maj3_count, both.inverter_count) == (2, 1)


def test_parse_into_needs_one_name_per_builder_variable():
    for names in (("A", "B"), ("A", "B", "C", "D")):
        with pytest.raises(ArityError, match=f"got {len(names)} names "
                                             "for 3 variables"):
            parse_into(NetworkBuilder(3), "A", names)


def test_parse_into_rejects_duplicate_names_as_parse_expr_does():
    with pytest.raises(ValueError) as into:
        parse_into(NetworkBuilder(2), "A", ("A", "A"))
    with pytest.raises(ValueError) as whole:
        parse_expr("A", ("A", "A"))
    assert type(into.value) is type(whole.value)
    assert str(into.value) == str(whole.value)
