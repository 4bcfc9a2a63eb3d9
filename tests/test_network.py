"""Network construction, evaluation, census, verification, serialization."""

import itertools
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from qcamaj import (
    Network,
    NetworkBuilder,
    TruthTable,
    combined_cost,
    cost,
    evaluate,
    format_expr,
    from_text,
    parse_expr,
    to_text,
    truth_table,
    verify,
)
from qcamaj.errors import ArityError, CapacityError, ParseError
from qcamaj.expr import _SYMBOLS, _tokenize
from qcamaj.network import MAX_EXPR_CHARS, Node, check_names, order_note

import _oracles

NAMES = ("A", "B", "C")


def test_maj3_matches_sum_of_products():
    net = parse_expr("M(A,B,C)", NAMES)
    for bits in itertools.product((0, 1), repeat=3):
        assert evaluate(net, bits) == _oracles.maj3_sop(*bits)


def test_maj5_matches_sum_of_products():
    names = ("A", "B", "C", "D", "E")
    net = parse_expr("M5(A,B,C,D,E)", names)
    for bits in itertools.product((0, 1), repeat=5):
        assert evaluate(net, bits) == _oracles.maj5_sop(*bits)


def test_constant_operands_reduce_to_and_or():
    # fixing one input of the three-input gate gives AND or OR
    for bits in itertools.product((0, 1), repeat=2):
        a, b = bits
        net_and = parse_expr("M(A,B,0)", ("A", "B"))
        net_or = parse_expr("M(A,B,1)", ("A", "B"))
        assert evaluate(net_and, bits) == (a & b)
        assert evaluate(net_or, bits) == (a | b)
    # fixing two inputs of the five-input gate gives 3-AND or 3-OR
    for bits in itertools.product((0, 1), repeat=3):
        a, b, c = bits
        net_and3 = parse_expr("M5(A,B,C,0,0)", NAMES)
        net_or3 = parse_expr("M5(A,B,C,1,1)", NAMES)
        assert evaluate(net_and3, bits) == (a & b & c)
        assert evaluate(net_or3, bits) == (a | b | c)


def test_double_negation_is_identity():
    b = NetworkBuilder(1)
    x = b.input(0)
    net = b.build(b.invert(b.invert(x)))
    assert truth_table(net) == TruthTable.from_minterms(1, {1})


def test_hash_consing_merges_identical_gates():
    b = NetworkBuilder(3)
    a, bb, c = (b.input(i) for i in range(3))
    g1 = b.maj3(a, bb, c)
    g2 = b.maj3(a, bb, c)
    assert g1 == g2
    net = b.build(g1)
    assert cost(net).maj3_count == 1
    # the pool holds each node once, as its own key
    assert all(node is key for node, key in zip(net.nodes, b._nodes))


def test_a_node_is_its_kind_args_tuple():
    node = Node("maj3", (0, 1, 2))
    assert node == ("maj3", (0, 1, 2))
    assert hash(node) == hash(("maj3", (0, 1, 2)))
    assert repr(Node("input", (0,))) == "Node(kind='input', args=(0,))"


def test_builder_rejects_bad_inputs():
    b = NetworkBuilder(2)
    with pytest.raises(ValueError):
        b.input(2)
    with pytest.raises(ValueError):
        b.const(2)
    with pytest.raises(ValueError):
        b.maj3(0, 1, 99)
    with pytest.raises(ValueError):
        NetworkBuilder(0)


def test_network_validates_structure():
    with pytest.raises(ValueError):
        Network(1, (Node("input", (0,)),), 5)  # output id out of range
    with pytest.raises(ValueError):
        Network(1, (Node("maj3", (0, 0)),), 0)  # wrong operand count
    with pytest.raises(ValueError):
        Network(1, (Node("blorp", (0,)),), 0)  # unknown kind
    with pytest.raises(ValueError):
        # children must precede their gate
        Network(1, (Node("not", (1,)), Node("input", (0,))), 0)
    with pytest.raises(ValueError):
        Network(0, (Node("const", (0,)),), 0)  # no inputs
    with pytest.raises(ValueError):
        Network(1, (Node("input", (1,)),), 0)  # variable out of range
    with pytest.raises(ValueError):
        Network(1, (Node("const", (2,)),), 0)  # constant not 0 or 1


def _maj3_over_two_inputs(c):
    b = NetworkBuilder(2)
    return b.maj3(b.input(0), b.input(1), c)


@pytest.mark.parametrize("build, direct, message", [
    (lambda: NetworkBuilder(2).input(2),
     lambda: Network(2, (Node("input", (2,)),), 0),
     "node 0: variable index 2 out of range for 2 inputs"),
    (lambda: NetworkBuilder(2).const(2),
     lambda: Network(2, (Node("const", (2,)),), 0),
     "node 0: constant must be 0 or 1, got 2"),
    (lambda: _maj3_over_two_inputs(99),
     lambda: Network(2, (Node("input", (0,)), Node("input", (1,)),
                         Node("maj3", (0, 1, 99))), 2),
     "node 2: child 99 does not precede the node"),
    (lambda: NetworkBuilder(1).invert(-1),
     lambda: Network(1, (Node("not", (-1,)),), 0),
     "node 0: child -1 does not precede the node"),
    (lambda: NetworkBuilder(0),
     lambda: Network(0, (Node("const", (0,)),), 0),
     "n_vars must be positive, got 0"),
    *[(lambda v=v: NetworkBuilder(v),
       lambda v=v: Network(v, (Node("const", (0,)),), 0),
       f"n_vars must be an int, got {v!r}")
      for v in (2.5, float("nan"), "3", True, 2.0)],
], ids=["input 2 of 2", "const 2", "child 99", "not -1", "n_vars 0",
        "n_vars 2.5", "n_vars nan", "n_vars '3'", "n_vars True",
        "n_vars 2.0"])
def test_builder_and_network_reject_a_bad_node_in_the_same_words(
        build, direct, message):
    for make in (build, direct):
        with pytest.raises(ValueError) as raised:
            make()
        assert str(raised.value) == message


@pytest.mark.parametrize("v", [0, -1, 2.5, True])
def test_builder_network_and_table_refuse_n_vars_in_the_same_words(v):
    messages = set()
    for make in (lambda: NetworkBuilder(v),
                 lambda: Network(v, (Node("const", (0,)),), 0),
                 lambda: TruthTable.from_int(v, 0)):
        with pytest.raises(ValueError) as raised:
            make()
        messages.add(str(raised.value))
    assert len(messages) == 1


def test_cost_census_counts_shared_nodes_once():
    report = cost(parse_expr("M(M(A,B,0),C,0)", NAMES))
    assert (report.maj3_count, report.maj5_count, report.inverter_count,
            report.gate_count, report.levels) == (2, 0, 0, 2, 2)

    report = cost(parse_expr(
        "M5(M(A,B,C)',M5(A,A,B,C,1),A,B,C)", NAMES))
    assert (report.maj3_count, report.maj5_count, report.inverter_count,
            report.gate_count, report.levels) == (1, 2, 1, 4, 2)


def test_inverters_do_not_add_depth():
    report = cost(parse_expr("M(A',B',1)'", NAMES))
    assert report.levels == 1
    assert report.inverter_count == 3
    assert report.gate_count == 4


def test_combined_cost_shares_across_outputs():
    b = NetworkBuilder(3)
    a, bb, cin = (b.input(i) for i in range(3))
    carry = b.maj3(a, bb, cin)
    ncarry = b.invert(carry)
    total = b.maj5(a, bb, cin, ncarry, ncarry)
    sum_net = b.build(total)
    carry_net = b.build(carry)
    report = combined_cost([sum_net, carry_net])
    assert (report.maj3_count, report.maj5_count, report.inverter_count,
            report.gate_count, report.levels) == (1, 1, 1, 3, 2)


def test_combined_cost_accepts_builds_from_a_grown_pool():
    # the carry is built before the sum's nodes exist, so its node tuple
    # is a prefix of the sum's
    b = NetworkBuilder(3)
    a, bb, cin = (b.input(i) for i in range(3))
    carry = b.maj3(a, bb, cin)
    carry_net = b.build(carry)
    ncarry = b.invert(carry)
    sum_net = b.build(b.maj5(a, bb, cin, ncarry, ncarry))
    for nets in ([carry_net, sum_net], [sum_net, carry_net]):
        report = combined_cost(nets)
        assert (report.maj3_count, report.maj5_count, report.inverter_count,
                report.gate_count, report.levels) == (1, 1, 1, 3, 2)


def test_combined_cost_requires_shared_pool():
    b1 = NetworkBuilder(2)
    n1 = b1.build(b1.maj3(b1.input(0), b1.input(1), b1.const(0)))
    b2 = NetworkBuilder(2)
    n2 = b2.build(b2.maj3(b2.input(0), b2.input(1), b2.const(1)))
    with pytest.raises(ValueError):
        combined_cost([n1, n2])
    with pytest.raises(ValueError):
        combined_cost([])


def test_verify_reports_equivalence():
    net = parse_expr("M(A,B,C)", NAMES)
    report = verify(net, TruthTable.from_minterms(3, {3, 5, 6, 7}))
    assert report.equivalent
    assert report.differing_minterms == frozenset()
    assert report.computed_minterms == frozenset({3, 5, 6, 7})
    assert "most significant" in report.variable_order_note


def test_verify_reports_differences():
    net = parse_expr("M(A,B,C)", NAMES)
    report = verify(net, TruthTable.from_minterms(3, {3, 5, 6}))
    assert not report.equivalent
    assert report.differing_minterms == frozenset({7})


def test_verify_rejects_arity_mismatch():
    net = parse_expr("M(A,B,C)", NAMES)
    with pytest.raises(ArityError):
        verify(net, TruthTable.from_minterms(2, {1}))


def test_order_note_spells_out_convention():
    note = order_note(3)
    assert note == ("variable order A,B,C with A as the most significant "
                    "minterm bit")
    with pytest.raises(CapacityError):
        order_note(27)  # past the 26 default names


def test_truth_table_capacity_ceiling():
    b = NetworkBuilder(9)
    net = b.build(b.input(0))
    with pytest.raises(CapacityError):
        truth_table(net)


def test_format_expr_renders_deep_chain_without_recursion():
    b = NetworkBuilder(3)
    node, bb, cc = b.input(0), b.input(1), b.input(2)
    for _ in range(3000):
        node = b.maj3(node, bb, cc)
    text = format_expr(b.build(node))
    assert len(text) == 21001
    assert text == "M(" * 3000 + "A" + ",B,C)" * 3000


def test_text_round_trip_preserves_structure():
    net = parse_expr("M5(M(A,B,C)',M5(A,A,B,C,1),A,B,C)", NAMES)
    again = from_text(to_text(net))
    assert again == net
    assert truth_table(again) == truth_table(net)


def test_from_text_rejects_malformed_input():
    for bad in ["", "bogus", "network x\noutput 0",
                "network 1\n0 input 0\n", "network 1\n5 input 0\noutput 0",
                "network 3 junk\n0 input 0\noutput 0\n",
                "network 3\n0 input 0\noutput 0 junk\n",
                "network 1\n0 input x\noutput 0",
                # numbers that to_text never writes
                "network +1\n0 input 0\noutput 0",
                "network 1\n0 input \uff10\noutput 0",
                "network 1\n0 input -0\noutput 0",
                "network 1\n0 input 0\noutput 0_0",
                "network 1\n0 input 0\noutput \u0660",
                # spacing that to_text never writes
                "network 1\n0\tinput   0\noutput 0",
                "network 1\n0 input  0\noutput 0",
                "network\t1\n0 input 0\noutput 0",
                "network 1\n0 input 0 \noutput 0",
                " network 1\n0 input 0\noutput 0",
                "network 1\n\u20030 input 0\noutput 0",
                "network 1\n0 input 0\noutput 0\u00a0",
                "network 1\r\n0 input 0\r\noutput 0\r\n",
                "network 1\n \n0 input 0\noutput 0",
                "network 1\u20280 input 0\u2028output 0"]:
        with pytest.raises(ValueError):
            from_text(bad)


@st.composite
def random_networks(draw):
    b = NetworkBuilder(3)
    pool = [b.input(i) for i in range(3)] + [b.const(0), b.const(1)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("not", "maj3", "maj5")))
        pick = lambda: draw(st.sampled_from(pool))
        if kind == "not":
            pool.append(b.invert(pick()))
        elif kind == "maj3":
            pool.append(b.maj3(pick(), pick(), pick()))
        else:
            pool.append(b.maj5(pick(), pick(), pick(), pick(), pick()))
    return b.build(draw(st.sampled_from(pool)))


@given(random_networks())
def test_random_network_text_round_trip(net):
    assert from_text(to_text(net)) == net


@given(random_networks())
def test_a_built_network_is_the_network_of_its_fields(net):
    # build() hands over a pool whose nodes _intern has checked, without
    # Network's own pass over them
    direct = Network(net.n_vars, net.nodes, net.output)
    assert type(net) is Network
    assert (net, hash(net), repr(net)) == (direct, hash(direct), repr(direct))


def test_build_checks_the_output_in_network_words():
    b = NetworkBuilder(1)
    b.input(0)
    for out in (1, -1):
        with pytest.raises(ValueError) as built:
            b.build(out)
        with pytest.raises(ValueError) as direct:
            Network(1, (Node("input", (0,)),), out)
        assert (str(built.value) == str(direct.value)
                == f"output id {out} out of range")


# header and footer words, every node kind and a bad one, small and
# negative ints, an underscored int, a non-ASCII digit and a huge number
TEXT_TOKENS = ["network", "output", "input", "const", "not", "maj3", "maj5",
               "blorp", "0", "1", "2", "3", "-1", "1_0", "\u0663", "9" * 30]


@st.composite
def token_soup(draw):
    def line():
        return " ".join(draw(st.lists(st.sampled_from(TEXT_TOKENS),
                                      max_size=5)))

    lines = [draw(st.sampled_from(["network ", ""])) + line()]
    lines += [line() for _ in range(draw(st.integers(0, 4)))]
    lines.append(draw(st.sampled_from(["output ", ""])) + line())
    return "\n".join(lines)


@st.composite
def damaged_text(draw):
    """A serialized network with a few tokens replaced, deleted or turned
    into line breaks."""
    rows = [ln.split() for ln in to_text(draw(random_networks())).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.sampled_from(TEXT_TOKENS + ["", "\n"]))
    return "\n".join(" ".join(row) for row in rows)


@given(st.one_of(token_soup(), damaged_text()))
def test_arbitrary_text_gives_a_network_or_value_error(text):
    try:
        net = from_text(text)
    except ValueError:
        return
    assert from_text(to_text(net)) == net


@given(random_networks())
def test_random_network_expression_round_trip(net):
    text = format_expr(net)
    assert truth_table(parse_expr(text, NAMES)) == truth_table(net)
    # the rendered text means the same thing to the independent evaluator
    assert _oracles.minterms_of_expr(text, NAMES) == truth_table(net).minterms()


def test_evaluate_answers_past_the_truth_table_cap():
    # twelve inputs: M5 of the first five, M of the next three, and a
    # maj3 of both with the inverted last input
    n = 12
    b = NetworkBuilder(n)
    x = [b.input(i) for i in range(n)]
    out = b.maj3(b.maj5(*x[:5]), b.maj3(*x[5:8]), b.invert(x[11]))
    net = b.build(out)
    with pytest.raises(CapacityError):
        truth_table(net)
    for k in range(0, 1 << n, 37):
        bits = [(k >> (n - 1 - i)) & 1 for i in range(n)]
        want = _oracles.maj3_sop(_oracles.maj5_sop(*bits[:5]),
                                 _oracles.maj3_sop(*bits[5:8]), 1 - bits[11])
        assert evaluate(net, bits) == want, bits


@given(random_networks())
def test_truth_table_agrees_with_pointwise_evaluation(net):
    tt = truth_table(net)
    for bits in itertools.product((0, 1), repeat=3):
        assert evaluate(net, bits) == tt.eval(bits)


# names the grammar reads back, gate names among them, and pieces of
# names it does not: digits (one not ASCII), symbols, a space, and
# numeric characters that are not decimal digits
READABLE_NAMES = ["M", "M5", "m", "_", "\u00e9", "x1", "Cin"]
NAME_PIECES = ["A", "M", "5", "0", "_", "'", " ", "(", ",", "\u00e9",
               "\u00bd", "\u00b2", "\u0663"]
NAME_TEXT = st.one_of(
    st.sampled_from(READABLE_NAMES),
    st.lists(st.sampled_from(NAME_PIECES), max_size=3).map("".join),
    st.text(max_size=3),
)


def one_identifier_token(name):
    try:
        tokens, _ = _tokenize(name)
    except ParseError:
        return False
    return tokens == [name] and not name.isdigit() and name not in _SYMBOLS


@given(random_networks(), st.lists(NAME_TEXT, min_size=3, max_size=3))
@example(parse_expr("M5(M(A,B,C)',A,B',C,1)", NAMES), ["M", "M5", "_"])
@example(parse_expr("M(A,B,C)'", NAMES), ["\u00e9", "M", "m"])
def test_names_are_accepted_exactly_when_the_text_reads_them_back(net, names):
    for name in names:
        try:
            check_names([name], 1)
        except ValueError:
            assert not one_identifier_token(name), name
        else:
            assert one_identifier_token(name), name
    try:
        check_names(names, 3)
    except ValueError:
        with pytest.raises(ValueError):
            format_expr(net, names)
        return
    text = format_expr(net, names)
    assert truth_table(parse_expr(text, names)) == truth_table(net)


def test_format_expr_refuses_names_parse_expr_refuses():
    net = parse_expr("M(A,B,C)", NAMES)
    for names in (["X", "X", "Y"], ["0", "B", "C"], ["A'", "B", "C"],
                  ["A B", "C", "D"], [1, "B", "C"]):
        with pytest.raises(ValueError):
            parse_expr("M(X,B,C)", names)
        with pytest.raises(ValueError):
            format_expr(net, names)


def test_table_lookup_and_pointwise_evaluation_check_rows_alike():
    net = parse_expr("M(A,B',C)", NAMES)
    for row in ((1.0, 0, 0), (True, False, 1)):
        got = evaluate(net, row)
        assert type(got) is int
        assert truth_table(net).eval(row) == got
    # B is read by no node, and is still checked
    with pytest.raises(ValueError):
        evaluate(parse_expr("M(A,A,C)", NAMES), (1, 2, 1))


def test_format_expr_refuses_text_past_the_cap():
    b = NetworkBuilder(3)
    node, bb = b.input(0), b.input(1)
    for level in range(1, 23):
        node = b.maj3(node, node, bb)
        if level == 17:
            # 7 * 2**17 - 6 characters, the longest under the cap
            assert len(format_expr(b.build(node))) == 917498
    net = b.build(node)
    assert len(net.nodes) == 24
    with pytest.raises(CapacityError, match=str(MAX_EXPR_CHARS)):
        format_expr(net)


def test_format_expr_memory_follows_the_text():
    b = NetworkBuilder(3)
    node, bb, cc = b.input(0), b.input(1), b.input(2)
    for _ in range(8000):
        node = b.maj3(node, bb, cc)
    net = b.build(node)
    tracemalloc.start()
    try:
        text = format_expr(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "M(" * 8000 + "A" + ",B,C)" * 8000
    assert peak < 5_000_000
