"""Full-adder designs and the audited two-form function table."""

import itertools

from qcamaj import (
    TruthTable,
    adder_classic,
    adder_classic_simplified,
    adder_single_maj5,
    adder_three_gate,
    compare_adders,
    evaluate,
    parse_expr,
    audit_entries,
    truth_table,
    verify,
)
from qcamaj.adders import ADDER_VARS, ALL_ADDERS

import _oracles

DESIGNS = (adder_single_maj5, adder_three_gate, adder_classic, adder_classic_simplified)


def test_every_design_adds_correctly():
    for make in DESIGNS:
        design = make()
        for bits in itertools.product((0, 1), repeat=3):
            total = sum(bits)
            assert evaluate(design.sum_net, bits) == total & 1, design.name
            assert evaluate(design.carry_net, bits) == total >> 1, design.name


def test_carry_is_plain_majority():
    for make in DESIGNS:
        got = truth_table(make().carry_net)
        assert got == TruthTable.from_minterms(3, {3, 5, 6, 7})


def test_census_single_maj5_design():
    c = adder_single_maj5().cost()
    assert (c.maj3_count, c.maj5_count, c.inverter_count,
            c.gate_count, c.levels) == (1, 1, 1, 3, 2)


def test_census_three_gate_design():
    c = adder_three_gate().cost()
    assert (c.maj3_count, c.maj5_count, c.inverter_count,
            c.gate_count, c.levels) == (3, 0, 2, 5, 2)


def test_census_classic_designs():
    c = adder_classic().cost()
    assert (c.maj3_count, c.maj5_count, c.inverter_count,
            c.gate_count, c.levels) == (5, 0, 3, 8, 2)
    c = adder_classic_simplified().cost()
    assert (c.maj3_count, c.maj5_count, c.inverter_count,
            c.gate_count, c.levels) == (4, 0, 3, 7, 2)


def test_compare_adders_report():
    rows = compare_adders()
    assert [r.name for r in rows] == [
        "single-maj5", "three-gate", "classic", "classic-simplified"]
    assert all(r.sum_ok and r.carry_ok for r in rows)
    # the single-maj5 design has the smallest census across the board
    first = rows[0].cost
    for other in rows[1:]:
        assert first.gate_count < other.cost.gate_count


def test_table_rows_are_verbatim():
    rows = audit_entries()
    assert [sorted(r.minterms) for r in rows] == [
        [7], [3, 4, 5, 6, 7], [3, 6, 7], [1, 2, 3, 4, 5, 6, 7],
        [1, 2, 7], [0, 3, 5, 6, 7]]
    assert rows[0].maj3_form == "M(M(A,B,0),C,0)"
    assert rows[0].maj5_form == "M5(0,0,A,B,C)"
    assert rows[4].maj3_form == "M(M(A,B,C'),M(A,B',C),M(A',B,0))"
    assert rows[4].maj5_form == "M5(M(A,B,C)',M5(A,A,B,C,1),A,B,C)"
    assert rows[5].maj5_form == "M(M5(A,B,B,C,C),1,M5(A,B,C,1,1)')"


def test_audit_verdicts_are_frozen():
    rows = audit_entries()
    names = ("A", "B", "C")
    prev, prop = [], []
    for row in rows:
        spec = TruthTable.from_minterms(3, row.minterms)
        prev.append(verify(parse_expr(row.maj3_form, names), spec).equivalent)
        prop.append(verify(parse_expr(row.maj5_form, names), spec).equivalent)
    assert prev == [True, True, True, True, False, False]
    assert prop == [True, True, True, True, False, True]


def test_audit_failures_report_what_was_computed():
    rows = audit_entries()
    names = ("A", "B", "C")

    row = rows[4]  # sum(1,2,7)
    report = verify(parse_expr(row.maj3_form, names),
                    TruthTable.from_minterms(3, row.minterms))
    assert report.computed_minterms == frozenset({2, 4, 7})
    report = verify(parse_expr(row.maj5_form, names),
                    TruthTable.from_minterms(3, row.minterms))
    assert report.computed_minterms == frozenset({3, 4, 5, 6, 7})

    row = rows[5]  # sum(0,3,5,6,7)
    report = verify(parse_expr(row.maj3_form, names),
                    TruthTable.from_minterms(3, row.minterms))
    assert report.computed_minterms == frozenset({0, 5, 6, 7})


def test_audit_agrees_with_independent_evaluator():
    names = ("A", "B", "C")
    for row in audit_entries():
        for text in (row.maj3_form, row.maj5_form):
            package = truth_table(parse_expr(text, names)).minterms()
            oracle = _oracles.minterms_of_expr(text, names)
            assert package == oracle, text


def test_design_list_order():
    assert ALL_ADDERS == (adder_single_maj5, adder_three_gate, adder_classic,
                          adder_classic_simplified)
    assert ADDER_VARS == ("A", "B", "Cin")
