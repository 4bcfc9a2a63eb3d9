"""Acceptance gate: one test per shipped guarantee.

Each test states its full claim in the name so the -v report reads as a
checklist.  Time budgets are asserted inside the tests that carry one.
"""

import itertools
import shlex
import time

import pytest

from qcamaj import (
    SearchBudget,
    TruthTable,
    adder_classic,
    adder_classic_simplified,
    adder_single_maj5,
    adder_three_gate,
    build_inverter,
    build_maj3,
    build_maj5,
    build_wire,
    evaluate,
    parse_expr,
    read_logic,
    relax,
    synthesize_all_3var,
    audit_entries,
    truth_table,
    verify,
)
from qcamaj.cli import main

import _oracles

NAMES = ("A", "B", "C")


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def records_rows(out):
    rows = []
    for line in out.splitlines():
        parts = shlex.split(line)
        if parts[0] == "row":
            rows.append(dict(p.split("=", 1) for p in parts[1:]))
    return rows


def test_criterion_1_adder_command_reports_published_censuses(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "adders", "--format", "records")
    elapsed = time.perf_counter() - start
    assert code == 0
    got = {r["design"]: (int(r["maj3"]) + int(r["maj5"]), int(r["inv"]))
           for r in records_rows(out)}
    assert got["classic"] == (5, 3)
    assert got["three-gate"] == (3, 2)
    assert got["single-maj5"] == (2, 1)
    assert got["classic-simplified"] == (4, 3)
    assert elapsed < 1.0


def test_criterion_2_all_adders_satisfy_the_eight_row_arithmetic_oracle():
    start = time.perf_counter()
    designs = (adder_single_maj5(), adder_three_gate(), adder_classic(),
               adder_classic_simplified())
    for design in designs:
        for bits in itertools.product((0, 1), repeat=3):
            s = evaluate(design.sum_net, bits)
            c = evaluate(design.carry_net, bits)
            assert 2 * c + s == sum(bits), (design.name, bits)
    assert time.perf_counter() - start < 1.0


def test_criterion_3_published_expression_costs_reproduce_exactly():
    cases = [
        # (minterms, expression, levels, inverters, maj3, maj5, gates)
        ({3, 4, 5, 6, 7}, "M(M(B,C,0),A,1)", 2, 0, 2, 0, 2),
        ({3, 4, 5, 6, 7}, "M5(A,A,B,C,1)", 1, 0, 0, 1, 1),
        ({0, 3, 5, 6, 7}, "M(M(A,B,0),M(A',B',C),M(A,C',1))", 2, 3, 4, 0, 7),
        ({0, 3, 5, 6, 7}, "M(M5(A,B,B,C,C),1,M5(A,B,C,1,1)')", 2, 1, 1, 2, 4),
    ]
    from qcamaj import cost

    for _, text, levels, inv, m3, m5, gates in cases:
        c = cost(parse_expr(text, NAMES))
        assert (c.levels, c.inverter_count, c.maj3_count, c.maj5_count,
                c.gate_count) == (levels, inv, m3, m5, gates), text


def test_criterion_4_table_audit_verdicts_match_the_oracle_and_are_reported(
        capsys):
    start = time.perf_counter()
    rows = audit_entries()
    verdicts = {}
    for row in rows:
        spec = TruthTable.from_minterms(3, row.minterms)
        got = verify(parse_expr(row.maj5_form, NAMES), spec)
        # double-checked against the independent cursor evaluator
        assert got.computed_minterms == _oracles.minterms_of_expr(
            row.maj5_form, NAMES)
        verdicts[frozenset(row.minterms)] = got.equivalent
    for ms in ({7}, {3, 4, 5, 6, 7}, {3, 6, 7}, {1, 2, 3, 4, 5, 6, 7},
               {0, 3, 5, 6, 7}):
        assert verdicts[frozenset(ms)], ms
    assert verdicts[frozenset({1, 2, 7})] is False

    # the failing row must appear in the command output, not vanish
    code, out = run_cli(capsys, "audit-tables", "--format", "records")
    assert code == 0
    reported = [r for r in records_rows(out)
                if r["function"] == "sum(1,2,7)" and r["form"] == "with-maj5"]
    assert len(reported) == 1
    assert reported[0]["verdict"] == "not-equivalent"
    assert reported[0]["computed"] == "sum(3,4,5,6,7)"
    assert time.perf_counter() - start < 1.0


def test_criterion_5_majority_identities_hold_over_all_assignments():
    m5 = parse_expr("M5(A,B,C,D,E)", ("A", "B", "C", "D", "E"))
    for bits in itertools.product((0, 1), repeat=5):
        assert evaluate(m5, bits) == _oracles.maj5_sop(*bits)
    net_and = parse_expr("M(A,B,0)", ("A", "B"))
    net_or = parse_expr("M(A,B,1)", ("A", "B"))
    for a, b in itertools.product((0, 1), repeat=2):
        assert evaluate(net_and, (a, b)) == (a & b)
        assert evaluate(net_or, (a, b)) == (a | b)
    net_and3 = parse_expr("M5(A,B,C,0,0)", NAMES)
    net_or3 = parse_expr("M5(A,B,C,1,1)", NAMES)
    for bits in itertools.product((0, 1), repeat=3):
        a, b, c = bits
        assert evaluate(net_and3, bits) == (a & b & c)
        assert evaluate(net_or3, bits) == (a | b | c)


def test_criterion_6_full_atlas_is_sound_and_fast():
    start = time.perf_counter()
    entries = synthesize_all_3var()
    for e in entries:
        assert e.network is not None, e.minterms
        spec = TruthTable.from_minterms(3, e.minterms)
        assert verify(e.network, spec).equivalent, e.expression
    by_minterms = {e.minterms: e for e in entries}
    assert by_minterms[frozenset({7})].cost.gate_count == 1
    assert by_minterms[frozenset({3, 4, 5, 6, 7})].cost.gate_count == 1
    assert time.perf_counter() - start < 300.0


def test_criterion_7_relaxed_layouts_reproduce_every_gate_truth_table():
    start = time.perf_counter()

    def settled(grid):
        result = relax(grid, tol=1e-6, max_iter=1000)
        assert abs(result.output_polarization) > 0.5
        return read_logic(result, threshold=0.5)

    for bits in itertools.product((0, 1), repeat=3):
        got = settled(build_maj3(*(2.0 * b - 1.0 for b in bits)))
        assert got == _oracles.maj3_sop(*bits), bits
    for bits in itertools.product((0, 1), repeat=5):
        got = settled(build_maj5(*(2.0 * b - 1.0 for b in bits)))
        assert got == _oracles.maj5_sop(*bits), bits
    for bit in (0, 1):
        assert settled(build_inverter(2.0 * bit - 1.0)) == 1 - bit
        for length in range(2, 11):
            assert settled(build_wire(length, 2.0 * bit - 1.0)) == bit
    assert time.perf_counter() - start < 10.0


def test_criterion_8_negating_all_drivers_negates_every_polarization():
    layouts = []
    for bits in itertools.product((0, 1), repeat=3):
        ps = tuple(2.0 * b - 1.0 for b in bits)
        layouts.append((build_maj3(*ps), build_maj3(*(-p for p in ps))))
    for bits in itertools.product((0, 1), repeat=5):
        ps = tuple(2.0 * b - 1.0 for b in bits)
        layouts.append((build_maj5(*ps), build_maj5(*(-p for p in ps))))
    layouts.append((build_inverter(1.0), build_inverter(-1.0)))
    layouts.append((build_wire(9, 0.75), build_wire(9, -0.75)))
    layouts.append((build_maj3(0.5, -0.25, 1.0), build_maj3(-0.5, 0.25, -1.0)))
    for plus, minus in layouts:
        rp = relax(plus)
        rm = relax(minus)
        for a, b in zip(rp.polarizations, rm.polarizations):
            assert abs(a + b) <= 1e-9


def test_criterion_9_five_input_gates_never_cost_more_and_save_on_216_of_256():
    # both majority counts are checked against tests/_oracles.py in
    # tests/test_synth.py
    with_maj5 = synthesize_all_3var()
    maj3_only = synthesize_all_3var(SearchBudget(4, 4, False))
    saved = fewer_levels = same = 0
    for a, b in zip(with_maj5, maj3_only):
        majority = a.cost.maj3_count + a.cost.maj5_count
        assert majority <= b.cost.maj3_count, a.minterms
        assert a.cost.levels <= b.cost.levels, a.minterms
        if majority < b.cost.maj3_count:
            assert a.cost.gate_count < b.cost.gate_count, a.minterms
            saved += 1
            fewer_levels += a.cost.levels < b.cost.levels
        else:
            assert a.expression == b.expression, a.minterms
            same += 1
    assert (saved, fewer_levels, same) == (216, 64, 40)
