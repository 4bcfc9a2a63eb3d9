"""tools/layer_pairs on synthetic timings: nothing is timed."""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

import qcamaj
import qcamaj.cli
from qcamaj.network import cost, truth_table
from qcamaj.truthtable import TruthTable, format_minterms

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_pairs.py"
spec = importlib.util.spec_from_file_location("layer_pairs", TOOL)
layer_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layer_pairs)


def test_summarize_gives_each_case_its_medians_wins_and_parent_iqr():
    # the change wins four of five rounds of the first case, and loses
    # every round of the second
    times = {
        "synth 66 warm": [{"parent": p, "change": c} for p, c in
                          [(5.0, 4.0), (6.0, 4.5), (7.0, 5.0), (8.0, 9.0),
                           (9.0, 6.0)]],
        "atlas cold": [{"parent": p, "change": p + 10.0}
                       for p in (100.0, 110.0, 120.0, 130.0)],
    }
    summary = layer_pairs.summarize(times)
    assert list(summary) == list(times)
    warm = summary["synth 66 warm"]
    assert (warm["parent_median"], warm["change_median"]) == (7.0, 5.0)
    assert warm["change_better_in_pairs"] == "4 of 5"
    # quartiles by statistics.quantiles' default (exclusive) method
    assert warm["parent_quartiles"] == [5.5, 8.5]
    assert warm["parent_iqr"] == 3.0
    assert warm["gain_in_parent_iqrs"] == pytest.approx(2 / 3)
    assert warm["median_loss"] == pytest.approx(-2 / 7)
    assert not warm["every_change_run_better"]
    cold = summary["atlas cold"]
    assert (cold["parent_median"], cold["change_median"]) == (115.0, 125.0)
    assert cold["change_better_in_pairs"] == "0 of 4"
    assert cold["parent_iqr"] == pytest.approx(25.0)
    assert cold["gain_in_parent_iqrs"] == pytest.approx(-0.4)


def test_round_ratios_do_not_carry_the_drift_between_rounds():
    # the host slows threefold over the rounds; within a round each side
    # reads within 2% of the other
    drift = [1.0, 1.4, 1.9, 2.5, 3.0, 2.2, 1.2]
    noise = [1.02, 0.98, 1.0, 1.01, 0.99, 1.02, 0.98]
    times = {
        "self-pair": [{"parent": 10.0 * d, "change": 10.0 * d * e}
                      for d, e in zip(drift, noise)],
        "halved": [{"parent": 10.0 * d, "change": 5.0 * d} for d in drift],
    }
    summary = layer_pairs.summarize(times)
    same = summary["self-pair"]
    # the parent's IQR holds the drift: more than half its median
    assert same["parent_iqr"] > 0.5 * same["parent_median"]
    # the ratios' quartiles hold 1.0 and lie within 2% of it
    low, high = same["ratio_quartiles"]
    assert 0.98 <= low <= 1.0 <= high <= 1.02
    assert same["ratio_median"] == 1.0
    halved = summary["halved"]
    assert halved["ratio_median"] == 0.5
    assert halved["ratio_quartiles"] == [0.5, 0.5]


def test_higher_is_better_turns_the_comparison():
    stats = layer_pairs.pair_stats([(1.0, 2.0), (2.0, 3.0), (3.0, 1.0)],
                                   "higher")
    assert stats["change_better_in_pairs"] == "2 of 3"
    assert stats["median_loss"] == 0.0
    assert stats["gain_in_parent_iqrs"] == 0.0



def test_a_batch_holds_calls_for_about_batch_ms():
    assert layer_pairs.BATCH_MS == 20.0
    # a call of BATCH_MS or more is a batch on its own
    assert layer_pairs.calls_for(250.0) == 1
    assert layer_pairs.calls_for(20.0) == 1
    # a shorter one repeats until the batch reaches BATCH_MS
    assert layer_pairs.calls_for(19.9) == 2
    assert layer_pairs.calls_for(5.0) == 4
    assert layer_pairs.calls_for(0.3) == 67
    # a call too quick to read runs the most calls a batch holds
    assert layer_pairs.calls_for(1e-6) == layer_pairs.MAX_CALLS
    assert layer_pairs.calls_for(0.0) == layer_pairs.MAX_CALLS


def test_the_parse_case_reads_one_check_requests_rounds_verify_texts(
        monkeypatch):
    # check_texts puts perfbench/ on the path and imports its modules by
    # bare name; both are undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    texts = layer_pairs.check_texts()
    for name in (set(sys.modules) - before) & {"workloads", "reference"}:
        del sys.modules[name]
    # one text per stratum: 5 to 8 names, three gate-count ranges
    assert len(texts) == 12
    assert sorted({len(names) for _, names in texts}) == [5, 6, 7, 8]
    assert all(text.startswith("M") for text, _ in texts)


def test_a_cold_batch_clears_the_cache_before_each_call():
    levels = {}
    seen = []

    def call():
        seen.append(len(levels))
        levels[len(levels)] = "level"

    # one untimed call, then each timed call after the cache is cleared
    assert layer_pairs.time_batch(call, levels.clear, 3) >= 0.0
    assert seen == [0, 0, 0, 0]
    # a warm batch makes one untimed call first and clears nothing
    seen.clear()
    layer_pairs.time_batch(call, None, 3)
    assert seen == [1, 2, 3, 4]
    plan = layer_pairs.cases(qcamaj, [])
    assert plan["synth 66 cold"][1] == qcamaj.synth._LEVELS.clear
    assert plan["synth 66 warm"][1] is None


def test_a_reset_runs_before_each_timed_call():
    seen = []
    layer_pairs.time_batch(lambda: seen.append("call"),
                           lambda: seen.append("reset"), 2)
    assert seen == ["call", "reset", "call", "reset", "call"]


def test_the_first_visit_case_scans_class_3_again(monkeypatch):
    plan = layer_pairs.cases(qcamaj, [])
    call, reset = plan["synth class 3 first visit"]
    qcamaj.synth._LEVELS.clear()
    call()
    [levels] = qcamaj.synth._LEVELS.values()
    assert all(rows.answers for rows in levels)
    # a reset empties every held level's answers
    reset()
    assert not any(rows.answers for rows in levels)
    nets = call()
    assert [truth_table(net).to_int() for net in nets] == (
        layer_pairs.class_targets()[3])
    assert all(rows.answers for rows in levels)
    # levels that keep no answers leave a reset nothing to do
    monkeypatch.setattr(qcamaj.synth, "_LEVELS",
                        {"key": [types.SimpleNamespace()]})
    reset()


def test_class_cases_hold_every_target_of_their_class():
    # the default budget's minimum gate counts: 8 targets need no gate
    sizes = {c: len(t) for c, t in layer_pairs.class_targets().items()}
    assert sizes == {0: 8, 1: 96, 2: 120, 3: 32}


def test_the_cli_class_2_case_asks_synth_for_each_class_2_target(
        monkeypatch):
    plan = layer_pairs.cases(qcamaj, [])
    seen = []
    monkeypatch.setattr(qcamaj.cli, "main",
                        lambda argv: seen.append(argv) or 0)
    call, reset = plan["cli synth class 2"]
    assert reset is None and call() == [0] * 120
    assert seen == [
        ["synth", format_minterms(TruthTable.from_int(3, t).minterms()),
         "--format", "records"]
        for t in layer_pairs.class_targets()[2]]
    # the heavy tag's shape: each class-3 target, each answered
    seen.clear()
    call, reset = plan["cli synth class 3 warm"]
    assert reset is None and call() == [0] * 32
    assert seen == [
        ["synth", format_minterms(TruthTable.from_int(3, t).minterms()),
         "--format", "records"]
        for t in layer_pairs.class_targets()[3]]
    # class 0: the constants and literals, each answered with no gate
    call, reset = plan["synth class 0 warm"]
    nets = call()
    assert reset is None and [truth_table(net).to_int() for net in nets] == (
        layer_pairs.class_targets()[0])
    assert all(cost(net).levels == 0 for net in nets)
    # class 3: the tie-heavy path, each target answered with three gates
    call, reset = plan["synth class 3 warm"]
    nets = call()
    assert reset is None and [truth_table(net).to_int() for net in nets] == (
        layer_pairs.class_targets()[3])
    assert all(cost(net).maj3_count + cost(net).maj5_count == 3
               for net in nets)


def test_the_check_requests_cli_cases_run_verify_and_audit_tables(
        monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    argvs = layer_pairs.check_argvs()
    import workloads
    sim_gate = [r.argv for r in workloads.CheckPlan(1, None).round(0)
                if r.tag == "sim-gate"]
    for name in (set(sys.modules) - before) & {"workloads", "reference"}:
        del sys.modules[name]
    assert len(argvs) == 12
    assert all(argv[0] == "verify" and argv[-2:] == ["--format", "records"]
               for argv in argvs)
    plan = layer_pairs.cases(qcamaj, argvs)
    seen = []
    monkeypatch.setattr(qcamaj.cli, "main",
                        lambda argv: seen.append(argv) or 0)
    call, reset = plan["cli verify check-requests"]
    assert reset is None and call() == [0] * 12
    assert seen == argvs
    seen.clear()
    call, reset = plan["cli audit-tables"]
    assert reset is None and call() == 0
    assert seen == [["audit-tables", "--format", "records"]]
    # every gate row the workload asks for, in the tool's own order
    seen.clear()
    call, reset = plan["cli sim gate"]
    assert reset is None and call() == [0] * 44
    assert sorted(seen) == sorted(sim_gate)
    assert len(set(map(tuple, seen))) == 44


def test_the_format_expr_case_writes_every_atlas_answer():
    plan = layer_pairs.cases(qcamaj, [])
    call, reset = plan["format_expr atlas"]
    entries = qcamaj.synth.synthesize_all_3var()
    assert reset is None and call() == [e.expression for e in entries]
    assert len(entries) == 256
