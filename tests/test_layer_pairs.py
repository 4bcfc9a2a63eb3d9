"""tools/layer_pairs on synthetic timings: nothing is timed."""

import importlib.util
from pathlib import Path

import pytest

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


def test_higher_is_better_turns_the_comparison():
    stats = layer_pairs.pair_stats([(1.0, 2.0), (2.0, 3.0), (3.0, 1.0)],
                                   "higher")
    assert stats["change_better_in_pairs"] == "2 of 3"
    assert stats["median_loss"] == 0.0
    assert stats["gain_in_parent_iqrs"] == 0.0

