"""tools/layer_pairs on synthetic timings: nothing is timed."""

import importlib.util
import types
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


def test_a_cold_batch_clears_the_cache_before_each_call():
    levels = {}
    q = types.SimpleNamespace(synth=types.SimpleNamespace(_LEVELS=levels))
    seen = []

    def call():
        seen.append(len(levels))
        levels[len(levels)] = "level"

    assert layer_pairs.time_batch(q, False, call, 3) >= 0.0
    assert seen == [0, 0, 0]
    # a warm batch makes one untimed call first and clears nothing
    seen.clear()
    layer_pairs.time_batch(q, True, call, 3)
    assert seen == [1, 2, 3, 4]
