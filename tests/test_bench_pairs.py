"""tools/bench_pairs on synthetic runs: no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "heavy_p50_ms", "better": "lower", "bound": 0.25}]


def run(seed, side, heavy, wire, gate, scale):
    lines = [
        "req_tail_ms is p99 of 100 requests; heavy requests are 'long-wire'",
        f"long-wire            n=10    p50={wire:10.3f} "
        f"min=     1.000 max=    20.000 ms",
        f"sim-gate             n=90    p50={gate:10.3f} "
        f"min=     0.100 max=     2.000 ms",
        f"calibration: text kernel median 1.5 ms over 200 samples, "
        f"reference 1.4 ms, scale {scale} for setup_s, req_p50_ms",
        "rounds 10 in 55.00 s; setup_s 0.1000 s",
    ]
    return {"workload": "check-requests", "seed": seed, "side": side,
            "attempted": 100, "stdout_lines": lines,
            "metrics": {"heavy_p50_ms": heavy}}


def test_summarize_reports_each_tags_median_p50_and_pairs_won():
    runs = []
    for seed in range(1, 5):
        runs.append(run(seed, "parent", 9.0 + seed, 10.0 + seed, 0.30, 1.0))
        # the change wins every long-wire pair; its sim-gate runs met a
        # slower host, which their calibration scale takes out
        runs.append(run(seed, "change", 7.0 + seed, 8.0 + seed,
                        0.40 if seed == 4 else 0.32, 0.9))
    summary = bench_pairs.summarize(runs, METRICS)["check-requests"]
    tags = summary["tags_p50_ms"]
    assert list(tags) == ["long-wire", "sim-gate"]
    assert tags["long-wire"]["measured"] == {
        "parent_median": 12.5, "change_median": 10.5,
        "change_better_in_pairs": "4 of 4"}
    assert tags["long-wire"]["scaled"] == {
        "parent_median": 12.5, "change_median": pytest.approx(9.45),
        "change_better_in_pairs": "4 of 4"}
    assert tags["sim-gate"]["measured"] == {
        "parent_median": 0.3, "change_median": 0.32,
        "change_better_in_pairs": "0 of 4"}
    assert tags["sim-gate"]["scaled"] == {
        "parent_median": 0.3, "change_median": pytest.approx(0.288),
        "change_better_in_pairs": "3 of 4"}
    heavy = summary["heavy_p50_ms"]
    assert heavy["parent_median"] == 11.5
    assert heavy["change_median"] == 9.5
    assert heavy["change_better_in_pairs"] == "4 of 4"
    assert summary["attempted_median"] == {"parent": 100, "change": 100}


def test_a_failed_run_keeps_the_runs_before_it(tmp_path, monkeypatch):
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((workload, seed))
        if len(calls) == 3:
            raise bench_pairs.RunFailed(f"{workload} seed {seed} printed no "
                                        f"result (exit 1):\nboom")
        return {"correct": True, "attempted": 1, "failed": 0,
                "stdout_lines": [], "metrics": {"heavy_p50_ms": 1.0}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "refresh_bytecode", lambda tree: None)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", str(tmp_path), "--out", str(out)])
    assert exit_.value.code not in (None, 0)
    report = json.loads(out.read_text())
    assert list(report) == ["what", "command", "host", "incomplete", "runs"]
    assert len(report["runs"]) == 2
    assert report["incomplete"].startswith("stopped after 2 runs: ")
    assert report["incomplete"].endswith("(exit 1):\nboom")
