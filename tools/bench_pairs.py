"""Run the benchmark in alternating pairs on two checkouts and summarize.

    python3 tools/bench_pairs.py --parent ../parent --pairs 10 \
        --out BENCH_11.json

`--parent` is a checkout of the commit to compare against (made with
`git clone` or `git archive`); the other side is the checkout this
script sits in.  Pair k runs `perfbench/run.py --seed k` on every
workload that BENCHMARK.json lists, for its `run_seconds`, once per
side, one run at a time; odd seeds run the parent first, even seeds
the change.  The output JSON holds, per workload, both sides' median
number of requests attempted (a run that completes more requests keeps
more latencies, so its `peak_rss_mb` reads higher); per request tag,
both sides' median of the runs' p50, measured and scaled by each run's
calibration, and the pairs the change won; and, per end-to-end metric,
both sides' medians and quartiles, the median relative loss beside the
metric's bound, the number of pairs the change won, whether every change run
beat every parent run, and the parent's interquartile range and how many
of them the medians lie apart (`pair_stats`, which
`tools/layer_pairs.py` shares); then every run's metrics and the lines
of its report.

Before the first run both trees' bytecode caches are brought up to
date.  perfbench/run.py times fresh imports for `setup_s`; with
PYTHONDONTWRITEBYTECODE set, a tree whose cache is older than its
source compiles the edited modules on every timed import, which skews
`setup_s` against that side alone.

A run that prints no result stops the pairs: the output JSON then holds
the runs so far and an `incomplete` message with that run's stderr in
place of the summary, and the script exits non-zero.

Stdlib only.  Ten pairs of two 55 s workloads take about 40 minutes.
"""

import argparse
import compileall
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent


def refresh_bytecode(tree: Path):
    """Bring the cache of what `setup_s` imports up to date."""
    if not compileall.compile_dir(tree / "src", quiet=1):
        raise SystemExit(f"cannot compile {tree / 'src'}")


class RunFailed(Exception):
    """A benchmark run that printed no result."""


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RunFailed(f"{tree}: {workload} seed {seed} printed no "
                        f"result (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    # the report between the machine facts and the fail ratio
    first = next(i for i, line in enumerate(lines)
                 if line.startswith("machine ")) + 1
    last = next(i for i, line in enumerate(lines)
                if line.startswith("fail_ratio "))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "stdout_lines": [line.strip() for line in lines[first:last]],
            "metrics": {k: m["value"]
                        for k, m in result["metrics"].items()}}


# a run's report line per request tag, e.g. "long-wire  n=175  p50=  10.453
# min= ... ms", in measured times; and the calibration line whose scale the
# run applied to some of its metrics, e.g. "... scale 0.8992 for setup_s, ..."
TAG_LINE = re.compile(r"(\S+)\s+n=\d+\s+p50=\s*([-+.\deE]+)\s.*ms$")
SCALE = re.compile(r"calibration: .* scale ([-+.\deE]+) for ")


def tag_medians(runs: list[dict]) -> dict:
    """Per request tag: both sides' median p50 and the pairs the change
    won, so a gain can be placed on the requests that carry it.  Each is
    given as measured and scaled by the run's calibration (host speed
    drifts between runs; the kernels never call qcamaj)."""
    p50 = {}    # tag -> seed -> side -> (measured, scaled) ms
    for r in runs:
        lines = r["stdout_lines"]
        scale = next((float(m[1]) for m in map(SCALE.match, lines) if m), 1.0)
        for m in filter(None, map(TAG_LINE.match, lines)):
            ms = float(m[2])
            p50.setdefault(m[1], {}).setdefault(r["seed"], {})[
                r["side"]] = (ms, ms * scale)
    tags = {}
    for tag, pairs in sorted(p50.items()):
        pairs = [p for p in pairs.values() if len(p) == 2]
        tags[tag] = {kind: {
            "parent_median": statistics.median(p["parent"][k] for p in pairs),
            "change_median": statistics.median(p["change"][k] for p in pairs),
            "change_better_in_pairs":
                f"{sum(p['change'][k] < p['parent'][k] for p in pairs)} "
                f"of {len(pairs)}",
        } for k, kind in enumerate(("measured", "scaled"))}
    return tags


def pair_stats(pairs: list[tuple[float, float]], better: str = "lower"
               ) -> dict:
    """Both sides' medians and quartiles over (parent, change) pairs of
    one metric, the median loss, the pairs the change won, whether every
    change run beat every parent run, and the parent's IQR with the
    medians' gap in it.  `better` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    q_parent = statistics.quantiles(parent, n=4)
    q_change = statistics.quantiles(change, n=4)
    won = sum(sign * c < sign * p for p, c in pairs)
    iqr = q_parent[2] - q_parent[0]
    m_parent = statistics.median(parent)
    m_change = statistics.median(change)
    gap = sign * (m_parent - m_change)
    return {
        "parent_median": m_parent,
        "change_median": m_change,
        # the median loss (negative: a gain) as a share of the parent's
        # median
        "median_loss": -gap / m_parent if m_parent else None,
        "parent_quartiles": [q_parent[0], q_parent[2]],
        "change_quartiles": [q_change[0], q_change[2]],
        "parent_iqr": iqr,
        "change_better_in_pairs": f"{won} of {len(pairs)}",
        "every_change_run_better":
            max(sign * v for v in change) < min(sign * v for v in parent),
        # the median gain (negative: a loss) in parent IQRs
        "gain_in_parent_iqrs": gap / iqr if iqr else None,
    }


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        rows = summary[workload] = {"attempted_median": {
            side: statistics.median(r["attempted"] for r in mine
                                    if r["side"] == side)
            for side in ("parent", "change")},
            "tags_p50_ms": tag_medians(mine)}
        for metric in metrics:
            name = metric["name"]
            # the median loss beside the bound BENCHMARK.json sets it
            rows[name] = {"bound": metric["bound"], **pair_stats(
                [(p["parent"][name], p["change"][name])
                 for p in pairs.values()], metric["better"])}
    return summary


def main(argv=None):
    bench = json.loads((CHANGE / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the commit to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": CHANGE}
    for tree in trees.values():
        refresh_bytecode(tree)

    runs = []
    failure = None
    try:
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    run = run_once(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed,
                                 "side": side, "ran_first": side == order[0],
                                 **run})
                    print(f"seed {seed} {workload} {side}: "
                          + json.dumps(run["metrics"]), flush=True)
    except RunFailed as e:
        failure = f"stopped after {len(runs)} runs: {e}"

    report = {
        "what": f"perfbench/run.py end-to-end metrics of the parent "
                f"checkout and of this change, {', '.join(workloads)}, one "
                f"pair per seed 1-{args.pairs}; odd seeds ran the parent "
                f"first, even seeds the change",
        "command": f"python3 perfbench/run.py --workload <workload> "
                   f"--seed <seed> --seconds {seconds:g} --trace 0",
        "host": f"Python {platform.python_version()}, "
                f"{platform.platform()}; each side run from its own "
                f"checkout, one run at a time, bytecode caches refreshed "
                f"first",
    }
    if failure:
        report["incomplete"] = failure
    else:
        report["summary"] = summarize(runs, bench["end_to_end"])
    report["runs"] = runs
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if failure:
        raise SystemExit(failure)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
