"""Run one qcamaj benchmark workload and print its metrics.

    python3 perfbench/run.py --workload check-requests --seed 1 \
        --seconds 55 --trace 0

Commands go through qcamaj.cli.main(argv) with --format records, in this
process and thread, as a closed loop with one client: the next command
is issued only after the previous one returned.  Every answer is checked
against the benchmark's own reference (reference.py), never against the
package.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
The exit code is 0 only when every answer was correct.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
ELAPSED = re.compile(r" elapsed_ms=\S*")


def machine_facts():
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            name = commit[5:]
            loose, packed = ROOT / ".git" / name, ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def import_package():
    if not (SRC / "qcamaj" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no qcamaj sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcamaj.cli
    if Path(qcamaj.cli.__file__).resolve().parent != SRC / "qcamaj":
        raise SystemExit(f"perfbench: imported qcamaj from "
                         f"{qcamaj.cli.__file__}, not from {SRC}")
    return qcamaj.cli


def measure_setup():
    """Median seconds for a fresh interpreter to import qcamaj.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import qcamaj.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        t = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        if i:   # the first run writes the bytecode cache
            times.append(perf_counter() - t)
    return statistics.median(times)


class Client:
    """Issues requests one at a time and checks every answer."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies = []     # seconds, in issue order
        self.tags = []
        self.failed = 0
        self.round0 = hashlib.sha256()

    def issue(self, req, r, record=True):
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = perf_counter()
            try:
                code = self.cli.main(req.argv)
            except Exception:   # counted as a failed request
                code, error = None, traceback.format_exc()
            dt = perf_counter() - t
        text = out.getvalue()
        if error is None:
            try:
                problems = reference.CHECKS[req.kind](req.expect, code, text)
            except (ValueError, KeyError) as e:
                problems = [f"unreadable output: {e!r}"]
        else:
            problems = [error]
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {req.argv[:3]}...: {problems[:3]}",
                      file=sys.stderr)
        if record:
            self.latencies.append(dt)
            self.tags.append(req.tag)
            if r == 0:
                self.round0.update(ELAPSED.sub("", text).encode())
        return dt


def run_rounds(plan, seconds, do_round):
    """Run whole rounds until the next one would end past `seconds`,
    and at least the plan's min_rounds."""
    start = perf_counter()
    walls = []
    r = 0
    while r < plan.min_rounds or \
            (perf_counter() - start) + statistics.fmean(walls) <= seconds:
        t = perf_counter()
        reqs = plan.round(r)
        gc.collect()
        do_round(r, reqs)
        walls.append(perf_counter() - t)
        r += 1
    return r, perf_counter() - start


def tail(sorted_ms):
    """(percentile, value): the highest whole percentile with at least
    ten requests beyond it by nearest rank, or the maximum if there are
    too few requests for one."""
    n = len(sorted_ms)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, sorted_ms[rank - 1]
    return 100, sorted_ms[-1]


def end_to_end(client, setup_s, heavy, scale, scaled):
    """Gated metrics, those named in `scaled` at reference speed (times
    multiplied by `scale`), plus printed-only figures as measured."""
    ms = sorted(1000.0 * x for x in client.latencies)
    by_tag = {}
    for tag, dt in zip(client.tags, client.latencies):
        by_tag.setdefault(tag, []).append(1000.0 * dt)
    light = [1000.0 * dt for tag, dt in zip(client.tags, client.latencies)
             if tag != heavy]
    p, tail_ms = tail(ms)
    measured = {
        "setup_s": (setup_s, "s"),
        "req_p50_ms": (statistics.median(light), "ms"),
        "req_tail_ms": (tail_ms, "ms"),
        "heavy_p50_ms": (statistics.median(by_tag[heavy]), "ms"),
        "req_per_s": (len(ms) / sum(client.latencies), "1/s"),
    }
    metrics = {k: ((v / scale if u == "1/s" else v * scale) if k in scaled
                   else v, u) for k, (v, u) in measured.items()}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    info = {f"measured {k}": measured[k] for k in scaled}
    info["measured req_max_ms"] = (ms[-1], "ms")
    if set(by_tag) == set(workloads.ATLAS_BUDGETS):
        for b, times in by_tag.items():
            info[f"measured atlas_{b}_s"] = (
                statistics.median(times) / 1000.0, "s")
        info["measured functions_per_s"] = (
            256 * len(ms) / sum(client.latencies), "1/s")
    notes = [f"req_tail_ms is p{p} of {len(ms)} requests; heavy requests "
             f"are {heavy!r}"]
    for tag, times in sorted(by_tag.items()):
        notes.append(f"  {tag:<20} n={len(times):<5} "
                     f"p50={statistics.median(times):10.3f} "
                     f"min={min(times):10.3f} max={max(times):10.3f} ms")
    return metrics, info, notes


def run_traced(plan, args, client, counts):
    """Run every round plain and traced; return (rounds, wall, metrics)."""
    tracer = spans.Tracer()
    timed = {"traced": 0.0, "untraced": 0.0, "wall": 0.0}

    def do_round(r, reqs):
        # alternate which pass goes first so drift hits both equally
        for traced in ((True, False) if r % 2 else (False, True)):
            if traced:
                tracer.install()
            try:
                t = perf_counter()
                for i, req in enumerate(reqs):
                    tracer.request = (r, i)
                    timed["traced" if traced else "untraced"] += \
                        client.issue(req, r, record=traced)
                if traced:
                    timed["wall"] += perf_counter() - t
            finally:
                tracer.uninstall()

    rounds, wall = run_rounds(plan, args.seconds, do_round)
    table, per_layer = spans.summarize(tracer.spans, timed["wall"],
                                       counts["default"])
    per_layer["trace.overhead_ratio"] = timed["traced"] / timed["untraced"]
    print(f"{'layer':<11}{'calls':>8}{'busy_ms':>13}{'self_ms':>13}"
          f"{'self_share':>12}")
    for layer, row in table.items():
        print(f"{layer:<11}{row['calls']:>8}{row['busy_ms']:>13.1f}"
              f"{row['self_ms']:>13.1f}"
              f"{row['self_ms'] / (10.0 * timed['wall']):>11.1f}%")
    print(f"{'traced wall':<19}{1000.0 * timed['wall']:>26.1f}")
    out = Path(".perfbench") / f"trace-{args.workload}-seed{args.seed}.json"
    spans.dump(out, tracer.spans)
    print(f"spans written to {out}")
    return rounds, wall, {k: {"value": v, "unit": spans.UNITS[k]}
                          for k, v in per_layer.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="qcamaj benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_package()
    counts = reference.load_counts()
    plan = workloads.PLANS[args.workload](args.seed, counts)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} loop=closed clients=1")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    calibration = None
    if plan.kernel:
        calibration = calibrate.Calibration(plan.kernel)
        for _ in range(5):
            calibration.sample(force=True)
    setup_s = measure_setup()
    client = Client(cli)

    info = {}
    if args.trace:
        rounds, wall, metrics = run_traced(plan, args, client, counts)
        attempted = 2 * len(client.latencies)
    else:
        def do_round(r, reqs):
            for req in reqs:
                client.issue(req, r)
                if calibration:
                    calibration.sample()

        rounds, wall = run_rounds(plan, args.seconds, do_round)
        e2e, info, notes = end_to_end(
            client, setup_s, plan.heavy,
            calibration.scale if calibration else 1.0, plan.scaled)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        for note in notes:
            print(note)
        if calibration:
            print(f"calibration: {plan.kernel} kernel median "
                  f"{calibration.kernel_ms:.3f} ms over "
                  f"{len(calibration.samples)} samples, reference "
                  f"{calibrate.REFERENCE_MS[plan.kernel]} ms, scale "
                  f"{calibration.scale:.4f} for {', '.join(plan.scaled)}")
        attempted = len(client.latencies)

    print(f"rounds {rounds} in {wall:.2f} s; setup_s {setup_s:.4f} s")
    print(f"outputs digest sha256={client.round0.hexdigest()} "
          f"(round 0 records, elapsed_ms stripped, seed {args.seed})")
    print(f"fail_ratio {client.failed / attempted:g} "
          f"({client.failed} of {attempted} requests failed)")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    for name, (value, unit) in info.items():
        print(f"  {name:<42} {value:>16.6g} {unit} (not gated)")
    print(json.dumps({"correct": client.failed == 0, "attempted": attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0 if client.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
