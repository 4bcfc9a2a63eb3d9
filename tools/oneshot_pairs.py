"""Time one-shot `python -m qcamaj` processes of two checkouts, paired.

    python3 tools/oneshot_pairs.py --parent ../parent --rounds 15 \
        --out oneshot.json

`--parent` is a checkout of the commit to compare against (made with
`git clone` or `git archive`); the other side is the checkout this
script sits in.  Every round runs each case once per side, each run a
new interpreter (`sys.executable`) with PYTHONPATH=<tree>/src and the
tree as its working directory, output discarded; odd rounds run the
parent first, even rounds the change.  A run reads the wall time from
spawn to exit, so it holds the interpreter's start, the import and the
command, as a user who runs `qcamaj` once sees them.

Before the first round both trees' bytecode caches are brought up to
date (`bench_pairs.refresh_bytecode`), and the timed runs set
PYTHONDONTWRITEBYTECODE=1, as perfbench's `setup_s` is measured: they
read the caches and write none, so no run compiles a module that a run
before it did not.

The cases (`cases`), each a fixed argv after the interpreter:

- `-c pass` and `-c "import qcamaj.cli"`, the floors a command stands on;
- `synth` on one target of each class 0 to 3 under the default budget
  (a class is a minimum gate count, as `tools/layer_pairs.py` reads
  it), and on table 180 under `--no-maj5 --max-gates 5 --max-levels 5`;
- `atlas` under the default budget and under that deep one;
- `verify` on one expression of the largest check-requests stratum:
  8 variables and 320 majority gates, the top of its range, subterms
  shared at rate 0.3, made by perfbench's `random_expression` under
  `random.Random(VERIFY_SEED)` and checked against its own minterms
  (`verify_argv`);
- `audit-tables`, `adders`, `sim maj5 10110` and `sim wire 1 --length
  1000`.

Every `qcamaj` case asks for `--format records`.  A run that exits
non-zero stops the script.  The output JSON holds per case both sides'
medians and quartiles in ms, the rounds the change won and the
parent's IQR (`bench_pairs.pair_stats`), and the median and quartiles
of each round's change/parent ratio, as `tools/layer_pairs.py` writes
them, then every round's ms.  Stdlib only; a round takes about 3 s.
"""

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import refresh_bytecode  # noqa: E402
from layer_pairs import summarize  # noqa: E402

CHANGE = Path(__file__).resolve().parent.parent

VERIFY_SEED = 1
DEEP = ["--no-maj5", "--max-gates", "5", "--max-levels", "5"]


def verify_argv() -> list[str]:
    """The verify case's argv after `-m qcamaj`."""
    sys.path.insert(0, str(CHANGE / "perfbench"))
    import reference
    import workloads
    names = "ABCDEFGH"
    text = workloads.random_expression(random.Random(VERIFY_SEED), names,
                                       320, 0.3)
    table = reference.evaluate(text, names).table
    return ["verify", text, reference.format_minterms(
        reference.minterms(table)), "--order", ",".join(names)]


def qcamaj(*argv) -> list[str]:
    return ["-m", "qcamaj", *argv, "--format", "records"]


def cases() -> dict[str, list[str]]:
    """Case name -> its argv after the interpreter."""
    return {
        "python -c pass": ["-c", "pass"],
        "import qcamaj.cli": ["-c", "import qcamaj.cli"],
        "synth class 0": qcamaj("synth", "sum(0,1,2,3)"),
        "synth class 1": qcamaj("synth", "sum(1)"),
        "synth class 2": qcamaj("synth", "sum(1,2)"),
        "synth class 3": qcamaj("synth", "sum(1,6)"),
        "synth 180 deep": qcamaj("synth", "sum(2,4,5,7)", *DEEP),
        "atlas": qcamaj("atlas"),
        "atlas deep": qcamaj("atlas", *DEEP),
        "verify 8 vars 320 gates": qcamaj(*verify_argv()),
        "audit-tables": qcamaj("audit-tables"),
        "adders": qcamaj("adders"),
        "sim maj5 10110": qcamaj("sim", "maj5", "10110"),
        "sim wire 1 --length 1000": qcamaj("sim", "wire", "1", "--length",
                                           "1000"),
    }


def run_ms(tree: Path, args: list[str]) -> float:
    """Wall ms of one `python <args>` process in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    ms = (time.perf_counter() - start) * 1000.0
    if proc.returncode:
        raise SystemExit(f"{tree}: {args[:4]} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')}")
    return ms


def one_round(trees: dict[str, Path], plan: dict, n: int) -> dict:
    """Case -> side -> ms of round n; odd rounds run the parent first."""
    order = ("parent", "change") if n % 2 else ("change", "parent")
    return {case: {side: run_ms(trees[side], args) for side in order}
            for case, args in plan.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the commit to compare against")
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2 for quartiles")
    trees = {"parent": args.parent.resolve(), "change": CHANGE}
    for tree in trees.values():
        refresh_bytecode(tree)
    plan = cases()
    times = {case: [] for case in plan}
    for n in range(1, args.rounds + 1):
        for case, ms in one_round(trees, plan, n).items():
            times[case].append(ms)
        print(f"round {n}: " + ", ".join(
            f"{case} {r[-1]['parent']:.0f}/{r[-1]['change']:.0f}"
            for case, r in times.items()), flush=True)
    summary = summarize(times)
    for case, s in summary.items():
        q1, q3 = s["ratio_quartiles"]
        print(f"{case:<26} {s['parent_median']:8.1f} ms "
              f"{s['change_median']:8.1f} ms  ratio "
              f"{s['ratio_median']:.3f} [{q1:.3f}-{q3:.3f}]")
    report = {
        "what": f"wall ms of one-shot processes of the parent checkout "
                f"and of this change, {args.rounds} rounds of one run per "
                f"case and side; odd rounds ran the parent first, even "
                f"rounds the change",
        "host": f"Python {platform.python_version()}, "
                f"{platform.platform()}",
        "cases": plan,
        "summary": summary,
        "rounds": times,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
