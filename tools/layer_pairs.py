"""Time library calls of two checkouts side by side, in one process.

    python3 tools/layer_pairs.py --parent ../parent --rounds 15 \
        --out layers.json

`--parent` is a checkout of the commit to compare against (made with
`git clone` or `git archive`); the other side is the checkout this
script sits in.  Each tree's `qcamaj` is imported under its own package
name, so each side keeps its own level cache (`synth._LEVELS`).  Every
round times each case once per side, one call each; odd rounds run the
parent first, even rounds the change.  A cold case clears its side's
level cache first, and a warm case makes its call once untimed.  The
cases:

- `synthesize` on table 66, warm and cold, and on table 24, warm;
- table 180 under `SearchBudget(5, 5, False)`, cold;
- the default atlas (`synthesize_all_3var`), cold;
- `cli.main` on `synth "sum(1,6)" --format records`, warm, and on
  `sim wire 1 --length 1000 --format records`, output discarded.

The output JSON holds, per case, both sides' medians and quartiles in
ms, the rounds the change won, the parent's IQR and the medians' gap in
it (the summary `tools/bench_pairs.py` gives each end-to-end metric),
then every round's times.  Stdlib only; a round takes about 1 s.
"""

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import pair_stats  # noqa: E402

CHANGE = Path(__file__).resolve().parent.parent


def load_tree(tree: Path, name: str):
    """The qcamaj package under tree/src, imported as `name`."""
    src = tree / "src" / "qcamaj"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def cases(q) -> dict:
    """Case name -> (warm, call) on package q; a cold case (warm False)
    clears the level cache before its call."""
    synth, table = q.synth, q.truthtable.TruthTable.from_int

    def cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return q.cli.main([*argv, "--format", "records"])

    return {
        "synth 66 warm": (True, lambda: synth.synthesize(table(3, 66))),
        "synth 66 cold": (False, lambda: synth.synthesize(table(3, 66))),
        "synth 24 warm": (True, lambda: synth.synthesize(table(3, 24))),
        "synth 180 (5, 5, False) cold": (False, lambda: synth.synthesize(
            table(3, 180), synth.SearchBudget(5, 5, False))),
        "atlas cold": (False, synth.synthesize_all_3var),
        "cli synth sum(1,6)": (True, lambda: cli("synth", "sum(1,6)")),
        "cli sim wire 1 --length 1000": (
            True, lambda: cli("sim", "wire", "1", "--length", "1000")),
    }


def time_case(q, warm: bool, call) -> float:
    """One timed call in ms, after its warm-up or its cache clear."""
    if warm:
        call()
    else:
        q.synth._LEVELS.clear()
    gc.collect()
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1000.0


def summarize(times: dict) -> dict:
    """Per case, pair_stats over its rounds' (parent, change) ms."""
    return {case: pair_stats([(r["parent"], r["change"]) for r in rounds])
            for case, rounds in times.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the commit to compare against")
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2 for quartiles")
    sides = {"parent": load_tree(args.parent.resolve(), "qcamaj_parent"),
             "change": load_tree(CHANGE, "qcamaj_change")}
    plans = {side: cases(q) for side, q in sides.items()}
    times = {case: [] for case in plans["change"]}
    for k in range(1, args.rounds + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for case, rounds in times.items():
            ms = {side: time_case(sides[side], *plans[side][case])
                  for side in order}
            rounds.append(ms)
        print(f"round {k}: " + ", ".join(
            f"{case} {r[-1]['parent']:.2f}/{r[-1]['change']:.2f}"
            for case, r in times.items()), flush=True)
    report = {
        "what": f"in-process ms per call of the parent checkout and of "
                f"this change, {args.rounds} rounds; odd rounds ran the "
                f"parent first, even rounds the change",
        "host": f"Python {platform.python_version()}, "
                f"{platform.platform()}; both trees in one process",
        "summary": summarize(times),
        "rounds": times,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
