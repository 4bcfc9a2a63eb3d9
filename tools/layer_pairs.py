"""Time library calls of two checkouts side by side, in one process.

    python3 tools/layer_pairs.py --parent ../parent --rounds 15 \
        --out layers.json

`--parent` is a checkout of the commit to compare against (made with
`git clone` or `git archive`); the other side is the checkout this
script sits in.  Each tree's `qcamaj` is imported under its own package
name, so each side keeps its own level cache (`synth._LEVELS`).

Every round times a batch of k calls of each case on each side; odd
rounds run the parent first, even rounds the change.  k is set once per
case, before the rounds, from one untimed first call on each side:
enough calls for about BATCH_MS of the slower side (`calls_for`), the
same k for both.  Each call is timed on its own, and a batch reads the
mean.  A batch makes its call once, untimed, first; then a warm case
times its calls as they come, while a case with a reset runs it before
each call, outside the timed span: a cold case clears its side's level
cache, and a first-visit case empties every held level's answer memo
(`_Rows.answers`), so that its targets are scanned again.  The cases:

- `synthesize` on table 66, warm and cold, and on table 24, warm;
- table 180 under `SearchBudget(5, 5, False)`, cold;
- the default atlas (`synthesize_all_3var`), cold;
- `synthesize` on every target of class 0 (the constants and literals,
  which no gate makes), of class 1, of class 2 and of class 3 (the
  tie-heavy path), warm and first visit, and on every target of class
  3 under `--max-gates 2` (the not-found path), warm; a target's class
  is its minimum gate count under the default budget, read from
  `perfbench/ref_counts.json` (`class_targets`);
- `cli.main` on `synth "sum(1,6)" --format records`, warm, on
  `synth <target> --format records` for each of the 120 class-2 targets
  in turn, warm, the in-process shape of a synth-requests median
  request, and for each of the 32 class-3 targets in turn, warm, the
  shape of its heavy request, on the 12 `verify` argvs of round
  CHECK_ROUND of the check-requests workload under seed CHECK_SEED in
  turn, on `audit-tables --format records`, on `sim <gate> <bits>
  --format records` for each of the 44 gate rows in turn, the shape of
  a check-requests median request, and on `sim wire 1 --length 1000
  --format records`, output discarded;
- `CellGrid` on the cells of wires of 1,000, 512 and 64 cells and of the
  inverter, maj3 and maj5 gates, and `relax` on the 1,000-cell wire;
- `render_records` on the reports of the default atlas, `audit-tables`
  and `sim wire 1 --length 1000`;
- `format_expr` on every network the default atlas answers;
- `verify` at 3 and 8 variables: `parse_expr`, then `verify` against
  the expression's own table, as the `verify` command does;
- `parse_expr` on the 12 `verify` texts of round CHECK_ROUND of the
  check-requests workload under seed CHECK_SEED (`perfbench/workloads`),
  which share subterms and spell them out as the benchmark's do.

The output JSON holds each case's k, then per case both sides' medians
and quartiles in ms per call, the rounds the change won, the parent's
IQR and the medians' gap in it (the summary `tools/bench_pairs.py`
gives each end-to-end metric), and the median and quartiles of each
round's change/parent ratio, then every round's ms per call.  The two
sides of a round run seconds apart, so the ratio does not carry the
host's drift between rounds, which the parent's IQR does.  Stdlib only;
a round takes about 2 s.
"""

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import pair_stats  # noqa: E402

CHANGE = Path(__file__).resolve().parent.parent

# the check-requests round whose verify requests the parse and cli cases read
CHECK_SEED, CHECK_ROUND = 1, 0

# a batch runs calls for about this many ms, and at most MAX_CALLS calls
BATCH_MS = 20.0
MAX_CALLS = 10_000


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


def check_argvs() -> list[list[str]]:
    """The argv of each verify request of one check-requests round."""
    sys.path.insert(0, str(CHANGE / "perfbench"))
    import workloads
    plan = workloads.CheckPlan(CHECK_SEED, None)
    return [r.argv for r in plan.round(CHECK_ROUND) if r.kind == "verify"]


def check_texts(argvs=None) -> list[tuple[str, list[str]]]:
    """(text, names) of each verify argv, by default check_argvs()."""
    return [(argv[1], argv[4].split(","))
            for argv in (check_argvs() if argvs is None else argvs)]


def class_targets() -> dict[int, list[int]]:
    """Minimum gate count under the default budget -> the targets with
    that count, as perfbench's SynthPlan reads them."""
    counts = json.loads((CHANGE / "perfbench" / "ref_counts.json")
                        .read_text())["default"]["min_gates"]
    classes: dict[int, list[int]] = {}
    for t, c in enumerate(counts):
        classes.setdefault(c, []).append(t)
    return classes


def cases(q, argvs) -> dict:
    """Case name -> (call, reset) on package q, `argvs` being
    check_argvs(); reset, None for a warm case, runs before each timed
    call: a cold case's clears the level cache."""
    synth, table = q.synth, q.truthtable.TruthTable.from_int
    cellsim, render = q.cellsim, q.cli.render_records
    classes = {c: [table(3, t) for t in targets]
               for c, targets in class_targets().items()}
    synth_argvs = {c: [("synth", q.truthtable.format_minterms(spec.minterms()))
                       for spec in classes[c]] for c in (2, 3)}
    # every row of every gate, as the check-requests workload asks for them
    sim_gate_argvs = [("sim", gate, format(k, f"0{arity}b"))
                      for gate, (arity, _) in q.cli._GATES.items()
                      for k in range(1 << arity)]
    texts = check_texts(argvs)

    def synth_class(c, budget=None):
        return lambda: [synth.synthesize(spec, budget) for spec in classes[c]]

    cold = synth._LEVELS.clear

    def forget_answers():
        # a tree whose levels keep no answers has none to empty
        for levels in synth._LEVELS.values():
            for rows in levels:
                getattr(rows, "answers", {}).clear()

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return q.cli.main(argv)

    def cli(*argv):
        return run([*argv, "--format", "records"])

    def report(*argv):
        args = q.cli._parsers()[0].parse_args(argv)
        return args.func(args)[0]

    def verify(text, names):
        spec = q.network.truth_table(q.expr.parse_expr(text, names))
        return lambda: q.network.verify(q.expr.parse_expr(text, names),
                                        spec, names)

    # 8 variables: a chain of 64 maj3 gates, each over the one before,
    # a variable and another variable inverted
    text8 = "A"
    for k in range(1, 65):
        text8 = f"M({text8},{'ABCDEFGH'[k % 8]},{'ABCDEFGH'[(k + 3) % 8]}')"
    grids = {"wire 1000": cellsim.build_wire(1000, 1.0),
             "wire 512": cellsim.build_wire(512, 1.0),
             "wire 64": cellsim.build_wire(64, 1.0),
             "inverter": cellsim.build_inverter(1.0),
             "maj3": cellsim.build_maj3(1.0, -1.0, 1.0),
             "maj5": cellsim.build_maj5(1.0, -1.0, 1.0, -1.0, 1.0)}
    answers = [e.network for e in synth.synthesize_all_3var()
               if e.network is not None]
    reports = {"atlas": report("atlas"),
               "audit-tables": report("audit-tables"),
               "sim wire 1000": report("sim", "wire", "1", "--length",
                                       "1000")}
    return {
        "synth 66 warm": (lambda: synth.synthesize(table(3, 66)), None),
        "synth 66 cold": (lambda: synth.synthesize(table(3, 66)), cold),
        "synth 24 warm": (lambda: synth.synthesize(table(3, 24)), None),
        "synth 180 (5, 5, False) cold": (lambda: synth.synthesize(
            table(3, 180), synth.SearchBudget(5, 5, False)), cold),
        "atlas cold": (synth.synthesize_all_3var, cold),
        "synth class 0 warm": (synth_class(0), None),
        "synth class 1 warm": (synth_class(1), None),
        "synth class 2 warm": (synth_class(2), None),
        "synth class 3 warm": (synth_class(3), None),
        "synth class 3 first visit": (synth_class(3), forget_answers),
        "synth class 3 --max-gates 2 warm": (
            synth_class(3, synth.SearchBudget(max_gates=2)), None),
        "cli synth sum(1,6)": (lambda: cli("synth", "sum(1,6)"), None),
        "cli synth class 2": (
            lambda: [cli(*argv) for argv in synth_argvs[2]], None),
        "cli synth class 3 warm": (
            lambda: [cli(*argv) for argv in synth_argvs[3]], None),
        "cli verify check-requests": (
            lambda: [run(argv) for argv in argvs], None),
        "cli audit-tables": (lambda: cli("audit-tables"), None),
        "cli sim gate": (
            lambda: [cli(*argv) for argv in sim_gate_argvs], None),
        "cli sim wire 1 --length 1000": (
            lambda: cli("sim", "wire", "1", "--length", "1000"), None),
        **{f"CellGrid {name}": (lambda g=g: cellsim.CellGrid(g.cells), None)
           for name, g in grids.items()},
        "relax wire 1000": (lambda: cellsim.relax(grids["wire 1000"]), None),
        **{f"render_records {name}": (lambda r=r: render(r), None)
           for name, r in reports.items()},
        "format_expr atlas": (
            lambda: [q.network.format_expr(net) for net in answers], None),
        "verify 3 vars": (verify("M5(M(A,B,C)',M5(A,A,B,C,1),A,B,C)",
                                 list("ABC")), None),
        "verify 8 vars": (verify(text8, list("ABCDEFGH")), None),
        "parse_expr check-requests": (lambda: [
            q.expr.parse_expr(text, names) for text, names in texts], None),
    }


def calls_for(first_ms: float) -> int:
    """Calls in a batch of about BATCH_MS, given one call's ms."""
    if first_ms <= 0:
        return MAX_CALLS
    return max(1, min(MAX_CALLS, math.ceil(BATCH_MS / first_ms)))


def time_batch(call, reset, k: int) -> float:
    """Mean ms per call over k timed calls, after one untimed call, with
    reset(), unless it is None, run before each timed call."""
    call()
    gc.collect()
    total = 0.0
    for _ in range(k):
        if reset is not None:
            reset()
        start = time.perf_counter()
        call()
        total += time.perf_counter() - start
    return total * 1000.0 / k


def summarize(times: dict) -> dict:
    """Per case, pair_stats over its rounds' (parent, change) ms, and
    the median and quartiles of the rounds' change/parent ratios."""
    summary = {}
    for case, rounds in times.items():
        ratios = [r["change"] / r["parent"] for r in rounds]
        q = statistics.quantiles(ratios, n=4)
        summary[case] = {
            **pair_stats([(r["parent"], r["change"]) for r in rounds]),
            "ratio_median": statistics.median(ratios),
            "ratio_quartiles": [q[0], q[2]],
        }
    return summary


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
    argvs = check_argvs()
    plans = {side: cases(q, argvs) for side, q in sides.items()}
    calls = {case: calls_for(max(time_batch(*plans[side][case], 1)
                                 for side in sides))
             for case in plans["change"]}
    print("calls per batch: " + ", ".join(
        f"{case} {k}" for case, k in calls.items()), flush=True)
    times = {case: [] for case in calls}
    for n in range(1, args.rounds + 1):
        order = ("parent", "change") if n % 2 else ("change", "parent")
        for case, rounds in times.items():
            ms = {side: time_batch(*plans[side][case], calls[case])
                  for side in order}
            rounds.append(ms)
        print(f"round {n}: " + ", ".join(
            f"{case} {r[-1]['parent']:.2f}/{r[-1]['change']:.2f}"
            for case, r in times.items()), flush=True)
    report = {
        "what": f"in-process ms per call of the parent checkout and of "
                f"this change, {args.rounds} rounds of one batch of "
                f"calls_per_batch calls per case and side; odd rounds ran "
                f"the parent first, even rounds the change",
        "host": f"Python {platform.python_version()}, "
                f"{platform.platform()}; both trees in one process",
        "calls_per_batch": calls,
        "summary": summarize(times),
        "rounds": times,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
