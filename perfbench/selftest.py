"""Self-tests of the benchmark itself: seeded inputs and the checker.

    python3 perfbench/selftest.py

The corruption tests take real records output from qcamaj.cli.main
(imported from the checkout's src/), alter one answer and require the
checker to count it as a failure.
"""

import contextlib
import io
import json
import shlex
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNTS = reference.load_counts()


def inputs(workload, seed, rounds=3):
    plan = workloads.PLANS[workload](seed, COUNTS)
    return [(req.kind, req.argv, repr(req.expect), req.tag)
            for r in range(rounds) for req in plan.round(r)]


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = CLI.main(argv)
    return code, out.getvalue()


def set_field(out, key, value):
    lines = [f"field {key}={shlex.quote(value)}"
             if line.startswith(f"field {key}=") else line
             for line in out.splitlines()]
    assert lines != out.splitlines(), f"no field {key}"
    return "\n".join(lines) + "\n"


def set_row(out, index, key, value):
    lines = out.splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith("row ")]
    pairs = dict(p.split("=", 1) for p in shlex.split(lines[rows[index]])[1:])
    assert key in pairs, f"no column {key}"
    pairs[key] = value
    lines[rows[index]] = "row " + " ".join(
        f"{k}={shlex.quote(v)}" for k, v in pairs.items())
    return "\n".join(lines) + "\n"


class Inputs(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for workload in workloads.PLANS:
            self.assertEqual(inputs(workload, 7), inputs(workload, 7))

    def test_different_seeds_give_different_inputs(self):
        for workload in ("synth-requests", "check-requests"):
            self.assertNotEqual(inputs(workload, 7), inputs(workload, 8),
                                workload)
        # the atlas commands are fixed; the seed picks which budget leads
        firsts = {inputs("atlas", seed, 1)[0][3] for seed in range(10)}
        self.assertEqual(firsts, set(workloads.ATLAS_BUDGETS))

    def test_every_synth_class_appears_in_every_round(self):
        plan = workloads.SynthPlan(3, COUNTS)
        for r in range(4):
            tags = {req.tag for req in plan.round(r)}
            for c in range(4):
                self.assertIn(f"class{c}/default", tags)
                self.assertIn(f"class{c}/max-gates-2", tags)

    def test_half_the_verify_requests_are_flipped(self):
        reqs = [q for q in workloads.CheckPlan(5, COUNTS).round(0)
                if q.kind == "verify"]
        flipped = [q for q in reqs
                   if reference.minterms(q.expect["table"]) != q.expect["given"]]
        self.assertEqual(len(flipped), len(reqs) // 2)


class Reference(unittest.TestCase):
    def test_evaluator_and_census(self):
        ev = reference.evaluate("M(M(A,B,0),C,1)'", "ABC")
        self.assertEqual(reference.minterms(ev.table), {0, 2, 4})
        self.assertEqual(ev.census(), {"maj3": 2, "maj5": 0, "inv": 1,
                                       "gates": 3, "levels": 2})
        shared = reference.evaluate("M5(M(A,B,C),M(A,B,C)',A,B,C)", "ABC")
        self.assertEqual((shared.maj3, shared.maj5, shared.inv), (1, 1, 1))

    def test_frozen_counts_have_the_published_distribution(self):
        dist = {}
        for c in COUNTS["default"]:
            dist[c] = dist.get(c, 0) + 1
        self.assertEqual(dist, reference.DEFAULT_DISTRIBUTION)
        for t in range(256):
            two = COUNTS["max-gates-2"][t]
            self.assertEqual(two, COUNTS["default"][t]
                             if COUNTS["default"][t] <= 2 else None)

    def test_tail_percentile_leaves_ten_requests_beyond(self):
        self.assertEqual(run.tail(list(range(100))), (90, 89))
        self.assertEqual(run.tail(list(range(6))), (100, 5))


class Checker(unittest.TestCase):
    def assertCaught(self, kind, expect, code, out):
        self.assertTrue(reference.CHECKS[kind](expect, code, out),
                        "corrupted answer passed the check")

    def test_verify_flipped_minterm_is_a_failure(self):
        req = next(q for q in workloads.CheckPlan(2, COUNTS).round(0)
                   if q.kind == "verify")
        code, out = call(req.argv)
        self.assertEqual(reference.check_verify(req.expect, code, out), [])
        computed = reference.minterms(req.expect["table"]) ^ {0}
        self.assertCaught("verify", req.expect, code, set_field(
            out, "computed", reference.format_minterms(computed)))
        self.assertCaught("verify", req.expect, 1 - code, out)

    def test_synth_gate_count_one_higher_is_a_failure(self):
        t = COUNTS["default"].index(2)
        spec = reference.format_minterms(reference.minterms(t))
        expect = {"table": t, "min_gates": 2}
        code, out = call(["synth", spec, "--format", "records"])
        self.assertEqual(reference.check_synth(expect, code, out), [])
        _, fields, _ = reference.parse_records(out)
        bumped = set_field(out, "maj3", str(int(fields["maj3"]) + 1))
        self.assertCaught("synth", expect, code,
                          set_field(bumped, "gates",
                                    str(int(fields["gates"]) + 1)))
        # a claimed "not found" for a reachable target
        self.assertCaught("synth", expect, 1,
                          set_field(out, "result", "not found within budget"))

    def test_atlas_row_corruption_is_a_failure(self):
        expect = {"budget": "max-gates-2", "min_gates": COUNTS["max-gates-2"]}
        code, out = call(["atlas", "--max-gates", "2", "--format", "records"])
        self.assertEqual(reference.check_atlas(expect, code, out), [])
        t = COUNTS["max-gates-2"].index(1)
        self.assertCaught("atlas", expect, code, set_row(out, t, "maj3", "2"))
        self.assertCaught("atlas", expect, code,
                          set_row(out, t, "expression", "M(A,B,C)"))

    def test_sim_wrong_readout_is_a_failure(self):
        expect = {"gate": "maj3", "bits": "110", "cells": None}
        code, out = call(["sim", "maj3", "110", "--format", "records"])
        self.assertEqual(reference.check_sim(expect, code, out), [])
        self.assertCaught("sim", expect, code, set_field(out, "readout", "0"))

    def test_adders_and_audit_corruption_is_a_failure(self):
        code, out = call(["adders", "--format", "records"])
        self.assertEqual(reference.check_adders(None, code, out), [])
        self.assertCaught("adders", None, code, set_row(out, 0, "inv", "2"))
        code, out = call(["audit-tables", "--format", "records"])
        self.assertEqual(reference.check_audit(None, code, out), [])
        self.assertCaught("audit-tables", None, code,
                          set_row(out, 0, "verdict", "not-equivalent"))


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_the_runs_print(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(per_layer, spans.UNITS)

        class Fake:
            latencies = [0.001 * (i + 1) for i in range(30)]
            tags = ["x", "y"] * 15
        e2e, _, _ = run.end_to_end(Fake, 0.1, "x", 1.0, ())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: u for k, (_, u) in e2e.items()})
        names = {w["name"] for w in spec["workloads"]}
        self.assertLessEqual(names, set(workloads.PLANS))


if __name__ == "__main__":
    CLI = run.import_package()
    unittest.main()
