"""Seeded request plans for the three workloads.

A plan hands out rounds.  Round r of a workload depends only on the seed
and r, so a run that completes more rounds repeats the same prefix.
Every request carries what the reference says its answer must be.

Sizes that set a request's cost (wire lengths, expression sizes) are
stratified, and inside a stratum they follow a golden-ratio sequence
with a seeded offset instead of independent draws.  Over a run's rounds
the sizes then cover each stratum evenly, so one seed's luck cannot
shift the run's total work by more than a round's worth.
"""

import random

import reference

GOLDEN = 0.6180339887498949

ATLAS_BUDGETS = {
    "default": [],
    "deep3": ["--no-maj5", "--max-gates", "5", "--max-levels", "5"],
}
SYNTH_BUDGETS = {
    "default": [],
    "max-gates-2": ["--max-gates", "2"],
}
# targets per round by minimum majority-gate count.  Class 0 and 1
# requests take ~2 ms; class 2 ones take 25 to 60 ms depending on the
# target, so six rounds of 20 walk through all 120 of them and the
# median sits inside that cluster instead of on the gap below it.  The
# one class-3 target is the ~6 s default-budget search.
SYNTH_PER_ROUND = {0: 1, 1: 4, 2: 20, 3: 1}
VERIFY_VARS = (5, 6, 7, 8)
VERIFY_GATES = ((20, 50), (50, 130), (130, 320))
WIRE_LENGTHS = ((8, 32), (32, 128), (128, 512), (512, 1000))
SIM_GATES = (("wire", 1), ("inverter", 1), ("maj3", 3), ("maj5", 5))


class Request:
    __slots__ = ("kind", "argv", "expect", "tag")

    def __init__(self, kind, argv, expect, tag):
        self.kind = kind
        self.argv = argv
        self.expect = expect
        self.tag = tag


def _round_rng(workload, seed, r):
    return random.Random(f"{workload}:{seed}:{r}")


class _Sequence:
    """Per-stratum golden-ratio points in [0, 1) with seeded offsets."""

    def __init__(self, workload, seed):
        self._rng = random.Random(f"{workload}:{seed}:offsets")
        self._offsets = {}

    def point(self, stratum, r):
        if stratum not in self._offsets:
            self._offsets[stratum] = self._rng.random()
        return (self._offsets[stratum] + r * GOLDEN) % 1.0


def _geometric(lo, hi, u):
    return int(round(lo * (hi / lo) ** u))


class AtlasPlan:
    """One sweep per round, alternating the default budget and deep3;
    the seed picks which comes first."""

    heavy = "default"
    min_rounds = 2      # one sweep of each budget
    kernel, scaled = None, ()

    def __init__(self, seed, counts):
        self.counts = counts
        self.first = random.Random(f"atlas:{seed}:order").randrange(2)

    def round(self, r):
        b = list(ATLAS_BUDGETS)[(self.first + r) % 2]
        return [Request("atlas",
                        ["atlas", *ATLAS_BUDGETS[b], "--format", "records"],
                        {"budget": b, "min_gates": self.counts[b]}, b)]


class SynthPlan:
    """Single-target synth requests stratified by minimum gate count,
    each target under the default budget and under --max-gates 2."""

    heavy = "class3/default"
    min_rounds = 1
    # the median is a class-2 request; the class-3 searches that set the
    # other times track no kernel
    kernel, scaled = "search", ("req_p50_ms",)

    def __init__(self, seed, counts):
        self.seed = seed
        self.counts = counts
        rng = random.Random(f"synth:{seed}:targets")
        self.classes = {}
        for c in SYNTH_PER_ROUND:
            members = [t for t, m in enumerate(counts["default"]) if m == c]
            rng.shuffle(members)
            self.classes[c] = members

    def round(self, r):
        reqs = []
        for c, k in SYNTH_PER_ROUND.items():
            members = self.classes[c]
            for i in range(r * k, (r + 1) * k):
                t = members[i % len(members)]
                spec = reference.format_minterms(reference.minterms(t))
                for b, flags in SYNTH_BUDGETS.items():
                    reqs.append(Request(
                        "synth", ["synth", spec, *flags, "--format", "records"],
                        {"table": t, "min_gates": self.counts[b][t]},
                        f"class{c}/{b}"))
        _round_rng("synth", self.seed, r).shuffle(reqs)
        return reqs


def random_expression(rng, names, gates, share):
    """Expression text with about `gates` majority gates.

    With probability `share` an operand repeats an earlier subterm's
    text, which the parser hash-conses into one node; otherwise it
    consumes an unused subterm or is a fresh literal.
    """
    free, seen = [], []

    def literal():
        if rng.random() < 0.04:
            return rng.choice("01")
        return rng.choice(names) + ("'" if rng.random() < 0.3 else "")

    def operand():
        u = rng.random()
        if seen and u < share:
            return rng.choice(seen)
        if free and u < share + 0.45:
            return free.pop(rng.randrange(len(free)))
        return literal()

    def gate(ops):
        text = ("M5(" if len(ops) == 5 else "M(") + ",".join(ops) + ")"
        return text + "'" if rng.random() < 0.15 else text

    for _ in range(gates):
        text = gate([operand() for _ in range(5 if rng.random() < 0.2 else 3)])
        free.append(text)
        if len(text) < 120:
            seen.append(text)
    while len(free) > 1:
        ops = [free.pop(rng.randrange(len(free)))
               for _ in range(min(3, len(free)))]
        free.append(gate(ops + [literal() for _ in range(3 - len(ops))]))
    return free[0]


class CheckPlan:
    """The non-synthesis commands: verify, audit-tables, adders, sim."""

    heavy = "long-wire"
    min_rounds = 1
    kernel, scaled = "text", ("setup_s", "req_p50_ms", "req_tail_ms",
                              "heavy_p50_ms", "req_per_s")

    def __init__(self, seed, counts):
        self.seed = seed
        self.seq = _Sequence("check", seed)

    def round(self, r):
        rng = _round_rng("check", self.seed, r)
        reqs = []
        flips = [True] * 6 + [False] * 6
        rng.shuffle(flips)
        strata = [(n, b) for n in VERIFY_VARS for b in VERIFY_GATES]
        for (n, (lo, hi)), flip in zip(strata, flips):
            names = "ABCDEFGH"[:n]
            gates = _geometric(lo, hi, self.seq.point(("verify", n, lo), r))
            share = 0.3 if rng.random() < 0.5 else 0.0
            text = random_expression(rng, names, gates, share)
            table = reference.evaluate(text, names).table
            given = reference.minterms(table)
            if flip:
                given = given ^ {rng.randrange(1 << n)}
            reqs.append(Request(
                "verify", ["verify", text, reference.format_minterms(given),
                           "--order", ",".join(names), "--format", "records"],
                {"table": table, "given": given}, "verify"))
        reqs.append(Request("audit-tables",
                            ["audit-tables", "--format", "records"],
                            None, "audit-tables"))
        reqs.append(Request("adders", ["adders", "--format", "records"],
                            None, "adders"))
        for gate, arity in SIM_GATES:
            for k in range(1 << arity):
                bits = format(k, f"0{arity}b")
                reqs.append(Request(
                    "sim", ["sim", gate, bits, "--format", "records"],
                    {"gate": gate, "bits": bits,
                     "cells": 5 if gate == "wire" else None}, "sim-gate"))
        for lo, hi in WIRE_LENGTHS:
            length = _geometric(lo, hi, self.seq.point(("wire", lo), r))
            bits = rng.choice("01")
            reqs.append(Request(
                "sim", ["sim", "wire", bits, "--length", str(length),
                        "--format", "records"],
                {"gate": "wire", "bits": bits, "cells": length},
                "long-wire" if lo == WIRE_LENGTHS[-1][0] else "wire"))
        rng.shuffle(reqs)
        return reqs


PLANS = {"atlas": AtlasPlan, "synth-requests": SynthPlan,
         "check-requests": CheckPlan}
