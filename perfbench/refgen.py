"""Regenerate perfbench/ref_counts.json, the frozen reference answers.

For every three-variable function (truth table as an 8-bit integer, bit k
is minterm k, variable A the most significant index bit) it records the
minimum number of majority gates under each budget the benchmark issues,
or null when no network fits the budget.

The search tracks functions only, never networks, and shares no code with
the package under test.  A chain is a tuple of (table, depth) gates;
operands come from the constants, the literals in both polarities and
earlier gates of the chain, as in the package's search space.  Chains are
merged when they hold the same set of (table, depth) pairs, which keeps
every depth the budget's level cap can still use.

    python3 perfbench/refgen.py            # rewrite ref_counts.json
    python3 perfbench/refgen.py --check    # exit 1 if the file is stale
"""

import argparse
import itertools
import json
import re
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "ref_counts.json"

# name -> (max_gates, max_levels, allow_maj5), as given on the command line
BUDGETS = {
    "default": (4, 3, True),
    "deep3": (5, 5, False),
    "max-gates-2": (2, 3, True),
}

N = 3
MASK = (1 << (1 << N)) - 1


def _maj(*xs):
    # ge[j] holds the rows where at least j operands seen so far are 1
    need = len(xs) // 2 + 1
    ge = [MASK] + [0] * need
    for x in xs:
        for j in range(need, 0, -1):
            ge[j] |= ge[j - 1] & x
    return ge[need]


def _operand_tuples(ncand, allow_maj5):
    yield from itertools.combinations(range(ncand), 3)
    if allow_maj5:
        yield from itertools.combinations(range(ncand), 5)
        for p in range(ncand):
            for rest in itertools.combinations(range(ncand), 3):
                if p not in rest:
                    yield (p, p) + rest


def min_gate_counts(max_gates, max_levels, allow_maj5):
    """Map every table to its minimum majority-gate count, or None."""
    lits = []
    for i in range(N):
        lits.append(sum(1 << k for k in range(1 << N) if (k >> (N - 1 - i)) & 1))
    base = [(0, 0), (MASK, 0)] + [(t, 0) for t in lits] + [(t ^ MASK, 0) for t in lits]
    best = {t: 0 for t, _ in base}
    states = [()]
    for level in range(1, max_gates + 1):
        tuples = list(_operand_tuples(len(base) + level - 1, allow_maj5))
        grow = level < max_gates
        new_states = {}
        for chain in states:
            cand = base + list(chain)
            have = {t for t, _ in cand}
            for combo in tuples:
                t = _maj(*(cand[x][0] for x in combo))
                if t in have:
                    continue
                depth = 1 + max(cand[x][1] for x in combo)
                if depth > max_levels:
                    continue
                best.setdefault(t, level)
                if grow:
                    grown = chain + ((t, depth),)
                    new_states.setdefault(frozenset(grown), grown)
        if len(best) == 1 << (1 << N):
            break
        states = list(new_states.values())
    return [best.get(t) for t in range(1 << (1 << N))]


def build():
    out = {}
    for name, (gates, levels, maj5) in BUDGETS.items():
        counts = min_gate_counts(gates, levels, maj5)
        dist = {}
        for c in counts:
            key = "none" if c is None else str(c)
            dist[key] = dist.get(key, 0) + 1
        out[name] = {"max_gates": gates, "max_levels": levels,
                     "allow_maj5": maj5, "distribution": dist,
                     "min_gates": counts}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the frozen file instead of writing it")
    args = ap.parse_args()
    data = build()
    # one line per list keeps the 256-entry count lists readable
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: " ".join(m.group().split()),
                  json.dumps(data, indent=1, sort_keys=True)) + "\n"
    if args.check:
        same = OUT.read_text() == text
        print("ref_counts.json is", "current" if same else "STALE")
        return 0 if same else 1
    OUT.write_text(text)
    print(f"wrote {OUT.name}:",
          {k: v["distribution"] for k, v in data.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
