"""Independent reference answers and output checks for the benchmark.

Nothing here imports qcamaj.  Expressions are evaluated by a cursor
walk over the text that computes every subterm as a bit-vector over all
2**n rows at once (bit k is minterm k, the first name the most
significant index bit), and the cost census counts distinct subterm
texts, which is what hash-consing shares.  Minimum majority-gate counts
come from ref_counts.json, written by refgen.py.
"""

import json
import shlex
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Gate and inverter census of each bundled adder, as documented with the
# designs: (maj3, maj5, inverters).
PUBLISHED_ADDERS = {
    "classic": (5, 0, 3),
    "classic-simplified": (4, 0, 3),
    "three-gate": (3, 0, 2),
    "single-maj5": (1, 1, 1),
}

# Minimum majority-gate count distribution of the default-budget atlas.
DEFAULT_DISTRIBUTION = {0: 8, 1: 96, 2: 120, 3: 32}


def load_counts():
    """Budget name -> list of 256 minimum gate counts (None: out of budget)."""
    data = json.loads((HERE / "ref_counts.json").read_text())
    return {name: entry["min_gates"] for name, entry in data.items()}


def var_table(n, i):
    return sum(1 << k for k in range(1 << n) if (k >> (n - 1 - i)) & 1)


def maj(xs):
    """Bitwise majority of three or five bit-vectors."""
    if len(xs) == 3:
        a, b, c = xs
        return (a & b) | (a & c) | (b & c)
    out = 0
    for i in range(5):
        for j in range(i + 1, 5):
            for k in range(j + 1, 5):
                out |= xs[i] & xs[j] & xs[k]
    return out


class Evaluation:
    """Function and hash-consed census of one expression text."""

    def __init__(self, table, maj3, maj5, inv, levels):
        self.table = table
        self.maj3 = maj3
        self.maj5 = maj5
        self.inv = inv
        self.levels = levels

    def census(self):
        return {"maj3": self.maj3, "maj5": self.maj5, "inv": self.inv,
                "gates": self.maj3 + self.maj5 + self.inv,
                "levels": self.levels}


def evaluate(text, names):
    """Evaluate expression text over the named variables.

    Raises ValueError on text outside the grammar.
    """
    s = "".join(text.split())
    n = len(names)
    mask = (1 << (1 << n)) - 1
    env = {name: var_table(n, i) for i, name in enumerate(names)}
    kinds = {}     # distinct subterm text -> "maj3" | "maj5" | "inv"

    def term(i):
        if i < len(s) and s[i] in "01":
            return (mask if s[i] == "1" else 0), 0, i + 1
        j = i
        while j < len(s) and (s[j].isalnum() or s[j] == "_"):
            j += 1
        word = s[i:j]
        if j < len(s) and s[j] == "(":
            arity = {"M": 3, "M5": 5}.get(word.upper())
            if arity is None:
                raise ValueError(f"unknown gate {word!r} at {i}")
            vals, depth, j = [], 0, j + 1
            while True:
                v, d, j = expr(j)
                vals.append(v)
                depth = max(depth, d)
                if j < len(s) and s[j] == ")":
                    j += 1
                    break
                if j >= len(s) or s[j] != ",":
                    raise ValueError(f"expected ',' at {j} in {text!r}")
                j += 1
            if len(vals) != arity:
                raise ValueError(f"{word} with {len(vals)} operands")
            kinds[s[i:j]] = "maj3" if arity == 3 else "maj5"
            return maj(vals), depth + 1, j
        if word not in env:
            raise ValueError(f"unknown name {word!r} at {i}")
        return env[word], 0, j

    def expr(i):
        v, d, j = term(i)
        while j < len(s) and s[j] == "'":
            j += 1
            v ^= mask
            kinds[s[i:j]] = "inv"
        return v, d, j

    v, d, j = expr(0)
    if j != len(s):
        raise ValueError(f"trailing input at {j} in {text!r}")
    kinds_list = list(kinds.values())
    return Evaluation(v, kinds_list.count("maj3"), kinds_list.count("maj5"),
                      kinds_list.count("inv"), d)


def occurrences(text):
    """Subterm occurrences written in the text: every variable, constant,
    gate and inverter mark counts once."""
    s = "".join(text.split())
    count, i = 0, 0
    while i < len(s):
        ch = s[i]
        if ch.isalnum() or ch == "_":
            j = i
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            count += 1
            i = j
        else:
            count += ch == "'"
            i += 1
    return count


def minterms(table):
    return frozenset(k for k in range(table.bit_length()) if (table >> k) & 1)


def format_minterms(mset):
    return "sum(" + ",".join(str(m) for m in sorted(mset)) + ")"


def parse_minterms(text):
    body = "".join(text.split())
    if not (body.lower().startswith("sum(") and body.endswith(")")):
        raise ValueError(f"bad minterm set {text!r}")
    inner = body[4:-1]
    return frozenset(int(x) for x in inner.split(",")) if inner else frozenset()


def parse_records(out):
    """Split records output into (report, fields, rows)."""
    report, fields, rows = {}, {}, []
    for line in out.splitlines():
        parts = shlex.split(line)
        if not parts:
            continue
        pairs = dict(p.split("=", 1) for p in parts[1:])
        if parts[0] == "report":
            report = pairs
        elif parts[0] == "field":
            fields.update(pairs)
        elif parts[0] == "row":
            rows.append(pairs)
        else:
            raise ValueError(f"unknown record {parts[0]!r}")
    return report, fields, rows


# ---- checks: each returns a list of problems, empty when correct --------

def _census_problems(where, reported, text, names):
    got = evaluate(text, names).census()
    return [f"{where}: {k}={reported.get(k)} but the text has {v}"
            for k, v in got.items() if reported.get(k) != str(v)]


def check_atlas(expect, code, out):
    if code != 0:
        return [f"exit {code}"]
    _, fields, rows = parse_records(out)
    mins = expect["min_gates"]
    solvable = sum(m is not None for m in mins)
    problems = []
    if fields.get("synthesized") != f"{solvable}/256" or len(rows) != 256:
        problems.append(f"synthesized {fields.get('synthesized')}, "
                        f"{len(rows)} rows")
    dist = {}
    for t, row in enumerate(rows):
        where = f"row {t}"
        if parse_minterms(row.get("function", "")) != minterms(t):
            problems.append(f"{where}: function {row.get('function')}")
            continue
        if mins[t] is None:
            if row.get("status") != "unsynthesizable":
                problems.append(f"{where}: status {row.get('status')}, "
                                f"reference has no network in budget")
            continue
        if row.get("status") != "ok":
            problems.append(f"{where}: status {row.get('status')}")
            continue
        ev = evaluate(row["expression"], "ABC")
        if ev.table != t:
            problems.append(f"{where}: {row['expression']} computes "
                            f"{format_minterms(minterms(ev.table))}")
        problems += _census_problems(where, row, row["expression"], "ABC")
        gates = int(row["maj3"]) + int(row["maj5"])
        if gates != mins[t]:
            problems.append(f"{where}: {gates} majority gates, minimum is "
                            f"{mins[t]}")
        dist[gates] = dist.get(gates, 0) + 1
    if expect["budget"] == "default" and dist != DEFAULT_DISTRIBUTION:
        problems.append(f"distribution {dist}")
    return problems


def check_synth(expect, code, out):
    _, fields, _ = parse_records(out)
    target, best = expect["table"], expect["min_gates"]
    if parse_minterms(fields.get("target", "sum()")) != minterms(target):
        return [f"target field {fields.get('target')}"]
    if best is None:
        if code == 1 and fields.get("result") == "not found within budget":
            return []
        return [f"exit {code}, result {fields.get('result')!r}; reference "
                f"has no network in budget"]
    if code != 0 or fields.get("result") != "found":
        return [f"exit {code}, result {fields.get('result')!r}; reference "
                f"minimum is {best}"]
    text = fields["expression"]
    problems = []
    if evaluate(text, "ABC").table != target:
        problems.append(f"{text} does not compute the target")
    problems += _census_problems("synth", fields, text, "ABC")
    gates = int(fields["maj3"]) + int(fields["maj5"])
    if gates != best:
        problems.append(f"{gates} majority gates, minimum is {best}")
    if fields.get("self-check") != "equivalent":
        problems.append(f"self-check {fields.get('self-check')}")
    return problems


def check_verify(expect, code, out):
    _, fields, _ = parse_records(out)
    truth, given = minterms(expect["table"]), expect["given"]
    equivalent = truth == given
    problems = []
    if code != (0 if equivalent else 1):
        problems.append(f"exit {code}")
    verdict = "equivalent" if equivalent else "not-equivalent"
    if fields.get("verdict") != verdict:
        problems.append(f"verdict {fields.get('verdict')}, want {verdict}")
    if parse_minterms(fields.get("computed", "sum()")) != truth:
        problems.append("computed minterms differ from the reference")
    if parse_minterms(fields.get("differing", "sum()")) != truth ^ given:
        problems.append("differing minterms differ from the reference")
    return problems


def check_audit(expect, code, out):
    if code != 0:
        return [f"exit {code}"]
    _, _, rows = parse_records(out)
    problems = [] if len(rows) == 12 else [f"{len(rows)} rows, want 12"]
    for i, row in enumerate(rows):
        ev = evaluate(row["expression"], "ABC")
        want = parse_minterms(row["function"])
        computed = minterms(ev.table)
        verdict = "equivalent" if computed == want else "not-equivalent"
        if row.get("verdict") != verdict:
            problems.append(f"row {i}: verdict {row.get('verdict')}")
        if parse_minterms(row.get("computed", "sum()")) != computed:
            problems.append(f"row {i}: computed {row.get('computed')}")
        problems += _census_problems(f"row {i}", row, row["expression"], "ABC")
    return problems


def check_adders(expect, code, out):
    if code != 0:
        return [f"exit {code}"]
    _, _, rows = parse_records(out)
    problems = []
    got = {}
    for row in rows:
        got[row["design"]] = (int(row["maj3"]), int(row["maj5"]),
                              int(row["inv"]))
        if row.get("sum") != "ok" or row.get("carry") != "ok":
            problems.append(f"{row['design']}: sum {row.get('sum')} "
                            f"carry {row.get('carry')}")
    if got != PUBLISHED_ADDERS:
        problems.append(f"census {got}")
    return problems


def gate_value(gate, bits):
    ones = bits.count("1")
    if gate == "inverter":
        return 1 - int(bits)
    if gate == "wire":
        return int(bits)
    return 1 if 2 * ones > len(bits) else 0


def check_sim(expect, code, out):
    if code != 0:
        return [f"exit {code}"]
    _, fields, rows = parse_records(out)
    want = gate_value(expect["gate"], expect["bits"])
    problems = []
    if fields.get("readout") != str(want):
        problems.append(f"readout {fields.get('readout')}, want {want}")
    p = float(fields.get("output_polarization", "nan"))
    if p != p or (p > 0) != bool(want):
        problems.append(f"output polarization {p} for logic {want}")
    if expect.get("cells") is not None and len(rows) != expect["cells"]:
        problems.append(f"{len(rows)} cells, want {expect['cells']}")
    return problems


CHECKS = {
    "atlas": check_atlas,
    "synth": check_synth,
    "verify": check_verify,
    "audit-tables": check_audit,
    "adders": check_adders,
    "sim": check_sim,
}
