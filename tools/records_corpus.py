"""Print the records corpus: the fixed command set whose output must not change.

Runs each command in-process through qcamaj.cli.main with --format records,
strips the elapsed_ms field, and prints "$ <argv> -> <exit code>" followed by
the records and each stderr line prefixed "! ".  The corpus covers atlas
under five budgets; synth on three-variable targets, on one- and
two-variable targets, without maj5 and out of budget; verify on
well-formed, deeply nested and malformed expressions; audit-tables,
adders; sim on every gate and row, and a wire one cell past the cap.
Uses the package under src/ next to this script, so two checkouts
compare with

    python3 tools/records_corpus.py > a.txt     # in one checkout
    python3 tools/records_corpus.py > b.txt     # in the other
    diff a.txt b.txt

Stdlib only; the five atlas budgets make it take about 40 s.
"""

import contextlib
import io
import itertools
import re
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcamaj.cli import main  # noqa: E402

BUDGETS = [
    [],
    ["--max-gates", "2"],
    ["--max-levels", "2", "--max-gates", "4"],
    ["--no-maj5", "--max-levels", "3", "--max-gates", "4"],
    ["--no-maj5", "--max-gates", "5", "--max-levels", "5"],
]
SIM_ARITY = {"wire": 1, "inverter": 1, "maj3": 3, "maj5": 5}
DEEP = 300
MALFORMED = ["M(A,B", "M(A,,B)", "A B", "2", "M(A,B)", "M(A,B,D)", "Q(A,B,C)"]


def commands():
    for budget in BUDGETS:
        yield ["atlas"] + budget
    for spec in ("sum(1,6)", "sum(0,7)", "sum(1,2,4,7)"):
        yield ["synth", spec]
    yield ["synth", "sum(0)", "--order", "A"]
    yield ["synth", "sum(1,2)", "--order", "A,B"]
    yield ["synth", "sum(0,3)", "--order", "A,B", "--no-maj5"]
    yield ["synth", "sum(1,6)", "--max-gates", "2"]
    yield ["verify", "M(M(A,B,0),C,0)", "sum(7)"]
    yield ["verify", "M(x,y,z)", "sum(3,5,6,7)", "--order", "x,y,z"]
    yield ["verify", "M(" * DEEP + "A" + ",B,C)" * DEEP, "sum(3,5,6,7)"]
    for text in MALFORMED:
        yield ["verify", text, "sum(7)"]
    yield ["audit-tables"]
    yield ["adders"]
    for gate, arity in SIM_ARITY.items():
        for bits in itertools.product("01", repeat=arity):
            yield ["sim", gate, "".join(bits)]
    yield ["sim", "wire", "1", "--length", "4097"]


def main_corpus() -> None:
    for argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--format", "records"])
        print(f"$ {shlex.join(argv)} -> {code}")
        sys.stdout.write(re.sub(r" elapsed_ms=\S+", "", out.getvalue()))
        for line in err.getvalue().splitlines():
            print(f"! {line}")


if __name__ == "__main__":
    main_corpus()
