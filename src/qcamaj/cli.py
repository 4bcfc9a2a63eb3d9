"""Command line front end.

Exit codes: 0 success (and equivalent, where a verdict is the point),
1 non-equivalent or not found, 2 usage or parse problems (including
non-finite sim parameters and --order names that are not variable
names), 3 simulation failures (no convergence, undecided readout).
An error message over 300 characters is cut to its head and its tail,
so that text copied from the input cannot make it long.

Both output modes carry the same data.  Text mode prints aligned
summaries; records mode prints shell-quoted key=value lines, one line
per record, for scripting.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import shlex
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .adders import ADDER_VARS, audit_entries, compare_adders
from .cellsim import (build_inverter, build_maj3, build_maj5, build_wire,
                      read_logic, relax)
from .errors import ConvergenceError, UndecidedError
from .expr import parse_expr
from .network import cost, format_expr, order_note, truth_table, verify
from .synth import SearchBudget, synthesize, synthesize_all_3var
from .truthtable import TruthTable, format_minterms, parse_minterm_spec


@dataclass
class RunReport:
    """Everything one command run wants to say, renderer-independent."""

    command: str
    fields: list[tuple[str, str]] = field(default_factory=list)
    rows: list[dict[str, str]] = field(default_factory=list)
    elapsed_ms: float = 0.0

    def add(self, key: str, value) -> None:
        self.fields.append((key, str(value)))

    def add_row(self, **kv) -> None:
        self.rows.append({k: str(v) for k, v in kv.items()})


def render_text(report: RunReport) -> str:
    lines = [f"qcamaj {report.command}  (toolkit {__version__})"]
    width = max((len(k) for k, _ in report.fields), default=0)
    for k, v in report.fields:
        lines.append(f"  {k:<{width}}  {v}")
    if report.rows:
        cols = list(report.rows[0].keys())
        widths = {c: max(len(c), *(len(r.get(c, "")) for r in report.rows))
                  for c in cols}
        lines.append("")
        lines.append("  " + "  ".join(f"{c:<{widths[c]}}" for c in cols))
        for r in report.rows:
            lines.append("  " + "  ".join(
                f"{r.get(c, ''):<{widths[c]}}" for c in cols))
    lines.append(f"  [{report.elapsed_ms:.1f} ms]")
    return "\n".join(lines) + "\n"


# shlex.quote returns a non-empty value as is exactly when this finds nothing
_unsafe = re.compile(r"[^\w@%+=:,./-]", re.ASCII).search


def render_records(report: RunReport) -> str:
    lines = [f"report command={shlex.quote(report.command)} "
             f"version={shlex.quote(__version__)} "
             f"elapsed_ms={report.elapsed_ms:.1f}"]
    lines += [f"field {k}={shlex.quote(v)}" for k, v in report.fields]
    rows = report.rows
    values = list(itertools.chain.from_iterable(map(dict.values, rows)))
    if not all(values) or _unsafe("".join(values)):
        rows = [{k: shlex.quote(v) for k, v in r.items()} for r in rows]
    lines += ["row " + " ".join(map("=".join, r.items())) for r in rows]
    return "\n".join(lines) + "\n"


def _cost_fields(c) -> dict:
    return {"maj3": c.maj3_count, "maj5": c.maj5_count,
            "inv": c.inverter_count, "gates": c.gate_count,
            "levels": c.levels}


def _budget(args) -> SearchBudget:
    return SearchBudget(max_gates=args.max_gates, max_levels=args.max_levels,
                        allow_maj5=not args.no_maj5)


def _budget_text(budget: SearchBudget) -> str:
    return (f"max_gates={budget.max_gates} max_levels={budget.max_levels} "
            f"maj5={'on' if budget.allow_maj5 else 'off'}")


def cmd_verify(args) -> tuple[RunReport, int]:
    names = args.order.split(",")
    net = parse_expr(args.expression, names)
    spec = TruthTable.from_minterms(len(names), parse_minterm_spec(args.minterms))
    report = RunReport("verify")
    result = verify(net, spec, names)
    report.add("expression", args.expression)
    report.add("reference", format_minterms(spec.minterms()))
    report.add("ordering", result.variable_order_note)
    report.add("verdict",
               "equivalent" if result.equivalent else "not-equivalent")
    report.add("computed", format_minterms(result.computed_minterms))
    report.add("differing", format_minterms(result.differing_minterms))
    return report, 0 if result.equivalent else 1


def cmd_synth(args) -> tuple[RunReport, int]:
    names = args.order.split(",")
    ordering = order_note(len(names), names)
    spec = TruthTable.from_minterms(len(names), parse_minterm_spec(args.minterms))
    budget = _budget(args)
    report = RunReport("synth")
    report.add("target", format_minterms(spec.minterms()))
    report.add("ordering", ordering)
    report.add("budget", _budget_text(budget))
    net = synthesize(spec, budget)
    if net is None:
        report.add("result", "not found within budget")
        return report, 1
    equivalent = truth_table(net) == spec
    report.add("result", "found")
    report.add("expression", format_expr(net, names))
    for k, v in _cost_fields(cost(net)).items():
        report.add(k, v)
    report.add("self-check",
               "equivalent" if equivalent else "not-equivalent")
    return report, 0 if equivalent else 1


def cmd_atlas(args) -> tuple[RunReport, int]:
    budget = _budget(args)
    entries = synthesize_all_3var(budget)
    report = RunReport("atlas")
    report.add("ordering", order_note(3))
    report.add("budget", _budget_text(budget))
    solved = sum(1 for e in entries if e.network is not None)
    report.add("synthesized", f"{solved}/{len(entries)}")
    for e in entries:
        if e.network is None:
            report.add_row(function=format_minterms(e.minterms),
                           status="unsynthesizable")
        else:
            report.add_row(function=format_minterms(e.minterms),
                           status="ok", **_cost_fields(e.cost),
                           expression=e.expression)
    return report, 0


def cmd_audit_tables(args) -> tuple[RunReport, int]:
    names = ["A", "B", "C"]
    report = RunReport("audit-tables")
    report.add("ordering", order_note(3, names))
    for row in audit_entries():
        spec = TruthTable.from_minterms(3, row.minterms)
        for form, text in (("maj3-only", row.maj3_form),
                           ("with-maj5", row.maj5_form)):
            net = parse_expr(text, names)
            computed = truth_table(net)
            report.add_row(
                function=format_minterms(row.minterms),
                form=form,
                expression=text,
                verdict="equivalent" if computed == spec else "not-equivalent",
                computed=format_minterms(computed.minterms()),
                **_cost_fields(cost(net)),
            )
    return report, 0


def cmd_adders(args) -> tuple[RunReport, int]:
    report = RunReport("adders")
    report.add("ordering", order_note(3, ADDER_VARS))
    report.add("oracle", "2*Carry+Sum == A+B+Cin over all eight rows")
    ok = True
    for r in compare_adders():
        ok = ok and r.sum_ok and r.carry_ok
        report.add_row(design=r.name, **_cost_fields(r.cost),
                       sum="ok" if r.sum_ok else "FAIL",
                       carry="ok" if r.carry_ok else "FAIL")
    return report, 0 if ok else 1


_GATES = {
    "wire": (1, lambda ps, args: build_wire(args.length, ps[0])),
    "inverter": (1, lambda ps, args: build_inverter(ps[0])),
    "maj3": (3, lambda ps, args: build_maj3(*ps)),
    "maj5": (5, lambda ps, args: build_maj5(*ps)),
}


def cmd_sim(args) -> tuple[RunReport, int]:
    arity, make = _GATES[args.gate]
    if len(args.bits) != arity or any(b not in "01" for b in args.bits):
        raise ValueError(
            f"gate {args.gate!r} wants {arity} input bit(s), "
            f"got {args.bits!r}"
        )
    ps = [1.0 if b == "1" else -1.0 for b in args.bits]
    grid = make(ps, args)
    result = relax(grid, tol=args.tol, max_iter=args.max_iter)
    logic = read_logic(result, threshold=args.threshold)
    report = RunReport("sim")
    report.add("gate", args.gate)
    report.add("inputs", args.bits)
    report.add("readout", logic)
    report.add("output_polarization", f"{result.output_polarization:+.6f}")
    report.add("sweeps", result.sweeps)
    report.add("final_residual", f"{result.residuals[-1]:.3e}")
    # a grid's positions are tuples of int, all of the grid's dimension
    pos = ",".join(["%d"] * len(grid.cells[0].position))
    report.rows = [
        {"cell": i, "pos": pos % cell.position, "role": cell.role,
         "polarization": p}
        for i, cell, p in zip(map(str, itertools.count()), grid.cells,
                              map("%+.6f".__mod__, result.polarizations))]
    return report, 0


# the most characters of one error message main writes; longer ones keep
# their head and their tail, which holds "(at position N)" where there is one
_MAX_ERROR_CHARS = 300


def _bounded(message: str) -> str:
    """message, or its head and tail when it is over _MAX_ERROR_CHARS."""
    if len(message) <= _MAX_ERROR_CHARS:
        return message
    keep = (_MAX_ERROR_CHARS - 5) // 2
    return f"{message[:keep]} ... {message[-keep:]}"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose error lines are bounded as main's are; its
    subparsers are of this class too."""

    def error(self, message):
        super().error(_bounded(message))


@functools.cache    # built on first use, so import stays cheap
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each command's name -> its subparser."""
    parser = _Parser(
        prog="qcamaj",
        description="Majority-logic synthesis, verification, and cell-level "
                    "simulation toolkit.",
    )
    parser.add_argument("--version", action="version",
                        version=f"qcamaj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "records"),
                       default="text", help="output style")

    def ordering(p):
        p.add_argument("--order", default="A,B,C",
                       help="comma-separated variable names, most "
                            "significant first (default A,B,C)")

    def budget(p):
        p.add_argument("--max-gates", type=int,
                       default=SearchBudget.max_gates,
                       help="majority-gate ceiling (default %(default)s)")
        p.add_argument("--max-levels", type=int,
                       default=SearchBudget.max_levels,
                       help="majority-depth ceiling (default %(default)s)")
        p.add_argument("--no-maj5", action="store_true",
                       help="restrict the search to three-input gates")

    p = sub.add_parser("verify",
                       help="check an expression against a minterm set")
    p.add_argument("expression")
    p.add_argument("minterms", help="reference set, e.g. 'sum(3,5,6,7)'")
    ordering(p)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "synth", help="synthesize a network with the fewest majority gates, "
        "then the least (gate_count, levels, inverter_count) with inverters "
        "on inputs")
    p.add_argument("minterms")
    ordering(p)
    budget(p)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("atlas",
                       help="synthesize every three-variable function")
    budget(p)
    common(p)
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("audit-tables",
                       help="verify and cost the bundled expression tables")
    common(p)
    p.set_defaults(func=cmd_audit_tables)

    p = sub.add_parser("adders", help="compare the bundled adder designs")
    common(p)
    p.set_defaults(func=cmd_adders)

    p = sub.add_parser("sim", help="relax a gate layout cell by cell")
    p.add_argument("gate", choices=_GATES, help="gate layout to relax")
    p.add_argument("bits", help="driver bits, e.g. 101 for maj3")
    p.add_argument("--length", type=int, default=5,
                   help="wire length in cells (default 5)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="convergence tolerance (default 1e-6)")
    p.add_argument("--max-iter", type=int, default=1000,
                   help="sweep allowance (default 1000)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="readout threshold (default 0.5)")
    common(p)
    p.set_defaults(func=cmd_sim)
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """_parsers()[0].parse_args(argv), by one parse where it can.

    When argv[0] names a command, the top-level parser's command
    positional (nargs=PARSER, pattern A[-AO]*) hands every word after
    it, unchanged, to that command's subparser.  Beyond that parse, the
    top-level one only sets `command`, fails with its own usage on the
    words the subparser leaves over, and, as it sorts the words into
    options and arguments before any of them is parsed, fails on a word
    before "--" that begins "--=", an abbreviation of both --help and
    --version to Python 3.10 to 3.13.0.  So the subparser alone parses
    argv[1:], unless a word begins "--=" or words are left over; then,
    and when argv[0] names no command, the full parse runs.
    """
    sub = _parsers()[1].get(argv[0]) if argv else None
    if sub is not None and not any(w.startswith("--=") for w in argv):
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _parsers()[0].parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return int(e.code or 0)
    start = time.perf_counter()
    try:
        report, code = args.func(args)
    except ValueError as e:     # every usage and parse error type
        print(f"qcamaj: error: {_bounded(str(e))}", file=sys.stderr)
        return 2
    except (ConvergenceError, UndecidedError) as e:
        print(f"qcamaj: simulation failed: {e}", file=sys.stderr)
        return 3
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    renderer = render_records if args.format == "records" else render_text
    sys.stdout.write(renderer(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
