"""Command line front end.

Exit codes: 0 success (and equivalent, where a verdict is the point),
1 non-equivalent or not found, 2 usage or parse problems (including
non-finite sim parameters), 3 simulation failures (no convergence,
undecided readout).

Both output modes carry the same data.  Text mode prints aligned
summaries; records mode prints shell-quoted key=value lines, one line
per record, for scripting.
"""

from __future__ import annotations

import argparse
import shlex
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .adders import audit_entries, compare_adders
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
    version: str = __version__
    fields: list[tuple[str, str]] = field(default_factory=list)
    rows: list[dict[str, str]] = field(default_factory=list)
    elapsed_ms: float = 0.0

    def add(self, key: str, value) -> None:
        self.fields.append((key, str(value)))

    def add_row(self, **kv) -> None:
        self.rows.append({k: str(v) for k, v in kv.items()})


def render_text(report: RunReport) -> str:
    lines = [f"qcamaj {report.command}  (toolkit {report.version})"]
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


def render_records(report: RunReport) -> str:
    lines = [f"report command={shlex.quote(report.command)} "
             f"version={shlex.quote(report.version)} "
             f"elapsed_ms={report.elapsed_ms:.1f}"]
    lines += [f"field {k}={shlex.quote(v)}" for k, v in report.fields]
    for r in report.rows:
        lines.append("row " + " ".join(f"{k}={shlex.quote(v)}"
                                       for k, v in r.items()))
    return "\n".join(lines) + "\n"


def _cost_fields(c) -> dict:
    return {"maj3": c.maj3_count, "maj5": c.maj5_count,
            "inv": c.inverter_count, "gates": c.gate_count,
            "levels": c.levels}


def _names(args) -> list[str]:
    names = [n for n in args.order.split(",") if n]
    if not names or len(set(names)) != len(names):
        raise ValueError(f"bad variable order {args.order!r}")
    return names


def _budget(args) -> SearchBudget:
    return SearchBudget(max_gates=args.max_gates, max_levels=args.max_levels,
                        allow_maj5=not args.no_maj5)


def _budget_text(budget: SearchBudget) -> str:
    return (f"max_gates={budget.max_gates} max_levels={budget.max_levels} "
            f"maj5={'on' if budget.allow_maj5 else 'off'}")


def cmd_verify(args) -> tuple[RunReport, int]:
    names = _names(args)
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
    names = _names(args)
    spec = TruthTable.from_minterms(len(names), parse_minterm_spec(args.minterms))
    budget = _budget(args)
    report = RunReport("synth")
    report.add("target", format_minterms(spec.minterms()))
    report.add("ordering", order_note(len(names), names))
    report.add("budget", _budget_text(budget))
    net = synthesize(spec, budget)
    if net is None:
        report.add("result", "not found within budget")
        return report, 1
    check = verify(net, spec, names)
    report.add("result", "found")
    report.add("expression", format_expr(net, names))
    for k, v in _cost_fields(cost(net)).items():
        report.add(k, v)
    report.add("self-check",
               "equivalent" if check.equivalent else "not-equivalent")
    return report, 0 if check.equivalent else 1


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
            result = verify(net, spec, names)
            report.add_row(
                function=format_minterms(row.minterms),
                form=form,
                expression=text,
                verdict="equivalent" if result.equivalent else "not-equivalent",
                computed=format_minterms(result.computed_minterms),
                **_cost_fields(cost(net)),
            )
    return report, 0


def cmd_adders(args) -> tuple[RunReport, int]:
    report = RunReport("adders")
    report.add("ordering", order_note(3, ["A", "B", "Cin"]))
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
    if args.gate not in _GATES:
        raise ValueError(f"unknown gate {args.gate!r}, "
                         f"choose from {', '.join(sorted(_GATES))}")
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
    for i, (cell, p) in enumerate(zip(grid.cells, result.polarizations)):
        report.add_row(cell=i,
                       pos=",".join(str(x) for x in cell.position),
                       role=cell.role, polarization=f"{p:+.6f}")
    return report, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("synth", help="synthesize a minimal majority network")
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
    p.add_argument("gate", help="wire, inverter, maj3 or maj5")
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
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    start = time.perf_counter()
    try:
        report, code = args.func(args)
    except ValueError as e:     # every usage and parse error type
        print(f"qcamaj: error: {e}", file=sys.stderr)
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
