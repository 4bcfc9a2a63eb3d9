"""Command line behavior: exit codes, both output formats, scripting use."""

import os
import shlex
import subprocess
import sys

import pytest

from qcamaj.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    """Parse records output into (header, fields, rows)."""
    header, fields, rows = {}, {}, []
    for line in out.splitlines():
        parts = shlex.split(line)
        kv = dict(p.split("=", 1) for p in parts[1:])
        if parts[0] == "report":
            header = kv
        elif parts[0] == "field":
            fields.update(kv)
        elif parts[0] == "row":
            rows.append(kv)
        else:
            raise AssertionError(f"unknown record line {line!r}")
    return header, fields, rows


# exit codes ------------------------------------------------------------


def test_verify_equivalent_exits_zero(capsys):
    code, out, err = run(capsys, "verify", "M(A,B,C)", "sum(3,5,6,7)")
    assert code == 0
    assert "equivalent" in out
    assert err == ""


def test_verify_not_equivalent_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "M(A,B,C)", "sum(3,5,6)")
    assert code == 1
    assert "not-equivalent" in out
    assert "sum(7)" in out  # the differing minterm


def test_parse_problems_exit_two(capsys):
    for argv in (
        ["verify", "M(A,B", "sum(1)"],          # malformed expression
        ["verify", "M(A,B,C)", "minterms(1)"],  # malformed reference
        ["verify", "M(A,B,C)", "sum(9)"],       # minterm out of range
        ["verify", "M(A,B,D)", "sum(1)"],       # unknown variable
        ["synth", "sum(1)", "--order", "A,A,B"],
        ["sim", "maj3", "10"],                  # wrong driver count
        ["sim", "blorp", "1"],                  # unknown gate
        ["sim", "maj3", "101", "--tol", "nan"],  # non-finite tolerance
        [],                                     # no subcommand
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_deeply_nested_expression_verifies(capsys):
    # M(M(...(A,B,C)...,B,C),B,C) is M(A,B,C) at any depth
    n = 1200
    deep = "M(" * n + "A" + ",B,C)" * n
    code, out, err = run(capsys, "verify", deep, "sum(3,5,6,7)")
    assert code == 0
    assert err == ""
    assert "equivalent" in out.split()


def test_simulation_failures_exit_three(capsys):
    code, _, err = run(capsys, "sim", "maj3", "101", "--threshold", "0.99")
    assert code == 3
    assert "undecided" in err
    code, _, err = run(capsys, "sim", "wire", "1", "--max-iter", "2")
    assert code == 3
    assert "convergence" in err


# verify / synth --------------------------------------------------------


def test_verify_reports_ordering_and_computed_set(capsys):
    _, out, _ = run(capsys, "verify", "M(M(A,B,0),C,0)", "sum(7)")
    assert "most significant" in out
    assert "sum(7)" in out


def test_verify_respects_custom_order(capsys):
    code, out, _ = run(capsys, "verify", "M(x,y,z)", "sum(3,5,6,7)",
                       "--order", "x,y,z")
    assert code == 0


def test_synth_finds_single_gate(capsys):
    code, out, _ = run(capsys, "synth", "sum(7)")
    assert code == 0
    assert "found" in out
    assert "gates" in out


def test_synth_within_budget_fails_cleanly(capsys):
    code, out, _ = run(capsys, "synth", "sum(1,2,4,7)", "--max-gates", "1")
    assert code == 1
    assert "not found within budget" in out


def test_synth_no_maj5_flag(capsys):
    code, out, _ = run(capsys, "synth", "sum(7)", "--no-maj5", "--format",
                       "records")
    assert code == 0
    _, fields, _ = records(out)
    assert fields["maj5"] == "0"
    assert fields["self-check"] == "equivalent"


# records format --------------------------------------------------------


def test_records_and_text_carry_the_same_data(capsys):
    _, text_out, _ = run(capsys, "verify", "M(A,B,Cin)", "sum(3,5,6,7)",
                         "--order", "A,B,Cin")
    _, rec_out, _ = run(capsys, "verify", "M(A,B,Cin)", "sum(3,5,6,7)",
                        "--order", "A,B,Cin", "--format", "records")
    header, fields, rows = records(rec_out)
    assert header["command"] == "verify"
    assert rows == []
    for key, value in fields.items():
        assert key in text_out
        assert value in text_out


def test_records_rows_round_trip_through_shlex(capsys):
    _, out, _ = run(capsys, "sim", "maj3", "110", "--format", "records")
    header, fields, rows = records(out)
    assert fields["readout"] == "1"
    assert fields["inputs"] == "110"
    assert len(rows) == 5
    roles = [r["role"] for r in rows]
    assert roles.count("driver") == 3
    assert roles.count("output") == 1
    out_row = next(r for r in rows if r["role"] == "output")
    assert fields["output_polarization"] == out_row["polarization"]


def test_audit_tables_records(capsys):
    code, out, _ = run(capsys, "audit-tables", "--format", "records")
    assert code == 0
    _, _, rows = records(out)
    assert len(rows) == 12
    verdicts = [(r["form"], r["verdict"]) for r in rows
                if r["function"] in ("sum(1,2,7)", "sum(0,3,5,6,7)")]
    assert ("maj3-only", "not-equivalent") in verdicts
    assert ("with-maj5", "equivalent") in verdicts
    failing = next(r for r in rows if r["function"] == "sum(1,2,7)"
                   and r["form"] == "maj3-only")
    assert failing["computed"] == "sum(2,4,7)"


def test_adders_command(capsys):
    code, out, _ = run(capsys, "adders")
    assert code == 0
    for name in ("single-maj5", "three-gate", "classic", "classic-simplified"):
        assert name in out
    assert "FAIL" not in out


def test_atlas_command_lists_every_function(capsys):
    code, out, _ = run(capsys, "atlas", "--format", "records")
    assert code == 0
    _, fields, rows = records(out)
    assert fields["synthesized"] == "256/256"
    assert len(rows) == 256
    assert all(r["status"] == "ok" for r in rows)


def test_sim_wire_length_flag(capsys):
    code, out, _ = run(capsys, "sim", "wire", "0", "--length", "8",
                       "--format", "records")
    assert code == 0
    _, fields, rows = records(out)
    assert fields["readout"] == "0"
    assert len(rows) == 8


def test_sim_wire_past_the_cap_exits_two(capsys):
    code, out, err = run(capsys, "sim", "wire", "1", "--length", "4097")
    assert code == 2
    assert out == ""
    assert err.startswith("qcamaj: error: ")
    assert "at most 4096 cells, got 4097" in err


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "qcamaj" in out


def test_module_entry_point_runs():
    # the child process gets the import path this one has, so it runs the
    # package under test whether or not it is installed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "qcamaj", "verify", "M(A,B,1)", "sum(2,3,4,5,6,7)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "equivalent" in proc.stdout
