"""Command line behavior: exit codes, both output formats, scripting use."""

import os
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, strategies as st

from qcamaj.cli import (_MAX_ERROR_CHARS, RunReport, _bounded, main,
                        render_records)
from qcamaj.errors import ParseError
from qcamaj.truthtable import parse_minterm_spec


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


@pytest.fixture(params=["default", "unlimited"])
def int_limit(request):
    """Python's int string limit as the interpreter starts, then none."""
    if request.param == "default":
        yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int string limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits", [4301, 300_000])
def test_an_over_long_minterm_index_is_a_short_parse_error(capsys, int_limit,
                                                            digits):
    # past Python's default limit, and where no limit makes int() quadratic
    spec = "sum(1, " + "9" * digits + ")"
    want = (f"minterm index of {digits} digits, expected at most 100 "
            f"(at position 7)")
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_minterm_spec(spec)
    assert (str(exc.value), exc.value.position) == (want, 7)
    for argv in (["synth", spec], ["verify", "M(A,B,C)", spec]):
        assert run(capsys, *argv) == (2, "", f"qcamaj: error: {want}\n")
    assert time.perf_counter() - start < 1.0
    # a short index out of range keeps its own error
    code, _, err = run(capsys, "synth", "sum(1000)")
    assert (code, err) == (2, "qcamaj: error: minterm 1000 out of range 0..7 "
                              "for 3 variables\n")


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


# characters shlex.quote leaves alone, characters it quotes, and letters
# that are \w in Unicode but not in ASCII, so unsafe to shlex
QUOTED_CHARS = "aZ09_@%+=:,./-" + " '(\"$\\" + "é٣"
# a report the size of a wire's, in which no value needs quoting
SAFE_ROWS = [{"cell": str(i), "pos": f"{i},0", "p": "+0.950000"}
             for i in range(200)]


@given(st.lists(st.dictionaries(st.sampled_from(("cell", "pos", "role", "p")),
                                st.text(QUOTED_CHARS, max_size=6),
                                min_size=1), max_size=4))
@example([{"v": c} for c in QUOTED_CHARS] + [{"v": ""}, {"a": "x", "b": ""}])
@example(SAFE_ROWS)
@example(SAFE_ROWS[:100] + [{"cell": "x", "pos": "it's"}] + SAFE_ROWS[100:])
@example(SAFE_ROWS[:100] + [{"cell": "x", "pos": ""}] + SAFE_ROWS[100:])
def test_records_rows_quote_each_value_as_shlex_does(rows):
    lines = render_records(RunReport("sim", rows=rows)).splitlines()
    assert lines[1:] == ["row " + " ".join(f"{k}={shlex.quote(v)}"
                                           for k, v in r.items())
                         for r in rows]


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


def test_back_to_back_calls_do_not_leak_options(capsys):
    # one parser serves every call in a process
    code, out, _ = run(capsys, "sim", "wire", "1", "--length", "7",
                       "--format", "records")
    assert code == 0
    assert len(records(out)[2]) == 7
    code, out, _ = run(capsys, "sim", "wire", "1", "--format", "records")
    assert code == 0
    assert len(records(out)[2]) == 5
    code, out, _ = run(capsys, "sim", "wire", "1")
    assert code == 0
    assert out.startswith("qcamaj sim")


def test_empty_order_names_exit_two(capsys):
    for argv in (
        ["verify", "M(A,B,C)", "sum(3,5,6,7)", "--order", "A,,B,C"],
        ["verify", "M(A,B,C)", "sum(3,5,6,7)", "--order", ","],
        ["synth", "sum(1,6)", "--order", ","],
        ["synth", "sum(1,6)", "--order", "A,B,C,"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert ("qcamaj: error: variable name '' must be a letter or _ "
                "followed by letters, digits or _") in err, argv


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


def test_names_the_grammar_cannot_read_back_exit_two_before_any_work(capsys):
    for argv in (
        ["synth", "sum(4)", "--order", "0,B,C"],
        ["synth", "sum(4)", "--order", "A',B,C"],
        ["verify", "M(0,B,C)", "sum(3)", "--order", "0,B,C"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "variable name" in err
    # the hardest three-variable target, refused before its search starts
    start = time.perf_counter()
    code, _, _ = run(capsys, "synth", "sum(1,6)", "--order", "0,B,C")
    assert code == 2
    assert time.perf_counter() - start < 1.0


_LONG = 300_000


@pytest.mark.parametrize("argv", [
    ["synth", "sum(" + "9" * _LONG + "x)"],                # bad minterm set
    ["verify", "M(A,B," + "C" * _LONG + ")", "sum(1)"],    # unknown variable
    ["verify", "M(A,B," + "2" * _LONG + ")", "sum(1)"],    # digit run
    ["verify", "X" * _LONG + "(A,B,C)", "sum(1)"],         # unknown gate
    ["synth", "sum(1)", "--order", "A,B," + "!" * _LONG],  # bad name
    ["synth", "sum(1)", "--order", ",".join(["A"] * 100_000)],  # duplicates
    ["sim", "maj3", "1" * _LONG],                          # driver bits
    ["sim", "x" * _LONG, "1"],                             # argparse: gate
    ["synth", "sum(1)", "--max-gates", "x" * _LONG],       # argparse: int
    ["adders", "--format", "x" * _LONG],                   # argparse: choice
], ids=["minterm set", "variable", "constant", "gate", "order name",
        "order duplicates", "sim bits", "sim gate", "max-gates", "format"])
def test_an_error_about_long_input_stays_short(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 1024
    assert "error: " in err
    assert time.perf_counter() - start < 1.0


def test_a_long_error_keeps_its_head_and_its_tail():
    assert _MAX_ERROR_CHARS >= 200
    short = "x" * _MAX_ERROR_CHARS
    assert _bounded(short) is short
    long = "unknown variable 'CCCC" + "C" * _LONG + "' (at position 6)"
    cut = _bounded(long)
    assert len(cut) <= _MAX_ERROR_CHARS
    assert cut.startswith("unknown variable 'CCCC")
    assert cut.endswith("' (at position 6)")
    assert " ... " in cut


def test_a_request_checks_its_names_once(monkeypatch):
    # every check_names call a request makes, by its names argument; a
    # call handed None checks no name, it spells the default A, B, C
    import qcamaj.expr
    import qcamaj.network
    check_names = qcamaj.network.check_names
    calls = []

    def counted(names, n_vars):
        calls.append(names)
        return check_names(names, n_vars)

    for module in (qcamaj.network, qcamaj.expr):
        monkeypatch.setattr(module, "check_names", counted)
    checks = {}
    for argv in (["synth", "sum(1,2,7)", "--order", "X,Y,Z"],
                 ["verify", "M(X,Y,Z)", "sum(3,5,6,7)", "--order", "X,Y,Z"],
                 ["audit-tables"],
                 ["adders"]):
        calls.clear()
        assert main([*argv, "--format", "records"]) == 0
        checks[argv[0]] = sum(names is not None for names in calls)
    # synth: its order note and its expression; verify: its parse and its
    # order note; audit-tables: its order note and one parse per form
    assert checks == {"synth": 2, "verify": 2, "audit-tables": 13,
                      "adders": 9}
