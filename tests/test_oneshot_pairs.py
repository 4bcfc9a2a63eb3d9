"""tools/oneshot_pairs: its cases, and one round of one cheap case."""

import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path

from qcamaj import cli, synth

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location(
    "oneshot_pairs", TOOLS / "oneshot_pairs.py")
oneshot_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(oneshot_pairs)
layer_pairs = sys.modules["layer_pairs"]


def test_the_cases_are_the_floors_and_one_run_of_each_command():
    plan = oneshot_pairs.cases()
    assert len(plan) == 14
    floors = ["python -c pass", "import qcamaj.cli"]
    assert [plan[name] for name in floors] == [
        ["-c", "pass"], ["-c", "import qcamaj.cli"]]
    commands = [argv for name, argv in plan.items() if name not in floors]
    assert all(argv[:2] == ["-m", "qcamaj"]
               and argv[-2:] == ["--format", "records"] for argv in commands)
    assert sorted({argv[2] for argv in commands}) == [
        "adders", "atlas", "audit-tables", "sim", "synth", "verify"]
    # one synth target per class under the default budget
    classes = {t: c for c, targets in layer_pairs.class_targets().items()
               for t in targets}
    for c in range(4):
        [minterms] = plan[f"synth class {c}"][3:4]
        table = sum(1 << int(m) for m in re.findall(r"\d+", minterms))
        assert classes[table] == c
    assert plan["synth 180 deep"][3] == "sum(2,4,5,7)"
    # the verify text is of the largest check-requests stratum
    verify = plan["verify 8 vars 320 gates"]
    assert verify[5:7] == ["--order", "A,B,C,D,E,F,G,H"]
    assert len(re.findall(r"M5?\(", verify[3])) >= 320


def test_one_round_of_a_cheap_case_gives_a_ratio():
    trees = {"parent": oneshot_pairs.CHANGE, "change": oneshot_pairs.CHANGE}
    times = [oneshot_pairs.one_round(trees, {"pass": ["-c", "pass"]}, n)
             for n in (1, 2)]
    assert [list(t["pass"]) for t in times] == [["parent", "change"],
                                                ["change", "parent"]]
    summary = oneshot_pairs.summarize(
        {"pass": [t["pass"] for t in times] * 2})
    assert summary["pass"]["ratio_median"] > 0


def test_every_command_case_exits_zero_in_process():
    synth._LEVELS.clear()
    for name, argv in oneshot_pairs.cases().items():
        if argv[:2] == ["-m", "qcamaj"]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv[2:]) == 0, name
