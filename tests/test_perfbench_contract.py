"""The benchmark's tracer still fits the package.

perfbench/spans.py wraps package functions by module and attribute name
and reads arguments and results to take its counts, so a rename or a
changed result shape breaks the benchmark, not the package's own tests.
This runs one command per traced path through cli.main with the tracer
installed and checks what it recorded.
"""

import sys
from pathlib import Path

import pytest

from qcamaj import TruthTable
from qcamaj import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

COMMANDS = (
    ["synth", "sum(1,6)"],
    ["verify", "M(A,B,C)", "sum(3,5,6,7)"],
    ["atlas", "--max-gates", "1"],
    ["adders"],
    ["audit-tables"],
    ["sim", "maj3", "101"],
    ["sim", "wire", "1", "--length", "1000"],
)


@pytest.fixture
def spans(monkeypatch):
    # the benchmark's modules import each other by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    own = {p.stem for p in PERFBENCH.glob("*.py")}
    before = set(sys.modules)
    import spans
    yield spans
    for name in (set(sys.modules) - before) & own:
        del sys.modules[name]


def package_attributes():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "qcamaj" or name.startswith("qcamaj.")}


def test_tracer_records_every_target_and_restores_the_originals(spans,
                                                                capsys):
    before = package_attributes()
    from_minterms = TruthTable.__dict__["from_minterms"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert TruthTable.__dict__["from_minterms"] is not from_minterms
        for request, argv in enumerate(COMMANDS):
            tracer.request = request
            # through the module, as the benchmark calls it
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert ({s.name for s in tracer.spans}
            == {name for _, _, name, _ in spans.TARGETS})
    synths = [s for s in tracer.spans if s.name == "synth.synthesize"]
    assert [s.counts["table"] for s in synths] == [66]
    assert synths[0].counts["default_budget"] and synths[0].counts["found"]
    wire = COMMANDS.index(["sim", "wire", "1", "--length", "1000"])
    cells = {s.name: s.counts for s in tracer.spans
             if s.request == wire and s.name.startswith("cellsim.")}
    assert cells["cellsim.build"]["cells"] == 1000
    assert cells["cellsim.relax"]["sweeps"] == 5

    assert TruthTable.__dict__["from_minterms"] is from_minterms
    # every function and class the modules held before, by identity
    after = package_attributes()
    for name, attributes in before.items():
        for key, value in attributes.items():
            if callable(value):
                assert after[name][key] is value, (name, key)


def test_tracer_reads_a_not_found_search(spans, capsys):
    # synth-requests' not-found request: sum(1,6) needs three gates
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["synth", "sum(1,6)", "--max-gates", "2"]) == 1
    finally:
        tracer.uninstall()
    capsys.readouterr()

    [synth] = [s for s in tracer.spans if s.name == "synth.synthesize"]
    assert synth.counts == {"table": 66, "default_budget": False,
                            "found": False}
