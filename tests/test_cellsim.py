"""Charge-state polarizations and grid relaxation of the cell layouts.

The frozen polarization values were produced by a standalone reference
implementation of the same update rule and rounded here to six decimals;
the fixed-point tests re-derive the equilibrium condition independently
of the sweep order.
"""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from qcamaj import (
    Cell,
    CellGrid,
    ChargeState4,
    ChargeState8,
    build_inverter,
    build_maj3,
    build_maj5,
    build_wire,
    read_logic,
    relax,
)
from qcamaj.cellsim import (
    DIAGONAL_WEIGHT,
    DRIVER,
    FACE_WEIGHT,
    FREE,
    MAX_WIRE_CELLS,
    OUTPUT,
    response,
)
from qcamaj.errors import (CapacityError, ChargeError, ConvergenceError,
                           UndecidedError)

import _oracles


def bits_to_p(bits):
    return [2.0 * b - 1.0 for b in bits]


# charge states ---------------------------------------------------------


def test_four_dot_polarization_extremes():
    assert ChargeState4((0, 1, 0, 1)).polarization() == 1.0
    assert ChargeState4((1, 0, 1, 0)).polarization() == -1.0
    assert ChargeState4((0.5, 0.5, 0.5, 0.5)).polarization() == 0.0


def test_four_dot_polarization_partial():
    assert ChargeState4((0, 3, 0, 1)).polarization() == pytest.approx(1.0)
    assert ChargeState4((1, 3, 0, 0)).polarization() == pytest.approx(0.5)


def test_eight_dot_polarization_extremes():
    plus = (1, 0, 1, 0, 0, 1, 0, 1)   # charge on corners 1, 3, 6, 8
    minus = (0, 1, 0, 1, 1, 0, 1, 0)  # charge on corners 2, 4, 5, 7
    assert ChargeState8(plus).polarization() == 1.0
    assert ChargeState8(minus).polarization() == -1.0


def test_charge_state_validation():
    with pytest.raises(ChargeError):
        ChargeState4((1, 0, 1)).polarization()
    with pytest.raises(ChargeError):
        ChargeState4((1, 0, 1, -0.1)).polarization()
    with pytest.raises(ChargeError):
        ChargeState4((0, 0, 0, 0)).polarization()
    with pytest.raises(ChargeError):
        ChargeState8((1, 0, 1, 0)).polarization()


# geometry and couplings ------------------------------------------------


def test_coupling_rule_depends_only_on_geometry():
    grid = CellGrid([
        Cell((0, 0), DRIVER, 1.0),
        Cell((1, 0)),
        Cell((1, 1)),
        Cell((3, 3), OUTPUT),
    ])
    assert grid.coupling(0, 1) == FACE_WEIGHT
    assert grid.coupling(1, 2) == FACE_WEIGHT
    assert grid.coupling(0, 2) == DIAGONAL_WEIGHT  # role plays no part
    assert grid.coupling(2, 3) == 0.0              # too far apart
    grid3 = CellGrid([Cell((0, 0, 0)), Cell((1, 1, 0)),
                      Cell((1, 1, 1), OUTPUT)])
    assert grid3.coupling(0, 1) == DIAGONAL_WEIGHT
    assert grid3.coupling(0, 2) == 0.0             # squared distance 3


def test_grid_validation():
    with pytest.raises(ValueError):
        CellGrid([])
    with pytest.raises(ValueError):
        CellGrid([Cell((0,), OUTPUT)])                      # 1D
    with pytest.raises(ValueError):
        CellGrid([Cell((0, 0), OUTPUT), Cell((1, 0, 0))])   # mixed dims
    with pytest.raises(ValueError):
        CellGrid([Cell((0, 0), OUTPUT), Cell((0, 0))])      # duplicate
    with pytest.raises(ValueError):
        CellGrid([Cell((0, 0), "emitter")])                 # unknown role
    with pytest.raises(ValueError):
        CellGrid([Cell((0, 0)), Cell((1, 0))])              # no output
    with pytest.raises(ValueError):
        CellGrid([Cell((0, 0), OUTPUT), Cell((1, 0), OUTPUT)])
    with pytest.raises(ValueError, match="cell 0: driver"):
        CellGrid([Cell((0, 0), DRIVER, 1.5), Cell((1, 0), OUTPUT)])
    # the builders leave driver checks to CellGrid
    with pytest.raises(ValueError, match="cell 0: driver"):
        build_wire(3, 1.5)
    with pytest.raises(ValueError, match="cell 1: driver"):
        build_maj3(1.0, float("nan"), 1.0)
    with pytest.raises(ValueError, match="cell 4: driver"):
        build_maj5(1.0, 1.0, -1.0, 1.0, -1.5)


def test_response_shape():
    assert response(0.0) == 0.0
    assert response(1.0) == pytest.approx(1 / math.sqrt(2))
    assert response(-1.0) == -response(1.0)
    assert abs(response(50.0)) < 1.0
    xs = [0.1 * k for k in range(-30, 31)]
    assert all(response(a) < response(b)
               for a, b in zip(xs, xs[1:]))


# relaxation ------------------------------------------------------------


def test_wire_polarizations_frozen():
    result = relax(build_wire(5, 1.0))
    assert result.sweeps == 5
    expected = (1.0, 0.980194, 0.979781, 0.978668, 0.925668)
    assert result.polarizations == pytest.approx(expected, abs=1e-5)
    assert read_logic(result) == 1


def test_wire_keeps_every_cell_strongly_polarized():
    for length in range(2, 11):
        result = relax(build_wire(length, 1.0))
        assert all(p > 0.9 for p in result.polarizations), length


def test_wire_polarization_decays_monotonically():
    result = relax(build_wire(8, 1.0))
    mags = [abs(p) for p in result.polarizations]
    assert all(a >= b for a, b in zip(mags, mags[1:]))
    assert mags[-1] > 0.9


def test_wire_carries_both_logic_values():
    for length in range(2, 11):
        for bit in (0, 1):
            result = relax(build_wire(length, bits_to_p([bit])[0]))
            assert read_logic(result) == bit


def test_wire_needs_two_cells():
    with pytest.raises(ValueError):
        build_wire(1, 1.0)


def test_wire_length_is_capped():
    with pytest.raises(CapacityError, match=f"at most {MAX_WIRE_CELLS} cells, "
                                            f"got {MAX_WIRE_CELLS + 1}"):
        build_wire(MAX_WIRE_CELLS + 1, 1.0)


def test_equilibrium_satisfies_update_rule():
    # independent of sweep order, a converged state must be a fixed
    # point of p_i = f(sum_j w_ij p_j) for every non-driver cell
    for grid in (build_wire(6, 0.8), build_inverter(1.0),
                 build_maj3(1.0, -1.0, 1.0), build_maj5(1, 1, -1, -1, 1)):
        result = relax(grid, tol=1e-9)
        p = result.polarizations
        for i, cell in enumerate(grid.cells):
            if cell.role == DRIVER:
                assert p[i] == cell.polarization
                continue
            drive = sum(w * p[j] for j, w in grid.neighbors(i))
            assert p[i] == pytest.approx(response(drive), abs=1e-7)


def test_inverter_flips_both_values():
    result = relax(build_inverter(1.0))
    assert result.sweeps == 6
    assert result.output_polarization == pytest.approx(-0.925554, abs=1e-5)
    assert read_logic(result) == 0
    result = relax(build_inverter(-1.0))
    assert result.output_polarization == pytest.approx(+0.925554, abs=1e-5)
    assert read_logic(result) == 1


def test_maj3_agrees_with_gate_truth_table():
    for bits in itertools.product((0, 1), repeat=3):
        result = relax(build_maj3(*bits_to_p(bits)))
        assert read_logic(result) == _oracles.maj3_sop(*bits), bits


def test_maj3_worst_case_margin_frozen():
    worst = min(
        abs(relax(build_maj3(*bits_to_p(bits))).output_polarization)
        for bits in itertools.product((0, 1), repeat=3))
    assert worst == pytest.approx(0.898455, abs=1e-5)
    assert worst > 0.5


def test_maj5_agrees_with_gate_truth_table():
    for bits in itertools.product((0, 1), repeat=5):
        result = relax(build_maj5(*bits_to_p(bits)))
        assert read_logic(result) == _oracles.maj5_sop(*bits), bits


def test_maj5_worst_case_margin_frozen():
    worst = min(
        abs(relax(build_maj5(*bits_to_p(bits))).output_polarization)
        for bits in itertools.product((0, 1), repeat=5))
    assert worst == pytest.approx(0.860184, abs=1e-5)
    assert worst > 0.5


def test_all_polarizations_stay_in_open_unit_interval():
    for bits in itertools.product((0, 1), repeat=3):
        result = relax(build_maj3(*bits_to_p(bits)))
        assert all(-1.0 <= p <= 1.0 for p in result.polarizations)


def test_relaxation_is_deterministic():
    a = relax(build_maj3(1.0, -1.0, 1.0))
    b = relax(build_maj3(1.0, -1.0, 1.0))
    assert a.polarizations == b.polarizations
    assert a.sweeps == b.sweeps
    assert a.residuals == b.residuals


def test_negating_drivers_negates_every_cell_exactly():
    grids = [
        (build_wire(7, 0.9), build_wire(7, -0.9)),
        (build_inverter(1.0), build_inverter(-1.0)),
        (build_maj3(1.0, -1.0, 1.0), build_maj3(-1.0, 1.0, -1.0)),
        (build_maj5(1, 1, -1, 1, -1), build_maj5(-1, -1, 1, -1, 1)),
    ]
    for plus, minus in grids:
        rp = relax(plus)
        rm = relax(minus)
        assert rp.sweeps == rm.sweeps
        for a, b in zip(rp.polarizations, rm.polarizations):
            assert a == -b


@given(st.tuples(*(st.floats(-1, 1, allow_nan=False) for _ in range(3))))
def test_odd_symmetry_for_arbitrary_drivers(ps):
    rp = relax(build_maj3(*ps))
    rm = relax(build_maj3(*(-p for p in ps)))
    for a, b in zip(rp.polarizations, rm.polarizations):
        assert a == -b


def test_relax_parameter_validation():
    grid = build_wire(3, 1.0)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            relax(grid, tol=tol)
    with pytest.raises(ValueError):
        relax(grid, max_iter=0)


def test_convergence_error_reports_residual():
    with pytest.raises(ConvergenceError) as exc:
        relax(build_wire(5, 1.0), max_iter=2)
    assert exc.value.sweeps == 2
    assert exc.value.residual > 1e-6


def test_read_logic_threshold_band():
    result = relax(build_maj3(1.0, 1.0, -1.0))
    assert read_logic(result, threshold=0.0) == 1
    with pytest.raises(UndecidedError) as exc:
        read_logic(result, threshold=0.99)
    assert exc.value.threshold == 0.99
    assert abs(exc.value.polarization) < 0.99
    with pytest.raises(ValueError):
        read_logic(result, threshold=1.0)
    with pytest.raises(ValueError):
        read_logic(result, threshold=-0.1)
