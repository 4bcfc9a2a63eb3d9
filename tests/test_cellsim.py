"""Charge-state polarizations and grid relaxation of the cell layouts.

The frozen polarization values were produced by a standalone reference
implementation of the same update rule and rounded here to six decimals;
the fixed-point tests re-derive the equilibrium condition independently
of the sweep order.
"""

import itertools
import math
import random
import time
import types
from decimal import Decimal
from fractions import Fraction

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
    _checked_index,
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
    for rho in ((math.nan, 0, 0, 0), (math.inf, 1, 0, 0),
                (1, 0, -math.inf, 0)):
        with pytest.raises(ChargeError):
            ChargeState4(rho).polarization()
    with pytest.raises(ChargeError):
        ChargeState8((1, 0, 1, 0, 0, 1, 0, math.nan)).polarization()
    with pytest.raises(ChargeError, match="must lie in"):
        ChargeState4(("a", 1, 1, 1)).polarization()
    for state in (ChargeState4, ChargeState8):
        with pytest.raises(ChargeError) as raised:
            state(5).polarization()
        assert str(raised.value) == "dot charges must be a sequence, got 5"
    # sized and iterable, but not indexed
    with pytest.raises(ChargeError) as raised:
        ChargeState4({1, 2, 3, 4}).polarization()
    assert str(raised.value) == (
        "dot charges must be a sequence, got {1, 2, 3, 4}")


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
    with pytest.raises(ValueError) as raised:
        CellGrid(5)
    assert str(raised.value) == "cells must be an iterable of Cell, got 5"
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
    # couplings are looked up on the integer lattice
    with pytest.raises(ValueError, match="cell 0:"):
        CellGrid([Cell((0.5, 0), OUTPUT)])
    with pytest.raises(ValueError, match="cell 1:"):
        CellGrid([Cell((0, 0), OUTPUT), Cell((1.0, 0))])
    with pytest.raises(ValueError, match="cell 2:"):
        CellGrid([Cell((0, 0, 0), OUTPUT), Cell((1, 0, 0)),
                  Cell((1, 0, math.nan))])
    # a position is a tuple of int: no list, no bool coordinate
    with pytest.raises(ValueError, match=r"^cell 0: position \[0, 0\] is not"):
        CellGrid([Cell([0, 0], OUTPUT)])
    with pytest.raises(ValueError, match=r"^cell 0: position 5 is not"):
        CellGrid([Cell(5, OUTPUT)])
    with pytest.raises(ValueError, match=r"^cell 0: position \(True, 0\)"):
        CellGrid([Cell((True, 0), OUTPUT)])
    with pytest.raises(ValueError, match=r"^cell 1: position \(1, 0, False\)"):
        CellGrid([Cell((0, 0, 0), OUTPUT), Cell((1, 0, False))])
    # with faults in two cells, the error names the first in list order
    with pytest.raises(ValueError, match=r"^duplicate cell position"):
        CellGrid([Cell((0, 0), OUTPUT), Cell((0, 0)),
                  Cell((1, 0), "emitter")])
    with pytest.raises(ValueError, match=r"^cell 0 has unknown role"):
        CellGrid([Cell((0, 0), "emitter"), Cell((1, 0, 0), OUTPUT)])
    with pytest.raises(ValueError, match=r"^cell 1 is 3D in a 2D grid$"):
        CellGrid([Cell((0, 0), OUTPUT), Cell((1, 0, 0)), Cell((0, 0))])
    with pytest.raises(ValueError, match=r"^cell 0: driver"):
        CellGrid([Cell((0, 0), DRIVER, 2.0), Cell((0.5, 0), OUTPUT)])
    with pytest.raises(ValueError, match=r"^cell 0: driver"):
        CellGrid([Cell((0, 0), DRIVER, 2.0), Cell((1, 0))])     # no output
    # a driver polarization is a real number
    for p in (None, "1", 1j, Decimal("1")):
        with pytest.raises(ValueError, match=r"^cell 0: driver polarization"):
            CellGrid([Cell((0, 0), DRIVER, p), Cell((1, 0), OUTPUT)])
    for p in (Fraction(1, 2), True):
        CellGrid([Cell((0, 0), DRIVER, p), Cell((1, 0), OUTPUT)])
    # a grid takes only Cells: a plain tuple, or a mutable object with a
    # cell's attributes whose driver could turn NaN after the checks
    with pytest.raises(ValueError, match=(
            r"^cell 0: \(\(0, 0\), 'output', 0.0\) is not a Cell$")):
        CellGrid([((0, 0), "output", 0.0)])
    with pytest.raises(ValueError, match=r"^cell 1: None is not a Cell$"):
        CellGrid([Cell((0, 0), OUTPUT), None])
    loose = types.SimpleNamespace(position=(0, 0), role=DRIVER,
                                  polarization=1.0)
    with pytest.raises(ValueError, match=r"^cell 0: namespace\("):
        CellGrid([loose, Cell((1, 0), OUTPUT)])

    class Looks(Cell):
        pass

    with pytest.raises(ValueError, match=r"^cell 1: Looks\("):
        CellGrid([Cell((0, 0), OUTPUT), Looks((1, 0))])

# what one fault makes of a cell; a grid that takes two of them, in any
# two cells, must get from the grid check the former check's index or its
# error message
FAULTS = (
    lambda c: c,
    lambda c: c._replace(position=list(c.position)),
    lambda c: c._replace(position=(*c.position, 0)),
    lambda c: c._replace(position=(True, *c.position[1:])),
    lambda c: c._replace(position=(0.5, *c.position[1:])),
    lambda c: c._replace(position=(1, *c.position[1:])),    # may duplicate
    lambda c: c._replace(role="emitter"),
    lambda c: c._replace(role=OUTPUT),
    lambda c: c._replace(role=FREE),
    lambda c: c._replace(role=DRIVER, polarization=math.nan),
    lambda c: c._replace(role=DRIVER, polarization=-1.5),
)


def _assert_checks_as_reference(cells):
    cells = tuple(cells)
    try:
        # the checks CellGrid made on cell 0 before the cell loop
        first = cells[0].position
        if type(first) is not tuple:
            raise ValueError(f"cell 0: position {first!r} is not a tuple")
        dim = len(first)
        if dim not in (2, 3):
            raise ValueError(f"positions must be 2D or 3D, got {dim}D")
        want = _oracles.checked_index_reference(cells, dim)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            _checked_index(cells)
        assert str(got.value) == str(e), cells
    else:
        index, output = _checked_index(cells)
        assert list(index.items()) == list(want.items())
        assert cells[output].role == OUTPUT


def test_grid_checks_match_the_former_cell_loop():
    for base in (build_maj3(1.0, -1.0, 1.0), build_maj5(1, 1, -1, 1, -1)):
        faults = list(itertools.product(range(len(base.cells)), FAULTS))
        for (i, f), (j, g) in itertools.product(faults, repeat=2):
            cells = list(base.cells)
            cells[i] = f(cells[i])
            cells[j] = g(cells[j])
            _assert_checks_as_reference(cells)
    # at the benchmark's long-wire size, a fault midway and at the end
    wire = build_wire(1000, 1.0).cells
    for i, f in itertools.product((500, len(wire) - 1), FAULTS):
        cells = list(wire)
        cells[i] = f(cells[i])
        _assert_checks_as_reference(cells)


def test_a_validated_grid_cannot_be_changed():
    # a driver held at 5.0 or a "bogus" role would pass no grid check
    grid = build_wire(5, 1.0)
    want = relax(grid)
    with pytest.raises(AttributeError):
        grid.cells[0].polarization = 5.0
    with pytest.raises(AttributeError):
        grid.cells[2].role = "bogus"
    with pytest.raises(TypeError):
        grid.cells[2] = Cell((2, 0), "bogus")
    assert relax(grid) == want
    assert grid.cells[0] == Cell((0, 0), DRIVER, 1.0)


GRIDS = st.sampled_from((2, 3)).flatmap(lambda dim: st.lists(
    st.tuples(*(st.integers(-3, 3) for _ in range(dim))),
    min_size=1, max_size=40, unique=True))


@given(GRIDS)
def test_neighbors_follow_the_squared_distance_rule(positions):
    grid = CellGrid([Cell(pos) for pos in positions[:-1]]
                    + [Cell(positions[-1], OUTPUT)])
    for i, a in enumerate(positions):
        expected = []
        for j, b in enumerate(positions):
            d2 = sum((x - y) ** 2 for x, y in zip(a, b))
            if d2 == 1:
                expected.append((j, FACE_WEIGHT))
            elif d2 == 2:
                expected.append((j, DIAGONAL_WEIGHT))
        assert list(grid.neighbors(i)) == expected


@given(GRIDS, st.data())
def test_coupling_is_symmetric_for_every_index(positions, data):
    grid = CellGrid([Cell(pos) for pos in positions[:-1]]
                    + [Cell(positions[-1], OUTPUT)])
    n = len(positions)
    # an index outside range(n) reads 0.0 on either side
    index = st.integers(-n, 2 * n - 1)
    for _ in range(20):
        i, j = data.draw(index), data.draw(index)
        assert grid.coupling(i, j) == grid.coupling(j, i)
        if not (0 <= i < n and 0 <= j < n):
            assert grid.coupling(i, j) == 0.0


def test_coupling_reads_zero_off_the_cell_list():
    grid = build_wire(5, 1.0)
    assert grid.coupling(2, 3) == grid.coupling(3, 2) == FACE_WEIGHT
    assert grid.coupling(-1, 3) == grid.coupling(3, -1) == 0.0
    assert grid.coupling(5, 4) == grid.coupling(4, 5) == 0.0


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
    with pytest.raises(ValueError, match="^a wire length must be an int, "
                                         "got 5.5$"):
        build_wire(5.5, 1.0)


def test_wire_length_is_capped():
    with pytest.raises(CapacityError, match=f"at most {MAX_WIRE_CELLS} cells, "
                                            f"got {MAX_WIRE_CELLS + 1}"):
        build_wire(MAX_WIRE_CELLS + 1, 1.0)


def test_longest_wire_builds_and_relaxes_within_a_second():
    start = time.perf_counter()
    result = relax(build_wire(MAX_WIRE_CELLS, 1.0))
    assert time.perf_counter() - start < 1.0
    assert read_logic(result) == 1


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
    for tol in (0.0, float("nan"), float("inf"), "1e-6", 10**400):
        with pytest.raises(ValueError) as raised:
            relax(grid, tol=tol)
        assert str(raised.value) == (
            f"tol must be finite and positive, got {tol!r}")
    with pytest.raises(ValueError):
        relax(grid, max_iter=0)
    with pytest.raises(ValueError, match="^max_iter must be an int, got 2.5$"):
        relax(grid, max_iter=2.5)


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
    for threshold in (1.0, -0.1, "0.5"):
        with pytest.raises(ValueError) as raised:
            read_logic(result, threshold=threshold)
        assert str(raised.value) == (
            f"threshold must lie in [0, 1), got {threshold!r}")


# exactness against the former coupling build and sweep loop -------------


def relax_outcome(relax_fn, grid, **kwargs):
    """Everything a relaxation gives, as reprs, so -0.0 differs from 0.0."""
    try:
        r = relax_fn(grid, **kwargs)
    except ConvergenceError as e:
        return "ConvergenceError", e.sweeps, repr(e.residual), str(e)
    return (repr(r.polarizations), r.sweeps, repr(r.residuals),
            r.output_index)


def assert_matches_reference(grid, **kwargs):
    assert ([grid.neighbors(i) for i in range(len(grid.cells))]
            == _oracles.couplings_reference(grid.cells))
    assert (relax_outcome(relax, grid, **kwargs)
            == relax_outcome(_oracles.relax_reference, grid, **kwargs))


def gate_rows():
    """The wire of 8 and the inverter driven both ways, and every maj3 and
    maj5 row: 44 grids."""
    grids = [build_wire(8, p) for p in (1.0, -1.0)]
    grids += [build_inverter(p) for p in (1.0, -1.0)]
    grids += [build_maj3(*bits_to_p(bits))
              for bits in itertools.product((0, 1), repeat=3)]
    grids += [build_maj5(*bits_to_p(bits))
              for bits in itertools.product((0, 1), repeat=5)]
    return grids


def test_every_gate_row_matches_the_reference_exactly():
    for grid in gate_rows():
        assert_matches_reference(grid)
        assert_matches_reference(grid, max_iter=2)


def test_wires_match_the_reference_exactly():
    for length in (*range(2, 65), 1000, MAX_WIRE_CELLS):
        for p in (1.0, -1.0):
            assert_matches_reference(build_wire(length, p))
    assert_matches_reference(build_wire(1000, -1.0), max_iter=3)


DRIVES = st.floats(-1, 1, allow_nan=False) | st.sampled_from((0.0, -0.0))


@given(GRIDS, st.data(), st.integers(1, 200))
def test_random_grids_match_the_reference_exactly(positions, data,
                                                  max_iter):
    # None marks a free cell, a float a driver holding it
    drives = data.draw(st.lists(st.none() | DRIVES,
                                min_size=len(positions) - 1,
                                max_size=len(positions) - 1))
    cells = [Cell(pos) if p is None else Cell(pos, DRIVER, p)
             for pos, p in zip(positions, drives)]
    grid = CellGrid(cells + [Cell(positions[-1], OUTPUT)])
    assert_matches_reference(grid, max_iter=max_iter)


# the clock ---------------------------------------------------------------


def test_clocked_relaxation_answers_as_relax_on_every_gate_row():
    for grid in gate_rows():
        want, got = relax(grid), _oracles.clocked_relax(grid)
        assert read_logic(got) == read_logic(want)
        assert (f"{got.output_polarization:+.6f}"
                == f"{want.output_polarization:+.6f}")


def test_clocked_relaxation_reads_the_same_in_any_order():
    # relax's list order is its clock: the inverter listed in reverse
    # reads its input back, while the clocked pass still inverts it
    rng = random.Random(0)
    for grid in gate_rows():
        want = read_logic(relax(grid))
        free = [i for i, c in enumerate(grid.cells) if c.role != DRIVER]
        for _ in range(50):
            rng.shuffle(free)
            assert read_logic(_oracles.clocked_relax(grid, free)) == want
    inverter = build_inverter(1.0).cells
    backwards = CellGrid(inverter[:1] + inverter[:0:-1])
    assert f"{relax(backwards).output_polarization:+.4f}" == "+0.9256"
    assert read_logic(_oracles.clocked_relax(backwards)) == 0
