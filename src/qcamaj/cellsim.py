"""Cell-level relaxation model for majority-logic primitives.

Cells sit on an integer lattice, two-dimensional for the planar gates and
three-dimensional for the cube-cell five-input gate; a grid takes only
Cell objects and rejects a position that is not a tuple of int, bool
refused.  A cell's state is a polarization in [-1, +1]; +1 encodes logic
1.  Drivers hold a fixed polarization, a numbers.Real, free cells
settle, and exactly one cell is the designated output.

Each relaxation sweep updates the non-driver cells in list order through
the saturating response

    P_i  <-  f( sum_j w(i,j) * P_j ),    f(x) = x / sqrt(1 + x*x)

using the latest neighbor values.  Relaxation stops when the largest
polarization change in a sweep drops below the tolerance.  The list order
acts as the clock schedule that real QCA gets from clock zones: a cell
listed earlier settles first.  The inverter depends on it; with its free
cells listed in reverse, driver +1 reads +0.9256, no inversion.
tests/_oracles.clocked_relax settles the cells zone by zone outward from
the drivers before the sweep, and reads every gate row as relax does,
under any order.

Couplings come from lattice geometry alone: +2.5 between face-adjacent
cells and -0.2 between diagonal cells at squared distance 2, zero
beyond.  The negative diagonal weight anti-aligns the coupled pair,
which is what the fork-and-converge inverter exploits.  The face weight
must clear f's knee with room to spare: a cell fed by a single neighbor
settles at f(w * p), so w = 2.5 keeps even the last cell of a wire above
0.9 and lets the face-coupled signal path dominate the weak diagonal
interference near gate outputs.  Couplings are symmetric, so a grid probes
the forward half of the lattice steps by position and files each pair it
finds under both cells, in time linear in its cells.  A sweep adds
w(i,j) * P_j from 0.0 in sorted-j order, so results are bit-identical to
probing every step from every cell.

The four-dot polarization convention puts +1 on charge in corners 2 and
4; the eight-dot cube convention puts +1 on charge in corners 1, 3, 6
and 8.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import (CapacityError, ChargeError, ConvergenceError,
                     UndecidedError)

DRIVER = "driver"
FREE = "free"
OUTPUT = "output"

_ROLES = (DRIVER, FREE, OUTPUT)

FACE_WEIGHT = 2.5
DIAGONAL_WEIGHT = -0.2

# bounds what one request allocates: a wire's cells, couplings and sweeps
MAX_WIRE_CELLS = 4096

# the forward half (first nonzero coordinate +1) of the steps to every coupled
# cell: one nonzero coordinate is a face step, two a diagonal; 4 in 2D, 9 in 3D
_STEPS = {
    dim: [(step, FACE_WEIGHT if sum(map(abs, step)) == 1 else DIAGONAL_WEIGHT)
          for step in itertools.product((-1, 0, 1), repeat=dim)
          if 1 <= sum(map(abs, step)) <= 2 and step > (0,) * dim]
    for dim in (2, 3)
}


def _polarization(rho: Sequence[float], plus: tuple[int, ...],
                  n_dots: int) -> float:
    try:
        count = len(rho)
    except TypeError:
        raise ChargeError(f"dot charges must be a sequence, got "
                          f"{rho!r}") from None
    if count != n_dots:
        raise ChargeError(f"expected {n_dots} dot charges, got {count}")
    if not all(isinstance(r, numbers.Real) and 0 <= r < math.inf
               for r in rho):
        raise ChargeError(f"dot charges must lie in [0, inf): {tuple(rho)}")
    total = sum(rho)
    if total == 0:
        raise ChargeError("degenerate charge state, all dots are zero")
    pos = sum(rho[i] for i in plus)
    return (pos - (total - pos)) / total


@dataclass(frozen=True)
class ChargeState4:
    """Dot charges of a planar four-dot cell, corners numbered 1..4."""

    rho: tuple[float, float, float, float]

    def polarization(self) -> float:
        return _polarization(self.rho, (1, 3), 4)


@dataclass(frozen=True)
class ChargeState8:
    """Dot charges of a cube cell, corners numbered 1..8."""

    rho: tuple[float, ...]

    def polarization(self) -> float:
        return _polarization(self.rho, (0, 2, 5, 7), 8)


class Cell(NamedTuple):
    """A cell's lattice position, its role, and a driver's held
    polarization.  Cells and a grid's cell tuple are immutable, so the
    checks a grid makes on them hold for as long as the grid lives."""

    position: tuple[int, ...]
    role: str = FREE
    polarization: float = 0.0


def _checked_index(cells: tuple[Cell, ...]
                   ) -> tuple[dict[tuple[int, ...], int], int]:
    """Map each position to its cell's index, and find the output cell's
    index, checking cell by cell in list order; raise ValueError naming
    the first faulty cell.  Cell 0 sets the grid's dimension."""
    if not cells:
        raise ValueError("a grid needs at least one cell")
    index = {}
    outputs = 0
    for i, c in enumerate(cells):
        # only a Cell, immutable, keeps what the checks read
        if type(c) is not Cell:
            raise ValueError(f"cell {i}: {c!r} is not a Cell")
        position, role, p = c
        if type(position) is not tuple:
            raise ValueError(f"cell {i}: position {position!r} is not "
                             f"a tuple")
        if not i:
            dim = len(position)
            if dim not in (2, 3):
                raise ValueError(f"positions must be 2D or 3D, got {dim}D")
        if len(position) != dim:
            raise ValueError(f"cell {i} is {len(position)}D in a {dim}D grid")
        for x in position:
            if type(x) is not int:
                raise ValueError(f"cell {i}: position {position} is off "
                                 f"the integer lattice")
        if position in index:
            raise ValueError(f"duplicate cell position {position}")
        index[position] = i
        if role not in _ROLES:
            raise ValueError(f"cell {i} has unknown role {role!r}")
        if role == OUTPUT:
            outputs += 1
            output = i
        if role == DRIVER:
            if not (isinstance(p, numbers.Real) and -1.0 <= p <= 1.0):
                raise ValueError(f"cell {i}: driver polarization must lie "
                                 f"in [-1, 1], got {p}")
    if outputs != 1:
        raise ValueError(f"need exactly one output cell, got {outputs}")
    return index, output


class CellGrid:
    """A fixed arrangement of cells with geometry-derived couplings."""

    def __init__(self, cells: Sequence[Cell]):
        try:
            cells = tuple(cells)
        except TypeError:
            raise ValueError(f"cells must be an iterable of Cell, got "
                             f"{cells!r}") from None
        index, self.output_index = _checked_index(cells)
        self.cells = cells
        axes = list(zip(*index))    # per coordinate, in cell order
        found = [[] for _ in cells]
        for step, w in _STEPS[len(axes)]:
            moved = zip(*[map(operator.add, axis, itertools.repeat(d))
                          for axis, d in zip(axes, step)])
            for i, j in enumerate(map(index.get, moved)):
                if j is not None:
                    found[i].append((j, w))
                    found[j].append((i, w))
        self._weights = [tuple(sorted(pairs)) for pairs in found]

    def coupling(self, i: int, j: int) -> float:
        inside = 0 <= i < len(self._weights)    # no wrap from the end
        return dict(self._weights[i]).get(j, 0.0) if inside else 0.0

    def neighbors(self, i: int):
        return self._weights[i]


@dataclass(frozen=True)
class RelaxResult:
    polarizations: tuple[float, ...]
    sweeps: int
    residuals: tuple[float, ...]
    output_index: int

    @property
    def output_polarization(self) -> float:
        return self.polarizations[self.output_index]


def response(x: float) -> float:
    """Saturating cell response, odd and bounded by (-1, 1)."""
    return x / math.sqrt(1.0 + x * x)


def relax(grid: CellGrid, tol: float = 1e-6, max_iter: int = 1000
          ) -> RelaxResult:
    """Sweep the grid to a fixed point.

    Free and output cells start from polarization 0.0 and update in cell
    list order, so runs are deterministic.  Raises ConvergenceError with
    the final residual if max_iter sweeps are not enough.
    """
    try:    # a non-number, or an int past the float range, fails isfinite
        ok = math.isfinite(tol) and tol > 0
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if type(max_iter) is not int:
        raise ValueError(f"max_iter must be an int, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    p = [c.polarization if c.role == DRIVER else 0.0 for c in grid.cells]
    active = [(i, grid.neighbors(i)) for i, c in enumerate(grid.cells)
              if c.role != DRIVER]
    f = response
    residuals = []
    for sweep in range(max_iter):
        worst = 0.0
        for i, neighbors in active:
            drive = 0.0
            for j, w in neighbors:
                drive += w * p[j]
            new = f(drive)
            delta = abs(new - p[i])
            if delta > worst:
                worst = delta
            p[i] = new
        residuals.append(worst)
        if worst < tol:
            return RelaxResult(tuple(p), sweep + 1, tuple(residuals),
                               grid.output_index)
    raise ConvergenceError(max_iter, residuals[-1])


def read_logic(result: RelaxResult, threshold: float = 0.5) -> int:
    """Map the output polarization to a logic value.

    Raises UndecidedError when the magnitude does not clear the
    threshold.
    """
    try:    # a non-number fails the comparison
        ok = 0 <= threshold < 1
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold!r}")
    out = result.output_polarization
    if out > threshold:
        return 1
    if out < -threshold:
        return 0
    raise UndecidedError(out, threshold)


def build_wire(length: int, driver_p: float) -> CellGrid:
    """Straight binary wire: driver, length-2 free cells, output.

    Raises CapacityError above MAX_WIRE_CELLS cells, before building any.
    """
    if type(length) is not int:
        raise ValueError(f"a wire length must be an int, got {length!r}")
    if length < 2:
        raise ValueError(f"a wire needs at least 2 cells, got {length}")
    if length > MAX_WIRE_CELLS:
        raise CapacityError(
            f"a wire holds at most {MAX_WIRE_CELLS} cells, got {length}")
    cells = [Cell((0, 0), DRIVER, driver_p)]
    cells += [Cell((x, 0)) for x in range(1, length - 1)]
    cells.append(Cell((length - 1, 0), OUTPUT))
    return CellGrid(cells)


def build_inverter(driver_p: float) -> CellGrid:
    """Fork-and-converge inverter, eleven cells.

    The signal runs through a stem, splits into two parallel three-cell
    branches, and recombines at a cell that sits diagonally off both
    branch ends; the two anti-aligning couplings flip the sign, and a
    two-cell tail delivers the inverted value.
    """
    cells = [Cell((0, 0), DRIVER, driver_p), Cell((1, 0))]
    for y in (1, -1):
        cells += [Cell((1, y)), Cell((2, y)), Cell((3, y))]
    cells += [Cell((4, 0)), Cell((5, 0)), Cell((6, 0), OUTPUT)]
    return CellGrid(cells)


def build_maj3(pa: float, pb: float, pc: float) -> CellGrid:
    """Planar three-input majority gate, five cells in a cross.

    Drivers sit above, left of, and below the free center; the output
    fills the remaining arm.
    """
    return CellGrid([
        Cell((0, 1), DRIVER, pa),
        Cell((-1, 0), DRIVER, pb),
        Cell((0, -1), DRIVER, pc),
        Cell((0, 0)),
        Cell((1, 0), OUTPUT),
    ])


def build_maj5(pa: float, pb: float, pc: float, pd: float, pe: float
               ) -> CellGrid:
    """Cube-cell five-input majority gate, seven cells in 3D.

    Five drivers press on the -x, +x, -y, +y and -z faces of the free
    center; the output sits on +z.
    """
    ps = (pa, pb, pc, pd, pe)
    positions = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1))
    cells = [Cell(pos, DRIVER, p) for pos, p in zip(positions, ps)]
    cells.append(Cell((0, 0, 0)))
    cells.append(Cell((0, 0, 1), OUTPUT))
    return CellGrid(cells)
