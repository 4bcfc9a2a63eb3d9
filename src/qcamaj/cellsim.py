"""Cell-level relaxation model for majority-logic primitives.

Cells sit on an integer lattice, two-dimensional for the planar gates and
three-dimensional for the cube-cell five-input gate.  A cell's state is a
polarization in [-1, +1]; +1 encodes logic 1.  Drivers hold a fixed
polarization, free cells settle, and exactly one cell is the designated
output.

Each relaxation sweep updates the non-driver cells in list order through
the saturating response

    P_i  <-  f( sum_j w(i,j) * P_j ),    f(x) = x / sqrt(1 + x*x)

using the latest neighbor values.  Relaxation stops when the largest
polarization change in a sweep drops below the tolerance.

Couplings come from lattice geometry alone: +2.5 between face-adjacent
cells and -0.2 between diagonal cells at squared distance 2, zero
beyond.  The negative diagonal weight anti-aligns the coupled pair,
which is what the fork-and-converge inverter exploits.  The face weight
must clear f's knee with room to spare: a cell fed by a single neighbor
settles at f(w * p), so w = 2.5 keeps even the last cell of a wire above
0.9 and lets the face-coupled signal path dominate the weak diagonal
interference near gate outputs.

The four-dot polarization convention puts +1 on charge in corners 2 and
4; the eight-dot cube convention puts +1 on charge in corners 1, 3, 6
and 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (CapacityError, ChargeError, ConvergenceError,
                     UndecidedError)

DRIVER = "driver"
FREE = "free"
OUTPUT = "output"

_ROLES = (DRIVER, FREE, OUTPUT)

FACE_WEIGHT = 2.5
DIAGONAL_WEIGHT = -0.2

# the coupling build compares every pair of cells, so a wire's build time
# grows with the square of its length
MAX_WIRE_CELLS = 4096


def _polarization(rho: Sequence[float], plus: tuple[int, ...],
                  n_dots: int) -> float:
    if len(rho) != n_dots:
        raise ChargeError(f"expected {n_dots} dot charges, got {len(rho)}")
    if any(r < 0 for r in rho):
        raise ChargeError(f"dot charges must be non-negative: {tuple(rho)}")
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


@dataclass
class Cell:
    position: tuple[int, ...]
    role: str = FREE
    polarization: float = 0.0


class CellGrid:
    """A fixed arrangement of cells with geometry-derived couplings."""

    def __init__(self, cells: Sequence[Cell]):
        cells = list(cells)
        if not cells:
            raise ValueError("a grid needs at least one cell")
        dim = len(cells[0].position)
        if dim not in (2, 3):
            raise ValueError(f"positions must be 2D or 3D, got {dim}D")
        seen = set()
        outputs = []
        for i, c in enumerate(cells):
            if len(c.position) != dim:
                raise ValueError(
                    f"cell {i} is {len(c.position)}D in a {dim}D grid"
                )
            if c.position in seen:
                raise ValueError(f"duplicate cell position {c.position}")
            seen.add(c.position)
            if c.role not in _ROLES:
                raise ValueError(f"cell {i} has unknown role {c.role!r}")
            if c.role == OUTPUT:
                outputs.append(i)
            if c.role == DRIVER and not -1.0 <= c.polarization <= 1.0:
                raise ValueError(
                    f"cell {i}: driver polarization must lie in [-1, 1], "
                    f"got {c.polarization}"
                )
        if len(outputs) != 1:
            raise ValueError(f"need exactly one output cell, got {len(outputs)}")
        self.cells = cells
        self.output_index = outputs[0]
        self._weights = self._couple_all()

    def _couple_all(self):
        n = len(self.cells)
        weights: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = self.coupling(i, j)
                if w:
                    weights[i].append((j, w))
                    weights[j].append((i, w))
        return weights

    def coupling(self, i: int, j: int) -> float:
        a, b = self.cells[i], self.cells[j]
        d2 = sum((x - y) ** 2 for x, y in zip(a.position, b.position))
        if d2 == 1:
            return FACE_WEIGHT
        if d2 == 2:
            return DIAGONAL_WEIGHT
        return 0.0

    def neighbors(self, i: int):
        return tuple(self._weights[i])


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
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    p = [c.polarization if c.role == DRIVER else 0.0 for c in grid.cells]
    active = [i for i, c in enumerate(grid.cells) if c.role != DRIVER]
    residuals = []
    for sweep in range(max_iter):
        worst = 0.0
        for i in active:
            drive = 0.0
            for j, w in grid.neighbors(i):
                drive += w * p[j]
            new = response(drive)
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
    if not 0 <= threshold < 1:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
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
