"""Bounded exact synthesis of majority networks for up to three variables.

The search deepens iteratively on the number of majority gates.  A state
is a chain of gates; a gate's operands come from the closed candidate
set, which holds the constants, the literals in both polarities, and
every gate already in the chain.  Inverters therefore appear only on
inputs; that loses no generality because inversion commutes with
majority (push any interior inverter toward the leaves) and it keeps the
candidate set closed.

Each level makes one pass with one gate enumerator, _gates.  It first
scans every state for gates whose table is still unsolved, then grows
every state by each gate that computes a function new to its chain,
keeping the first chain per (table, depth) profile.  Both uses skip
gates deeper than max_levels.  A solving gate's network is its whole
chain, so the levels stop at the most gates a cone of max_levels depth
can hold and a tight level budget ends the search early.  Truth tables
are kept in the int form of truthtable.py, and algebraically trivial
operand multisets are never tried (a repeated majority operand beyond
what a five-input pair exploits, both constants at once, or a
complementary literal pair).

Among the networks that realize a target with the fewest majority gates,
the result minimizes (gate_count, levels, inverter_count) and finally the
serialized text: each level keeps (key, network, text) per table, and a
candidate's network is built only when its key ties or beats the
incumbent's.  Repeated runs therefore return byte-identical answers.  An
exhaustive check over all 256 three-variable functions confirms that no
network inside the default budget beats the returned one on that cost
tuple at a deeper level either.  A target that cannot be reached inside
the budget yields None rather than an exception.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapacityError
from .network import (CostReport, Network, NetworkBuilder, cost, format_expr,
                      to_text)
from .truthtable import TruthTable, format_minterms, maj3, maj5, var_table

SYNTH_MAX_VARS = 3


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the synthesis search.

    max_gates caps majority nodes, max_levels caps majority depth, and
    allow_maj5 admits five-input majority gates alongside three-input
    ones.
    """

    max_gates: int = 4
    max_levels: int = 3
    allow_maj5: bool = True

    def __post_init__(self):
        if self.max_gates < 0:
            raise ValueError(f"max_gates must be >= 0, got {self.max_gates}")
        if self.max_levels < 0:
            raise ValueError(f"max_levels must be >= 0, got {self.max_levels}")


class _Gate:
    __slots__ = ("children", "table", "depth")

    def __init__(self, children, table, depth):
        self.children = children    # candidate indices
        self.table = table
        self.depth = depth


class _Searcher:
    """One synthesis run over a fixed variable count and budget."""

    def __init__(self, n_vars: int, budget: SearchBudget):
        self.n = n_vars
        self.budget = budget
        self.mask = (1 << (1 << n_vars)) - 1
        # base candidates: const0, const1, inputs, negated inputs
        tables = [0, self.mask]
        tables += [var_table(n_vars, i) for i in range(n_vars)]
        tables += [t ^ self.mask for t in tables[2:2 + n_vars]]
        self.base_tables = tables
        self.nbase = len(tables)
        self.neg_range = range(2 + n_vars, 2 + 2 * n_vars)

    # ---- candidate enumeration -----------------------------------------

    def _bad_multiset(self, ids: set[int]) -> bool:
        if {0, 1} <= ids:
            return True
        for i in self.neg_range:
            if i in ids and i - self.n in ids:
                return True
        return False

    def _combos(self, ncand: int):
        """Admissible operand index tuples over ncand candidates."""
        m3 = [c for c in itertools.combinations(range(ncand), 3)
              if not self._bad_multiset(set(c))]
        m5 = []
        if self.budget.allow_maj5:
            for c in itertools.combinations(range(ncand), 5):
                if not self._bad_multiset(set(c)):
                    m5.append(c)
            # one operand twice plus three distinct others; a triple or a
            # second pair would collapse to a smaller gate
            for p in range(ncand):
                rest = [x for x in range(ncand) if x != p]
                for c in itertools.combinations(rest, 3):
                    if not self._bad_multiset(set(c) | {p}):
                        m5.append((p, p) + c)
        return m3, m5

    def _gates(self, chain, m3, m5, wanted):
        """Gates over the chain's candidates whose table is new to the
        chain, in `wanted`, and within max_levels."""
        cand = self.base_tables + [g.table for g in chain]
        have = set(cand)
        nbase = self.nbase
        max_levels = self.budget.max_levels
        for combos, fn in ((m3, maj3), (m5, maj5)):
            for combo in combos:
                t = fn(*(cand[x] for x in combo))
                if t in have or t not in wanted:
                    continue
                depth = 1 + max(
                    (chain[x - nbase].depth if x >= nbase else 0)
                    for x in combo
                )
                if depth <= max_levels:
                    yield _Gate(combo, t, depth)

    # ---- solution bookkeeping ------------------------------------------

    def _network(self, chain, root: int) -> Network:
        """Every gate of the chain as a Network with output `root`."""
        b = NetworkBuilder(self.n)
        ids: dict[int, int] = {}

        def resolve(ci: int) -> int:
            if ci >= self.nbase:
                return ids[ci]
            if ci in (0, 1):
                return b.const(ci)
            if ci in self.neg_range:
                return b.invert(b.input(ci - 2 - self.n))
            return b.input(ci - 2)

        for j, g in enumerate(chain):
            children = [resolve(ci) for ci in g.children]
            ids[self.nbase + j] = (b.maj5(*children) if len(children) == 5
                                   else b.maj3(*children))
        return b.build(resolve(root))

    # ---- the search ------------------------------------------------------

    def run(self, targets: set[int]) -> dict[int, Network]:
        solutions: dict[int, Network] = {}
        unsolved = set(targets)

        # depth 0: constants and literals (their tables are all distinct)
        for idx, t in enumerate(self.base_tables):
            if t in unsolved:
                solutions[t] = self._network((), idx)
        unsolved -= solutions.keys()
        if not unsolved:
            return solutions

        # a gate solving an unsolved target at level k has all k chain
        # gates in its cone.  Else the cone's gates, in chain order, form a
        # shorter chain whose (table, depth) profile growth kept, and a
        # scan there with the same operands would have solved it sooner.
        # So _network and ninv take the whole chain, and a cone of depth
        # max_levels holds at most 1 + f + ... + f^(max_levels-1) gates
        fan_in = 5 if self.budget.allow_maj5 else 3
        top, width = 0, 1
        for _ in range(self.budget.max_levels):
            if top >= self.budget.max_gates:
                break
            top, width = top + width, width * fan_in
        top = min(top, self.budget.max_gates)

        states: list[tuple] = [()]       # chains of _Gate, level 0
        every_table = range(self.mask + 1)
        for level in range(1, top + 1):
            m3, m5 = self._combos(self.nbase + level - 1)
            root = self.nbase + level - 1
            best: dict[int, tuple] = {}     # table -> (key, net, text)
            for chain in states:
                for gate in self._gates(chain, m3, m5, unsolved):
                    grown = chain + (gate,)
                    ninv = len({ci for g in grown for ci in g.children
                                if ci in self.neg_range})
                    key = (level + ninv, gate.depth, ninv)
                    cur = best.get(gate.table)
                    if cur is not None and key > cur[0]:
                        continue
                    net = self._network(grown, root)
                    text = to_text(net)
                    if cur is None or key < cur[0] or text < cur[2]:
                        best[gate.table] = (key, net, text)
            for t, (_, net, _) in best.items():
                solutions[t] = net
            unsolved -= best.keys()
            if not unsolved or level == top:
                break
            # grow every chain by one new-function gate; the first chain
            # per (table, depth) profile stands for all of them
            grown_states: dict = {}
            for chain in states:
                profile = tuple((g.table, g.depth) for g in chain)
                for gate in self._gates(chain, m3, m5, every_table):
                    key = frozenset(profile + ((gate.table, gate.depth),))
                    if key not in grown_states:
                        grown_states[key] = chain + (gate,)
            states = list(grown_states.values())
        return solutions


def synthesize(spec: TruthTable, budget: SearchBudget | None = None):
    """Find a cheapest majority network for the table, or None.

    Exhaustive search is limited to three variables; larger tables raise
    CapacityError.  A target out of reach inside the budget is a normal
    not-found result, not an error.
    """
    if spec.n_vars > SYNTH_MAX_VARS:
        raise CapacityError(
            f"exact synthesis handles at most {SYNTH_MAX_VARS} variables, "
            f"got {spec.n_vars}"
        )
    budget = budget or SearchBudget()
    searcher = _Searcher(spec.n_vars, budget)
    target = spec.to_int()
    return searcher.run({target}).get(target)


@dataclass(frozen=True)
class AtlasEntry:
    minterms: frozenset[int]
    network: Network | None
    expression: str | None
    cost: CostReport | None


def synthesize_all_3var(budget: SearchBudget | None = None) -> list[AtlasEntry]:
    """Synthesize every three-variable function in one shared search.

    Returns 256 entries ordered by truth-table value.  Functions out of
    budget get a None network (and None expression and cost), which the
    text rendering marks explicitly.
    """
    budget = budget or SearchBudget()
    searcher = _Searcher(3, budget)
    solutions = searcher.run(set(range(256)))
    entries = []
    for t in range(256):
        minterms = TruthTable.from_int(3, t).minterms()
        net = solutions.get(t)
        entries.append(AtlasEntry(
            minterms=minterms,
            network=net,
            expression=format_expr(net) if net else None,
            cost=cost(net) if net else None,
        ))
    return entries


def atlas_to_text(entries) -> str:
    """Render atlas entries as one aligned record per function."""
    lines = []
    for e in entries:
        label = format_minterms(e.minterms)
        if e.network is None:
            lines.append(f"{label:<24} unsynthesizable within budget")
            continue
        c = e.cost
        lines.append(
            f"{label:<24} gates={c.gate_count} maj3={c.maj3_count} "
            f"maj5={c.maj5_count} inv={c.inverter_count} "
            f"levels={c.levels}  {e.expression}"
        )
    return "\n".join(lines) + "\n"
