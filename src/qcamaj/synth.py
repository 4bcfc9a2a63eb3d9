"""Bounded exact synthesis of majority networks for up to three variables.

The search deepens iteratively on the number of majority gates.  A state
is the set of functions (with their depths) computed by gates built so
far; expanding a state tries every admissible majority gate over the
closed candidate set, which holds the constants, the literals in both
polarities, and every gate already in the chain.  Inverters therefore
appear only on inputs; that loses no generality because inversion
commutes with majority (push any interior inverter toward the leaves)
and it keeps the candidate set closed.

Truth tables are kept in the int form of truthtable.py, and a gate that
reproduces a function already available in its chain is pruned, as are
algebraically trivial operand multisets (a repeated majority operand
beyond what a five-input pair exploits, both constants at once, or a
complementary literal pair).

Among the networks that realize a target with the fewest majority gates,
the result minimizes (gate_count, levels, inverter_count) and finally the
serialized text, so repeated runs return byte-identical answers.  An
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
    __slots__ = ("children", "table", "depth", "is_maj5")

    def __init__(self, children, table, depth, is_maj5):
        self.children = children    # candidate indices
        self.table = table
        self.depth = depth
        self.is_maj5 = is_maj5


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
        self._combo_cache: dict[int, tuple[list, list]] = {}

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
        cached = self._combo_cache.get(ncand)
        if cached is not None:
            return cached
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
        self._combo_cache[ncand] = (m3, m5)
        return m3, m5

    # ---- solution bookkeeping ------------------------------------------

    def _cone(self, chain, gate):
        """Gate indices and literal indices reachable from `gate`."""
        gates: set[int] = set()
        lits: set[int] = set()
        stack = [gate]
        while stack:
            g = stack.pop()
            for ci in g.children:
                if ci >= self.nbase:
                    j = ci - self.nbase
                    if j not in gates:
                        gates.add(j)
                        stack.append(chain[j])
                else:
                    lits.add(ci)
        return gates, lits

    def _reconstruct(self, chain, gate, cone_gates) -> Network:
        b = NetworkBuilder(self.n)
        gate_ids: dict[int, int] = {}

        def resolve(ci: int) -> int:
            if ci >= self.nbase:
                return gate_ids[ci - self.nbase]
            if ci == 0:
                return b.const(0)
            if ci == 1:
                return b.const(1)
            if ci in self.neg_range:
                return b.invert(b.input(ci - 2 - self.n))
            return b.input(ci - 2)

        def emit(g) -> int:
            children = [resolve(ci) for ci in g.children]
            return b.maj5(*children) if g.is_maj5 else b.maj3(*children)

        for j in sorted(cone_gates):
            gate_ids[j] = emit(chain[j])
        return b.build(emit(gate))

    def _base_network(self, idx: int) -> Network:
        b = NetworkBuilder(self.n)
        if idx in (0, 1):
            root = b.const(idx)
        elif idx in self.neg_range:
            root = b.invert(b.input(idx - 2 - self.n))
        else:
            root = b.input(idx - 2)
        return b.build(root)

    def _offer(self, best: dict, table: int, key, chain, gate):
        """Keep the candidate if it beats the incumbent on the cost key,
        with serialized text as the deterministic final tie-break."""
        cur = best.get(table)
        if cur is None or key < cur[0]:
            best[table] = (key, chain, gate, None)
            return
        if key > cur[0]:
            return
        new_net = self._solution_network(chain, gate)
        cur_net = cur[3] or self._solution_network(cur[1], cur[2])
        if to_text(new_net) < to_text(cur_net):
            best[table] = (key, chain, gate, new_net)
        else:
            best[table] = (cur[0], cur[1], cur[2], cur_net)

    def _solution_network(self, chain, gate) -> Network:
        cone_gates, _ = self._cone(chain, gate)
        return self._reconstruct(chain, gate, cone_gates)

    # ---- the search ------------------------------------------------------

    def run(self, targets: set[int]) -> dict[int, Network]:
        solutions: dict[int, Network] = {}
        unsolved = set(targets)

        # depth 0: constants and literals (their tables are all distinct)
        for idx, t in enumerate(self.base_tables):
            if t in unsolved:
                solutions[t] = self._base_network(idx)
        unsolved -= solutions.keys()
        if not unsolved:
            return solutions

        states: list[tuple] = [()]       # chains of _Gate, level 0
        for level in range(1, self.budget.max_gates + 1):
            m3, m5 = self._combos(self.nbase + level - 1)
            best = {}
            for chain in states:
                cand = self.base_tables + [g.table for g in chain]
                have = set(cand)
                for combos, fn, is5 in ((m3, maj3, False), (m5, maj5, True)):
                    for combo in combos:
                        t = fn(*(cand[x] for x in combo))
                        if t in have or t not in unsolved:
                            continue
                        depth = 1 + max(
                            (chain[x - self.nbase].depth
                             if x >= self.nbase else 0)
                            for x in combo
                        )
                        if depth > self.budget.max_levels:
                            continue
                        gate = _Gate(combo, t, depth, is5)
                        _, lits = self._cone(chain, gate)
                        ninv = sum(1 for l in lits if l in self.neg_range)
                        key = (level + ninv, depth, ninv)
                        self._offer(best, t, key, chain, gate)
            for t, (_, chain, gate, net) in best.items():
                solutions[t] = net or self._solution_network(chain, gate)
            unsolved -= best.keys()
            if not unsolved or level == self.budget.max_gates:
                break
            states = self._expand(states, level)
        return solutions

    def _expand(self, states, level):
        """Grow every chain by one admissible new-function gate."""
        m3, m5 = self._combos(self.nbase + level - 1)
        new_states: dict = {}
        for chain in states:
            cand = self.base_tables + [g.table for g in chain]
            have = set(cand)
            profile = tuple((g.table, g.depth) for g in chain)
            for combos, fn, is5 in ((m3, maj3, False), (m5, maj5, True)):
                for combo in combos:
                    t = fn(*(cand[x] for x in combo))
                    if t in have:
                        continue
                    depth = 1 + max(
                        (chain[x - self.nbase].depth if x >= self.nbase else 0)
                        for x in combo
                    )
                    if depth > self.budget.max_levels:
                        continue
                    key = frozenset(profile + ((t, depth),))
                    if key not in new_states:
                        new_states[key] = chain + (_Gate(combo, t, depth, is5),)
        return list(new_states.values())


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
