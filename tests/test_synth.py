"""Exact synthesis: the minimum majority count against an independent
search, determinism, budget handling, and the full three-variable atlas."""

import functools
import hashlib
import itertools
import operator
import os
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from qcamaj import (
    NetworkBuilder,
    SearchBudget,
    TruthTable,
    atlas_to_text,
    cost,
    format_expr,
    parse_expr,
    synthesize,
    synthesize_all_3var,
    to_text,
    truth_table,
    verify,
)
from qcamaj import synth
from qcamaj.errors import CapacityError
from qcamaj.network import reachable
from qcamaj.synth import _Rows, _Searcher, _first_row
from qcamaj.truthtable import maj3, maj5

import _oracles


def table_key(tt):
    return sum(bit << k for k, bit in enumerate(tt.bits))


@pytest.fixture(scope="module")
def atlas():
    return synthesize_all_3var()


@pytest.fixture(scope="module")
def no_maj5_atlas():
    return synthesize_all_3var(
        SearchBudget(max_gates=4, max_levels=4, allow_maj5=False))


@pytest.fixture(scope="module")
def oracle_counts():
    return _oracles.min_majority_counts(allow_maj5=True)


def test_atlas_covers_every_function(atlas):
    assert len(atlas) == 256
    assert [table_key(TruthTable.from_minterms(3, e.minterms))
            for e in atlas] == list(range(256))
    assert all(e.network is not None for e in atlas)


def test_atlas_networks_verify(atlas):
    for e in atlas:
        spec = TruthTable.from_minterms(3, e.minterms)
        assert verify(e.network, spec).equivalent, e.expression


def test_atlas_majority_counts_match_independent_search(atlas, oracle_counts):
    for e in atlas:
        spec = TruthTable.from_minterms(3, e.minterms)
        majority = e.cost.maj3_count + e.cost.maj5_count
        assert majority == oracle_counts[table_key(spec)], e.expression


def test_majority_count_distribution_is_frozen(atlas):
    dist = Counter(e.cost.maj3_count + e.cost.maj5_count for e in atlas)
    assert dist == {0: 8, 1: 96, 2: 120, 3: 32}


def test_atlas_respects_default_budget(atlas):
    for e in atlas:
        assert e.cost.maj3_count + e.cost.maj5_count <= 4
        assert e.cost.levels <= 3


def test_single_gate_identities(atlas):
    by_minterms = {e.minterms: e for e in atlas}
    and3 = by_minterms[frozenset({7})]
    assert and3.cost.gate_count == 1
    or3 = by_minterms[frozenset({1, 2, 3, 4, 5, 6, 7})]
    assert or3.cost.gate_count == 1
    maj = by_minterms[frozenset({3, 5, 6, 7})]
    assert maj.cost.gate_count == 1
    assert maj.cost.levels == 1


def test_trivial_functions_need_no_gates(atlas):
    by_minterms = {e.minterms: e for e in atlas}
    for ms in [frozenset(), frozenset(range(8)),
               frozenset({4, 5, 6, 7}),            # A
               frozenset({0, 1, 2, 3})]:           # A'
        entry = by_minterms[ms]
        assert entry.cost.maj3_count + entry.cost.maj5_count == 0


def test_parity_needs_two_majority_gates(atlas):
    by_minterms = {e.minterms: e for e in atlas}
    entry = by_minterms[frozenset({1, 2, 4, 7})]
    assert entry.cost.maj3_count + entry.cost.maj5_count == 2


def test_single_target_matches_atlas_and_is_deterministic(atlas):
    # the scan prunes rows by the wanted tables, so one target and all
    # 256 take different paths through it
    deep = SearchBudget(5, 5, False)
    for budget, entries in ((SearchBudget(), atlas),
                            (deep, synthesize_all_3var(deep))):
        for key in range(256):
            spec = TruthTable(3, tuple((key >> k) & 1 for k in range(8)))
            first = synthesize(spec, budget)
            second = synthesize(spec, budget)
            assert to_text(first) == to_text(second)
            assert to_text(first) == to_text(entries[key].network)


def test_solution_is_lexicographic_minimum_on_cost(atlas, oracle_counts):
    # within the deepening level the chosen network minimizes
    # (gate_count, levels, inverter_count); spot-check a disagreement
    # would show up as a cheaper verified alternative
    entry = next(e for e in atlas if e.minterms == frozenset({1, 2, 4, 7}))
    assert (entry.cost.gate_count, entry.cost.levels,
            entry.cost.inverter_count) == (5, 2, 3)


def test_inverter_term_is_minimal_only_over_input_inverters():
    # the documented limit of the claim: one output inverter
    # (M(x,y,z)' = M(x',y',z')) costs fewer gates than the three input
    # inverters the search returns, at the same majority count and levels
    spec = TruthTable.from_minterms(3, {0, 1, 2, 4})
    found = synthesize(spec)
    outside = parse_expr("M(A,B,C)'", ("A", "B", "C"))
    assert format_expr(found) == "M(A',B',C')"
    assert verify(outside, spec).equivalent
    a, b = cost(found), cost(outside)
    assert (a.gate_count, b.gate_count) == (4, 2)
    assert ((a.maj3_count + a.maj5_count, a.levels)
            == (b.maj3_count + b.maj5_count, b.levels))


def permuted(t, perm):
    """Table of f(x[perm[0]], x[perm[1]], x[perm[2]]) for f's table t."""
    out = 0
    for k in range(8):
        x = [(k >> (2 - i)) & 1 for i in range(3)]
        j = 4 * x[perm[0]] + 2 * x[perm[1]] + x[perm[2]]
        out |= ((t >> j) & 1) << k
    return out


def dual(t):
    """Table of f(x')' for f's table t: minterm k of x' is minterm 7 - k."""
    return sum((((t >> (7 - k)) & 1) ^ 1) << k for k in range(8))


def test_cost_key_is_invariant_under_input_permutation(atlas, no_maj5_atlas):
    split_differs = 0
    for entries in (atlas, no_maj5_atlas):
        for t, e in enumerate(entries):
            for perm in itertools.permutations(range(3)):
                p = entries[permuted(t, perm)].cost
                assert ((p.gate_count, p.levels, p.inverter_count)
                        == (e.cost.gate_count, e.cost.levels,
                            e.cost.inverter_count)), (t, perm)
                split_differs += p.maj3_count != e.cost.maj3_count
    # the text tie-break picks the maj3/maj5 split by variable name
    assert split_differs == 58
    assert atlas[permuted(24, (2, 1, 0))].minterms == frozenset({1, 6})
    assert (atlas[24].cost.maj3_count, atlas[24].cost.maj5_count) == (1, 2)
    assert (atlas[66].cost.maj3_count, atlas[66].cost.maj5_count) == (0, 3)


def test_majority_count_and_levels_are_self_dual(atlas, no_maj5_atlas):
    # majority is self-dual, so f and f(x')' need the same gates
    for entries in (atlas, no_maj5_atlas):
        for t, e in enumerate(entries):
            d = entries[dual(t)].cost
            assert ((d.maj3_count + d.maj5_count, d.levels)
                    == (e.cost.maj3_count + e.cost.maj5_count,
                        e.cost.levels)), t


def test_budget_zero_gates_only_solves_trivial_targets():
    budget = SearchBudget(max_gates=0)
    assert synthesize(TruthTable.from_minterms(3, {4, 5, 6, 7}),
                      budget) is not None
    assert synthesize(TruthTable.from_minterms(3, {7}), budget) is None


def test_budget_too_small_returns_none():
    parity = TruthTable.from_minterms(3, {1, 2, 4, 7})
    assert synthesize(parity, SearchBudget(max_gates=1)) is None
    assert synthesize(parity, SearchBudget(max_gates=2)) is not None


def test_level_budget_prunes_deep_solutions():
    # parity has two-gate realizations but none of depth one
    parity = TruthTable.from_minterms(3, {1, 2, 4, 7})
    assert synthesize(parity, SearchBudget(max_gates=2, max_levels=1)) is None


def test_tight_level_budget_ends_not_found():
    # one level of maj3 holds one gate, however many gates are allowed
    target = TruthTable.from_minterms(3, {1, 6})
    assert synthesize(target, SearchBudget(6, 1, False)) is None


def test_gate_budget_past_the_level_cap_changes_nothing():
    for wide, narrow, digest in (
        (SearchBudget(3, 1, False), SearchBudget(1, 1, False),
         "56cd5681c55b57005deb42e5fa36c21a3cc922f04eadee93d14828af6e23729d"),
        (SearchBudget(2, 1, True), SearchBudget(1, 1, True),
         "b0aebc7145d09842a313ea13459f9efc12ac7f2f288b6877302a0106ea2c061d"),
    ):
        text = atlas_to_text(synthesize_all_3var(wide))
        assert text == atlas_to_text(synthesize_all_3var(narrow))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_no_maj5_atlas_matches_independent_search(no_maj5_atlas):
    entries = no_maj5_atlas
    counts = _oracles.min_majority_counts(allow_maj5=False, max_gates=4)
    dist = Counter()
    for e in entries:
        assert e.network is not None
        assert e.cost.maj5_count == 0
        spec = TruthTable.from_minterms(3, e.minterms)
        assert verify(e.network, spec).equivalent
        majority = e.cost.maj3_count
        assert majority == counts[table_key(spec)]
        dist[majority] += 1
    assert dist == {0: 8, 1: 32, 2: 64, 3: 56, 4: 96}


def test_some_solutions_use_five_input_gates(atlas):
    used = sum(1 for e in atlas if e.cost.maj5_count > 0)
    assert used > 0


def test_capacity_is_three_variables():
    with pytest.raises(CapacityError):
        synthesize(TruthTable.from_minterms(4, {1}))


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_gates=-1)
    with pytest.raises(ValueError):
        SearchBudget(max_levels=-1)
    for bad in ({"max_gates": 2.5}, {"max_levels": "3"}, {"max_gates": True},
                {"allow_maj5": "no"}, {"allow_maj5": 1}):
        with pytest.raises(ValueError):
            SearchBudget(**bad)


def test_every_answer_respects_both_caps():
    # pins the depth bound that growth alone now enforces
    def check(net, budget):
        c = cost(net)
        assert c.maj3_count + c.maj5_count <= budget.max_gates, budget
        assert c.levels <= budget.max_levels, budget
        assert budget.allow_maj5 or c.maj5_count == 0, budget

    for maj5 in (True, False):
        for gates in range(7):
            for levels in range(6):
                budget = SearchBudget(gates, levels, maj5)
                for n in (1, 2):
                    for t in range(1 << (1 << n)):
                        net = synthesize(TruthTable.from_int(n, t), budget)
                        if net is not None:
                            check(net, budget)
        for gates in (2, 3, 4):
            for levels in (1, 2):
                budget = SearchBudget(gates, levels, maj5)
                for e in synthesize_all_3var(budget):
                    if e.network is not None:
                        check(e.network, budget)


def test_operand_tuples_are_built_once_per_key():
    full = _Searcher(3, SearchBudget())._combos(9)
    assert _Searcher(3, SearchBudget(2, 1))._combos(9) is full
    no_maj5 = _Searcher(3, SearchBudget(allow_maj5=False))._combos(9)
    assert no_maj5 != full and {len(c) for c in no_maj5} == {3}
    assert _Searcher(2, SearchBudget())._combos(9) != full


# one target per minimum majority count 0-3 under each budget
BY_CLASS = {SearchBudget(): {0: 15, 1: 7, 2: 22, 3: 24},
            SearchBudget(5, 5, False): {0: 15, 1: 23, 2: 7, 3: 27}}


@pytest.mark.parametrize("budget", list(BY_CLASS))
def test_levels_built_for_one_target_answer_another(budget):
    # an answer on levels a different target built, in either order,
    # equals the answer on levels built cold for it alone
    specs = {c: TruthTable.from_int(3, t) for c, t in BY_CLASS[budget].items()}
    cold = {}
    for c, spec in specs.items():
        synth._LEVELS.clear()
        net = synthesize(spec, budget)
        assert cost(net).maj3_count + cost(net).maj5_count == c
        cold[c] = to_text(net)
    for first in specs:
        for then in specs:
            if first != then:
                synth._LEVELS.clear()
                synthesize(specs[first], budget)
                assert to_text(synthesize(specs[then], budget)) == cold[then]


def test_levels_are_built_once_per_key(monkeypatch):
    grow = _Searcher._grow
    grown = []

    def counted(self, rows):
        grown.append(rows.level)
        return grow(self, rows)

    monkeypatch.setattr(_Searcher, "_grow", counted)
    monkeypatch.setattr(synth, "_LEVELS", {})
    spec = TruthTable.from_int(3, BY_CLASS[SearchBudget()][3])
    # max_gates only sets the level where a search stops
    for budget in (SearchBudget(), SearchBudget(), SearchBudget(max_gates=6)):
        synthesize(spec, budget)
    assert grown == [1, 2]
    # another key's levels are built from level 1 and replace the held ones
    for budget in (SearchBudget(max_levels=4), SearchBudget(allow_maj5=False)):
        grown.clear()
        synthesize(spec, budget)
        assert grown and grown == list(range(1, len(grown) + 1))
        assert list(synth._LEVELS) == [
            (3, budget.allow_maj5, budget.max_levels)]


def test_threads_build_each_level_once():
    # more threads than cores reach the unbuilt levels together
    spec = TruthTable.from_int(3, BY_CLASS[SearchBudget()][3])
    synth._LEVELS.clear()
    want = to_text(synthesize(spec))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            synth._LEVELS.clear()
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda _: to_text(synthesize(spec)),
                                    range(8), timeout=60))
            assert got == [want] * 8
            assert [len(v) for v in synth._LEVELS.values()] == [3]
    finally:
        sys.setswitchinterval(interval)


@functools.cache
def class_targets(budget, gates):
    """The tables whose fewest majority gates under budget is gates."""
    return tuple(t for t, e in enumerate(synthesize_all_3var(budget))
                 if e.network is not None
                 and e.cost.maj3_count + e.cost.maj5_count == gates)


def cold_texts(targets, budget=None):
    """Each target's answer, each on levels built for it alone."""
    out = []
    for t in targets:
        synth._LEVELS.clear()
        out.append(to_text(synthesize(TruthTable.from_int(3, t), budget)))
    return out


def test_full_memos_answer_as_a_cold_search():
    # a warm call after an atlas, its answers emptied so that it scans
    # the atlas's levels again, answers as a cold search does
    for budget in (SearchBudget(), SearchBudget(5, 5, False)):
        targets = class_targets(budget, 3)
        synth._LEVELS.clear()
        synthesize_all_3var(budget)
        [levels] = synth._LEVELS.values()
        for rows in levels:
            rows.answers.clear()
        warm = [to_text(synthesize(TruthTable.from_int(3, t), budget))
                for t in targets]
        assert len(targets) > 8
        assert warm == cold_texts(targets, budget)


def test_threads_that_share_a_memo_get_their_serial_answers():
    # threads scanning the same levels for different targets store
    # answers at once, more threads than cores
    targets = class_targets(SearchBudget(), 3)[::4]
    assert len(targets) == 8
    want = cold_texts(targets)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            synth._LEVELS.clear()
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(
                    lambda t: to_text(synthesize(TruthTable.from_int(3, t))),
                    targets, timeout=60))
            assert got == want
            # every parent chain holds its own negated literals
            [levels] = synth._LEVELS.values()
            for rows in levels:
                for p, _ in rows.groups:
                    assert p.negs == functools.reduce(
                        operator.or_, [synth._NEGS[3][g] for g in p.gates], 0)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("budget", list(BY_CLASS))
def test_every_held_answer_is_the_cold_answer(budget):
    # an atlas leaves on each level an answer for every target the levels
    # below leave unsolved: the cold search's network where that solves
    # the target with the level's gate count, and None where it solves
    # it with another count or not at all
    cold = {}
    for t in range(256):
        synth._LEVELS.clear()
        cold[t] = synthesize(TruthTable.from_int(3, t), budget)

    def gates(t):
        if cold[t] is None:
            return float("inf")
        c = cost(cold[t])
        return c.maj3_count + c.maj5_count

    synth._LEVELS.clear()
    synthesize_all_3var(budget)
    [levels] = synth._LEVELS.values()
    for rows in levels:
        assert rows.answers.keys() == {t for t in range(256)
                                       if gates(t) >= rows.level}
        for t, net in rows.answers.items():
            if gates(t) == rows.level:
                assert to_text(net) == to_text(cold[t])
            else:
                assert net is None


def counted_scans(monkeypatch):
    """The (level, targets) of each _scan call from now on."""
    scan, scans = _Searcher._scan, []

    def counted(self, rows, unsolved):
        scans.append((rows.level, sorted(unsolved)))
        return scan(self, rows, unsolved)

    monkeypatch.setattr(_Searcher, "_scan", counted)
    return scans


def test_a_repeated_target_is_not_scanned_again(monkeypatch):
    t = BY_CLASS[SearchBudget()][3]
    spec = TruthTable.from_int(3, t)
    synth._LEVELS.clear()
    scans = counted_scans(monkeypatch)
    first = synthesize(spec)
    assert scans == [(1, [t]), (2, [t]), (3, [t])]
    scans.clear()
    assert synthesize(spec) is first
    assert scans == []


def test_fewer_max_gates_read_the_answers_of_a_default_call(monkeypatch):
    # --max-gates 2 stops at level 2, whose answers a default call on the
    # same target left: None on both, so not found without a scan
    targets = class_targets(SearchBudget(), 3)
    synth._LEVELS.clear()
    for t in targets:
        synthesize(TruthTable.from_int(3, t))
    scans = counted_scans(monkeypatch)
    assert [synthesize(TruthTable.from_int(3, t), SearchBudget(max_gates=2))
            for t in targets] == [None] * len(targets)
    assert scans == []


@pytest.mark.parametrize("allow_maj5, depth", [(True, 3), (False, 4)])
def test_a_boundless_budget_ends_within_its_work_cap(allow_maj5, depth):
    # with three variables every function has a network of at most four
    # gates, so a budget of 100 gates and levels builds few levels
    synth._LEVELS.clear()
    atlas = synthesize_all_3var(SearchBudget(100, 100, allow_maj5))
    assert all(e.network is not None for e in atlas)
    [levels] = synth._LEVELS.values()
    assert len(levels) == depth


def test_import_builds_no_levels():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import qcamaj.cli, qcamaj.synth; print(qcamaj.synth._LEVELS)"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "{}\n")


def test_synthesized_networks_only_invert_inputs(atlas):
    from qcamaj.network import NOT, INPUT

    for e in atlas:
        net = e.network
        for node in net.nodes:
            if node.kind == NOT:
                assert net.nodes[node.args[0]].kind == INPUT


def test_synthesized_networks_have_no_dead_nodes(atlas, no_maj5_atlas):
    # a minimum chain has no unused gate, so the network is the whole cone
    nets = [e.network for e in atlas + no_maj5_atlas if e.network]
    for n in (1, 2):
        nets += [synthesize(TruthTable.from_int(n, t))
                 for t in range(1 << (1 << n))]
    for net in nets:
        assert reachable(net) == set(range(len(net.nodes))), to_text(net)


def test_atlas_text_rendering(atlas):
    text = atlas_to_text(atlas)
    lines = text.strip().splitlines()
    assert len(lines) == 256
    assert "sum()" in lines[0]
    assert "sum(0,1,2,3,4,5,6,7)" in lines[-1]


def test_atlas_text_is_frozen(atlas):
    # pins every expression and the tie-break, not just the costs
    text = atlas_to_text(atlas)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4a59198453123de89034ace5e485d365223889cbbcb069cb921a0986866cfc08")


def test_atlas_text_is_frozen_under_two_gates():
    # a budget that leaves most functions unsynthesizable
    text = atlas_to_text(synthesize_all_3var(SearchBudget(max_gates=2)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "670a33b22ee52c643c5d520f6f94dd32198f2c91604daaca2085ae18213f757f")


def test_no_maj5_atlas_text_is_frozen(no_maj5_atlas):
    # pins the maj3-only tie-break
    text = atlas_to_text(no_maj5_atlas)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d9426cc91f4be7ec699f6ae30d58861795e6ae0f5d81cb058fd1e7789941e5f3")


class _Parent:
    def __init__(self, tables):
        self.tables = tuple(tables)
        self.depths = (1,) * len(self.tables)


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                min_size=1, max_size=4),
       st.integers(0, 255))
def test_shannon_pairs_match_the_majority(parents, g):
    # level 4: two parent gates (candidates 8, 9) and the newest gate g
    # (candidate 10), one byte lane per parent
    searcher = _Searcher(3, SearchBudget(max_gates=4))
    combos = searcher._combos(11)
    rows = _Rows(searcher, combos, [(_Parent(p), {}) for p in parents], 4)
    pair_rows = set(rows.scan)
    shapes = set()
    for i, tables in enumerate(parents):
        cand = searcher.base_tables + list(tables) + [g]
        lo_bytes, hi_bytes = rows.parent(i)
        for r, combo in enumerate(combos):
            want = (maj3 if len(combo) == 3 else maj5)(
                *[cand[x] for x in combo])
            lo, hi = lo_bytes[r], hi_bytes[r]
            assert (g & hi) | lo == want, combo
            if r in pair_rows:
                at = 8 * (rows.scan.index(r) * rows.np + i)
                assert (rows.scan_lo >> at & 0xFF, rows.scan_hi >> at
                        & 0xFF) == (lo, hi)
                assert lo & ~hi == 0
                shapes.add((len(combo), combo.count(10),
                            len(set(combo)) < len(combo)))
            else:
                assert lo == hi
    # g in a maj3, once in a maj5, twice in a maj5, and beside another
    # doubled operand
    assert shapes == {(3, 1, False), (5, 1, False), (5, 2, True),
                      (5, 1, True)}


def test_level_one_rows_are_their_own_pairs():
    # no chain gate yet: every row scans, hi is lo, and every gate is one
    # level deep
    searcher = _Searcher(3, SearchBudget())
    combos = searcher._combos(searcher.nbase)
    rows = _Rows(searcher, combos, [(_Parent(()), {0: None})], 1)
    assert list(rows.scan) == list(range(len(combos)))
    lo_bytes, hi_bytes = rows.parent(0)
    scan_lo, scan_hi = (v.to_bytes(len(combos), "little")
                        for v in (rows.scan_lo, rows.scan_hi))
    for r, combo in enumerate(combos):
        want = (maj3 if len(combo) == 3 else maj5)(
            *[searcher.base_tables[x] for x in combo])
        assert scan_hi[r] == scan_lo[r] == lo_bytes[r] == hi_bytes[r] == want
    assert list(rows.depths) == [()]
    assert rows.depths[()][0] == bytes([1] * len(combos))


def kid_tables_match(groups, rows):
    """Each parent's table bitmap marks exactly its children's tables."""
    return [{t for t in range(256) if bits >> t & 1}
            for bits in rows.kid_tables] == [
        {c & 0xFF for c in codes} for _, codes in groups]


@pytest.mark.parametrize("level, parents", [
    (1, [((), [0])]),
    (4, [((0x96, 0xE8), [0x17 | 1 << 8, 0x17 | 3 << 8, 0x71 | 2 << 8]),
         ((0x0F, 0x3C), [0x00 | 1 << 8, 0xFF | 2 << 8]),
         ((0xFE, 0x01), [0x80 | 3 << 8])])])
def test_a_level_is_complete_when_built(level, parents):
    # cached levels are shared by every later call, so reading one must
    # not fill it; each parent comes with its children's codes
    searcher = _Searcher(3, SearchBudget(max_gates=4))
    combos = searcher._combos(searcher.nbase + level - 1)
    groups = [(_Parent(p), dict.fromkeys(codes)) for p, codes in parents]
    rows = _Rows(searcher, combos, groups, level)
    assert all(type(v) is int
               for v in [rows.scan_lo, rows.scan_hi, *rows.kid_tables])
    assert all(type(b) is bytes for b in rows._bytes)
    assert kid_tables_match(groups, rows)
    built = (rows.scan_lo, rows.scan_hi, list(rows._bytes),
             list(rows.kid_tables), dict(rows.depths))
    for i in range(len(groups)):
        rows.parent(i)
    assert (rows.scan_lo, rows.scan_hi, rows._bytes, rows.kid_tables,
            rows.depths) == built


def test_cached_levels_hold_no_placeholder():
    for budget, table, depth in (
            (SearchBudget(), BY_CLASS[SearchBudget()][3], 3),
            (SearchBudget(5, 5, False), 180, 4)):
        synth._LEVELS.clear()
        synthesize(TruthTable.from_int(3, table), budget)
        [levels] = synth._LEVELS.values()
        assert len(levels) == depth
        for i, rows in enumerate(levels):
            assert rows.level == i + 1
            assert None not in [*rows._bytes, rows.scan_lo, rows.scan_hi]
            assert [len(b) for b in rows._bytes] == [
                rows.np * len(rows.combos)] * 2
            assert kid_tables_match(rows.groups, rows)
        # each child code is decoded apart from the search's own reads:
        # a group lists its codes in the order their rows first make them,
        # and the first of those rows gives the child's newest gate
        for rows in levels[1:]:
            for p, codes in rows.groups:
                lanes = [int.from_bytes(p.codes[k:k + 2], "little")
                         for k in range(0, len(p.codes), 2)]
                assert list(codes) == sorted(codes, key=lanes.index)
                for c in codes:
                    assert _first_row(p.codes, c) == lanes.index(c)
        # every child's depths tuple has its rows' depths
        searcher = _Searcher(3, budget)
        for rows in levels:
            for p, codes in rows.groups:
                for c in codes:
                    assert searcher._child(p, c).depths in rows.depths
        # later calls scan the cached levels and leave their bitmaps and
        # depths be
        built = [(list(rows.kid_tables), dict(rows.depths))
                 for rows in levels]
        for t in BY_CLASS[budget].values():
            synthesize(TruthTable.from_int(3, t), budget)
        assert [(rows.kid_tables, rows.depths)
                for rows in levels] == built


def negated_mask(searcher, operands):
    """The bitmask of the negated literals among operands."""
    return sum(1 << x for x in searcher.negated.intersection(operands))


def test_cached_levels_hold_complete_packed_lanes_and_masks():
    for budget, table in ((SearchBudget(), BY_CLASS[SearchBudget()][3]),
                          (SearchBudget(5, 5, False), 180)):
        synth._LEVELS.clear()
        synthesize(TruthTable.from_int(3, table), budget)
        [levels] = synth._LEVELS.values()
        searcher = _Searcher(3, budget)
        for rows in levels:
            np = rows.np
            # the scan rows' lanes of the whole level, row after row, as
            # the per-parent bytes hold them
            for half, packed in zip(rows._bytes,
                                    (rows.scan_lo, rows.scan_hi)):
                assert packed == int.from_bytes(b"".join(
                    half[r * np:(r + 1) * np] for r in rows.scan), "little")
            assert rows.scan_ones == int.from_bytes(
                b"\x01" * (np * len(rows.scan)), "little")
            assert rows.negs == [negated_mask(searcher, c)
                                 for c in rows.combos]
        # later calls under every class leave them be
        built = [(rows.scan_lo, rows.scan_hi, rows.scan_ones, rows.negs,
                  list(rows.negs)) for rows in levels]
        for t in BY_CLASS[budget].values():
            for b in (budget, SearchBudget(2, budget.max_levels,
                                           budget.allow_maj5)):
                synthesize(TruthTable.from_int(3, t), b)
        assert [(rows.scan_lo, rows.scan_hi, rows.scan_ones, rows.negs)
                for rows in levels] == [b[:4] for b in built]
        assert all(rows.scan_lo is b[0] and rows.scan_hi is b[1]
                   and rows.negs is b[3] and rows.negs == b[4]
                   for rows, b in zip(levels, built))


def test_every_offer_counts_the_chains_inverters(monkeypatch):
    # the kid's mask, its parent's ORed with its newest gate's when the
    # scan builds it, ORed with the row's, counts the distinct negated
    # literals of the offered chain
    offer = _Searcher._offer
    offers = []

    def counted(self, level, kid, rows, r, target, found):
        combo = rows.combos[r]
        assert kid.negs == negated_mask(self, itertools.chain(*kid.gates))
        assert rows.negs[r] == negated_mask(self, combo)
        assert (kid.negs | rows.negs[r]).bit_count() == len(
            self.negated.intersection(itertools.chain(*kid.gates, combo)))
        offers.append(kid.negs | rows.negs[r])
        offer(self, level, kid, rows, r, target, found)

    monkeypatch.setattr(_Searcher, "_offer", counted)
    synth._LEVELS.clear()
    synthesize_all_3var()
    # offers with none, some and all three of the negated literals
    assert len(offers) > 1000
    assert {m.bit_count() for m in offers} == {0, 1, 2, 3}


@pytest.mark.parametrize("budget", [SearchBudget(), SearchBudget(4, 2, True),
                                    SearchBudget(6, 2, False)])
def test_no_offered_gate_is_deeper_than_max_levels(budget, monkeypatch):
    # growth keeps only gates shallower than max_levels, so every gate the
    # scan offers, the one that would solve a target, is at most
    # max_levels deep (the claim in run's comment)
    offer = _Searcher._offer
    depths = []

    def counted(self, level, kid, rows, r, target, found):
        depths.append(rows.depths[kid.depths][0][r])
        offer(self, level, kid, rows, r, target, found)

    monkeypatch.setattr(_Searcher, "_offer", counted)
    synth._LEVELS.clear()
    synthesize_all_3var(budget)
    assert len(depths) > 100
    assert max(depths) == budget.max_levels


def per_row_fits(rows, target):
    """The (r, i) lanes the scan tested row by row before the packed
    test: one int per scan row, one byte lane per parent."""
    np = rows.np
    ones = int.from_bytes(b"\x01" * np, "little")
    many = target * ones
    lanes = []
    for r in rows.scan:
        lo, hi = (int.from_bytes(half[r * np:(r + 1) * np], "little")
                  for half in rows._bytes)
        miss = ((lo | many) & hi) ^ many
        miss |= miss >> 4
        miss |= miss >> 2
        miss |= miss >> 1
        fits = ones & ~miss
        lanes += [(r, i) for i in itertools.compress(
            range(np), fits.to_bytes(np, "little"))]
    return lanes


def assert_packed_fits_match_the_rows(rows):
    lo_bytes, hi_bytes = rows._bytes
    for target in range(256):
        got = [(r, i) for r, parents in rows.fits(target) for i in parents]
        assert got == per_row_fits(rows, target)
        # each a scan lane with lo inside target inside hi
        for r, i in got:
            at = r * rows.np + i
            assert lo_bytes[at] & ~target == 0 == target & ~hi_bytes[at]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                min_size=1, max_size=4))
def test_packed_lane_test_matches_the_per_row_test(parents):
    # level 4: two parent gates and the newest gate, one lane per parent
    searcher = _Searcher(3, SearchBudget(max_gates=4))
    combos = searcher._combos(11)
    assert_packed_fits_match_the_rows(
        _Rows(searcher, combos, [(_Parent(p), {}) for p in parents], 4))


def test_packed_lane_test_matches_on_the_cached_levels():
    synth._LEVELS.clear()
    synthesize(TruthTable.from_int(3, BY_CLASS[SearchBudget()][3]))
    [levels] = synth._LEVELS.values()
    assert [rows.np for rows in levels] == [1, 1, 96]
    for rows in levels:
        assert_packed_fits_match_the_rows(rows)


def test_a_deeper_level_leaves_the_cached_ones_unwritten():
    # a class-1 call builds level 1 only; a class-3 call after it grows
    # levels 2 and 3 from it, and writes their codes to their own parents
    budget = SearchBudget()
    synth._LEVELS.clear()
    synthesize(TruthTable.from_int(3, BY_CLASS[budget][1]), budget)
    [levels] = synth._LEVELS.values()
    [level_1] = levels
    [(root, _)] = level_1.groups
    synthesize(TruthTable.from_int(3, BY_CLASS[budget][3]), budget)
    assert len(levels) == 3 and levels[0] is level_1
    assert root.codes == b""
    assert all(p is not root for p, _ in levels[1].groups)


@given(st.tuples(*[st.integers(1, 3)] * 3))
def test_row_depths_at_level_four(depths):
    # three chain gates (candidates 8, 9, 10) under the base candidates,
    # which are 0 deep
    searcher = _Searcher(3, SearchBudget(max_gates=4))
    combos = searcher._combos(11)
    parent = _Parent((0, 0))
    parent.depths = depths[:2]
    rows = _Rows(searcher, combos, [(parent, {})], 4)
    nbase = searcher.nbase
    assert rows.depths[depths][0] == bytes(
        1 + max([depths[x - nbase] for x in combo if x >= nbase], default=0)
        for combo in combos)


@st.composite
def random_chains(draw, n=st.integers(1, 3), size=st.integers(0, 4)):
    # operand tuples over the base candidates and the earlier gates, with
    # constants, both literal polarities and repeated operands, then a
    # root among every candidate
    n = draw(n)
    nbase = 2 + 2 * n
    gates = []
    for k in range(draw(size)):
        operand = st.integers(0, nbase + k - 1)
        arity = draw(st.sampled_from((3, 5)))
        gates.append(tuple(draw(st.lists(operand, min_size=arity,
                                         max_size=arity))))
    return n, tuple(gates), draw(st.integers(0, nbase + len(gates) - 1))


@given(random_chains())
def test_chain_text_matches_the_builder(chain):
    # _walk numbers a chain's nodes for both the tie-break and the
    # network; the builder is the independent reference
    n, gates, root = chain
    b = NetworkBuilder(n)
    gate_ids = []

    def resolve(ci):
        if ci >= 2 + 2 * n:
            return gate_ids[ci - 2 - 2 * n]
        if ci < 2:
            return b.const(ci)
        if ci >= 2 + n:
            return b.invert(b.input(ci - 2 - n))
        return b.input(ci - 2)

    for combo in gates:
        args = [resolve(ci) for ci in combo]
        gate_ids.append(b.maj3(*args) if len(args) == 3 else b.maj5(*args))
    net = b.build(resolve(root))
    searcher = _Searcher(n, SearchBudget())
    *nodes, (output, _) = searcher._walk(gates, root)
    text = [f"network {n}", *(f"{i} {line}" for i, (line, _) in
                              enumerate(nodes)), output, ""]
    assert "\n".join(text) == to_text(net)
    # the search builds its networks from the same walk
    assert searcher._network(gates, root) == net


def test_every_recorded_candidate_has_its_key(monkeypatch):
    # every chain the scan records, not only the winners, is its own cone
    # and costs exactly the key it was recorded under
    offer = _Searcher._offer
    recorded = []

    def certified(self, level, kid, rows, r, target, found):
        prior = found.get(target)
        size = len(prior[1]) if prior else 0
        offer(self, level, kid, rows, r, target, found)
        key, chains = found[target]
        if prior is None or chains is not prior[1] or len(chains) > size:
            assert chains[-1] == kid.gates + (rows.combos[r],)
            net = self._network(chains[-1], self.nbase + level - 1)
            c = cost(net)
            assert (c.gate_count, c.levels, c.inverter_count) == key
            assert truth_table(net).to_int() == target
            recorded.append(target)

    monkeypatch.setattr(_Searcher, "_offer", certified)
    # fresh levels, so that no answer an earlier call left spares a scan
    synth._LEVELS.clear()
    synthesize_all_3var()
    synth._LEVELS.clear()
    synthesize_all_3var(SearchBudget(4, 4, False))
    base = _Searcher(3, SearchBudget()).base_tables
    assert set(recorded) == set(range(256)).difference(base)


@st.composite
def tie_lists(draw):
    # tied chains as the scan records them, of one length over one
    # variable count, spliced from random chains so that they share
    # prefixes, some repeated; seven gates over three variables number up
    # to 15 nodes, so two-digit node ids are written
    n = draw(st.integers(1, 3))
    size = draw(st.integers(0, 7))
    drawn = [gates for _, gates, _ in draw(st.lists(
        random_chains(st.just(n), st.just(size)), min_size=1, max_size=5))]
    chains = []
    for a in drawn:
        for b in drawn:
            cut = draw(st.integers(0, size))
            chains.append(a[:cut] + b[cut:])
    chains += draw(st.lists(st.sampled_from(chains), max_size=3))
    return n, chains, draw(st.integers(0, 2 + 2 * n + size - 1))


# the same node lines, then "output 5" before "output 3": the tie goes on
# to the output line
@example((1, [((0, 2, 3), (1, 2, 2), (1, 2, 2)),
              ((0, 2, 3), (1, 2, 2), (0, 2, 3))], 6))
# the same three node lines, then the first chain's output line against
# the second's fourth node line, in one round: "3 maj3 0 1 2" sorts below
# "output 2", and so must "maj3 0 1 2" without its id
@example((1, [((0, 2, 2), (0, 2, 2)), ((0, 2, 2), (0, 2, 4))], 5))
@given(tie_lists())
def test_ties_settle_to_the_least_text(ties):
    n, chains, root = ties
    searcher = _Searcher(n, SearchBudget())
    text = to_text(searcher._network(searcher._least(chains, root), root))
    assert text == min(to_text(searcher._network(gates, root))
                       for gates in chains)


def test_every_recorded_tie_settles_to_the_least_text(monkeypatch):
    least = _Searcher._least
    sizes = []

    def checked(self, chains, root):
        got = least(self, chains, root)
        assert to_text(self._network(got, root)) == min(
            to_text(self._network(gates, root)) for gates in chains)
        sizes.append(len(chains))
        return got

    monkeypatch.setattr(_Searcher, "_least", checked)
    gated = 0
    for budget in (SearchBudget(), SearchBudget(max_gates=2),
                   SearchBudget(4, 4, False)):
        # held levels would answer from their memos and settle no tie
        synth._LEVELS.clear()
        gated += sum(e.network is not None and e.cost.levels > 0
                     for e in synthesize_all_3var(budget))
    # one tie per target a gate solves, most of them more than one chain
    assert len(sizes) == gated
    assert sum(k > 1 for k in sizes) > gated // 2
