"""Bounded exact synthesis of majority networks for up to three variables.

The search deepens iteratively on the number of majority gates.  A state
is a chain of gates; a gate's operands come from the closed candidate
set, which holds the constants, the literals in both polarities, and
every gate already in the chain.  Inverters therefore appear only on
inputs, which keeps the candidate set closed.  For the majority count
that loses no generality, as inversion commutes with majority (push any
interior inverter toward the leaves); the inverter term of the cost
below is minimal only over such networks.  Truth tables are ints, as in
truthtable.py.  Operand tuples are built once per process and omit
trivial multisets (a repeated majority operand beyond what a five-input
pair exploits, both constants at once, or a complementary literal pair).

The states of a level come in groups of one parent chain's children,
which differ only in their newest gate g.  Each level builds one row
table, _Rows: every operand tuple evaluated for all parents at once, one
byte lane per parent.  A tuple without g is a fixed table.  A tuple with
g is a Shannon pair (lo, hi), its tables with g at 0 and at 1; majority
is monotone, so a child whose g has table gt makes (gt & hi) | lo, two
bit operations per child.  Both passes of a level read this table:

- The scan looks for gates whose table is an unsolved target.  Only
  tuples holding g can make one (see run).  A pair makes target T for
  some child only if lo <= T <= hi, and one test per target covers
  every (row, parent) lane of the level, packed into two ints when the
  level is built.  If g does not matter there, every child makes T;
  otherwise the children that do are looked up by table, probing only
  the tables that agree with T where g matters and that the parent's
  table bitmap, one int per parent, marks as some child's.  A chain's
  inverters are counted from one negated-literal bitmask per row and
  one per child.
- The growth step extends every state by each gate of a function new to
  its chain and shallower than max_levels, in tuple order, and keeps the
  first chain per (table, depth) profile.

A solving gate's network is its whole chain, so the levels stop at the
most gates a cone of max_levels depth can hold, and a tight level budget
ends the search early.

A level is its _Rows, which holds its groups and level number beside
the row table.  It depends only on (n_vars, allow_maj5, max_levels),
never on the targets, which only pick the level where the search stops.
_LEVELS keeps the levels for later calls in the process, each built the
first time a call reaches it, so the first call under a budget pays for
the build and the next ones scan only for targets no call has settled
(see below).  It holds one key at a time: a call under another key
drops the held levels first.  A level's row table, its children's table
bitmaps and its rows' depths are built whole.  A chain is complete when
built, its negated literals from its parent and its growth rows' codes
from the growth that builds it, and nothing writes to it after; so no
later call or level writes a cached level's tables or chains, and a
scan only adds kids to its level's memo and its answers to its memo of
answers.  The kids memo, _Rows.kids, keeps per parent each child that a
scan has offered, from the first call that offers it on, so a scan
reuses the kids earlier calls built.  A kid depends only on its parent
and code, so threads that build one together store equal kids.  The
answers memo, _Rows.answers, maps each target a scan of the level has
settled to the network it found, or to None where no gate of the level
makes the target; a call scans a level only for the unsolved targets
it holds no answer for, so a repeated target costs one lookup per
level, under any max_gates and for an atlas and single calls alike.
That is exact: the scan settles each target on its own (its
candidates, its ties and their least text do not depend on the other
targets), and a level depends only on its key.  A Network is
immutable, so every call may get the same one, and threads that scan
one target together store equal answers.  By tracemalloc, operand
tuples included, the held levels take about 1.3 MB for the default
budget and 4.5 MB for SearchBudget(5, 5, False) as built, and 3.1 MB
and 8.7 MB once an atlas has filled their kids memos; the atlas's
answers add about 180 KB (248, 152 and 32 answers on levels 1 to 3)
and 230 KB.

Among the networks with inverters on inputs that realize a target with
the fewest majority gates, the result minimizes (gate_count, levels,
inverter_count) and finally the serialized text.  One walk of a chain,
_Searcher._walk, numbers its nodes in first-use order and gives each
node with its to_text line.  The scan keeps every candidate that ties
the best key and settles the tie line by line: it advances the tied
chains' walks together and keeps those whose line is least.  The
winner's Network is the nodes of its walk; no whole text is written or
parsed back.
Repeated runs therefore return byte-identical answers.  The tests
check every three-variable function's minimum majority count against
the independent search in tests/_oracles.py under two budgets, and
freeze the atlas text by hash.  A target that cannot be reached inside
the budget yields None rather than an exception.
"""

from __future__ import annotations

import itertools
import struct
import threading
from dataclasses import dataclass

from .errors import CapacityError
from .network import (CONST, INPUT, MAJ3, MAJ5, NOT, CostReport, Network,
                      Node, cost, format_expr)
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
        for name in ("max_gates", "max_levels"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be an int >= 0, got {value!r}")
        if type(self.allow_maj5) is not bool:
            raise ValueError(f"allow_maj5 must be a bool, got "
                             f"{self.allow_maj5!r}")


_BYTE = 0xFF    # a table of up to three variables fits one byte
_COMBOS: dict[tuple, list] = {}     # _Searcher._combos, built on first use
# n_vars -> each operand tuple of _COMBOS -> the bitmask of the negated
# literals it holds (bit x for candidate x), built with the tuples
_NEGS: dict[int, dict[tuple, int]] = {}
# _Searcher._level: (n_vars, allow_maj5, max_levels) -> each level's _Rows,
# built on first use; one key at a time.  Threads that reach an unbuilt
# level together would append it twice without the lock
_LEVELS: dict[tuple, list] = {}
_LEVELS_LOCK = threading.Lock()
# _Searcher._walk's line and node for each constant and input, by base
# candidate index
_BASE_NODES = [(f"{kind} {v}", Node(kind, (v,))) for kind, v in
               [(CONST, 0), (CONST, 1),
                *((INPUT, i) for i in range(SYNTH_MAX_VARS))]]
# a gate's arity -> its kind and the format of its line
_GATE_LINES = {3: (MAJ3, MAJ3 + " %d" * 3), 5: (MAJ5, MAJ5 + " %d" * 5)}


class _Chain:
    """A search state: a chain of gates, held as their operand tuples,
    tables and depths, and `negs`, the bitmask of the negated literals
    its gates use (bit x for candidate x).  A gate's code is its table |
    depth << 8; `codes` holds the code each of the chain's growth rows
    makes, two bytes per row, little-endian on every host, and the
    operand tuple of a child's newest gate is the first row with its
    code; a chain that is never grown has none.  A chain is complete
    when built, and nothing writes to it after."""

    __slots__ = ("gates", "tables", "depths", "negs", "codes")

    def __init__(self, gates, tables, depths, negs, codes=b""):
        self.gates, self.tables, self.depths = gates, tables, depths
        self.negs, self.codes = negs, codes

    def profile(self) -> frozenset:
        return frozenset(t | d << 8 for t, d in zip(self.tables, self.depths))


def _first_row(codes: bytes, code: int) -> int:
    """The first 16-bit lane of codes that holds code; codes are
    little-endian on every host."""
    needle = code.to_bytes(2, "little")
    at = codes.index(needle)
    while at & 1:       # a match across two lanes
        at = codes.index(needle, at + 1)
    return at >> 1


def _pairs(even: bytes, odd: bytes) -> int:
    """The int whose 16-bit lanes hold even[r] | odd[r] << 8."""
    both = bytearray(2 * len(even))
    both[0::2], both[1::2] = even, odd
    return int.from_bytes(both, "little")


def _agreeing(target: int, m: int, mask: int) -> int:
    """The int whose bit t is set for each table t that agrees with
    target wherever m is set."""
    want, free = target & m, mask ^ m
    out, x = 0, free
    while True:
        out |= 1 << (want | x)
        if not x:
            return out
        x = (x - 1) & free


def _gate(combo: tuple, lanes: list) -> int:
    """The gate's table over operand tuple combo, operands read from lanes."""
    return (maj3 if len(combo) == 3 else maj5)(*[lanes[x] for x in combo])


class _Rows:
    """One search level: its number, its groups (each parent chain with
    its children's codes) and its row table, every operand tuple
    evaluated for every parent at once, one byte lane per parent.  It is
    built whole; after that only the search writes to it, adding kids
    to kids and answers to answers.

    The children of a parent differ only in their newest gate g.  A row
    whose tuple holds g is the Shannon pair (lo, hi): the tuple's table
    with g at 0 and at 1.  Majority is monotone, so lo is inside hi and a
    child with table gt makes (gt & hi) | lo.  A row without g is a fixed
    table t, kept as lo = hi = t so that the same formula gives t.  The
    scan reads the pairs; at level 1 no tuple holds g, as the chain has
    no gate yet, so every gate is new and every row scans.  scan_lo and
    scan_hi hold the scan rows' lanes of the whole level as two ints,
    row after row, so that fits tests every (row, parent) lane for a
    target at once; negs holds each row's negated literals as a bitmask,
    read from _NEGS.  kid_tables
    holds, per parent, one int whose bit t is set when some child's g has
    table t, so that the scan probes a parent's codes only for tables
    that some child has.  depths maps each depths tuple a child can have,
    its chain's gate depths with g last, to every row's gate depth (a
    byte each), those depths in the high bytes of 16-bit lanes, and the
    mask of the lanes whose gate is shallower than max_levels, for
    growth.  kids holds, per parent, the children the scan has offered,
    code -> chain; it starts empty and keeps each kid for every later
    call.  answers maps each target a scan of the level has settled to
    its network, or to None where no gate of the level makes it; it
    starts empty, and a call scans only the targets it lacks, so the
    kids serve a target's first visit and answers every later one.
    """

    def __init__(self, searcher, combos, groups, level):
        self.combos, self.groups, self.level = combos, groups, level
        parents = [p for p, _ in groups]
        self.np = np = len(parents)
        ones = int.from_bytes(b"\x01" * np, "little")
        # the candidates' tables, one lane per parent; g comes last
        lanes = [t * ones for t in searcher.base_tables] + [
            int.from_bytes(bytes(p.tables[j] for p in parents), "little")
            for j in range(level - 2)]
        g = len(lanes)
        at_0, at_1 = lanes + [0], lanes + [searcher.mask * ones]
        self.lo = [_gate(c, at_0) for c in combos]
        self.hi = [_gate(c, at_1) if g in c else t
                   for c, t in zip(combos, self.lo)]
        self.scan = ([r for r, c in enumerate(combos) if g in c]
                     or range(len(combos)))
        self._bytes = [b"".join(v.to_bytes(np, "little") for v in half)
                       for half in (self.lo, self.hi)]
        # lane j * np + i: the j-th scan row, parent i
        self.scan_lo, self.scan_hi = (
            int.from_bytes(b"".join(half[r].to_bytes(np, "little")
                                    for r in self.scan), "little")
            for half in (self.lo, self.hi))
        self.scan_ones = int.from_bytes(b"\x01" * (np * len(self.scan)),
                                        "little")
        negs = _NEGS[searcher.n]
        self.negs = [negs[c] for c in combos]
        self.kid_tables = [sum(1 << t for t in {c & _BYTE for c in codes})
                           for _, codes in groups]
        self.kids: list[dict[int, _Chain]] = [{} for _ in groups]
        self.answers: dict[int, Network | None] = {}
        # a child's gates are its parent's, then g at depth 1 to level - 1;
        # level 1's only child is the empty chain
        zeros, cap = (0,) * searcher.nbase, searcher.budget.max_levels
        self.depths: dict[tuple, tuple[bytes, int, int]] = {}
        for depths in {p.depths + (d,) for p in parents
                       for d in range(1, level)} or {()}:
            d = zeros + depths
            gate = bytes(1 + max([d[x] for x in c]) for c in combos)
            keep = bytes(0xFF if x < cap else 0 for x in gate)
            self.depths[depths] = (gate, _pairs(bytes(len(gate)), gate),
                                   _pairs(keep, keep))

    def parent(self, i: int) -> tuple[bytes, bytes]:
        """Every row's lo and hi for parent i, a byte each."""
        return self._bytes[0][i::self.np], self._bytes[1][i::self.np]

    def fits(self, target: int):
        """(r, parents) for each scan row r, in order, whose pair can make
        target for some parent: lo <= target <= hi in its lane.  parents
        yields those parents i in order.  One test covers every lane of
        the level, and bytes.find skips the rows that fit nowhere."""
        np, scan, ones = self.np, self.scan, self.scan_ones
        many = target * ones
        # lo <= T <= hi just when (lo | T) & hi is T, as lo is inside hi;
        # a lane stays nonzero where the pair misses T, and the folds OR
        # its byte into its low bit
        miss = ((self.scan_lo | many) & self.scan_hi) ^ many
        miss |= miss >> 4
        miss |= miss >> 2
        miss |= miss >> 1
        lanes = ((miss & ones) ^ ones).to_bytes(np * len(scan), "little")
        parents = range(np)
        at = lanes.find(1)
        while at >= 0:
            j = at // np
            end = (j + 1) * np
            yield scan[j], itertools.compress(parents, lanes[end - np:end])
            at = lanes.find(1, end)


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
        self.negated = frozenset(range(2 + n_vars, 2 + 2 * n_vars))

    # ---- candidate enumeration -----------------------------------------

    def _combos(self, ncand: int) -> list[tuple]:
        """Admissible operand index tuples over ncand candidates: maj3
        triples, then maj5 quintuples, then one operand twice plus three
        distinct others (a triple or a second pair would collapse to a
        smaller gate), each in lexicographic order.  A tuple holding both
        constants, or a literal and its complement, is left out."""
        n, maj5_ok = self.n, self.budget.allow_maj5
        out = _COMBOS.get((n, ncand, maj5_ok))
        if out is not None:
            return out
        kind = [0, 0] + [1 + i for i in range(n)] * 2 + list(
            range(self.nbase, ncand))
        kind = kind.__getitem__

        def ok(c):
            return len({*map(kind, c)}) == len(c)

        out = [c for c in itertools.combinations(range(ncand), 3) if ok(c)]
        if maj5_ok:
            out += [c for c in itertools.combinations(range(ncand), 5)
                    if ok(c)]
            for p in range(ncand):
                rest = [x for x in range(ncand) if x != p]
                out += [(p, p) + c for c in itertools.combinations(rest, 3)
                        if ok((p,) + c)]
        _NEGS.setdefault(n, {}).update(
            (c, sum(1 << x for x in self.negated.intersection(c)))
            for c in out)
        _COMBOS[n, ncand, maj5_ok] = out
        return out

    # ---- solution bookkeeping ------------------------------------------

    def _walk(self, gates, root: int):
        """The nodes of the chain's network with output `root`, each
        numbered when it is asked for, in first-use order: gates in chain
        order, each gate's operands in tuple order, a negated literal's
        input before its inverter, and the root last.  Each new node
        yields (line, node), line being its to_text line without the
        leading id, which also keys a gate against its repeats; the walk
        ends with ("output <id>", id).  A gate has 3 or 5 operands, so
        the 1-tuple (root,) that ends the walk is the output."""
        n, nbase = self.n, self.nbase
        # node ids, keyed by base candidate index or by gate line
        ids: dict = {}
        gate_ids: list[int] = []
        for combo in (*gates, (root,)):
            args: list[int] = []
            for ci in combo:
                if ci >= nbase:
                    args.append(gate_ids[ci - nbase])
                    continue
                i = ids.get(ci)
                if i is None:
                    if ci < 2 + n:
                        yield _BASE_NODES[ci]
                    else:   # its input is numbered before it
                        x = ci - n
                        child = ids.get(x)
                        if child is None:
                            yield _BASE_NODES[x]
                            ids[x] = child = len(ids)
                        yield f"not {child}", Node(NOT, (child,))
                    ids[ci] = i = len(ids)
                args.append(i)
            if len(combo) == 1:
                yield f"output {args[0]}", args[0]
                return
            kind, form = _GATE_LINES[len(combo)]
            line = form % tuple(args)
            if line not in ids:
                yield line, Node(kind, tuple(args))
                ids[line] = len(ids)
            gate_ids.append(ids[line])

    def _least(self, chains, root: int):
        """The chain whose network's to_text is least, settled line by
        line: each round advances every chain still tied by one step of
        its walk and keeps those whose line is least.  Every line sorts
        above the newline that ends the line before it, so line lists
        order as their texts do.  The walk's lines, without ids, order
        as to_text's do: in round k each chain yields node k, whose id
        is k, or its output line, and "output ..." sorts above every
        node kind with or without an id.  Once one chain is left, or the
        least line is the output line (the last, so the survivors' texts
        are equal), it is the winner; no whole text is written."""
        alive = [(self._walk(c, root), c) for c in chains]
        while len(alive) > 1:
            heads = [next(walk)[0] for walk, _ in alive]
            least = min(heads)
            alive = [a for a, h in zip(alive, heads) if h == least]
            if least.startswith("output"):
                break
        return alive[0][1]

    def _network(self, gates, root: int) -> Network:
        """The network of the chain's operand tuples with output `root`,
        its nodes as _walk numbers them."""
        *nodes, (_, output) = self._walk(gates, root)
        return Network(self.n, tuple(node for _, node in nodes), output)

    # ---- the search ------------------------------------------------------

    def _child(self, p, c, codes=b"") -> _Chain:
        """A new chain: parent p's child whose newest gate has code c,
        with its growth rows' codes.  Its negated literals are p's and
        its newest gate's.  Code 0, which no gate has, adds none, so its
        chain is a copy of p."""
        if not c:
            return _Chain(p.gates, p.tables, p.depths, p.negs, codes)
        combo = self._combos(self.nbase + len(p.gates))[
            _first_row(p.codes, c)]
        return _Chain(p.gates + (combo,), p.tables + (c & _BYTE,),
                      p.depths + (c >> 8,), p.negs | _NEGS[self.n][combo],
                      codes)

    def _scan(self, rows, unsolved):
        """The best network per target that a gate of level rows solves.
        A row's pair can make target T only if lo <= T <= hi, and one
        test per target covers every (row, parent) lane of the level
        (rows.fits).  When g does not matter (lo == hi == T) every child
        of the parent makes T; otherwise the children whose table agrees
        with T where g matters are looked up by table, probing only the
        tables that both agree and are some child's: one AND of the
        parent's table bitmap with the agreeing tables' bitmap, which
        each target builds once per mask m.  A child is built the first
        time any call offers it, and rows.kids keeps it for later calls.
        A kid is complete when built and depends only on its parent and
        code, so threads that race to build it store equal kids."""
        level, groups = rows.level, rows.groups
        mask, np = self.mask, rows.np
        lo_bytes, hi_bytes = rows._bytes
        depth_codes = [d << 8 for d in range(1, level)]
        found: dict[int, tuple] = {}    # target -> (key, tied chains)
        for target in unsolved:
            agree: dict[int, int] = {}      # m -> _agreeing(target, m)
            for r, parents in rows.fits(target):
                at = r * np
                for i in parents:
                    m = lo_bytes[at + i] ^ hi_bytes[at + i]     # g matters
                    p, codes = groups[i]
                    if m:
                        # the children whose table agrees with T on m
                        hit = agree.get(m)
                        if hit is None:
                            hit = agree[m] = _agreeing(target, m, mask)
                        hit &= rows.kid_tables[i]
                        if not hit:
                            continue
                        hits = []
                        while hit:
                            t = (hit & -hit).bit_length() - 1
                            hit &= hit - 1
                            hits += [t | d for d in depth_codes
                                     if t | d in codes]
                        codes = hits
                    kids = rows.kids[i]
                    for c in codes:
                        kid = kids.get(c)
                        if kid is None:
                            kid = kids[c] = self._child(p, c)
                        self._offer(level, kid, rows, r, target, found)
        root = self.nbase + level - 1
        return {t: self._network(self._least(chains, root), root)
                for t, (_, chains) in found.items()}

    def _offer(self, level, kid, rows, r, target, found):
        """Record kid grown by the gate of row r as a way to make target if
        it ties or beats the best key so far.  Its inverters are the
        distinct negated literals of kid's gates and of row r's, one OR of
        their bitmasks; the chain is built only for a key that ties or
        wins."""
        ninv = (kid.negs | rows.negs[r]).bit_count()
        key = (level + ninv, rows.depths[kid.depths][0][r], ninv)
        best = found.get(target)
        if best is None or key < best[0]:
            found[target] = (key, [kid.gates + (rows.combos[r],)])
        elif key == best[0]:
            best[1].append(kid.gates + (rows.combos[r],))

    def _grow(self, rows):
        """Every state of level rows grown by each gate of a function new
        to its chain and of depth below max_levels (no gate could take it
        as an operand); the first state per (table, depth) profile stands
        for all of them.  Returns the next level's groups."""
        groups = rows.groups
        depth_range = range(1, rows.level + 1)
        # a row too deep for an operand makes code 0 (its keep lane is 0),
        # which no gate has, so it drops with the base candidates' codes
        base_codes = {0}.union([t | d << 8 for t in self.base_tables
                                for d in depth_range])
        count = len(rows.combos)
        ones = int.from_bytes(b"\x01\x00" * count, "little")
        zeros = bytes(count)
        unpack = struct.Struct(f"<{count}H").unpack     # as codes are written
        profiles = [p.profile() for p, _ in groups]
        # two states' keys can meet only on a code of some profile; each
        # such code gets a bit, and a key ORs its codes' bits
        shared = set().union(*profiles)
        for _, kids in groups:
            shared.update(kids)
        bit = {x: 1 << j for j, x in enumerate(shared)}
        seen: set[int] = set()
        out = []
        for i, (p, kids) in enumerate(groups):
            lo, hi = (_pairs(half, zeros) for half in rows.parent(i))
            drop = base_codes.union([t | d << 8 for t in p.tables
                                     for d in depth_range])
            bits = sum(bit[x] for x in profiles[i])
            for k, c in enumerate(kids):
                t = c & _BYTE
                _, deep, keep = rows.depths[p.depths + (c >> 8,) if c
                                            else p.depths]
                codes = ((t * ones & hi | lo | deep) & keep).to_bytes(
                    2 * count, "little")
                fresh = dict.fromkeys(unpack(codes))
                for x in drop:
                    fresh.pop(x, None)
                for e in depth_range:
                    fresh.pop(t | e << 8, None)
                # two siblings each make the other's code (their rows
                # without g are their parent's growth rows), so the
                # earlier one made their key first
                for x in itertools.islice(kids, k):
                    fresh.pop(x, None)
                # a key holding a code y of the parent's profile may also
                # come from the state that lacks y, in another group
                if bits:
                    bits_c = bits | bit[c]
                    for x in shared.intersection(fresh):
                        key = bits_c | bit[x]
                        if key in seen:
                            del fresh[x]
                        else:
                            seen.add(key)
                if fresh:
                    out.append((self._child(p, c, codes), fresh))
        return out

    def run(self, targets: set[int]) -> dict[int, Network]:
        # depth 0: constants and literals (their tables are all distinct)
        solutions = {t: self._network((), idx)
                     for idx, t in enumerate(self.base_tables) if t in targets}
        unsolved = set(targets).difference(solutions)

        # a gate solving an unsolved target at level k has all k chain
        # gates in its cone.  Else the cone's gates, in chain order, form a
        # shorter chain whose (table, depth) profile growth kept, and a
        # scan there with the same operands would have solved it sooner.
        # So the network is the whole chain, the scan needs only tuples
        # holding the newest gate, and a cone of depth max_levels holds at
        # most 1 + f + ... + f^(max_levels-1) gates.  No chain gate's table
        # is an unsolved target: a scan by that gate's level solved it.
        # Growth keeps only gates shallower than max_levels, so a gate the
        # scan offers is at most max_levels deep
        fan_in = 5 if self.budget.allow_maj5 else 3
        top, width = 0, 1
        for _ in range(self.budget.max_levels):
            if top >= self.budget.max_gates:
                break
            top, width = top + width, width * fan_in
        top = min(top, self.budget.max_gates)

        for level in range(1, top + 1):
            if not unsolved:
                break
            # a level's answer to a target is the same in every call, so
            # only targets it has not settled yet are scanned
            rows = self._level(level)
            answers = rows.answers
            fresh = unsolved.difference(answers)
            if fresh:
                answers.update(dict.fromkeys(fresh) | self._scan(rows, fresh))
            solved = {t: net for t in unsolved
                      if (net := answers[t]) is not None}
            solutions.update(solved)
            unsolved.difference_update(solved)
        return solutions

    def _level(self, level: int) -> _Rows:
        """A level's _Rows, from _LEVELS, building the levels up to it
        that no call has reached yet."""
        key = (self.n, self.budget.allow_maj5, self.budget.max_levels)
        with _LEVELS_LOCK:
            levels = _LEVELS.get(key)
            if levels is None:
                _LEVELS.clear()
                levels = _LEVELS[key] = []
            while len(levels) < level:
                k = len(levels) + 1
                # states in groups of one parent's children, each child a
                # code; level 1 has one state, the empty chain
                groups = (self._grow(levels[-1]) if levels
                          else [(_Chain((), (), (), 0), {0: None})])
                combos = self._combos(self.nbase + k - 1)
                levels.append(_Rows(self, combos, groups, k))
            return levels[level - 1]


def synthesize(spec: TruthTable, budget: SearchBudget | None = None):
    """Find a network for the table with the fewest majority gates, then
    the least (gate_count, levels, inverter_count) over networks whose
    inverters sit on inputs, or None.

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
    return searcher.run({spec.table}).get(spec.table)


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
        net = solutions.get(t)
        entries.append(AtlasEntry(
            minterms=TruthTable.from_int(3, t).minterms(),
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
