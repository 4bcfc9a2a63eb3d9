"""Independent reference implementations used only by the tests.

Everything here is deliberately written against the package, not with it:
a cursor-based expression evaluator, sum-of-products majority references,
and a functions-only breadth-first search that finds the minimum majority
gate count for every three-variable function without ever building a
network.  Test expectations are frozen from these, so the package and the
oracles have to agree through two separate code paths.  parse_reference
is the package's former character-by-character expression parser, kept
as the differential oracle for the regex tokenizer that replaced it.
couplings_reference and relax_reference are the cell layer's former
coupling build and sweep loop, kept as the exactness oracle for the
forward-half probe and the hoisted sweep that replaced them.
checked_index_reference is the grid check as it stood beside the bulk
checks it outlived, kept as the oracle for its index and error messages;
the output cell it does not return is checked by role.
clocked_relax settles the free cells zone by zone outward from the
drivers before the sweep, so its answer does not hang on the cell list
order that relax uses as its clock.
format_reference writes a network's expression text by recursion over
the nodes, as the second opinion on format_expr's text.
"""

import itertools
import math
import operator

from qcamaj.cellsim import (_ROLES, DIAGONAL_WEIGHT, DRIVER, FACE_WEIGHT,
                            OUTPUT, RelaxResult)
from qcamaj.errors import ConvergenceError, ParseError, UnknownVariableError
from qcamaj.network import NetworkBuilder, check_names


def maj3_sop(a, b, c):
    return (a & b) | (b & c) | (a & c)


def maj5_sop(a, b, c, d, e):
    """Ten-term two-level form of the five-input majority."""
    return ((a & b & c) | (a & b & d) | (a & b & e) | (a & c & d)
            | (a & c & e) | (a & d & e) | (b & c & d) | (b & c & e)
            | (b & d & e) | (c & d & e))


def eval_expr(text, env):
    """Evaluate majority expression text under an assignment dict.

    Cursor-based, no tokenizer, no sharing; a second opinion against the
    package parser.  Assumes well-formed input (the oracle only sees the
    bundled table rows and round-trip output).
    """
    s = "".join(text.split())

    def term(i):
        ch = s[i]
        if ch in "01":
            return int(ch), i + 1
        j = i
        while j < len(s) and (s[j].isalnum() or s[j] == "_"):
            j += 1
        name = s[i:j]
        if j < len(s) and s[j] == "(":
            args = []
            j += 1
            while True:
                v, j = expr(j)
                args.append(v)
                if s[j] == ")":
                    j += 1
                    break
                assert s[j] == ","
                j += 1
            want = 3 if name.upper() == "M" else 5
            assert name.upper() in ("M", "M5") and len(args) == want
            return (1 if sum(args) * 2 > len(args) else 0), j
        return env[name], j

    def expr(i):
        v, i = term(i)
        while i < len(s) and s[i] == "'":
            v, i = 1 - v, i + 1
        return v, i

    v, i = expr(0)
    assert i == len(s), f"trailing input in {text!r}"
    return v


# the former expression front end, verbatim

_SYMBOLS = "(),'"
_ARITY = {"M": 3, "M5": 5}


class _Token:
    __slots__ = ("text", "pos")

    def __init__(self, text: str, pos: int):
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, i))
            i += 1
            continue
        j = name_end(text, i)
        if j == i:
            while j < len(text) and text[j].isdigit():
                j += 1
        if j == i:
            raise ParseError(f"unexpected character {ch!r}", i)
        tokens.append(_Token(text[i:j], i))
        i = j
    return tokens


def _parse(tokens: list[_Token], names: list[str], builder: NetworkBuilder,
           end: int) -> int:
    """The root node of the token list; open gates wait on an explicit
    stack of (gate token, arity, children), so nesting costs no frames."""
    stack: list[tuple[_Token, int, list[int]]] = []
    i = 0

    def take() -> _Token:
        nonlocal i
        if i == len(tokens):
            raise ParseError("unexpected end of expression", end)
        i += 1
        return tokens[i - 1]

    while True:
        # one operand: a constant, a variable, or an opening gate
        tok = take()
        if tok.text in ("0", "1"):
            node = builder.const(int(tok.text))
        elif tok.text.isdigit():
            raise ParseError(f"constants are 0 or 1, found {tok.text!r}",
                             tok.pos)
        elif tok.text in _SYMBOLS:
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        elif i < len(tokens) and tokens[i].text == "(":
            arity = _ARITY.get(tok.text.upper())
            if arity is None:
                raise ParseError(
                    f"unknown gate {tok.text!r}, expected M or M5", tok.pos)
            i += 1
            stack.append((tok, arity, []))
            continue
        elif tok.text in names:
            node = builder.input(names.index(tok.text))
        else:
            raise UnknownVariableError(
                f"unknown variable {tok.text!r}, "
                f"declared: {','.join(names)}", tok.pos)
        # its complements, then every gate it closes
        while True:
            while i < len(tokens) and tokens[i].text == "'":
                i += 1
                node = builder.invert(node)
            if not stack:
                if i < len(tokens):
                    raise ParseError(f"trailing input {tokens[i].text!r}",
                                     tokens[i].pos)
                return node
            sep = take()
            gate, arity, children = stack[-1]
            children.append(node)
            if sep.text == ",":
                break
            if sep.text != ")":
                raise ParseError(f"expected ',' or ')', found {sep.text!r}",
                                 sep.pos)
            stack.pop()
            if len(children) != arity:
                raise ParseError(f"{gate.text.upper()} takes {arity} "
                                 f"operands, got {len(children)}", gate.pos)
            node = (builder.maj3 if arity == 3 else builder.maj5)(*children)


def name_end(text: str, i: int) -> int:
    """End of the variable name that starts at text[i]: a letter or "_",
    then letters, digits or "_".  Returns i when no name starts there."""
    j = i
    if j < len(text) and (text[j].isalpha() or text[j] == "_"):
        j += 1
        while j < len(text) and (text[j].isalnum() or text[j] == "_"):
            j += 1
    return j


def parse_reference(builder: NetworkBuilder, text: str,
                    variable_names) -> int:
    """The former expr.parse_into: the root id of `text` parsed into
    `builder`'s node pool, through the token objects and character loop
    above."""
    names = check_names(variable_names, builder.n_vars)
    return _parse(_tokenize(text), names, builder, len(text))


# the former cell layer, verbatim but for its inputs: every one of the 8
# (2D) or 18 (3D) lattice steps is probed from every cell

_STEPS = {
    dim: [(step, FACE_WEIGHT if sum(map(abs, step)) == 1 else DIAGONAL_WEIGHT)
          for step in itertools.product((-1, 0, 1), repeat=dim)
          if 1 <= sum(map(abs, step)) <= 2]
    for dim in (2, 3)
}


def couplings_reference(cells) -> list:
    """The former CellGrid couplings of valid `cells`: per cell, its
    sorted (j, weight) pairs."""
    dim = len(cells[0].position)
    index = {c.position: i for i, c in enumerate(cells)}
    weights = []
    for c in cells:
        found = []
        for step, w in _STEPS[dim]:
            j = index.get(tuple(map(operator.add, c.position, step)))
            if j is not None:
                found.append((j, w))
        weights.append(tuple(sorted(found)))
    return weights


def relax_reference(grid, tol: float = 1e-6, max_iter: int = 1000
                    ) -> RelaxResult:
    """The former cellsim.relax sweep loop, over
    couplings_reference(grid.cells) and its own copy of the response; it
    leaves the argument checks to the package."""
    weights = couplings_reference(grid.cells)
    p = [c.polarization if c.role == DRIVER else 0.0 for c in grid.cells]
    active = [i for i, c in enumerate(grid.cells) if c.role != DRIVER]
    residuals = []
    for sweep in range(max_iter):
        worst = 0.0
        for i in active:
            drive = 0.0
            for j, w in weights[i]:
                drive += w * p[j]
            new = drive / math.sqrt(1.0 + drive * drive)
            delta = abs(new - p[i])
            if delta > worst:
                worst = delta
            p[i] = new
        residuals.append(worst)
        if worst < tol:
            return RelaxResult(tuple(p), sweep + 1, tuple(residuals),
                               grid.output_index)
    raise ConvergenceError(max_iter, residuals[-1])


def checked_index_reference(cells, dim: int
                            ) -> dict[tuple[int, ...], int]:
    """Map each position to its cell's index, checking cell by cell in
    list order; raise ValueError naming the first faulty cell."""
    index = {}
    outputs = 0
    for i, c in enumerate(cells):
        if type(c.position) is not tuple:
            raise ValueError(f"cell {i}: position {c.position!r} is not "
                             f"a tuple")
        if len(c.position) != dim:
            raise ValueError(
                f"cell {i} is {len(c.position)}D in a {dim}D grid"
            )
        if not all(type(x) is int for x in c.position):
            raise ValueError(f"cell {i}: position {c.position} is off "
                             f"the integer lattice")
        if c.position in index:
            raise ValueError(f"duplicate cell position {c.position}")
        index[c.position] = i
        if c.role not in _ROLES:
            raise ValueError(f"cell {i} has unknown role {c.role!r}")
        if c.role == OUTPUT:
            outputs += 1
        if c.role == DRIVER and not -1.0 <= c.polarization <= 1.0:
            raise ValueError(
                f"cell {i}: driver polarization must lie in [-1, 1], "
                f"got {c.polarization}"
            )
    if outputs != 1:
        raise ValueError(f"need exactly one output cell, got {outputs}")
    return index


def clocked_relax(grid, order=None, tol: float = 1e-6,
                  max_iter: int = 1000) -> RelaxResult:
    """Relaxation under an explicit clock, then released.

    A free cell's zone is its breadth-first distance from the drivers
    over couplings_reference(grid.cells).  Zone by zone, the zone's cells
    sweep to a fixed point while earlier zones hold their settled values
    and later zones stay at 0.  Then every free cell sweeps from that
    state, as relax does, until the largest change in a sweep drops
    below tol.  `order` lists the free cells in the order each sweep
    updates them, list order by default.  Returns the release's result."""
    weights = couplings_reference(grid.cells)
    p = [c.polarization if c.role == DRIVER else 0.0 for c in grid.cells]
    zone = {i: 0 for i, c in enumerate(grid.cells) if c.role == DRIVER}
    frontier = list(zone)
    while frontier:
        reached = []
        for i in frontier:
            for j, _ in weights[i]:
                if j not in zone:
                    zone[j] = zone[i] + 1
                    reached.append(j)
        frontier = reached
    if order is None:
        order = [i for i, c in enumerate(grid.cells) if c.role != DRIVER]

    def settle(cells):
        residuals = []
        for _ in range(max_iter):
            worst = 0.0
            for i in cells:
                drive = sum(w * p[j] for j, w in weights[i])
                new = drive / math.sqrt(1.0 + drive * drive)
                worst = max(worst, abs(new - p[i]))
                p[i] = new
            residuals.append(worst)
            if worst < tol:
                return residuals
        raise ConvergenceError(max_iter, worst)

    for z in range(1, max(zone.values()) + 1):
        settle([i for i in order if zone.get(i) == z])
    residuals = settle(order)
    return RelaxResult(tuple(p), len(residuals), tuple(residuals),
                       grid.output_index)


def format_reference(net, names) -> str:
    """The expression text of net's output under variable `names`,
    written recursively: every reference to a subterm spells it out."""
    def text(i):
        kind, args = net.nodes[i]
        if kind == "input":
            return names[args[0]]
        if kind == "const":
            return str(args[0])
        if kind == "not":
            return text(args[0]) + "'"
        opening = {"maj3": "M(", "maj5": "M5("}[kind]
        return opening + ",".join(text(c) for c in args) + ")"

    return text(net.output)


def minterms_of_expr(text, names):
    """Minterm set of an expression with names[0] as the most significant
    index bit."""
    n = len(names)
    out = set()
    for k in range(1 << n):
        env = {name: (k >> (n - 1 - i)) & 1 for i, name in enumerate(names)}
        if eval_expr(text, env):
            out.add(k)
    return frozenset(out)


def min_majority_counts(allow_maj5=True, max_gates=4, n=3):
    """Minimum majority-gate count per n-variable function, found by a
    breadth-first search over sets of reachable functions.

    Chains draw operands from constants, literals of both polarities, and
    previously built gates, mirroring the search space the synthesizer
    uses but tracking truth tables only.  Returns a dict mapping each
    reachable table (bit-vector integer) to its gate count.
    """
    nb = 1 << n
    mask = (1 << nb) - 1

    def var_table(i):
        t = 0
        for k in range(nb):
            if (k >> (n - 1 - i)) & 1:
                t |= 1 << k
        return t

    lits = [var_table(i) for i in range(n)]
    base = [0, mask] + lits + [t ^ mask for t in lits]

    def m3(a, b, c):
        return (a & b) | (a & c) | (b & c)

    def m5(a, b, c, d, e):
        return maj5_sop(a, b, c, d, e)

    solved = {}
    for t in base:
        solved.setdefault(t, 0)
    states = [()]
    for level in range(1, max_gates + 1):
        new_states = {}
        newly = {}
        for chain in states:
            cand = base + list(chain)
            have = set(cand)
            results = []
            for combo in itertools.combinations(cand, 3):
                results.append(m3(*combo))
            if allow_maj5:
                for combo in itertools.combinations(cand, 5):
                    results.append(m5(*combo))
                for p in cand:
                    for combo in itertools.combinations(cand, 3):
                        results.append(m5(p, p, *combo))
            for t in results:
                if t in have:
                    continue
                if t not in solved:
                    newly.setdefault(t, level)
                key = frozenset(chain + (t,))
                if key not in new_states:
                    new_states[key] = chain + (t,)
        solved.update(newly)
        if len(solved) == 1 << nb:
            break
        states = list(new_states.values())
    return solved
