"""Majority-inverter networks.

A network is a list of nodes in topological order plus one designated
output node.  Node kinds:

    input <var>          primary input by variable index
    const <0|1>          logic constant
    not <child>          inversion
    maj3 <c1> <c2> <c3>  three-input majority
    maj5 <c1> .. <c5>    five-input majority

Children always point at earlier list positions, so cycles cannot be
expressed.  Networks are built through NetworkBuilder, which hash-conses
nodes: structurally identical subterms get one shared node, and the cost
census therefore counts each shared subterm once.

The text serialization is line oriented and stable:

    network <n_vars>
    <id> <kind> <arg> ...
    output <id>

Cost accounting follows the usual majority-logic conventions.  gate_count
is majority gates plus inverters.  levels counts only majority nodes along
the longest output-to-input path; inverters and constants add no depth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ArityError, CapacityError
from .truthtable import (MAX_VARS, TruthTable, check_n_vars, check_row, maj3,
                         maj5, var_table)

INPUT = "input"
CONST = "const"
NOT = "not"
MAJ3 = "maj3"
MAJ5 = "maj5"

_ARITY = {INPUT: 1, CONST: 1, NOT: 1, MAJ3: 3, MAJ5: 5}


class Node(NamedTuple):
    """One network node.  args holds a variable index, a constant value,
    or child node ids depending on kind."""

    kind: str
    args: tuple[int, ...]


@dataclass(frozen=True)
class Network:
    n_vars: int
    nodes: tuple[Node, ...]
    output: int

    def __post_init__(self):
        check_n_vars(self.n_vars)
        _check_output(self.output, self.nodes)
        for i, (kind, args) in enumerate(self.nodes):
            _check_node(i, kind, args, self.n_vars)


def _check_output(output: int, nodes: tuple[Node, ...]) -> None:
    if not 0 <= output < len(nodes):
        raise ValueError(f"output id {output} out of range")


def _check_node(i: int, kind: str, args: tuple[int, ...], n_vars: int) -> None:
    """The rule for node i of a network with n_vars inputs."""
    if kind not in _ARITY:
        raise ValueError(f"node {i}: unknown kind {kind!r}")
    if len(args) != _ARITY[kind]:
        raise ValueError(f"node {i}: kind {kind} takes {_ARITY[kind]} "
                         f"arguments, got {len(args)}")
    if kind == INPUT:
        if not 0 <= args[0] < n_vars:
            raise ValueError(f"node {i}: variable index {args[0]} out of "
                             f"range for {n_vars} inputs")
    elif kind == CONST:
        if args[0] not in (0, 1):
            raise ValueError(f"node {i}: constant must be 0 or 1, "
                             f"got {args[0]}")
    else:
        for c in args:
            if not 0 <= c < i:
                raise ValueError(f"node {i}: child {c} does not precede "
                                 f"the node")


class NetworkBuilder:
    """Creates nodes with hash-consing and assembles Networks.

    One builder may serve several outputs; networks built from it share
    the node pool, which is how multi-output designs share subterms.
    The pool is one dict from node to id: a Node is its (kind, args)
    tuple, so a lookup hashes in C, and insertion order is id order.
    Each new node is checked with Network's own rule, so a bad node
    raises the same message from either, and build() does not check
    the pool's nodes again.
    """

    def __init__(self, n_vars: int):
        check_n_vars(n_vars)
        self.n_vars = n_vars
        self._nodes: dict[Node, int] = {}

    def _intern(self, kind: str, args: tuple[int, ...]) -> int:
        found = self._nodes.get((kind, args))
        if found is not None:
            return found
        _check_node(len(self._nodes), kind, args, self.n_vars)
        self._nodes[Node(kind, args)] = found = len(self._nodes)
        return found

    def input(self, var: int) -> int:
        return self._intern(INPUT, (var,))

    def const(self, value: int) -> int:
        return self._intern(CONST, (value,))

    def invert(self, child: int) -> int:
        return self._intern(NOT, (child,))

    def maj3(self, a: int, b: int, c: int) -> int:
        return self._intern(MAJ3, (a, b, c))

    def maj5(self, a: int, b: int, c: int, d: int, e: int) -> int:
        return self._intern(MAJ5, (a, b, c, d, e))

    def build(self, output: int) -> Network:
        nodes = tuple(self._nodes)
        _check_output(output, nodes)
        # the fields Network(...) would set, without __post_init__'s
        # second pass of _check_node over nodes _intern has checked
        net = object.__new__(Network)
        object.__setattr__(net, "n_vars", self.n_vars)
        object.__setattr__(net, "nodes", nodes)
        object.__setattr__(net, "output", output)
        return net


def _output_int(net: Network, inputs, mask: int) -> int:
    """The output's int form, given each input's int form and a mask
    with one bit per row.  Each node is computed once."""
    values = []
    for kind, args in net.nodes:
        if kind == INPUT:
            values.append(inputs[args[0]])
        elif kind == CONST:
            values.append(mask if args[0] else 0)
        elif kind == NOT:
            values.append(values[args[0]] ^ mask)
        else:
            gate = maj3 if kind == MAJ3 else maj5
            values.append(gate(*(values[c] for c in args)))
    return values[net.output]


def evaluate(net: Network, assignment) -> int:
    """Evaluate the output for one assignment (a 0/1 sequence in
    variable order): the one-row truth table, so it answers for any
    number of inputs."""
    return _output_int(net, check_row(assignment, net.n_vars), 1)


def truth_table(net: Network) -> TruthTable:
    """Exhaustive truth table of the output, every node an int over all
    2**n rows.  Refuses networks with more than eight inputs; 2**n rows
    stop being a sensible plan past that."""
    if net.n_vars > MAX_VARS:
        raise CapacityError(
            f"truth tables cover at most {MAX_VARS} variables, "
            f"network has {net.n_vars}"
        )
    n = net.n_vars
    inputs = [var_table(n, i) for i in range(n)]
    mask = (1 << (1 << n)) - 1
    return TruthTable.from_int(n, _output_int(net, inputs, mask))


def reachable(net: Network) -> set[int]:
    """Node ids in the output cone."""
    seen: set[int] = set()
    stack = [net.output]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        kind, args = net.nodes[i]
        if kind not in (INPUT, CONST):
            stack.extend(args)
    return seen


@dataclass(frozen=True)
class CostReport:
    maj3_count: int
    maj5_count: int
    inverter_count: int
    gate_count: int
    levels: int


def _census(nodes: tuple[Node, ...], ids: set[int]) -> CostReport:
    count = dict.fromkeys(_ARITY, 0)
    depth = [0] * len(nodes)
    for i in sorted(ids):
        kind, args = nodes[i]
        count[kind] += 1
        if kind == NOT:
            depth[i] = depth[args[0]]
        elif kind in (MAJ3, MAJ5):
            depth[i] = 1 + max(depth[c] for c in args)
    n3, n5, ninv = count[MAJ3], count[MAJ5], count[NOT]
    levels = max((depth[i] for i in ids), default=0)
    return CostReport(n3, n5, ninv, n3 + n5 + ninv, levels)


def cost(net: Network) -> CostReport:
    """Census of the output cone.  Hash-consed shared subterms appear
    once in the node list, so they are counted once here."""
    return _census(net.nodes, reachable(net))


def combined_cost(nets) -> CostReport:
    """Census over the union of several output cones. The networks must
    share one node pool (be built from one builder, which only appends,
    so each network's nodes are a prefix of the longest one's); levels
    is the worst output depth."""
    nets = list(nets)
    if not nets:
        raise ValueError("need at least one network")
    pool = max((net.nodes for net in nets), key=len)
    ids: set[int] = set()
    for net in nets:
        if net.nodes != pool[:len(net.nodes)]:
            raise ValueError("networks do not share a node pool")
        ids |= reachable(net)
    return _census(pool, ids)


# The variable rule, which the expression tokenizer reads too: a letter
# (str.isalpha) or "_", then letters, digits or "_".  \w is str.isalnum
# or "_", so NAME_CHARS matches a name's characters and is_name_start
# says which of them may open it.
NAME_CHARS = r"\w+"
_NAME_CHARS = re.compile(NAME_CHARS)


def is_name_start(ch: str) -> bool:
    """Whether a variable name may begin with character ch."""
    return ch.isalpha() or ch == "_"


def check_names(names, n_vars: int) -> list[str]:
    """The n_vars variable names: `names` checked for count, duplicates
    and each being one variable token of the expression grammar, so that
    format_expr text parses back; or A, B, C, ... when None."""
    if names is None:
        if n_vars > 26:
            raise CapacityError("default names cover at most 26 variables")
        return [chr(ord("A") + i) for i in range(n_vars)]
    try:
        names = list(names)
    except TypeError:
        raise ValueError(f"variable names must be an iterable, got "
                         f"{names!r}") from None
    for name in names:
        if (not isinstance(name, str) or not _NAME_CHARS.fullmatch(name)
                or not is_name_start(name[0])):
            raise ValueError(f"variable name {name!r} must be a letter or _ "
                             f"followed by letters, digits or _")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    if len(names) != n_vars:
        raise ArityError(f"got {len(names)} names for {n_vars} variables")
    return names


def order_note(n_vars: int, names=None) -> str:
    """Standard sentence recording the variable ordering in force."""
    names = check_names(names, n_vars)
    return (f"variable order {','.join(names)} with {names[0]} as the most "
            f"significant minterm bit")


@dataclass(frozen=True)
class VerifyReport:
    equivalent: bool
    differing_minterms: frozenset[int]
    computed_minterms: frozenset[int]
    variable_order_note: str


def verify(net: Network, spec: TruthTable, names=None) -> VerifyReport:
    """Compare a network against a reference table minterm by minterm."""
    if net.n_vars != spec.n_vars:
        raise ArityError(
            f"network has {net.n_vars} inputs but the reference table "
            f"has {spec.n_vars}"
        )
    computed = truth_table(net)
    differing = TruthTable.from_int(net.n_vars, computed.table ^ spec.table)
    return VerifyReport(
        equivalent=not differing.table,
        differing_minterms=differing.minterms(),
        computed_minterms=computed.minterms(),
        variable_order_note=order_note(net.n_vars, names),
    )


# the longest text format_expr writes; 1 << 20 holds the 700,001
# characters of a 100,000-deep chain, while text that repeats shared
# subterms can double with each level of sharing
MAX_EXPR_CHARS = 1 << 20

_OPEN = {MAJ3: "M(", MAJ5: "M5("}


def format_expr(net: Network, names=None) -> str:
    """Render the output cone as expression text.

    Shared subterms are written out once per reference, so the text can
    be far longer than the network; above MAX_EXPR_CHARS characters it
    raises CapacityError before writing any.  Parsing the text back
    yields an equivalent function (and re-shares the duplicates).
    """
    names = check_names(names, net.n_vars)
    # the text length of each subterm, children first
    size = [0] * len(net.nodes)
    for i in sorted(reachable(net)):
        kind, args = net.nodes[i]
        if kind == INPUT:
            size[i] = len(names[args[0]])
        elif kind == CONST:
            size[i] = 1
        elif kind == NOT:
            size[i] = size[args[0]] + 1
        else:   # the opening, the commas and ")"
            size[i] = len(_OPEN[kind]) + len(args) + sum(size[c] for c in args)
        if size[i] > MAX_EXPR_CHARS:
            raise CapacityError(
                f"expression text exceeds {MAX_EXPR_CHARS} characters")
    # depth first from the output; the stack holds node ids and the
    # pieces of text that follow them
    pieces: list[str] = []
    stack: list = [net.output]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        kind, args = net.nodes[item]
        if kind == INPUT:
            pieces.append(names[args[0]])
        elif kind == CONST:
            pieces.append(str(args[0]))
        elif kind == NOT:
            stack += ("'", args[0])
        else:
            pieces.append(_OPEN[kind])
            body = [x for c in args for x in (",", c)][1:] + [")"]
            stack += reversed(body)
    return "".join(pieces)


def to_text(net: Network) -> str:
    """Serialize in the line format documented in the module docstring."""
    lines = [f"network {net.n_vars}"]
    for i, (kind, args) in enumerate(net.nodes):
        lines.append(f"{i} {kind} " + " ".join(str(a) for a in args))
    lines.append(f"output {net.output}")
    return "\n".join(lines) + "\n"


# a number as str(n) writes it for n >= 0: ASCII digits, no sign,
# underscore or leading zero
_NUMBER = re.compile(r"0|[1-9][0-9]*")


def _number(word: str, what: str, line: str) -> int:
    if not _NUMBER.fullmatch(word):
        raise ValueError(f"bad {what} line {line!r}")
    return int(word)


def from_text(text: str) -> Network:
    """Parse the to_text format back into a Network.  Every number and
    space must be written as to_text writes it: one ASCII space between
    words, a bare newline after each line and no other whitespace.
    Empty lines are skipped."""
    try:
        lines = [ln for ln in text.split("\n") if ln]
    except (TypeError, AttributeError):
        raise ValueError(f"serialized network must be a str, got "
                         f"{text!r}") from None
    if not lines or not lines[0].startswith("network "):
        raise ValueError("serialized network must start with 'network <n>'")
    n_vars = _number(lines[0].removeprefix("network "), "header", lines[0])
    if not lines[-1].startswith("output "):
        raise ValueError("serialized network must end with 'output <id>'")
    output = _number(lines[-1].removeprefix("output "), "output", lines[-1])
    nodes = []
    for expected, line in enumerate(lines[1:-1]):
        parts = line.split(" ")
        if (len(parts) < 3 or parts[0] != str(expected)
                or not all(map(_NUMBER.fullmatch, parts[2:]))):
            raise ValueError(f"bad node line {line!r}")
        nodes.append(Node(parts[1], tuple(map(int, parts[2:]))))
    return Network(n_vars, tuple(nodes), output)
