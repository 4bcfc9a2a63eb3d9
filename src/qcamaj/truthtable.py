"""Truth tables for Boolean functions of up to eight variables.

A function is stored as a flat bit vector indexed by minterm number.
Variable 0 supplies the most significant bit of the minterm index, so for
three variables named A, B, C the index of an assignment is 4A + 2B + C.
Every module in this package follows that convention, and verification
reports repeat it so results stay attributable to an ordering.

The same vector has an int form, whose bit k is the value at minterm k.
TruthTable.to_int and TruthTable.from_int convert between the forms;
var_table, maj3 and maj5 work on ints, so one bitwise operation
evaluates a gate on every row at once.  No other module knows this
encoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ArityError, MintermRangeError, ParseError

MAX_VARS = 8


def _check_n_vars(n_vars: int) -> None:
    if not 1 <= n_vars <= MAX_VARS:
        raise ValueError(
            f"n_vars must be between 1 and {MAX_VARS}, got {n_vars}"
        )


@dataclass(frozen=True)
class TruthTable:
    """Bit vector of a Boolean function, one bit per minterm.

    Two tables are equal exactly when their variable counts and bit
    vectors are equal, so structural equality is semantic equality.
    """

    n_vars: int
    bits: tuple[int, ...]

    def __post_init__(self):
        _check_n_vars(self.n_vars)
        if len(self.bits) != 1 << self.n_vars:
            raise ValueError(
                f"expected {1 << self.n_vars} bits for {self.n_vars} "
                f"variables, got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("truth table bits must be 0 or 1")

    @classmethod
    def from_minterms(cls, n_vars: int, minterms: Iterable[int]) -> "TruthTable":
        """Build a table that is 1 exactly on the given minterm indices.

        Raises MintermRangeError naming the first offending index if any
        minterm falls outside 0 .. 2**n_vars - 1.
        """
        _check_n_vars(n_vars)
        size = 1 << n_vars
        bits = [0] * size
        for m in minterms:
            if not 0 <= m < size:
                raise MintermRangeError(m, n_vars)
            bits[m] = 1
        return cls(n_vars, tuple(bits))

    @classmethod
    def constant(cls, n_vars: int, value: int) -> "TruthTable":
        """All-zero or all-one table."""
        if value not in (0, 1):
            raise ValueError(f"constant value must be 0 or 1, got {value}")
        return cls(n_vars, (value,) * (1 << n_vars))

    def eval(self, assignment: Sequence[int]) -> int:
        """Look up the function value for one variable assignment.

        The assignment lists variable values in variable order; its length
        must equal n_vars.
        """
        if len(assignment) != self.n_vars:
            raise ArityError(
                f"assignment has {len(assignment)} values, "
                f"expected {self.n_vars}"
            )
        index = 0
        for v in assignment:
            if v not in (0, 1):
                raise ValueError(f"assignment values must be 0 or 1, got {v!r}")
            index = (index << 1) | v
        return self.bits[index]

    def minterms(self) -> frozenset[int]:
        """Indices where the function is 1.  Inverse of from_minterms."""
        return frozenset(i for i, b in enumerate(self.bits) if b)

    @classmethod
    def from_int(cls, n_vars: int, table: int) -> "TruthTable":
        """Table whose value at minterm k is bit k of `table`."""
        _check_n_vars(n_vars)
        size = 1 << n_vars
        if not 0 <= table < 1 << size:
            raise ValueError(f"table must lie in 0 .. 2**{size} - 1, got {table}")
        return cls(n_vars, tuple((table >> k) & 1 for k in range(size)))

    def to_int(self) -> int:
        """Int form: bit k is the value at minterm k.  Inverse of from_int."""
        return sum(b << k for k, b in enumerate(self.bits))


def var_table(n_vars: int, i: int) -> int:
    """Int form of variable i among n_vars: bit k is set where variable i
    is 1 in minterm k.  That is blocks of `run` zeros then `run` ones,
    repeated over all 2^n_vars bits."""
    run = 1 << (n_vars - 1 - i)
    block = ((1 << run) - 1) << run
    return ((1 << (1 << n_vars)) - 1) // ((1 << 2 * run) - 1) * block


def maj3(a: int, b: int, c: int) -> int:
    return (a & b) | (a & c) | (b & c)


def maj5(a: int, b: int, c: int, d: int, e: int) -> int:
    return ((a & b & c) | (a & b & d) | (a & b & e) | (a & c & d)
            | (a & c & e) | (a & d & e) | (b & c & d) | (b & c & e)
            | (b & d & e) | (c & d & e))


# the longest prefix that some well-formed set extends; a text is well
# formed when this spans all of it and it ends in ")"
_SPEC_PREFIX_RE = re.compile(
    r"(?:s(?:u(?:m(?:\((?:\)|\d+(?:,\d+)*(?:,|\))?)?)?)?)?)?", re.IGNORECASE)


def parse_minterm_spec(text: str) -> frozenset[int]:
    """Parse minterm-set text of the form ``sum(3,4,5,6,7)``.

    The keyword is case-insensitive and whitespace is ignored anywhere.
    ``sum()`` denotes the empty set.  Raises ParseError on anything else.
    """
    stripped = "".join(text.split())
    end = _SPEC_PREFIX_RE.match(stripped).end()
    if end < len(stripped) or not stripped.endswith(")"):
        # offset in `text` of the first character that breaks the shape
        kept = [i for i, ch in enumerate(text) if not ch.isspace()]
        raise ParseError(f"bad minterm set {text!r}, expected sum(i,j,...)",
                         (kept + [len(text)])[end])
    # the one empty part is the body of sum()
    return frozenset(int(part) for part in stripped[4:-1].split(",") if part)


def format_minterms(minterms: Iterable[int]) -> str:
    """Render a minterm set in the ``sum(...)`` text form, ascending."""
    return "sum(" + ",".join(str(m) for m in sorted(set(minterms))) + ")"
