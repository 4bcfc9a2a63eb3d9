"""Truth tables for Boolean functions of up to eight variables.

A function of n variables is one int of 2**n bits: bit k is the value
at minterm k.  Variable 0 supplies the most significant bit of the
minterm index, so for three variables named A, B, C the index of an
assignment is 4A + 2B + C.  Every module in this package follows that
convention, and verification reports repeat it so results stay
attributable to an ordering.

TruthTable stores n_vars and that int and nothing else; its bits
property spells the int out in minterm order.  var_table, maj3 and maj5
work on the same ints, so one bitwise operation evaluates a gate on
every row at once.  network.truth_table builds a network's table that
way, and synth packs tables into byte lanes, one per parent chain.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Sequence

from .errors import ArityError, MintermRangeError, ParseError

MAX_VARS = 8


def check_n_vars(n_vars: int) -> None:
    """The one n_vars rule: an int, bool refused, of at least 1.  A
    network may have any number of inputs; a table caps them too."""
    if type(n_vars) is not int:
        raise ValueError(f"n_vars must be an int, got {n_vars!r}")
    if n_vars < 1:
        raise ValueError(f"n_vars must be positive, got {n_vars}")


def _check_table_vars(n_vars: int) -> None:
    check_n_vars(n_vars)
    if n_vars > MAX_VARS:
        raise ValueError(
            f"n_vars must be between 1 and {MAX_VARS}, got {n_vars}")


@dataclass(frozen=True, init=False)
class TruthTable:
    """A Boolean function as the int whose bit k is its value at minterm k.

    TruthTable(n_vars, bits) and the bits property hold the values as a
    tuple in minterm order.  Equal n_vars and ints mean equal functions.
    """

    n_vars: int
    table: int

    def __init__(self, n_vars: int, bits: Sequence[int]):
        _check_table_vars(n_vars)
        try:
            size = len(bits)
        except TypeError:
            raise ValueError(f"truth table bits must be a sequence, got "
                             f"{bits!r}") from None
        if size != 1 << n_vars:
            raise ValueError(
                f"expected {1 << n_vars} bits for {n_vars} "
                f"variables, got {size}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ValueError("truth table bits must be 0 or 1")
        vars(self).update(n_vars=n_vars,
                          table=sum(1 << k for k, b in enumerate(bits) if b))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.table >> k) & 1 for k in range(1 << self.n_vars))

    @classmethod
    def from_minterms(cls, n_vars: int, minterms: Iterable[int]) -> "TruthTable":
        """Build a table that is 1 exactly on the given minterm indices.

        Raises MintermRangeError naming the first offending index if any
        minterm falls outside 0 .. 2**n_vars - 1, and ValueError naming
        the first that is not an int.
        """
        _check_table_vars(n_vars)
        size = 1 << n_vars
        table = 0
        try:
            minterms = iter(minterms)
        except TypeError:
            raise ValueError(f"minterms must be an iterable of ints, got "
                             f"{minterms!r}") from None
        for m in minterms:
            try:    # a non-int fails the range test or the shift
                if not 0 <= m < size:
                    raise MintermRangeError(m, n_vars)
                table |= 1 << m
            except TypeError:
                raise ValueError(
                    f"minterm must be an int, got {m!r}") from None
        return cls.from_int(n_vars, table)

    @classmethod
    def constant(cls, n_vars: int, value: int) -> "TruthTable":
        """All-zero or all-one table."""
        if value not in (0, 1):
            raise ValueError(f"constant value must be 0 or 1, got {value}")
        return cls.from_int(n_vars, (1 << (1 << n_vars)) - 1 if value else 0)

    def eval(self, assignment: Sequence[int]) -> int:
        """Look up the function value for one variable assignment.

        The assignment lists variable values in variable order; its length
        must equal n_vars.
        """
        index = 0
        for v in check_row(assignment, self.n_vars):
            index = (index << 1) | v
        return (self.table >> index) & 1

    def minterms(self) -> frozenset[int]:
        """Indices where the function is 1.  Inverse of from_minterms."""
        # digit k of the reversed numeral is bit k, and b"\0" is false
        digits = f"{self.table:b}"[::-1].encode().replace(b"0", b"\0")
        return frozenset(compress(count(), digits))

    @classmethod
    def from_int(cls, n_vars: int, table: int) -> "TruthTable":
        """Table whose value at minterm k is bit k of `table`."""
        _check_table_vars(n_vars)
        if type(table) is not int:
            raise ValueError(f"table must be an int, got {table!r}")
        size = 1 << n_vars
        if not 0 <= table < 1 << size:
            raise ValueError(f"table must lie in 0 .. 2**{size} - 1, got {table}")
        tt = cls.__new__(cls)
        vars(tt).update(n_vars=n_vars, table=table)
        return tt

    def to_int(self) -> int:
        """Int form: bit k is the value at minterm k.  Inverse of from_int."""
        return self.table


def check_row(assignment: Sequence[int], n_vars: int) -> list[int]:
    """The assignment as ints, checked to hold n_vars values, each 0 or 1."""
    try:
        size = len(assignment)
    except TypeError:
        raise ValueError(f"assignment must be a sequence, got "
                         f"{assignment!r}") from None
    if size != n_vars:
        raise ArityError(f"assignment has {size} values, expected {n_vars}")
    for v in assignment:
        if v not in (0, 1):
            raise ValueError(f"assignment values must be 0 or 1, got {v!r}")
    return [int(v) for v in assignment]


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
    # a and b both set need one of c, d, e; one of them needs two; none
    # needs all three
    cd = c & d
    return (a & b & (c | d | e)) | ((a | b) & (cd | (c | d) & e)) | (cd & e)


# the longest prefix that some well-formed set extends; a text is well
# formed when this spans all of it and it ends in ")"
_SPEC_PREFIX_RE = re.compile(
    r"(?:s(?:u(?:m(?:\((?:\)|\d+(?:,\d+)*(?:,|\))?)?)?)?)?)?", re.IGNORECASE)


def parse_minterm_spec(text: str) -> frozenset[int]:
    """Parse minterm-set text of the form ``sum(3,4,5,6,7)``.

    The keyword is case-insensitive and whitespace is ignored anywhere.
    ``sum()`` denotes the empty set.  Raises ParseError on any other
    text, and ValueError on a text that is no str.
    """
    try:
        stripped = "".join(text.split())
    except (TypeError, AttributeError):
        raise ValueError(f"minterm set must be a str, got {text!r}") from None
    end = _SPEC_PREFIX_RE.match(stripped).end()
    if end < len(stripped) or not stripped.endswith(")"):
        # offset in `text` of the first character that breaks the shape
        kept = [i for i, ch in enumerate(text) if not ch.isspace()]
        raise ParseError(f"bad minterm set {text!r}, expected sum(i,j,...)",
                         (kept + [len(text)])[end])
    parts = stripped[4:-1].split(",")
    if max(map(len, parts)) > _MAX_INDEX_DIGITS:
        parts = _short_indices(text, parts)
    # the one empty part is the body of sum()
    return frozenset(int(part) for part in parts if part)


# no table has an index above 255, and 100 is well under 640, the least
# limit sys.set_int_max_str_digits takes, so int() never meets its limit
# and never spends quadratic time on a long digit string
_MAX_INDEX_DIGITS = 100


def _short_indices(text: str, parts: list[str]) -> list[str]:
    """The parts of a well-formed set, leading zeros (in any script)
    dropped from each that is longer than _MAX_INDEX_DIGITS.  Raises
    ParseError at the first character of an index that is still longer."""
    out, at = [], 4     # the offset of each part in text without spaces
    for part in parts:
        digits = part
        if len(part) > _MAX_INDEX_DIGITS:
            digits = part[next((k for k, ch in enumerate(part) if int(ch)),
                               len(part)):] or "0"
            if len(digits) > _MAX_INDEX_DIGITS:
                kept = [i for i, ch in enumerate(text) if not ch.isspace()]
                raise ParseError(
                    f"minterm index of {len(digits)} digits, expected at "
                    f"most {_MAX_INDEX_DIGITS}", kept[at])
        out.append(digits)
        at += len(part) + 1
    return out


def format_minterms(minterms: Iterable[int]) -> str:
    """Render a minterm set in the ``sum(...)`` text form, ascending."""
    try:    # a non-int fails the sort or operator.index, as a bool passes
        return "sum(" + ",".join(
            map(str, map(operator.index, sorted(set(minterms))))) + ")"
    except TypeError:
        raise ValueError(f"minterms must be an iterable of ints, got "
                         f"{minterms!r}") from None
