"""Expression text for majority networks.

Grammar, with postfix apostrophe binding tightest:

    expr     := term quote*
    term     := "0" | "1" | variable | "M" "(" expr "," expr "," expr ")"
              | "M5" "(" expr "," expr "," expr "," expr "," expr ")"
    variable := (letter | "_") (letter | digit | "_")*

Tokens, read left to right with whitespace (str.isspace, so "\x1c" too)
allowed between them:

- a symbol: ( ) , '
- a name: a letter (str.isalpha, so "é") or "_", then letters, digits
  or "_" (str.isalnum, so "x²" is one name);
- a digit run: characters str.isdigit accepts, so "1²" is one token.

Any other character where a token starts ("#", or a number such as "½"
that is no digit) is a bad character, and a bad character anywhere in
the text is reported before any grammar error.  Gate names are
recognized case-insensitively when followed by an opening parenthesis;
any other identifier must be one of the declared variable names.  The
name rule has one owner, network.NAME_CHARS and network.is_name_start,
which both this tokenizer and network.check_names read.  Parse failures
raise ParseError carrying the character offset.
"""

from __future__ import annotations

import itertools
import re

from .errors import ParseError, UnknownVariableError
from .network import (NAME_CHARS, Network, NetworkBuilder, check_names,
                      is_name_start)

_SYMBOLS = "(),'"
_ARITY = {"M": 3, "M5": 5}

# a symbol, a digit run, a name or a bad character (a NAME_CHARS match
# that is_name_start refuses, such as "½", is one too); \s and \d are
# str.isspace and str.isdecimal for str patterns
_TOKEN = re.compile(rf"[(),']|\d+|{NAME_CHARS}|\S")


def _tokenize(text: str) -> tuple[list[str], str]:
    """The token texts of `text`, and the text the token regex ran over,
    in which every token starts where it starts in `text`."""
    scan = text
    if not text.isascii():
        # \d misses digits that are not decimal ("²"); reading them as
        # "0" makes every \d+ match a whole str.isdigit run
        digits = {ord(c): "0" for c in set(text)
                  if c.isdigit() and not c.isdecimal()}
        if digits:
            scan = text.translate(digits)
    if scan is text:
        tokens = _TOKEN.findall(text)
    else:
        tokens = [text[m.start():m.end()] for m in _TOKEN.finditer(scan)]
    for tok in dict.fromkeys(tokens):
        first = tok[0]
        if not (first in _SYMBOLS or is_name_start(first)
                or first.isdigit()):
            raise ParseError(f"unexpected character {first!r}",
                             _offset(scan, tokens.index(tok)))
    return tokens, scan


def _offset(scan: str, k: int) -> int:
    """Character offset of token k of `scan`; only errors need one."""
    return next(itertools.islice(_TOKEN.finditer(scan), k, None)).start()


def _parse(tokens: list[str], scan: str, names: list[str],
           builder: NetworkBuilder) -> int:
    """The root node of the token list; open gates wait on an explicit
    stack of (gate token number, arity, children), so nesting costs no
    frames."""
    index = {name: k for k, name in enumerate(names)}
    # node id of each variable read so far; skips builder.input's range
    # check and key tuple for every repeated leaf
    leaves: dict[str, int] = {}
    n = len(tokens)
    stack: list[tuple[int, int, list[int]]] = []
    i = 0
    while True:
        # one operand: a variable, a constant, or an opening gate
        if i == n:
            raise ParseError("unexpected end of expression", len(scan))
        tok = tokens[i]
        i += 1
        if tok in index and (i == n or tokens[i] != "("):
            node = leaves.get(tok)
            if node is None:
                node = leaves[tok] = builder.input(index[tok])
        elif tok == "0" or tok == "1":
            node = builder.const(int(tok))
        elif i < n and tokens[i] == "(" and tok.upper() in _ARITY:
            stack.append((i - 1, _ARITY[tok.upper()], []))
            i += 1
            continue
        elif tok.isdigit():
            raise ParseError(f"constants are 0 or 1, found {tok!r}",
                             _offset(scan, i - 1))
        elif tok in _SYMBOLS:
            raise ParseError(f"unexpected {tok!r}", _offset(scan, i - 1))
        elif i < n and tokens[i] == "(":
            raise ParseError(f"unknown gate {tok!r}, expected M or M5",
                             _offset(scan, i - 1))
        else:
            raise UnknownVariableError(
                f"unknown variable {tok!r}, "
                f"declared: {','.join(names)}", _offset(scan, i - 1))
        # its complements, then every gate it closes
        while True:
            while i < n and tokens[i] == "'":
                i += 1
                node = builder.invert(node)
            if not stack:
                if i < n:
                    raise ParseError(f"trailing input {tokens[i]!r}",
                                     _offset(scan, i))
                return node
            if i == n:
                raise ParseError("unexpected end of expression", len(scan))
            sep = tokens[i]
            i += 1
            gate, arity, children = stack[-1]
            children.append(node)
            if sep == ",":
                break
            if sep != ")":
                raise ParseError(f"expected ',' or ')', found {sep!r}",
                                 _offset(scan, i - 1))
            stack.pop()
            if len(children) != arity:
                raise ParseError(f"{tokens[gate].upper()} takes {arity} "
                                 f"operands, got {len(children)}",
                                 _offset(scan, gate))
            node = (builder.maj3 if arity == 3 else builder.maj5)(*children)


def parse_into(builder: NetworkBuilder, text: str, variable_names) -> int:
    """Parse expression text into `builder`'s node pool; return its root id.

    Subterms already in the pool, from this text or an earlier one, are
    reused, so networks built from one builder share them.
    """
    names = check_names(variable_names, builder.n_vars)
    tokens, scan = _tokenize(text)
    return _parse(tokens, scan, names, builder)


def parse_expr(text: str, variable_names) -> Network:
    """Parse expression text into a Network over the named variables.

    Identical subexpressions share one node in the result, so the cost
    census of the parsed network never double-counts a repeated subterm.
    """
    names = list(variable_names)
    builder = NetworkBuilder(len(names))
    return builder.build(parse_into(builder, text, names))
