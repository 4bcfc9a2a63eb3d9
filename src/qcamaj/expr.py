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

The parser cuts the text around every "(", "," and ")" at C speed and
reads the pieces between them.  Each distinct piece is read into tokens
once, and an operand piece ("B'") is interned once, however often a
text that spells shared subterms out repeats it (see _parse).
"""

from __future__ import annotations

import itertools
import operator
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
    in which every token starts where it starts in `text`.  _parse runs
    it once on each distinct piece other than a declared name, constant
    or gate name and its "'"s, and on the whole text only to report a
    bad character at its offset there."""
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


def _parse(text: str, names: list[str], builder: NetworkBuilder) -> int:
    """The root node of `text`.

    The text is cut around every "(", "," and ")" by str.replace onto
    "\0" and one split, so its parts alternate: a piece (the text
    between two symbols, maybe empty), a symbol, a piece, and so on,
    ending with a piece.  No token spans a symbol, so the text's tokens
    are its pieces' tokens with the symbols between them.  Each distinct
    piece is read into tokens once, before any node is made: a declared
    name, a constant or a gate name and its "'"s directly, anything else
    (whitespace, non-ASCII, a bad character) by _tokenize, so a bad
    character is reported before any grammar error.  One loop then reads
    each piece with the symbol after it:

    - after ")", the piece holds the closed gate's "'"s;
    - before "(", a piece that is one gate name opens a gate, which
      waits on an explicit stack of (node maker, arity, children), so
      nesting costs no frames;
    - any other piece is an operand, a variable or a constant and its
      "'"s, whose node is kept per distinct piece: a repeated "B'"
      costs one dict lookup.

    Nodes are made in the order a token-by-token read makes them.
    Positions are worked out only for an error.
    """
    try:    # a non-str fails the "in" test or a str method
        if "\0" in text:
            _tokenize(text)     # raises: "\0" is a bad character
        parts = (text.replace("(", "\0(\0").replace(",", "\0,\0")
                 .replace(")", "\0)\0").split("\0"))
    except (TypeError, AttributeError):
        raise ValueError(f"expression text must be a str, got "
                         f"{text!r}") from None
    index = {name: k for k, name in enumerate(names)}
    tokens = {}                 # piece -> its token texts
    gates = {}                  # gate name piece -> (its node maker, arity)
    for piece in set(parts[::2]):
        # a declared name, a constant or a gate name (or nothing) and its
        # "'"s is read without the regex; no other character can be in it
        base = piece.rstrip("'")
        if (base in index or base in ("", "0", "1")
                or base.upper() in _ARITY):
            toks = tokens[piece] = piece.replace("'", " ' ").split()
        else:
            try:
                toks = tokens[piece] = _tokenize(piece)[0]
            except ParseError:
                _tokenize(text)     # the text's first bad character
                raise
        if len(toks) == 1 and toks[0].upper() in _ARITY:
            arity = _ARITY[toks[0].upper()]
            gates[piece] = builder.maj3 if arity == 3 else builder.maj5, arity
    parts.append("")            # the end of the text, after the last piece
    invert = builder.invert
    pairs = iter(parts)
    stack: list[tuple] = []
    children: list[int] = []    # the innermost open gate's operands

    def position(j: int, k: int = 0) -> int:
        """Character offset of token k of part j; only errors need one."""
        return sum(map(len, parts[:j])) + _offset(_tokenize(parts[j])[1], k)

    def here() -> int:
        """The part number of the piece last read."""
        return len(parts) - operator.length_hint(pairs) - 2

    def leftover(tok: str, j: int, k: int = 0):
        """Raise for token k of part j, which follows a whole operand."""
        if not stack:
            raise ParseError(f"trailing input {tok!r}", position(j, k))
        raise ParseError(f"expected ',' or ')', found {tok!r}",
                         position(j, k))

    def complements(node: int, toks: list[str], k: int) -> int:
        """`node` under the "'"s of the piece last read, which are its
        tokens `toks` from k on."""
        for k in range(k, len(toks)):
            if toks[k] != "'":
                leftover(toks[k], here(), k)
            node = invert(node)
        return node

    def operand(piece: str, sep: str) -> int:
        """The node of operand `piece`, the piece last read, which `sep`
        follows."""
        toks = tokens[piece]
        if not toks:
            if not sep:
                raise ParseError("unexpected end of expression", len(text))
            raise ParseError(f"unexpected {sep!r}", position(here() + 1))
        tok = toks[0]
        opens_gate = len(toks) == 1 and sep == "("
        if tok in index and not opens_gate:
            node = builder.input(index[tok])
        elif tok == "0" or tok == "1":
            node = builder.const(int(tok))
        elif tok.isdigit():
            raise ParseError(f"constants are 0 or 1, found {tok!r}",
                             position(here()))
        elif tok in _SYMBOLS:
            raise ParseError(f"unexpected {tok!r}", position(here()))
        elif opens_gate:
            raise ParseError(f"unknown gate {tok!r}, expected M or M5",
                             position(here()))
        else:
            raise UnknownVariableError(
                f"unknown variable {tok!r}, "
                f"declared: {','.join(names)}", position(here()))
        return complements(node, toks, 1) if len(toks) > 1 else node

    leaves: dict[str, int] = {}     # operand piece -> its node
    closed = False                  # whether the piece follows ")"
    for piece, sep in zip(pairs, pairs):
        if closed:
            if piece:
                node = complements(node, tokens[piece], 0)
        elif sep == "(":
            if piece in gates:
                children = []
                stack.append((*gates[piece], children))
                continue
            node = operand(piece, sep)
        else:
            node = leaves.get(piece)
            if node is None:
                node = leaves[piece] = operand(piece, sep)
        if sep == ",":
            if not stack:
                leftover(sep, here() + 1)
            children.append(node)
            closed = False
        elif sep == ")":
            if not stack:
                leftover(sep, here() + 1)
            children.append(node)
            make, arity, _ = stack.pop()
            if len(children) != arity:
                gate = _opener(parts, here() + 1)
                raise ParseError(f"{tokens[parts[gate]][0].upper()} takes "
                                 f"{arity} operands, got {len(children)}",
                                 position(gate))
            node = make(*children)
            if stack:
                children = stack[-1][2]
            closed = True
        elif sep:
            leftover(sep, here() + 1)
        elif stack:
            raise ParseError("unexpected end of expression", len(text))
        else:
            return node


def _opener(parts: list[str], j: int) -> int:
    """The part number of the gate name whose "(" the ")" at part j
    closes."""
    depth = 1
    while depth:
        j -= 2
        depth += (parts[j] == ")") - (parts[j] == "(")
    return j - 1


def parse_into(builder: NetworkBuilder, text: str, variable_names) -> int:
    """Parse expression text into `builder`'s node pool; return its root id.

    Subterms already in the pool, from this text or an earlier one, are
    reused, so networks built from one builder share them.
    """
    names = check_names(variable_names, builder.n_vars)
    return _parse(text, names, builder)


def parse_expr(text: str, variable_names) -> Network:
    """Parse expression text into a Network over the named variables.

    Identical subexpressions share one node in the result, so the cost
    census of the parsed network never double-counts a repeated subterm.
    """
    try:
        names = list(variable_names)
    except TypeError:
        raise ValueError(f"variable names must be an iterable, got "
                         f"{variable_names!r}") from None
    builder = NetworkBuilder(len(names))
    return builder.build(parse_into(builder, text, names))
