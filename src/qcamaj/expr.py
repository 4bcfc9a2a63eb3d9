"""Expression text for majority networks.

Grammar, with postfix apostrophe binding tightest:

    expr     := term quote*
    term     := "0" | "1" | variable | "M" "(" expr "," expr "," expr ")"
              | "M5" "(" expr "," expr "," expr "," expr "," expr ")"
    variable := (letter | "_") (letter | digit | "_")*

Letters and digits are what str.isalpha and str.isalnum accept, so "é"
is a letter.  Gate names are recognized case-insensitively when followed
by an opening parenthesis; any other identifier must be one of the
declared variable names, which network.check_names holds to the
variable rule.  Whitespace may appear between tokens.  Parse failures
raise ParseError carrying the character offset.
"""

from __future__ import annotations

from .errors import ParseError, UnknownVariableError
from .network import Network, NetworkBuilder, check_names, name_end

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


def parse_into(builder: NetworkBuilder, text: str, variable_names) -> int:
    """Parse expression text into `builder`'s node pool; return its root id.

    Subterms already in the pool, from this text or an earlier one, are
    reused, so networks built from one builder share them.
    """
    names = check_names(variable_names, builder.n_vars)
    return _parse(_tokenize(text), names, builder, len(text))


def parse_expr(text: str, variable_names) -> Network:
    """Parse expression text into a Network over the named variables.

    Identical subexpressions share one node in the result, so the cost
    census of the parsed network never double-counts a repeated subterm.
    """
    names = list(variable_names)
    builder = NetworkBuilder(len(names))
    return builder.build(parse_into(builder, text, names))
