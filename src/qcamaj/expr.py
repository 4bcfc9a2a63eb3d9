"""Expression text for majority networks.

Grammar, with postfix apostrophe binding tightest:

    expr  := term quote*
    term  := "0" | "1" | variable | "M" "(" expr "," expr "," expr ")"
           | "M5" "(" expr "," expr "," expr "," expr "," expr ")"

Gate names are recognized case-insensitively when followed by an opening
parenthesis; any other identifier must be one of the declared variable
names.  Whitespace may appear between tokens.  Parse failures raise
ParseError carrying the character offset.
"""

from __future__ import annotations

from .errors import ParseError, UnknownVariableError
from .network import Network, NetworkBuilder

_SYMBOLS = "(),'"


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
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token(text[i:j], i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token(text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], names: list[str],
                 builder: NetworkBuilder, length: int):
        self.tokens = tokens
        self.names = names
        self.builder = builder
        self.end = length
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next_pos(self) -> int:
        tok = self.peek()
        return tok.pos if tok else self.end

    def consume(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.end)
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.consume()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

    def expr(self) -> int:
        node = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok.text != "'":
                return node
            self.consume()
            node = self.builder.invert(node)

    def term(self) -> int:
        tok = self.consume()
        if tok.text in ("0", "1"):
            return self.builder.const(int(tok.text))
        if tok.text.isdigit():
            raise ParseError(f"constants are 0 or 1, found {tok.text!r}",
                             tok.pos)
        if tok.text in _SYMBOLS:
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        nxt = self.peek()
        if nxt is not None and nxt.text == "(":
            return self.gate(tok)
        if tok.text in self.names:
            return self.builder.input(self.names.index(tok.text))
        raise UnknownVariableError(
            f"unknown variable {tok.text!r}, declared: {','.join(self.names)}",
            tok.pos,
        )

    def gate(self, tok: _Token) -> int:
        name = tok.text.upper()
        if name == "M":
            arity = 3
        elif name == "M5":
            arity = 5
        else:
            raise ParseError(f"unknown gate {tok.text!r}, expected M or M5",
                             tok.pos)
        self.expect("(")
        children = [self.expr()]
        while True:
            sep = self.consume()
            if sep.text == ")":
                break
            if sep.text != ",":
                raise ParseError(f"expected ',' or ')', found {sep.text!r}",
                                 sep.pos)
            children.append(self.expr())
        if len(children) != arity:
            raise ParseError(
                f"{name} takes {arity} operands, got {len(children)}", tok.pos
            )
        if arity == 3:
            return self.builder.maj3(*children)
        return self.builder.maj5(*children)


def parse_expr(text: str, variable_names) -> Network:
    """Parse expression text into a Network over the named variables.

    Identical subexpressions share one node in the result, so the cost
    census of the parsed network never double-counts a repeated subterm.
    """
    names = list(variable_names)
    if not names:
        raise ValueError("need at least one variable name")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    builder = NetworkBuilder(len(names))
    parser = _Parser(_tokenize(text), names, builder, len(text))
    try:
        root = parser.expr()
    except RecursionError:
        raise ParseError("expression nests too deeply",
                         parser.next_pos()) from None
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing.text!r}", trailing.pos)
    return builder.build(root)
