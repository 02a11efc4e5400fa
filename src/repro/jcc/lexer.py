"""Tokeniser for the JC language."""

from __future__ import annotations

import re
from dataclasses import dataclass

KEYWORDS = frozenset((
    "int", "double", "void", "if", "else", "while", "for", "return",
    "break", "continue", "extern",
))

# Multi-character operators first so maximal munch works.
_OPERATORS = (
    "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=",
    "/=", "%=", "++", "--", "<<", ">>", "+", "-", "*", "/", "%", "<", ">",
    "=", "!", "&", "|", "^", "(", ")", "{", "}", "[", "]", ";", ",",
)
_OPERATOR = re.compile("|".join(map(re.escape, _OPERATORS)))
_IDENT = re.compile(r"[^\W\d]\w*")

# Numeric literals (docs/LANGUAGE.md): hex and decimal ints, and doubles
# with a point and/or an exponent.  A decimal int has no leading zero.
_NUMBER = re.compile(r"""
    (?P<hex>0[xX][0-9a-fA-F]+)
  | (?P<float>(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?
             |[0-9]+[eE][+-]?[0-9]+)
  | (?P<dec>0|[1-9][0-9]*)
""", re.VERBOSE)
# What may not directly follow a literal: it would make a malformed one.
_NUMBER_TAIL = re.compile(r"[A-Za-z0-9_.]+")


@dataclass(frozen=True)
class Token:
    kind: str  # "int_lit", "float_lit", "ident", "keyword", "op", "eof"
    text: str
    line: int

    def __repr__(self) -> str:
        return f"{self.kind}:{self.text!r}@{self.line}"


class LexError(Exception):
    """Raised on unrecognised input."""


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    pos = 0
    length = len(source)
    while pos < length:
        ch = source[pos]
        if ch == "\n":
            line += 1
            pos += 1
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if source.startswith("//", pos):
            end = source.find("\n", pos)
            pos = length if end < 0 else end
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end < 0:
                raise LexError(f"unterminated comment at line {line}")
            line += source.count("\n", pos, end)
            pos = end + 2
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < length
                            and source[pos + 1].isdigit()):
            match = _NUMBER.match(source, pos)
            tail = _NUMBER_TAIL.match(source, match.end() if match else pos)
            if match is None or tail is not None:
                bad = source[pos:tail.end() if tail else pos + 1]
                raise LexError(f"malformed number {bad!r} at line {line}")
            kind = "float_lit" if match.lastgroup == "float" else "int_lit"
            tokens.append(Token(kind, match.group(), line))
            pos = match.end()
            continue
        match = _IDENT.match(source, pos) or _OPERATOR.match(source, pos)
        if match is None:
            raise LexError(f"unexpected character {ch!r} at line {line}")
        text = match.group()
        if match.re is _OPERATOR:
            kind = "op"
        else:
            kind = "keyword" if text in KEYWORDS else "ident"
        tokens.append(Token(kind, text, line))
        pos = match.end()
    tokens.append(Token("eof", "", line))
    return tokens
