"""Tokenizer for the SIGNAL surface syntax.

The token stream is deliberately simple: keywords, identifiers, numeric and
boolean literals, operators and punctuation.  Comments follow the SIGNAL
convention of ``%`` to end of line and may hold any text; elsewhere,
identifiers and numbers are ASCII, and any other character (a non-ASCII
letter or digit included) is a :class:`~repro.errors.LexerError`.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Union

from ..errors import LexerError, SourceLocation

__all__ = ["Token", "tokenize", "KEYWORDS"]


KEYWORDS = frozenset(
    {
        "process",
        "end",
        "where",
        "when",
        "default",
        "init",
        "event",
        "cell",
        "synchro",
        "not",
        "and",
        "or",
        "xor",
        "modulo",
        "true",
        "false",
        "boolean",
        "integer",
        "real",
        "at",
    }
)

# Multi-character operators must be listed before their prefixes.
_OPERATORS = [
    ":=",
    "/=",
    "<=",
    ">=",
    "(|",
    "|)",
    "(",
    ")",
    "{",
    "}",
    "|",
    ";",
    ",",
    "?",
    "!",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "$",
]

#: One alternative per token class, tried in order at each position; the
#: last one matches any other single character, so ``finditer`` tiles the
#: whole source.  Identifiers and numbers are ASCII only.
_MASTER = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<comment>%[^\n]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<real>[0-9]+\.[0-9]+)"
    r"|(?P<integer>[0-9]+)"
    r"|(?P<operator>" + "|".join(re.escape(operator) for operator in _OPERATORS) + ")"
    r"|(?P<other>.)",
    re.DOTALL,
)


class Token(NamedTuple):
    """A lexical token with its kind, text, literal value and position.

    An immutable named tuple, so building one per token is cheap.
    """

    kind: str  # "keyword" | "identifier" | "integer" | "real" | "operator" | "eof"
    text: str
    location: SourceLocation
    value: Optional[Union[int, float, bool]] = None

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word

    def is_operator(self, symbol: str) -> bool:
        return self.kind == "operator" and self.text == symbol

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


def tokenize(source: str, filename: str = "<signal>") -> List[Token]:
    """Tokenize ``source`` into a list of tokens terminated by an EOF token.

    One pass of the master pattern; a token's column is its offset from
    the start of its line, which only whitespace can advance.
    """
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    for match in _MASTER.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "space":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
            continue
        if kind == "comment":
            continue
        location = SourceLocation(line, match.start() - line_start + 1, filename)
        if kind == "name":
            lowered = text.lower()
            if lowered in KEYWORDS:
                value = lowered == "true" if lowered in ("true", "false") else None
                append(Token("keyword", lowered, location, value))
            else:
                append(Token("identifier", text, location))
        elif kind == "integer":
            append(Token("integer", text, location, int(text)))
        elif kind == "real":
            append(Token("real", text, location, float(text)))
        elif kind == "operator":
            append(Token("operator", text, location))
        elif text.isalnum():
            raise LexerError(
                f"unexpected character {text!r}: identifiers and numbers are ASCII",
                location,
            )
        else:
            raise LexerError(f"unexpected character {text!r}", location)
    append(Token("eof", "", SourceLocation(line, len(source) - line_start + 1, filename)))
    return tokens
