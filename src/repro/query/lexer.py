"""Tokenizer for the Select query language.

Token kinds:

* ``KEYWORD`` — ``select``, ``from``, ``in``, ``where``, ``and``, ``or``
  (case-insensitive, as the paper capitalizes ``Select``),
* ``PATH`` — a path-shaped word (may contain ``/``, ``.``, ``*``, ``()``),
* ``OP`` — ``=``, ``!=``, ``<>``, ``<=``, ``>=``, ``<``, ``>``,
* ``STRING`` — a single- or double-quoted literal,
* ``COMMA`` and ``SEMI`` punctuation.

The paper writes comparison literals unquoted (``… = Federer``); such
barewords come out as ``PATH`` tokens and the parser re-interprets them
as literals on the right-hand side of an operator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import QuerySyntaxError

KEYWORDS = {"select", "from", "in", "where", "and", "or"}

#: One token (or an unterminated quote) after optional whitespace.  A
#: word runs up to whitespace, punctuation, a quote or an operator; a
#: ``!`` that no ``=`` follows is an ordinary word character.
_TOKEN = re.compile(
    r"""[ \t\r\n]*(?:
        (?P<COMMA>,)
      | (?P<SEMI>;)
      | '(?P<single>[^']*)' | "(?P<double>[^"]*)"
      | (?P<unterminated>['"])
      | (?P<OP>!=|<>|<=|>=|=|<|>)
      | (?P<word>(?:[^ \t\r\n,;'"!<>=]|!(?!=))+)
    )""",
    re.VERBOSE,
).match


@dataclass(frozen=True)
class Token:
    """A lexical token with its source position (for error messages)."""

    kind: str
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.value == word


def tokenize(text: str) -> List[Token]:
    """Split *text* into tokens; raises :class:`QuerySyntaxError` on junk."""
    tokens: List[Token] = []
    match = _TOKEN(text)
    while match is not None:
        kind = match.lastgroup
        value, pos = match.group(kind), match.start(kind)
        if kind == "word":
            lowered = value.lower()
            if lowered in KEYWORDS:
                kind, value = "KEYWORD", lowered
            else:
                kind = "PATH"
        elif kind == "OP" and value == "<>":
            value = "!="
        elif kind in ("single", "double"):
            kind, pos = "STRING", pos - 1
        elif kind == "unterminated":
            raise QuerySyntaxError("unterminated string literal", pos)
        tokens.append(Token(kind, value, pos))
        match = _TOKEN(text, match.end())
    return tokens
