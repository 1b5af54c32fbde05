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

A text is scanned in one ``finditer`` pass of one pattern
(:func:`scan_select`), a word as runs of word characters rather than
one character per alternation, and each token is a plain
``(kind, value, position)`` tuple: the parser walks that list by index.
:func:`tokenize` gives the same rows as :class:`Token` named tuples.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from repro.errors import QuerySyntaxError

KEYWORDS = {"select", "from", "in", "where", "and", "or"}

#: One token (or an unterminated quote) after optional whitespace.  A
#: word runs up to whitespace, punctuation, a quote or an operator; a
#: ``!`` that no ``=`` follows is an ordinary word character.
_TOKENS = re.compile(
    r"""[ \t\r\n]*(?:
        (?P<COMMA>,)
      | (?P<SEMI>;)
      | '(?P<single>[^']*)' | "(?P<double>[^"]*)"
      | (?P<unterminated>['"])
      | (?P<OP>!=|<>|<=|>=|=|<|>)
      | (?P<word>(?:[^ \t\r\n,;'"!<>=]+|!(?!=))+)
    )""",
    re.VERBOSE,
).finditer


class Token(NamedTuple):
    """A lexical token with its source position (for error messages)."""

    kind: str
    value: str
    position: int


def scan_select(text: str) -> List[Tuple[str, str, int]]:
    """Scan *text* in one pass into ``(kind, value, position)`` tuples.

    Raises :class:`QuerySyntaxError` on an unterminated quote."""
    tokens = []
    for match in _TOKENS(text):
        kind = match.lastgroup
        value = match[kind]
        position = match.start(kind)
        if kind == "word":
            lowered = value.lower()
            if lowered in KEYWORDS:
                kind, value = "KEYWORD", lowered
            else:
                kind = "PATH"
        elif kind == "OP":
            if value == "<>":
                value = "!="
        elif kind == "single" or kind == "double":
            kind, position = "STRING", position - 1
        elif kind == "unterminated":
            raise QuerySyntaxError("unterminated string literal", position)
        tokens.append((kind, value, position))
    return tokens


def tokenize(text: str) -> List[Token]:
    """Split *text* into tokens; raises :class:`QuerySyntaxError` on junk."""
    return list(map(Token._make, scan_select(text)))
