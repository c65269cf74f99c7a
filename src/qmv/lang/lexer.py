"""Tokenizer for the guarded-command language and property strings."""
from __future__ import annotations

import re
from typing import NamedTuple

from qmv.lang.errors import ModelSyntaxError

#: The one identifier rule: NAME tokens match it, and so must label names
#: and contact-plan node names.
IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

TOKEN_RE = re.compile(
    rf"""
      (?P<skip>[ \t\r]+|//[^\n]*)
    | (?P<nl>\n)
    | (?P<DECIMAL>\d+\.\d+)
    | (?P<INT>\d+)
    | (?P<NAME>{IDENTIFIER_RE.pattern})
    | (?P<STRING>"[^"\n]*")
    | (?P<OP>->|<=|>=|!=|\.\.|[-+*/()\[\]:;,?'=<>&|!])
    """,
    re.VERBOSE,
)

#: words with grammatical meaning; still lexed as NAME, the parser decides
KEYWORDS = frozenset({
    "dtmc", "mdp", "ma", "const", "int", "real", "bool", "global", "module",
    "endmodule", "observes", "action", "label", "init", "rate", "true",
    "false", "min", "max",
})


class Token(NamedTuple):
    #: NAME, INT, DECIMAL, STRING, OP (the name of the group of TOKEN_RE
    #: that matched it) or EOF
    type: str
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    pos = 0
    n = len(source)
    while pos < n:
        m = TOKEN_RE.match(source, pos)
        if m is None:
            raise ModelSyntaxError(
                f"unexpected character {source[pos]!r}",
                line, pos - line_start + 1, source,
            )
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind != "skip":
            tokens.append(Token(kind, m.group(), line, pos - line_start + 1))
        pos = m.end()
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens
