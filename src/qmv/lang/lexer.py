"""Tokenizer for the guarded-command language and property strings.

:func:`tokenize` scans one source line at a time.  Each match of
:data:`TOKEN_RE` skips the blanks and the comment in front of a token, so
only tokens reach Python, and they come out as four parallel lists.
"""
from __future__ import annotations

import re

from qmv.lang.errors import ModelSyntaxError

#: The one identifier rule: NAME tokens match it, and so must label names
#: and contact-plan node names.
IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: One token and the blanks and comment before it (at the end of a line,
#: only those); the frequent kinds first, DECIMAL before INT, bad last
TOKEN_RE = re.compile(
    rf"""
    [ \t\r]*(?://.*)?
    (?:
      (?P<OP>->|<=|>=|!=|\.\.|[-+*/()\[\]:;,?'=<>&|!])
    | (?P<NAME>{IDENTIFIER_RE.pattern})
    | (?P<DECIMAL>\d+\.\d+)
    | (?P<INT>\d+)
    | (?P<STRING>"[^"]*")
    | (?P<bad>.)
    | $
    )
    """,
    re.VERBOSE,
)

#: words with grammatical meaning; still lexed as NAME, the parser decides
KEYWORDS = frozenset({
    "dtmc", "mdp", "ma", "const", "int", "real", "bool", "global", "module",
    "endmodule", "observes", "action", "label", "init", "rate", "true",
    "false", "min", "max",
})


def tokenize(source: str) -> tuple[list[str], list[str], list[int],
                                   list[int]]:
    """Each token's kind (NAME, INT, DECIMAL, STRING or OP, the name of the
    group of :data:`TOKEN_RE` that matched it, and a final EOF), text, line
    and column, as four parallel lists."""
    kinds, texts, lines, columns = [], [], [], []
    for line, text in enumerate(source.split("\n"), 1):
        for m in TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind is None:
                continue
            if kind == "bad":
                raise ModelSyntaxError(f"unexpected character {m[kind]!r}",
                                       line, m.start(kind) + 1, source)
            kinds.append(kind)
            texts.append(m[kind])
            lines.append(line)
            columns.append(m.start(kind) + 1)
    for out, eof in zip((kinds, texts, lines, columns),
                        ("EOF", "", line, len(text) + 1)):
        out.append(eof)
    return kinds, texts, lines, columns
