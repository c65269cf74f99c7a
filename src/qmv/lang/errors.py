"""Errors raised by the language front end, with source positions."""
from __future__ import annotations


class ModelError(Exception):
    """Base class for everything that can go wrong with a model."""


class ModelSyntaxError(ModelError):
    """Lexical, syntactic or semantic error with a source location."""

    def __init__(self, message: str, line: int = 0, column: int = 0,
                 source: str | None = None):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(format_source_error(message, line, column, source))


class EvalError(ModelError):
    """Expression evaluation failed (type error, division by zero)."""


class ExprTypeError(EvalError):
    """An expression is ill-typed; ``node`` is the offending subexpression."""

    def __init__(self, message: str, node):
        self.node = node
        super().__init__(message)


class ExplorationError(ModelError):
    """State-space construction failed (bounds, weights, write conflicts)."""


class ExplorationLimit(ExplorationError):
    """The state cap was exceeded during exploration."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(
            f"exploration exceeded the state cap of {cap} states; "
            "raise the cap if the model is really this large"
        )


def format_source_error(message: str, line: int, column: int,
                        source: str | None) -> str:
    """Render an error with the offending source line and a caret."""
    if line <= 0:
        return message
    out = f"{message} (line {line}, column {column})"
    if source is not None:
        lines = source.splitlines()
        if 0 < line <= len(lines):
            text = lines[line - 1]
            caret = " " * (column - 1) + "^"
            out += f"\n  {text}\n  {caret}"
    return out
