"""Guarded-command modeling language: parsing, exploration, properties."""

from qmv.lang.ast import (
    Assignment,
    Binary,
    BoolLit,
    Branch,
    Call,
    Command,
    Cond,
    ConstDecl,
    Expr,
    IntLit,
    LabelDecl,
    Name,
    ProcessDef,
    RealLit,
    SymbolicModel,
    Unary,
    VarDecl,
)
from qmv.lang.errors import (
    EvalError,
    ExplorationError,
    ExplorationLimit,
    ModelError,
    ModelSyntaxError,
)
from qmv.lang.parser import parse_model, parse_properties, parse_property
from qmv.lang.explore import explore

__all__ = [
    "Assignment", "Binary", "BoolLit", "Branch", "Call", "Command", "Cond",
    "ConstDecl", "Expr", "IntLit", "LabelDecl", "Name", "ProcessDef",
    "RealLit", "SymbolicModel", "Unary", "VarDecl",
    "EvalError", "ExplorationError", "ExplorationLimit", "ModelError",
    "ModelSyntaxError",
    "parse_model", "parse_properties", "parse_property",
    "explore",
]
