"""Abstract syntax for the guarded-command language.

Expression values are int, bool or Fraction (reals are exact rationals; they
become floats only where probabilities and rates are stored).  Source
positions are carried for error messages but excluded from equality so that
parse(pretty(parse(text))) is structurally equal to parse(text).
:data:`PRECEDENCE` is the one operator table: the parser and the
pretty-printer both read it, so the two cannot disagree.

Expression semantics live here and nowhere else: :meth:`Expr.type` holds the
static typing rules, :meth:`Expr.compile` turns an expression into a Python
function of a valuation row (constants inlined) and :meth:`Expr.constant`
evaluates constant expressions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from qmv.core import ModelClass
from qmv.lang.errors import EvalError, ExprTypeError

Value = Union[int, bool, Fraction]
Pos = tuple[int, int]

_NOPOS: Pos = (0, 0)


@dataclass(frozen=True)
class Expr:
    pos: Pos = field(default=_NOPOS, compare=False, repr=False, kw_only=True)

    def type(self, types: Mapping[str, str]) -> str:
        """Static type ("int", "real" or "bool") given the types of names.

        Raises :class:`ExprTypeError` carrying the first ill-typed node.
        """
        raise NotImplementedError

    def compile(self, cols: Mapping[str, int], consts: Mapping[str, Value]):
        """Python function of a valuation sequence ``v``.

        Names in ``cols`` read ``v[cols[name]]``; every other name is
        inlined from ``consts``.  The expression must type-check.
        """
        source = "lambda v: " + self._py(cols, consts)
        return eval(source, dict(_EVAL_GLOBALS))

    def constant(self, consts: Mapping[str, Value]) -> Value:
        """Value of an expression that reads constants only."""
        return eval(self._py({}, consts), dict(_EVAL_GLOBALS))

    def _py(self, cols: Mapping[str, int],
            consts: Mapping[str, Value]) -> str:
        """Python source of the expression, for :meth:`compile`."""
        raise NotImplementedError

    def children(self) -> tuple[Expr, ...]:
        """Direct subexpressions, in source order."""
        return ()

    def names(self) -> Iterator[str]:
        """Names read by the expression, in source order."""
        for child in self.children():
            yield from child.names()

    def pretty(self) -> str:
        return _pp(self, 0)


@dataclass(frozen=True)
class IntLit(Expr):
    value: int

    def type(self, types):
        return "int"

    def _py(self, cols, consts):
        return repr(self.value)


@dataclass(frozen=True)
class RealLit(Expr):
    """Non-integral rational literal (integral rationals fold to IntLit)."""

    value: Fraction

    def __post_init__(self):
        if self.value.denominator == 1:
            raise ValueError("integral RealLit; use IntLit")

    def type(self, types):
        return "real"

    def _py(self, cols, consts):
        return _value_py(self.value)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool

    def type(self, types):
        return "bool"

    def _py(self, cols, consts):
        return repr(self.value)


@dataclass(frozen=True)
class Name(Expr):
    name: str

    def type(self, types):
        t = types.get(self.name)
        if t is None:
            raise ExprTypeError(f"undeclared name {self.name!r}", self)
        return t

    def _py(self, cols, consts):
        if self.name in cols:
            return f"v[{cols[self.name]}]"
        try:
            return _value_py(consts[self.name])
        except KeyError:
            raise EvalError(f"undefined name {self.name!r}") from None

    def names(self):
        yield self.name


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-" or "!"
    operand: Expr

    def type(self, types):
        t = self.operand.type(types)
        if self.op == "-":
            if t == "bool":
                raise ExprTypeError("'-' needs a number", self)
            return t
        if t != "bool":
            raise ExprTypeError("'!' needs a boolean", self)
        return "bool"

    def _py(self, cols, consts):
        inner = self.operand._py(cols, consts)
        return f"(not {inner})" if self.op == "!" else f"(-{inner})"

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def type(self, types):
        lt = self.left.type(types)
        rt = self.right.type(types)
        op = self.op
        if op in ("&", "|"):
            if lt != "bool" or rt != "bool":
                raise ExprTypeError(f"{op!r} needs boolean operands", self)
            return "bool"
        if op in ("=", "!="):
            if (lt == "bool") != (rt == "bool"):
                raise ExprTypeError(
                    "cannot compare a boolean with a number", self)
            return "bool"
        if lt == "bool" or rt == "bool":
            raise ExprTypeError(f"{op!r} needs numeric operands", self)
        if op == "/":
            return "real"
        if op in ("+", "-", "*"):
            return _numeric((lt, rt))
        return "bool"  # comparisons

    def _py(self, cols, consts):
        left = self.left._py(cols, consts)
        right = self.right._py(cols, consts)
        if self.op == "/":
            return f"_div({left}, {right})"
        return f"({left} {_PY_OPS.get(self.op, self.op)} {right})"

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Cond(Expr):
    """Ternary conditional ``c ? a : b``."""

    cond: Expr
    then: Expr
    other: Expr

    def type(self, types):
        if self.cond.type(types) != "bool":
            raise ExprTypeError("condition of '?:' must be boolean", self)
        lt = self.then.type(types)
        rt = self.other.type(types)
        if (lt == "bool") != (rt == "bool"):
            raise ExprTypeError(
                "branches of '?:' mix boolean and number", self)
        return "bool" if lt == "bool" else _numeric((lt, rt))

    def _py(self, cols, consts):
        return (f"({self.then._py(cols, consts)} if "
                f"{self.cond._py(cols, consts)} else "
                f"{self.other._py(cols, consts)})")

    def children(self):
        return (self.cond, self.then, self.other)


@dataclass(frozen=True)
class Call(Expr):
    """Built-in function application; only min and max exist."""

    fn: str
    args: tuple[Expr, ...]

    def type(self, types):
        arg_types = [a.type(types) for a in self.args]
        if "bool" in arg_types:
            raise ExprTypeError(f"{self.fn} needs numeric arguments", self)
        return _numeric(arg_types)

    def _py(self, cols, consts):
        args = ", ".join(a._py(cols, consts) for a in self.args)
        return f"{self.fn}({args})"

    def children(self):
        return self.args


def _numeric(types: Iterable[str]) -> str:
    return "int" if all(t == "int" for t in types) else "real"


def _value_py(value: Value) -> str:
    if isinstance(value, Fraction):
        return f"Fraction({value.numerator}, {value.denominator})"
    return repr(value)


def _div(a, b):
    if b == 0:
        raise EvalError("division by zero")
    return Fraction(a) / Fraction(b)


_PY_OPS = {"&": "and", "|": "or", "=": "=="}

_EVAL_GLOBALS = {
    "__builtins__": {},
    "Fraction": Fraction,
    "_div": _div,
    "min": min,
    "max": max,
}


#: Operator precedence, tighter binds higher; every binary operator is
#: left-associative.  The parser and the pretty-printer both read this table.
PRECEDENCE = {
    "?:": 1,
    "|": 2,
    "&": 3,
    "=": 4, "!=": 4,
    "<": 5, "<=": 5, ">": 5, ">=": 5,
    "+": 6, "-": 6,
    "*": 7, "/": 7,
    "unary": 8,
}


def _pp(e: Expr, parent_prec: int) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, RealLit):
        # prints as a division; the parser folds it back into a literal
        text = f"{e.value.numerator}/{e.value.denominator}"
        return f"({text})" if parent_prec > PRECEDENCE["/"] else text
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_pp(a, 0) for a in e.args)})"
    if isinstance(e, Unary):
        p = PRECEDENCE["unary"]
        inner = _pp(e.operand, p)
        text = f"{e.op}{inner}"
        return f"({text})" if parent_prec > p else text
    if isinstance(e, Binary):
        p = PRECEDENCE[e.op]
        # left-associative: right child needs strictly higher precedence
        text = f"{_pp(e.left, p)} {e.op} {_pp(e.right, p + 1)}"
        return f"({text})" if parent_prec > p else text
    if isinstance(e, Cond):
        p = PRECEDENCE["?:"]
        text = f"{_pp(e.cond, p + 1)} ? {_pp(e.then, p + 1)} : {_pp(e.other, p)}"
        return f"({text})" if parent_prec > p else text
    raise TypeError(f"not an expression: {e!r}")


@dataclass(frozen=True)
class ConstDecl:
    name: str
    type: str  # "int" | "real" | "bool"
    expr: Expr
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class VarDecl:
    """Bounded integer (``x : [lo..hi] init e``) or boolean variable."""

    name: str
    is_bool: bool
    lo: Expr | None
    hi: Expr | None
    init: Expr
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class Assignment:
    var: str
    expr: Expr
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class Branch:
    weight: Expr
    assignments: tuple[Assignment, ...]


@dataclass(frozen=True)
class Command:
    """``[action] guard -> w:(upd) + ...;`` or ``rate(e) guard -> ...;``

    ``action`` is None for unlabeled immediate commands and always None for
    Markovian (rate) commands, which never synchronise.
    """

    action: str | None
    rate: Expr | None
    guard: Expr
    branches: tuple[Branch, ...]
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)

    @property
    def is_markovian(self) -> bool:
        return self.rate is not None


@dataclass(frozen=True)
class ProcessDef:
    name: str
    variables: tuple[VarDecl, ...]
    observes: tuple[str, ...] | None
    commands: tuple[Command, ...]
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class LabelDecl:
    name: str
    expr: Expr
    pos: Pos = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class SymbolicModel:
    model_class: ModelClass
    constants: tuple[ConstDecl, ...]
    globals_: tuple[VarDecl, ...]
    actions: tuple[str, ...]
    processes: tuple[ProcessDef, ...]
    labels: tuple[LabelDecl, ...]

    def constant_values(self) -> dict[str, Value]:
        """Evaluate constants in declaration order; reals become Fractions."""
        env: dict[str, Value] = {}
        for c in self.constants:
            value = c.expr.constant(env)
            env[c.name] = Fraction(value) if c.type == "real" else value
        return env

    def label_map(self) -> dict[str, Expr]:
        return {l.name: l.expr for l in self.labels}

    def pretty(self) -> str:
        """Canonical source text; reparsing yields an equal model."""
        out: list[str] = [self.model_class.value, ""]
        for c in self.constants:
            out.append(f"const {c.type} {c.name} = {c.expr.pretty()};")
        if self.constants:
            out.append("")
        if self.actions:
            out.append("action " + ", ".join(self.actions) + ";")
            out.append("")
        for v in self.globals_:
            out.append("global " + _pp_vardecl(v))
        if self.globals_:
            out.append("")
        for p in self.processes:
            out.append(f"module {p.name}")
            for v in p.variables:
                out.append("  " + _pp_vardecl(v))
            if p.observes is not None:
                out.append("  observes " + ", ".join(p.observes) + ";")
            for cmd in p.commands:
                out.append("  " + _pp_command(cmd))
            out.append("endmodule")
            out.append("")
        for l in self.labels:
            out.append(f'label "{l.name}" = {l.expr.pretty()};')
        return "\n".join(out).rstrip() + "\n"


def _pp_vardecl(v: VarDecl) -> str:
    dom = "bool" if v.is_bool else f"[{v.lo.pretty()}..{v.hi.pretty()}]"
    return f"{v.name} : {dom} init {v.init.pretty()};"


def _pp_command(cmd: Command) -> str:
    head = f"rate({cmd.rate.pretty()})" if cmd.is_markovian else (
        f"[{cmd.action}]" if cmd.action else "[]")
    branches = " + ".join(
        f"{b.weight.pretty()}:("
        + ", ".join(f"{a.var}' = {a.expr.pretty()}" for a in b.assignments)
        + ")"
        for b in cmd.branches
    )
    return f"{head} {cmd.guard.pretty()} -> {branches};"
