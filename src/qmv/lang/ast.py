"""Abstract syntax for the guarded-command language.

Expression values are int, bool or Fraction (reals are exact rationals; they
become floats only where probabilities and rates are stored).  Source
positions are carried for error messages but excluded from equality so that
parse(pretty(parse(text))) is structurally equal to parse(text).
:data:`PRECEDENCE` is the one operator table: the parser and the
pretty-printer both read it, so the two cannot disagree.

Expression semantics live here and nowhere else: :meth:`Expr.type` holds the
static typing rules and :meth:`Expr.compile` turns an expression into one
code object: a function of a valuation matrix, one row per state, that
evaluates it on all rows at once (constants inlined and folded), and that
tells whether the expression folds to a constant, its value if so, and the
range of an int's values.  Ints and bools are int64 and bool arrays,
except that an int whose declared bounds could leave int64 is computed on
exact Python ints; reals are exact Fractions in object arrays.  ``&``,
``|`` and ``?:`` run their right side or branches only on the rows that
select them, so a division by zero raises exactly where it would one state
at a time.  A node whose arguments are all constant folds by applying the
same operator function to their Python values (int, bool or Fraction,
exact beyond int64), not to arrays; a fold that raises leaves code that
raises wherever it runs.  :meth:`Expr.constant` is that folded value, or
the code run on one row.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence, Union)

import numpy as np

from qmv.core import ModelClass, VariableInfo
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

    def compile(self, layout: Sequence[VariableInfo],
                consts: Mapping[str, Value]) -> _Code:
        """The compiled code: a function of a valuation matrix ``V``,
        returning one value per row, that also tells whether the expression
        folds to a constant and the range of an int.

        Row ``i`` of the int64 matrix ``V`` is one valuation: column ``j``
        holds ``layout[j]`` (booleans as 0/1), whose declared bounds the
        values keep.  Every other name is inlined from ``consts``.  The
        result is a bool array, an int64 array, or an object array of
        Python ints (an int that int64 might not hold) or of Fractions (a
        real).  The expression must type-check.
        """
        return self._vec(_Scope.of(layout, consts))

    def constant(self, consts: Mapping[str, Value]) -> Value:
        """Value of an expression that folds to a constant."""
        code = self._vec(_Scope({}, consts))
        # a constant that does not fold raises where it runs
        return code.value if code.run is None \
            else code.run(_ONE_ROW).tolist()[0]

    def _vec(self, scope: _Scope) -> _Code:
        """The compiled code of the expression, for :meth:`compile`."""
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

    def _vec(self, scope):
        return _constant(self.value)


@dataclass(frozen=True)
class RealLit(Expr):
    """Non-integral rational literal (integral rationals fold to IntLit)."""

    value: Fraction

    def __post_init__(self):
        if self.value.denominator == 1:
            raise ValueError("integral RealLit; use IntLit")

    def type(self, types):
        return "real"

    def _vec(self, scope):
        return _constant(self.value)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool

    def type(self, types):
        return "bool"

    def _vec(self, scope):
        return _constant(self.value)


@dataclass(frozen=True)
class Name(Expr):
    name: str

    def type(self, types):
        t = types.get(self.name)
        if t is None:
            raise ExprTypeError(f"undeclared name {self.name!r}", self)
        return t

    def _vec(self, scope):
        if self.name in scope.columns:
            j, is_bool, lo, hi = scope.columns[self.name]
            if is_bool:
                return _Code("bool", lambda V: V[:, j] != 0)
            return _Code("int", lambda V: V[:, j], lo=lo, hi=hi)
        try:
            return _constant(scope.consts[self.name])
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

    def _vec(self, scope):
        x = self.operand._vec(scope)
        if self.op == "!":
            return _node("bool", np.logical_not, (x,))
        return _arith(operator.neg, x.kind, -x.hi, -x.lo, (x,))

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

    def _vec(self, scope):
        a, b = self.left._vec(scope), self.right._vec(scope)
        op = self.op
        if op in ("&", "|"):
            return _logical(op == "&", a, b)
        if op == "/":
            return _node("real", _divide, (a, b), raises=True)
        if op in _COMPARE:
            return _compare(_COMPARE[op], a, b)
        if "real" in (a.kind, b.kind):
            return _arith(_ARITH[op], "real", 0, 0, (a, b))
        if op == "+":
            lo, hi = a.lo + b.lo, a.hi + b.hi
        elif op == "-":
            lo, hi = a.lo - b.hi, a.hi - b.lo
        else:
            corners = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
            lo, hi = min(corners), max(corners)
        return _arith(_ARITH[op], "int", lo, hi, (a, b))

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

    def _vec(self, scope):
        return _cond(self.cond._vec(scope), self.then._vec(scope),
                     self.other._vec(scope))

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

    def _vec(self, scope):
        args = tuple(a._vec(scope) for a in self.args)
        if any(a.kind == "real" for a in args):
            return _arith(_EXTREME[self.fn], "real", 0, 0, args)
        pick = min if self.fn == "min" else max
        return _arith(_EXTREME[self.fn], "int", pick(a.lo for a in args),
                      pick(a.hi for a in args), args)

    def children(self):
        return self.args


def _numeric(types: Iterable[str]) -> str:
    return "int" if all(t == "int" for t in types) else "real"


# --------------------------------------------------------------------------
# the compiled form

#: int64's range: an int subexpression whose bounds leave it is computed
#: on exact Python ints in an object array.
_I64_MIN, _I64_MAX = -2**63, 2**63 - 1

_ONE_ROW = np.zeros((1, 0), dtype=np.int64)


@dataclass(frozen=True)
class _Scope:
    #: each variable's (column, is_bool, lo, hi)
    columns: Mapping[str, tuple[int, bool, int, int]]
    consts: Mapping[str, Value]

    @staticmethod
    def of(layout: Sequence[VariableInfo], consts: Mapping[str, Value]):
        """Column ``j`` holds ``layout[j]``."""
        return _Scope({v.name: (j, v.is_bool, v.lo, v.hi)
                       for j, v in enumerate(layout)}, consts)


class _Code(NamedTuple):
    """One compiled (sub)expression, what :meth:`Expr.compile` returns.

    ``kind`` is "bool", "int" or "real"; an int takes only values in
    [``lo``, ``hi``] on valuations within the layout's bounds.  Code that
    folds to a constant has ``run`` None and its Python value in
    ``value``; otherwise ``run`` maps a valuation matrix to an array of one
    value per row.  Calling the code gives one value per row either way.
    ``raises`` tells whether running it may raise, that is, whether it
    divides.
    """

    kind: str
    run: Callable | None = None
    value: object = None
    lo: int = 0
    hi: int = 0
    raises: bool = False

    def __call__(self, V):
        if self.run is None:
            return np.full(len(V), self.value, dtype=self.dtype)
        return self.run(V)

    @property
    def dtype(self):
        if self.kind == "bool":
            return bool
        if self.kind == "int" and _I64_MIN <= self.lo <= self.hi <= _I64_MAX:
            return np.int64
        return object

    def get(self, V):
        """The values on the rows of ``V``; a constant gives its scalar."""
        return self.value if self.run is None else self.run(V)


def _constant(value: Value) -> _Code:
    if isinstance(value, bool):
        return _Code("bool", None, value)
    if isinstance(value, int):
        return _Code("int", None, value, value, value)
    return _Code("real", None, value)


def _node(kind: str, op: Callable, args: tuple[_Code, ...], lo: int = 0,
          hi: int = 0, raises: bool = False) -> _Code:
    """The code applying the elementwise ``op`` to the values of ``args``.
    With constant arguments it is folded into a constant, by ``op`` on
    their Python values, unless folding raises: then it raises wherever it
    runs."""
    raises = raises or any(a.raises for a in args)
    values = [a.value for a in args if a.run is None]
    if len(values) == len(args):
        try:
            value = op(*values)
        except EvalError:
            pass
        else:
            if isinstance(value, (np.ndarray, np.generic)):
                value = value.item()
            return _Code(kind, None, value, lo, hi, raises)
    if len(args) == 1:
        (a,) = args
        run = lambda V: op(a.get(V))  # noqa: E731
    elif len(args) == 2:
        a, b = args
        run = lambda V: op(a.get(V), b.get(V))  # noqa: E731
    else:
        run = lambda V: op(*(a.get(V) for a in args))  # noqa: E731
    return _Code(kind, run, None, lo, hi, raises)


def _exact(x):
    """``x`` with int64 values turned into Python ints."""
    if isinstance(x, np.ndarray) and x.dtype != object:
        return x.astype(object)
    return x


def _arith(fn: Callable, kind: str, lo: int, hi: int,
           args: tuple[_Code, ...]) -> _Code:
    """``fn`` on int64 where the result and every argument fit in it, else
    on exact Python numbers (narrowed back to int64 when the result
    fits)."""
    out = _Code(kind, lo=lo, hi=hi).dtype
    exact = out is object or any(a.dtype is object for a in args)

    def op(*values):
        if not exact:
            return fn(*values)
        result = fn(*map(_exact, values))
        if out is object or not isinstance(result, np.ndarray):
            return result
        return result.astype(np.int64)
    return _node(kind, op, args, lo, hi)


def _compare(fn: Callable, a: _Code, b: _Code) -> _Code:
    if object not in (a.dtype, b.dtype):
        return _node("bool", fn, (a, b))
    return _node("bool", lambda x, y: np.asarray(
        fn(_exact(x), _exact(y)), dtype=bool), (a, b))


_QUOTIENT = np.frompyfunc(Fraction, 2, 1)


def _divide(x, y):
    if np.count_nonzero(y == 0):
        raise EvalError("division by zero")
    return _QUOTIENT(_exact(x), _exact(y))


def _extreme(better: Callable) -> Callable:
    """min or max of any number of arguments, arrays or Python numbers,
    keeping the first of equal values as Python's min and max do."""
    def fn(*values):
        acc = values[0]
        for v in values[1:]:
            pick = better(v, acc)
            if isinstance(pick, np.ndarray):
                acc = np.where(pick, v, acc)
            elif pick:
                acc = v
        return acc
    return fn


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_EXTREME = {"min": _extreme(operator.lt), "max": _extreme(operator.gt)}


def _subset(code: _Code, V, rows, out) -> None:
    """Write ``code``'s values on ``rows`` of ``V`` into ``out[rows]``,
    running it on those rows only."""
    if rows.size:
        out[rows] = _exact(code.get(V[rows])) if out.dtype == object \
            else code.get(V[rows])


def _logical(is_and: bool, a: _Code, b: _Code) -> _Code:
    """``a & b`` or ``a | b``: ``b`` runs only on the rows ``a`` leaves
    undecided."""
    if a.run is None:
        return b if bool(a.value) == is_and else a
    if not b.raises:
        return _node("bool", np.logical_and if is_and else np.logical_or,
                     (a, b), raises=a.raises)

    def run(V):
        out = np.array(a.run(V), dtype=bool)
        _subset(b, V, np.flatnonzero(out if is_and else ~out), out)
        return out
    return _Code("bool", run, raises=True)


def _cond(c: _Code, t: _Code, o: _Code) -> _Code:
    """``c ? t : o``: each branch runs only on the rows that select it."""
    if c.run is None:
        return t if c.value else o
    if t.kind == "bool":
        kind = "bool"
    else:
        kind = "real" if "real" in (t.kind, o.kind) else "int"
    code = _Code(kind, lo=min(t.lo, o.lo), hi=max(t.hi, o.hi))
    dtype = code.dtype
    if not (t.raises or o.raises):
        # each branch in the result's dtype: numpy would put two Python
        # ints beyond int64 into uint64 or float64
        return _node(kind, lambda cv, tv, ov: np.where(
            cv, np.asarray(tv, dtype), np.asarray(ov, dtype)),
            (c, t, o), code.lo, code.hi)

    def run(V):
        cv = c.run(V)
        out = np.empty(len(V), dtype=dtype)
        _subset(t, V, np.flatnonzero(cv), out)
        _subset(o, V, np.flatnonzero(~cv), out)
        return out
    return code._replace(run=run, raises=True)


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
    #: resolved once by ``parse_model``: each constant's value, the
    #: variables (globals first, then each process's locals) and the
    #: initial valuation; not part of the model's identity
    consts: dict = field(default_factory=dict, compare=False, repr=False)
    layout: tuple = field(default=(), compare=False, repr=False)
    initial: tuple = field(default=(), compare=False, repr=False)

    def constant_values(self) -> dict[str, Value]:
        """The constants' values, a copy the caller may change."""
        return dict(self.consts)

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
