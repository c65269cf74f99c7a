"""Recursive-descent parser and static checks for the modeling language.

``parse_model`` turns source text into a :class:`~qmv.lang.ast.SymbolicModel`
and rejects ill-formed models with positioned errors: unknown names, type
mismatches, out-of-range initial values, writes to foreign locals, rates
outside MA models, undeclared command tags in a model that declares
actions.  It is the one place that resolves the declarations: the model
carries its constants' values, its variable layout (with owners and
observers) and its initial valuation.  ``parse_property`` handles the
query syntax (``Pmax=? [ F pred ]`` and friends).

The descent keeps one index into the lexer's parallel token lists and
reads the next token's text and kind there; every syntax error is built by
``_Tokens.expect`` or ``_Tokens.error``.  Binary operators are parsed by
one precedence-climbing loop over :data:`qmv.lang.ast.PRECEDENCE`, the
table the pretty-printer reads too.  Literal-only subexpressions are folded
during parsing by :meth:`~qmv.lang.ast.Expr.constant`, so ``1/12`` becomes
a single rational literal and pretty-printed models re-parse to
structurally equal ASTs.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from fractions import Fraction

from qmv.core import Direction, ModelClass, Property, PropertyKind, VariableInfo
from qmv.lang import ast
from qmv.lang.errors import EvalError, ExprTypeError, ModelSyntaxError
from qmv.lang.lexer import IDENTIFIER_RE, KEYWORDS, tokenize


class _Tokens:
    """The token lists of one source and the index ``i`` of the next token;
    the parser reads ``texts[i]`` and ``kinds[i]`` directly."""

    __slots__ = ("source", "kinds", "texts", "lines", "columns", "i")

    def __init__(self, source: str):
        self.source = source
        self.kinds, self.texts, self.lines, self.columns = tokenize(source)
        self.i = 0

    def pos(self, i: int) -> ast.Pos:
        return self.lines[i], self.columns[i]

    def accept(self, text: str) -> bool:
        """Step past the next token if it is ``text``."""
        found = self.texts[self.i] == text
        self.i += found
        return found

    def expect(self, text: str | None = None, kind: str | None = None,
               what: str | None = None) -> int:
        """Step past the next token, which must be ``text`` (or of
        ``kind``); return its index."""
        i = self.i
        if (self.texts[i] == text if kind is None else self.kinds[i] == kind):
            self.i = i + 1
            return i
        want = what or (f"'{text}'" if text is not None else kind)
        raise self.error(f"expected {want}, found {self.found(i)}", i)

    def found(self, i: int) -> str:
        return "end of input" if self.kinds[i] == "EOF" else repr(self.texts[i])

    def error(self, message: str, i: int | None = None) -> ModelSyntaxError:
        """An error at token ``i``, by default the next one."""
        return ModelSyntaxError(
            message, *self.pos(self.i if i is None else i), self.source)

    def error_at(self, message: str, node) -> ModelSyntaxError:
        line, column = getattr(node, "pos", (0, 0))
        return ModelSyntaxError(message, line, column, self.source)


def _ident(ts: _Tokens, what: str = "a name") -> int:
    i = ts.expect(kind="NAME", what=what)
    if ts.texts[i] in KEYWORDS:
        raise ts.error(f"{ts.texts[i]!r} is a reserved word", i)
    return i


# --------------------------------------------------------------------------
# expressions

#: the binary operators of ``ast.PRECEDENCE``; no other token has their text
_BINARY = {op: prec for op, prec in ast.PRECEDENCE.items()
           if op not in ("?:", "unary")}
_LITERALS = frozenset({ast.IntLit, ast.RealLit, ast.BoolLit})


def _literal(value: ast.Value, pos: ast.Pos) -> ast.Expr:
    if isinstance(value, bool):
        return ast.BoolLit(value, pos=pos)
    if isinstance(value, Fraction) and value.denominator != 1:
        return ast.RealLit(value, pos=pos)
    return ast.IntLit(int(value), pos=pos)


def _fold(node: ast.Expr, ts: _Tokens) -> ast.Expr:
    """``node``, whose children the caller found all literals, folded."""
    _type_of(ts, node, {})
    return _literal(_value(ts, node, {}, node), node.pos)


def _parse_expr(ts: _Tokens) -> ast.Expr:
    cond = _parse_binary(ts, ast.PRECEDENCE["?:"] + 1)
    i = ts.i
    if ts.texts[i] != "?":
        return cond
    ts.i = i + 1
    then = _parse_expr(ts)
    ts.expect(":")
    other = _parse_expr(ts)
    node = ast.Cond(cond, then, other, pos=ts.pos(i))
    return _fold(node, ts) if {type(cond), type(then), type(other)} \
        <= _LITERALS else node


def parse_expression(text: str) -> ast.Expr:
    """Parse one expression, such as a label's predicate, on its own; a
    syntax error is positioned within ``text``."""
    ts = _Tokens(text)
    expr = _parse_expr(ts)
    if ts.kinds[ts.i] != "EOF":
        raise ts.error(f"unexpected {ts.found(ts.i)} after the expression")
    return expr


def _parse_binary(ts: _Tokens, min_prec: int) -> ast.Expr:
    """Precedence climbing over the binary operators of ``PRECEDENCE``
    that bind at least as tightly as ``min_prec``; all left-associative."""
    left = _parse_unary(ts)
    texts = ts.texts
    while True:
        i = ts.i
        prec = _BINARY.get(texts[i])
        if prec is None or prec < min_prec:
            return left
        ts.i = i + 1
        right = _parse_binary(ts, prec + 1)
        node = ast.Binary(texts[i], left, right, pos=ts.pos(i))
        left = _fold(node, ts) if type(left) in _LITERALS \
            and type(right) in _LITERALS else node


def _parse_unary(ts: _Tokens) -> ast.Expr:
    """A prefix operator applied to a unary expression, or an atom."""
    i = ts.i
    kind, text = ts.kinds[i], ts.texts[i]
    if kind == "INT":
        ts.i = i + 1
        return ast.IntLit(int(text), pos=ts.pos(i))
    if kind == "DECIMAL":
        ts.i = i + 1
        whole, _, digits = text.partition(".")
        return _literal(Fraction(int(whole + digits), 10 ** len(digits)),
                        ts.pos(i))
    if text == "(":
        ts.i = i + 1
        e = _parse_expr(ts)
        ts.expect(")")
        return e
    if text == "-" or text == "!":
        ts.i = i + 1
        operand = _parse_unary(ts)
        node = ast.Unary(text, operand, pos=ts.pos(i))
        return _fold(node, ts) if type(operand) in _LITERALS else node
    if kind != "NAME":
        raise ts.error(f"expected an expression, found {ts.found(i)}", i)
    if text in KEYWORDS:
        if text == "true" or text == "false":
            ts.i = i + 1
            return ast.BoolLit(text == "true", pos=ts.pos(i))
        if text != "min" and text != "max":
            raise ts.error(f"unexpected {text!r} in an expression", i)
        ts.i = i + 1
        ts.expect("(")
        args = [_parse_expr(ts)]
        while ts.accept(","):
            args.append(_parse_expr(ts))
        ts.expect(")")
        if len(args) < 2:
            raise ts.error(f"{text} needs at least two arguments", i)
        node = ast.Call(text, tuple(args), pos=ts.pos(i))
        return _fold(node, ts) if set(map(type, args)) <= _LITERALS else node
    ts.i = i + 1
    return ast.Name(text, pos=ts.pos(i))


# --------------------------------------------------------------------------
# declarations


def parse_model(source: str) -> ast.SymbolicModel:
    """Parse and statically check a complete model."""
    ts = _Tokens(source)
    i = ts.expect(kind="NAME", what="a model class (dtmc, mdp or ma)")
    try:
        model_class = ModelClass(ts.texts[i])
    except ValueError:
        raise ts.error(f"unknown model class {ts.texts[i]!r}", i) from None

    constants: list[ast.ConstDecl] = []
    globals_: list[ast.VarDecl] = []
    actions: list[str] = []
    processes: list[ast.ProcessDef] = []
    labels: list[ast.LabelDecl] = []
    while ts.kinds[ts.i] != "EOF":
        if ts.accept("const"):
            constants.append(_parse_const(ts))
        elif ts.accept("action"):
            while True:
                a = _ident(ts, "an action name")
                if ts.texts[a] in actions:
                    raise ts.error(
                        f"duplicate action declaration {ts.texts[a]!r}", a)
                actions.append(ts.texts[a])
                if not ts.accept(","):
                    break
            ts.expect(";")
        elif ts.accept("global"):
            globals_.append(_parse_vardecl(ts))
        elif ts.texts[ts.i] == "module":
            processes.append(_parse_process(ts))
        elif ts.accept("label"):
            labels.append(_parse_label(ts))
        else:
            raise ts.error(
                "expected const, action, global, module or label, found "
                + repr(ts.texts[ts.i]))
    model = ast.SymbolicModel(
        model_class, tuple(constants), tuple(globals_), tuple(actions),
        tuple(processes), tuple(labels))
    return _analyze(ts, model)


def _parse_const(ts: _Tokens) -> ast.ConstDecl:
    t = ts.expect(kind="NAME", what="a constant type (int, real or bool)")
    if ts.texts[t] not in ("int", "real", "bool"):
        raise ts.error(f"unknown constant type {ts.texts[t]!r}", t)
    n = _ident(ts, "a constant name")
    ts.expect("=")
    expr = _parse_expr(ts)
    ts.expect(";")
    return ast.ConstDecl(ts.texts[n], ts.texts[t], expr, pos=ts.pos(n))


def _parse_vardecl(ts: _Tokens) -> ast.VarDecl:
    n = _ident(ts, "a variable name")
    ts.expect(":")
    if ts.accept("bool"):
        is_bool, lo, hi = True, None, None
    else:
        is_bool = False
        ts.expect("[", what="'[' or 'bool'")
        lo = _parse_expr(ts)
        ts.expect("..")
        hi = _parse_expr(ts)
        ts.expect("]")
    ts.expect("init")
    init = _parse_expr(ts)
    ts.expect(";")
    return ast.VarDecl(ts.texts[n], is_bool, lo, hi, init, pos=ts.pos(n))


def _parse_process(ts: _Tokens) -> ast.ProcessDef:
    m = ts.expect("module")
    n = _ident(ts, "a module name")
    variables: list[ast.VarDecl] = []
    observes: tuple[str, ...] | None = None
    commands: list[ast.Command] = []
    while not ts.accept("endmodule"):
        i = ts.i
        text = ts.texts[i]
        if text == "observes":
            ts.i = i + 1
            if observes is not None:
                raise ts.error("duplicate observes declaration", i)
            names = [ts.texts[_ident(ts, "a variable name")]]
            while ts.accept(","):
                names.append(ts.texts[_ident(ts, "a variable name")])
            ts.expect(";")
            observes = tuple(names)
        elif text == "[" or text == "rate":
            commands.append(_parse_command(ts))
        elif ts.kinds[i] == "NAME":
            variables.append(_parse_vardecl(ts))
        else:
            raise ts.error(
                "expected a variable declaration, a command or endmodule, "
                f"found {text!r}")
    return ast.ProcessDef(
        ts.texts[n], tuple(variables), observes, tuple(commands),
        pos=ts.pos(m))


def _parse_command(ts: _Tokens) -> ast.Command:
    head = ts.i
    action: str | None = None
    rate: ast.Expr | None = None
    if ts.accept("["):
        if ts.texts[ts.i] != "]":
            action = ts.texts[_ident(ts, "an action name")]
        ts.expect("]")
    else:
        ts.expect("rate")
        ts.expect("(")
        rate = _parse_expr(ts)
        ts.expect(")")
    guard = _parse_expr(ts)
    ts.expect("->")
    branches = [_parse_branch(ts)]
    while ts.accept("+"):
        branches.append(_parse_branch(ts))
    ts.expect(";")
    return ast.Command(action, rate, guard, tuple(branches), pos=ts.pos(head))


def _parse_branch(ts: _Tokens) -> ast.Branch:
    i, kinds, texts = ts.i, ts.kinds, ts.texts
    # a bare update "(x' = e, ...)" is sugar for weight 1
    if texts[i] == "(" and (texts[i + 1] == ")" or kinds[i + 1] == "NAME"
                            and texts[i + 2] == "'"):
        weight: ast.Expr = ast.IntLit(1, pos=ts.pos(i))
    else:
        weight = _parse_expr(ts)
        ts.expect(":")
    ts.expect("(")
    assignments: list[ast.Assignment] = []
    if texts[ts.i] != ")":
        while True:
            v = _ident(ts, "a variable name")
            ts.expect("'")
            ts.expect("=")
            assignments.append(
                ast.Assignment(texts[v], _parse_expr(ts), pos=ts.pos(v)))
            if texts[ts.i] != ",":
                break
            ts.i += 1
    ts.expect(")")
    return ast.Branch(weight, tuple(assignments))


def _parse_label(ts: _Tokens) -> ast.LabelDecl:
    i = ts.expect(kind="STRING", what="a quoted label name")
    name = ts.texts[i][1:-1]
    if not IDENTIFIER_RE.fullmatch(name):
        raise ts.error(f"label name {name!r} is not an identifier", i)
    ts.expect("=")
    expr = _parse_expr(ts)
    ts.expect(";")
    return ast.LabelDecl(name, expr, pos=ts.pos(i))


# --------------------------------------------------------------------------
# static analysis


def _type_of(ts: _Tokens, e: ast.Expr, types: dict[str, str]) -> str:
    """``e.type(types)``, with type errors positioned in the source."""
    try:
        return e.type(types)
    except ExprTypeError as exc:
        raise ts.error_at(str(exc), exc.node) from None


def _value(ts: _Tokens, e: ast.Expr, consts: dict, at) -> ast.Value:
    """``e.constant(consts)``, with an evaluation error positioned at
    ``at``."""
    try:
        return e.constant(consts)
    except EvalError as exc:
        raise ts.error_at(str(exc), at) from None


def _analyze(ts: _Tokens, model: ast.SymbolicModel) -> ast.SymbolicModel:
    """Check ``model`` and return it with its declarations resolved: the
    constants' values, the variable layout and the initial valuation."""
    # constants: declared before use, well-typed, evaluable
    const_types: dict[str, str] = {}
    cenv: dict[str, ast.Value] = {}
    for c in model.constants:
        if c.name in const_types:
            raise ts.error_at(f"duplicate constant {c.name!r}", c)
        for n in c.expr.names():
            if n not in const_types:
                raise ts.error_at(
                    f"constant {c.name} references {n!r}, which is not a "
                    "previously declared constant", c)
        t = _type_of(ts, c.expr, const_types)
        if c.type == "int" and t != "int":
            raise ts.error_at(
                f"constant {c.name} is declared int but has type {t}", c)
        if c.type == "real" and t == "bool":
            raise ts.error_at(
                f"constant {c.name} is declared real but is boolean", c)
        if c.type == "bool" and t != "bool":
            raise ts.error_at(
                f"constant {c.name} is declared bool but has type {t}", c)
        v = _value(ts, c.expr, cenv, c)
        cenv[c.name] = Fraction(v) if c.type == "real" else v
        const_types[c.name] = c.type

    seen = set(const_types)

    # variables: unique names, constant integer bounds, init in range
    var_types: dict[str, str] = {}
    var_owner: dict[str, int | None] = {}
    decls = [(v, None) for v in model.globals_]
    names_seen: set[str] = set()
    for i, p in enumerate(model.processes):
        if p.name in names_seen:
            raise ts.error_at(f"duplicate module name {p.name!r}", p)
        names_seen.add(p.name)
        decls += [(v, i) for v in p.variables]
    for v, owner in decls:
        if v.name in seen:
            raise ts.error_at(f"duplicate declaration of {v.name!r}", v)
        seen.add(v.name)
        var_types[v.name] = "bool" if v.is_bool else "int"
        var_owner[v.name] = owner
    ranges = []
    for v, owner in decls:
        parts = [(v.init, f"initial value of {v.name}")]
        if not v.is_bool:
            parts += [(v.lo, f"lower bound of {v.name}"),
                      (v.hi, f"upper bound of {v.name}")]
        for expr, what in parts:
            for n in expr.names():
                if n in var_types:
                    raise ts.error_at(
                        f"{what} must be a constant expression, but {n!r} "
                        "is a variable", expr)
                if n not in const_types:
                    raise ts.error_at(f"undeclared name {n!r}", expr)
        if v.is_bool:
            if _type_of(ts, v.init, const_types) != "bool":
                raise ts.error_at(
                    f"initial value of boolean {v.name} must be boolean", v)
            ranges.append((0, 1, int(_value(ts, v.init, cenv, v))))
            continue
        for expr, what in parts:
            if _type_of(ts, expr, const_types) != "int":
                raise ts.error_at(f"{what} must be an integer", expr)
        lo, hi, init = (_value(ts, e, cenv, v) for e in (v.lo, v.hi, v.init))
        if lo > hi:
            raise ts.error_at(f"empty range [{lo}..{hi}] for {v.name}", v)
        if not lo <= init <= hi:
            raise ts.error_at(
                f"initial value {init} of {v.name} outside [{lo}..{hi}]", v)
        ranges.append((lo, hi, init))

    types = {**const_types, **var_types}

    # observes lists name real variables
    for p in model.processes:
        for n in p.observes or ():
            if n not in var_types:
                raise ts.error_at(
                    f"module {p.name} observes {n!r}, which is not a "
                    "variable", p)

    # commands: typed guards/weights/rates, legal assignments
    for pi, proc in enumerate(model.processes):
        for cmd in proc.commands:
            if cmd.is_markovian and model.model_class is not ModelClass.MA:
                raise ts.error_at(
                    f"rate command in a {model.model_class.value} model "
                    "(exponential rates need an ma model)", cmd)
            if (cmd.rate is not None
                    and _type_of(ts, cmd.rate, types) == "bool"):
                raise ts.error_at("rate must be a number", cmd.rate)
            if model.actions and cmd.action not in (None, *model.actions):
                # positioned at the tag, the token after the command's '['
                line, column = cmd.pos
                at = ts.columns.index(column, bisect_left(ts.lines, line))
                raise ts.error(
                    f"undeclared action {cmd.action!r} (declared: "
                    f"{', '.join(model.actions)})", at + 1)
            if _type_of(ts, cmd.guard, types) != "bool":
                raise ts.error_at("guard must be boolean", cmd.guard)
            for br in cmd.branches:
                if _type_of(ts, br.weight, types) == "bool":
                    raise ts.error_at("branch weight must be a number",
                                      br.weight)
                if type(br.weight) in _LITERALS and br.weight.value <= 0:
                    raise ts.error_at("branch weight must be positive",
                                      br.weight)
                assigned: set[str] = set()
                for a in br.assignments:
                    if a.var not in var_types:
                        raise ts.error_at(
                            f"assignment to undeclared variable {a.var!r}", a)
                    owner = var_owner[a.var]
                    if owner is not None and owner != pi:
                        raise ts.error_at(
                            f"module {proc.name} cannot write {a.var!r} "
                            f"(local to module "
                            f"{model.processes[owner].name})", a)
                    if a.var in assigned:
                        raise ts.error_at(
                            f"{a.var!r} assigned twice in one branch", a)
                    assigned.add(a.var)
                    rt = _type_of(ts, a.expr, types)
                    vt = var_types[a.var]
                    if rt != vt:
                        kind = "boolean" if vt == "bool" else "integer"
                        raise ts.error_at(
                            f"cannot assign {'an' if rt == 'int' else 'a'} "
                            f"{rt} to {kind} {a.var!r}", a)

    # labels: unique boolean predicates
    label_names: set[str] = set()
    for l in model.labels:
        if l.name in label_names:
            raise ts.error_at(f'duplicate label "{l.name}"', l)
        label_names.add(l.name)
        if _type_of(ts, l.expr, types) != "bool":
            raise ts.error_at(f'label "{l.name}" must be boolean', l)

    # a variable is observed by the processes that declare it in their
    # observes list; without one, by its owner and, for a global, by
    # every process that reads it
    procs = model.processes
    reads = [
        {n for cmd in p.commands
         for e in (cmd.guard, cmd.rate, *(
             x for br in cmd.branches
             for x in (br.weight, *(a.expr for a in br.assignments))))
         if e is not None for n in e.names()}
        if p.observes is None and model.globals_ else () for p in procs]
    layout = tuple(
        VariableInfo(v.name, lo, hi, v.is_bool, owner, frozenset(
            pi for pi, p in enumerate(procs)
            if (v.name in p.observes if p.observes is not None
                else owner == pi or owner is None and v.name in reads[pi])))
        for (v, owner), (lo, hi, _) in zip(decls, ranges))
    return replace(model, consts=cenv, layout=layout,
                   initial=tuple(init for _, _, init in ranges))


# --------------------------------------------------------------------------
# properties


def parse_property(
    text: str,
    *,
    model_class: ModelClass | None = None,
    labels: dict | None = None,
) -> Property:
    """Parse a single query.

    Syntax: ``Pmax=? [ F pred ]``, ``Pmin=? [ F<=B pred ]``,
    ``Tmin=? [ F pred ]``, ``Tmax=? [ F pred ]``.  ``pred`` is a label name
    (bare or quoted) or a boolean expression over model variables.  ``B`` is
    a step count for DTMC/MDP models and a time in minutes for MA models,
    which is why bounded properties need ``model_class``.  When ``labels``
    is given, label references are checked against it.
    """
    ts = _Tokens(text)
    h = ts.expect(kind="NAME", what="Pmax, Pmin, Tmin or Tmax")
    head = ts.texts[h]
    if head not in ("Pmax", "Pmin", "Tmin", "Tmax"):
        raise ts.error(
            f"unknown property head {head!r} (want Pmax, Pmin, Tmin "
            "or Tmax)", h)
    direction = Direction(head[1:])
    is_prob = head.startswith("P")
    ts.expect("=")
    ts.expect("?")
    ts.expect("[")
    f = ts.expect(kind="NAME", what="F")
    if ts.texts[f] != "F":
        raise ts.error("only reachability (F) properties are supported", f)

    bound: int | float | None = None
    if ts.accept("<="):
        if not is_prob:
            raise ts.error("expected-time properties take no bound", ts.i - 1)
        b = ts.i
        if ts.kinds[b] not in ("INT", "DECIMAL"):
            raise ts.error("expected a numeric bound after 'F<='")
        ts.i = b + 1
        if model_class is None:
            raise ValueError(
                "bounded properties need the model class to interpret the "
                "bound (steps vs. minutes)")
        if model_class is ModelClass.MA:
            bound = float(Fraction(ts.texts[b]))
        else:
            if ts.kinds[b] != "INT":
                raise ts.error("step bounds must be integers", b)
            bound = int(ts.texts[b])

    target: object
    if ts.kinds[ts.i] == "STRING":
        target = ts.texts[ts.i][1:-1]
        if labels is not None and target not in labels:
            raise ts.error(f'unknown label "{target}"')
        ts.i += 1
    else:
        target = _parse_expr(ts)
        if isinstance(target, ast.Name) and labels and target.name in labels:
            target = target.name
    ts.expect("]")
    if ts.kinds[ts.i] != "EOF":
        raise ts.error(f"unexpected {ts.texts[ts.i]!r} after the property")

    if not is_prob:
        kind = PropertyKind.EXPECTED_TIME
    elif bound is None:
        kind = PropertyKind.REACH_PROB
    elif model_class is ModelClass.MA:
        kind = PropertyKind.TIME_BOUNDED_REACH_PROB
    else:
        kind = PropertyKind.STEP_BOUNDED_REACH_PROB
    prop = Property(kind, direction, target, bound, text=" ".join(text.split()))
    if model_class is not None and not prop.compatible_with(model_class):
        raise ts.error(
            f"{head} properties do not apply to {model_class.value} "
            "models", h)
    return prop


def parse_properties(
    text: str,
    *,
    model_class: ModelClass | None = None,
    labels: dict | None = None,
) -> list[Property]:
    """Parse a property file: one property per line, // comments allowed;
    a syntax error is positioned within the file."""
    props: list[Property] = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.split("//", 1)[0].rstrip()
        try:
            if line:
                props.append(parse_property(line, model_class=model_class,
                                            labels=labels))
        except ModelSyntaxError as exc:
            raise ModelSyntaxError(exc.message, number, exc.column,
                                   text) from None
    return props
