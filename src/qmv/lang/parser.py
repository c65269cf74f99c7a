"""Recursive-descent parser and static checks for the modeling language.

``parse_model`` turns source text into a :class:`~qmv.lang.ast.SymbolicModel`
and rejects ill-formed models with positioned errors: unknown names, type
mismatches, out-of-range initial values, writes to foreign locals, rates
outside MA models.  ``parse_property`` handles the query syntax
(``Pmax=? [ F pred ]`` and friends).

Binary operators are parsed by one precedence-climbing loop over
:data:`qmv.lang.ast.PRECEDENCE`, the table the pretty-printer reads too.
Literal-only subexpressions are folded during parsing, so ``1/12`` becomes a
single rational literal and pretty-printed models re-parse to structurally
equal ASTs.
"""
from __future__ import annotations

from fractions import Fraction

from qmv.core import Direction, ModelClass, Property, PropertyKind
from qmv.lang import ast
from qmv.lang.errors import EvalError, ExprTypeError, ModelSyntaxError
from qmv.lang.lexer import IDENTIFIER_RE, KEYWORDS, Token, tokenize


class _Tokens:
    """Token cursor with single-token lookahead helpers."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.type != "EOF":
            self.i += 1
        return tok

    def check(self, text: str | None = None, type_: str | None = None,
              ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        if type_ is not None and tok.type != type_:
            return False
        if text is not None and tok.text != text:
            return False
        return True

    def accept(self, text: str | None = None,
               type_: str | None = None) -> Token | None:
        if self.check(text, type_):
            return self.advance()
        return None

    def expect(self, text: str | None = None, type_: str | None = None,
               what: str | None = None) -> Token:
        if self.check(text, type_):
            return self.advance()
        tok = self.peek()
        want = what or (f"'{text}'" if text is not None else str(type_))
        found = "end of input" if tok.type == "EOF" else repr(tok.text)
        raise self.error(f"expected {want}, found {found}", tok)

    def error(self, message: str, tok: Token | None = None) -> ModelSyntaxError:
        tok = tok or self.peek()
        return ModelSyntaxError(message, tok.line, tok.column, self.source)

    def error_at(self, message: str, node) -> ModelSyntaxError:
        line, column = getattr(node, "pos", (0, 0))
        return ModelSyntaxError(message, line, column, self.source)


def _tpos(tok: Token) -> ast.Pos:
    return (tok.line, tok.column)


def _ident(ts: _Tokens, what: str = "a name") -> Token:
    tok = ts.expect(type_="NAME", what=what)
    if tok.text in KEYWORDS:
        raise ts.error(f"{tok.text!r} is a reserved word", tok)
    return tok


# --------------------------------------------------------------------------
# expressions


def _literal(value: ast.Value, pos: ast.Pos) -> ast.Expr:
    if isinstance(value, bool):
        return ast.BoolLit(value, pos=pos)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return ast.IntLit(int(value), pos=pos)
        return ast.RealLit(value, pos=pos)
    return ast.IntLit(value, pos=pos)


def _is_literal(e: ast.Expr) -> bool:
    return isinstance(e, (ast.IntLit, ast.RealLit, ast.BoolLit))


def _fold(node: ast.Expr, ts: _Tokens) -> ast.Expr:
    kids = node.children()
    if kids and all(_is_literal(k) for k in kids):
        _type_of(ts, node, {})
        try:
            return _literal(node.constant({}), node.pos)
        except EvalError as exc:
            raise ts.error_at(str(exc), node) from None
    return node


def _parse_expr(ts: _Tokens) -> ast.Expr:
    cond = _parse_binary(ts, ast.PRECEDENCE["?:"] + 1)
    tok = ts.accept("?")
    if tok is None:
        return cond
    then = _parse_expr(ts)
    ts.expect(":")
    other = _parse_expr(ts)
    return _fold(ast.Cond(cond, then, other, pos=_tpos(tok)), ts)


def _parse_binary(ts: _Tokens, min_prec: int) -> ast.Expr:
    """Precedence climbing over the binary operators of ``PRECEDENCE``
    that bind at least as tightly as ``min_prec``; all left-associative."""
    left = _parse_unary(ts)
    while True:
        tok = ts.peek()
        prec = ast.PRECEDENCE.get(tok.text) if tok.type == "OP" else None
        if prec is None or prec < min_prec:
            return left
        ts.advance()
        right = _parse_binary(ts, prec + 1)
        left = _fold(ast.Binary(tok.text, left, right, pos=_tpos(tok)), ts)


def _parse_unary(ts: _Tokens) -> ast.Expr:
    tok = ts.accept("-") or ts.accept("!")
    if tok is not None:
        operand = _parse_unary(ts)
        return _fold(ast.Unary(tok.text, operand, pos=_tpos(tok)), ts)
    return _parse_atom(ts)


def _parse_atom(ts: _Tokens) -> ast.Expr:
    tok = ts.peek()
    if tok.type == "INT":
        ts.advance()
        return ast.IntLit(int(tok.text), pos=_tpos(tok))
    if tok.type == "DECIMAL":
        ts.advance()
        return _literal(Fraction(tok.text), _tpos(tok))
    if tok.text == "(":
        ts.advance()
        e = _parse_expr(ts)
        ts.expect(")")
        return e
    if tok.type == "NAME":
        if tok.text in ("true", "false"):
            ts.advance()
            return ast.BoolLit(tok.text == "true", pos=_tpos(tok))
        if tok.text in ("min", "max"):
            ts.advance()
            ts.expect("(")
            args = [_parse_expr(ts)]
            while ts.accept(","):
                args.append(_parse_expr(ts))
            ts.expect(")")
            if len(args) < 2:
                raise ts.error(f"{tok.text} needs at least two arguments", tok)
            return _fold(ast.Call(tok.text, tuple(args), pos=_tpos(tok)), ts)
        if tok.text in KEYWORDS:
            raise ts.error(f"unexpected {tok.text!r} in an expression", tok)
        ts.advance()
        return ast.Name(tok.text, pos=_tpos(tok))
    found = "end of input" if tok.type == "EOF" else repr(tok.text)
    raise ts.error(f"expected an expression, found {found}", tok)


# --------------------------------------------------------------------------
# declarations


def parse_model(source: str) -> ast.SymbolicModel:
    """Parse and statically check a complete model."""
    ts = _Tokens(source)
    tok = ts.expect(type_="NAME", what="a model class (dtmc, mdp or ma)")
    try:
        model_class = ModelClass(tok.text)
    except ValueError:
        raise ts.error(f"unknown model class {tok.text!r}", tok) from None

    constants: list[ast.ConstDecl] = []
    globals_: list[ast.VarDecl] = []
    actions: list[str] = []
    processes: list[ast.ProcessDef] = []
    labels: list[ast.LabelDecl] = []
    while not ts.check(type_="EOF"):
        if ts.accept("const"):
            constants.append(_parse_const(ts))
        elif ts.accept("action"):
            while True:
                atok = _ident(ts, "an action name")
                if atok.text in actions:
                    raise ts.error(
                        f"duplicate action declaration {atok.text!r}", atok)
                actions.append(atok.text)
                if not ts.accept(","):
                    break
            ts.expect(";")
        elif ts.accept("global"):
            globals_.append(_parse_vardecl(ts))
        elif ts.check("module"):
            processes.append(_parse_process(ts))
        elif ts.accept("label"):
            labels.append(_parse_label(ts))
        else:
            raise ts.error(
                "expected const, action, global, module or label, found "
                + repr(ts.peek().text))
    model = ast.SymbolicModel(
        model_class, tuple(constants), tuple(globals_), tuple(actions),
        tuple(processes), tuple(labels))
    _analyze(ts, model)
    return model


def _parse_const(ts: _Tokens) -> ast.ConstDecl:
    ttok = ts.expect(type_="NAME", what="a constant type (int, real or bool)")
    if ttok.text not in ("int", "real", "bool"):
        raise ts.error(f"unknown constant type {ttok.text!r}", ttok)
    ntok = _ident(ts, "a constant name")
    ts.expect("=")
    expr = _parse_expr(ts)
    ts.expect(";")
    return ast.ConstDecl(ntok.text, ttok.text, expr, pos=_tpos(ntok))


def _parse_vardecl(ts: _Tokens) -> ast.VarDecl:
    ntok = _ident(ts, "a variable name")
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
    return ast.VarDecl(ntok.text, is_bool, lo, hi, init, pos=_tpos(ntok))


def _parse_process(ts: _Tokens) -> ast.ProcessDef:
    mtok = ts.expect("module")
    ntok = _ident(ts, "a module name")
    variables: list[ast.VarDecl] = []
    observes: tuple[str, ...] | None = None
    commands: list[ast.Command] = []
    while not ts.accept("endmodule"):
        if ts.check("observes"):
            otok = ts.advance()
            if observes is not None:
                raise ts.error("duplicate observes declaration", otok)
            names = [_ident(ts, "a variable name").text]
            while ts.accept(","):
                names.append(_ident(ts, "a variable name").text)
            ts.expect(";")
            observes = tuple(names)
        elif ts.check("[") or ts.check("rate"):
            commands.append(_parse_command(ts))
        elif ts.check(type_="NAME") and not ts.check("endmodule"):
            variables.append(_parse_vardecl(ts))
        else:
            raise ts.error(
                "expected a variable declaration, a command or endmodule, "
                f"found {ts.peek().text!r}")
    return ast.ProcessDef(
        ntok.text, tuple(variables), observes, tuple(commands),
        pos=_tpos(mtok))


def _parse_command(ts: _Tokens) -> ast.Command:
    head = ts.peek()
    action: str | None = None
    rate: ast.Expr | None = None
    if ts.accept("["):
        if not ts.check("]"):
            action = _ident(ts, "an action name").text
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
    return ast.Command(action, rate, guard, tuple(branches), pos=_tpos(head))


def _parse_branch(ts: _Tokens) -> ast.Branch:
    tok = ts.peek()
    # a bare update "(x' = e, ...)" is sugar for weight 1
    bare = ts.check("(") and (
        ts.check(")", ahead=1)
        or (ts.check(type_="NAME", ahead=1) and ts.check("'", ahead=2)))
    if bare:
        weight: ast.Expr = ast.IntLit(1, pos=_tpos(tok))
    else:
        weight = _parse_expr(ts)
        ts.expect(":")
    ts.expect("(")
    assignments: list[ast.Assignment] = []
    if not ts.check(")"):
        while True:
            vtok = _ident(ts, "a variable name")
            ts.expect("'")
            ts.expect("=")
            expr = _parse_expr(ts)
            assignments.append(
                ast.Assignment(vtok.text, expr, pos=_tpos(vtok)))
            if not ts.accept(","):
                break
    ts.expect(")")
    return ast.Branch(weight, tuple(assignments))


def _parse_label(ts: _Tokens) -> ast.LabelDecl:
    tok = ts.expect(type_="STRING", what="a quoted label name")
    name = tok.text[1:-1]
    if not IDENTIFIER_RE.fullmatch(name):
        raise ts.error(f"label name {name!r} is not an identifier", tok)
    ts.expect("=")
    expr = _parse_expr(ts)
    ts.expect(";")
    return ast.LabelDecl(name, expr, pos=_tpos(tok))


# --------------------------------------------------------------------------
# static analysis


def _type_of(ts: _Tokens, e: ast.Expr, types: dict[str, str]) -> str:
    """``e.type(types)``, with type errors positioned in the source."""
    try:
        return e.type(types)
    except ExprTypeError as exc:
        raise ts.error_at(str(exc), exc.node) from None


def _check_const_names(ts: _Tokens, expr: ast.Expr, const_types: dict,
                       var_types: dict, what: str) -> None:
    for n in expr.names():
        if n in const_types:
            continue
        if n in var_types:
            raise ts.error_at(
                f"{what} must be a constant expression, but {n!r} is a "
                "variable", expr)
        raise ts.error_at(f"undeclared name {n!r}", expr)


def _analyze(ts: _Tokens, model: ast.SymbolicModel) -> None:
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
        try:
            v = c.expr.constant(cenv)
        except EvalError as exc:
            raise ts.error_at(str(exc), c) from None
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
    for v, owner in decls:
        parts = [(v.init, f"initial value of {v.name}")]
        if not v.is_bool:
            parts += [(v.lo, f"lower bound of {v.name}"),
                      (v.hi, f"upper bound of {v.name}")]
        for expr, what in parts:
            _check_const_names(ts, expr, const_types, var_types, what)
        if v.is_bool:
            if _type_of(ts, v.init, const_types) != "bool":
                raise ts.error_at(
                    f"initial value of boolean {v.name} must be boolean", v)
            continue
        for expr, what in parts:
            if _type_of(ts, expr, const_types) != "int":
                raise ts.error_at(f"{what} must be an integer", expr)
        lo, hi, init = (e.constant(cenv) for e in (v.lo, v.hi, v.init))
        if lo > hi:
            raise ts.error_at(f"empty range [{lo}..{hi}] for {v.name}", v)
        if not lo <= init <= hi:
            raise ts.error_at(
                f"initial value {init} of {v.name} outside [{lo}..{hi}]", v)

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
            if _type_of(ts, cmd.guard, types) != "bool":
                raise ts.error_at("guard must be boolean", cmd.guard)
            for br in cmd.branches:
                if _type_of(ts, br.weight, types) == "bool":
                    raise ts.error_at("branch weight must be a number",
                                      br.weight)
                if _is_literal(br.weight) and br.weight.value <= 0:
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
                    if vt == "bool" and rt != "bool":
                        raise ts.error_at(
                            f"cannot assign a {rt} to boolean {a.var!r}", a)
                    if vt == "int" and rt != "int":
                        raise ts.error_at(
                            f"cannot assign a {rt} to integer {a.var!r}", a)

    # labels: unique boolean predicates
    label_names: set[str] = set()
    for l in model.labels:
        if l.name in label_names:
            raise ts.error_at(f'duplicate label "{l.name}"', l)
        label_names.add(l.name)
        if _type_of(ts, l.expr, types) != "bool":
            raise ts.error_at(f'label "{l.name}" must be boolean', l)


# --------------------------------------------------------------------------
# properties

_HEADS = {
    "Pmax": Direction.MAX,
    "Pmin": Direction.MIN,
    "Tmax": Direction.MAX,
    "Tmin": Direction.MIN,
}


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
    head = ts.expect(type_="NAME", what="Pmax, Pmin, Tmin or Tmax")
    if head.text not in _HEADS:
        raise ts.error(
            f"unknown property head {head.text!r} (want Pmax, Pmin, Tmin "
            "or Tmax)", head)
    direction = _HEADS[head.text]
    is_prob = head.text.startswith("P")
    ts.expect("=")
    ts.expect("?")
    ts.expect("[")
    ftok = ts.expect(type_="NAME", what="F")
    if ftok.text != "F":
        raise ts.error("only reachability (F) properties are supported", ftok)

    bound: int | float | None = None
    if ts.check("<="):
        letok = ts.advance()
        if not is_prob:
            raise ts.error(
                "expected-time properties take no bound", letok)
        btok = ts.accept(type_="INT") or ts.accept(type_="DECIMAL")
        if btok is None:
            raise ts.error("expected a numeric bound after 'F<='")
        if model_class is None:
            raise ValueError(
                "bounded properties need the model class to interpret the "
                "bound (steps vs. minutes)")
        if model_class is ModelClass.MA:
            bound = float(Fraction(btok.text))
        else:
            if btok.type != "INT":
                raise ts.error("step bounds must be integers", btok)
            bound = int(btok.text)

    target: object
    stok = ts.accept(type_="STRING")
    if stok is not None:
        name = stok.text[1:-1]
        if labels is not None and name not in labels:
            raise ts.error(f'unknown label "{name}"', stok)
        target = name
    else:
        expr = _parse_expr(ts)
        if isinstance(expr, ast.Name) and labels and expr.name in labels:
            target = expr.name
        else:
            target = expr
    ts.expect("]")
    if not ts.check(type_="EOF"):
        raise ts.error(f"unexpected {ts.peek().text!r} after the property")

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
            f"{head.text} properties do not apply to {model_class.value} "
            "models", head)
    return prop


def parse_properties(
    text: str,
    *,
    model_class: ModelClass | None = None,
    labels: dict | None = None,
) -> list[Property]:
    """Parse a property file: one property per line, // comments allowed."""
    props: list[Property] = []
    for line in text.splitlines():
        stripped = line.split("//", 1)[0].strip()
        if stripped:
            props.append(
                parse_property(stripped, model_class=model_class,
                               labels=labels))
    return props
