"""Language front end: lexing, parsing, semantic checks, exploration."""
import operator
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmv.core import (
    _FLOAT_ARRAYS,
    _INT_ARRAYS,
    Direction,
    ModelClass,
    PropertyKind,
    VariableInfo,
    check_good_for_distribution,
    target_mask,
)
from qmv.lang import (
    Binary,
    BoolLit,
    Call,
    Cond,
    EvalError,
    ExplorationError,
    ExplorationLimit,
    IntLit,
    ModelSyntaxError,
    Name,
    RealLit,
    Unary,
    parse_model,
    parse_properties,
    parse_property,
)
from qmv.lang.ast import PRECEDENCE
from qmv.lang.explore import (
    DEFAULT_STATE_CAP,
    _Explorer,
    explore,
)
from qmv.lang.lexer import KEYWORDS, tokenize

from conftest import INTERLEAVED_MDP, space_of


#: a one-module DTMC with a slot for more declarations and commands
_M = "dtmc\nmodule m\n x : [0..1] init 0;\n{}\nendmodule\n"


class TestLexer:
    def test_tokens_carry_positions(self):
        toks = tokenize("x' = 3;")
        assert [t.text for t in toks[:-1]] == ["x", "'", "=", "3", ";"]
        assert toks[0].line == 1 and toks[0].column == 1

    def test_keywords_are_recognised(self):
        assert {"module", "endmodule", "const", "init", "label"} <= KEYWORDS

    def test_unknown_character_is_rejected(self):
        with pytest.raises(ModelSyntaxError) as err:
            tokenize("x = $;")
        assert err.value.line == 1

    def test_comments_are_skipped(self):
        toks = tokenize("a // rest of line\nb")
        assert [t.text for t in toks[:-1]] == ["a", "b"]


class TestParser:
    def test_weight_folding_is_exact(self):
        sp = space_of("""
            dtmc
            module m
              x : [0..2] init 0;
              [] x=0 -> 0.9:(x'=1) + (1 - 0.9):(x'=2);
            endmodule
        """)
        assert sp.choices[0][0].distribution.branches == ((0.9, 1), (0.1, 2))

    def test_division_gives_exact_fractions(self):
        sp = space_of("""
            dtmc
            module m
              x : [0..2] init 0;
              [] x=0 -> 1/4:(x'=1) + 3/4:(x'=2);
            endmodule
        """)
        assert sp.choices[0][0].distribution.branches == ((0.25, 1), (0.75, 2))

    def test_constant_expressions_in_bounds(self):
        sp = space_of("""
            dtmc
            const int N = 2;
            module m
              x : [-N..N+1] init N+1;
            endmodule
        """)
        info = sp.layout[0]
        assert (info.lo, info.hi) == (-2, 3)
        assert sp.state_values(0)["x"] == 3

    def test_boolean_operator_precedence(self):
        # | binds looser than &, ! binds tightest
        sp = space_of("""
            dtmc
            module m
              x : [0..1] init (true & false | true) ? 1 : 0;
              y : [0..1] init (!false & false) ? 1 : 0;
            endmodule
        """)
        assert sp.state_values(0) == {"x": 1, "y": 0}

    def test_bool_variables_and_guards(self):
        sp = space_of("""
            dtmc
            module m
              b : bool init false;
              [] !b -> (b'=true);
            endmodule
        """)
        assert sp.layout[0].is_bool
        assert sp.state_values(0) == {"b": False}
        assert sp.state_values(1) == {"b": True}

    def test_bare_update_means_weight_one(self):
        sp = space_of("""
            dtmc
            module m
              x : [0..1] init 0;
              [] x=0 -> (x'=1);
            endmodule
        """)
        assert sp.choices[0][0].distribution.branches == ((1.0, 1),)

    def test_undeclared_variable_reports_position(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model("dtmc\nmodule m\n x : [0..1] init 0;\n"
                        " [] zz=0 -> (x'=1);\nendmodule")
        assert err.value.line == 4
        assert "zz" in str(err.value)

    def test_duplicate_variable_across_modules(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("""
                mdp
                module a
                  x : [0..1] init 0;
                endmodule
                module b
                  x : [0..1] init 0;
                endmodule
            """)

    def test_duplicate_module_name(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("""
                mdp
                module a
                  x : [0..1] init 0;
                endmodule
                module a
                  y : [0..1] init 0;
                endmodule
            """)

    def test_duplicate_action_is_reported_at_the_repeated_name(self):
        with pytest.raises(ModelSyntaxError,
                           match="duplicate action declaration 'a'") as err:
            parse_model("mdp\naction a, b;\naction a;\nmodule m\n"
                        " x : [0..1] init 0;\n [a] x=0 -> (x'=1);\n"
                        " [b] x=1 -> (x'=0);\nendmodule\n")
        assert (err.value.line, err.value.column) == (3, 8)

    def test_type_error_int_plus_bool(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("dtmc\nmodule m\n x : [0..1] init 1 + true;\nendmodule")

    def test_guard_must_be_boolean(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("dtmc\nmodule m\n x : [0..1] init 0;\n"
                        " [] x+1 -> (x'=1);\nendmodule")

    def test_init_outside_declared_bounds(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("dtmc\nmodule m\n x : [0..1] init 2;\nendmodule")

    def test_observes_unknown_name(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("""
                mdp
                module m
                  observes nothere;
                  x : [0..1] init 0;
                endmodule
            """)

    def test_observes_may_name_globals(self):
        model = parse_model("""
            mdp
            global g : [0..1] init 0;
            module m
              observes g, x;
              x : [0..1] init 0;
              [] x=0 -> (x'=1);
            endmodule
        """)
        sp = explore(model)
        gi, xi = sp.variable_index("g"), sp.variable_index("x")
        assert 0 in sp.layout[gi].observers
        assert 0 in sp.layout[xi].observers

    def test_default_observers_are_locals_and_read_globals(self):
        sp = space_of("""
            mdp
            global seen : [0..1] init 0;
            global hidden : [0..1] init 0;
            module m
              x : [0..1] init 0;
              [] x=0 & seen=0 -> (x'=1);
            endmodule
        """)
        assert 0 in sp.layout[sp.variable_index("x")].observers
        assert 0 in sp.layout[sp.variable_index("seen")].observers
        assert 0 not in sp.layout[sp.variable_index("hidden")].observers

    @pytest.mark.parametrize("source,message,position", [
        ("dtmc\nconst int rate = 1;", "'rate' is a reserved word", (2, 11)),
        ("dtmc\nconst int c = min(1);", "min needs at least two arguments",
         (2, 15)),
        ("dtmc\nconst int c = 1 + module;",
         "unexpected 'module' in an expression", (2, 19)),
        ("dtmc\nconst int c = ;", "expected an expression, found ';'",
         (2, 15)),
        ("ctmc\n", "unknown model class 'ctmc'", (1, 1)),
        ("dtmc\nconst double c = 1;", "unknown constant type 'double'",
         (2, 7)),
        ("dtmc\nx", "expected const, action, global, module or label, "
         "found 'x'", (2, 1)),
        ("dtmc\nmodule m\n 3;\nendmodule", "expected a variable "
         "declaration, a command or endmodule, found '3'", (3, 2)),
        ("mdp\nmodule m\n observes x;\n observes x;\n x : [0..1] init 0;"
         "\nendmodule", "duplicate observes declaration", (4, 2)),
        ('dtmc\nlabel "a b" = true;', "label name 'a b' is not an identifier",
         (2, 7)),
        (_M.format(" y : [0..x] init 0;"), "upper bound of y must be a "
         "constant expression, but 'x' is a variable", (4, 10)),
        (_M.format(" y : [0..1] init x;"), "initial value of y must be a "
         "constant expression, but 'x' is a variable", (4, 18)),
        ("dtmc\nmodule m\n x : [0..N] init 0;\nendmodule",
         "undeclared name 'N'", (3, 10)),
        ("dtmc\nmodule m\n x : [0..1] init z;\nendmodule",
         "undeclared name 'z'", (3, 18)),
        ("dtmc\nconst int c = 1;\nconst int c = 2;", "duplicate constant 'c'",
         (3, 11)),
        ("dtmc\nconst int a = b;\nconst int b = 1;", "constant a references "
         "'b', which is not a previously declared constant", (2, 11)),
        ("dtmc\nconst int c = 1/2;",
         "constant c is declared int but has type real", (2, 11)),
        ("dtmc\nconst real c = true;",
         "constant c is declared real but is boolean", (2, 12)),
        ("dtmc\nconst bool c = 1;",
         "constant c is declared bool but has type int", (2, 12)),
        ("dtmc\nconst int z = 0;\nconst real c = 1/z;", "division by zero",
         (3, 12)),
        ("dtmc\nmodule m\n b : bool init 1;\nendmodule",
         "initial value of boolean b must be boolean", (3, 2)),
        ("dtmc\nmodule m\n x : [0..1/2] init 0;\nendmodule",
         "upper bound of x must be an integer", (3, 11)),
        ("dtmc\nmodule m\n x : [1..0] init 0;\nendmodule",
         "empty range [1..0] for x", (3, 2)),
        (_M.replace("dtmc", "mdp").format(" rate(1) x=0 -> (x'=1);"),
         "rate command in a mdp model", (4, 2)),
        (_M.replace("dtmc", "ma").format(" rate(true) x=0 -> (x'=1);"),
         "rate must be a number", (4, 7)),
        (_M.format(" [] x=0 -> true:(x'=1);"), "branch weight must be a number",
         (4, 12)),
        (_M.format(" [] x=0 -> 0:(x'=1);"), "branch weight must be positive",
         (4, 12)),
        (_M.format(" [] x=0 -> -1/2:(x'=1);"),
         "branch weight must be positive", (4, 14)),
        (_M.format(" [] x=0 -> (y'=1);"),
         "assignment to undeclared variable 'y'", (4, 13)),
        (_M.format("endmodule\nmodule n\n [] x=0 -> (x'=1);"),
         "module n cannot write 'x' (local to module m)", (6, 13)),
        (_M.format(" [] x=0 -> (x'=1, x'=0);"),
         "'x' assigned twice in one branch", (4, 19)),
        (_M.format(" [] x=0 -> (x'=true);"),
         "cannot assign a bool to integer 'x'", (4, 13)),
        (_M.format(" b : bool init false;\n [] x=0 -> (b'=1);"),
         "cannot assign a int to boolean 'b'", (5, 13)),
        (_M.format("") + 'label "a" = x=0;\nlabel "a" = x=1;',
         'duplicate label "a"', (7, 7)),
        (_M.format("") + 'label "a" = x;', 'label "a" must be boolean',
         (6, 7)),
        # Expr.type, reached while folding literals
        ("dtmc\nconst int c = -true;", "'-' needs a number", (2, 15)),
        ("dtmc\nconst int c = 1 & 2;", "'&' needs boolean operands",
         (2, 17)),
        ("dtmc\nconst bool c = true = 1;",
         "cannot compare a boolean with a number", (2, 21)),
        ("dtmc\nconst int c = 1 ? 2 : 3;",
         "condition of '?:' must be boolean", (2, 17)),
        ("dtmc\nconst int c = true ? 1 : false;",
         "branches of '?:' mix boolean and number", (2, 20)),
        ("dtmc\nconst int c = min(true, false);",
         "min needs numeric arguments", (2, 15)),
        # properties
        ("Qmax=? [ F x=1 ]", "unknown property head 'Qmax'", (1, 1)),
        ("Pmax=? [ F<= x=1 ]", "expected a numeric bound after 'F<='",
         (1, 14)),
        ("Pmax=? [ F 1/0 = 1 ]", "division by zero", (1, 13)),
    ])
    def test_static_checks_name_the_fault_and_its_position(
            self, source, message, position):
        with pytest.raises(ModelSyntaxError) as err:
            if "=?" in source:
                parse_property(source, model_class=ModelClass.DTMC)
            else:
                parse_model(source)
        assert message in err.value.message
        assert (err.value.line, err.value.column) == position


def _binop(t):
    (lt, lv), op, (rt, rv) = t
    value = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]
    return (f"({lt} {op} {rt})", lambda z: value(lv(z), rv(z)))


#: (source text, expected value) pairs for random integer expressions; the
#: value is a function of a shift ``z`` added to every literal
_exprs = st.recursive(
    st.integers(-4, 4).map(lambda n: (f"({n})", lambda z: n + z)),
    lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from(["+", "-", "*"]), kids).map(_binop),
        st.tuples(kids, kids).map(
            lambda t: (f"min({t[0][0]}, {t[1][0]})",
                       lambda z: min(t[0][1](z), t[1][1](z)))),
        st.tuples(kids, kids).map(
            lambda t: (f"max({t[0][0]}, {t[1][0]})",
                       lambda z: max(t[0][1](z), t[1][1](z)))),
        st.tuples(kids, kids, kids, kids).map(
            lambda t: (f"({t[0][0]} < {t[1][0]} ? {t[2][0]} : {t[3][0]})",
                       lambda z: t[2][1](z) if t[0][1](z) < t[1][1](z)
                       else t[3][1](z))),
        kids.map(lambda c: (f"(-{c[0]})", lambda z: -c[1](z))),
    ),
    max_leaves=8,
).filter(lambda tv: abs(tv[1](0)) <= 10 ** 6)


_BINARY_OPS = sorted(op for op in PRECEDENCE if op not in ("?:", "unary"))

_literals = st.one_of(
    st.integers(-9, 9).map(IntLit),
    st.booleans().map(BoolLit),
    st.fractions(-3, 3, max_denominator=7)
    .filter(lambda q: q.denominator != 1).map(RealLit),
)


def _reading_a_name(kids, least, most=None):
    """Child tuples of ``least`` to ``most`` expressions, one of them (at any
    position) from ``kids``: the parser folds a node whose children are all
    literals."""
    most = most or least
    return st.builds(
        lambda kid, rest, i: (*rest[:i], kid, *rest[i:]),
        kids, st.lists(kids | _literals, min_size=least - 1,
                       max_size=most - 1),
        st.integers(0, most - 1))


#: Untyped ASTs as the parser builds them: every node reads a name, so none
#: is folded, and operators nest in every combination of precedence.
_asts = st.recursive(
    st.sampled_from("abxyz").map(Name),
    lambda kids: st.one_of(
        st.builds(Unary, st.sampled_from("-!"), kids),
        st.builds(lambda op, args: Binary(op, *args),
                  st.sampled_from(_BINARY_OPS), _reading_a_name(kids, 2)),
        _reading_a_name(kids, 3).map(lambda args: Cond(*args)),
        st.builds(Call, st.sampled_from(["min", "max"]),
                  _reading_a_name(kids, 2, 3)),
    ),
    max_leaves=12,
)


class TestPrettyPrinter:
    @given(_asts)
    @settings(max_examples=300, deadline=None)
    def test_pretty_reparses_to_the_same_ast(self, e):
        text = e.pretty()
        assert parse_property(f"Pmax=? [ F {text} ]").target == e, text

    @pytest.mark.parametrize("e,text", [
        (Binary("-", Name("a"), Binary("-", Name("b"), Name("c"))),
         "a - (b - c)"),
        (Binary("-", Binary("-", Name("a"), Name("b")), Name("c")),
         "a - b - c"),
        (Binary("*", Name("a"), Binary("+", Name("b"), Name("c"))),
         "a * (b + c)"),
        (Unary("-", Binary("*", Name("a"), Name("b"))), "-(a * b)"),
        (Binary("*", Name("a"), RealLit(Fraction(1, 3))), "a * (1/3)"),
        (Cond(Cond(Name("a"), Name("b"), Name("c")), Name("x"), Name("y")),
         "(a ? b : c) ? x : y"),
    ])
    def test_only_needed_parentheses_are_printed(self, e, text):
        assert e.pretty() == text


class TestExpressionEvaluation:
    @given(_exprs)
    @settings(max_examples=60, deadline=None)
    def test_integer_expressions_evaluate_like_python(self, tv):
        text, shifted = tv
        value = shifted(0)
        sp = space_of(
            "dtmc\nmodule m\n x : [-1000000..1000000] "
            f"init {text};\nendmodule")
        assert sp.state_values(0)["x"] == value
        # the same expression with every literal read through a variable
        # is compiled rather than folded by the parser
        over_z = re.sub(r"\((-?\d+)\)", r"(z + \1)", text)
        sp = space_of(
            "dtmc\nmodule m\n z : [0..1] init 0;\n"
            " x : [-1000000..1000000] init 0;\n"
            f" [] z=0 -> (z'=1, x'={over_z});\nendmodule")
        assert sp.state_values(1) == {"z": 1, "x": value}
        # on a batch of rows, one per shift z of every literal
        expr = parse_property(f"Pmax=? [ F {over_z} = 0 ]").target.left
        shifts = np.arange(-3, 4).reshape(-1, 1)
        assert expr.compile((VariableInfo("z", -3, 3),), {})(shifts) \
            .tolist() == [shifted(z) for z in range(-3, 4)]
        # the compiled code's range holds every value on the layout
        code = expr.compile((VariableInfo("z", -3, 3),), {})
        assert all(code.lo <= v <= code.hi for v in code(shifts).tolist())

    def test_a_constant_that_does_not_fold_raises_where_it_runs(self):
        expr = Binary("/", IntLit(1), Name("Z"))
        code = expr.compile((), {"Z": 0})  # compiling does not raise
        assert code.run is not None and code.kind == "real"
        with pytest.raises(EvalError, match="division by zero"):
            code(np.zeros((1, 0), dtype=np.int64))
        with pytest.raises(EvalError, match="division by zero"):
            expr.constant({"Z": 0})
        folded = expr.compile((), {"Z": 4})
        assert folded.run is None and folded.value == Fraction(1, 4)
        assert folded(np.zeros((2, 0), dtype=np.int64)).tolist() \
            == [Fraction(1, 4)] * 2

    @pytest.mark.parametrize("fn,pick", [("min", min), ("max", max)])
    def test_min_and_max_over_reals_are_exact(self, fn, pick):
        expr = parse_property(
            f"Pmax=? [ F {fn}(z/2, 1/3, z - 5/4) = 0 ]").target.left
        code = expr.compile((VariableInfo("z", -3, 3),), {})
        assert code.kind == "real"
        assert code(np.arange(-3, 4).reshape(-1, 1)).tolist() == [
            pick(Fraction(z, 2), Fraction(1, 3), z - Fraction(5, 4))
            for z in range(-3, 4)]

    def test_a_conditional_may_choose_between_booleans(self):
        sp = space_of("""
            dtmc
            module m
              x : [0..3] init 0;
              [] x<3 -> (x'=x+1);
            endmodule
            label "picked" = x<2 ? x=1 : x=3;
        """)
        assert sp.labels["picked"].tolist() == [False, True, False, True]

    def test_the_unselected_branch_of_a_conditional_never_runs(self):
        # 1/x would divide by zero at x=0, which takes the other branch
        sp = space_of("""
            dtmc
            module m
              x : [0..3] init 0;
              [] x<3 -> (x>0 ? 1/x : 1):(x'=x+1) + 1:(x'=0);
            endmodule
        """)
        assert [sp.choices[s][0].distribution.branches for s in range(3)] \
            == [((0.5, 0), (0.5, 1)), ((0.5, 0), (0.5, 2)),
                ((2 / 3, 0), (1 / 3, 3))]

    def test_values_beyond_int64_are_exact(self):
        # x * x exceeds 2**63 - 1 inside the declared bounds; int64 would
        # wrap it to a negative number
        model = """
            dtmc
            module m
              x : [0..4000000000] init 3037000500;
              y : [0..9223372036854775807] init 0;
              [] y = 0 -> (y'=VALUE);
            endmodule
            label "big" = x * x > 9223372036854775807;
        """
        sp = space_of(model.replace("VALUE", "x * x - (x * x - 7)"))
        assert sp.state_values(1)["y"] == 7
        assert sp.labels["big"].tolist() == [True, True]
        with pytest.raises(ExplorationError,
                           match=r"y := 9223372037000250000 outside"):
            space_of(model.replace("VALUE", "x * x"))


class TestExplore:
    def test_bfs_order_is_stable(self):
        sp = space_of("""
            dtmc
            module m
              x : [0..3] init 0;
              [] x<3 -> (x'=x+1);
            endmodule
        """)
        assert list(sp.valuations[:, 0]) == [0, 1, 2, 3]
        assert sp.initial == 0

    def test_state_cap(self):
        with pytest.raises(ExplorationLimit):
            explore(parse_model("""
                dtmc
                module m
                  x : [0..99] init 0;
                  [] x<99 -> (x'=x+1);
                endmodule
            """), state_cap=10)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_state_cap_below_one_is_rejected(self, cap):
        model = parse_model("""
            dtmc
            module m
              x : [0..1] init 0;
            endmodule
        """)
        with pytest.raises(ValueError, match="at least 1"):
            explore(model, state_cap=cap)

    def test_a_model_without_modules_is_rejected(self):
        with pytest.raises(ExplorationError, match="model has no modules"):
            explore(parse_model("dtmc\nconst int c = 1;"))

    def test_dtmc_nondeterminism_is_found_before_the_state_cap(self):
        # the level {x=1, x=2} overflows a cap of 3 at x=2's successor;
        # x=1, an earlier row, has two choices and is the error reported
        model = parse_model("""
            dtmc
            module m
              x : [0..3] init 0;
              [] x=0 -> 1/2:(x'=1) + 1/2:(x'=2);
              [] x=1 -> (x'=0);
              [] x=1 -> (x'=1);
              [] x=2 -> (x'=3);
            endmodule
        """)
        with pytest.raises(ExplorationError, match="dtmc state {'x': 1} "
                           "enables 2 choices"):
            explore(model, state_cap=3)

    def test_unkeyed_constant_guards(self):
        # neither guard reads x, the guard-index column: true is enabled
        # in every state, and a guard that folds to false in none
        sp = space_of("""
            mdp
            const int N = 2;
            module m
              x : [0..1] init 0;
              [go] x=0 -> (x'=1);
              [never] N<1 -> (x'=1);
              [back] true -> (x'=0);
            endmodule
        """)
        assert [[sp.actions[a] for a in sp.choice_action[
            sp.choice_ptr[s]:sp.choice_ptr[s + 1]]] for s in range(2)] \
            == [["go", "back"], ["back"]]

    def test_dtmc_deadlock_padded_with_self_loop(self):
        sp = space_of("""
            dtmc
            module m
              x : [0..1] init 0;
              [] x=0 -> (x'=1);
            endmodule
        """)
        assert sp.choices[1][0].distribution.branches == ((1.0, 1),)

    def test_ma_deadlock_is_absorbing(self):
        sp = space_of("""
            ma
            module m
              x : [0..1] init 0;
              rate(2) x=0 -> (x'=1);
            endmodule
        """)
        assert sp.choices[1] == () and sp.markovian[1] is None

    def test_maximal_progress_drops_markovian(self):
        sp = space_of("""
            ma
            module m
              x : [0..2] init 0;
              [] x=0 -> (x'=1);
              rate(3) x=0 -> (x'=2);
              rate(1) x=1 -> (x'=2);
            endmodule
        """)
        assert sp.markovian[0] is None
        assert len(sp.choices[0]) == 1
        assert sp.markovian[1] is not None and sp.markovian[1].exit_rate == 1.0

    def test_markovian_race_pools_rates(self):
        sp = space_of("""
            ma
            module m
              x : [0..2] init 0;
              rate(2) x=0 -> (x'=1);
              rate(1/2) x=0 -> (x'=2);
            endmodule
        """)
        assert sp.markovian[0].exit_rate == 2.5
        assert sp.markovian[0].entries == ((2.0, 1), (0.5, 2))

    def test_rate_command_branches_split_the_rate_by_weight(self):
        sp = space_of("""
            ma
            module m
              x : [0..2] init 0;
              rate(3/2) x=0 -> 1:(x'=1) + 2:(x'=2) + 3:(x'=1);
            endmodule
        """)
        assert sp.markovian[0].entries == ((1.0, 1), (0.5, 2))
        assert sp.markovian[0].exit_rate == 1.5

    def test_errors_name_the_state(self):
        with pytest.raises(ExplorationError,
                           match=r"in state \{'b': True, 'x': 1\}$"):
            space_of("""
                dtmc
                module m
                  b : bool init true;
                  x : [0..1] init 1;
                  [] true -> (x'=x+1);
                endmodule
            """)

    def test_out_of_bounds_assignment_is_an_error(self):
        with pytest.raises(ExplorationError):
            space_of("""
                dtmc
                module m
                  x : [0..1] init 0;
                  [] true -> (x'=x+1);
                endmodule
            """)

    def test_nonpositive_runtime_weight_is_an_error(self):
        with pytest.raises(ExplorationError):
            space_of("""
                dtmc
                module m
                  x : [0..2] init 0;
                  [] x<2 -> x:(x'=1) + 1:(x'=2);
                endmodule
            """)

    def test_nonpositive_runtime_rate_is_an_error(self):
        with pytest.raises(ExplorationError):
            space_of("""
                ma
                module m
                  x : [0..1] init 0;
                  rate(x) x=0 -> (x'=1);
                endmodule
            """)

    def test_dtmc_must_be_deterministic(self):
        with pytest.raises(ExplorationError):
            space_of("""
                dtmc
                module m
                  x : [0..1] init 0;
                  [] x=0 -> (x'=1);
                  [] x=0 -> (x'=0);
                endmodule
            """)

    def test_labels_become_masks(self, coin_dtmc):
        assert coin_dtmc.labels["heads"].dtype == bool
        assert coin_dtmc.labels["heads"].sum() == 1


class TestErrorOrder:
    """A model error is the one that expanding the states one at a time,
    in discovery order, would raise first, and within a state, the first
    in command and assignment order."""

    @staticmethod
    def _error(source: str, **kwargs) -> str:
        with pytest.raises(ExplorationError) as info:
            explore(parse_model(source), **kwargs)
        return str(info.value)

    def test_assignments_fail_in_order_within_a_row(self):
        source = """
            mdp
            module m
              x : [0..4] init 0;
              y : [0..1] init 0;
              z : [0..1] init 0;
              [] x=0 -> (UPDATE);
            endmodule
        """
        state = "in state {'x': 0, 'y': 0, 'z': 0}"
        assert self._error(source.replace(
            "UPDATE", "x'=5, z'=(1/y > 0 ? 1 : 0)")) \
            == f"line 7: assignment x := 5 outside [0..4] {state}"
        assert self._error(source.replace(
            "UPDATE", "z'=(1/y > 0 ? 1 : 0), x'=5")) \
            == f"division by zero {state}"

    def test_synchronised_range_error_before_the_conflict(self):
        source = """
            mdp
            global g : [0..2] init 0;
            module a
              x : [0..1] init 0;
              [go] x=0 -> (g'=VALUE);
            endmodule
            module b
              y : [0..1] init 0;
              [go] y=0 -> (g'=1);
            endmodule
        """
        state = "in state {'g': 0, 'x': 0, 'y': 0}"
        assert self._error(source.replace("VALUE", "3")) \
            == f"line 6: assignment g := 3 outside [0..2] {state}"
        assert self._error(source.replace("VALUE", "2")) \
            == f"line 6: conflicting synchronized writes to 'g' on " \
               f"action 'go' {state}"

    def test_first_row_wins_over_an_earlier_command(self):
        # the second row fails in the second command, the first row only
        # in the third
        assert self._error("""
            mdp
            module m
              x : [0..9] init 0;
              y : [0..1] init 0;
              [] x=0 -> 1/2:(x'=1, y'=0) + 1/2:(x'=1, y'=1);
              [] x=1 & y=1 -> (x'=x+10);
              [] x=1 & y=0 -> (x'=x+20);
            endmodule
        """) == "line 8: assignment x := 21 outside [0..9] " \
                "in state {'x': 1, 'y': 0}"

    def test_weight_fails_before_a_later_command(self):
        assert self._error("""
            mdp
            module m
              x : [0..9] init 0;
              y : [0..1] init 0;
              [] x=0 -> 1/y:(x'=1) + 1:(x'=2);
              [] x=0 -> (x'=x+20);
            endmodule
        """) == "division by zero in state {'x': 0, 'y': 0}"

    def test_rows_before_the_failing_row_are_admitted(self):
        # four states before the failing level; its first two rows add two
        # more, the third fails
        model = parse_model("""
            mdp
            module m
              x : [0..9] init 0;
              y : [0..2] init 0;
              [] x=0 -> 1/3:(x'=1, y'=0) + 1/3:(x'=1, y'=1)
                        + 1/3:(x'=1, y'=2);
              [] x=1 & y<2 -> (x'=2+y);
              [] x=1 & y=2 -> (x'=x+20);
            endmodule
        """)
        with pytest.raises(ExplorationLimit):
            explore(model, state_cap=5)
        with pytest.raises(ExplorationError) as info:
            explore(model, state_cap=6)
        assert str(info.value) == "line 9: assignment x := 21 outside " \
                                  "[0..9] in state {'x': 1, 'y': 2}"


#: guard conjuncts (variable, operator, constant, constant on the left)
_tests = st.tuples(st.sampled_from("xy"),
                   st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                   st.integers(-1, 4), st.booleans())
#: assigned values a*x + b*y + d
_sums = st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-2, 2))
_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class TestRangeProof:
    """An assignment proven in range skips the range check, so the proof
    must hold wherever the guard does; it is what keeps narrow levels
    fast, so it must also find the simple cases."""

    @staticmethod
    def _proven(guard: str, *updates: str) -> list[bool]:
        explorer = _Explorer(parse_model(f"""
            mdp
            const int N = 3;
            module m
              x : [0..N] init 0;
              y : [0..1] init 0;
              [] {guard} -> ({", ".join(updates)});
            endmodule
        """), DEFAULT_STATE_CAP, "")
        [cmd] = explorer.cmds[0]
        return [proven for _, part in cmd.branches
                for _, _, proven in part]

    @pytest.mark.parametrize("guard, update, proven", [
        ("x<N", "x'=x+1", True),
        ("N > x", "x'=x+1", True),
        ("true", "x'=x+1", False),
        ("x<N | y=0", "x'=x+1", False),
        ("x<N", "x'=N+1", False),
        ("x<N", "x'=N", True),
        ("x<=N", "x'=x+1", False),
        ("0 < x", "x'=x-1", True),
        ("x>=0", "x'=x-1", False),
        ("x < (false ? x : N)", "x'=x+1", True),
    ])
    def test_assignment_flags(self, guard, update, proven):
        assert self._proven(guard, update) == [proven]

    @given(st.lists(_tests, min_size=1, max_size=3),
           st.none() | _tests, _sums, _sums)
    @settings(max_examples=200, deadline=None)
    def test_proven_values_stay_in_range(self, conjuncts, alternative,
                                         to_x, to_y):
        def text(test):
            name, op, k, flipped = test
            return f"{k} {op} {name}" if flipped else f"{name} {op} {k}"

        guard = " & ".join(map(text, conjuncts))
        if alternative is not None:
            guard = f"({guard}) | {text(alternative)}"
        sums = [f"({a})*x + ({b})*y + ({d})" for a, b, d in (to_x, to_y)]
        proven = self._proven(guard, f"x'={sums[0]}", f"y'={sums[1]}")

        def holds(test, x, y):
            name, op, k, flipped = test
            value = {"x": x, "y": y}[name]
            return _COMPARE[op](k, value) if flipped \
                else _COMPARE[op](value, k)

        rows = [(x, y) for x in range(4) for y in range(2)
                if all(holds(t, x, y) for t in conjuncts)
                or alternative is not None and holds(alternative, x, y)]
        # a guard of comparisons other than != holds on a box, where the
        # bounds of a linear sum are exact
        box = rows and alternative is None \
            and all(op != "!=" for _, op, _, _ in conjuncts)
        for ok, (a, b, d), hi in zip(proven, (to_x, to_y), (3, 1)):
            inside = all(0 <= a * x + b * y + d <= hi for x, y in rows)
            assert inside or not ok, guard
            assert ok == inside or not box, guard


class TestSynchronisation:
    SYNC = """
        mdp
        module a
          x : [0..1] init 0;
          [go] x=0 -> 1/3:(x'=0) + 2/3:(x'=1);
        endmodule
        module b
          y : [0..1] init 0;
          [go] y=0 -> 1/4:(y'=0) + 3/4:(y'=1);
        endmodule
    """

    def test_full_synchronisation_multiplies_weights_exactly(self):
        sp = space_of(self.SYNC)
        (choice,) = sp.choices[0]
        assert choice.action == "go"
        probs = dict((t, p) for p, t in choice.distribution.branches)
        assert probs[0] == 1 / 12  # both stay
        assert sum(probs.values()) == pytest.approx(1.0, abs=0)

    def test_synchronised_weights_are_normalised_per_command(self):
        scaled = self.SYNC.replace("1/3:", "2:").replace("2/3:", "4:") \
            .replace("1/4:", "5:").replace("3/4:", "15:")
        assert space_of(scaled).choices == space_of(self.SYNC).choices

    def test_sync_blocked_when_one_participant_is_disabled(self):
        sp = space_of("""
            mdp
            module a
              x : [0..1] init 0;
              [go] x=0 -> (x'=1);
              [] x=0 -> (x'=0);
            endmodule
            module b
              y : [0..1] init 1;
              [go] y=0 -> (y'=1);
            endmodule
        """)
        # only the solo command of a fires; the sync is blocked by b
        assert [c.action for c in sp.choices[0]] == [None]

    def test_sync_owner_is_the_deciding_participant(self):
        sp = space_of("""
            mdp
            module a
              x : [0..1] init 0;
              [go] x=0 -> (x'=1);
            endmodule
            module b
              y : [0..2] init 0;
              [go] y=0 -> (y'=1);
              [go] y=0 -> (y'=2);
            endmodule
        """)
        owners = {c.owner for c in sp.choices[0]}
        assert owners == {1}  # b has two enabled commands, so b decides

    def test_sync_owner_defaults_to_lowest_participant(self):
        sp = space_of(self.SYNC)
        assert sp.choices[0][0].owner == 0

    def test_action_shared_by_one_module_does_not_self_synchronise(self):
        sp = space_of("""
            mdp
            module a
              x : [0..2] init 0;
              [go] x=0 -> (x'=1);
            endmodule
            module b
              y : [0..1] init 0;
              [] y=0 -> (y'=1);
            endmodule
        """)
        # 'go' is used by a single process: it fires alone
        actions = sorted((c.action or "") for c in sp.choices[0])
        assert actions == ["", "go"]


def _unindexed(model):
    """``model`` with every guard ``g`` rewritten to ``true & (g)``, whose
    leftmost conjunct is no equality, so the explorer indexes nothing."""
    return replace(model, processes=tuple(
        replace(p, commands=tuple(
            replace(c, guard=Binary("&", BoolLit(True), c.guard))
            for c in p.commands))
        for p in model.processes))


def _key_columns(model):
    """The guard-index key column of each process (None: no index)."""
    return [col for col, _, _ in
            _Explorer(model, DEFAULT_STATE_CAP, "").guard_index]


class TestGuardIndex:
    """The explorer tries, per process, only the commands whose leading
    ``x = c`` conjunct matches the state, plus the unindexed ones.  Each
    model here must explore to exactly the arrays of its twin in which
    nothing is indexed."""

    # reversed, constant-expression, bool, never-matching, '|' and '!'
    # guards, indexed and unindexed commands interleaved, and an action
    # synchronised across two processes
    MDP = """
        mdp
        const int N = 4;
        const real H = 1/2;
        global g : bool init false;
        module a
          x : [0..4] init 0;
          [] x = 0 -> 1/2:(x'=1) + 1/2:(x'=2);
          [] x > 2 -> (x'=0);
          [] 2 = x & !g -> (g'=true);
          [] x = N-1 -> 2:(x'=N) + 1:(x'=0);
          [] x = H -> (x'=0);
          [] x = 1 | x = 4 -> (x'=3);
          [] !(x = 2) & g -> (g'=false);
          [sync] x = 2 -> (x'=3);
          [sync] N-2 = x & g -> (x'=4);
          [] x = (true ? 3 : x) & g -> (g'=false);
        endmodule
        module c
          y : [0..2] init 0;
          [sync] y < 2 -> (y'=y+1);
          [sync] g = true & y = 0 -> (y'=2);
          [] true = g & y = 2 -> (y'=0);
          [] g = false & y = 1 -> (y'=2);
        endmodule
        label "done" = x = 4 & y = 2;
    """

    MA = """
        ma
        module m
          x : [0..3] init 0;
          rate(2) x = 0 -> 1:(x'=1) + 3:(x'=2);
          rate(1) x = 1 -> (x'=3);
          [] x = 2 -> 1:(x'=3) + 1:(x'=0);
          rate(5) x >= 2 -> (x'=0);
          rate(1) 3 = x -> (x'=1);
        endmodule
    """

    @staticmethod
    def _assert_same_space(a, b):
        assert np.array_equal(a.valuations, b.valuations)
        for name in _INT_ARRAYS + _FLOAT_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.actions == b.actions and a.initial == b.initial
        assert a.labels.keys() == b.labels.keys()
        for name in a.labels:
            assert np.array_equal(a.labels[name], b.labels[name])

    @pytest.mark.parametrize("source, keys", [(MDP, [1, 0]), (MA, [0])],
                             ids=["mdp", "ma"])
    def test_index_explores_like_its_unindexed_twin(self, source, keys):
        model = parse_model(source)
        twin = _unindexed(model)
        # a keys on x (column 1), c on the global g (column 0)
        assert _key_columns(model) == keys
        assert _key_columns(twin) == [None] * len(keys)
        space = explore(model)
        assert space.n_states >= 4
        self._assert_same_space(space, explore(twin))

    def test_error_before_the_key_conjunct_is_still_raised(self):
        source = """
            mdp
            module m
              x : [0..2] init 0;
              y : [0..1] init 0;
              [] x = 0 -> (x'=2);
              [] GUARD -> (x'=0);
            endmodule
        """
        with pytest.raises(ExplorationError, match="division by zero"):
            explore(parse_model(source.replace("GUARD", "10/y > 1 & x = 1")))
        # Python's ``and`` never evaluates 10/y when x = 1 is false, so
        # this model has always explored, and the index skips nothing more
        assert explore(parse_model(
            source.replace("GUARD", "x = 1 & 10/y > 1"))).n_states == 2

    def test_candidates_run_in_command_order(self):
        # both commands fail at x = 0; the unindexed one comes first
        with pytest.raises(ExplorationError, match="x := 2 outside"):
            explore(parse_model("""
                mdp
                module m
                  x : [0..1] init 0;
                  [] x < 1 -> (x'=2);
                  [] x = 0 -> (x'=3);
                endmodule
            """))

    def test_guard_calls_are_bounded_by_the_candidates(self):
        n = 200
        lines = ["dtmc", "module ladder", f"  x : [0..{n + 1}] init 1;"]
        lines += [f"  [] x={k} -> 1/2:(x'={k + 1}) + 1/2:(x'={k - 1});"
                  for k in range(1, n + 1)]
        # unindexed commands, and a second command in one bucket; none is
        # ever enabled where another command is
        lines += [f"  [] x > {n + 1} -> (x'=0);", "  [] x < 0 -> (x'=0);",
                  f"  [] x = {n // 2} & x < 0 -> (x'=0);", "endmodule"]
        explorer = _Explorer(parse_model("\n".join(lines)),
                             DEFAULT_STATE_CAP, "")
        rows = 0

        def counted(guard):
            def call(V):
                nonlocal rows
                rows += len(V)
                return guard(V)
            return call

        for cmd in explorer.cmds[0]:
            # a guard that is only its key test holds on all its rows and
            # runs on none
            if callable(cmd.guard):
                cmd.guard = counted(cmd.guard)
        space = explorer.run()
        assert space.n_states == n + 2
        largest_bucket, unindexed = 2, 2
        assert rows <= space.n_states * (largest_bucket + unindexed)


class TestGoodForDistribution:
    def test_interleaved_solo_commands_are_flagged(self):
        sp = space_of(INTERLEAVED_MDP)
        assert check_good_for_distribution(sp) == [0]

    def test_single_module_is_good(self, coin_dtmc):
        assert check_good_for_distribution(coin_dtmc) == []


class TestProperties:
    def test_quoted_label_target(self):
        p = parse_property('Pmax=? [ F "goal" ]')
        assert (p.kind, p.direction, p.target) == (
            PropertyKind.REACH_PROB, Direction.MAX, "goal")
        assert p.bound is None

    def test_bare_label_target(self):
        p = parse_property('Tmin=? [ F done ]', labels={"done": None})
        assert p.kind is PropertyKind.EXPECTED_TIME
        assert p.target == "done"

    def test_step_bound_needs_model_class(self):
        with pytest.raises(ValueError):
            parse_property('Pmax=? [ F<=10 "goal" ]')
        p = parse_property('Pmax=? [ F<=10 "goal" ]',
                           model_class=ModelClass.DTMC)
        assert p.kind is PropertyKind.STEP_BOUNDED_REACH_PROB
        assert p.bound == 10

    def test_time_bound_is_minutes_for_ma(self):
        p = parse_property('Pmin=? [ F<=10.5 "goal" ]',
                           model_class=ModelClass.MA)
        assert p.kind is PropertyKind.TIME_BOUNDED_REACH_PROB
        assert p.bound == 10.5
        # integer literals are accepted and coerced
        q = parse_property('Pmin=? [ F<=10 "goal" ]', model_class=ModelClass.MA)
        assert isinstance(q.bound, float) and q.bound == 10.0

    def test_fractional_step_bound_rejected(self):
        with pytest.raises(ModelSyntaxError):
            parse_property('Pmax=? [ F<=2.5 "goal" ]',
                           model_class=ModelClass.DTMC)

    def test_expression_target(self):
        sp = space_of("""
            dtmc
            const int K = 1;
            module m
              x : [0..2] init 0;
              [] x<2 -> (x'=x+1);
            endmodule
        """)
        p = parse_property('Pmax=? [ F x >= K + 1 ]')
        mask = target_mask(sp, p.target, {"K": 1})
        assert list(mask) == [False, False, True]

    def test_kind_model_compatibility_enforced(self):
        with pytest.raises(ModelSyntaxError):
            parse_property('Tmin=? [ F "goal" ]', model_class=ModelClass.DTMC)
        with pytest.raises(ModelSyntaxError):
            parse_property('Pmax=? [ F<=3 "g" ]', model_class=ModelClass.MA,
                           labels={})

    def test_unknown_label_rejected_when_labels_known(self):
        with pytest.raises(ModelSyntaxError):
            parse_property('Pmax=? [ F "nope" ]', labels={"goal": None})

    def test_only_reachability_is_supported(self):
        with pytest.raises(ModelSyntaxError):
            parse_property('Pmax=? [ G "goal" ]')

    def test_trailing_junk_rejected(self):
        with pytest.raises(ModelSyntaxError):
            parse_property('Pmax=? [ F "goal" ] extra')

    def test_expected_time_takes_no_bound(self):
        with pytest.raises(ModelSyntaxError):
            parse_property('Tmin=? [ F<=3 "goal" ]', model_class=ModelClass.MA)

    def test_properties_file(self):
        props = parse_properties("""
            // two queries, one per line
            Pmax=? [ F "goal" ]

            Tmin=? [ F "goal" ]  // trailing comment
        """, model_class=ModelClass.MA)
        assert [p.kind for p in props] == [
            PropertyKind.REACH_PROB, PropertyKind.EXPECTED_TIME]
        assert props[0].text == 'Pmax=? [ F "goal" ]'
