"""Language front end: lexing, parsing, semantic checks, exploration."""
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmv.core import Direction, ModelClass, PropertyKind, target_mask
from qmv.lang import (
    Binary,
    BoolLit,
    Call,
    Cond,
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
from qmv.lang.explore import check_good_for_distribution, explore
from qmv.lang.lexer import KEYWORDS, tokenize

from conftest import INTERLEAVED_MDP, space_of


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


def _binop(t):
    (lt, lv), op, (rt, rv) = t
    value = {"+": lv + rv, "-": lv - rv, "*": lv * rv}[op]
    return (f"({lt} {op} {rt})", value)


#: (source text, expected value) pairs for random integer expressions.
_exprs = st.recursive(
    st.integers(-4, 4).map(lambda n: (f"({n})", n)),
    lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from(["+", "-", "*"]), kids).map(_binop),
        st.tuples(kids, kids).map(
            lambda t: (f"min({t[0][0]}, {t[1][0]})", min(t[0][1], t[1][1]))),
        st.tuples(kids, kids).map(
            lambda t: (f"max({t[0][0]}, {t[1][0]})", max(t[0][1], t[1][1]))),
        st.tuples(kids, kids, kids, kids).map(
            lambda t: (f"({t[0][0]} < {t[1][0]} ? {t[2][0]} : {t[3][0]})",
                       t[2][1] if t[0][1] < t[1][1] else t[3][1])),
        kids.map(lambda c: (f"(-{c[0]})", -c[1])),
    ),
    max_leaves=8,
).filter(lambda tv: abs(tv[1]) <= 10 ** 6)


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
        text, value = tv
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
