"""Shared model types: distributions, state spaces, properties, validation."""
from fractions import Fraction

import numpy as np
import pytest

from qmv.core import (
    Choice,
    Direction,
    Distribution,
    ExplicitStateSpace,
    MarkovianTransitions,
    ModelClass,
    Property,
    PropertyKind,
    VariableInfo,
    decision_states,
    scheduler_owner,
    target_mask,
    validate,
)
from qmv.lang import Binary, Name

from conftest import direct_space


class TestDistribution:
    def test_build_normalises_exactly_for_exact_weights(self):
        d = Distribution.build([(1, 0), (9, 1)])
        assert d.branches == ((0.1, 0), (0.9, 1))

    def test_build_fraction_weights(self):
        d = Distribution.build([(Fraction(1, 3), 0), (Fraction(2, 3), 1)])
        assert d.branches == ((float(Fraction(1, 3)), 0),
                              (float(Fraction(2, 3)), 1))

    def test_build_merges_duplicate_targets(self):
        d = Distribution.build([(1, 2), (1, 0), (2, 2)])
        assert d.branches == ((0.25, 0), (0.75, 2))

    def test_build_sorts_by_target(self):
        d = Distribution.build([(1, 5), (1, 1), (2, 3)])
        assert d.support() == (1, 3, 5)

    def test_build_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Distribution.build([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            Distribution.build([(-1, 0), (2, 1)])

    def test_build_rejects_empty(self):
        with pytest.raises(ValueError):
            Distribution.build([])

    def test_build_rejects_bool_weight(self):
        with pytest.raises(TypeError):
            Distribution.build([(True, 0)])

    def test_direct_constructor_validates(self):
        with pytest.raises(ValueError):
            Distribution(())
        with pytest.raises(ValueError):
            Distribution(((0.5, 0), (0.5, 0)))  # duplicate target
        with pytest.raises(ValueError):
            Distribution(((0.5, 0), (0.4, 1)))  # sums to 0.9
        with pytest.raises(ValueError):
            Distribution(((1.5, 0),))  # outside (0, 1]

    def test_len_and_support(self):
        d = Distribution.build([(1, 0), (1, 1)])
        assert len(d) == 2
        assert d.support() == (0, 1)


class TestMarkovianTransitions:
    def test_build_sums_exit_rate_and_merges(self):
        mk = MarkovianTransitions.build([(2.0, 1), (0.5, 0), (1.0, 1)])
        assert mk.entries == ((0.5, 0), (3.0, 1))
        assert mk.exit_rate == 3.5
        assert not mk.masked

    def test_jump_distribution_normalises_rates(self):
        mk = MarkovianTransitions.build([(1, 0), (3, 1)])
        assert mk.jump_distribution().branches == ((0.25, 0), (0.75, 1))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            MarkovianTransitions.build([(0.0, 0)])
        with pytest.raises(ValueError):
            MarkovianTransitions.build([(-2.0, 0)])

    def test_rejects_inconsistent_exit_rate(self):
        with pytest.raises(ValueError):
            MarkovianTransitions(((1.0, 0),), exit_rate=2.0)


class TestExplicitStateSpace:
    def test_valuations_are_frozen(self, coin_dtmc):
        with pytest.raises(ValueError):
            coin_dtmc.valuations[0, 0] = 7

    def test_shape_must_match_layout(self):
        with pytest.raises(ValueError):
            ExplicitStateSpace(
                model_class=ModelClass.DTMC,
                layout=(VariableInfo("x", 0, 1),),
                valuations=np.zeros((2, 2), dtype=np.int64),
                choices=((), ()),
                markovian=(None, None),
                initial=0,
                components=("m",),
            )

    def test_variable_index_and_state_values(self, coin_dtmc):
        assert coin_dtmc.variable_index("x") == 0
        with pytest.raises(KeyError):
            coin_dtmc.variable_index("nope")
        assert coin_dtmc.state_values(coin_dtmc.initial) == {"x": 0}

    def test_transition_count(self, coin_dtmc):
        # one split plus two padded self-loops
        assert coin_dtmc.transition_count() == 4


class TestTargetMask:
    def test_ndarray_passthrough_and_shape_check(self, coin_dtmc):
        mask = np.zeros(coin_dtmc.n_states, dtype=bool)
        mask[1] = True
        out = target_mask(coin_dtmc, mask)
        assert out.dtype == bool and out[1]
        with pytest.raises(ValueError):
            target_mask(coin_dtmc, np.zeros(99, dtype=bool))

    def test_label_lookup(self, coin_dtmc):
        assert target_mask(coin_dtmc, "heads").sum() == 1
        with pytest.raises(KeyError):
            target_mask(coin_dtmc, "tails")

    def test_expression_object_with_constants(self, coin_dtmc):
        expr = Binary("=", Name("x"), Name("WANT"))
        out = target_mask(coin_dtmc, expr, constants={"WANT": 2})
        assert list(np.flatnonzero(out)) == [
            int(np.flatnonzero(coin_dtmc.valuations[:, 0] == 2)[0])
        ]

    def test_unknown_target_type(self, coin_dtmc):
        with pytest.raises(TypeError):
            target_mask(coin_dtmc, 42)
        with pytest.raises(TypeError):
            target_mask(coin_dtmc, lambda v: v["x"] >= 1)


class TestValidate:
    def test_wellformed_space_is_clean(self, coin_dtmc):
        assert validate(coin_dtmc) == []

    def test_dtmc_needs_exactly_one_choice(self):
        sp = direct_space(ModelClass.DTMC, [[[(1, 1)], [(1, 0)]], [[(1, 1)]]])
        rules = {v.rule for v in validate(sp)}
        assert "dtmc_choice" in rules

    def test_branch_target_out_of_range(self):
        sp = direct_space(ModelClass.MDP, [[[(1, 1)]], [[(1, 1)]]])
        # rebuild one choice with a dangling target
        bad = list(sp.choices)
        bad[0] = (Choice(None, 0, Distribution(((1.0, 99),))),)
        sp.choices = tuple(bad)
        rules = {v.rule for v in validate(sp)}
        assert "target" in rules

    def test_initial_out_of_range(self):
        sp = direct_space(ModelClass.MDP, [[[(1, 0)]]], initial=5)
        rules = {v.rule for v in validate(sp)}
        assert "initial" in rules

    def test_ma_masking_consistency(self):
        sp = direct_space(
            ModelClass.MA,
            [[[(1, 1)]], []],
            markovian={0: [(1.0, 1)], 1: [(2.0, 0)]},
        )
        assert validate(sp) == []
        # un-mask state 0 although it has an immediate choice
        mks = list(sp.markovian)
        mks[0] = MarkovianTransitions(((1.0, 1),), 1.0, masked=False)
        sp.markovian = tuple(mks)
        rules = {v.rule for v in validate(sp)}
        assert "masking" in rules


class TestSchedulerOwner:
    def test_single_owner(self):
        sp = direct_space(
            ModelClass.MDP,
            [[[(1, 1)], [(1, 0)]], [[(1, 1)]]],
            owners={0: 1, 1: 0},
        )
        assert scheduler_owner(sp, 0) == 1
        assert decision_states(sp) == [0]

    def test_mixed_owners_rejected(self):
        sp = direct_space(ModelClass.MDP, [[[(1, 1)], [(1, 0)]], [[(1, 1)]]])
        mixed = (
            Choice(None, 0, Distribution(((1.0, 1),))),
            Choice(None, 1, Distribution(((1.0, 0),))),
        )
        sp.choices = (mixed,) + sp.choices[1:]
        sp.components = ("m0", "m1")
        with pytest.raises(ValueError):
            scheduler_owner(sp, 0)


class TestProperty:
    def test_bound_required_for_bounded_kinds(self):
        with pytest.raises(ValueError):
            Property(PropertyKind.STEP_BOUNDED_REACH_PROB, Direction.MAX, "g")
        with pytest.raises(ValueError):
            Property(PropertyKind.TIME_BOUNDED_REACH_PROB, Direction.MIN, "g")

    def test_bound_forbidden_for_unbounded_kinds(self):
        with pytest.raises(ValueError):
            Property(PropertyKind.REACH_PROB, Direction.MAX, "g", bound=3)
        with pytest.raises(ValueError):
            Property(PropertyKind.EXPECTED_TIME, Direction.MIN, "g", bound=1.0)

    def test_compatibility_matrix(self):
        p = Property(PropertyKind.EXPECTED_TIME, Direction.MIN, "g")
        assert p.compatible_with(ModelClass.MA)
        assert not p.compatible_with(ModelClass.DTMC)
        q = Property(PropertyKind.STEP_BOUNDED_REACH_PROB, Direction.MAX,
                     "g", bound=5)
        assert q.compatible_with(ModelClass.DTMC)
        assert not q.compatible_with(ModelClass.MA)
