"""Shared model types: the state-space builder and its arrays, properties,
target masks, validation."""
import hashlib
import math
from dataclasses import replace
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from qmv.casestudies import (
    BitcoinParams,
    Contact,
    ContactPlan,
    NocParams,
    gen_bitcoin,
    gen_contact_mdp,
    gen_noc,
    parse_contact_plan,
    sample_contact_plan,
)
from qmv.core import (
    Direction,
    ModelClass,
    Property,
    PropertyKind,
    SpaceBuilder,
    VariableInfo,
    _FLOAT_ARRAYS,
    _INT_ARRAYS,
    _normalise,
    check_good_for_distribution,
    decision_states,
    scheduler_owner,
    target_mask,
    validate,
)
from qmv.lang import Binary, Name

from conftest import direct_space, space_of


def _written(*choices):
    """The branches one builder writes for a run of single-choice states;
    a later state may reuse an earlier state's normalisation."""
    builder = SpaceBuilder()
    for weighted in choices:
        builder.add_state([(None, 0, weighted)])
    sp = builder.build(ModelClass.MDP, (), np.zeros((len(choices), 0)),
                       components=("m",))
    return [cs[0].distribution for cs in sp.choices]


def _branches(weighted):
    """The branches the builder writes for a single choice."""
    (distribution,) = _written(weighted)
    return distribution


def _rules(sp):
    return {v.rule for v in validate(sp)}


class TestDistribution:
    def test_build_normalises_exactly_for_exact_weights(self):
        d = _branches([(1, 0), (9, 1)])
        assert d.branches == ((0.1, 0), (0.9, 1))

    def test_build_fraction_weights(self):
        d = _branches([(Fraction(1, 3), 0), (Fraction(2, 3), 1)])
        assert d.branches == ((float(Fraction(1, 3)), 0),
                              (float(Fraction(2, 3)), 1))

    def test_build_merges_duplicate_targets(self):
        d = _branches([(1, 2), (1, 0), (2, 2)])
        assert d.branches == ((0.25, 0), (0.75, 2))

    def test_build_sorts_by_target(self):
        d = _branches([(1, 5), (1, 1), (2, 3)])
        assert [t for _, t in d.branches] == [1, 3, 5]

    def test_build_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            _branches([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            _branches([(-1, 0), (2, 1)])

    def test_build_rejects_empty(self):
        with pytest.raises(ValueError):
            _branches([])

    def test_build_rejects_bool_weight(self):
        with pytest.raises(TypeError):
            _branches([(True, 0)])

    def test_weight_patterns_of_equal_value_keep_their_own_rounding(self):
        # 3, 3.0 and Fraction(3) are equal and hash alike, but beside 1/3 the
        # exact and the float path round differently
        third = Fraction(1, 3)
        patterns = [[(third, 0), (w, 1)] for w in (3, 3.0, Fraction(3))]
        patterns += [[(w, 0)] for w in (1, 1.0, Fraction(1))]

        def uncached(weighted):
            targets, probs = _normalise(weighted)
            return tuple(zip(probs, targets))

        written = [d.branches for d in _written(*patterns, *patterns)]
        assert written == [uncached(p) for p in patterns] * 2
        assert written[0] == ((0.1, 0), (0.9, 1)) != written[1]

    def test_rejected_weights_raise_on_every_state(self):
        for bad, error in ((True, TypeError), ("1", TypeError),
                           (0, ValueError), (-1, ValueError)):
            builder = SpaceBuilder()
            for _ in range(2):
                with pytest.raises(error):
                    builder.add_state([(None, 0, [(bad, 0), (1, 1)])])

    def test_a_zero_in_an_array_weight_is_rejected(self):
        # state 1's first branch weighs 0 in the per-row weight array
        with pytest.raises(ValueError, match="^non-positive weight 0$"):
            SpaceBuilder().add_states(2, [([0, 1], None, 0,
                                           [np.array([1, 0]), 1],
                                           [[0, 1], [1, 0]])])

    def test_duplicate_targets_merge_after_a_distinct_pattern(self):
        assert [d.branches for d in _written(
            [(1, 2), (1, 0), (2, 1)], [(1, 2), (1, 0), (2, 2)])] == [
            ((0.25, 0), (0.5, 1), (0.25, 2)), ((0.25, 0), (0.75, 2))]

    def test_permuted_targets_of_one_pattern_come_out_sorted(self):
        assert [d.branches for d in _written(
            [(1, 2), (3, 0)], [(1, 0), (3, 2)], [(3, 0), (1, 2)])] == [
            ((0.75, 0), (0.25, 2)), ((0.25, 0), (0.75, 2)),
            ((0.75, 0), (0.25, 2))]

    @staticmethod
    def _groups(rng: Random, count: int, races: bool) -> list[tuple]:
        """Seeded groups (rows, action, owner, weights, targets), or
        (rows, rates, targets) for ``races``, over ``count`` states; some
        are empty, and targets often repeat within a row."""
        groups = []
        for _ in range(rng.randint(1, 6)):
            rows = sorted(rng.sample(range(count), rng.randint(0, count)))
            n, b = len(rows), rng.randint(1, 4)
            # a float beside a per-row array has no exact sum
            last = "array" if rng.random() < 0.4 else "float"
            weights = []
            for _ in range(b):
                kind = rng.choice(["int", "fraction", last])
                if kind == "int":
                    weights.append(rng.randint(1, 4))
                elif kind == "fraction":
                    weights.append(Fraction(rng.randint(1, 9),
                                            rng.randint(1, 9)))
                elif kind == "float":
                    weights.append(rng.choice([0.5, 1.0, 2.25]))
                elif rng.random() < 0.5:  # one exact weight per row
                    weights.append(np.array([rng.randint(1, 5) for _ in rows]))
                else:
                    weights.append(np.array(
                        [rng.choice([2, Fraction(rng.randint(1, 9), 7)])
                         for _ in rows], dtype=object))
            targets = np.array([[rng.randrange(min(count, 3))
                                 for _ in range(b)] for _ in rows],
                               dtype=np.int64).reshape(n, b)
            if races:
                groups.append((rows, weights, targets))
                continue
            owner = np.array([rng.randint(0, 2) for _ in rows]) \
                if rng.random() < 0.3 else rng.randint(0, 2)
            groups.append((rows, rng.choice([None, "a", "b"]), owner,
                           weights, targets))
        return groups

    @staticmethod
    def _one_row(group: tuple) -> list[tuple]:
        """``group`` as one group per row, in row order."""
        *head, weights, targets = group
        rows = head[0]
        return [(rows[i:i + 1], *(
            x[i:i + 1] if isinstance(x, np.ndarray) else x for x in head[1:]),
            [w[i:i + 1] if isinstance(w, np.ndarray) else w for w in weights],
            targets[i:i + 1]) for i in range(len(rows))]

    @pytest.mark.parametrize("seed", range(40))
    def test_many_row_and_one_row_groups_give_the_same_arrays(self, seed):
        rng = Random(seed)
        count = rng.randint(1, 8)
        choices = self._groups(rng, count, races=False)
        races = self._groups(rng, count, races=True)
        spaces = []
        for split in (False, True):
            builder = SpaceBuilder()
            if split:
                builder.add_states(
                    count, [g for c in choices for g in self._one_row(c)],
                    [g for r in races for g in self._one_row(r)])
            else:
                builder.add_states(count, choices, races)
            spaces.append(builder.build(
                ModelClass.MA, (), np.zeros((count, 0), dtype=np.int64),
                components=("p", "q", "r")))
        grouped, single = spaces
        assert grouped.actions == single.actions
        for name in _INT_ARRAYS + _FLOAT_ARRAYS:
            a, b = getattr(grouped, name), getattr(single, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert validate(grouped) == []

    def test_direct_constructor_validates(self):
        # arrays given directly are not checked on construction, but by
        # validate(): one malformed choice of state 0 per case
        sp = direct_space(ModelClass.MDP, [[[(1, 0), (1, 1)]], [[(1, 1)]]])
        assert validate(sp) == []
        cases = {
            "empty_choice": dict(branch_ptr=[0, 0, 1], branch_prob=[1.0],
                                 branch_target=[1]),
            "duplicate_target": dict(branch_target=[0, 0, 1]),
            "distribution_sum": dict(branch_prob=[0.5, 0.4, 1.0]),
            "probability": dict(branch_prob=[1.5, -0.5, 1.0]),
        }
        for rule, arrays in cases.items():
            bad = validate(replace(sp, **arrays))
            assert rule in {v.rule for v in bad}, rule
            assert {v.state for v in bad if v.rule == rule} == {0}, rule
        nan = replace(sp, branch_prob=[math.nan, 1.0, 1.0])
        assert "probability" in _rules(nan)

    def test_len_and_support(self):
        d = _branches([(1, 0), (1, 1)])
        assert len(d.branches) == 2
        assert [t for _, t in d.branches] == [0, 1]


class TestMarkovianTransitions:
    def test_build_sums_exit_rate_and_merges(self):
        sp = direct_space(ModelClass.MA, [[], [], []],
                          markovian={2: [(2.0, 1), (0.5, 0), (1.0, 1)]})
        mk = sp.markovian[2]
        assert mk.entries == ((0.5, 0), (3.0, 1))
        assert mk.exit_rate == 3.5
        assert not mk.masked
        assert sp.rate_ptr.tolist() == [0, 0, 0, 2]
        assert sp.exit_rate.tolist() == [0.0, 0.0, 3.5]
        assert sp.markovian[0] is None

    def test_jump_distribution_normalises_rates(self):
        sp = direct_space(ModelClass.MA, [[], []],
                          markovian={0: [(1, 0), (3, 1)]})
        closed = sp.closed
        assert closed.choices[0][0].distribution.branches == (
            (0.25, 0), (0.75, 1))
        # the absorbing state gets a self-loop
        assert closed.choices[1][0].distribution.branches == ((1.0, 1),)
        # built once per space, and a space with a row everywhere is its
        # own closed view
        assert sp.closed is closed and closed.closed is closed
        assert sp.closed.in_branches is closed.in_branches

    def test_rejects_nonpositive_rate(self):
        for rate in (0.0, -2.0, math.inf, math.nan):
            sp = direct_space(ModelClass.MA, [[], []],
                              markovian={0: [(1.0, 1), (rate, 0)]})
            assert [(v.state, v.rule) for v in validate(sp)
                    if v.rule == "rate"] == [(0, "rate")], rate

    def test_rejects_inconsistent_exit_rate(self):
        sp = direct_space(ModelClass.MA, [[], []], markovian={0: [(1.0, 1)]})
        assert validate(sp) == []
        assert "exit_rate" in _rules(replace(sp, exit_rate=[2.0, 0.0]))
        assert "exit_rate" in _rules(replace(sp, exit_rate=[1.0, 1.0]))

    def test_rejects_duplicate_rate_target(self):
        sp = direct_space(ModelClass.MA, [[], []],
                          markovian={0: [(1.0, 0), (2.0, 1)]})
        bad = replace(sp, rate_target=[1, 1])
        assert [(v.state, v.rule) for v in validate(bad)] == [
            (0, "duplicate_rate_target")]


class TestExplicitStateSpace:
    def test_valuations_are_frozen(self, coin_dtmc):
        with pytest.raises(ValueError):
            coin_dtmc.valuations[0, 0] = 7
        with pytest.raises(ValueError):
            coin_dtmc.branch_prob[0] = 1.0

    def test_views_are_read_only(self, coin_dtmc):
        with pytest.raises(AttributeError):
            coin_dtmc.choices = ()
        with pytest.raises(AttributeError):
            coin_dtmc.markovian = ()

    def test_shape_must_match_layout(self):
        builder = SpaceBuilder()
        builder.add_state()
        builder.add_state()
        with pytest.raises(ValueError):
            builder.build(ModelClass.DTMC, (VariableInfo("x", 0, 1),),
                          np.zeros((2, 2), dtype=np.int64),
                          components=("m",))

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
        bad = replace(sp, branch_target=[99, 1])
        assert [(v.state, v.rule) for v in validate(bad)] == [(0, "target")]
        bad = replace(sp, rate_ptr=[0, 1, 1], rate=[1.0], rate_target=[-1],
                      exit_rate=[1.0, 0.0])
        assert {"markov_target", "mdp_markov"} <= _rules(bad)

    def test_initial_out_of_range(self):
        sp = direct_space(ModelClass.MDP, [[[(1, 0)]]], initial=5)
        rules = {v.rule for v in validate(sp)}
        assert "initial" in rules

    def test_variable_range_owner_and_label_shape(self):
        sp = direct_space(ModelClass.MDP, [[[(1, 1)]], [[(1, 1)]]])
        assert _rules(replace(sp, valuations=np.array([[0], [2]]))) \
            == {"variable_bounds"}
        assert _rules(replace(sp, layout=(replace(sp.layout[0], owner=1),))) \
            == {"variable_owner"}
        assert _rules(replace(sp, labels={"a": np.zeros(3, dtype=bool)})) \
            == {"label"}

    def test_inconsistent_arrays_are_a_shape_violation(self):
        sp = direct_space(ModelClass.MDP, [[[(1, 1)]], [[(1, 1)]]])
        assert _rules(replace(sp, choice_ptr=[0, 1])) == {"shape"}
        assert _rules(replace(sp, branch_prob=[1.0])) == {"shape"}

    def test_ma_masking_consistency(self):
        # maximal progress is applied by the builder: state 0 keeps its
        # immediate choice and drops its rates
        sp = direct_space(
            ModelClass.MA,
            [[[(1, 1)]], []],
            markovian={0: [(1.0, 1)], 1: [(2.0, 0)]},
        )
        assert validate(sp) == []
        assert sp.markovian[0] is None and sp.exit_rate[0] == 0.0
        assert sp.markovian[1].entries == ((2.0, 0),)
        # arrays that give state 0 both are reported
        both = replace(sp, rate_ptr=[0, 1, 2], rate=[1.0, 2.0],
                       rate_target=[1, 0], exit_rate=[1.0, 2.0])
        assert [(v.state, v.rule) for v in validate(both)] == [
            (0, "maximal_progress")]


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
        builder = SpaceBuilder()
        builder.add_state([(None, 0, [(1, 1)]), (None, 1, [(1, 0)])])
        builder.add_state([(None, 0, [(1, 1)])])
        sp = builder.build(ModelClass.MDP, (VariableInfo("s", 0, 1),),
                           np.arange(2).reshape(2, 1),
                           components=("m0", "m1"))
        assert validate(sp) == []
        with pytest.raises(ValueError):
            scheduler_owner(sp, 0)
        assert check_good_for_distribution(sp) == [0]


def _view_digest(space) -> str:
    """SHA-256 over what the read-only views show of a space: valuations,
    initial state, per state the choice count and each choice's owner,
    action, branch probabilities and targets, then its rates and exit
    rate.  ``repr`` of a float round-trips, so equal digests mean
    bit-identical probabilities."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(space.valuations, dtype="<i8").tobytes())
    h.update(repr(space.initial).encode())
    for cs, mk in zip(space.choices, space.markovian):
        h.update(repr(len(cs)).encode())
        for c in cs:
            h.update(repr((c.owner, c.action,
                           c.distribution.branches)).encode())
        if mk is not None and not mk.masked:
            h.update(repr((mk.entries, mk.exit_rate)).encode())
        else:
            h.update(b"-")
    return h.hexdigest()


class TestPinnedSpaces:
    """State order, choice order and every probability of pinned spaces:
    the case studies as explored before the spaces were stored as arrays,
    the stress models as explored one state at a time.  LSS hashes states
    by index and valuation, so any change here changes sampled
    schedulers."""

    def _check(self, space, n_states, digest):
        assert space.n_states == n_states
        assert validate(space) == []
        assert _view_digest(space) == digest

    def test_sample_contact_plan(self):
        self._check(
            space_of(gen_contact_mdp(
                parse_contact_plan(sample_contact_plan())).model), 55,
            "836f8eb4a7d402216c6b2458da1612f9ecf6c6bb6bb56e667132c56580081ac0")

    def test_default_noc(self):
        self._check(
            space_of(gen_noc(NocParams()).model), 352,
            "fa5e095abdba1a007f5b2fe7bccf73119f34531c58f7442093009e07802f3592")

    def test_bitcoin_cd3(self):
        self._check(
            space_of(gen_bitcoin(BitcoinParams(CD=3)).model), 57,
            "3367bd565e18adda23302afdb2e110532972603a1b15a8f47cfba58361a4313e")

    def test_seeded_contact_plan(self):
        # 160 commands guarded ``step = e``, spread over six processes: the
        # explorer's guard index skips all but a few of them in each state
        rng = Random(9)
        names = tuple(f"N{i}" for i in range(1, 7))
        contacts = []
        for slot in range(1, 21):
            pairs: set[tuple[str, str]] = set()
            while len(pairs) < 2:
                pairs.add(tuple(rng.sample(names, 2)))
            contacts += [Contact(a, b, slot, rng.randint(1, 9) / 10)
                         for a, b in sorted(pairs)]
        plan = ContactPlan(names, 20, tuple(contacts), "N1", "N6", copies=3)
        self._check(
            space_of(gen_contact_mdp(plan).model), 1987,
            "ea2a515bfdb29dc4a15a2220dd332fc84d7f3e35d175e219b454ec4341e1fd63")

    # what the case studies lack: state-dependent real weights and rates,
    # a '/' in a guard's right conjunct (never evaluated where it would
    # divide by zero), an action with two deciding participants, duplicate
    # targets with unequal weights, maximal progress and DTMC deadlocks
    STRESS_MA = """
        ma
        const real R = 3/2;
        action go;
        module a
          x : [0..3] init 0;
          [go] x < 3 -> (x+1)/3:(x'=x+1) + 1/2:(x'=x);
          [go] x < 2 -> 2:(x'=0) + 1:(x'=0) + (x+2)/3:(x'=2);
          [] x = 3 & y = 0 -> (x'=0);
          rate(x + R) x > 0 & 6/x > 1 -> 1:(x'=x-1) + x/2:(x'=x) + 1:(x'=x-1);
          rate(3) x = 3 -> (x'=3);
        endmodule
        module b
          y : [0..2] init 0;
          [go] y < 2 -> (y'=y+1);
          [go] y > 0 -> 1/4:(y'=y-1) + y:(y'=0) + 1:(y'=0);
          rate(y/2 + 1) y = 0 | 4/y > 1 -> 1:(y'=0) + (y+1)/3:(y'=1);
        endmodule
    """

    STRESS_DTMC = """
        dtmc
        module m
          x : [0..4] init 1;
          [] x > 0 & 12/x > 3 -> x/3:(x'=x+1) + 1:(x'=x-1) + (1/2):(x'=x-1);
        endmodule
    """

    def test_stress_ma(self):
        self._check(
            space_of(self.STRESS_MA), 12,
            "d3ca862575b44c79691ccc4a58e72959a577f06ec8e1aba3b98a6a5d3246146b")

    def test_stress_dtmc(self):
        self._check(
            space_of(self.STRESS_DTMC), 5,
            "77bdd09ca09d24da50fe96203ea86f5ad7ccf8287e01efd66f0a5b367d485849")

    def test_hand_built_ma_with_choices_and_rates(self):
        space = direct_space(
            ModelClass.MA,
            [[[(1, 1)], [(1, 2), (3, 3)]], [], [[(2, 0), (1, 3)]], []],
            markovian={0: [(1.0, 3)], 1: [(0.5, 2), (1.5, 0), (1.0, 2)],
                       2: [(4.0, 1)]},
            owners={0: 1})
        self._check(
            space, 4,
            "d7d597ff36f509d7a99fa84b5bf33b2a6a1c0a7e2ff124d9d68447a5e5e0d9bf")


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
