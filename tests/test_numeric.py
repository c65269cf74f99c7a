"""Numerical analyses: reachability, bounded CDFs, expected/bounded time."""
import functools
import hashlib
import math

import numpy as np
import pytest

from qmv import numeric
from qmv.casestudies import (
    BitcoinParams,
    gen_bitcoin,
    gen_contact_mdp,
    parse_contact_plan,
    sample_contact_plan,
)
from qmv.core import Direction, ModelClass, target_mask
from qmv.lang import parse_property
from qmv.numeric import (
    CdfResult,
    SolverConfig,
    SolverError,
    check_property,
    describe_scheduler,
    ma_expected_time,
    ma_time_bounded,
    reach_prob,
    step_bounded_cdf,
)

from conftest import direct_space, induced_chain, random_layered_mdp, space_of

CFG = SolverConfig()

TWO_CHOICE_MDP = """
    mdp
    module m
      x : [0..2] init 0;
      [safe] x=0 -> 3/10:(x'=2) + 7/10:(x'=1);
      [bold] x=0 -> 7/10:(x'=2) + 3/10:(x'=1);
    endmodule
    label "goal" = x=2;
"""


class TestReachProb:
    def test_fair_coin(self, coin_dtmc):
        res = reach_prob(coin_dtmc, coin_dtmc.labels["heads"],
                         Direction.MAX, CFG)
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_geometric_reaches_almost_surely(self, geometric_half):
        res = reach_prob(geometric_half, geometric_half.labels["done"],
                         Direction.MAX, CFG)
        # certain reachability is pinned by graph analysis, not iterated to
        assert res.value == 1.0
        assert res.info.get("pinned_one", 0) >= 2

    def test_gamblers_ruin_closed_form(self):
        # random walk on 0..5, up with p=0.4, absorbing at both ends
        sp = space_of("""
            dtmc
            module m
              x : [0..5] init 2;
              [] x>0 & x<5 -> 2/5:(x'=x+1) + 3/5:(x'=x-1);
            endmodule
            label "rich" = x=5;
        """)
        ratio = 1.5  # (1-p)/p
        expected = (1 - ratio ** 2) / (1 - ratio ** 5)
        res = reach_prob(sp, sp.labels["rich"], Direction.MAX, CFG)
        assert res.value == pytest.approx(expected, abs=1e-5)

    def test_unreachable_target_is_exactly_zero(self):
        sp = space_of("""
            dtmc
            module m
              x : [0..2] init 0;
              [] x=0 -> (x'=1);
            endmodule
            label "goal" = x=2;
        """)
        res = reach_prob(sp, sp.labels["goal"], Direction.MAX, CFG)
        assert res.value == 0.0
        assert res.iterations == 0

    def test_mdp_max_min_and_scheduler(self):
        sp = space_of(TWO_CHOICE_MDP)
        target = sp.labels["goal"]
        mx = reach_prob(sp, target, Direction.MAX, CFG)
        mn = reach_prob(sp, target, Direction.MIN, CFG)
        assert mx.value == pytest.approx(0.7, abs=1e-9)
        assert mn.value == pytest.approx(0.3, abs=1e-9)
        assert sp.choices[0][mx.scheduler[0]].action == "bold"
        assert sp.choices[0][mn.scheduler[0]].action == "safe"

    def test_min_can_avoid_via_loop(self):
        # one choice loops forever, the other surely reaches the goal
        sp = direct_space(
            ModelClass.MDP,
            [[[(1, 0)], [(1, 1)]], [[(1, 1)]]],
            labels={"goal": [1]},
        )
        mn = reach_prob(sp, sp.labels["goal"], Direction.MIN, CFG)
        mx = reach_prob(sp, sp.labels["goal"], Direction.MAX, CFG)
        assert mn.value == 0.0  # graph analysis, exact
        assert mx.value == 1.0

    def test_nonconvergence_is_a_solver_error(self, monkeypatch):
        # disable the certain-reachability pin by adding a tiny escape
        sp = space_of("""
            dtmc
            module m
              x : [0..2] init 0;
              [] x=0 -> 499/1000:(x'=0) + 499/1000:(x'=1) + 2/1000:(x'=2);
            endmodule
            label "done" = x=1;
        """)
        monkeypatch.setattr(numeric, "MAX_ITERATIONS", 3)
        with pytest.raises(SolverError, match="no convergence after 3 "):
            reach_prob(sp, sp.labels["done"], Direction.MAX, CFG)

    def test_scheduler_description_and_induced_chain(self):
        sp = space_of(TWO_CHOICE_MDP)
        res = reach_prob(sp, sp.labels["goal"], Direction.MAX, CFG)
        rows = describe_scheduler(sp, res.scheduler)
        decision_rows = [r for r in rows if len(sp.choices[r.state]) > 1]
        assert len(decision_rows) == 1
        row = decision_rows[0]
        assert row.values == {"x": 0}
        assert row.action == "bold"
        assert row.owner == 0
        chain = induced_chain(sp, res.scheduler)
        assert all(len(cs) == 1 for cs in chain.choices)
        re_solved = reach_prob(chain, chain.labels["goal"], Direction.MAX, CFG)
        assert re_solved.value == pytest.approx(res.value, abs=1e-9)


class TestStepBoundedCdf:
    def test_geometric_is_dyadic_exact(self, geometric_half):
        cdf = step_bounded_cdf(geometric_half, geometric_half.labels["done"],
                               Direction.MAX, 3, CFG)
        assert list(cdf.values) == [0.0, 0.5, 0.75, 0.875]
        assert cdf.monotone
        assert cdf.final == 0.875

    def test_target_at_time_zero(self, coin_dtmc):
        everything = np.ones(coin_dtmc.n_states, dtype=bool)
        cdf = step_bounded_cdf(coin_dtmc, everything, Direction.MAX, 2, CFG)
        assert list(cdf.values) == [1.0, 1.0, 1.0]

    def test_mdp_policy_may_depend_on_remaining_steps(self):
        # quick gamble (0.5 now) versus a sure three-step corridor
        sp = space_of("""
            mdp
            module m
              x : [0..4] init 0;
              [gamble] x=0 -> 1/2:(x'=4) + 1/2:(x'=3);
              [walk]   x=0 -> (x'=1);
              []       x=1 -> (x'=2);
              []       x=2 -> (x'=4);
            endmodule
            label "goal" = x=4;
        """)
        cdf = step_bounded_cdf(sp, sp.labels["goal"], Direction.MAX, 3, CFG)
        assert list(cdf.values) == [0.0, 0.5, 0.5, 1.0]

    def test_min_direction(self, coin_dtmc):
        cdf = step_bounded_cdf(coin_dtmc, coin_dtmc.labels["heads"],
                               Direction.MIN, 2, CFG)
        assert list(cdf.values) == [0.0, 0.5, 0.5]


class TestMarkovAutomata:
    def test_single_exponential_expected_time(self):
        sp = space_of("""
            ma
            module m
              x : [0..1] init 0;
              rate(4) x=0 -> (x'=1);
            endmodule
            label "goal" = x=1;
        """)
        res = ma_expected_time(sp, sp.labels["goal"], Direction.MIN, CFG)
        assert res.value == pytest.approx(0.25, abs=1e-9)

    def test_chain_of_rates_adds_means(self):
        sp = space_of("""
            ma
            module m
              x : [0..2] init 0;
              rate(2) x=0 -> (x'=1);
              rate(1/2) x=1 -> (x'=2);
            endmodule
            label "goal" = x=2;
        """)
        res = ma_expected_time(sp, sp.labels["goal"], Direction.MAX, CFG)
        assert res.value == pytest.approx(0.5 + 2.0, abs=1e-9)

    def test_cyclic_expected_time(self):
        # 0 -(rate 1)-> 1; 1 -(rate 1)-> {0 or goal, evenly}: E0 = 4
        sp = space_of("""
            ma
            module m
              x : [0..2] init 0;
              rate(1) x=0 -> (x'=1);
              rate(1/2) x=1 -> (x'=0);
              rate(1/2) x=1 -> (x'=2);
            endmodule
            label "goal" = x=2;
        """)
        res = ma_expected_time(sp, sp.labels["goal"], Direction.MIN, CFG)
        assert res.value == pytest.approx(4.0, abs=1e-5)

    def test_immediate_decision_between_rates(self):
        sp = space_of("""
            ma
            module m
              x : [0..3] init 0;
              [slow] x=0 -> (x'=1);
              [fast] x=0 -> (x'=2);
              rate(1) x=1 -> (x'=3);
              rate(4) x=2 -> (x'=3);
            endmodule
            label "goal" = x=3;
        """)
        mn = ma_expected_time(sp, sp.labels["goal"], Direction.MIN, CFG)
        mx = ma_expected_time(sp, sp.labels["goal"], Direction.MAX, CFG)
        assert mn.value == pytest.approx(0.25, abs=1e-9)
        assert mx.value == pytest.approx(1.0, abs=1e-9)
        assert sp.choices[0][mn.scheduler[0]].action == "fast"
        assert sp.choices[0][mx.scheduler[0]].action == "slow"

    ZERO_TIME_TRAP = """
        ma
        module m
          x : [0..2] init 0;
          [] x=0 -> (x'=0);
          [] x=0 -> (x'=1);
          rate(1) x=1 -> (x'=2);
        endmodule
        label "goal" = x=2;
    """

    def test_min_time_rejects_zero_time_trap(self):
        sp = space_of(self.ZERO_TIME_TRAP)
        with pytest.raises(SolverError):
            ma_expected_time(sp, sp.labels["goal"], Direction.MIN, CFG)

    def test_max_time_with_avoidable_target_is_infinite(self):
        sp = space_of(self.ZERO_TIME_TRAP)
        res = ma_expected_time(sp, sp.labels["goal"], Direction.MAX, CFG)
        assert math.isinf(res.value)

    def test_unreachable_target_time_is_infinite(self):
        sp = space_of("""
            ma
            module m
              x : [0..2] init 0;
              rate(1) x=0 -> (x'=1);
            endmodule
            label "goal" = x=2;
        """)
        res = ma_expected_time(sp, sp.labels["goal"], Direction.MIN, CFG)
        assert math.isinf(res.value)

    def test_expected_time_needs_an_ma(self, coin_dtmc):
        with pytest.raises(SolverError):
            ma_expected_time(coin_dtmc, coin_dtmc.labels["heads"],
                             Direction.MIN, CFG)

    def test_time_bounded_matches_exponential_cdf(self):
        sp = space_of("""
            ma
            module m
              x : [0..1] init 0;
              rate(1/2) x=0 -> (x'=1);
            endmodule
            label "goal" = x=1;
        """)
        res = ma_time_bounded(sp, sp.labels["goal"], Direction.MAX, 2.0, CFG)
        assert res.value == pytest.approx(1 - math.exp(-1), abs=1e-4)
        assert res.info.get("digitization_steps", 0) >= 1

    def test_time_bounded_zero_bound(self):
        sp = space_of("""
            ma
            module m
              x : [0..1] init 0;
              rate(2) x=0 -> (x'=1);
            endmodule
            label "goal" = x=1;
        """)
        res = ma_time_bounded(sp, sp.labels["goal"], Direction.MAX, 0.0, CFG)
        assert res.value == 0.0


class TestCheckProperty:
    def test_reachability_dispatch(self, coin_dtmc):
        prop = parse_property('Pmax=? [ F "heads" ]')
        res = check_property(coin_dtmc, prop, CFG)
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_step_bounded_dispatch_reports_final_value(self, geometric_half):
        prop = parse_property('Pmax=? [ F<=3 "done" ]',
                              model_class=ModelClass.DTMC)
        res = check_property(geometric_half, prop, CFG)
        assert res.value == 0.875

    def test_expression_target_with_constants(self):
        sp = space_of("""
            dtmc
            module m
              x : [0..3] init 0;
              [] x<3 -> (x'=x+1);
            endmodule
        """)
        prop = parse_property('Pmax=? [ F x = K ]')
        res = check_property(sp, prop, CFG, constants={"K": 3})
        assert res.value == 1.0


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["epsilon", "time_bound_error"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf,
                                       math.nan])
    def test_rejects_nonpositive_and_nonfinite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_negative_horizon_is_a_parameter_error(self, coin_dtmc):
        with pytest.raises(ValueError, match="nonnegative"):
            step_bounded_cdf(coin_dtmc, coin_dtmc.labels["heads"],
                             Direction.MAX, -1, CFG)


# --------------------------------------------------------------------------
# almost-sure reachability under some scheduler (Prob1E)


def _prob1e_oracle(space, target) -> set[int]:
    """The textbook nested fixpoint, over the object views: the greatest
    set U such that from every state of U some choice stays in U and the
    target is reachable that way.  A Markovian state's only choice is its
    race; an absorbing state's is a self-loop."""
    succs = []
    for s, (cs, mk) in enumerate(zip(space.choices, space.markovian)):
        if cs:
            succs.append([{t for _, t in c.distribution.branches}
                          for c in cs])
        elif mk is not None:
            succs.append([{t for _, t in mk.entries}])
        else:
            succs.append([{s}])
    u = set(range(space.n_states))
    while True:
        r = set(np.flatnonzero(target).tolist())
        grown = True
        while grown:
            grown = False
            for s in sorted(u - r):
                if any(row <= u and row & r for row in succs[s]):
                    r.add(s)
                    grown = True
        if r == u:
            return u
        u = r


def _prob1e(space, target) -> set[int]:
    sp = numeric._closed(space)
    by_target = np.argsort(sp.branch_target, kind="stable")
    return set(np.flatnonzero(
        numeric._exists_almost_sure(sp, by_target, target)).tolist())


#: An end component {0, 1, 2} that a scheduler can leave only towards the
#: goal 3, next to states 4 and 5 that may fall into the sink 6.
END_COMPONENT = [
    [[(1, 1)], [(1, 3), (1, 6)]],
    [[(1, 0)], [(1, 0), (1, 2)]],
    [[(1, 3), (1, 1)], [(1, 2)]],
    [[(1, 3)]],
    [[(1, 0), (1, 6)], [(1, 5)]],
    [[(1, 4)], [(1, 6), (1, 5)]],
    [[(1, 6)]],
]


class TestExistsAlmostSure:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_layered_mdps(self, seed):
        space = random_layered_mdp(seed)
        goal = space.labels["goal"]
        # only the goal itself reaches the goal surely; a target that also
        # holds random inner states makes the set larger
        extra = np.random.default_rng(seed).random(space.n_states) < 0.3
        for target in (goal, goal | extra):
            assert _prob1e(space, target) == _prob1e_oracle(space, target)

    def test_end_component(self):
        space = direct_space(ModelClass.MDP, END_COMPONENT,
                             labels={"goal": [3]})
        goal = space.labels["goal"]
        assert _prob1e(space, goal) == _prob1e_oracle(space, goal) \
            == {0, 1, 2, 3}

    def test_bitcoin_min_time_finite_set(self):
        space = space_of(gen_bitcoin(BitcoinParams(CD=3)).model)
        for target in (space.labels["goal"], target_mask(
                space, parse_property("Pmin=? [ F m_diff = -2 ]").target)):
            assert _prob1e(space, target) == _prob1e_oracle(space, target)


# --------------------------------------------------------------------------
# pinned results


GAMBLER_20 = """
    dtmc
    module gambler
      x : [0..20] init 10;
      [] x>0 & x<20 -> 1/2:(x'=x+1) + 1/2:(x'=x-1);
    endmodule
    label "goal" = x=20;
"""

#: Immediate choices between Markovian states, a cycle through both kinds
#: and a second absorbing state.
SMALL_MA = """
    ma
    module m
      x : [0..6] init 0;
      [a] x=0 -> 1/2:(x'=1) + 1/2:(x'=2);
      [b] x=0 -> (x'=3);
      rate(2) x=1 -> (x'=4);
      rate(1) x=1 -> (x'=0);
      [c] x=2 -> (x'=3);
      [d] x=2 -> 1/3:(x'=5) + 2/3:(x'=1);
      rate(3) x=3 -> (x'=5);
      rate(1/2) x=3 -> (x'=2);
      rate(1) x=5 -> (x'=6);
      rate(1) x=5 -> (x'=4);
    endmodule
    label "goal" = x=4;
"""


@functools.cache
def _pinned_space(name):
    if name == "gambler20":
        return space_of(GAMBLER_20)
    if name == "bitcoin3":
        return space_of(gen_bitcoin(BitcoinParams(CD=3)).model)
    if name == "contacts":
        return space_of(gen_contact_mdp(parse_contact_plan(
            sample_contact_plan())).model)
    return space_of(SMALL_MA)


def _analyse(space, target: str, analysis: str):
    """``Pmax``/``Pmin``/``Tmax``/``Tmin``: reach probability or expected
    time; ``Pmax<=b``: time-bounded reachability at a coarse error bound;
    ``cdfmax<=b``: the step-bounded CDF."""
    mask = target_mask(space, parse_property(f"Pmax=? [ F {target} ]").target)
    kind, bound = (analysis.split("<=") + [None])[:2]
    direction = Direction.MAX if kind.endswith("max") else Direction.MIN
    kind = kind[:-3]
    if kind == "P" and bound is None:
        return reach_prob(space, mask, direction, CFG)
    if kind == "T":
        return ma_expected_time(space, mask, direction, CFG)
    if kind == "P":
        return ma_time_bounded(space, mask, direction, float(bound),
                               SolverConfig(time_bound_error=1e-2))
    return step_bounded_cdf(space, mask, direction, int(bound), CFG)


def _result_digest(result) -> str:
    """SHA-256 over everything a result reports: value, iterations,
    residual, info and scheduler, or a CDF's values and monotonicity.
    ``repr`` of a float round-trips, so equal digests mean bit-identical
    results."""
    if isinstance(result, CdfResult):
        fields = (result.values, result.monotone)
    else:
        fields = (result.value, result.iterations, result.residual,
                  sorted(result.info.items()),
                  sorted((result.scheduler or {}).items()))
    return hashlib.sha256(repr(fields).encode()).hexdigest()


PINNED_RESULTS = [
    ("gambler20", '"goal"', "Pmax",
     "cae5da5837fcc13eb195915ecc47894cec888b44927c6473ee22d3bfcda994f8"),
    ("gambler20", '"goal"', "cdfmax<=100",
     "d282f5dbe08736106f2495cb350f988277decbe77db9b099b5051225c9dab58e"),
    ("bitcoin3", '"goal"', "Pmax",
     "88eebf2d72c9acc1f6bbb71ecd90f0c71450735a21620dbd336bb97cc70d4c40"),
    ("bitcoin3", "m_diff = -2", "Pmin",
     "6661e94e76b2247fe76d9327598cbaa6e99b75f82e44a5981351f5d3cbaf2cd2"),
    ("bitcoin3", '"goal"', "Tmin",
     "5c65e23dd91a1b1d04a5614b6acf48e0546e3e30a9dbedd5f0859e1c79e34464"),
    ("bitcoin3", '"goal"', "Tmax",
     "fcf4c8f14b9c39c886ff074de14e4bdd29d549b7fdd01b78bf53a4bee71ad1a6"),
    ("bitcoin3", '"goal"', "Pmax<=20",
     "0c6502f6a5336bddbc9a1c06d132a8a0203350cde1ef1dfe1b2c0257feb7f335"),
    ("bitcoin3", '"goal"', "Pmin<=20",
     "df9780de638d3eb29d5dbedfa0724ad12e7a5e49d6b4a385e1b12414cceca142"),
    ("contacts", '"delivered"', "Pmax",
     "13b5f3fbdc6b588ce4e3c7aa5b83fc7e744a379665f8dcd96f11ac64d2b25869"),
    ("contacts", '"delivered"', "Pmin",
     "a05959b8247dcb812b1ae1747af21bb3299d2e349f3e3865479b33c4566ea46e"),
    ("contacts", '"delivered"', "cdfmax<=12",
     "a5602993bcbd05afa769e47cf2d21a7b6ff11945bbd5b2c0cdb917870448de98"),
    ("contacts", '"delivered"', "cdfmin<=12",
     "24fd534facce71f260b9a989045483e003cb6b6d935b92bc3355ff4aef3ccbfc"),
    ("small_ma", '"goal"', "Pmax",
     "c46ff14606998bd5dba5d04e52d7a95006c476c8cc7ddd3c0bf67120ea1671a6"),
    ("small_ma", '"goal"', "Pmin",
     "4481b19209da5cf4947e6869177004c4f6ee7efde8ffe33928bde20adc244d34"),
    ("small_ma", "x = 4 | x = 6", "Tmin",
     "b0fe6e8d9e0d568552b5effec75724eac13e0f0e43261c8359eda1c1951b006c"),
    ("small_ma", "x = 4 | x = 6", "Tmax",
     "171c0a7493c936c66bc05618fdaeff90b9330fcba71993982b32c174c0c1fd34"),
    ("small_ma", '"goal"', "Tmin",
     "3d3d50ecd1dd188792c2b14da80426b086d8585ded958878886b70e0812d0bb0"),
    ("small_ma", '"goal"', "Pmax<=3",
     "75088b03bd2ed07068b05bd27e862316153a6d4e0ac2d523e29744ed1175cc37"),
    ("small_ma", '"goal"', "Pmin<=3",
     "a64a05f0e453b31f4caca497c98af5c85887a4c13a84583fc7a1b6be3f3257af"),
]


class TestPinnedResults:
    """Every reported field of a result, as computed before value iteration
    ran over packed rows and almost-sure reachability became a backward
    search.  A change here changes what ``qmv check`` and ``qmv cdf``
    print."""

    @pytest.mark.parametrize(
        "model, target, analysis, digest", PINNED_RESULTS,
        ids=[f"{m}-{a}-{i}" for i, (m, _, a, _) in enumerate(PINNED_RESULTS)])
    def test_result(self, model, target, analysis, digest):
        result = _analyse(_pinned_space(model), target, analysis)
        assert _result_digest(result) == digest
