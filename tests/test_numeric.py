"""Numerical analyses: reachability, bounded CDFs, expected/bounded time."""
import functools
import hashlib
import itertools
import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmv import numeric
from qmv.casestudies import (
    BitcoinParams,
    NocParams,
    gen_bitcoin,
    gen_contact_mdp,
    gen_noc,
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

from conftest import (
    TRAP_MA,
    direct_space,
    induced_chain,
    random_layered_mdp,
    space_of,
)

CFG = SolverConfig()

#: 0 moves to 1 or to the goal 2 (0.499 each), or escapes to 3; 1 returns
#: to 0.  Certain reachability does not pin 0 or 1.
TWO_STATE_CYCLE = """
    dtmc
    module m
      x : [0..3] init 0;
      [] x=0 -> 499/1000:(x'=1) + 499/1000:(x'=2) + 2/1000:(x'=3);
      [] x=1 -> (x'=0);
    endmodule
    label "done" = x=2;
"""

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
        assert res.value == pytest.approx(expected, abs=1e-12)

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
        # a two-state cycle with a tiny escape, too large for a dense solve
        monkeypatch.setattr(numeric, "MAX_DENSE_SCC", 1)
        monkeypatch.setattr(numeric, "MAX_ITERATIONS", 3)
        sp = space_of(TWO_STATE_CYCLE)
        with pytest.raises(SolverError, match="no convergence after 3 "):
            reach_prob(sp, sp.labels["done"], Direction.MAX, CFG)

    def test_oversize_block_falls_back_to_value_iteration(self, monkeypatch):
        sp = space_of(TWO_STATE_CYCLE)
        exact = reach_prob(sp, sp.labels["done"], Direction.MAX, CFG)
        monkeypatch.setattr(numeric, "MAX_DENSE_SCC", 1)
        approx = reach_prob(sp, sp.labels["done"], Direction.MAX, CFG)
        # 0 -> 1 w.p. 0.499, 1 -> 0 surely: V0 = 0.499 V0 + 0.499
        assert exact.info["exact"] == 1.0
        assert exact.value == pytest.approx(499 / 501, abs=1e-15)
        assert approx.info["exact"] == 0.0
        assert approx.info["sccs"] == exact.info["sccs"] == 1.0
        assert approx.info["largest_scc"] == 2.0
        assert approx.iterations > 10
        assert approx.value == pytest.approx(exact.value, abs=1e-5)

    def test_a_cyclic_block_without_a_way_out_is_a_solver_error(self):
        # graph analysis never leaves such a block free: plan one directly,
        # beside a block that does leave
        sp = direct_space(ModelClass.DTMC, [[[(1, 1)]], [[(1, 0)]], [[(1, 3)]],
                                            [[(1, 2), (1, 4)]], [[(1, 4)]]])
        free = np.array([True, True, True, True, False])
        with pytest.raises(SolverError, match="no way out"):
            numeric._plan(sp, free, np.ones(5, dtype=bool), 0.0)

    def test_scheduler_takes_a_row_better_by_less_than_epsilon(self):
        # two ways to the goal, 0.5 and 0.500004: closer than 10 epsilon
        sp = direct_space(
            ModelClass.MDP,
            [[[(0.5, 1), (0.5, 2)], [(0.500004, 1), (0.499996, 2)]],
             [[(1, 1)]], [[(1, 2)]]],
            labels={"goal": [1]})
        res = reach_prob(sp, sp.labels["goal"], Direction.MAX, CFG)
        assert res.value == 0.500004
        assert res.scheduler[0] == 1

    def test_end_component_max(self):
        goal = [3]
        values = {}
        for s in range(len(END_COMPONENT)):
            sp = direct_space(ModelClass.MDP, END_COMPONENT,
                              labels={"goal": goal}, initial=s)
            res = reach_prob(sp, sp.labels["goal"], Direction.MAX, CFG)
            values[s] = res.value
            assert res.info["exact"] == 1.0
            # the scheduler's chain reaches the goal from every state of
            # the end component, not only with the optimal probability
            chain = induced_chain(sp, res.scheduler)
            assert _prob1e_oracle(chain, chain.labels["goal"]) \
                >= {0, 1, 2, 3}
        sure = _prob1e_oracle(sp, sp.labels["goal"])
        assert {s for s, v in values.items() if v == 1.0} == sure
        dense = _dense_reach(sp, sp.labels["goal"])
        assert values == pytest.approx(dict(enumerate(dense)), abs=1e-12)

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


#: Each step moves on with 1/2 or falls into the dead end 4, which never
#: reaches the goal 3: the mass in 4 never leaves, so only dropping the
#: states that cannot reach the goal lets the distribution empty.
DEAD_END = """
    dtmc
    module m
      x : [0..4] init 0;
      [] x<3 -> 1/2:(x'=x+1) + 1/2:(x'=4);
    endmodule
    label "goal" = x=3;
"""


def _reference_cdf(space, mask, direction, t_max):
    """The CDF iterated up to ``t_max`` without stopping: the forward loop
    over ``np.add.at`` for a DTMC, every backward sweep for an MDP."""
    sp = space.closed
    if space.model_class is ModelClass.DTMC:
        pi = np.zeros(space.n_states)
        pi[space.initial] = 1.0
        acc = float(pi[mask].sum())
        pi[mask] = 0.0
        values = [acc]
        for _ in range(t_max):
            nxt = np.zeros_like(pi)
            np.add.at(nxt, sp.branch_target,
                      pi[sp.branch_source] * sp.branch_prob)
            pi = nxt
            acc += float(pi[mask].sum())
            pi[mask] = 0.0
            values.append(acc)
    else:
        best = np.maximum if direction is Direction.MAX else np.minimum
        V = mask.astype(np.float64)
        values = [float(V[space.initial])]
        for _ in range(t_max):
            rows = np.add.reduceat(sp.branch_prob * V[sp.branch_target],
                                   sp.branch_ptr[:-1])
            V = np.where(mask, 1.0, best.reduceat(rows, sp.choice_ptr[:-1]))
            values.append(float(V[space.initial]))
    return values, all(b >= a for a, b in zip(values, values[1:]))


@functools.cache
def _stop_space(name):
    if name == "noc":
        return space_of(gen_noc(NocParams()).model)
    if name == "dead_end":
        return space_of(DEAD_END)
    if name == "gambler20":
        return space_of(GAMBLER_20)
    if name == "contacts":
        return space_of(gen_contact_mdp(parse_contact_plan(
            sample_contact_plan())).model)
    return space_of(retry_model(3))


class TestCdfStop:
    """The CDF stops once no later step can change a value and fills the
    rest of the horizon; every value equals the unstopped iteration's."""

    @pytest.mark.parametrize("model, label, direction, horizon, sweeps", [
        # the distribution empties after 6 steps
        ("noc", "noisy", Direction.MAX, 200, 6),
        # empties after 3 steps only because the dead end's mass is dropped
        ("dead_end", "goal", Direction.MAX, 50, 3),
        # the walk between the two ends never empties
        ("gambler20", "goal", Direction.MAX, 2000, 2000),
        # acyclic MDP: fixed points well within the horizon
        ("contacts", "delivered", Direction.MAX, 40, 6),
        ("contacts", "delivered", Direction.MIN, 40, 1),
        # cyclic MDP: the retry loops converge to a fixed point in floats
        ("retry3", "done", Direction.MAX, 2000, 38),
        ("retry3", "done", Direction.MIN, 2000, 8),
    ])
    def test_values_equal_the_unstopped_iteration(
            self, monkeypatch, model, label, direction, horizon, sweeps):
        space = _stop_space(model)
        mask = space.labels[label]
        values, monotone = _reference_cdf(space, mask, direction, horizon)
        # one np.bincount per forward step, one _row_values per sweep
        counted = [0]
        name, owner = (("bincount", np)
                       if space.model_class is ModelClass.DTMC
                       else ("_row_values", numeric))
        step = getattr(owner, name)

        def counting(*args, **kwargs):
            counted[0] += 1
            return step(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        cdf = step_bounded_cdf(space, mask, direction, horizon, CFG)
        assert cdf.values == tuple(values)
        assert cdf.monotone == monotone
        assert counted[0] == sweeps


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

    def test_step_and_time_bounds_need_their_model_class(self):
        ma, mdp = space_of(TRAP_MA), space_of(TWO_CHOICE_MDP)
        with pytest.raises(SolverError, match="needs a DTMC or MDP"):
            step_bounded_cdf(ma, ma.labels["goal"], Direction.MAX, 3)
        with pytest.raises(SolverError, match="defined for MA models"):
            ma_time_bounded(mdp, mdp.labels["goal"], Direction.MAX, 1.0, CFG)
        with pytest.raises(SolverError, match="must be nonnegative"):
            ma_time_bounded(ma, ma.labels["goal"], Direction.MAX, -1.0, CFG)

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
        assert res.info["lower"] <= 1 - math.exp(-1) <= res.info["upper"]

    def test_time_bounded_from_the_target_is_exactly_one(self):
        sp = space_of("""
            ma
            module m
              x : [0..1] init 1;
              rate(2) x=0 -> (x'=1);
              rate(2) x=1 -> (x'=0);
            endmodule
            label "goal" = x=1;
        """)
        res = ma_time_bounded(sp, sp.labels["goal"], Direction.MAX, 3.0, CFG)
        assert res.value == 1.0 and res.residual == 0.0

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
    sp = space.closed
    g = sp.in_branches
    reach = numeric._backward_bfs(g, target) < numeric._FAR
    return set(np.flatnonzero(
        numeric._exists_almost_sure(sp, g, target, reach)).tolist())


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


def _chain_reach(space, target, picks) -> np.ndarray:
    """Per state: the probability of reaching ``target`` in the chain that
    takes row ``picks[s]`` in every state ``s``, by one dense solve (states
    that cannot reach the target in the chain are 0)."""
    n = space.n_states
    a, b = np.eye(n), target.astype(float)
    succ = [set() for _ in range(n)]
    for s, (cs, k) in enumerate(zip(space.choices, picks)):
        for p, t in cs[k].distribution.branches:
            succ[s].add(t)
            if not target[s]:
                a[s, t] -= p
    reach = set(np.flatnonzero(target).tolist())
    while True:
        grown = {s for s in range(n) if succ[s] & reach} | reach
        if grown == reach:
            break
        reach = grown
    for s in set(range(n)) - reach:
        a[s] = np.eye(n)[s]
    return np.linalg.solve(a, b)


def _dense_reach(space, target, maximize: bool = True) -> np.ndarray:
    """Per state: the maximum (or minimum) reach probability over every
    deterministic memoryless scheduler (:func:`_chain_reach` each)."""
    values = np.array([_chain_reach(space, target, picks)
                       for picks in itertools.product(
                           *(range(len(cs)) for cs in space.choices))])
    return values.max(axis=0) if maximize else values.min(axis=0)


@st.composite
def _random_mdps(draw):
    """(choices, goal states, initial state) of an MDP of 2-7 states with
    1-3 choices each: 1-5 inner states, the goal and, from three states on,
    an absorbing sink.  An inner choice has up to two branches to any inner
    state, so self-loops and cycles through several states are common, and
    may leak to the goal and the sink; integer weights, 0 for no branch."""
    n = draw(st.integers(2, 7))
    inner = n - 1 if n == 2 else n - 2
    weight = st.integers(0, 2)
    choice = st.tuples(st.lists(st.tuples(weight, st.integers(0, inner - 1)),
                                min_size=1, max_size=2), weight, weight)
    choices = []
    for s in range(inner):
        rows = []
        for branches, to_goal, to_sink in draw(
                st.lists(choice, min_size=1, max_size=3)):
            row = branches + [(to_goal, n - 1), (to_sink, n - 2)][:n - inner]
            row = [(w, t) for w, t in row if w] or [(1, s)]
            rows.append(row)
        choices.append(rows)
    choices += [[[(1, s)]] for s in range(inner, n)]
    return choices, [n - 1], draw(st.integers(0, inner - 1))


class TestExactSolverAgainstPolicyEnumeration:
    @given(_random_mdps())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_mdps(self, mdp):
        choices, goal, initial = mdp
        space = direct_space(ModelClass.MDP, choices, labels={"goal": goal},
                             initial=initial)
        target = space.labels["goal"]
        for direction in (Direction.MAX, Direction.MIN):
            maximize = direction is Direction.MAX
            res = reach_prob(space, target, direction, CFG)
            best = _dense_reach(space, target, maximize)[initial]
            assert res.value == pytest.approx(best, abs=1e-12)
            assert res.info["exact"] == 1.0
            # the scheduler attains the value
            picks = [res.scheduler[s] for s in range(space.n_states)]
            assert _chain_reach(space, target, picks)[initial] \
                == pytest.approx(best, abs=1e-12)


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

    def test_gambler_chain(self):
        space = space_of(GAMBLER_20)
        goal = space.labels["goal"]
        # from every inner state the walk can fall to 0, which never leaves
        assert _prob1e(space, goal) == _prob1e_oracle(space, goal) \
            == set(np.flatnonzero(goal).tolist())
        both = goal | (space.valuations[:, 0] == 0)
        assert _prob1e(space, both) == _prob1e_oracle(space, both) \
            == set(range(21))

    def test_bitcoin_min_time_finite_set(self):
        space = space_of(gen_bitcoin(BitcoinParams(CD=3)).model)
        for target in (space.labels["goal"], target_mask(
                space, parse_property("Pmin=? [ F m_diff = -2 ]").target)):
            assert _prob1e(space, target) == _prob1e_oracle(space, target)


# --------------------------------------------------------------------------
# the greatest-fixpoint peel: Pmin's zero set, Tmax's finite set and the
# zero-time trap


def _row_successors(space) -> list[list[set[int]]]:
    """Per state, the successors of each of its rows, over the object
    views.  A Markovian state's only row is its race; an absorbing state's
    is a self-loop."""
    succs = []
    for s, (cs, mk) in enumerate(zip(space.choices, space.markovian)):
        if cs:
            succs.append([{t for _, t in c.distribution.branches}
                          for c in cs])
        elif mk is not None:
            succs.append([{t for _, t in mk.entries}])
        else:
            succs.append([{s}])
    return succs


def _stay_oracle(space, keep) -> set[int]:
    """The textbook greatest fixpoint: the largest subset U of ``keep`` in
    which every state has a row whose successors all lie in U."""
    succs = _row_successors(space)
    u = set(np.flatnonzero(keep).tolist())
    while True:
        v = {s for s in u if any(row <= u for row in succs[s])}
        if v == u:
            return u
        u = v


def _reach_oracle(space, seeds, allowed) -> set[int]:
    """The states with a path into ``seeds`` whose other states are all
    ``allowed``."""
    succs = [set().union(*rows) for rows in _row_successors(space)]
    reach = set(seeds)
    while True:
        grown = reach | {s for s in np.flatnonzero(allowed).tolist()
                         if succs[s] & reach}
        if grown == reach:
            return reach
        reach = grown


def _peeled(space, keep) -> set[int]:
    g = space.closed.in_branches
    return set(np.flatnonzero(numeric._peel(g, keep) == numeric._FAR)
               .tolist())


def _peel_cases():
    for seed in range(8):
        space = random_layered_mdp(seed)
        goal = space.labels["goal"]
        extra = np.random.default_rng(seed).random(space.n_states) < 0.3
        yield f"layered{seed}", space, goal
        yield f"layered{seed}+", space, goal | extra
    space = direct_space(ModelClass.MDP, END_COMPONENT, labels={"goal": [3]})
    yield "end_component", space, space.labels["goal"]
    space = space_of(gen_bitcoin(BitcoinParams(CD=3)).model)
    yield "bitcoin3", space, space.labels["goal"]
    yield "bitcoin3 m_diff=-2", space, target_mask(
        space, parse_property("Pmin=? [ F m_diff = -2 ]").target)


class TestPeel:
    @pytest.mark.parametrize("case", list(_peel_cases()),
                             ids=lambda case: case[0])
    def test_against_the_textbook_fixpoint(self, case):
        _, space, target = case
        # Pmin's zero set: some scheduler avoids the target forever
        zero = _stay_oracle(space, ~target)
        assert _peeled(space, ~target) == zero
        pmin = reach_prob(space, target, Direction.MIN, CFG)
        assert pmin.info["pinned_zero"] == len(zero)
        # Pmin's one set, Tmax's finite set: no scheduler can reach the zero
        # set without passing the target
        finite = set(range(space.n_states)) - _reach_oracle(
            space, zero, ~target)
        assert pmin.info["pinned_one"] == len(finite)
        # the zero-time trap: immediate non-target states with a choice
        # that stays among them
        immediate = np.diff(space.choice_ptr) > 0
        assert _peeled(space, immediate & ~target) \
            == _stay_oracle(space, immediate & ~target)
        if space.model_class is ModelClass.MA:
            tmax = ma_expected_time(space, target, Direction.MAX, CFG)
            assert tmax.info["pinned_inf"] == space.n_states - len(finite)

    def test_zero_time_trap_names_the_trapped_states(self):
        space = space_of(TestMarkovAutomata.ZERO_TIME_TRAP)
        goal = space.labels["goal"]
        trap = _stay_oracle(space, (np.diff(space.choice_ptr) > 0) & ~goal)
        assert trap == {0}
        with pytest.raises(SolverError, match=r"through states \[0\]"):
            ma_expected_time(space, goal, Direction.MIN, CFG)

    def test_long_dtmc_chain_min(self):
        n = 1999
        space = space_of(f"""
            dtmc
            module chain
              x : [0..{n}] init 0;
              [] x<{n} -> 9/10:(x'=x+1) + 1/10:(x'=x);
            endmodule
            label "goal" = x={n};
        """)
        res = reach_prob(space, space.labels["goal"], Direction.MIN, CFG)
        assert res.value == 1.0
        assert res.info["pinned_zero"] == 0

    def test_long_ma_chain_max_time(self):
        n = 1999
        space = space_of(f"""
            ma
            module chain
              x : [0..{n}] init 0;
              rate(2) x<{n} -> 9/10:(x'=x+1) + 1/10:(x'=x);
            endmodule
            label "goal" = x={n};
        """)
        res = ma_expected_time(space, space.labels["goal"], Direction.MAX,
                               CFG)
        assert res.value == pytest.approx(n / 1.8, rel=1e-12)
        assert res.info["pinned_inf"] == 0


# --------------------------------------------------------------------------
# the named pinning rules: Prob0 and Prob1 under every or some scheduler


def _random_ma(seed: int):
    """A seeded MA of 2-12 states, each immediate (1-3 rows of 1-2
    branches), Markovian (1-3 rates) or absorbing, with 1-4 goal states."""
    rng = Random(seed)
    n = rng.randint(2, 12)
    choices, markovian = [], {}
    for s in range(n):
        kind = rng.random()
        if kind < 0.4:
            choices.append([[(rng.randint(1, 3), rng.randrange(n))
                             for _ in range(rng.randint(1, 2))]
                            for _ in range(rng.randint(1, 3))])
            continue
        choices.append([])
        if kind < 0.9:
            markovian[s] = [(rng.choice([0.5, 1, 2]), rng.randrange(n))
                            for _ in range(rng.randint(1, 3))]
    goal = rng.sample(range(n), k=rng.randint(1, max(1, n // 3)))
    return direct_space(ModelClass.MA, choices, markovian=markovian,
                        labels={"goal": goal}, initial=rng.randrange(n))


def _pin_cases():
    for seed in range(8):
        space = random_layered_mdp(seed)
        goal = space.labels["goal"]
        extra = np.random.default_rng(seed).random(space.n_states) < 0.3
        yield f"layered{seed}", space, goal
        yield f"layered{seed}+", space, goal | extra
    space = direct_space(ModelClass.MDP, END_COMPONENT, labels={"goal": [3]})
    yield "end_component", space, space.labels["goal"]
    for seed in range(40):
        space = _random_ma(seed)
        yield f"ma{seed}", space, space.labels["goal"]


def _states(mask) -> set[int]:
    return set(np.flatnonzero(mask).tolist())


class TestPinRules:
    @pytest.mark.parametrize("case", list(_pin_cases()),
                             ids=lambda case: case[0])
    def test_against_the_fixpoint_oracles(self, case):
        _, space, target = case
        sp, n = space.closed, space.n_states
        goal = _states(target)
        pins = {}
        for maximize in (True, False):
            zero = numeric._prob0(sp.in_branches, target, maximize)
            one = numeric._prob1(sp, target, maximize, zero)
            assert not (zero & target).any() and one[target].all()
            pins[maximize] = _states(zero), _states(one)
        # Pmax = 0: no path leads to the target
        assert pins[True][0] == set(range(n)) - _reach_oracle(
            space, goal, np.ones(n, dtype=bool))
        # Pmin = 0: some scheduler avoids the target forever
        zero_min = _stay_oracle(space, ~target)
        assert pins[False][0] == zero_min
        # Pmax = 1 (Prob1E): some scheduler reaches the target surely
        assert pins[True][1] == _prob1e_oracle(space, target)
        # Pmin = 1 (Prob1A): no path that avoids the target leads to a
        # state where some scheduler avoids it forever
        assert pins[False][1] == set(range(n)) - _reach_oracle(
            space, zero_min, ~target)

    @pytest.mark.parametrize("seed", range(8))
    def test_against_policy_enumeration(self, seed):
        space = random_layered_mdp(seed)
        target = space.labels["goal"]
        for maximize in (True, False):
            best = _dense_reach(space, target, maximize)
            zero = numeric._prob0(space.closed.in_branches, target, maximize)
            one = numeric._prob1(space.closed, target, maximize, zero)
            assert _states(zero) == _states(np.abs(best) < 1e-12)
            assert _states(one) == _states(np.abs(best - 1) < 1e-12)

    def test_expected_time_pins_the_complement_of_a_one_set(self):
        # Tmax is finite where Pmin is 1, Tmin where Pmax is 1
        compared = {Direction.MAX: 0, Direction.MIN: 0}
        for seed in range(40):
            space = _random_ma(seed)
            goal = space.labels["goal"]
            for time, prob in ((Direction.MAX, Direction.MIN),
                               (Direction.MIN, Direction.MAX)):
                try:
                    res = ma_expected_time(space, goal, time, CFG)
                except SolverError as e:
                    assert time is Direction.MIN and "zero-time" in str(e)
                    continue
                one = reach_prob(space, goal, prob, CFG).info["pinned_one"]
                assert res.info["pinned_inf"] == space.n_states - one
                compared[time] += 1
        # both directions are compared on most models, not vacuously
        assert min(compared.values()) >= 20


# --------------------------------------------------------------------------
# graph layer: strongly connected components and the solve order


def _mutual_reach_sccs(n: int, succs: list[set[int]]) -> set[frozenset]:
    """The textbook strongly connected components: states that reach each
    other, by one search per state."""
    reach = []
    for s in range(n):
        seen, todo = {s}, [s]
        while todo:
            for t in succs[todo.pop()] - seen:
                seen.add(t)
                todo.append(t)
        reach.append(seen)
    return {frozenset(t for t in reach[s] if s in reach[t])
            for s in range(n)}


def _graph_case(seed: int) -> list[list[list[tuple[float, int]]]]:
    """Rows of a random MDP whose random part leads into a two-state cycle
    above a long acyclic tail, and into a second tail that ends in a
    two-state cycle.  Every row also leads to the goal, the last state, so
    that every cyclic block has a way out."""
    rng = np.random.default_rng(seed)
    n_rand = int(rng.integers(2, 12))
    a, b = int(rng.integers(5, 40)), int(rng.integers(5, 40))
    head = n_rand                 # the upper cycle, then its tail of a
    second = head + 2 + a         # a tail of b, then the lower cycle
    goal = second + b + 2
    into = list(range(head + 1)) + [second]
    edges = [[list(rng.choice(into, size=int(rng.integers(1, 4))))
              for _ in range(int(rng.integers(1, 4)))]
             for _ in range(n_rand)]
    edges += [[[head + 1]], [[head], [head + 2]]]
    edges += [[[t + 1]] for t in range(head + 2, second - 1)] + [[[]]]
    edges += [[[t + 1]] for t in range(second, goal - 2)]
    edges += [[[goal - 1]], [[goal - 2], [goal - 2, goal - 1]]]
    if seed % 2:
        # edges from the tails back up, which close larger cycles
        for t in rng.choice(np.arange(head + 2, goal - 2), size=3):
            edges[t].append([int(rng.integers(0, goal))])
    choices = [[[(1, int(t)) for t in row] + [(1, goal)] for row in rows]
               for rows in edges]
    return choices + [[[(1, goal)]]]


class TestGraphLayer:
    @pytest.mark.parametrize("seed", range(40))
    def test_sccs_against_mutual_reachability(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        succs = [set(rng.choice(n, size=int(rng.integers(0, 4))).tolist())
                 for _ in range(n)]
        # a two-state cycle above a tail of the last states, one below it
        if n >= 6:
            succs[0] |= {1}
            succs[1] |= {0, 2}
            for t in range(2, n - 2):
                succs[t] |= {t + 1}
            succs[n - 2] |= {n - 1}
            succs[n - 1] |= {n - 2}
        ptr = np.cumsum([0] + [len(x) for x in succs]).tolist()
        comp = numeric._sccs(ptr, [t for x in succs for t in sorted(x)])
        found = {}
        for s, c in enumerate(comp):
            found.setdefault(c, set()).add(s)
        assert {frozenset(x) for x in found.values()} \
            == _mutual_reach_sccs(n, succs)
        # numbered as they complete: no edge leads to a higher number
        assert all(comp[t] <= comp[s] for s in range(n) for t in succs[s])

    @pytest.mark.parametrize("seed", range(40))
    def test_plan_blocks_against_mutual_reachability(self, seed):
        space = direct_space(ModelClass.MDP, _graph_case(seed))
        n = space.n_states
        free = np.arange(n) < n - 1
        plan, info = numeric._plan(space.closed, free, np.ones(n, bool), 0.0)
        # the graph that _plan splits: the branches among free states,
        # self-loops aside
        succs = [set().union(*({t for _, t in c.distribution.branches
                                if t != s and free[t]} for c in cs))
                 for s, cs in enumerate(space.choices[:-1])]
        want = _mutual_reach_sccs(n - 1, succs)
        blocks = []
        for kind, at, rows, branches in plan.blocks:
            states = plan.states[at].tolist()
            if kind == "level":
                blocks += [frozenset([s]) for s in states]
            else:
                blocks.append(frozenset(states))
        assert set(blocks) == want and len(blocks) == len(want)
        assert info == {"sccs": len(want),
                        "largest_scc": max(len(c) for c in want)}
        # every branch stays in its block or leads to one solved earlier
        solved = set(np.flatnonzero(~free).tolist())
        for kind, at, rows, branches in plan.blocks:
            block = set(plan.states[at].tolist())
            assert set(plan.target[branches].tolist()) <= solved | block
            solved |= block
        assert solved == set(range(n))

    def test_an_acyclic_model_reaches_no_tarjan(self, monkeypatch):
        # the trim peels every free state of an acyclic model
        def tarjan(ptr, succ):
            assert ptr == [0] and succ == []
            return []

        space = space_of(gen_contact_mdp(parse_contact_plan(
            sample_contact_plan())).model)
        want = reach_prob(space, space.labels["delivered"], Direction.MAX)
        monkeypatch.setattr(numeric, "_sccs", tarjan)
        got = reach_prob(space, space.labels["delivered"], Direction.MAX)
        assert got.value == want.value
        assert got.info == want.info and got.info["sccs"] > 10


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

#: An immediate cycle between x=0 and x=1: the direct way (b) to the slow
#: race at x=3, or round through x=1 to the fast race at x=2, which may
#: send the run back.
IMMEDIATE_CYCLE_MA = """
    ma
    module m
      x : [0..5] init 0;
      [a] x=0 -> (x'=1);   [b] x=0 -> (x'=3);
      [c] x=1 -> (x'=0);   [d] x=1 -> (x'=2);
      rate(4) x=2 -> 1/2:(x'=4) + 1/2:(x'=0);
      rate(1) x=3 -> (x'=4);
    endmodule
    label "goal" = x=4;
"""

#: A link of ``k`` hops: each hop fails with 1/10 into a retry state,
#: which retries (back to the hop) or skips it, both risking the sink
#: ``k + 1``.  Every hop is a two-state cyclic block of its own.
RETRY = """
    mdp
    module link
      i : [0..{sink}] init 0;
      b : [0..1] init 0;
      [] b=0 & i<{k} -> 9/10:(i'=i+1) + 1/10:(b'=1);
      [retry] b=1 -> 9/10:(b'=0) + 1/10:(i'={sink}, b'=0);
      [skip] b=1 -> 1/2:(i'=i+1, b'=0) + 1/2:(i'={sink}, b'=0);
    endmodule
    label "done" = i={k};
"""


def retry_model(k: int) -> str:
    return RETRY.format(k=k, sink=k + 1)


@functools.cache
def _pinned_space(name):
    if name == "gambler20":
        return space_of(GAMBLER_20)
    if name == "bitcoin3":
        return space_of(gen_bitcoin(BitcoinParams(CD=3)).model)
    if name == "contacts":
        return space_of(gen_contact_mdp(parse_contact_plan(
            sample_contact_plan())).model)
    if name == "retry50":
        return space_of(retry_model(50))
    if name == "immediate_cycle":
        return space_of(IMMEDIATE_CYCLE_MA)
    return space_of(SMALL_MA)


def _analyse(space, target: str, analysis: str):
    """``Pmax``/``Pmin``/``Tmax``/``Tmin``: reach probability or expected
    time; ``Pmax<=b``: time-bounded reachability at a coarse bound width;
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
     "303833a546c5c3ef5d44d1a4c30f910e59b69dd0a9975e6dcaa514e834660e77"),
    ("gambler20", '"goal"', "cdfmax<=100",
     "d282f5dbe08736106f2495cb350f988277decbe77db9b099b5051225c9dab58e"),
    ("bitcoin3", '"goal"', "Pmax",
     "31ad621b01e7569513f23974f7a53949e4d8ef2b03148e4cc63fbe3765f73c1a"),
    ("bitcoin3", "m_diff = -2", "Pmin",
     "4b5e3223994118ca58b0e178eb2c5dc4c448326bb71915db9dc25b70a0bbfff8"),
    ("bitcoin3", '"goal"', "Tmin",
     "c57f45e361314454c5c306c3fafd130db4e2144e674b107c46602374e5cc1568"),
    ("bitcoin3", '"goal"', "Tmax",
     "bc985589c3a2478e36f2271f5399108ff17ac6db6c4bd0c56e32038ad60da89a"),
    ("bitcoin3", '"goal"', "Pmax<=20",
     "6eae2e21ce25fc6ffcacf21354e2792ed40a4650b5e7f6a583b9b7d0a446a0c7"),
    ("bitcoin3", '"goal"', "Pmin<=20",
     "e0730fbd9b2b4ec823d39aae57d82d40d670009218c2bc8c101550640e8f15ad"),
    ("contacts", '"delivered"', "Pmax",
     "7d76d5eca2775ac5b98f143eaed635024b50d422a6e68dbfb68e2a81d6bdb86e"),
    ("contacts", '"delivered"', "Pmin",
     "5ceeb50d6a33ffecdb5d18ca884f5ff2e1f876a68711ee21a554f093adc715e6"),
    ("contacts", '"delivered"', "cdfmax<=12",
     "a5602993bcbd05afa769e47cf2d21a7b6ff11945bbd5b2c0cdb917870448de98"),
    ("contacts", '"delivered"', "cdfmin<=12",
     "24fd534facce71f260b9a989045483e003cb6b6d935b92bc3355ff4aef3ccbfc"),
    ("small_ma", '"goal"', "Pmax",
     "45141fed850e59ea2e72551107063fedbdf5c26e61a7e90555af10f0c20dd00b"),
    ("small_ma", '"goal"', "Pmin",
     "fe3c2f6374cb1ebc63cd9709fca77002272783e9565553a5067cfaab0d97c00a"),
    ("small_ma", "x = 4 | x = 6", "Tmin",
     "4f08115becd5be8f8b81cc250d7f4791127e8a4a09455815d62a2d58a95f1e4a"),
    ("small_ma", "x = 4 | x = 6", "Tmax",
     "57cc09e42782d68f0a2d0255d6f9ecb66479bcf5021b8fe737e8570282dbbad0"),
    ("small_ma", '"goal"', "Tmin",
     "5b6049b8588d83d4419a0111e915d0de4a9ca327a37c155f7e189e36f0596350"),
    ("small_ma", '"goal"', "Pmax<=3",
     "6d17725959700865fa6e89ea119af2ef5e995d7a107fab4c79068eb3366675fd"),
    ("small_ma", '"goal"', "Pmin<=3",
     "d5694748bab5445d02484dc796b1af988a07ba5221a8c19b3f3f6584f2954fee"),
    ("retry50", '"done"', "Pmax",
     "1f49f772ed1260aafec83dfebbdfed75c70ac33dfd88bbc3b2bb4c534e9e5232"),
    ("retry50", '"done"', "Pmin",
     "e61eb4e383e09db9853ed1787d351d2433b0e2665f76c534cafe83529953d036"),
]


class TestPinnedResults:
    """Every reported field of a result: unbounded reachability and
    expected time as solved exactly block by block, step-bounded analyses
    as computed before value iteration ran over packed rows, time-bounded
    ones as bracketed by uniformization.  A change here changes what
    ``qmv check`` and ``qmv cdf`` print."""

    @pytest.mark.parametrize(
        "model, target, analysis, digest", PINNED_RESULTS,
        ids=[f"{m}-{a}-{i}" for i, (m, _, a, _) in enumerate(PINNED_RESULTS)])
    def test_result(self, model, target, analysis, digest):
        result = _analyse(_pinned_space(model), target, analysis)
        assert _result_digest(result) == digest


# --------------------------------------------------------------------------
# time-bounded reachability: the uniformization bracket


def _stationary_time_bounded(space, goal, policy, t) -> float | None:
    """P(reach ``goal`` within ``t``) when every state with choices takes
    the one ``policy`` names, by dense uniformization.  Immediate states
    take no time, so each passes its mass on to where its zero-time cascade
    comes to rest; goal states are absorbing.  None where the policy
    cycles through immediate states, in zero time."""
    n = space.n_states
    imm = np.array([bool(cs) for cs in space.choices]) & ~goal
    step = np.zeros((n, n))
    for s in np.flatnonzero(imm):
        for p, u in space.choices[s][policy[s]].distribution.branches:
            step[s, u] += p
    if np.linalg.matrix_power(step, n).any():
        return None
    rest = np.linalg.solve(np.eye(n) - step, np.diag(~imm).astype(float))
    gen = np.zeros((n, n))
    for s in np.flatnonzero(~imm & ~goal):
        race = space.markovian[s]
        if race is not None:
            for r, u in race.entries:
                gen[s] += r * rest[u]
            gen[s, s] -= race.exit_rate
    lam = -gen.diagonal().min()
    jump = np.eye(n) + gen / lam
    pi, total = rest[space.initial], 0.0
    for k in range(200):  # Poisson(lam * t) mass beyond is below 1e-60
        total += math.exp(k * math.log(lam * t) - lam * t
                          - math.lgamma(k + 1)) * pi[goal].sum()
        pi = pi @ jump
    return total


class TestTimeBoundedBracket:
    @pytest.mark.parametrize("width", [1e-2, 1e-6])
    @pytest.mark.parametrize("direction", [Direction.MAX, Direction.MIN])
    @pytest.mark.parametrize("model, bound", [("small_ma", 3.0),
                                              ("bitcoin3", 20.0),
                                              ("immediate_cycle", 6.0)])
    def test_bracket_is_ordered_and_as_narrow_as_requested(
            self, model, bound, direction, width):
        space = _pinned_space(model)
        res = ma_time_bounded(space, space.labels["goal"], direction, bound,
                              SolverConfig(time_bound_error=width))
        lower, upper = res.info["lower"], res.info["upper"]
        assert 0.0 <= lower <= upper <= 1.0
        assert upper - lower <= width
        assert res.residual == upper - lower
        assert res.value == (lower + upper) / 2

    @pytest.mark.parametrize("width", [1e-2, 1e-6])
    @pytest.mark.parametrize("model, bound, policies", [
        ("small_ma", 3.0, 4), ("immediate_cycle", 6.0, 3)])
    def test_bracket_encloses_every_stationary_policy(self, model, bound,
                                                      policies, width):
        # Pmax's lower end is achievable and Pmin's upper end too, so they
        # are no worse than any stationary policy, up to the truncation
        # each side may cost (1% of the width)
        space = _pinned_space(model)
        goal = space.labels["goal"]
        values = [v for policy in itertools.product(
                      *[range(max(len(cs), 1)) for cs in space.choices])
                  if (v := _stationary_time_bounded(space, goal, policy,
                                                    bound)) is not None]
        cfg = SolverConfig(time_bound_error=width)
        mx = ma_time_bounded(space, goal, Direction.MAX, bound, cfg).info
        mn = ma_time_bounded(space, goal, Direction.MIN, bound, cfg).info
        assert len(values) == policies
        assert mx["lower"] >= max(values) - width / 100
        assert mx["upper"] >= max(values)
        assert mn["upper"] <= min(values) + width / 100
        assert mn["lower"] <= min(values)

    def test_a_second_resolve_starts_from_the_kept_policy(self):
        space = _pinned_space("immediate_cycle")
        sp = space.closed
        plan, _ = numeric._plan(sp, np.diff(space.choice_ptr) > 0,
                                np.ones(space.n_states, dtype=bool), 0.0)
        dense = [kind for kind, *_ in plan.blocks].count("dense")
        # the initial policy takes b at x=0, but the way round is better
        x = space.valuations[:, 0]
        V = np.select([x == 2, x == 3, x == 4], [0.9, 0.5, 1.0])
        first, _ = numeric._resolve(V, plan, True, CFG)
        second, _ = numeric._resolve(V, plan, True, CFG)
        assert dense == 1
        assert first == 2
        assert second == dense

    @pytest.mark.parametrize("mean", [0.0, 1e-3, 30.0, 300.0, 1000.0, 1e4])
    def test_poisson_weights_are_finite_and_sum_to_the_tail(self, mean):
        tail = 1e-9
        weights, survival = numeric._poisson(mean, tail)
        assert np.isfinite(weights).all() and np.isfinite(survival).all()
        assert len(survival) == len(weights) + 1
        assert survival[-1] <= tail < survival[-2]
        assert 1.0 - tail <= weights.sum() <= 1.0 + 1e-12
        assert weights.sum() + survival[-1] == pytest.approx(1.0, abs=1e-12)
        mode = math.floor(mean)
        pmf = math.exp(mode * math.log(mean) - mean - math.lgamma(mode + 1)
                       if mean else 0.0)
        assert weights[mode] == pytest.approx(pmf, rel=1e-9)

    def test_bundled_bound_refines_to_the_default_width(self):
        # rate times bound 300: digitization needed 4.5e8 steps for 1e-4
        # and gave 0.61814 at an a-priori error of 0.05
        space = space_of(gen_bitcoin(BitcoinParams()).model)
        res = ma_time_bounded(space, space.labels["goal"], Direction.MAX,
                              3600.0, CFG)
        assert res.info["intervals"] > 1
        assert res.info["upper"] - res.info["lower"] <= 1e-4
        assert abs(res.value - 0.61814) <= 0.05

    def test_zero_time_trap(self):
        # Pmin loops forever in zero time; Pmax leaves for the race
        space = space_of(TRAP_MA)
        cfg = SolverConfig(time_bound_error=1e-6)
        mn = ma_time_bounded(space, space.labels["goal"], Direction.MIN,
                             10.0, cfg)
        mx = ma_time_bounded(space, space.labels["goal"], Direction.MAX,
                             10.0, cfg)
        assert mn.info["lower"] == 0.0
        assert mn.value == pytest.approx(0.0, abs=1e-6)
        assert mx.value == pytest.approx(1 - math.exp(-10), abs=1e-6)
        assert mx.info["lower"] <= 1 - math.exp(-10) <= mx.info["upper"]
