"""Statistical model checking and lightweight scheduler sampling."""
import hashlib
import json
import math

import numpy as np
import pytest

from qmv import smc
from qmv.casestudies import (
    BitcoinParams,
    gen_bitcoin,
    gen_contact_mdp,
    parse_contact_plan,
    sample_contact_plan,
)
from qmv.core import (
    Direction,
    ModelClass,
    Property,
    PropertyKind,
    decision_states,
)
from qmv.lang import parse_model, parse_property
from qmv.lang.explore import explore
from qmv.smc import (
    LssConfig,
    NotGoodForDistribution,
    SmcConfig,
    SmcEstimate,
    clopper_pearson,
    encode_state,
    estimate,
    fmix64,
    fnv1a64,
    lss,
    lss_choices,
    lss_decide,
    run_seed,
    sample_scheduler_ids,
    simulate_run,
)

from conftest import (
    COIN,
    INTERLEAVED_MDP,
    TRAP_MA,
    direct_space,
    geometric,
    reachable_under,
    space_of,
)


class TestHashing:
    def test_fnv_reference_vectors(self):
        # published FNV-1a 64-bit test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_fnv_frozen_values(self):
        assert fnv1a64(b"\x00\x00\x00\x00") == 5558979605539197941
        key = (7).to_bytes(4, "little") + (1).to_bytes(8, "little", signed=True)
        assert fnv1a64(key) == 10635229638300075171

    def test_encode_state_little_endian_twos_complement(self):
        sp = space_of("""
            mdp
            module m
              x : [-2..2] init 1;
              y : [-2..2] init -1;
              [] x=1 -> (x'=0);
            endmodule
        """)
        assert encode_state(sp, 0) == (
            b"\x01" + b"\x00" * 7 + b"\xff" * 8)

    def test_encode_state_projection(self):
        sp = space_of("""
            mdp
            module m
              x : [0..3] init 2;
              y : [0..3] init 3;
              [] x=2 -> (x'=0);
            endmodule
        """)
        assert encode_state(sp, 0, [1]) == (3).to_bytes(8, "little")
        # projections are applied in layout order regardless of input order
        assert encode_state(sp, 0, [1, 0]) == encode_state(sp, 0, [0, 1])
        assert encode_state(sp, 0, []) == b""

    def test_lss_decide_is_hash_mod_k(self):
        sp = space_of("""
            mdp
            module m
              x : [-2..2] init 1;
              [] x=1 -> (x'=0);
            endmodule
        """)
        sb = encode_state(sp, 0)
        expected = fmix64(fnv1a64((7).to_bytes(4, "little") + sb)) % 3
        assert lss_decide(7, sb, 3) == expected == 1
        assert lss_decide(7, sb, 1) == 0
        # MurmurHash3's 64-bit finalizer
        assert fmix64(0) == 0
        assert fmix64(1) == 0xB456BCFC34C2CB2C
        # two-way decisions of consecutive ids differ, not only in parity
        assert [lss_decide(i, sb, 2) for i in range(16)] == [
            0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 1]
        with pytest.raises(ValueError):
            lss_decide(7, sb, 0)

    def test_run_seed_frozen_value(self):
        # SplitMix64's published first output for seed 0
        assert run_seed(0, 0) == 0xE220A8397B1DCDAF

    def test_scheduler_id_sampling_is_deterministic(self):
        assert sample_scheduler_ids(5, 4) == sample_scheduler_ids(5, 4)
        assert all(0 <= i < 2 ** 32 for i in sample_scheduler_ids(5, 100))


class TestSmcConfig:
    def test_okamoto_run_count(self):
        cfg = SmcConfig(epsilon=0.01, delta=0.05)
        assert cfg.n_runs() == 18_445

    def test_explicit_runs_win(self):
        assert SmcConfig(runs=123).n_runs() == 123

    def test_requires_runs_or_epsilon_delta(self):
        with pytest.raises(ValueError):
            SmcConfig()
        with pytest.raises(ValueError):
            SmcConfig(epsilon=0.1)
        with pytest.raises(ValueError):
            SmcConfig(runs=0)
        with pytest.raises(ValueError):
            SmcConfig(epsilon=0.0, delta=0.5)
        with pytest.raises(ValueError):
            SmcConfig(delta=0.05)
        with pytest.raises(ValueError):
            SmcConfig(runs=100, epsilon=0.05, delta=0.05)
        with pytest.raises(ValueError):
            SmcConfig(runs=100, delta=0.05)

    def test_rejects_no_steps_and_no_schedulers(self):
        with pytest.raises(ValueError, match="max_steps must be positive"):
            SmcConfig(runs=10, max_steps=0)
        with pytest.raises(ValueError, match="m must be at least 1"):
            LssConfig(m=0)


class TestSmcEstimate:
    def test_interval_must_bracket_mean(self):
        with pytest.raises(ValueError):
            SmcEstimate(mean=0.5, ci_low=0.6, ci_high=0.7, runs=10)

    def test_half_width(self):
        e = SmcEstimate(mean=0.5, ci_low=0.45, ci_high=0.58, runs=10)
        assert e.half_width == pytest.approx(0.08)


def _unbounded(target, direction=Direction.MAX):
    return Property(PropertyKind.REACH_PROB, direction, target)


class TestSimulateRun:
    def test_target_at_initial_state_hits_in_zero_steps(self, coin_dtmc):
        everything = np.ones(coin_dtmc.n_states, dtype=bool)
        out = simulate_run(coin_dtmc, None, _unbounded(everything), seed=1)
        assert out.hit and out.steps == 0

    def test_step_bound_cuts_off(self):
        sp = space_of("""
            dtmc
            module m
              x : [0..3] init 0;
              [] x<3 -> (x'=x+1);
            endmodule
            label "goal" = x=3;
        """)
        bounded = Property(PropertyKind.STEP_BOUNDED_REACH_PROB,
                           Direction.MAX, "goal", bound=2)
        out = simulate_run(sp, None, bounded, seed=1)
        assert not out.hit and not out.truncated
        ok = Property(PropertyKind.STEP_BOUNDED_REACH_PROB,
                      Direction.MAX, "goal", bound=3)
        assert simulate_run(sp, None, ok, seed=1).hit

    def test_absorbing_miss_is_definitive(self, coin_dtmc):
        # runs that land in the non-target absorbing state stop immediately
        out = simulate_run(coin_dtmc, None, _unbounded("heads"), seed=0,
                           max_steps=10)
        assert not out.truncated

    def test_multi_state_cycle_truncates(self):
        sp = direct_space(
            ModelClass.DTMC,
            [[[(1, 1)]], [[(1, 0)]], [[(1, 2)]]],
            labels={"goal": [2]},
        )
        out = simulate_run(sp, None, _unbounded("goal"), seed=3, max_steps=7)
        assert not out.hit and out.truncated and out.steps == 7

    def test_expected_time_is_not_simulated(self, coin_dtmc):
        prop = Property(PropertyKind.EXPECTED_TIME, Direction.MIN, "heads")
        with pytest.raises(ValueError):
            simulate_run(coin_dtmc, None, prop, seed=0)

    def test_ma_time_bound_accumulates_sojourns(self):
        sp = space_of("""
            ma
            module m
              x : [0..1] init 0;
              rate(1000) x=0 -> (x'=1);
            endmodule
            label "goal" = x=1;
        """)
        prop = Property(PropertyKind.TIME_BOUNDED_REACH_PROB,
                        Direction.MAX, "goal", bound=1.0)
        out = simulate_run(sp, None, prop, seed=5)
        assert out.hit and out.elapsed > 0.0


class TestEstimate:
    def test_coin_estimate_brackets_half(self, coin_dtmc):
        cfg = SmcConfig(runs=4000, master_seed=1)
        est = estimate(coin_dtmc, None, _unbounded("heads"), cfg)
        assert est.runs == 4000
        assert abs(est.mean - 0.5) <= est.half_width
        assert est.ci_low <= est.mean <= est.ci_high

    def test_same_seed_same_answer(self, coin_dtmc):
        cfg = SmcConfig(runs=500, master_seed=9)
        a = estimate(coin_dtmc, None, _unbounded("heads"), cfg)
        b = estimate(coin_dtmc, None, _unbounded("heads"), cfg)
        assert a == b

    def test_okamoto_interval_has_requested_width(self, coin_dtmc):
        cfg = SmcConfig(epsilon=0.05, delta=0.1, master_seed=2)
        est = estimate(coin_dtmc, None, _unbounded("heads"), cfg)
        assert est.half_width == pytest.approx(0.05)
        assert est.ci_method == "okamoto"

    def test_interval_is_clipped_to_unit_range(self, coin_dtmc):
        cfg = SmcConfig(epsilon=0.3, delta=0.1, master_seed=2)
        est = estimate(coin_dtmc, None, _unbounded("heads"), cfg)
        assert 0.0 <= est.ci_low and est.ci_high <= 1.0

    def test_deterministic_model_needs_no_resolver(self):
        sp = space_of("""
            mdp
            module m
              x : [0..1] init 0;
              [] x=0 -> (x'=1);
            endmodule
            label "goal" = x=1;
        """)
        est = estimate(sp, None, _unbounded("goal"), SmcConfig(runs=10))
        assert est.mean == 1.0

    def test_a_choice_without_a_resolver_is_an_error(self):
        sp = space_of("""
            mdp
            module m
              x : [0..2] init 0;
              [a] x=0 -> (x'=1);
              [b] x=0 -> (x'=2);
            endmodule
            label "goal" = x=1;
        """)
        with pytest.raises(ValueError, match="state 0 has several choices "
                           "but no resolver was supplied"):
            estimate(sp, None, _unbounded("goal"), SmcConfig(runs=10))

    def test_a_step_bound_does_not_apply_to_an_ma(self):
        sp = space_of(TRAP_MA)
        prop = Property(PropertyKind.STEP_BOUNDED_REACH_PROB, Direction.MAX,
                        "goal", 3)
        with pytest.raises(ValueError,
                           match="properties do not apply to ma models"):
            estimate(sp, lambda s: 1, prop, SmcConfig(runs=10))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_a_choice_out_of_range_is_an_error(self, bad):
        # state 0 has two choices, both to the sink 2; its neighbours' rows
        # lead to the goal 3, so reading one of them would report hits
        sp = direct_space(
            ModelClass.MDP,
            [[[(1, 2)], [(1, 2)]], [[(1, 3)]], [[(1, 2)]], [[(1, 3)]]],
            labels={"goal": [3]})
        prop = _unbounded("goal")
        for good in (0, 1):
            assert estimate(sp, lambda s: good, prop,
                            SmcConfig(runs=10)).mean == 0.0
        message = f"resolver chose {bad} at state 0, which has 2 choices"
        with pytest.raises(ValueError, match=message):
            estimate(sp, lambda s: bad, prop, SmcConfig(runs=10))
        with pytest.raises(ValueError, match=message):
            simulate_run(sp, lambda s: bad, prop, seed=0)

    def test_truncated_runs_count_as_hits_at_the_upper_end(self):
        # each step succeeds or fails for good with probability 1/4, so the
        # value is 1/2; after two steps 1/4 of the runs still retry, and
        # without them the interval lies below 1/2
        sp = space_of("""
            dtmc
            module g
              x : [0..2] init 0;
              [] x=0 -> 1/4:(x'=1) + 1/4:(x'=2) + 1/2:(x'=0);
            endmodule
            label "done" = x=1;
        """)
        prop = _unbounded("done")
        est = estimate(sp, None, prop, SmcConfig(runs=400, max_steps=2))
        hits = round(est.mean * 400)
        assert 0 < est.truncated < 400 - hits
        assert clopper_pearson(hits, 400)[1] < 0.5 < est.ci_high
        assert est.ci_low == clopper_pearson(hits, 400)[0]
        assert est.ci_high == clopper_pearson(hits + est.truncated, 400)[1]
        est = estimate(sp, None, prop,
                       SmcConfig(epsilon=0.05, delta=0.1, max_steps=2))
        assert est.ci_low == pytest.approx(est.mean - 0.05)
        assert est.ci_high == pytest.approx(
            (est.mean * est.runs + est.truncated) / est.runs + 0.05)

    def test_rare_event_interval_is_not_degenerate(self):
        # a Wald interval around 0 hits in 50 runs is [0, 0], excluding 0.01
        sp = space_of("""
            dtmc
            module m
              x : [0..2] init 0;
              [] x=0 -> 1/100:(x'=1) + 99/100:(x'=2);
            endmodule
            label "hit" = x=1;
        """)
        est = estimate(sp, None, _unbounded("hit"), SmcConfig(runs=50))
        assert est.ci_method == "clopper-pearson"
        assert est.ci_high > 0
        assert est.ci_low <= 0.01 <= est.ci_high


def _trap_reaches_the_race(state):
    return 1


#: (space, property, resolver, max_steps) cases for the lockstep simulator:
#: no resolver, truncation, and a resolved MA under a time bound
LOCKSTEP_CASES = {
    "coin": (lambda: space_of(COIN), _unbounded("heads"), None, 100),
    "truncated": (lambda: geometric(0.5), _unbounded("done"), None, 3),
    "ma-time-bound": (
        lambda: space_of(TRAP_MA),
        Property(PropertyKind.TIME_BOUNDED_REACH_PROB, Direction.MAX, "goal",
                 bound=1.0),
        _trap_reaches_the_race, 100),
}


class TestLockstep:
    @pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
    def test_estimate_does_not_depend_on_the_batch_size(self, case,
                                                         monkeypatch):
        make, prop, resolver, max_steps = LOCKSTEP_CASES[case]
        space = make()
        cfg = SmcConfig(runs=300, master_seed=4, max_steps=max_steps)
        results = []
        for cap in (1, 7, smc.MAX_BATCH):
            monkeypatch.setattr(smc, "MAX_BATCH", cap)
            results.append(estimate(space, resolver, prop, cfg))
        assert results[0] == results[1] == results[2]
        assert 0 < results[0].mean < 1
        if case == "truncated":
            assert results[0].truncated > 0

    @pytest.mark.parametrize("case", ["mdp", "contacts"])
    def test_lss_does_not_depend_on_the_batch_size(self, case, monkeypatch):
        # all behaviours share one pass: with 100 runs each, a cap of 150
        # puts two behaviours in a batch and splits one over two batches
        sp, prop, constants = CASE_STUDIES[case]() if case == "contacts" \
            else (space_of(TestLss.MDP), _unbounded("goal"), None)
        cfg = LssConfig(m=20, inner=SmcConfig(runs=100), sampler_seed=1)
        results = []
        for cap in (1, 7, 150, smc.MAX_BATCH):
            monkeypatch.setattr(smc, "MAX_BATCH", cap)
            results.append(lss(sp, prop, cfg, constants=constants))
        assert all(res == results[0] for res in results)
        assert results[0].distinct_behaviors > 1

    @pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
    def test_simulate_run_replays_run_r_of_estimate(self, case):
        make, prop, resolver, max_steps = LOCKSTEP_CASES[case]
        space = make()
        hits = []
        for runs in range(1, 41):
            cfg = SmcConfig(runs=runs, master_seed=9, max_steps=max_steps)
            hits.append(round(estimate(space, resolver, prop, cfg).mean
                              * runs))
        # run r is the difference between the first r+1 and the first r
        for r, (before, after) in enumerate(zip([0] + hits, hits)):
            out = simulate_run(space, resolver, prop, run_seed(9, r),
                               max_steps=max_steps)
            assert out.hit == (after - before)

    def test_resolver_is_asked_once_per_decision_state_entered(self,
                                                               monkeypatch):
        # 0 decides between 1 and 2; 1 decides between the target 3,
        # itself a decision state, and the sink 4; nothing leads to 2
        sp = direct_space(
            ModelClass.MDP,
            [[[(1, 1)], [(1, 2)]],
             [[(1, 3), (1, 4)], [(1, 4)]],
             [[(1, 3)], [(1, 4)]],
             [[(1, 3)], [(1, 4)]],
             [[(1, 4)]]],
            labels={"goal": [3]})
        asked = []

        def first_choice(state):
            asked.append(state)
            return 0

        monkeypatch.setattr(smc, "MAX_BATCH", 7)
        est = estimate(sp, first_choice, _unbounded("goal"),
                       SmcConfig(runs=50))
        assert 0 < est.mean < 1
        assert asked == [0, 1]


#: An MA whose states, in index order, are immediate (a decision), Markovian,
#: absorbing, immediate (a decision), Markovian, absorbing, immediate and
#: the absorbing goal: the simulator's rows of the three kinds interleave.
INTERLEAVED_MA = """
ma
module m
  x : [0..7] init 0;
  [] x=0 -> 1/2:(x'=1) + 1/2:(x'=2);
  [] x=0 -> (x'=3);
  rate(2) x=1 -> (x'=3);
  rate(1) x=1 -> (x'=4);
  [] x=3 -> 1/3:(x'=4) + 2/3:(x'=5);
  [] x=3 -> (x'=1);
  rate(3) x=4 -> (x'=6);
  rate(1) x=4 -> (x'=0);
  [] x=6 -> 1/2:(x'=7) + 1/2:(x'=2);
endmodule
label "goal" = x=7;
"""


class TestPinnedMaEstimates:
    # SHA-256 of the estimates under all four deterministic schedulers, for
    # an unbounded and a time-bounded property, and of the first runs'
    # outcomes; any change to how runs pick successors or races shows here
    PINNED = "ae97b88c139314f604f99340fe0abf797d7138bf4053a4ac242201a0ac376c5d"

    def test_estimates_are_pinned(self):
        model = parse_model(INTERLEAVED_MA)
        space = explore(model)
        kinds = ["I" if k else "M" if r else "A" for k, r in zip(
            np.diff(space.choice_ptr).tolist(), space.exit_rate.tolist())]
        assert "".join(kinds) == "IMAIMAIA"
        payload = []
        for text in ('Pmax=? [ F "goal" ]', 'Pmax=? [ F<=2 "goal" ]'):
            prop = parse_property(text, model_class=model.model_class,
                                  labels=model.label_map())
            for first, second in ((0, 0), (0, 1), (1, 0), (1, 1)):
                pick = {0: first, 3: second}.__getitem__
                est = estimate(space, pick, prop,
                               SmcConfig(runs=2000, master_seed=3))
                assert est.truncated == 0
                payload.append([est.mean, est.ci_low, est.ci_high])
            payload.append([list(simulate_run(space, pick, prop,
                                              run_seed(3, r)).__dict__.values())
                            for r in range(20)])
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert digest == self.PINNED


class TestClopperPearson:
    @pytest.mark.parametrize("runs", [1, 10, 300, 10 ** 6])
    def test_closed_form_at_the_ends(self, runs):
        # Beta(1, n) has the quantile 1 - (1-q)^(1/n)
        low, high = clopper_pearson(0, runs)
        assert low == 0.0
        assert high == pytest.approx(1 - 0.025 ** (1 / runs), abs=1e-11)
        assert high >= 1 - 0.025 ** (1 / runs) - 1e-15
        low, high = clopper_pearson(runs, runs)
        assert low == pytest.approx(0.025 ** (1 / runs), abs=1e-11)
        assert high == 1.0

    def test_matches_a_tabulated_interval(self):
        # Clopper & Pearson's exact 95% interval for 150 of 300
        low, high = clopper_pearson(150, 300)
        assert low == pytest.approx(0.4419977, abs=1e-7)
        assert high == pytest.approx(0.5580023, abs=1e-7)
        assert low + high == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("p", [0.01, 0.5, 0.99])
    @pytest.mark.parametrize("runs", [10, 40])
    def test_seeded_coverage(self, p, runs):
        reps = 2000
        draws = np.random.default_rng(2024).binomial(runs, p, size=reps)
        intervals = [clopper_pearson(x, runs) for x in range(runs + 1)]
        assert all(low < high for low, high in intervals)
        covered = sum(intervals[x][0] <= p <= intervals[x][1]
                      for x in draws.tolist())
        # three standard deviations of the coverage count of reps draws
        slack = 3 * math.sqrt(0.95 * 0.05 / reps)
        assert covered / reps >= 0.95 - slack


class TestLss:
    MDP = """
        mdp
        module m
          x : [0..2] init 0;
          [safe] x=0 -> 1/10:(x'=2) + 9/10:(x'=1);
          [bold] x=0 -> 9/10:(x'=2) + 1/10:(x'=1);
        endmodule
        label "goal" = x=2;
    """

    def _cfg(self, direction, m=20):
        return LssConfig(m=m, direction=direction,
                         inner=SmcConfig(runs=800, master_seed=0),
                         sampler_seed=1)

    def test_max_finds_the_bold_scheduler(self):
        sp = space_of(self.MDP)
        prop = _unbounded("goal")
        res = lss(sp, prop, self._cfg(Direction.MAX))
        assert res.best.mean == pytest.approx(0.9, abs=0.05)
        assert res.mode == "global"

    def test_min_finds_the_safe_scheduler(self):
        sp = space_of(self.MDP)
        res = lss(sp, _unbounded("goal", Direction.MIN),
                  self._cfg(Direction.MIN))
        assert res.best.mean == pytest.approx(0.1, abs=0.05)

    def test_behaviour_deduplication(self):
        # one binary decision: at most two distinct behaviours despite m=20
        sp = space_of(self.MDP)
        res = lss(sp, _unbounded("goal"), self._cfg(Direction.MAX))
        assert res.distinct_behaviors <= 2
        assert len(res.table) == 20

    def test_table_contains_best(self):
        sp = space_of(self.MDP)
        res = lss(sp, _unbounded("goal"), self._cfg(Direction.MAX))
        means = [est.mean for _, est in res.table]
        assert res.best.mean == max(means)
        assert dict(res.table)[res.best_id] == res.best

    def test_distributed_mode_rejects_shared_decisions(self):
        sp = space_of(INTERLEAVED_MDP)
        cfg = LssConfig(m=4, mode="distributed",
                        inner=SmcConfig(runs=10))
        with pytest.raises(NotGoodForDistribution) as err:
            lss(sp, _unbounded("win"), cfg)
        assert err.value.states == [0]

    def test_distributed_mode_runs_on_single_owner_models(self):
        sp = space_of(self.MDP)
        cfg = LssConfig(m=8, mode="distributed", direction=Direction.MAX,
                        inner=SmcConfig(runs=400), sampler_seed=3)
        res = lss(sp, _unbounded("goal"), cfg)
        assert res.mode == "distributed"
        assert res.best.mean == pytest.approx(0.9, abs=0.07)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            LssConfig(m=1, mode="sideways")


def _case_study(case, prop_text):
    """State space, property and constants of a generated case."""
    model = parse_model(case.model)
    prop = parse_property(prop_text, model_class=model.model_class,
                          labels=model.label_map())
    return explore(model), prop, model.constant_values()


CASE_STUDIES = {
    "contacts": lambda: _case_study(
        gen_contact_mdp(parse_contact_plan(sample_contact_plan())),
        'Pmax=? [ F "delivered" ]'),
    "bitcoin": lambda: _case_study(gen_bitcoin(BitcoinParams(CD=3)),
                                   'Pmax=? [ F<=600 "goal" ]'),
}


class TestSampledSchedulers:
    # SHA-256 of the whole lss result (per-id table, best id, distinct
    # behaviours) for m=20 ids and 100 runs each; any change to hashing,
    # deduplication or simulation shows here
    PINNED = {
        ("contacts", "global"):
            "81c61b56e02dc93d236b6d697a0f7389c26b301790f70fb6f959d0516722b5cb",
        ("contacts", "distributed"):
            "745c398d8b242efba4f171b8d424a2aa9c16ac31d5851de11fdc7f74bcfcdb54",
        ("bitcoin", "global"):
            "f5c5041b1d8c171b039ac181a65cc747336c5f8bddec59006620e3fd71fcdea9",
        ("bitcoin", "distributed"):
            "f513ee87ba5ed6d258e0ba1c944c54c1cf3ee9f3eeece2c81903ece814c4889f",
    }

    @pytest.mark.parametrize("case,mode", list(PINNED))
    def test_lss_result_is_pinned(self, case, mode):
        space, prop, constants = CASE_STUDIES[case]()
        cfg = LssConfig(m=20, mode=mode, direction=prop.direction,
                        inner=SmcConfig(runs=100, master_seed=7),
                        sampler_seed=7)
        res = lss(space, prop, cfg, constants=constants)
        payload = {
            "table": [[sid, est.mean, est.ci_low, est.ci_high, est.runs,
                       est.truncated] for sid, est in res.table],
            "best_id": res.best_id,
            "distinct_behaviors": res.distinct_behaviors,
        }
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert digest == self.PINNED[case, mode]

    @pytest.mark.parametrize("case,mode", list(PINNED))
    def test_each_row_is_the_estimate_of_its_table(self, case, mode):
        # lss simulates all behaviours in one pass; each row is still the
        # estimate of its id's own table, and ids with equal tables share
        # one estimate object
        space, prop, constants = CASE_STUDIES[case]()
        cfg = LssConfig(m=20, mode=mode, direction=prop.direction,
                        inner=SmcConfig(runs=100, master_seed=7),
                        sampler_seed=7)
        res = lss(space, prop, cfg, constants=constants)
        tables = smc.reachable_decisions(
            space, [sid for sid, _ in res.table], mode)
        shared: dict[tuple, SmcEstimate] = {}
        for (_, est), table in zip(res.table, tables):
            assert est == estimate(space, table.__getitem__, prop,
                                   cfg.inner, constants=constants)
            assert shared.setdefault(tuple(sorted(table.items())), est) \
                is est
        assert len({id(est) for _, est in res.table}) == len(shared) \
            == res.distinct_behaviors

    def test_lss_hashes_only_reachable_decision_states(self, monkeypatch):
        space, prop, constants = CASE_STUDIES["contacts"]()
        state_of = {tuple(row): s
                    for s, row in enumerate(space.valuations.tolist())}
        hashed: dict[int, list[int]] = {}

        def choices(ids, rows, k):
            for sid, row in zip(ids.tolist(), rows.tolist()):
                hashed.setdefault(sid, []).append(state_of[tuple(row)])
            return lss_choices(ids, rows, k)

        monkeypatch.setattr(smc, "lss_choices", choices)
        ids = sample_scheduler_ids(0, 10)
        lss(space, prop, LssConfig(m=10, inner=SmcConfig(runs=10)),
            constants=constants)

        counts = np.diff(space.choice_ptr).tolist()
        for sid in ids:
            assert len(hashed[sid]) == len(set(hashed[sid])), \
                "a state hashed twice with one id"
            scheduler = {s: 0 for s, k in enumerate(counts) if k}
            scheduler.update(
                (s, lss_decide(sid, encode_state(space, s), counts[s]))
                for s in decision_states(space))
            reached = reachable_under(space, scheduler)
            assert set(hashed[sid]) == {
                s for s in decision_states(space) if reached[s]}

    def test_batched_hash_is_lss_decide(self):
        # random int64 values are random bytes; small values take the
        # one-step path for a variable's seven zero high bytes
        rng = np.random.default_rng(5)
        for n_vars in (0, 1, 3, 20):
            rows = rng.integers(-2**63, 2**63, size=(200, n_vars),
                                dtype=np.int64)
            rows[:100] %= 256
            rows[150:, :1] = rng.integers(0, 256, size=(50, min(n_vars, 1)))
            ids = rng.integers(0, 2**32, size=200)
            k = rng.integers(1, 9, size=200)
            expected = [
                lss_decide(int(i), b"".join(
                    int(v).to_bytes(8, "little", signed=True) for v in row),
                    int(kk))
                for i, row, kk in zip(ids, rows.tolist(), k)]
            assert lss_choices(ids, rows, k).tolist() == expected
