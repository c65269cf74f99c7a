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
    encode_state,
    estimate,
    fmix64,
    fnv1a64,
    lss,
    lss_decide,
    run_seed,
    sample_scheduler_ids,
    simulate_run,
)

from conftest import (
    INTERLEAVED_MDP,
    direct_space,
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
        assert run_seed(0, 0) == 9808874869469701221

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
            "14df74da4fd473c84f44861b4dd779d9ed41fb03623f76be8a910aca5803cca0",
        ("contacts", "distributed"):
            "3ede8fcf16101565bfcfcab156eeb29ddb58e9b38f24a48c929895011a7c50eb",
        ("bitcoin", "global"):
            "d69d2db8bdcb3b803a07102579a3ded230275fbf008e390d3b9da5e715e17262",
        ("bitcoin", "distributed"):
            "c203ff3546150075d942e09292e03eac299a477fc0d414ac45c37d455f915019",
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

    def test_lss_hashes_only_reachable_decision_states(self, monkeypatch):
        space, prop, constants = CASE_STUDIES["contacts"]()
        state_of = {encode_state(space, s): s for s in range(space.n_states)}
        hashed: dict[int, set[int]] = {}
        encoded: list[int] = []

        def decide(sid, obs, k):
            hashed.setdefault(sid, set()).add(state_of[obs])
            return lss_decide(sid, obs, k)

        def encode(space, state, projection="all"):
            encoded.append(state)
            return encode_state(space, state, projection)

        monkeypatch.setattr(smc, "lss_decide", decide)
        monkeypatch.setattr(smc, "encode_state", encode)
        ids = sample_scheduler_ids(0, 10)
        lss(space, prop, LssConfig(m=10, inner=SmcConfig(runs=10)),
            constants=constants)

        assert len(encoded) == len(set(encoded)), "a state encoded twice"
        counts = np.diff(space.choice_ptr).tolist()
        for sid in ids:
            scheduler = {s: 0 for s, k in enumerate(counts) if k}
            scheduler.update(
                (s, lss_decide(sid, encode_state(space, s), counts[s]))
                for s in decision_states(space))
            reached = reachable_under(space, scheduler)
            assert hashed[sid] == {
                s for s in decision_states(space) if reached[s]}
