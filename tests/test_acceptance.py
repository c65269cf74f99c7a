"""End-to-end acceptance checks, one test per advertised behavior.

Each test drives a full pipeline — generator to parser to explorer to
solver or simulator — against an independent oracle (closed forms, exact
rational enumeration, counter unfoldings, or structural rules) and prints
a single PASS/FAIL summary line (visible with ``pytest -rA``).
"""
import math
import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import numpy as np

from conftest import (
    INTERLEAVED_MDP,
    geometric,
    random_layered_mdp,
    reachable_under,
    space_of,
    unfold_with_counter,
)
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
from qmv.cli import main
from qmv.core import (
    Direction,
    ExplicitStateSpace,
    Property,
    PropertyKind,
    check_good_for_distribution,
    decision_states,
    target_mask,
)
from qmv.numeric import (
    describe_scheduler,
    ma_expected_time,
    ma_time_bounded,
    reach_prob,
    step_bounded_cdf,
)
from qmv.smc import (
    LssConfig,
    SmcConfig,
    encode_state,
    estimate,
    lss,
    lss_decide,
    sample_scheduler_ids,
)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} — {detail}")


# --------------------------------------------------------------------------
# blockchain trust attack


def _rule_says_restart(m_len: int, m_diff: int) -> bool:
    """The published three-condition restart rule for the secret fork:
    restart when the fork is empty, when a one-block fork sees the public
    chain pull two ahead, or when a longer fork falls three behind."""
    if m_len == 0:
        return True
    if m_len == 1:
        return m_diff <= -2
    return m_diff <= -3


def _policy_expected_time(space: ExplicitStateSpace, goal, pick) -> float:
    """Exact expected time from the initial state under the memoryless
    scheduler ``pick`` (state -> choice index): one dense linear solve of
    the induced chain, independent of the solver's value iteration."""
    n = space.n_states
    a = np.eye(n)
    b = np.zeros(n)
    for s in range(n):
        if goal[s]:
            continue
        if space.choices[s]:
            for p, t in space.choices[s][pick(s)].distribution.branches:
                a[s, t] -= p
        else:
            mk = space.markovian[s]
            b[s] = 1.0 / mk.exit_rate
            for r, t in mk.entries:
                a[s, t] -= r / mk.exit_rate
    return float(np.linalg.solve(a, b)[space.initial])


def _restart_rule_pick(space: ExplicitStateSpace):
    def pick(s: int) -> int:
        actions = [c.action for c in space.choices[s]]
        if len(actions) < 2:
            return 0
        v = space.state_values(s)
        return actions.index(
            "rst" if _rule_says_restart(v["m_len"], v["m_diff"]) else "cnt")
    return pick


# Where the min-expected-time optimum at M=0.2 departs from the rule, as
# (m_len, m_diff): at CD=3 and 4 it also restarts a fork of two or more
# blocks that is two behind; from CD=5 on the rule is optimal.
_RULE_DEVIATIONS = {
    3: {(2, -2), (3, -2)},
    4: {(2, -2), (3, -2), (4, -2)},
    5: set(),
    6: set(),
}


def test_trust_attack_min_time_strategy_follows_restart_rule():
    optimum, lines = {}, []
    # (CD, DB): the default DB = CD at every depth, plus DB = CD+2 at CD=3
    # to show that how far the fork may fall behind does not cause the
    # deviation
    for cd, db in ((3, None), (4, None), (5, None), (6, None), (3, 5)):
        space = space_of(
            gen_bitcoin(BitcoinParams(M=0.2, CD=cd, DB=db)).model)
        started = time.perf_counter()
        result = ma_expected_time(space, "goal", Direction.MIN)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"CD={cd} solved in {elapsed:.1f}s (limit 10s)"
        goal = target_mask(space, "goal")
        rule = _restart_rule_pick(space)
        opt_time = _policy_expected_time(
            space, goal, lambda s: result.scheduler[s])
        rule_time = _policy_expected_time(space, goal, rule)
        optimum[cd, db] = opt_time
        deviating = {
            (row.values["m_len"], row.values["m_diff"])
            for row in describe_scheduler(space, result.scheduler)
            if not goal[row.state] and row.choice != rule(row.state)}
        where = f"CD={cd}" + (f", DB={db}" if db is not None else "")
        lines.append(
            f"{where}: extracted scheduler {opt_time:.3f} min, rule "
            f"{rule_time:.3f} min (gap {rule_time - opt_time:.3f}), "
            f"deviating (m_len, m_diff) {sorted(deviating)}")
        summary = "\n  ".join(lines)
        assert abs(result.value - opt_time) <= 1e-5 * opt_time, (
            f"{where}: reported value {result.value:.6f} is not the exact "
            f"expected time {opt_time:.6f} of its own scheduler")
        assert rule_time >= opt_time * (1 - 1e-9), (
            f"the rule beats the extracted scheduler:\n  {summary}")
        assert deviating == _RULE_DEVIATIONS[cd], (
            f"{where}: the optimum departs from the restart rule at "
            f"{sorted(deviating)}, expected {sorted(_RULE_DEVIATIONS[cd])}:"
            f"\n  {summary}")
        if deviating:
            assert rule_time - opt_time > 0.01 * opt_time, (
                f"the rule should be over 1% slower at {where}:"
                f"\n  {summary}")
    assert abs(optimum[3, 5] - optimum[3, None]) <= 1e-9 * optimum[3, None], (
        f"DB=CD+2 changes the CD=3 optimum:\n  {summary}")
    _verdict("trust-attack restart strategy", True,
             "optimum equals the three-condition rule at CD=5, 6 and beats "
             "it at CD=3, 4 by restarting two behind; " + "; ".join(lines))


def test_trust_attack_min_time_is_exact():
    # the value is its own scheduler's expected time, which the restart
    # rule does not beat; at CD=6 the rule is optimal, so its dense solve
    # is the exact minimum
    lines = []
    for cd in (6, 12):
        space = space_of(gen_bitcoin(BitcoinParams(M=0.2, CD=cd)).model)
        result = ma_expected_time(space, "goal", Direction.MIN)
        goal = target_mask(space, "goal")
        own = _policy_expected_time(space, goal,
                                    lambda s: result.scheduler[s])
        rule = _policy_expected_time(space, goal, _restart_rule_pick(space))
        assert result.info["exact"] == 1.0
        assert abs(result.value - own) <= 1e-9 * own, (
            f"CD={cd}: {result.value!r}, its scheduler's dense solve "
            f"{own!r}")
        assert rule >= own * (1 - 1e-9)
        if cd == 6:
            assert abs(result.value - rule) <= 1e-9 * rule, (
                f"CD=6: {result.value!r}, restart-rule dense solve {rule!r}")
        lines.append(f"CD={cd}: {result.value:.5f} min")
    _verdict("trust-attack exact minimum", True,
             "equals the dense solve of its scheduler to 1e-9: "
             + "; ".join(lines))


def test_trust_attack_sweep_brackets_two_and_a_half_days():
    minutes = {}
    for cd in range(1, 9):
        space = space_of(gen_bitcoin(BitcoinParams(M=0.2, CD=cd)).model)
        minutes[cd] = ma_expected_time(space, "goal", Direction.MIN).value
    table = "  ".join(f"CD={cd}: {t:,.0f} min" for cd, t in minutes.items())
    window = [cd for cd, t in minutes.items() if abs(t - 3600.0) <= 720.0]
    monotone = all(minutes[cd] < minutes[cd + 1] for cd in range(1, 8))
    ok = monotone and window == [6]
    _verdict("trust-attack time sweep", ok,
             f"within 20% of 2.5 days at CD={window}; {table}")
    assert monotone, f"expected time must grow with CD: {table}"
    assert window == [6], (
        f"exactly CD=6 should land within ±20% of 3600 minutes "
        f"(2.5 days): {table}")


def test_trust_attack_single_confirmation_matches_closed_form():
    worst = 0.0
    for m in (0.1, 0.2, 0.5):
        params = BitcoinParams(M=m, CD=1, DB=1,
                               goal="m_len >= 1 & m_diff >= 1")
        space = space_of(gen_bitcoin(params).model)
        value = ma_expected_time(space, "goal", Direction.MIN).value
        worst = max(worst, abs(value - 12.0 / m) / (12.0 / m))
    ok = worst <= 1e-4
    _verdict("trust-attack closed form", ok,
             f"CD=DB=1 min expected time within {worst:.2e} of 12/M")
    assert ok, f"relative error vs 12/M reached {worst:.2e} (limit 1e-4)"


# --------------------------------------------------------------------------
# satellite contact plans


def _best_deterministic_value(
    space: ExplicitStateSpace, target
) -> tuple[Fraction, int]:
    """Maximum reachability probability over deterministic memoryless
    schedulers, by exact rational enumeration.

    Branches only on decision states reachable under the assignment built
    so far, and evaluates each complete assignment bottom-up; suited to
    step-indexed models whose only cycles are self-loops.  Returns the
    optimum and the number of distinguishable assignments evaluated.
    """
    mask = target_mask(space, target)
    best = Fraction(0)
    leaves = 0

    def chain_value(assign: dict[int, int]) -> Fraction:
        memo: dict[int, Fraction] = {}

        def value(s: int) -> Fraction:
            if mask[s]:
                return Fraction(1)
            got = memo.get(s)
            if got is not None:
                return got
            dist = space.choices[s][assign.get(s, 0)].distribution
            acc = Fraction(0)
            self_p = Fraction(0)
            for p, t in dist.branches:
                if t == s:
                    self_p += Fraction(p)
                else:
                    acc += Fraction(p) * value(t)
            v = Fraction(0) if self_p == 1 else acc / (1 - self_p)
            memo[s] = v
            return v

        return value(space.initial)

    def next_open_decision(assign: dict[int, int]) -> int | None:
        seen = {space.initial}
        stack = [space.initial]
        while stack:
            s = stack.pop()
            if mask[s]:
                continue
            cs = space.choices[s]
            if len(cs) >= 2 and s not in assign:
                return s
            for _, t in cs[assign.get(s, 0)].distribution.branches:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return None

    def expand(assign: dict[int, int]) -> None:
        nonlocal best, leaves
        s = next_open_decision(assign)
        if s is None:
            leaves += 1
            best = max(best, chain_value(assign))
            return
        for ci in range(len(space.choices[s])):
            assign[s] = ci
            expand(assign)
        del assign[s]

    expand({})
    return best, leaves


def test_contact_value_iteration_matches_scheduler_enumeration():
    plan = parse_contact_plan(sample_contact_plan())
    started = time.perf_counter()
    worst, leaves = 0.0, []
    for copies in (1, 2):
        space = space_of(gen_contact_mdp(replace(plan, copies=copies)).model)
        vi = reach_prob(space, "delivered", Direction.MAX).value
        exact, n = _best_deterministic_value(space, "delivered")
        worst = max(worst, abs(vi - float(exact)))
        leaves.append(n)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    _verdict("contact-plan exactness", ok,
             f"VI equals exhaustive enumeration ({leaves} schedulers) "
             f"within {worst:.1e} in {elapsed:.1f}s")
    assert worst <= 1e-9, f"VI vs enumeration differ by {worst:.2e}"
    assert elapsed < 5.0, f"enumeration cross-check took {elapsed:.1f}s"


def test_contact_optimum_sends_to_relay_iff_relay_is_empty():
    plan = parse_contact_plan(sample_contact_plan())
    space = space_of(gen_contact_mdp(plan).model)
    result = reach_prob(space, "delivered", Direction.MAX)
    c_n1 = space.variable_index("c_N1")
    rows = [r for r in describe_scheduler(space, result.scheduler)
            if r.values["step"] == 2]
    assert rows, "no decision states at the N1->N3 slot"
    seen = set()
    for row in rows:
        dist = space.choices[row.state][row.choice].distribution
        sends = any(space.valuations[t][c_n1] < row.values["c_N1"]
                    for _, t in dist.branches)
        relay_empty = row.values["c_N3"] == 0
        assert sends == relay_empty, (
            f"at counters {row.values}: optimum "
            f"{'sends' if sends else 'holds'} although the relay "
            f"{'already holds a copy' if not relay_empty else 'is empty'}")
        seen.add((row.values["c_N1"], row.values["c_N3"], sends))
    ok = (1, 0, True) in seen and (1, 1, False) in seen
    _verdict("contact-plan strategy", ok,
             f"N1 transmits in slot 3 iff N3 is empty, at {sorted(seen)}")
    assert ok, f"expected both relay situations among decisions: {seen}"


def test_scheduler_sampling_underapproximates_and_finds_optimum():
    # soundness on the four-satellite plan, both hashing modes
    plan_space = space_of(
        gen_contact_mdp(parse_contact_plan(sample_contact_plan())).model)
    plan_vi = reach_prob(plan_space, "delivered", Direction.MAX).value
    plan_prop = Property(kind=PropertyKind.REACH_PROB,
                         direction=Direction.MAX, target="delivered")
    for mode in ("global", "distributed"):
        cfg = LssConfig(m=100, mode=mode, direction=Direction.MAX,
                        sampler_seed=5,
                        inner=SmcConfig(epsilon=0.05, delta=1e-4,
                                        master_seed=0))
        got = lss(plan_space, plan_prop, cfg)
        assert got.best.mean <= plan_vi + got.best.half_width + 1e-12, (
            f"{mode}: best sampled estimate {got.best.mean:.4f} exceeds the "
            f"true maximum {plan_vi:.4f} beyond its half-width "
            f"{got.best.half_width:.4f}")

    # soundness and convergence on 20 random layered MDPs
    goal_prop = Property(kind=PropertyKind.REACH_PROB,
                         direction=Direction.MAX, target="goal")
    cfg = LssConfig(m=1000, mode="global", direction=Direction.MAX,
                    sampler_seed=7,
                    inner=SmcConfig(epsilon=0.02, delta=0.001,
                                    master_seed=11))
    violations, close = [], 0
    for seed in range(20):
        space = random_layered_mdp(seed)
        vi = reach_prob(space, "goal", Direction.MAX).value
        got = lss(space, goal_prop, cfg)
        if got.best.mean > vi + got.best.half_width + 1e-12:
            violations.append(seed)
        close += got.best.mean >= vi - 0.02
    ok = not violations and close >= 16
    _verdict("scheduler sampling", ok,
             f"0 soundness violations required (got {len(violations)}); "
             f"best within 0.02 of the optimum on {close}/20 models "
             f"(need 16)")
    assert not violations, (
        f"sampled estimate exceeded the optimum plus half-width on "
        f"models {violations}")
    assert close >= 16, (
        f"1000 sampled schedulers reached within 0.02 of the optimum on "
        f"only {close}/20 models")


def test_scheduler_sampling_diversifies_binary_decisions():
    # every decision of the trust-attack MA is a two-way restart/continue
    # choice; sampled ids must give (almost) pairwise different schedulers
    space = space_of(gen_bitcoin(BitcoinParams(CD=6)).model)
    states = decision_states(space)
    assert len(states) == 57
    assert set(np.diff(space.choice_ptr)[states].tolist()) == {2}
    observations = [encode_state(space, s) for s in states]
    vectors = {tuple(lss_decide(sid, obs, 2) for obs in observations)
               for sid in sample_scheduler_ids(0, 1000)}
    ok = len(vectors) >= 990
    _verdict("scheduler diversity", ok,
             f"{len(vectors)} distinct decision vectors from 1000 ids over "
             f"57 binary decisions (need 990)")
    assert ok, f"only {len(vectors)} distinct schedulers from 1000 ids"


def _random_plan(seed: int) -> ContactPlan:
    rng = Random(seed)
    nodes = tuple(f"N{i + 1}" for i in range(rng.randint(3, 5)))
    slots = rng.randint(3, 6)
    combos = [(a, b, t) for a in nodes for b in nodes if a != b
              for t in range(1, slots + 1)]
    picked = rng.sample(combos, k=rng.randint(3, min(8, len(combos))))
    contacts = tuple(
        Contact(a, b, t, rng.choice((0.1, 0.25, 0.5, 0.75, 0.9, 1.0)))
        for a, b, t in picked)
    return ContactPlan(nodes=nodes, slots=slots, contacts=contacts,
                       source=nodes[0], target=nodes[-1],
                       copies=rng.randint(1, 2))


def test_contact_models_are_good_for_distribution(tmp_path, capsys):
    plans = [parse_contact_plan(sample_contact_plan())]
    plans += [_random_plan(seed) for seed in range(10)]
    for i, plan in enumerate(plans):
        space = space_of(gen_contact_mdp(plan).model)
        violations = check_good_for_distribution(space)
        assert violations == [], (
            f"plan {i} has states whose nondeterminism no single "
            f"component owns: {violations}")
    # and a model that interleaves two components' choices is refused
    model = tmp_path / "interleaved.gcm"
    model.write_text(INTERLEAVED_MDP)
    code = main(["lss", str(model), 'Pmax=? [ F "win" ]',
                 "--schedulers", "4", "--runs", "10",
                 "--mode", "distributed"])
    err = capsys.readouterr().err
    ok = code == 4 and "not good for distribution" in err
    _verdict("distribution criterion", ok,
             "11/11 generated plans pass; interleaved model exits 4")
    assert code == 4, f"expected exit code 4, got {code}"
    assert "not good for distribution" in err


# --------------------------------------------------------------------------
# step-bounded CDFs


def test_step_bounded_cdf_matches_geometric_and_unfolding():
    worst_geo = 0.0
    for p in (0.1, 0.5, 0.9):
        cdf = step_bounded_cdf(geometric(p), "done", Direction.MAX, 64)
        assert cdf.monotone
        for t, got in enumerate(cdf.values):
            worst_geo = max(worst_geo, abs(got - (1.0 - (1.0 - p) ** t)))
    assert worst_geo <= 1e-9, (
        f"geometric CDF off by {worst_geo:.2e} from 1-(1-p)^t")

    space = space_of(gen_noc(NocParams()).model)
    cdf = step_bounded_cdf(space, "noisy", Direction.MAX, 11)
    assert cdf.monotone
    unfolded, _ = unfold_with_counter(space, 11)
    steps = unfolded.valuations[:, -1]
    noisy = unfolded.labels["noisy"]
    worst_noc = 0.0
    for t, got in enumerate(cdf.values):
        want = reach_prob(unfolded, noisy & (steps <= t),
                          Direction.MAX).value
        worst_noc = max(worst_noc, abs(got - want))
    ok = worst_noc <= 1e-9
    _verdict("step-bounded CDF", ok,
             f"max deviation {worst_geo:.1e} vs geometric closed form, "
             f"{worst_noc:.1e} vs counter unfolding; both monotone")
    assert ok, (
        f"whole-CDF computation differs from the counter-unfolded "
        f"single-horizon solves by {worst_noc:.2e}")


# --------------------------------------------------------------------------
# Markov automata timing


SINGLE_RATE_MA = """
ma
module m
  x : [0..1] init 0;
  rate(4) x=0 -> (x'=1);
endmodule
label "goal" = x=1;
"""

CHAIN_MA = """
ma
module m
  x : [0..3] init 0;
  rate(4) x=0 -> (x'=1);
  rate(2) x=1 -> (x'=2);
  rate(1) x=2 -> (x'=3);
endmodule
label "goal" = x=3;
"""

UNIT_RATE_MA = """
ma
module m
  x : [0..1] init 0;
  rate(1) x=0 -> (x'=1);
endmodule
label "goal" = x=1;
"""

RACE_MA = """
ma
module m
  x : [0..2] init 0;
  rate(0.3) x=0 -> (x'=1);
  rate(0.2) x=0 -> (x'=2);
endmodule
label "goal" = x=1;
"""


def test_ma_timing_matches_exponential_closed_forms():
    single = ma_expected_time(space_of(SINGLE_RATE_MA), "goal",
                              Direction.MIN).value
    chain = ma_expected_time(space_of(CHAIN_MA), "goal",
                             Direction.MIN).value
    worst_e = max(abs(single - 0.25), abs(chain - 1.75))
    assert worst_e <= 1e-6, (
        f"expected sojourn times off by {worst_e:.2e} from 1/rate sums")

    unit = space_of(UNIT_RATE_MA)
    race = space_of(RACE_MA)
    worst_t = 0.0
    for t in (0.5, 1.0, 2.0, 10.0):
        got = ma_time_bounded(unit, "goal", Direction.MAX, t).value
        worst_t = max(worst_t, abs(got - (1.0 - math.exp(-t))))
        got = ma_time_bounded(race, "goal", Direction.MAX, t).value
        worst_t = max(worst_t, abs(got - 0.6 * (1.0 - math.exp(-0.5 * t))))
    ok = worst_t <= 1e-4
    _verdict("MA timing", ok,
             f"expected times within {worst_e:.1e}, time-bounded "
             f"probabilities within {worst_t:.1e} of closed forms")
    assert ok, (
        f"digitized time-bounded probabilities off by {worst_t:.2e} "
        f"(allowed 1e-4)")


# --------------------------------------------------------------------------
# statistical engine calibration


def test_okamoto_run_count_and_replay_determinism(coin_dtmc):
    prop = Property(kind=PropertyKind.REACH_PROB, direction=Direction.MAX,
                    target="heads")
    cfg = SmcConfig(epsilon=0.01, delta=0.05, master_seed=2024)
    assert cfg.n_runs() == 18_445
    first = estimate(coin_dtmc, None, prop, cfg)
    again = estimate(coin_dtmc, None, prop, cfg)
    triple = (first.mean, first.ci_low, first.ci_high)
    ok = (first.runs == 18_445 and abs(first.mean - 0.5) <= 0.01
          and triple == (again.mean, again.ci_low, again.ci_high))
    _verdict("SMC calibration", ok,
             f"(0.01, 0.05) sizes to {first.runs} runs, mean "
             f"{first.mean:.4f}, bit-identical replay")
    assert first.runs == 18_445
    assert abs(first.mean - 0.5) <= 0.01, f"mean {first.mean} vs fair coin"
    assert triple == (again.mean, again.ci_low, again.ci_high), \
        "re-running with the same master seed changed the estimate"


# --------------------------------------------------------------------------
# network-on-chip structure


def test_bursty_noc_drains_each_period_and_unfolding_grows():
    space = space_of(gen_noc(NocParams(pattern="bursty", burst_len=1,
                                       burst_period=4)).model)
    drained = space.labels["drained"]
    assert bool(drained[space.initial])
    window = 5 * 4  # burst_period cycles, five explorer micro-steps each

    def hits_every_window(seed: int, windows: int = 3) -> bool:
        rng = Random(seed)
        s = space.initial
        hit = [False] * windows
        for step in range(1, windows * window + 1):
            dist = space.choices[s][0].distribution
            u = rng.random()
            acc = 0.0
            for p, t in dist.branches:
                acc += p
                if u <= acc:
                    s = t
                    break
            else:
                s = dist.branches[-1][1]
            if drained[s]:
                hit[(step - 1) // window] = True
        return all(hit)

    missed = [seed for seed in range(1000) if not hits_every_window(seed)]
    assert not missed, (
        f"{len(missed)} of 1000 runs fail to drain all buffers within "
        f"some generation period, first seeds {missed[:5]}")

    every_other = space_of(gen_noc(NocParams()).model)
    counts = []
    for t_max in (6, 11, 16):
        unfolded, _ = unfold_with_counter(every_other, t_max)
        everything = {s: 0 for s in range(unfolded.n_states)}
        counts.append(int(reachable_under(unfolded, everything).sum()))
    growing = counts[0] < counts[1] < counts[2]
    ok = not missed and growing
    _verdict("NoC structure", ok,
             f"1000/1000 bursty runs drain per 20-step period; unfolded "
             f"reachable states {counts} grow with the horizon")
    assert growing, (
        f"counter unfolding should keep growing with the horizon: {counts}")
    assert counts == [48, 128, 368]
