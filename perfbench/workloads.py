"""The four benchmark workloads: their inputs, qmv command lists and checks.

Each builder writes the workload's model and property files into a
directory and returns the ``qmv`` commands a user would run on them, each
with a check of its JSON report against an oracle from ``oracles``.
Inputs depend only on the seed: the ``contacts-check`` plan is drawn from
it, and the simulation commands take it as their ``--seed``.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from statistics import NormalDist
from typing import Callable

import oracles
from qmv import casestudies
from qmv.casestudies import Contact, ContactPlan
from qmv.lang import explore, parse_model

#: Tolerance for exact answers that value iteration reaches exactly (the
#: contact MDPs are acyclic) or that must match the transient oracle.
EXACT_TOL = 1e-6
#: Sanity tolerance for gambler's ruin, whose value-iteration error is
#: reported as ``abs_error`` rather than failed (about 4e-3 today).
GAMBLER_TOL = 1e-2


@dataclass
class Command:
    """One ``qmv`` invocation and the check of its report's properties."""

    argv: list[str]
    check: Callable[[list[dict]], list[str]]


@dataclass
class Workload:
    models: list[Path]
    files: list[Path]
    commands: list[Command]
    #: oracle values by name, for the report
    exact: dict[str, float] = field(default_factory=dict)
    #: closed-form answers by (command index, property index)
    closed_form: dict[tuple[int, int], float] = field(default_factory=dict)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _write(directory: Path, name: str, text: str) -> Path:
    path = directory / name
    path.write_text(text)
    return path


def _expect_count(entries, n) -> list[str]:
    if len(entries) != n:
        return [f"expected {n} properties in the report, got {len(entries)}"]
    return []


# --------------------------------------------------------------------------
# seeded contact plans


def _random_plan(rng: Random, nodes: int, slots: int, per_slot: int,
                 copies: int) -> ContactPlan:
    names = tuple(f"N{i}" for i in range(1, nodes + 1))
    contacts = []
    for slot in range(1, slots + 1):
        pairs: set[tuple[str, str]] = set()
        while len(pairs) < per_slot:
            a, b = rng.sample(names, 2)
            pairs.add((a, b))
        for a, b in sorted(pairs):
            contacts.append(Contact(a, b, slot, rng.randint(1, 9) / 10))
    return ContactPlan(names, slots, tuple(contacts), names[0], names[-1],
                       copies)


def seeded_plan(rng: Random, *, nodes: int, slots: int, per_slot: int,
                copies: int, states: int, tolerance: float = 0.02,
                attempts: int = 2000) -> ContactPlan:
    """The first random plan drawn from ``rng`` whose routing MDP has
    ``states`` reachable states to within ``tolerance``, so that every seed
    gives a model of the same size."""
    for _ in range(attempts):
        plan = _random_plan(rng, nodes, slots, per_slot, copies)
        if abs(oracles.contact_state_count(plan) - states) \
                <= tolerance * states:
            return plan
    raise RuntimeError(f"no plan with about {states} states in "
                       f"{attempts} draws")


# --------------------------------------------------------------------------
# workloads


def contacts_check(seed: int, directory: Path, tracer=None) -> Workload:
    rng = Random(f"contacts-check:{seed}")
    plan = seeded_plan(rng, nodes=8, slots=30, per_slot=2, copies=4,
                       states=15_000)
    with _span(tracer, "casestudies.gen"):
        case = casestudies.gen_contact_mdp(plan)
    t = plan.target
    gcm = _write(directory, "contacts.gcm", case.model)
    props = _write(directory, "contacts.props", case.props
                   + f"Pmax=? [ F c_{t} >= 2 ]\nPmin=? [ F c_{t} >= 2 ]\n")
    exact = {
        "Pmax delivered": oracles.contact_dp(plan, 1, True),
        f"Pmax c_{t}>=2": oracles.contact_dp(plan, 2, True),
        f"Pmin c_{t}>=2": oracles.contact_dp(plan, 2, False),
    }

    def check(entries):
        errors = _expect_count(entries, 3)
        for entry, (name, want) in zip(entries, exact.items()):
            if not abs(entry["value"] - want) <= EXACT_TOL:
                errors.append(f"{name}: qmv {entry['value']!r}, backward "
                              f"induction {want!r}")
        return errors

    return Workload(
        [gcm], [gcm, props],
        [Command(["check", str(gcm), str(props), "--json"], check)],
        exact)


GAMBLER_N = 200
GAMBLER_START = 100
BITCOIN_CD = 8
BITCOIN_BOUND = 360
BITCOIN_ERROR = 0.05


def _gambler_model(n: int, start: int) -> str:
    return f"""\
dtmc

// fair gambler's ruin: win or lose one unit per round until broke or rich

module gambler
  x : [0..{n}] init {start};
  [] x>0 & x<{n} -> 1/2:(x'=x+1) + 1/2:(x'=x-1);
endmodule

label "rich" = x={n};
"""


def slow_vi(seed: int, directory: Path, tracer=None) -> Workload:
    """Fixed slow-mixing models: the seed does not change them."""
    with _span(tracer, "casestudies.gen"):
        case = casestudies.gen_bitcoin(casestudies.BitcoinParams(
            CD=BITCOIN_CD))
    btc = _write(directory, "bitcoin.gcm", case.model)
    btc_props = _write(directory, "bitcoin.props",
                       f'Tmin=? [ F "goal" ]\n'
                       f'Pmax=? [ F<={BITCOIN_BOUND} "goal" ]\n')
    gr = _write(directory, "gambler.gcm",
                _gambler_model(GAMBLER_N, GAMBLER_START))
    gr_props = _write(directory, "gambler.props", 'Pmax=? [ F "rich" ]\n')

    space = explore(parse_model(case.model))
    goal = space.labels["goal"]
    tmin, policy = oracles.min_expected_time(space, goal)
    decisions = [len(cs) for cs in space.choices]
    lower = max(
        oracles.stationary_time_bounded(space, goal, pol, BITCOIN_BOUND)
        for pol in (policy, [0] * len(decisions),
                    [max(k - 1, 0) for k in decisions]))
    rich = oracles.gambler_closed_form(GAMBLER_N, GAMBLER_START, 0.5)
    exact = {"bitcoin Tmin": tmin,
             f"bitcoin Pmax F<={BITCOIN_BOUND} lower": lower,
             "gambler Pmax": rich}

    def check_bitcoin(entries):
        errors = _expect_count(entries, 2)
        if errors:
            return errors
        got = entries[0]["value"]
        if not abs(got - tmin) <= 1e-4 * tmin:
            errors.append(f"Tmin: qmv {got!r}, policy iteration {tmin!r}")
        got = entries[1]["value"]
        if not lower - BITCOIN_ERROR <= got <= 1.0:
            errors.append(f"Pmax F<={BITCOIN_BOUND}: qmv {got!r} outside "
                          f"[{lower - BITCOIN_ERROR!r}, 1] (stationary "
                          f"lower bound {lower!r} minus the error bound)")
        return errors

    def check_gambler(entries):
        errors = _expect_count(entries, 1)
        if not errors and not abs(entries[0]["value"] - rich) <= GAMBLER_TOL:
            errors.append(f"gambler: qmv {entries[0]['value']!r}, closed "
                          f"form {rich!r}")
        return errors

    return Workload(
        [btc, gr], [btc, btc_props, gr, gr_props],
        [Command(["check", str(btc), str(btc_props), "--time-bound-error",
                  str(BITCOIN_ERROR), "--json"], check_bitcoin),
         Command(["check", str(gr), str(gr_props), "--json"], check_gambler)],
        exact, {(1, 0): rich})


NOC_PARAMS = dict(pattern="bursty", burst_len=2, burst_period=5, buffer=3,
                  events=10, horizon=14)
NOC_RUNS = 5_000
NOC_CDF_HORIZON = 2000
#: The exact value must lie in the 95% interval widened by one more
#: half-width (about 3.9 standard deviations).
SMC_SLACK = 1.0


def noc_sim(seed: int, directory: Path, tracer=None) -> Workload:
    with _span(tracer, "casestudies.gen"):
        case = casestudies.gen_noc(casestudies.NocParams(**NOC_PARAMS))
    gcm = _write(directory, "noc.gcm", case.model)
    props = _write(directory, "noc.props", case.props)
    bound = 5 * NOC_PARAMS["horizon"] + 1
    space = explore(parse_model(case.model))
    cdf = oracles.dtmc_step_bounded(space, space.labels["noisy"],
                                    NOC_CDF_HORIZON)
    exact = {f"P F<={bound}": cdf[bound], "cdf final": cdf[-1]}

    def check_sim(entries):
        errors = _expect_count(entries, 1)
        if errors:
            return errors
        e = entries[0]
        half = (e["ci_high"] - e["ci_low"]) / 2
        lo = e["ci_low"] - SMC_SLACK * half
        hi = e["ci_high"] + SMC_SLACK * half
        if not lo <= cdf[bound] <= hi:
            errors.append(f"exact {cdf[bound]!r} outside the widened SMC "
                          f"interval [{lo!r}, {hi!r}]")
        if e["runs"] != NOC_RUNS or e["truncated_runs"]:
            errors.append(f"runs {e['runs']}, truncated "
                          f"{e['truncated_runs']}")
        return errors

    def check_cdf(entries):
        errors = _expect_count(entries, 1)
        if errors:
            return errors
        got = entries[0]["cdf"]
        if len(got) != len(cdf):
            return [f"cdf has {len(got)} points, want {len(cdf)}"]
        worst = max(abs(a - b) for a, b in zip(got, cdf))
        if not worst <= EXACT_TOL:
            errors.append(f"cdf differs from the transient oracle by "
                          f"{worst!r}")
        return errors

    return Workload(
        [gcm], [gcm, props],
        [Command(["simulate", str(gcm), str(props), "--runs", str(NOC_RUNS),
                  "--seed", str(seed % 2 ** 32), "--json"], check_sim),
         Command(["cdf", str(gcm), str(props), "--horizon",
                  str(NOC_CDF_HORIZON), "--json"], check_cdf)],
        exact)


LSS_SCHEDULERS = 50
LSS_RUNS = 300


def contacts_lss(seed: int, directory: Path, tracer=None) -> Workload:
    """One fixed plan; the seed picks the sampled scheduler ids and the
    simulation seeds.  Per-behaviour cost differs between plans, so
    drawing the plan from the seed too spreads the wall time by 11%."""
    plan = seeded_plan(Random("contacts-lss"), nodes=6, slots=20,
                       per_slot=2, copies=3, states=2_200)
    with _span(tracer, "casestudies.gen"):
        case = casestudies.gen_contact_mdp(plan)
    gcm = _write(directory, "contacts.gcm", case.model)
    props = _write(directory, "contacts.props", case.props)
    pmax = oracles.contact_dp(plan, 1, True)
    # the best of m estimates: Bonferroni-widen the 95% half-width
    widen = NormalDist().inv_cdf(1 - 0.025 / LSS_SCHEDULERS) \
        / NormalDist().inv_cdf(0.975)

    def check(entries):
        errors = _expect_count(entries, 1)
        if errors:
            return errors
        e = entries[0]
        limit = pmax + widen * (e["ci_high"] - e["mean"])
        if not e["mean"] <= limit:
            errors.append(f"best mean {e['mean']!r} above the exact "
                          f"Pmax {pmax!r} plus the widened half-width")
        if e["runs_per_scheduler"] != LSS_RUNS \
                or not 1 <= e["distinct_behaviors"] <= LSS_SCHEDULERS:
            errors.append(f"runs {e['runs_per_scheduler']}, distinct "
                          f"behaviours {e['distinct_behaviors']}")
        return errors

    def lss(mode):
        return Command(["lss", str(gcm), str(props), "--schedulers",
                        str(LSS_SCHEDULERS), "--runs", str(LSS_RUNS),
                        "--mode", mode, "--seed", str(seed % 2 ** 32),
                        "--json"], check)

    return Workload(
        [gcm], [gcm, props], [lss("distributed"), lss("global")],
        {"Pmax delivered": pmax})


BUILDERS = {
    "contacts-check": contacts_check,
    "slow-vi": slow_vi,
    "noc-sim": noc_sim,
    "contacts-lss": contacts_lss,
}


# --------------------------------------------------------------------------
# bundled case studies, probed once under default flags


def bundled_probe(directory: Path) -> list[tuple[list[str], str]]:
    """(command, label) per property of each bundled case study."""
    cases = [
        casestudies.gen_bitcoin(casestudies.BitcoinParams()),
        casestudies.gen_contact_mdp(casestudies.parse_contact_plan(
            casestudies.sample_contact_plan())),
        casestudies.gen_noc(casestudies.NocParams()),
    ]
    out = []
    for case in cases:
        gcm, props = case.write(directory / case.name)
        lines = [ln.split("//", 1)[0].strip()
                 for ln in case.props.splitlines()]
        for i, text in enumerate(ln for ln in lines if ln):
            out.append((["check", str(gcm), str(props), "--prop-index",
                         str(i), "--json"], f"{case.name}: {text}"))
    return out


def abs_error(workload: Workload, entries: list[list[dict]]) -> float:
    """Largest |value - closed form| among the answers that have one;
    ``entries`` holds each command's report properties."""
    return max((abs(entries[c][p]["value"] - v)
                for (c, p), v in workload.closed_form.items()),
               default=math.nan)
