"""Reference answers the benchmark checks qmv's output against.

Every oracle here is independent of ``qmv.numeric`` and ``qmv.smc``:

* ``gambler_closed_form`` — the textbook ruin probability;
* ``contact_dp`` — exact backward induction over (epoch, copy vector) on
  the contact plan itself, without qmv's explorer;
* ``min_expected_time`` — dense policy iteration with numpy linear solves
  on an explored Markov automaton;
* ``stationary_time_bounded`` — uniformization of the CTMC a stationary
  policy induces on a Markov automaton, a lower bound on Pmax(F<=t);
* ``dtmc_step_bounded`` — forward transient probabilities on an explored
  DTMC, for every step bound up to a horizon.

``selfcheck`` runs each oracle on a tiny instance with a known answer.
"""
from __future__ import annotations

import math

import numpy as np


class OracleError(Exception):
    """An oracle could not produce a reference answer."""


# --------------------------------------------------------------------------
# gambler's ruin


def gambler_closed_form(n: int, start: int, p: float) -> float:
    """Probability that a walk on 0..n moving up with probability p reaches
    n before 0, starting from ``start``."""
    if p == 0.5:
        return start / n
    r = (1 - p) / p
    return (1 - r ** start) / (1 - r ** n)


# --------------------------------------------------------------------------
# contact-plan MDPs


def _contact_layers(plan):
    """Reachable copy vectors per epoch, mirroring ``gen_contact_mdp``: at
    the epoch of contact u->v the sender keeps all copies or sends a batch
    of k that arrives (probability p) or is lost."""
    idx = {n: i for i, n in enumerate(plan.nodes)}
    init = tuple(plan.copies if n == plan.source else 0 for n in plan.nodes)
    steps = [(idx[c.from_node], idx[c.to_node], c.p)
             for c in plan.ordered_contacts()]
    layers = [{init}]
    for u, v, p in steps:
        nxt = set()
        for vec in layers[-1]:
            nxt.add(vec)
            for k in range(1, vec[u] + 1):
                lost = list(vec)
                lost[u] -= k
                if p < 1:
                    nxt.add(tuple(lost))
                lost[v] += k
                nxt.add(tuple(lost))
        layers.append(nxt)
    return steps, layers


def contact_state_count(plan) -> int:
    """Number of reachable states of the plan's routing MDP."""
    return sum(len(layer) for layer in _contact_layers(plan)[1])


def contact_dp(plan, target_copies: int, maximize: bool) -> float:
    """Optimal probability that the target ever holds ``target_copies``
    copies, by backward induction over the acyclic epoch structure."""
    steps, layers = _contact_layers(plan)
    t = plan.nodes.index(plan.target)
    opt = max if maximize else min
    value = {vec: float(vec[t] >= target_copies) for vec in layers[-1]}
    for (u, v, p), layer in zip(reversed(steps), reversed(layers[:-1])):
        cur = {}
        for vec in layer:
            if vec[t] >= target_copies:
                cur[vec] = 1.0
                continue
            alts = [value[vec]]
            for k in range(1, vec[u] + 1):
                lost = list(vec)
                lost[u] -= k
                ok = list(lost)
                ok[v] += k
                alts.append(p * value[tuple(ok)]
                            + (1 - p) * value[tuple(lost)] if p < 1
                            else value[tuple(ok)])
            cur[vec] = opt(alts)
        value = cur
    return value[next(iter(layers[0]))]


# --------------------------------------------------------------------------
# Markov automata


def _alternatives(space):
    """Per state: list of (cost, [(prob, target)]) alternatives.  Immediate
    choices cost 0; a Markovian state has one alternative, its jump
    distribution, costing the mean sojourn 1/E; absorbing states none."""
    out = []
    for cs, mk in zip(space.choices, space.markovian):
        if cs:
            out.append([(0.0, list(c.distribution.branches)) for c in cs])
        elif mk is not None and not mk.masked:
            out.append([(1.0 / mk.exit_rate,
                         [(r / mk.exit_rate, t) for r, t in mk.entries])])
        else:
            out.append([])
    return out


def _evaluate_policy(alts, policy, goal):
    n = len(alts)
    free = np.flatnonzero(~goal)
    pos = {int(s): i for i, s in enumerate(free)}
    A = np.eye(len(free))
    c = np.zeros(len(free))
    for s in free:
        if not alts[s]:
            raise OracleError(f"state {s} cannot reach the goal")
        cost, branches = alts[s][policy[s]]
        i = pos[int(s)]
        c[i] = cost
        for p, t in branches:
            if not goal[t]:
                A[i, pos[t]] -= p
    try:
        v = np.linalg.solve(A, c)
    except np.linalg.LinAlgError:
        raise OracleError("policy does not reach the goal almost surely") \
            from None
    V = np.zeros(n)
    V[free] = v
    return V


def min_expected_time(space, goal: np.ndarray, *, max_rounds: int = 1000):
    """Minimal expected time to ``goal`` by policy iteration.

    Starts from choice 0 everywhere, which must reach the goal almost
    surely.  Returns (value at the initial state, optimal policy)."""
    alts = _alternatives(space)
    policy = [0] * len(alts)
    for _ in range(max_rounds):
        V = _evaluate_policy(alts, policy, goal)
        changed = False
        for s, a in enumerate(alts):
            if len(a) < 2 or goal[s]:
                continue
            q = [cost + sum(p * V[t] for p, t in br) for cost, br in a]
            best = min(range(len(q)), key=q.__getitem__)
            if q[best] < q[policy[s]] - 1e-9 * max(1.0, abs(q[policy[s]])):
                policy[s] = best
                changed = True
        if not changed:
            return float(V[space.initial]), policy
    raise OracleError("policy iteration did not stabilise")


def stationary_time_bounded(space, goal: np.ndarray, policy, t: float,
                            *, tail: float = 1e-12) -> float:
    """P(reach goal within t) when immediate states follow ``policy``.

    Immediate states take no time: each is replaced by the distribution
    over the Markovian or absorbing states it leads to, and the remaining
    CTMC is uniformized."""
    alts = _alternatives(space)
    n = len(alts)
    imm = np.array([bool(space.choices[s]) and not goal[s]
                    for s in range(n)])
    # closure C[s, :] = where the zero-time cascade from s comes to rest
    A = np.zeros((n, n))
    for s in np.flatnonzero(imm):
        for p, tgt in alts[s][policy[s]][1]:
            A[s, tgt] += p
    rest = ~imm
    C = np.zeros((n, n))
    C[rest, rest] = 1.0
    ii = np.flatnonzero(imm)
    if len(ii):
        C[np.ix_(ii, np.flatnonzero(rest))] = np.linalg.solve(
            np.eye(len(ii)) - A[np.ix_(ii, ii)],
            A[np.ix_(ii, np.flatnonzero(rest))])
    Q = np.zeros((n, n))
    for s in np.flatnonzero(rest & ~goal):
        mk = space.markovian[s]
        if mk is None or mk.masked:
            continue
        for r, tgt in mk.entries:
            Q[s] += r * C[tgt]
        Q[s, s] -= mk.exit_rate
    lam = float(-Q.diagonal().min()) if n else 0.0
    pi = C[space.initial].copy()
    if lam == 0.0 or t == 0.0:
        return float(pi[goal].sum())
    P = np.eye(n) + Q / lam
    mean = lam * t
    log_w = -mean
    total = acc = 0.0
    k = 0
    while True:
        w = math.exp(log_w)
        acc += w * float(pi[goal].sum())
        total += w
        if k > mean and 1.0 - total < tail:
            return acc
        k += 1
        log_w += math.log(mean / k)
        pi = pi @ P
        if k > 100 * mean + 1000:
            raise OracleError("uniformization did not converge")


# --------------------------------------------------------------------------
# DTMCs


def dtmc_step_bounded(space, goal: np.ndarray, horizon: int) -> list[float]:
    """P(reach goal within k steps) for k = 0..horizon."""
    src, tgt, prob = [], [], []
    for s, cs in enumerate(space.choices):
        if len(cs) != 1:
            raise OracleError(f"state {s} is not a DTMC state")
        for p, t in cs[0].distribution.branches:
            src.append(s)
            tgt.append(t)
            prob.append(p)
    src_a = np.asarray(src)
    tgt_a = np.asarray(tgt)
    prob_a = np.asarray(prob)
    pi = np.zeros(space.n_states)
    pi[space.initial] = 1.0
    reached = float(pi[goal].sum())
    pi[goal] = 0.0
    out = [reached]
    for _ in range(horizon):
        pi = np.bincount(tgt_a, weights=pi[src_a] * prob_a,
                         minlength=space.n_states)
        reached += float(pi[goal].sum())
        pi[goal] = 0.0
        out.append(reached)
    return out


# --------------------------------------------------------------------------
# checks of the oracles themselves


def selfcheck() -> list[str]:
    """Run each oracle on a tiny instance with a known answer; return the
    mismatches."""
    from qmv.casestudies import Contact, ContactPlan
    from qmv.lang import explore, parse_model

    errors = []

    def expect(name, got, want, tol=1e-9):
        if not abs(got - want) <= tol:
            errors.append(f"oracle selfcheck {name}: got {got!r}, "
                          f"want {want!r}")

    # gambler's ruin: closed form against a dense linear solve
    for n, start, p in ((6, 2, 0.4), (10, 5, 0.5), (7, 3, 0.55)):
        A = np.eye(n + 1)
        b = np.zeros(n + 1)
        b[n] = 1.0
        for i in range(1, n):
            A[i, i + 1] -= p
            A[i, i - 1] -= 1 - p
        expect(f"gambler n={n} p={p}", gambler_closed_form(n, start, p),
               float(np.linalg.solve(A, b)[start]))

    # contact plans worked by hand
    relay = (Contact("A", "B", 1, 0.9), Contact("B", "C", 2, 0.9),
             Contact("A", "C", 3, 0.5))
    twice = (Contact("A", "C", 1, 0.5), Contact("A", "C", 2, 0.5))
    for contacts, copies, want in ((relay, 1, 0.81), (relay, 2, 0.905),
                                   (twice, 1, 0.5), (twice, 2, 0.75)):
        plan = ContactPlan(("A", "B", "C"), 3, contacts, "A", "C", copies)
        expect(f"contact dp max copies={copies}",
               contact_dp(plan, 1, True), want)
        expect(f"contact dp min copies={copies}",
               contact_dp(plan, 1, False), 0.0)
    plan = ContactPlan(("A", "B", "C"), 3, relay, "A", "C", 2)
    expect("contact state count", contact_state_count(plan), 25, 0)

    # MA: choose between a rate-1 state that reaches the goal half the time
    # (expected time 2) and a rate-1/4 state (expected time 4)
    ma = explore(parse_model("""
        ma
        module m
          x : [0..3] init 0;
          [] x=0 -> (x'=1);
          [] x=0 -> (x'=2);
          rate(1) x=1 -> 1/2:(x'=3) + 1/2:(x'=0);
          rate(1/4) x=2 -> (x'=3);
        endmodule
        label "goal" = x=3;
    """))
    goal = ma.labels["goal"]
    tmin, policy = min_expected_time(ma, goal)
    expect("policy iteration Tmin", tmin, 2.0)
    slow = [1 if len(cs) == 2 else 0 for cs in ma.choices]
    expect("uniformization, rate 1/4",
           stationary_time_bounded(ma, goal, slow, 3.0),
           1 - math.exp(-0.75), 1e-9)

    # DTMC: a fair coin tossed until heads
    coin = explore(parse_model("""
        dtmc
        module m
          x : [0..1] init 0;
          [] x=0 -> 1/2:(x'=1) + 1/2:(x'=0);
        endmodule
        label "heads" = x=1;
    """))
    cdf = dtmc_step_bounded(coin, coin.labels["heads"], 5)
    for k, v in enumerate(cdf):
        expect(f"coin cdf k={k}", v, 1 - 0.5 ** k)
    return errors
