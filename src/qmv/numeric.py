"""Numerical analyses on explicit state spaces.

Reachability probabilities (value iteration with graph precomputation),
whole step-bounded CDFs, MA expected time, MA time-bounded reachability via
digitization, and deterministic scheduler extraction.

Value iteration is plain Jacobi iteration over the packed rows of the states
it solves for, one loop (:func:`_iterate`) for every fixpoint.  It stops at
an absolute residual (``SolverConfig.epsilon``), and :data:`MAX_ITERATIONS`
sweeps without reaching it are a :class:`SolverError`.  That criterion is
not sound in general (it can stop early on slowly mixing models); the
intended scale is desk-size case studies whose results are cross-checked
against closed forms and brute-force oracles.  Every backward search
(probability 0 and 1, progress towards the target) runs
:func:`_backward_bfs`.

Every analysis reads the row-grouped arrays of the state space directly:
per-row values are one ``reduceat`` over the branches, per-state optima one
over the rows.  Analyses that need a row in every state (Markov automata,
absorbing states) add the missing embedded-jump and self-loop rows with
:func:`_closed`.  States are processed in index-ascending order, so every
analysis is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from qmv.core import (
    Direction,
    ExplicitStateSpace,
    ModelClass,
    PropertyKind,
    ValueResult,
    target_mask,
)


class SolverError(Exception):
    """A numerical analysis could not produce a trustworthy result."""


#: Largest number of sweeps of one value iteration.
MAX_ITERATIONS = 1_000_000
#: Largest step horizon of a step-bounded CDF.
MAX_HORIZON = 1_000_000
#: Largest digitization step count of MA time-bounded reachability.
MAX_DIGITIZATION_STEPS = 10_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Numerical tuning knobs, each positive and finite.

    ``epsilon`` is the absolute residual at which value iteration stops;
    ``time_bound_error`` is the a-priori digitization error allowed for MA
    time-bounded reachability.
    """

    epsilon: float = 1e-6
    time_bound_error: float = 1e-4

    def __post_init__(self):
        for name in ("epsilon", "time_bound_error"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class CdfResult:
    """Reach-probability CDF over step horizons t = 0..t_max."""

    values: tuple[float, ...]
    monotone: bool

    @property
    def final(self) -> float:
        return self.values[-1]


@dataclass(frozen=True)
class DecisionRow:
    """One scheduler decision at a state with two or more choices."""

    state: int
    values: dict[str, int | bool]
    choice: int
    action: str | None
    owner: int


# --------------------------------------------------------------------------
# row groups

#: Distance of a state that breadth-first search did not reach; also the
#: "no row" key of :func:`_first_row`.
_FAR = np.iinfo(np.int64).max


def _closed(space: ExplicitStateSpace) -> ExplicitStateSpace:
    """``space`` with one choice row added to every state that has none.

    The added row is the embedded jump distribution (each rate over the
    exit rate) of a Markovian state, and a self-loop of an absorbing state,
    so every state has a row and per-state reductions stay total.  States
    that have choices keep their rows, so a row's offset within its state
    is still the choice index there.  The rates stay in place, unread.
    """
    counts = np.diff(space.choice_ptr)
    idle = counts == 0
    if not idle.any():
        return space
    absorbing = np.flatnonzero(idle & (np.diff(space.rate_ptr) == 0))
    # merge old and new rows by state, stably; no state has both
    rows = np.argsort(np.concatenate(
        [space.choice_state, np.flatnonzero(idle)]), kind="stable")
    branches = np.argsort(np.concatenate(
        [space.branch_source, space.rate_state, absorbing]), kind="stable")
    row_len = np.concatenate([np.diff(space.branch_ptr),
                              np.maximum(np.diff(space.rate_ptr)[idle], 1)])
    added = np.zeros(idle.sum(), dtype=np.int64)
    return replace(
        space,
        actions=space.actions + (None,),
        choice_ptr=np.concatenate([[0], np.cumsum(np.maximum(counts, 1))]),
        choice_owner=np.concatenate([space.choice_owner, added])[rows],
        choice_action=np.concatenate(
            [space.choice_action, added + len(space.actions)])[rows],
        branch_ptr=np.concatenate([[0], np.cumsum(row_len[rows])]),
        branch_prob=np.concatenate(
            [space.branch_prob, space.rate / space.exit_rate[space.rate_state],
             np.ones(len(absorbing))])[branches],
        branch_target=np.concatenate(
            [space.branch_target, space.rate_target, absorbing])[branches])


def _row_values(sp: ExplicitStateSpace, V: np.ndarray,
                cost: np.ndarray | float = 0.0) -> np.ndarray:
    contrib = sp.branch_prob * V[sp.branch_target]
    return np.add.reduceat(contrib, sp.branch_ptr[:-1]) + cost


def _optimum(values: np.ndarray, starts: np.ndarray,
             maximize: bool) -> np.ndarray:
    """Per group starting at ``starts``: the largest or smallest value."""
    return (np.maximum if maximize else np.minimum).reduceat(values, starts)


def _first_row(sp: ExplicitStateSpace, flags: np.ndarray) -> np.ndarray:
    """Per state: the offset of its first flagged row, or -1."""
    offset = np.arange(len(flags)) - sp.choice_ptr[sp.choice_state]
    first = np.minimum.reduceat(np.where(flags, offset, _FAR),
                                sp.choice_ptr[:-1])
    return np.where(first == _FAR, -1, first)


def _rows_of(sp: ExplicitStateSpace, states: np.ndarray,
             cost: np.ndarray | float = 0.0):
    """The rows of the ``states`` mask, packed: the states' indices, the
    branch probabilities and targets, the cost of each row, and the start
    of each row and of each state's row group."""
    rows = states[sp.choice_state]
    row_len = np.diff(sp.branch_ptr)[rows]
    group_len = np.diff(sp.choice_ptr)[states]
    branches = rows[sp.branch_choice]
    return (np.flatnonzero(states), sp.branch_prob[branches],
            sp.branch_target[branches], cost[rows] if np.ndim(cost) else cost,
            np.cumsum(row_len) - row_len, np.cumsum(group_len) - group_len)


# --------------------------------------------------------------------------
# graph precomputations


def _backward_bfs(sp: ExplicitStateSpace, edges: np.ndarray,
                  seeds: np.ndarray,
                  allowed: np.ndarray | None = None) -> np.ndarray:
    """Breadth-first distances from ``seeds``, backwards along the branches
    ``edges`` (given in order of target), entering only ``allowed`` states;
    ``_FAR`` where unreached.  Level by level, so the distances do not
    depend on the edge order."""
    ptr = np.searchsorted(sp.branch_target[edges], np.arange(sp.n_states + 1))
    preds = sp.branch_source[edges]
    dist = np.full(sp.n_states, _FAR, dtype=np.int64)
    frontier = np.flatnonzero(seeds)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        lo = ptr[frontier]
        lens = ptr[frontier + 1] - lo
        ends = np.cumsum(lens)
        nxt = preds[np.repeat(lo - ends + lens, lens) + np.arange(ends[-1])]
        fresh = dist[nxt] == _FAR
        if allowed is not None:
            fresh &= allowed[nxt]
        frontier = np.unique(nxt[fresh])
        dist[frontier] = level
    return dist


def _can_stay(sp: ExplicitStateSpace, keep: np.ndarray,
              rows: np.ndarray | bool = True) -> np.ndarray:
    """The largest subset of ``keep`` in which every state has a row, among
    ``rows``, whose branches all stay in the subset."""
    while True:
        row_in = np.logical_and.reduceat(keep[sp.branch_target],
                                         sp.branch_ptr[:-1]) & rows
        new = np.logical_or.reduceat(row_in, sp.choice_ptr[:-1]) & keep
        if np.array_equal(new, keep):
            return keep
        keep = new


def _exists_almost_sure(sp: ExplicitStateSpace, by_target: np.ndarray,
                        target: np.ndarray) -> np.ndarray:
    """States where some scheduler reaches ``target`` with probability 1:
    the greatest set from which ``target`` is reachable backwards along
    rows that stay in the set."""
    row_of = sp.branch_choice[by_target]
    u = np.ones(sp.n_states, dtype=bool)
    while True:
        stay = np.logical_and.reduceat(u[sp.branch_target], sp.branch_ptr[:-1])
        v = _backward_bfs(sp, by_target[stay[row_of]], target) < _FAR
        if np.array_equal(v, u):
            return u
        u = v


# --------------------------------------------------------------------------
# value iteration and scheduler extraction


def _iterate(V: np.ndarray, rows: tuple, maximize: bool, cfg: SolverConfig,
             *, probabilities: bool = False) -> tuple[int, float]:
    """Jacobi value iteration of the packed ``rows`` (see :func:`_rows_of`)
    until no value changes by more than ``cfg.epsilon``.  Updates ``V`` in
    place; returns the sweeps made and the last residual."""
    idx, prob, target, cost, row_starts, group_starts = rows
    if not len(idx):
        return 0, 0.0
    for iteration in range(1, MAX_ITERATIONS + 1):
        row_vals = np.add.reduceat(prob * V[target], row_starts) + cost
        opt = _optimum(row_vals, group_starts, maximize)
        residual = float(np.max(np.abs(opt - V[idx])))
        V[idx] = opt
        if probabilities and (opt.min() < -1e-9 or opt.max() > 1 + 1e-9):
            raise SolverError(
                f"iteration left [0,1]: min {opt.min()}, max {opt.max()}")
        if residual <= cfg.epsilon:
            return iteration, residual
    raise SolverError(f"no convergence after {MAX_ITERATIONS} iterations "
                      f"(residual {residual:.3e})")


def _extract_scheduler(
    space: ExplicitStateSpace,
    sp: ExplicitStateSpace,
    by_target: np.ndarray,
    V: np.ndarray,
    free: np.ndarray,
    maximize: bool,
    target: np.ndarray,
    cfg: SolverConfig,
    *,
    cost=0.0,
    progress: bool,
    stay_zero: np.ndarray | None = None,
) -> dict[int, int]:
    """Deterministic memoryless scheduler attaining ``V``.

    ``sp`` is ``_closed(space)`` and ``by_target`` orders its branches by
    target.  Ties break to the lowest choice index;
    where ``progress`` is set (maximizing reachability, minimizing time),
    the choice must also make progress toward the target through
    value-optimal rows, which keeps the induced chain from idling in
    value-preserving cycles.  ``stay_zero`` marks states whose scheduler
    must remain inside that set (minimal-probability extraction).
    """
    row_vals = _row_values(sp, V, cost)
    opt = _optimum(row_vals, sp.choice_ptr[:-1], maximize)
    with np.errstate(invalid="ignore"):
        # inf-valued rows of inf-valued states give NaN gaps, which compare
        # False and are correctly excluded
        candidate = np.abs(row_vals - opt[sp.choice_state]) <= 10 * cfg.epsilon

    first = _first_row(sp, candidate)
    choice = np.where(free & (first >= 0), first, 0)
    if progress:
        # BFS from the target, backwards over candidate rows only
        dist = _backward_bfs(
            sp, by_target[candidate[sp.branch_choice[by_target]]], target)
        closer = dist[sp.branch_target] < dist[sp.branch_source]
        moves = (np.logical_or.reduceat(closer, sp.branch_ptr[:-1])
                 & candidate & (dist[sp.choice_state] < _FAR))
        first = _first_row(sp, moves)
        choice = np.where(free & (first >= 0), first, choice)
    if stay_zero is not None:
        # pick a choice that keeps the avoidance certificate
        safe = np.logical_and.reduceat(stay_zero[sp.branch_target],
                                       sp.branch_ptr[:-1])
        choice = np.where(stay_zero, np.maximum(_first_row(sp, safe), 0),
                          choice)
    states = np.flatnonzero(np.diff(space.choice_ptr) > 0)
    return dict(zip(states.tolist(), choice[states].tolist()))


# --------------------------------------------------------------------------
# public analyses


def reach_prob(
    space: ExplicitStateSpace,
    target,
    direction: Direction,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> ValueResult:
    """Optimal probability of eventually reaching ``target``.

    Works on all three model classes; for MA the timing is irrelevant and
    Markovian states contribute their embedded jump distribution.  Returns
    the value at the initial state and a deterministic memoryless scheduler
    over all states with at least one choice.
    """
    mask = target_mask(space, target)
    sp = _closed(space)
    by_target = np.argsort(sp.branch_target, kind="stable")
    maximize = direction is Direction.MAX
    if maximize:
        zero = _backward_bfs(sp, by_target, mask) == _FAR
        one = _exists_almost_sure(sp, by_target, mask)
    else:
        # some scheduler avoids the target forever; every scheduler reaches
        # it almost surely from where that set is unreachable
        zero = _can_stay(sp, ~mask)
        one = _backward_bfs(sp, by_target, zero, ~mask) == _FAR
    zero &= ~mask
    one |= mask

    V = np.zeros(space.n_states, dtype=np.float64)
    V[one] = 1.0
    free = ~(one | zero)
    iterations, residual = _iterate(V, _rows_of(sp, free), maximize, cfg,
                                    probabilities=True)
    scheduler = _extract_scheduler(
        space, sp, by_target, V, free, maximize, mask, cfg,
        progress=maximize, stay_zero=zero if not maximize else None)
    return ValueResult(float(V[space.initial]), iterations, residual,
                       scheduler, {"pinned_zero": float(zero.sum()),
                                   "pinned_one": float(one.sum())})


def step_bounded_cdf(
    space: ExplicitStateSpace,
    target,
    direction: Direction,
    t_max: int,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> CdfResult:
    """Reach probability within t steps, for every t = 0..t_max.

    DTMC: forward transient iteration of the state distribution with the
    target made absorbing — one vector per step, no unfolding.  MDP:
    backward step-bounded value iteration, recording the horizon-k value of
    the initial state for each k.  No setting of ``cfg`` applies here.
    """
    if space.model_class is ModelClass.MA:
        raise SolverError("step-bounded analysis needs a DTMC or MDP "
                          "(MA models take time bounds)")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if t_max > MAX_HORIZON:
        raise SolverError(
            f"horizon {t_max} exceeds the configured cap {MAX_HORIZON}")
    mask = target_mask(space, target)
    sp = _closed(space)

    if space.model_class is ModelClass.DTMC:
        # forward: about 3x faster than the backward sweep below on a
        # 12k-state NoC chain at horizon 2000 (0.17 s vs 0.52 s, 2-vCPU
        # Xeon)
        pi = np.zeros(space.n_states, dtype=np.float64)
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
        maximize = direction is Direction.MAX
        V = mask.astype(np.float64)
        values = [float(V[space.initial])]
        for _ in range(t_max):
            opt = _optimum(_row_values(sp, V), sp.choice_ptr[:-1],
                           maximize)
            V = np.where(mask, 1.0, opt)
            values.append(float(V[space.initial]))

    monotone = all(b >= a for a, b in zip(values, values[1:]))
    return CdfResult(tuple(values), monotone)


def ma_expected_time(
    space: ExplicitStateSpace,
    target,
    direction: Direction,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> ValueResult:
    """Optimal expected time (minutes) until ``target`` in an MA.

    States from which the target cannot be reached appropriately — for min:
    by no scheduler almost surely; for max: avoidable with positive
    probability by some scheduler — take the value +infinity (``math.inf``),
    which propagates exactly and never overflows.
    """
    if space.model_class is not ModelClass.MA:
        raise SolverError("expected time is defined for MA models only")
    mask = target_mask(space, target)
    sp = _closed(space)
    by_target = np.argsort(sp.branch_target, kind="stable")
    has_choice = np.diff(space.choice_ptr) > 0
    # an embedded jump row costs the mean sojourn 1/E of its state
    rate = space.exit_rate[sp.choice_state]
    cost = np.divide(1.0, rate, out=np.zeros_like(rate), where=rate > 0)
    maximize = direction is Direction.MAX
    if maximize:
        # every scheduler reaches the target almost surely
        finite = _backward_bfs(sp, by_target, _can_stay(sp, ~mask),
                               ~mask) == _FAR
    else:
        finite = _exists_almost_sure(sp, by_target, mask)
        # non-target states that can cycle forever through immediate choices
        trap = _can_stay(sp, has_choice & ~mask,
                         has_choice[sp.choice_state]) & finite
        if trap.any():
            raise SolverError(
                "minimum expected time is ill-defined: zero-time cycle "
                f"through states {np.flatnonzero(trap).tolist()[:10]}")

    V = np.zeros(space.n_states, dtype=np.float64)
    V[~finite] = math.inf
    V[mask] = 0.0
    free = finite & ~mask
    iterations, residual = _iterate(V, _rows_of(sp, free, cost), maximize,
                                    cfg)
    scheduler = _extract_scheduler(
        space, sp, by_target, V, free, maximize, mask, cfg, cost=cost,
        progress=not maximize)
    return ValueResult(float(V[space.initial]), iterations, residual,
                       scheduler, {"pinned_inf": float((~finite).sum()),
                                   "target_states": float(mask.sum())})


def ma_time_bounded(
    space: ExplicitStateSpace,
    target,
    direction: Direction,
    time_bound: float,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> ValueResult:
    """Optimal probability of reaching ``target`` within ``time_bound`` minutes.

    Digitization: the horizon is cut into k slices with
    (λ_max·t)²/(2k) ≤ ``cfg.time_bound_error``; per slice a Markovian state
    jumps with probability 1−e^(−E·δ), and immediate states, which take no
    time, are resolved by value iteration at every time level.  The
    a-priori error bound and k are reported in the result metadata.
    """
    if space.model_class is not ModelClass.MA:
        raise SolverError("time-bounded analysis is defined for MA models")
    if time_bound < 0:
        raise SolverError("time bound must be nonnegative")
    mask = target_mask(space, target)
    maximize = direction is Direction.MAX

    exit_rates = space.exit_rate  # 0 in states with choices
    lam_max = float(exit_rates.max()) if space.n_states else 0.0
    if lam_max > 0 and time_bound > 0:
        # a tiny error bound can make the step count overflow to inf
        k = (lam_max * time_bound) ** 2 / (2 * cfg.time_bound_error)
        k = k if math.isinf(k) else max(1, math.ceil(k))
    else:
        k = 0
    if k > MAX_DIGITIZATION_STEPS:
        raise SolverError(
            f"digitization needs {k} steps, above the configured cap "
            f"{MAX_DIGITIZATION_STEPS}; increase time_bound_error or "
            "reduce the bound")
    delta = time_bound / k if k else 0.0
    err_bound = ((lam_max * time_bound) ** 2 / (2 * k)) if k else 0.0

    # targets are absorbing: only non-target states get rows
    sp = _closed(space)
    m_idx, m_prob, m_tgt, _, m_starts, _ = _rows_of(
        sp, (exit_rates > 0) & ~mask)
    jump = -np.expm1(-exit_rates[m_idx] * delta)
    stay = np.exp(-exit_rates[m_idx] * delta)
    # immediate states take no time: resolve them at every time level
    immediate = _rows_of(sp, (np.diff(space.choice_ptr) > 0) & ~mask)

    V = mask.astype(np.float64)
    _iterate(V, immediate, maximize, cfg)
    for _ in range(k):
        emb = np.add.reduceat(m_prob * V[m_tgt], m_starts)
        V[m_idx] = jump * emb + stay * V[m_idx]
        _iterate(V, immediate, maximize, cfg)

    info = {"digitization_steps": float(k), "error_bound": err_bound,
            "lambda_max": lam_max, "step_size": delta}
    return ValueResult(float(V[space.initial]), k, err_bound, None, info)


# --------------------------------------------------------------------------
# scheduler utilities


def describe_scheduler(
    space: ExplicitStateSpace, scheduler: dict[int, int]
) -> list[DecisionRow]:
    """Tabulate the scheduler's decisions at genuine decision states."""
    counts = np.diff(space.choice_ptr)
    rows = []
    for s in sorted(scheduler):
        if counts[s] < 2:
            continue
        c = int(space.choice_ptr[s]) + scheduler[s]
        rows.append(DecisionRow(
            state=s,
            values=space.state_values(s),
            choice=scheduler[s],
            action=space.actions[space.choice_action[c]],
            owner=int(space.choice_owner[c]),
        ))
    return rows


def reachable_under(
    space: ExplicitStateSpace, scheduler: dict[int, int]
) -> np.ndarray:
    """States reachable from the initial state when following ``scheduler``;
    a depth-first walk that visits only those states."""
    (choice_ptr, branch_ptr, _, branch_target, _,
     rate_ptr, _, rate_target, _, _) = space.walk
    seen = [False] * space.n_states
    seen[space.initial] = True
    stack = [space.initial]
    while stack:
        s = stack.pop()
        c = choice_ptr[s]
        if choice_ptr[s + 1] > c:
            c += scheduler[s]
            succs = branch_target[branch_ptr[c]:branch_ptr[c + 1]]
        else:
            succs = rate_target[rate_ptr[s]:rate_ptr[s + 1]]
        for t in succs:
            if not seen[t]:
                seen[t] = True
                stack.append(t)
    return np.array(seen, dtype=bool)


def check_property(
    space: ExplicitStateSpace,
    prop,
    cfg: SolverConfig = DEFAULT_CONFIG,
    constants: dict | None = None,
):
    """Dispatch a parsed property to the matching analysis.

    Returns a :class:`ValueResult`; consumers wanting whole CDFs should use
    :func:`step_bounded_cdf` directly — here only the value at the full
    bound is reported, wrapped as a ValueResult.
    """
    target = target_mask(space, prop.target, constants)
    if prop.kind is PropertyKind.REACH_PROB:
        return reach_prob(space, target, prop.direction, cfg)
    if prop.kind is PropertyKind.STEP_BOUNDED_REACH_PROB:
        cdf = step_bounded_cdf(space, target, prop.direction, prop.bound, cfg)
        return ValueResult(cdf.final, prop.bound, 0.0, None,
                           {"monotone": float(cdf.monotone)})
    if prop.kind is PropertyKind.TIME_BOUNDED_REACH_PROB:
        return ma_time_bounded(space, target, prop.direction, prop.bound, cfg)
    if prop.kind is PropertyKind.EXPECTED_TIME:
        return ma_expected_time(space, target, prop.direction, cfg)
    raise SolverError(f"unsupported property kind {prop.kind}")
