"""Numerical analyses on explicit state spaces.

Reachability probabilities and MA expected time (exact, by graph
precomputation and policy iteration per strongly connected component),
whole step-bounded CDFs, MA time-bounded reachability via digitization, and
deterministic scheduler extraction.

Unbounded reachability and expected time are solved by :func:`_solve`.
Graph analysis first pins the states whose value is 0, 1 or infinite.  The
remaining states are split into strongly connected components (iterative
Tarjan), which are solved in topological order: all single-state
components of one level by one exact Bellman update, every larger one by
policy iteration with a dense ``numpy.linalg.solve`` per round.  Only a
component above :data:`MAX_DENSE_SCC` states falls back to value iteration.
A result's ``iterations`` counts policy rounds plus any value-iteration
sweeps, ``residual`` is the largest |Bellman(V) - V| over the solved
states after the solve, and ``info["exact"]`` is 1.0 when no component
fell back.

Value iteration is plain Jacobi iteration over the packed rows of the
states it solves for, one loop (:func:`_iterate`) shared by the oversize
components and the immediate states of each digitization slice.  It stops
at an absolute residual (``SolverConfig.epsilon``), which is not sound in
general (it can stop early on slowly mixing models), and
:data:`MAX_ITERATIONS` sweeps without reaching it are a
:class:`SolverError`.

Graph precomputation runs three searches over one in-branch order per
analysis (:func:`_in_branches`), each looking at every branch once:
:func:`_backward_bfs`; :func:`_peel`, the one greatest fixpoint (Pmin's
zero set, Tmax's finite set, zero-time traps, Prob1E, topological levels);
and :func:`_progress` (initial policies, the scheduler's progress rule).

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


#: Largest number of sweeps of one value iteration, and of policy rounds
#: of one strongly connected block.
MAX_ITERATIONS = 1_000_000
#: Largest strongly connected block solved by dense policy evaluation (a
#: 32 MB matrix); value iteration solves larger ones.
MAX_DENSE_SCC = 2_048
#: Relative rounding slack: a row is better than another only where its
#: value is better by more than this fraction of the other's.
ROUNDING_SLACK = 1e-10
#: Largest step horizon of a step-bounded CDF.
MAX_HORIZON = 1_000_000
#: Largest digitization step count of MA time-bounded reachability.
MAX_DIGITIZATION_STEPS = 10_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Numerical tuning knobs, each positive and finite.

    ``epsilon`` is the absolute residual at which value iteration stops: in
    the immediate states of each digitization slice and in strongly
    connected components above :data:`MAX_DENSE_SCC` states;
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

#: Distance of a state that breadth-first search did not reach, peel round
#: of a state never peeled, and the "no entry" key of :func:`_first`.
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


def _first(flags: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per group starting at ``starts``: the index of its first flagged
    entry, or ``_FAR``."""
    return np.minimum.reduceat(np.where(flags, np.arange(len(flags)), _FAR),
                               starts)


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


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of ``a``, sorted: ``np.unique`` without the
    import of ``numpy.ma`` that its first call makes (1.2 MB of resident
    memory)."""
    if len(a) < 2:  # a chain's frontier: skip the sort
        return a
    a = np.sort(a)
    return a[np.append(True, a[1:] != a[:-1])]


def _ranges(ptr: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The index ranges ``ptr[i]:ptr[i + 1]`` of the ``items``, concatenated
    in order."""
    lo = ptr[items]
    lens = ptr[items + 1] - lo
    ends = np.cumsum(lens)
    return np.repeat(lo - ends + lens, lens) + np.arange(
        ends[-1] if len(ends) else 0)


# --------------------------------------------------------------------------
# graph precomputations


def _in_branches(targets: np.ndarray, branch_row: np.ndarray,
                 row_state: np.ndarray, n: int) -> tuple:
    """The in-branch order ``(ptr, row, row_state)`` of ``n`` states whose
    branches have the ``targets`` and lie in the rows ``branch_row``: the
    branches into state ``s`` are ``ptr[s]:ptr[s + 1]``, ``row[k]`` is the
    row of branch ``k`` there, and ``row_state[r]`` the state of row ``r``.
    """
    order = np.argsort(targets, kind="stable")
    return (np.searchsorted(targets[order], np.arange(n + 1)),
            branch_row[order], row_state)


def _backward_bfs(g: tuple, seeds: np.ndarray,
                  rows: np.ndarray | None = None,
                  allowed: np.ndarray | None = None) -> np.ndarray:
    """Breadth-first distances from ``seeds``, backwards along the branches
    of ``rows`` (default: all), entering only ``allowed`` states; ``_FAR``
    where unreached.  Level by level, so the distances do not depend on the
    branch order."""
    ptr, row, row_state = g
    preds = row_state[row]
    if rows is not None:
        kept = rows[row]
        ptr = np.append(0, np.cumsum(kept))[ptr]
        preds = preds[kept]
    dist = np.full(len(seeds), _FAR, dtype=np.int64)
    frontier = np.flatnonzero(seeds)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        nxt = preds[_ranges(ptr, frontier)]
        fresh = dist[nxt] == _FAR
        if allowed is not None:
            fresh &= allowed[nxt]
        frontier = _distinct(nxt[fresh])
        dist[frontier] = level
    return dist


def _peel(g: tuple, keep: np.ndarray,
          anchor: np.ndarray | int = 0) -> np.ndarray:
    """Per state: the round in which it is peeled off ``keep`` (-1 outside
    ``keep``), or ``_FAR`` in the greatest subset of ``keep`` in which every
    state not in ``anchor`` has a row whose branches all stay in the subset.

    Round 0 peels the states of ``keep`` without such a row, each later
    round those whose last such row led into the round before.  Driven by
    the in-branches of the states peeled, it looks at every branch once."""
    ptr, row, row_state = g
    # the rows of keep whose branches all stay in it, and how many per
    # state; an anchor counts one more
    stay = keep[row_state]
    stay[row[_ranges(ptr, np.flatnonzero(~keep))]] = False
    staying = np.bincount(row_state[stay], minlength=len(keep)) + anchor
    level = np.where(keep, _FAR, -1)
    peeled = np.flatnonzero(keep & (staying == 0))
    depth = 0
    while peeled.size:
        level[peeled] = depth
        depth += 1
        rows = _distinct(row[_ranges(ptr, peeled)])
        rows = rows[stay[rows]]
        stay[rows] = False
        states = row_state[rows]
        np.subtract.at(staying, states, 1)
        peeled = states[staying[states] == 0]
    return level


def _progress(g: tuple, group_starts: np.ndarray, seeds: np.ndarray,
              rows: np.ndarray | None = None) -> np.ndarray:
    """Per state with rows (those of ``group_starts``): its first row among
    ``rows`` (default: all) with a branch one breadth-first level closer to
    ``seeds``, backwards along ``rows``; ``_FAR`` where it has none."""
    ptr, row, row_state = g
    dist = _backward_bfs(g, seeds, rows)
    moves = np.zeros(len(row_state), dtype=bool)
    moves[row[np.repeat(dist, np.diff(ptr)) < dist[row_state[row]]]] = True
    if rows is not None:
        moves &= rows
    return _first(moves, group_starts)


def _exists_almost_sure(sp: ExplicitStateSpace, g: tuple,
                        target: np.ndarray) -> np.ndarray:
    """States where some scheduler reaches ``target`` with probability 1:
    the greatest set from which ``target`` is reachable backwards along
    rows that stay in the set.

    Between backward searches, :func:`_peel` removes the non-target states
    left without a row that stays in the set: on a chain, in one pass what
    would otherwise take one backward search per state."""
    u = np.ones(sp.n_states, dtype=bool)
    while True:
        stay = np.logical_and.reduceat(u[sp.branch_target],
                                       sp.branch_ptr[:-1])
        v = u & (_backward_bfs(g, target, stay) < _FAR)
        if np.array_equal(u, v):
            return u
        u = _peel(g, v, target) == _FAR


# --------------------------------------------------------------------------
# exact solver and value iteration


def _iterate(V: np.ndarray, rows: tuple, maximize: bool,
             cfg: SolverConfig) -> tuple[int, float]:
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
        if residual <= cfg.epsilon:
            return iteration, residual
    raise SolverError(f"no convergence after {MAX_ITERATIONS} iterations "
                      f"(residual {residual:.3e})")


def _sccs(ptr: list[int], succ: list[int]) -> list[int]:
    """Strongly connected components of the graph whose node ``v`` has the
    successors ``succ[ptr[v]:ptr[v + 1]]`` (iterative Tarjan).  Components
    are numbered as they complete, so an edge never leads to a component
    numbered higher than its own."""
    n = len(ptr) - 1
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    visited = done = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, ptr[root])]
        while work:
            v, i = work[-1]
            end = ptr[v + 1]
            while i < end:
                w = succ[i]
                i += 1
                if index[w] < 0:
                    work[-1] = (v, i)
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    work.append((w, ptr[w]))
                    break
                if comp[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = done
                        if w == v:
                            break
                    done += 1
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comp


def _policy_iteration(const: np.ndarray, prob: np.ndarray,
                      inside: np.ndarray, row_starts: np.ndarray,
                      group_starts: np.ndarray,
                      maximize: bool) -> tuple[np.ndarray, int]:
    """Solve one strongly connected block of ``n`` states exactly; return
    its values and the policy rounds made.

    Row ``r`` of the block is worth ``const[r]`` plus its branches
    ``prob`` into the block (``inside`` is the local target, ``n`` for a
    branch that leaves the block, whose value ``const`` already holds).
    The initial policy picks, per state, the first row that moves closer
    to the outside (:func:`_progress`), so it leaves the block almost
    surely (it is proper).  Each round evaluates the policy with one dense
    solve and switches a state to its best row only where that row beats
    the chosen one by more than ``ROUNDING_SLACK``; strict improvement
    keeps the policy proper.
    """
    n = len(group_starts)
    row_state = np.repeat(np.arange(n), np.diff(
        np.append(group_starts, len(row_starts))))
    row_ptr = np.append(row_starts, len(prob))
    inb = inside < n
    choice = _progress(
        _in_branches(inside, np.repeat(np.arange(len(row_starts)),
                                       np.diff(row_ptr)), row_state, n + 1),
        group_starts, np.arange(n + 1) == n)
    if (choice == _FAR).any():
        raise SolverError("a strongly connected block has no way out")
    x = np.zeros(n + 1)  # x[n]: the block's outside, held in const
    a = np.empty((n, n))
    for rounds in range(1, MAX_ITERATIONS + 1):
        branches = _ranges(row_ptr, choice)
        at = np.repeat(np.arange(n), np.diff(row_ptr)[choice]) * n \
            + inside[branches]
        keep = inb[branches]
        a.fill(0.0)
        a.flat[::n + 1] = 1.0
        np.subtract.at(a.reshape(-1), at[keep], prob[branches][keep])
        try:
            x[:n] = np.linalg.solve(a, const[choice])
        except np.linalg.LinAlgError as e:
            raise SolverError(f"policy evaluation failed: {e}") from None
        q = np.add.reduceat(prob * x[inside], row_starts) + const
        best = _optimum(q, group_starts, maximize)
        now = q[choice]
        gain = best - now if maximize else now - best
        better = gain > ROUNDING_SLACK * np.abs(now)
        if not better.any():
            return x[:n], rounds
        choice = np.where(better, _first(q == best[row_state], group_starts),
                          choice)
    raise SolverError(f"no convergence after {MAX_ITERATIONS} policy rounds")


def _solve(V: np.ndarray, sp: ExplicitStateSpace, free: np.ndarray,
           maximize: bool, cost: np.ndarray | float,
           cfg: SolverConfig) -> tuple[int, float, dict[str, float]]:
    """Optimal values of the ``free`` states, written into ``V``, given the
    values of all other states; returns the policy rounds plus value
    iteration sweeps made, the largest Bellman residual over the free
    states, and block statistics (``exact``, ``sccs``, ``largest_scc``).

    A free state uses only rows that leave it and whose successors all have
    finite values.  The free states are split into strongly connected
    components, which are solved by topological level, lowest first: all
    single-state components of one level by one exact Bellman update (a
    self-loop of probability q divides by 1-q), every larger component by
    :func:`_policy_iteration`, or by :func:`_iterate` above
    ``MAX_DENSE_SCC`` states.
    """
    usable = (np.logical_or.reduceat(sp.branch_target != sp.branch_source,
                                     sp.branch_ptr[:-1])
              & np.logical_and.reduceat(np.isfinite(V[sp.branch_target]),
                                        sp.branch_ptr[:-1])
              & free[sp.choice_state])
    states = np.flatnonzero(free)
    if not len(states):
        return 0, 0.0, {"exact": 1.0, "sccs": 0.0, "largest_scc": 0.0}
    m = len(states)
    local = np.full(sp.n_states, m)
    local[states] = np.arange(m)

    # the graph among free states, self-loops aside
    edge = (usable[sp.branch_choice] & free[sp.branch_target]
            & (sp.branch_target != sp.branch_source))
    src = local[sp.branch_source[edge]]
    dst = local[sp.branch_target[edge]]
    comp = np.array(_sccs(np.searchsorted(src, np.arange(m + 1)).tolist(),
                          dst.tolist()))
    size = np.bincount(comp)
    # Kahn's algorithm: a component's peel round is the length of its
    # longest path to one without successors
    cs, cd = comp[src], comp[dst]
    cross = cs != cd
    level = _peel(_in_branches(cd[cross], np.arange(cross.sum()), cs[cross],
                               len(size)),
                  np.ones(len(size), dtype=bool))[comp]
    cyclic = size[comp] > 1
    # by level; in each, the single states first, then one component after
    # the other
    order = np.lexsort((comp, cyclic, level))
    states, level, cyclic, comp = (states[order], level[order],
                                   cyclic[order], comp[order])
    local[states] = np.arange(m)

    # the rows of the free states in that order, packed
    all_rows = _ranges(sp.choice_ptr, states)
    kept = usable[all_rows]
    group_ptr = np.append(0, np.cumsum(kept))[
        np.append(0, np.cumsum(np.diff(sp.choice_ptr)[states]))]
    rows = all_rows[kept]
    branches = _ranges(sp.branch_ptr, rows)
    row_ptr = np.append(0, np.cumsum(np.diff(sp.branch_ptr)[rows]))
    prob = sp.branch_prob[branches]
    target = sp.branch_target[branches]
    row_cost = cost[rows] if np.ndim(cost) else np.full(len(rows), cost)
    loop = target == sp.branch_source[branches]

    cut = np.flatnonzero((level[1:] != level[:-1])
                         | (cyclic[1:] != cyclic[:-1])
                         | (cyclic[1:] & (comp[1:] != comp[:-1]))) + 1
    iterations, exact = 0, True
    for a, e in zip(np.append(0, cut).tolist(), np.append(cut, m).tolist()):
        r0, r1 = group_ptr[a], group_ptr[e]
        b0, b1 = row_ptr[r0], row_ptr[r1]
        p, t = prob[b0:b1], target[b0:b1]
        starts = row_ptr[r0:r1] - b0
        groups = group_ptr[a:e] - r0
        if not cyclic[a]:
            # with a self-loop of probability q: (cost + rest) / (1 - q)
            val = np.add.reduceat(np.where(loop[b0:b1], 0.0, p * V[t]),
                                  starts) + row_cost[r0:r1]
            val /= 1.0 - np.add.reduceat(np.where(loop[b0:b1], p, 0.0),
                                         starts)
            V[states[a:e]] = _optimum(val, groups, maximize)
            continue
        if e - a > MAX_DENSE_SCC:
            sweeps, _ = _iterate(V, (states[a:e], p, t, row_cost[r0:r1],
                                     starts, groups), maximize, cfg)
            iterations += sweeps
            exact = False
            continue
        inside = local[t] - a
        outside = (inside < 0) | (inside >= e - a)
        inside[outside] = e - a
        const = np.add.reduceat(np.where(outside, p * V[t], 0.0),
                                starts) + row_cost[r0:r1]
        V[states[a:e]], rounds = _policy_iteration(const, p, inside, starts,
                                                   groups, maximize)
        iterations += rounds

    opt = _optimum(_row_values(sp, V, cost), sp.choice_ptr[:-1], maximize)
    residual = float(np.max(np.abs(opt[states] - V[states])))
    return iterations, residual, {"exact": float(exact),
                                  "sccs": float(len(size)),
                                  "largest_scc": float(size.max())}


def _extract_scheduler(
    space: ExplicitStateSpace,
    sp: ExplicitStateSpace,
    g: tuple,
    V: np.ndarray,
    maximize: bool,
    target: np.ndarray,
    *,
    cost=0.0,
    progress: bool,
    stay_zero: np.ndarray | None = None,
) -> dict[int, int]:
    """Deterministic memoryless scheduler attaining ``V``.

    ``sp`` is ``_closed(space)`` and ``g`` its in-branch order.  Ties break
    to the lowest choice index;
    where ``progress`` is set (maximizing reachability, minimizing time),
    the choice must also make progress toward the target through
    value-optimal rows, which keeps the induced chain from idling in
    value-preserving cycles.  ``stay_zero`` marks states whose scheduler
    must remain inside that set (minimal-probability extraction).
    """
    starts = sp.choice_ptr[:-1]
    row_vals = _row_values(sp, V, cost)
    opt = _optimum(row_vals, starts, maximize)[sp.choice_state]
    with np.errstate(invalid="ignore"):
        # inf-valued rows of inf-valued states give NaN gaps, which compare
        # False and are correctly excluded
        candidate = np.abs(row_vals - opt) <= ROUNDING_SLACK * np.abs(opt)

    first = _first(candidate, starts)
    choice = np.where(~target & (first < _FAR), first, starts)
    if progress:
        first = _progress(g, starts, target, candidate)
        choice = np.where(~target & (first < _FAR), first, choice)
    if stay_zero is not None:
        # a choice that stays in the zero set, which every zero state has
        choice = np.where(stay_zero, _first(np.logical_and.reduceat(
            stay_zero[sp.branch_target], sp.branch_ptr[:-1]), starts), choice)
    states = np.flatnonzero(np.diff(space.choice_ptr) > 0)
    return dict(zip(states.tolist(), (choice - starts)[states].tolist()))


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
    g = _in_branches(sp.branch_target, sp.branch_choice, sp.choice_state,
                     sp.n_states)
    maximize = direction is Direction.MAX
    if maximize:
        zero = _backward_bfs(g, mask) == _FAR
        one = _exists_almost_sure(sp, g, mask)
    else:
        # some scheduler avoids the target forever; every scheduler reaches
        # it almost surely from where that set is unreachable
        zero = _peel(g, ~mask) == _FAR
        one = _backward_bfs(g, zero, allowed=~mask) == _FAR
    zero &= ~mask
    one |= mask

    V = np.zeros(space.n_states, dtype=np.float64)
    V[one] = 1.0
    free = ~(one | zero)
    iterations, residual, info = _solve(V, sp, free, maximize, 0.0, cfg)
    if V.min() < -1e-9 or V.max() > 1 + 1e-9:
        raise SolverError(f"probabilities left [0,1]: min {V.min()}, "
                          f"max {V.max()}")
    scheduler = _extract_scheduler(
        space, sp, g, V, maximize, mask,
        progress=maximize, stay_zero=zero if not maximize else None)
    return ValueResult(float(V[space.initial]), iterations, residual,
                       scheduler, {"pinned_zero": float(zero.sum()),
                                   "pinned_one": float(one.sum()), **info})


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
    g = _in_branches(sp.branch_target, sp.branch_choice, sp.choice_state,
                     sp.n_states)
    has_choice = np.diff(space.choice_ptr) > 0
    # an embedded jump row costs the mean sojourn 1/E of its state
    rate = space.exit_rate[sp.choice_state]
    cost = np.divide(1.0, rate, out=np.zeros_like(rate), where=rate > 0)
    maximize = direction is Direction.MAX
    if maximize:
        # every scheduler reaches the target almost surely
        finite = _backward_bfs(g, _peel(g, ~mask) == _FAR,
                               allowed=~mask) == _FAR
    else:
        finite = _exists_almost_sure(sp, g, mask)
        # non-target states that can cycle forever through immediate choices
        trap = (_peel(g, has_choice & ~mask) == _FAR) & finite
        if trap.any():
            raise SolverError(
                "minimum expected time is ill-defined: zero-time cycle "
                f"through states {np.flatnonzero(trap).tolist()[:10]}")

    V = np.zeros(space.n_states, dtype=np.float64)
    V[~finite] = math.inf
    V[mask] = 0.0
    free = finite & ~mask
    iterations, residual, info = _solve(V, sp, free, maximize, cost, cfg)
    scheduler = _extract_scheduler(
        space, sp, g, V, maximize, mask, cost=cost,
        progress=not maximize)
    return ValueResult(float(V[space.initial]), iterations, residual,
                       scheduler, {"pinned_inf": float((~finite).sum()),
                                   "target_states": float(mask.sum()),
                                   **info})


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
