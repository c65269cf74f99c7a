"""Numerical analyses on explicit state spaces.

Reachability probabilities and MA expected time (exact, by graph
precomputation and policy iteration per strongly connected component),
whole step-bounded CDFs, MA time-bounded reachability bracketed by
uniformization, and deterministic scheduler extraction.

Unbounded reachability and expected time are solved by :func:`_solve`.
Graph analysis first pins the states whose value is 0, 1 or infinite.
:func:`_plan` trims the remaining states that lie on no cycle by one
:func:`_peel`, whose rounds are their topological levels, splits only the
rest into strongly connected components (iterative Tarjan, :func:`_sccs`)
and packs the rows of all in topological order, with one search for the
initial policies of all cyclic components;
:func:`_resolve` solves them in that order: all single-state components of
one level by one exact Bellman update, every larger one by policy iteration
with a dense ``numpy.linalg.solve`` per round.  Only a component above
:data:`MAX_DENSE_SCC` states falls back to value iteration.  A result's
``iterations`` counts policy rounds plus any value-iteration sweeps,
``residual`` is the largest |Bellman(V) - V| over the solved states after
the solve, and ``info["exact"]`` is 1.0 when no component fell back.

MA time-bounded reachability (:func:`ma_time_bounded`) uniformizes the MA
and brackets the time-dependent optimum from both sides, with a scheduler
that counts jumps and one that knows their number in advance; it plans the
immediate states once and resolves them exactly after every jump, each
cyclic block from its last policy.  Its ``value`` is the bracket's
midpoint and its ``residual`` the bracket's width.

Value iteration is plain Jacobi iteration over the packed rows of an
oversize component (:func:`_iterate`).  It stops at an absolute residual
(``SolverConfig.epsilon``), which is not sound in general (it can stop
early on slowly mixing models), and :data:`MAX_ITERATIONS` sweeps without
reaching it are a :class:`SolverError`.

Every analysis pins states by two rules (Baier & Katoen, 2008),
:func:`_prob0` (probability 0 under every or under some scheduler) and
:func:`_prob1` (probability 1 under some, Prob1E, or under every, Prob1A).
Graph precomputation runs three searches, each looking at every branch
once, over an in-branch order (:func:`qmv.core.in_branches`):
:func:`_backward_bfs`; :func:`_peel`, the one greatest fixpoint (also
topological levels); and :func:`_progress` (initial policies, the
scheduler's progress rule).  Both unbounded analyses end in
:func:`_solve`, whose one Bellman pass after the solve gives both the
residual and the scheduler.

Every analysis reads the row-grouped arrays of the state space directly:
per-row values are one ``reduceat`` over the branches, per-state optima one
over the rows.  Analyses read the space's cached closed view
(:attr:`qmv.core.ExplicitStateSpace.closed`, which adds the embedded-jump
and self-loop rows that Markov automata and absorbing states lack) and its
cached in-branch order, both built once per space.  States are processed
in index-ascending order, so every analysis is deterministic.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from qmv.core import (
    Direction,
    ExplicitStateSpace,
    ModelClass,
    PropertyKind,
    ValueResult,
    in_branches,
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
#: value is better by more than this fraction of the other's, and a
#: time-bounded bracket is widened by this fraction of its ends.
ROUNDING_SLACK = 1e-10
#: Largest step horizon of a step-bounded CDF.
MAX_HORIZON = 1_000_000
#: Largest number of Poisson terms (uniformized jumps per subinterval,
#: summed over the subintervals) of MA time-bounded reachability.
MAX_POISSON_TERMS = 1_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Numerical tuning knobs, each positive and finite.

    ``epsilon`` is the absolute residual at which value iteration stops,
    which only strongly connected components above :data:`MAX_DENSE_SCC`
    states use; ``time_bound_error`` is the requested width of the
    [lower, upper] bracket of MA time-bounded reachability.
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


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of ``a``, sorted: ``np.unique`` without the
    import of ``numpy.ma`` that its first call makes (1.2 MB of resident
    memory)."""
    if len(a) < 2:  # a chain's frontier: skip the sort
        return a
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _ranges(ptr: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The index ranges ``ptr[i]:ptr[i + 1]`` of the ``items``, concatenated
    in order."""
    lo = ptr[items]
    lens = ptr[items + 1] - lo
    # methods: np.cumsum's and np.repeat's dispatch costs a microsecond each
    ends = lens.cumsum()
    return (lo - ends + lens).repeat(lens) + np.arange(
        ends[-1] if len(ends) else 0)


# --------------------------------------------------------------------------
# graph precomputations


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
                        target: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """States where some scheduler reaches ``target`` with probability 1:
    the greatest set from which ``target`` is reachable backwards along
    rows that stay in the set.

    ``reach`` marks the states from which ``target`` is reachable at all,
    the first backward search, which callers have made already.  Between
    backward searches, :func:`_peel` removes the non-target states left
    without a row that stays in the set: on a chain, in one pass what
    would otherwise take one backward search per state."""
    u = np.ones(sp.n_states, dtype=bool)
    v = reach
    while not np.array_equal(u, v):
        u = _peel(g, v, target) == _FAR
        stay = np.logical_and.reduceat(u[sp.branch_target],
                                       sp.branch_ptr[:-1])
        v = u & (_backward_bfs(g, target, stay) < _FAR)
    return u


def _prob0(g: tuple, target: np.ndarray, maximize: bool) -> np.ndarray:
    """States that reach ``target`` with probability 0 under every scheduler
    (``maximize``: no path leads there, one backward search) or under some
    scheduler (a row that avoids it forever, one :func:`_peel`).  No target
    state is among them."""
    if maximize:
        return _backward_bfs(g, target) == _FAR
    return _peel(g, ~target) == _FAR


def _prob1(sp: ExplicitStateSpace, target: np.ndarray, maximize: bool,
           zero: np.ndarray) -> np.ndarray:
    """States from which some scheduler (``maximize``, Prob1E: by
    :func:`_exists_almost_sure` from outside ``zero``) or every scheduler
    (Prob1A: no path that avoids ``target`` leads into ``zero``) reaches
    ``target`` almost surely, given ``zero``, :func:`_prob0` of the same
    arguments.  Every target state is among them."""
    if maximize:
        return _exists_almost_sure(sp, sp.in_branches, target, ~zero)
    return _backward_bfs(sp.in_branches, zero, allowed=~target) == _FAR


# --------------------------------------------------------------------------
# exact solver and value iteration


def _iterate(V: np.ndarray, rows: tuple, maximize: bool,
             cfg: SolverConfig) -> tuple[int, float]:
    """Jacobi value iteration of the packed ``rows`` ``(states, prob,
    target, cost, row_starts, group_starts)`` until no value changes by
    more than ``cfg.epsilon``.  Updates ``V`` in
    place; returns the sweeps made and the last residual."""
    idx, prob, target, cost, row_starts, group_starts = rows
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
                      group_starts: np.ndarray, row_state: np.ndarray,
                      choice: np.ndarray, maximize: bool) -> tuple:
    """Solve one strongly connected block of ``n`` states exactly; return
    its values, the policy rounds made and the final policy.

    Row ``r`` of the block belongs to state ``row_state[r]`` and is worth
    ``const[r]`` plus its branches ``prob`` into the block (``inside`` is
    the local target, ``n`` for a branch that leaves the block, whose value
    ``const`` already holds).  ``choice`` is a proper initial policy.  Each
    round evaluates the policy with one dense solve and switches a state to
    its best row only where that row beats the chosen one by more than
    ``ROUNDING_SLACK``; strict improvement keeps the policy proper.
    """
    n = len(group_starts)
    row_ptr = np.concatenate((row_starts, [len(prob)]))
    inb = inside < n
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
            return x[:n], rounds, choice
        choice = np.where(better, _first(q == best[row_state], group_starts),
                          choice)
    raise SolverError(f"no convergence after {MAX_ITERATIONS} policy rounds")


#: The packed layout of :func:`_plan`.
_Plan = namedtuple("_Plan", "blocks states groups policy starts row_state "
                   "cost denom prob target inside")


def _plan(sp: ExplicitStateSpace, free: np.ndarray, finite: np.ndarray,
          cost: np.ndarray | float) -> tuple[_Plan, dict[str, float]]:
    """The packed layout in which :func:`_resolve` solves the ``free``
    states, and block statistics (``sccs``, ``largest_scc``).

    A free state uses only rows that leave it and whose successors are all
    ``finite``.  The free states are split into strongly connected
    components: one :func:`_peel` over the graph among them, each edge a
    row, trims the states on no cycle, and its rounds are their levels
    (the longest path to a state without successors); Tarjan and Kahn's
    algorithm then split and level only the rest, which no trimmed state
    leads into, at levels above the trimmed ones.  Blocks are grouped by
    topological level, lowest first: per level
    one ``"level"`` block of its single-state components, then one
    ``"dense"`` block per larger component (``"large"`` above
    :data:`MAX_DENSE_SCC` states).  A block ``(kind, states, rows,
    branches)`` slices the per-state, per-row and per-branch arrays of the
    layout; ``groups``, ``policy``, ``starts``, ``row_state`` and ``inside``
    count rows, branches and states from the block's first one.  Level
    rows leave self-loops out of ``prob`` and divide by ``denom``, 1 - q
    for the self-loop probability q; ``inside`` is a branch's target (the
    block's size where it leaves), ``policy`` a proper initial policy.
    """
    usable = (np.logical_or.reduceat(sp.branch_target != sp.branch_source,
                                     sp.branch_ptr[:-1])
              & np.logical_and.reduceat(finite[sp.branch_target],
                                        sp.branch_ptr[:-1])
              & free[sp.choice_state])
    states = np.flatnonzero(free)
    m = len(states)
    local = np.full(sp.n_states, m)
    local[states] = np.arange(m)

    # the graph among free states, self-loops aside, each edge a row of its
    # own (sorted by source)
    edge = (usable[sp.branch_choice] & free[sp.branch_target]
            & (sp.branch_target != sp.branch_source))
    src = local[sp.branch_source[edge]]
    dst = local[sp.branch_target[edge]]
    # trim: a state peeled in round r lies on no cycle, and r is the length
    # of its longest path to a state without successors
    level = _peel(in_branches(dst, np.arange(len(dst)), src, m),
                  np.ones(m, dtype=bool))
    rest = level == _FAR
    # no peeled state leads into the rest: Tarjan and Kahn's algorithm over
    # its components place them at levels above the peeled ones
    pos = np.cumsum(rest) - 1
    inner = rest[src] & rest[dst]
    rs, rd = pos[src[inner]], pos[dst[inner]]
    rptr = np.searchsorted(rs, np.arange(rest.sum() + 1))
    rcomp = np.array(_sccs(rptr.tolist(), rd.tolist()), dtype=np.int64)
    cs, cd = rcomp[rs], rcomp[rd]
    cross = cs != cd
    k = rcomp.max(initial=-1) + 1
    rlevel = _peel(in_branches(cd[cross], np.arange(cross.sum()), cs[cross],
                               k), np.ones(k, dtype=bool))
    peeled = m - len(rcomp)
    comp = np.empty(m, dtype=np.int64)
    comp[~rest] = np.arange(peeled)
    comp[rest] = peeled + rcomp
    level[rest] = level[~rest].max(initial=-1) + 1 + rlevel[rcomp]
    sizes = np.bincount(comp)
    cyclic = sizes[comp] > 1
    # by level; in each, the single states first, then one component after
    # the other
    order = np.lexsort((comp, cyclic, level))
    states, level, cyclic, comp = (states[order], level[order],
                                   cyclic[order], comp[order])
    local[states] = np.arange(m)
    # the states bounds[k]:bounds[k + 1] form block k; per state, its
    # block's first state and size
    cut = np.ones(m, dtype=bool)
    cut[1:] = ((level[1:] != level[:-1]) | (cyclic[1:] != cyclic[:-1])
               | (cyclic[1:] & (comp[1:] != comp[:-1])))
    bounds = np.append(np.flatnonzero(cut), m)
    width = np.diff(bounds)
    first, size = np.repeat(bounds[:-1], width), np.repeat(width, width)

    # the rows of the free states in that order, packed
    all_rows = _ranges(sp.choice_ptr, states)
    kept = usable[all_rows]
    group_ptr = np.append(0, np.cumsum(kept))[
        np.append(0, np.cumsum(np.diff(sp.choice_ptr)[states]))]
    rows = all_rows[kept]
    branches = _ranges(sp.branch_ptr, rows)
    row_ptr = np.append(0, np.cumsum(np.diff(sp.branch_ptr)[rows]))
    row_state = np.repeat(np.arange(m), np.diff(group_ptr))
    branch_row = np.repeat(np.arange(len(rows)), np.diff(row_ptr))
    branch_state = row_state[branch_row]
    prob = sp.branch_prob[branches]
    target = sp.branch_target[branches]
    loop = (target == sp.branch_source[branches]) & ~cyclic[branch_state]
    denom = 1.0 - np.add.reduceat(np.where(loop, prob, 0.0), row_ptr[:-1])
    prob[loop] = 0.0
    outside = np.append(comp, -1)[local[target]] != comp[branch_state]
    inside = np.where(outside, size[branch_state],
                      local[target] - first[branch_state])

    first_row = group_ptr[first]
    policy = np.zeros(m, dtype=np.int64)
    dense = cyclic & (size <= MAX_DENSE_SCC)
    if dense.any():
        # one search for all: a branch that leaves its block leads to the
        # extra node m, so distances to m are distances within the block
        searched = dense[branch_state]
        node = np.where(outside, m, local[target])[searched]
        choice = _progress(
            in_branches(node, branch_row[searched], row_state, m + 1),
            group_ptr[:-1], np.arange(m + 1) == m)[dense]
        if (choice == _FAR).any():
            raise SolverError("a strongly connected block has no way out")
        policy[dense] = choice - first_row[dense]

    kind = np.array(["level", "dense", "large"])[
        cyclic[bounds[:-1]] * (1 + (width > MAX_DENSE_SCC))]
    blocks = list(zip(kind.tolist(), *(
        map(slice, ptr[:-1].tolist(), ptr[1:].tolist())
        for ptr in (bounds, group_ptr[bounds], row_ptr[group_ptr[bounds]]))))
    return _Plan(blocks, states, group_ptr[:-1] - first_row, policy,
                 row_ptr[:-1] - row_ptr[first_row][row_state],
                 row_state - first[row_state],
                 cost[rows] if np.ndim(cost) else np.full(len(rows), cost),
                 denom, prob, target, inside), {
        "sccs": float(len(sizes)), "largest_scc": float(sizes.max(initial=0))}


def _resolve(V: np.ndarray, plan: _Plan, maximize: bool,
             cfg: SolverConfig) -> tuple[int, bool]:
    """Optimal values of the states of the ``plan`` (see :func:`_plan`),
    written into ``V``, given the values of all other states; returns the
    policy rounds plus value iteration sweeps made, and whether every block
    was solved exactly.

    Block by block: the single states of a level by one exact Bellman
    update (a self-loop of probability q divides by 1-q), a component by
    :func:`_policy_iteration` from the policy it kept in the plan, which a
    strict improvement keeps proper, or by :func:`_iterate` above
    ``MAX_DENSE_SCC`` states.
    """
    iterations, exact = 0, True
    for kind, at, rows, branches in plan.blocks:
        states, groups = plan.states[at], plan.groups[at]
        cost, starts = plan.cost[rows], plan.starts[rows]
        p, t = plan.prob[branches], plan.target[branches]
        if kind == "level":
            val = np.add.reduceat(p * V[t], starts) + cost
            V[states] = _optimum(val / plan.denom[rows], groups, maximize)
        elif kind == "large":
            sweeps, _ = _iterate(V, (states, p, t, cost, starts, groups),
                                 maximize, cfg)
            iterations += sweeps
            exact = False
        else:
            inside = plan.inside[branches]
            const = np.add.reduceat(
                np.where(inside == len(states), p * V[t], 0.0), starts) + cost
            V[states], rounds, plan.policy[at] = _policy_iteration(
                const, p, inside, starts, groups, plan.row_state[rows],
                plan.policy[at], maximize)
            iterations += rounds
    return iterations, exact


def _solve(space: ExplicitStateSpace, V: np.ndarray, free: np.ndarray,
           target: np.ndarray, maximize: bool, cost: np.ndarray | float,
           cfg: SolverConfig, info: dict[str, float], *, progress: bool,
           stay_zero: np.ndarray | None = None) -> ValueResult:
    """Optimal values of the ``free`` states, written into ``V``, given the
    values of all other states, as a :class:`ValueResult` with a
    deterministic memoryless scheduler over every state of ``space`` with
    a choice: :func:`_plan`, one :func:`_resolve`, then one Bellman pass
    over ``V`` for the ``residual`` (the largest |Bellman(V) - V| over the
    free states) and the scheduler.

    Ties break to the lowest choice index; where ``progress`` is set
    (maximizing reachability, minimizing time), the choice must also make
    progress toward ``target`` through value-optimal rows, which keeps the
    induced chain from idling in value-preserving cycles.  A state of
    ``stay_zero`` (Pmin's zero set) takes its first choice that stays in
    that set.  ``info`` leads the result's info, then ``exact``, ``sccs``
    and ``largest_scc``.
    """
    sp = space.closed
    plan, blocks = _plan(sp, free, np.isfinite(V), cost)
    iterations, exact = _resolve(V, plan, maximize, cfg)
    del plan  # freed before the Bellman pass: held, it raises peak memory
    starts = sp.choice_ptr[:-1]
    row_vals = _row_values(sp, V, cost)
    opt = _optimum(row_vals, starts, maximize)
    residual = float(np.max(np.abs(opt[free] - V[free]), initial=0.0))
    opt = opt[sp.choice_state]
    with np.errstate(invalid="ignore"):
        # inf-valued rows of inf-valued states give NaN gaps, which compare
        # False and are correctly excluded
        candidate = np.abs(row_vals - opt) <= ROUNDING_SLACK * np.abs(opt)

    first = _first(candidate, starts)
    choice = np.where(~target & (first < _FAR), first, starts)
    # where no state has two rows (a DTMC) no search can change the choice
    if progress and (np.diff(sp.choice_ptr) > 1).any():
        first = _progress(sp.in_branches, starts, target, candidate)
        choice = np.where(~target & (first < _FAR), first, choice)
    if stay_zero is not None:
        # a choice that stays in the zero set, which every zero state has
        choice = np.where(stay_zero, _first(np.logical_and.reduceat(
            stay_zero[sp.branch_target], sp.branch_ptr[:-1]), starts), choice)
    states = np.flatnonzero(np.diff(space.choice_ptr) > 0)
    scheduler = dict(zip(states.tolist(), (choice - starts)[states].tolist()))
    return ValueResult(float(V[space.initial]), iterations, residual,
                       scheduler, {**info, "exact": float(exact), **blocks})


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
    maximize = direction is Direction.MAX
    zero = _prob0(space.closed.in_branches, mask, maximize)
    one = _prob1(space.closed, mask, maximize, zero)
    V = one.astype(np.float64)
    result = _solve(space, V, ~(one | zero), mask, maximize, 0.0, cfg,
                    {"pinned_zero": float(zero.sum()),
                     "pinned_one": float(one.sum())},
                    progress=maximize, stay_zero=None if maximize else zero)
    if V.min() < -1e-9 or V.max() > 1 + 1e-9:
        raise SolverError(f"probabilities left [0,1]: min {V.min()}, "
                          f"max {V.max()}")
    return result


def step_bounded_cdf(
    space: ExplicitStateSpace,
    target,
    direction: Direction,
    t_max: int,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> CdfResult:
    """Reach probability within t steps, for every t = 0..t_max.

    DTMC: forward transient iteration of the state distribution with the
    target made absorbing — one vector per step, no unfolding.  After each
    step the mass in target states (already counted) and in states that
    cannot reach the target is dropped: a state that cannot reach the
    target has only such successors, so its mass never adds to a later
    value.  Once no mass is left, every later step adds exactly 0.0, so
    the iteration stops and the last value fills the rest of the horizon.

    MDP: backward step-bounded value iteration, recording the horizon-k
    value of the initial state for each k.  A sweep is a function of the
    vector it starts from, so once a sweep returns its input unchanged,
    every later one does too, and the iteration stops there.

    Both stops leave every value bit-identical to iterating up to
    ``t_max``.  No setting of ``cfg`` applies here.
    """
    if space.model_class is ModelClass.MA:
        raise SolverError("step-bounded analysis needs a DTMC or MDP "
                          "(MA models take time bounds)")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if t_max > MAX_HORIZON:
        raise SolverError(
            f"horizon {t_max} exceeds MAX_HORIZON ({MAX_HORIZON})")
    mask = target_mask(space, target)
    sp = space.closed
    n = sp.n_states

    if space.model_class is ModelClass.DTMC:
        # index arrays: cheaper per step than boolean masks
        hit = np.flatnonzero(mask)
        drop = np.flatnonzero(mask | _prob0(sp.in_branches, mask, True))
        pi = np.zeros(n, dtype=np.float64)
        pi[space.initial] = 1.0
        acc = float(pi[hit].sum())
        pi[drop] = 0.0
        values = [acc]
        while len(values) <= t_max and pi.any():
            # each state's inflow summed in branch order, as a loop over
            # the branches would: the values do not depend on the stop
            pi = np.bincount(sp.branch_target,
                             weights=pi[sp.branch_source] * sp.branch_prob,
                             minlength=n)
            acc += float(pi[hit].sum())
            pi[drop] = 0.0
            values.append(acc)
    else:
        maximize = direction is Direction.MAX
        V = mask.astype(np.float64)
        values = [float(V[space.initial])]
        while len(values) <= t_max:
            opt = _optimum(_row_values(sp, V), sp.choice_ptr[:-1],
                           maximize)
            nxt = np.where(mask, 1.0, opt)
            values.append(float(nxt[space.initial]))
            if np.array_equal(nxt, V):
                break
            V = nxt

    monotone = all(b >= a for a, b in zip(values, values[1:]))
    values += [values[-1]] * (t_max + 1 - len(values))
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
    sp = space.closed
    # an embedded jump row costs the mean sojourn 1/E of its state
    rate = space.exit_rate[sp.choice_state]
    cost = np.divide(1.0, rate, out=np.zeros_like(rate), where=rate > 0)
    maximize = direction is Direction.MAX
    # finite where the target is reached almost surely: Tmin's finite set
    # is Pmax's one set, Tmax's is Pmin's
    finite = _prob1(sp, mask, not maximize,
                    _prob0(sp.in_branches, mask, not maximize))
    if not maximize:
        # states that can cycle forever through immediate choices, avoiding
        # Markovian and target states
        trap = _prob0(sp.in_branches,
                      mask | (np.diff(space.choice_ptr) == 0), False) & finite
        if trap.any():
            raise SolverError(
                "minimum expected time is ill-defined: zero-time cycle "
                f"through states {np.flatnonzero(trap).tolist()[:10]}")
    return _solve(space, np.where(finite, 0.0, math.inf), finite & ~mask,
                  mask, maximize, cost, cfg,
                  {"pinned_inf": float((~finite).sum()),
                   "target_states": float(mask.sum())},
                  progress=not maximize)


def _poisson(mean: float, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(``mean``) weights ψ_0..ψ_K and survival P(N >= i) for
    i = 0..K+1, where K is the first point with P(N >= K+1) <= ``tail``.

    The weights start at the mode in log space (``exp(-mean)`` underflows
    above a mean of about 745) and run out to where they underflow; the
    survival is their reverse cumulative sum, which keeps the small tail
    probabilities accurate where ``1 - cumsum`` would cancel them.
    """
    if mean == 0:
        return np.ones(1), np.array([1.0, 0.0])
    mode = math.floor(mean)
    k = np.arange(1, math.ceil(mean + 40 * math.sqrt(mean) + 800))
    # log ψ_k - log ψ_mode, summed outwards from k = 0
    log_w = np.append(0.0, np.cumsum(np.log(mean / k)))
    log_w += (mode * math.log(mean) - mean - math.lgamma(mode + 1)
              - log_w[mode])
    w = np.exp(log_w)
    w /= w.sum()
    survival = np.append(np.cumsum(w[::-1])[::-1], 0.0)
    last = int(np.argmax(survival[1:] <= tail))
    return w[:last + 1], survival[:last + 2]


def ma_time_bounded(
    space: ExplicitStateSpace,
    target,
    direction: Direction,
    time_bound: float,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> ValueResult:
    """Optimal probability of reaching ``target`` within ``time_bound``
    minutes, bracketed from both sides to width ``cfg.time_bound_error``.

    The MA is uniformized at the largest exit rate λ of a non-target state,
    target states are absorbing, and [0, T] is split into n equal
    subintervals, processed backwards from the terminal vector.  Over each,
    the number of jumps N is Poisson(λT/n), and two schedulers bound the
    optimum: one that sees only the jumps i made so far in the subinterval
    (achievable, so a lower bound of Pmax and an upper bound of Pmin), and
    one that knows N (an upper bound of Pmax, a lower bound of Pmin).
    Immediate states are solved exactly after every jump (:func:`_plan`
    once, :func:`_resolve` per sweep); those that can stay in zero time
    forever (Pmin) or cannot leave the immediate states (Pmax) keep the
    value 0.  Truncations go to the safe side.  n doubles until the bracket
    at the initial state is narrow enough; more than
    :data:`MAX_POISSON_TERMS` Poisson terms are a :class:`SolverError`.

    ``value`` is the bracket's midpoint and ``residual`` its width;
    ``iterations`` counts Poisson sweeps (jumps) over all rounds, and
    ``info`` carries ``lower``, ``upper``, ``lambda_max`` and ``intervals``.
    """
    if space.model_class is not ModelClass.MA:
        raise SolverError("time-bounded analysis is defined for MA models")
    if time_bound < 0:
        raise SolverError("time bound must be nonnegative")
    mask = target_mask(space, target)
    maximize = direction is Direction.MAX
    width = cfg.time_bound_error

    sp = space.closed
    immediate = (np.diff(space.choice_ptr) > 0) & ~mask
    # immediate states that never leave the immediate states, under every
    # scheduler (Pmax) or under some (Pmin)
    stuck = _prob0(sp.in_branches, ~immediate, maximize)
    plan, _ = _plan(sp, immediate & ~stuck, np.ones(sp.n_states, bool), 0.0)
    rate = space.exit_rate  # 0 in states with choices
    # states whose values no subinterval changes: 1 on the target, 0 else
    fixed = mask | stuck | ((rate == 0) & ~immediate)
    # one row each, the embedded jump
    idx = np.flatnonzero((rate > 0) & ~mask)
    rows = sp.choice_ptr[idx]
    branches = _ranges(sp.branch_ptr, rows)
    prob, tgt = sp.branch_prob[branches], sp.branch_target[branches]
    row_len = np.diff(sp.branch_ptr)[rows]
    starts = np.cumsum(row_len) - row_len
    lam = float(rate[idx].max()) if len(idx) else 0.0
    # the uniformized step: jump along the embedded row with probability
    # E/λ, stay otherwise
    move = prob * np.repeat(rate[idx] / lam, row_len)
    stay = 1.0 - rate[idx] / lam

    def jump(V):
        """The Markovian states' values one uniformized jump earlier."""
        return stay * V[idx] + np.add.reduceat(move * V[tgt], starts)

    def settle(V, markov):
        """``V`` with the Markovian values ``markov``, immediate states
        solved again."""
        V = V.copy()
        V[idx] = markov
        _resolve(V, plan, maximize, cfg)
        return V

    def jump_count(W, L, weights, survival):
        # L_i = (1 - c_i) W + c_i jump(L_(i+1)), c_i = P(N > i) / P(N >= i)
        # and 1 - c_i = ψ_i / P(N >= i) without cancellation
        for i in range(len(weights) - 1, -1, -1):
            L = settle(W, (weights[i] * W[idx] + survival[i + 1] * jump(L))
                       / survival[i])
        return L

    def clairvoyant(W, weights, dropped):
        # the sum of ψ_k D_k, D_0 = W and D_(k+1) = jump(D_k)
        acc, D = weights[0] * W, W
        for w in weights[1:]:
            D = settle(D, jump(D))
            acc += w * D
        acc = np.where(fixed, W, acc + dropped)
        _resolve(acc, plan, maximize, cfg)
        return acc

    terminal = mask.astype(np.float64)
    _resolve(terminal, plan, maximize, cfg)
    n, sweeps, needed = 1, 0, 0.0
    mean = lam * time_bound
    while True:
        lo, hi = terminal, terminal
        if mean > 0:
            # each subinterval truncates 1% of the width per side; Poisson
            # weights below the smallest normal double underflow, so a
            # smaller tail cannot be certified
            tail = width / (100 * n)
            needed = max(needed, mean if tail >= np.finfo(float).tiny
                         else math.inf)
            if needed <= MAX_POISSON_TERMS:
                weights, survival = _poisson(mean / n, tail)
                needed = max(needed, n * len(weights))
            if needed > MAX_POISSON_TERMS:
                raise SolverError(
                    f"time-bounded reachability needs about {needed:.3g} "
                    f"Poisson terms for a bound width of {width:g}, above "
                    f"the configured cap {MAX_POISSON_TERMS}; increase "
                    "time_bound_error or reduce the bound")
            for _ in range(n):
                if maximize:
                    lo = jump_count(lo, lo, weights, survival)
                    hi = clairvoyant(hi, weights, survival[-1])
                else:
                    lo = clairvoyant(lo, weights, 0.0)
                    hi = jump_count(hi, np.ones_like(hi), weights, survival)
            sweeps += n * (2 * len(weights) - 1)
        # outwards by the rounding slack, relative as every step adds
        # nonnegative terms; a fixed state's value is exact
        slack = 0.0 if fixed[space.initial] else ROUNDING_SLACK
        lower = float(lo[space.initial]) * (1.0 - slack)
        upper = min(1.0, float(hi[space.initial]) * (1.0 + slack))
        if upper - lower <= width:
            break
        # the gap shrinks about in proportion to 1/n, so about n·gap/width
        # subintervals, each at least one term, would be narrow enough
        needed = n * (upper - lower) / width
        n *= 2

    return ValueResult((lower + upper) / 2, sweeps, upper - lower, None,
                       {"lower": lower, "upper": upper, "lambda_max": lam,
                        "intervals": float(n)})


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
        cdf = step_bounded_cdf(space, target, prop.direction, prop.bound)
        return ValueResult(cdf.final, prop.bound, 0.0, None,
                           {"monotone": float(cdf.monotone)})
    if prop.kind is PropertyKind.TIME_BOUNDED_REACH_PROB:
        return ma_time_bounded(space, target, prop.direction, prop.bound, cfg)
    if prop.kind is PropertyKind.EXPECTED_TIME:
        return ma_expected_time(space, target, prop.direction, cfg)
    raise SolverError(f"unsupported property kind {prop.kind}")
