"""Statistical model checking and lightweight scheduler sampling.

Simulation advances runs in lockstep over the rows of
:func:`qmv.numeric._closed` (every state's choices, else the embedded
jump of its race, else a self-loop), the runs of all behaviours of an
``lss`` call in one pass: each step picks every live run's row (its
behaviour's resolver maps a state to a choice index), draws uniforms,
picks successors on cumulative weights and drops the finished runs.
Lightweight scheduler sampling (LSS) represents a scheduler as a 32-bit
integer id: at a decision state the choice is
``fmix64(FNV-1a-64(id ++ encoded state)) mod k``, so a single integer
determines a complete deterministic memoryless scheduler.  In *global*
mode the encoded state covers every variable; in *distributed* mode only
the variables observed by the component that owns the decision, which
restricts sampling to schedulers implementable with local information.
:func:`reachable_decisions` resolves an id by one forward search from the
initial state, so only the decision states that the id's own choices
reach are encoded and hashed; ``qmv lss`` and ``qmv simulate
--scheduler-id`` both go through it.

Everything is reproducible: run ``r`` of an estimate is keyed by
:func:`run_seed` of ``(master_seed, r)``, and its draw ``j`` is output
``j`` of SplitMix64 seeded with that key, computed from the counter
alone.  Each run's outcome therefore depends only on its index and
behaviour, whichever runs share its batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from statistics import NormalDist
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from qmv.core import (
    DEFAULT_MAX_STEPS,
    Direction,
    ExplicitStateSpace,
    NotGoodForDistribution,
    Property,
    PropertyKind,
    check_good_for_distribution,
    target_mask,
)
from qmv.numeric import _closed, _distinct, _ranges

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1
#: SplitMix64's increment, the golden-ratio odd constant.
_GAMMA = 0x9E3779B97F4A7C15


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; fixed constants, platform-independent."""
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


def encode_state(
    space: ExplicitStateSpace,
    state: int,
    projection: str | Iterable[int] = "all",
) -> bytes:
    """Serialize a state's (projected) valuation to bytes.

    Each included variable contributes its value as 8 bytes, little-endian
    two's complement (booleans as 0/1), in layout order.  ``projection`` is
    ``"all"`` or an iterable of layout indices; excluded variables
    contribute nothing.
    """
    row = space.valuations[state]
    indices = range(space.n_variables) if projection == "all" \
        else sorted(projection)
    return b"".join(
        int(row[i]).to_bytes(8, "little", signed=True) for i in indices)


def fmix64(h):
    """The 64-bit finalizer of MurmurHash3, of an int or a uint64 array:
    every input bit affects every output bit."""
    h = h ^ (h >> 33)
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h = h ^ (h >> 33)
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    return h ^ (h >> 33)


def lss_decide(scheduler_id: int, state_bytes: bytes, k: int) -> int:
    """Deterministic choice of one of ``k`` alternatives.

    Hashes the 4-byte little-endian scheduler id followed by the encoded
    state with FNV-1a-64, mixes the hash with :func:`fmix64` and reduces
    modulo ``k``.  Without the mixing step, ``FNV mod 2`` is the parity of
    the low bits of every hashed byte, so two-way decisions of different
    ids would barely differ.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    j = fnv1a64(scheduler_id.to_bytes(4, "little") + state_bytes)
    return fmix64(j) % k


_PRIME = np.uint64(FNV_PRIME)
#: FNV's step over seven zero bytes after the byte ``b``:
#: ``((h ^ b) * p) * p**7``
_PRIME8 = np.uint64(pow(FNV_PRIME, 8, 1 << 64))


def lss_choices(ids: np.ndarray, rows: np.ndarray, k: np.ndarray) -> np.ndarray:
    """:func:`lss_decide` of many (id, state) pairs at once: pair ``i``
    chooses among ``k[i]`` alternatives by scheduler id ``ids[i]`` and the
    encoded state whose variables are ``rows[i]`` (a matrix of int64
    values, one row per pair, encoded as :func:`encode_state` does).

    FNV-1a-64 runs over the byte columns in uint64 numpy, whose
    multiplication wraps modulo 2**64 as FNV needs; a variable whose values
    all lie in [0, 256) takes one step for its eight bytes.
    """
    h = np.full(len(ids), FNV_OFFSET, dtype=np.uint64)
    for b in np.asarray(ids, dtype="<u4").view(np.uint8) \
            .reshape(len(ids), 4).T:
        h = (h ^ b) * _PRIME
    rows = np.ascontiguousarray(rows, dtype="<i8")
    small = ((rows >= 0) & (rows < 256)).all(axis=0)
    data = rows.view(np.uint8).reshape(len(rows), -1, 8)
    for j in range(rows.shape[1]):
        if small[j]:
            h = (h ^ data[:, j, 0]) * _PRIME8
        else:
            for b in range(8):
                h = (h ^ data[:, j, b]) * _PRIME
    return (fmix64(h) % np.asarray(k, dtype=np.uint64)).astype(np.int64)


def run_seed(master_seed: int, run_index: int) -> int:
    """The key of run ``run_index``: output ``run_index`` of SplitMix64
    seeded with the master seed."""
    return int(_splitmix64(np.uint64(master_seed),
                           np.array([run_index], dtype=np.uint64))[0])


# --------------------------------------------------------------------------
# configuration and results


@dataclass(frozen=True)
class SmcConfig:
    """Monte Carlo settings: fixed ``runs``, or an (epsilon, delta) pair
    sized by the Okamoto bound N = ceil(ln(2/delta) / (2 epsilon^2))."""

    runs: int | None = None
    epsilon: float | None = None
    delta: float | None = None
    master_seed: int = 0
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(
                f"master seed {self.master_seed} outside [0, 2**64)")
        if self.runs is None:
            if self.epsilon is None or self.delta is None:
                raise ValueError("need runs or an (epsilon, delta) pair")
            if not (0 < self.epsilon < 1 and 0 < self.delta < 1):
                raise ValueError("epsilon and delta must lie in (0, 1)")
        elif self.epsilon is not None or self.delta is not None:
            raise ValueError("give runs or an (epsilon, delta) pair, not both")
        elif self.runs < 1:
            raise ValueError("runs must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")

    def n_runs(self) -> int:
        if self.runs is not None:
            return self.runs
        return math.ceil(math.log(2 / self.delta) / (2 * self.epsilon ** 2))


@dataclass(frozen=True)
class LssConfig:
    """Lightweight scheduler sampling settings.

    ``m`` scheduler ids are drawn uniformly (with replacement) from
    ``sampler_seed``; each is evaluated with one full ``inner`` estimate.
    """

    m: int
    mode: str = "global"  # "global" | "distributed"
    direction: Direction = Direction.MAX
    inner: SmcConfig = field(default_factory=lambda: SmcConfig(runs=1000))
    sampler_seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.mode not in ("global", "distributed"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SmcEstimate:
    """Estimated probability with a confidence interval.

    ``ci_method`` names the interval: ``"okamoto"`` is the (epsilon,
    delta) guarantee of an Okamoto-sized run count, clipped to [0, 1];
    ``"clopper-pearson"`` is the exact binomial interval at
    :data:`CONFIDENCE` of a fixed run count, which never has zero width.
    ``mean`` counts the ``truncated`` runs as misses; the interval's upper
    end counts them as hits, so it holds whatever they would have done.
    """

    mean: float
    ci_low: float
    ci_high: float
    runs: int
    truncated: int = 0
    ci_method: str = "clopper-pearson"

    def __post_init__(self):
        if not (self.ci_low <= self.mean <= self.ci_high):
            raise ValueError("confidence interval does not bracket the mean")

    @property
    def half_width(self) -> float:
        return max(self.ci_high - self.mean, self.mean - self.ci_low)


@dataclass(frozen=True)
class RunOutcome:
    """One simulation run: whether it hit the target, its steps, its model
    time at the end, and whether ``max_steps`` cut it off."""

    hit: bool
    steps: int
    elapsed: float
    truncated: bool = False


@dataclass(frozen=True)
class LssResult:
    """Best sampled scheduler id, its estimate on fresh runs, and the
    whole table of selecting estimates."""

    best_id: int
    best: SmcEstimate
    table: tuple[tuple[int, SmcEstimate], ...]
    mode: str
    distinct_behaviors: int


# --------------------------------------------------------------------------
# simulation

Resolver = Callable[[int], int]

#: At most this many runs are simulated at once, and at most this many
#: (scheduler id, state) pairs are searched at once.
MAX_BATCH = 1 << 16


def _splitmix64(seed, index):
    """Output ``index`` of SplitMix64 seeded with ``seed``, where one of
    the two is a uint64 array and the other a Python int."""
    z = seed + ((index + 1) * _GAMMA & _MASK64)
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _uniforms(keys: np.ndarray, draw: int) -> np.ndarray:
    """Draw ``draw`` of the runs with these keys, in [0, 1)."""
    return (_splitmix64(keys, draw) >> 11) * 2.0 ** -53


def _simulate(space: ExplicitStateSpace, resolvers: Sequence[Resolver | None],
              prop: Property, mask: np.ndarray, batches: Iterable[tuple],
              max_steps: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Per batch of runs, given by behaviour indices and keys: those
    indices and the runs' hits, steps, end times and truncations.

    A batch advances in lockstep, whatever its runs' behaviours: each step
    gathers every live run's closed row (its behaviour's choice, or its
    race's embedded jump), samples the sojourns in states with an exit
    rate, picks each successor with the run's uniform on the cumulative
    weights and drops the finished runs.  ``resolvers[b]`` is asked once
    per decision state that some run of behaviour ``b`` enters.
    """
    if prop.kind is PropertyKind.EXPECTED_TIME:
        raise ValueError("expected-time properties are not simulated; "
                         "use the numeric analysis")
    if not prop.compatible_with(space.model_class):
        raise ValueError(f"{prop.kind.value} properties do not apply to "
                         f"{space.model_class.value} models")
    step_bound = prop.bound \
        if prop.kind is PropertyKind.STEP_BOUNDED_REACH_PROB else None
    time_bound = prop.bound \
        if prop.kind is PropertyKind.TIME_BOUNDED_REACH_PROB else None
    sp = _closed(space)
    first, ptr, target = sp.choice_ptr[:-1], sp.branch_ptr, sp.branch_target
    # per row whether every branch returns to its own state
    stays = np.bincount(sp.branch_choice[target != sp.branch_source],
                        minlength=len(ptr) - 1) == 0
    cum = np.cumsum(np.append(0.0, sp.branch_prob))
    base, last, cum = cum[ptr[:-1]], ptr[1:] - 1, cum[1:]
    counts = np.diff(sp.choice_ptr)
    decide = np.flatnonzero(counts >= 2)
    # one row of choices per behaviour, -1 until resolved: column 0, always
    # 0, serves every state with one row, and column j + 1 state decide[j]
    column, width = np.cumsum(counts >= 2) * (counts >= 2), len(decide) + 1
    choice = np.full(len(resolvers) * width, -1, dtype=np.int32)
    choice[::width] = 0
    for behavior, keys in batches:
        hit, truncated = np.zeros((2, len(keys)), dtype=bool)
        steps = np.zeros(len(keys), dtype=np.int64)
        elapsed, clock = np.zeros((2, len(keys)))
        live = np.arange(len(keys))
        state = np.full(len(keys), space.initial)
        start = behavior * width  # per run its behaviour's row
        t = 0
        while live.size:
            at = mask[state]
            bounded = step_bound is not None and t >= step_bound
            if bounded or t == max_steps:
                hit[live], steps[live], elapsed[live] = at, t, clock
                truncated[live] = ~at & (not bounded)
                break
            cell = start + column[state]
            offset = choice[cell]
            if offset.min() < 0:  # a run at a target keeps -1 and stops
                for c in _distinct(cell[(offset < 0) & ~at]).tolist():
                    b, s = c // width, int(decide[c % width - 1])
                    if resolvers[b] is None:
                        raise ValueError(f"state {s} has several choices "
                                         "but no resolver was supplied")
                    pick = resolvers[b](s)
                    if not 0 <= pick < counts[s]:
                        raise ValueError(f"resolver chose {pick} at state {s}"
                                         f", which has {counts[s]} choices")
                    choice[c] = pick
                offset = choice[cell]
            row = first[state] + offset
            # under a memoryless resolver such a run never moves again
            stop = at | stays[row]
            rate = space.exit_rate[state]
            race = np.flatnonzero((rate > 0) & ~stop)
            if race.size:
                clock[race] -= np.log1p(-_uniforms(keys[race], 2 * t + 1)) \
                    / rate[race]
                if time_bound is not None:
                    stop |= clock > time_bound
            if stop.any():
                done = live[stop]
                hit[done], steps[done] = at[stop], t
                elapsed[done] = clock[stop]
                go = ~stop
                live, keys, row, clock = live[go], keys[go], row[go], clock[go]
                start = start[go]
            entry = np.searchsorted(cum, base[row] + _uniforms(keys, 2 * t),
                                    "right")
            state = target[np.minimum(entry, last[row])]
            t += 1
        yield behavior, hit, steps, elapsed, truncated


def simulate_run(
    space: ExplicitStateSpace,
    resolver: Resolver | None,
    prop: Property,
    seed: int,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunOutcome:
    """Simulate one path, keyed by ``seed`` in [0, 2**64): run ``r`` of
    :func:`estimate` is ``simulate_run(..., run_seed(master_seed, r))``.

    Markovian states sample an Exp(exit_rate) sojourn and a successor by
    rate proportion; immediate states ask the resolver when there are two
    or more choices, then sample the branch.  The outcome is a hit when a
    target state is entered within the property's bound (steps, or minutes
    if time-bounded); an unbounded run cut off at ``max_steps`` is a
    truncated miss.
    """
    (out,) = _simulate(space, [resolver], prop, target_mask(space, prop.target),
                       [(np.zeros(1, int), np.full(1, seed, np.uint64))],
                       max_steps)
    return RunOutcome(*(x[0].item() for x in out[1:]))


def estimate(
    space: ExplicitStateSpace,
    resolver: Resolver | None,
    prop: Property,
    cfg: SmcConfig,
    *,
    constants: dict | None = None,
) -> SmcEstimate:
    """Monte Carlo estimate of a reachability property.

    Run ``r`` is keyed by ``run_seed(master_seed, r)``, so the result
    depends only on ``cfg``, not on how the runs are batched.
    """
    return next(_estimates(space, [resolver], prop, cfg, constants))


def _estimates(space: ExplicitStateSpace, resolvers: Sequence[Resolver | None],
               prop: Property, cfg: SmcConfig, constants: dict | None,
               offset: int = 0) -> Iterator[SmcEstimate]:
    """:func:`estimate` of each resolver in one pass, from the run indices
    ``offset`` to ``offset + n - 1``: run ``offset + r`` of behaviour ``b``
    is flat run ``b * n + r``, at most :data:`MAX_BATCH` a batch."""
    n, m, seed = cfg.n_runs(), len(resolvers), np.uint64(cfg.master_seed)
    runs = (np.divmod(np.arange(lo, min(n * m, lo + MAX_BATCH)), n)
            for lo in range(0, n * m, MAX_BATCH))
    hits, truncated = np.zeros((2, m), dtype=np.int64)
    for b, hit, _, _, cut in _simulate(
            space, resolvers, prop, target_mask(space, prop.target, constants),
            ((b, _splitmix64(seed, (r + offset).astype(np.uint64)))
             for b, r in runs),
            cfg.max_steps):
        hits += np.bincount(b[hit], minlength=m)
        truncated += np.bincount(b[cut], minlength=m)
    for hit, cut in zip(hits.tolist(), truncated.tolist()):
        if cfg.runs is None:
            yield SmcEstimate(hit / n, max(0.0, hit / n - cfg.epsilon), min(
                1.0, (hit + cut) / n + cfg.epsilon), n, cut, "okamoto")
            continue
        low, high = clopper_pearson(hit, n)
        if cut:  # counted as hits at the upper end
            high = clopper_pearson(hit + cut, n)[1]
        yield SmcEstimate(hit / n, low, high, n, cut, "clopper-pearson")


#: Confidence level of the interval of a fixed number of runs.
CONFIDENCE = 0.95


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), for a, b > 0,
    by its continued fraction (modified Lentz) behind a ``math.lgamma``
    prefactor; the fraction converges fast below x = (a+1) / (a+b+2), and
    I_x(a, b) = 1 - I_(1-x)(b, a) covers the rest.  Needs 0 < x < 1."""
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 100_000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for num in (even, odd):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            fraction *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                    + a * math.log(x) + b * math.log1p(-x)) * fraction / a


def _beta_quantile(q: float, a: float, b: float) -> tuple[float, float]:
    """A bracket no wider than 2**-40 around the p with I_p(a, b) = q.

    Bisection that first tries a Newton step (the beta density is the
    derivative), lengthened by a quarter of the final width so that the
    bracket closes from both sides; the step is kept when it lands inside
    the bracket, and the midpoint is taken otherwise.  The first guess is
    the normal approximation.
    """
    width = 2.0 ** -40
    norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    sd = math.sqrt(a * b / (a + b + 1)) / (a + b)
    lo, hi, p = 0.0, 1.0, a / (a + b) + NormalDist().inv_cdf(q) * sd
    while hi - lo > width:
        if not lo < p < hi:
            p = (lo + hi) / 2
        excess = _betainc(a, b, p) - q
        if excess < 0:
            lo = p
        else:
            hi = p
        density = math.exp(norm + (a - 1) * math.log(p)
                           + (b - 1) * math.log1p(-p))
        if density > 0:
            p -= excess / density + math.copysign(width / 4, excess)
    return lo, hi


def clopper_pearson(hits: int, runs: int) -> tuple[float, float]:
    """The Clopper-Pearson interval of a binomial proportion at
    :data:`CONFIDENCE`: the quantiles of Beta(hits, runs-hits+1) and
    Beta(hits+1, runs-hits), each the outer end of its bracket.  Its
    coverage is at least the confidence for every true proportion.  The
    rounding of the incomplete beta function grows with the run count; up
    to 10**6 runs the ends lie within 1e-12 of the exact quantiles."""
    tail = (1 - CONFIDENCE) / 2
    low = 0.0 if hits == 0 else \
        _beta_quantile(tail, hits, runs - hits + 1)[0]
    high = 1.0 if hits == runs else \
        _beta_quantile(1 - tail, hits + 1, runs - hits)[1]
    return low, high


# --------------------------------------------------------------------------
# lightweight scheduler sampling


def sample_scheduler_ids(sampler_seed: int, m: int) -> list[int]:
    """m uniform 32-bit scheduler ids (with replacement)."""
    rng = Random(sampler_seed)
    return [rng.getrandbits(32) for _ in range(m)]


def reachable_decisions(space: ExplicitStateSpace, ids: Iterable[int],
                        mode: str = "global") -> Iterator[dict[int, int]]:
    """Per scheduler id: its choice index at each decision state reachable
    from the initial state under that id's own choices.

    One breadth-first search per id over the closed rows, for up to
    :data:`MAX_BATCH` (id, state) pairs at once: each level's decision
    states are encoded (the whole state in ``global`` mode, the owner's
    observed variables in ``distributed`` mode) and hashed with their ids
    by :func:`lss_choices`, in one call per owner.  Two ids with equal
    tables make identical choices on every path that can occur.  Raises
    ValueError for an id outside [0, 2**32), even one that decides
    nothing, and :class:`NotGoodForDistribution` in ``distributed`` mode
    for a model that is not good for distribution.
    """
    if mode == "distributed":
        violations = check_good_for_distribution(space)
        if violations:
            raise NotGoodForDistribution(violations)
    ids = list(ids)
    for sid in ids:
        if not 0 <= sid < 2 ** 32:
            raise ValueError(f"scheduler id {sid} outside [0, 2**32)")
    n, sp = space.n_states, _closed(space)
    first, counts = sp.choice_ptr[:-1], np.diff(sp.choice_ptr)
    # the variables each decision state's choice reads
    if mode == "global":
        views = [(np.ones(n, dtype=bool), list(range(space.n_variables)))]
    else:
        owner = sp.choice_owner[first]
        views = [(owner == c, list(space.observed_indices(c)))
                 for c in range(len(space.components))]
    per_batch = max(1, MAX_BATCH // n)
    for lo in range(0, len(ids), per_batch):
        batch = ids[lo:lo + per_batch]
        tables: list[dict[int, int]] = [{} for _ in batch]
        # pair i * n + s: state s in the search of the batch's i-th id
        pairs = np.arange(len(batch)) * n + space.initial
        seen = np.zeros(len(batch) * n, dtype=bool)
        seen[pairs] = True
        batch_ids = np.array(batch, dtype=np.int64)
        while pairs.size:
            who, state = np.divmod(pairs, n)
            row = first[state]
            for mine, columns in views:
                decide = np.flatnonzero((counts[state] >= 2) & mine[state])
                if not decide.size:
                    continue
                i, s = who[decide], state[decide]
                picks = lss_choices(
                    batch_ids[i], space.valuations[s][:, columns], counts[s])
                row[decide] += picks
                for i, s, pick in zip(i.tolist(), s.tolist(), picks.tolist()):
                    tables[i][s] = pick
            width = sp.branch_ptr[row + 1] - sp.branch_ptr[row]
            reached = (who * n).repeat(width) \
                + sp.branch_target[_ranges(sp.branch_ptr, row)]
            pairs = _distinct(reached[~seen[reached]])
            seen[pairs] = True
        yield from tables


def lss(
    space: ExplicitStateSpace,
    prop: Property,
    cfg: LssConfig,
    *,
    constants: dict | None = None,
) -> LssResult:
    """Sample m scheduler ids, pick the best estimate, and estimate the
    winner again on fresh runs.

    Ids with equal :func:`reachable_decisions` tables share one estimate,
    and the runs of all distinct tables advance in one lockstep pass.
    ``cfg.direction``, which must be ``prop.direction``, picks the maximum
    estimate or the minimum.  The best of m estimates is a selected value:
    its interval is not a 1-delta interval for that scheduler, and its mean
    can pass the optimum.  So ``best`` is a second estimate of the winning
    behaviour, from the run indices n to 2n-1 under the same master seed,
    which the selection never saw: its interval is a 1-delta interval for
    the winner's value, and that value is at most the true maximum (at
    least the true minimum).  ``table`` keeps the selecting estimates.
    ``distributed`` mode requires the model to be good for distribution.
    """
    if cfg.direction is not prop.direction:
        raise ValueError(f"lss would optimise {cfg.direction.value} for a "
                         f"{prop.direction.value} property")
    ids = sample_scheduler_ids(cfg.sampler_seed, cfg.m)
    behaviors = [tuple(sorted(decisions.items())) for decisions
                 in reachable_decisions(space, ids, cfg.mode)]
    distinct = dict.fromkeys(behaviors)  # in order of first use
    ests = dict(zip(distinct, _estimates(space, [
        dict(b).__getitem__ for b in distinct], prop, cfg.inner, constants)))
    table = [(sid, ests[b]) for sid, b in zip(ids, behaviors)]
    pick = max if cfg.direction is Direction.MAX else min
    won = pick(range(len(table)), key=lambda i: table[i][1].mean)
    (best,) = _estimates(space, [dict(behaviors[won]).__getitem__], prop,
                         cfg.inner, constants, offset=cfg.inner.n_runs())
    return LssResult(best_id=ids[won], best=best, table=tuple(table),
                     mode=cfg.mode, distinct_behaviors=len(ests))
