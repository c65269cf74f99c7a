"""Statistical model checking and lightweight scheduler sampling.

Simulation resolves nondeterminism through a *resolver* (state index →
choice index) and walks the Python-list form of the state space's arrays
(:attr:`qmv.core.ExplicitStateSpace.walk`).  Lightweight scheduler
sampling (LSS) represents a scheduler as a 32-bit integer id: at a decision
state the choice is ``fmix64(FNV-1a-64(id ++ encoded state)) mod k``, so a
single integer determines a complete deterministic memoryless scheduler.
In *global* mode the encoded state covers every variable; in *distributed*
mode only the variables observed by the component that owns the decision,
which restricts sampling to schedulers implementable with local
information.  :func:`reachable_decisions` resolves an id by one forward
walk from the initial state, so only the decision states that the id's
own choices reach are encoded and hashed; ``qmv lss`` and
``qmv simulate --scheduler-id`` (which replays global-mode ids only) both
go through it.

Everything is reproducible: per-run seeds are derived by hashing
``(master_seed, run_index)``, so each run's outcome depends only on its
index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, Iterator, Sequence

from qmv.core import (
    Direction,
    ExplicitStateSpace,
    ModelClass,
    Property,
    PropertyKind,
    scheduler_owner,
    target_mask,
)
from qmv.lang.explore import check_good_for_distribution

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


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
    if projection == "all":
        indices: Sequence[int] = range(space.n_variables)
    else:
        indices = sorted(projection)
    return b"".join(
        int(row[i]).to_bytes(8, "little", signed=True) for i in indices)


def fmix64(h: int) -> int:
    """The 64-bit finalizer of MurmurHash3: every input bit affects every
    output bit."""
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
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


def run_seed(master_seed: int, run_index: int) -> int:
    """Per-run seed: hash of (master seed, run index), both 8 bytes LE."""
    return fnv1a64(master_seed.to_bytes(8, "little", signed=False)
                   + run_index.to_bytes(8, "little", signed=False))


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
    max_steps: int = 100_000

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

    The interval is the (epsilon, delta) guarantee when the run count was
    Okamoto-sized, otherwise a 95% normal approximation.
    """

    mean: float
    ci_low: float
    ci_high: float
    runs: int
    truncated: int = 0

    def __post_init__(self):
        if not (self.ci_low <= self.mean <= self.ci_high):
            raise ValueError("confidence interval does not bracket the mean")

    @property
    def half_width(self) -> float:
        return max(self.ci_high - self.mean, self.mean - self.ci_low)


@dataclass(frozen=True)
class RunOutcome:
    """One simulation run: did it hit the target, and how far did it get."""

    hit: bool
    steps: int
    elapsed: float
    truncated: bool = False


@dataclass(frozen=True)
class LssResult:
    """Best sampled scheduler id with its estimate and the whole table."""

    best_id: int
    best: SmcEstimate
    table: tuple[tuple[int, SmcEstimate], ...]
    mode: str
    distinct_behaviors: int


class NotGoodForDistribution(ValueError):
    """Distributed-mode sampling on a model with shared decisions."""

    def __init__(self, states: list[int]):
        preview = states[:20]
        super().__init__(
            "model is not good for distribution: states "
            f"{preview}{'...' if len(states) > len(preview) else ''} have "
            "choices owned by more than one component")
        self.states = states


# --------------------------------------------------------------------------
# simulation

Resolver = Callable[[int], int]


def _pick(u: float, weights: list[float], targets: list[int],
          lo: int, hi: int) -> int:
    """The target of the first entry in ``lo:hi`` whose running weight
    sum exceeds ``u``."""
    acc = 0.0
    for b in range(lo, hi):
        acc += weights[b]
        if u < acc:
            return targets[b]
    return targets[hi - 1]


def simulate_run(
    space: ExplicitStateSpace,
    resolver: Resolver | None,
    prop: Property,
    seed: int,
    *,
    max_steps: int = SmcConfig.max_steps,
) -> RunOutcome:
    """Simulate one path; all randomness comes from ``seed``.

    Markovian states sample an Exp(exit_rate) sojourn and a successor by
    rate proportion; immediate states ask the resolver when there are two
    or more choices, then sample the branch.  The outcome is a hit when a
    target state is entered within the property's bound (steps for
    step-bounded, minutes for time-bounded, ``max_steps`` as a safety net
    for unbounded properties — exceeding it records a truncated miss).
    """
    if prop.kind is PropertyKind.EXPECTED_TIME:
        raise ValueError("expected-time properties are not simulated; "
                         "use the numeric analysis")
    if prop.kind is PropertyKind.TIME_BOUNDED_REACH_PROB \
            and space.model_class is not ModelClass.MA:
        raise ValueError("time bounds need an MA model")
    if prop.kind is PropertyKind.STEP_BOUNDED_REACH_PROB \
            and space.model_class is ModelClass.MA:
        raise ValueError("step bounds need a DTMC or MDP model")
    mask = target_mask(space, prop.target)
    (choice_ptr, branch_ptr, branch_prob, branch_target, self_loop,
     rate_ptr, rate, rate_target, exit_rate, stuck) = space.walk
    random = Random(seed).random
    state = space.initial
    steps = 0
    elapsed = 0.0
    step_bound = prop.bound if prop.kind is PropertyKind.STEP_BOUNDED_REACH_PROB else None
    time_bound = prop.bound if prop.kind is PropertyKind.TIME_BOUNDED_REACH_PROB else None

    while True:
        if mask[state]:
            return RunOutcome(True, steps, elapsed)
        if step_bound is not None and steps >= step_bound:
            return RunOutcome(False, steps, elapsed)
        if steps >= max_steps:
            return RunOutcome(False, steps, elapsed, truncated=True)
        c = choice_ptr[state]
        k = choice_ptr[state + 1] - c
        if k:
            if k > 1:
                if resolver is None:
                    raise ValueError(
                        f"state {state} has {k} choices but no resolver "
                        "was supplied")
                c += resolver(state)
            if self_loop[c]:
                # pure self-loop under a memoryless resolver: the state can
                # never change again, so this is a definitive miss
                return RunOutcome(False, steps, elapsed)
            state = _pick(random(), branch_prob, branch_target,
                          branch_ptr[c], branch_ptr[c + 1])
        else:
            if stuck[state]:
                # absorbing non-target state: the run can never succeed
                return RunOutcome(False, steps, elapsed)
            total = exit_rate[state]
            elapsed += -math.log(1.0 - random()) / total
            if time_bound is not None and elapsed > time_bound:
                return RunOutcome(False, steps, elapsed)
            state = _pick(random() * total, rate, rate_target,
                          rate_ptr[state], rate_ptr[state + 1])
        steps += 1


def estimate(
    space: ExplicitStateSpace,
    resolver: Resolver | None,
    prop: Property,
    cfg: SmcConfig,
    *,
    constants: dict | None = None,
) -> SmcEstimate:
    """Monte Carlo estimate of a reachability property.

    Run ``r`` is seeded with ``run_seed(master_seed, r)``, so the result
    depends only on ``cfg``.
    """
    n = cfg.n_runs()
    mask = target_mask(space, prop.target, constants)
    resolved = Property(prop.kind, prop.direction, mask, prop.bound,
                        prop.text)
    hits = truncated = 0
    for r in range(n):
        out = simulate_run(space, resolver, resolved,
                           run_seed(cfg.master_seed, r),
                           max_steps=cfg.max_steps)
        hits += out.hit
        truncated += out.truncated

    mean = hits / n
    if cfg.runs is None:
        half = cfg.epsilon
    else:
        half = 1.96 * math.sqrt(mean * (1.0 - mean) / n)
    return SmcEstimate(
        mean=mean,
        ci_low=max(0.0, mean - half),
        ci_high=min(1.0, mean + half),
        runs=n,
        truncated=truncated,
    )


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

    One forward walk per id; a decision state is encoded (the whole state
    in ``global`` mode, the owner's observed variables in ``distributed``
    mode) the first time any walk reaches it and hashed with the id by
    :func:`lss_decide`.  Two ids with equal tables make identical choices
    on every path that can occur.  Raises ValueError for an id outside
    [0, 2**32), whether or not it reaches a decision, and
    :class:`NotGoodForDistribution` in ``distributed`` mode for a model
    that is not good for distribution.
    """
    if mode == "distributed":
        violations = check_good_for_distribution(space)
        if violations:
            raise NotGoodForDistribution(violations)
    (choice_ptr, branch_ptr, _, branch_target, _,
     rate_ptr, _, rate_target, _, _) = space.walk
    observations: dict[int, bytes] = {}
    for sid in ids:
        if not 0 <= sid < 2 ** 32:
            raise ValueError(f"scheduler id {sid} outside [0, 2**32)")
        decisions: dict[int, int] = {}
        seen = {space.initial}
        stack = [space.initial]
        while stack:
            s = stack.pop()
            c = choice_ptr[s]
            k = choice_ptr[s + 1] - c
            if k:
                if k > 1:
                    obs = observations.get(s)
                    if obs is None:
                        obs = observations[s] = encode_state(
                            space, s, "all" if mode == "global" else
                            space.observed_indices(scheduler_owner(space, s)))
                    decisions[s] = lss_decide(sid, obs, k)
                    c += decisions[s]
                succs = branch_target[branch_ptr[c]:branch_ptr[c + 1]]
            else:
                succs = rate_target[rate_ptr[s]:rate_ptr[s + 1]]
            for t in succs:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        yield decisions


def lss(
    space: ExplicitStateSpace,
    prop: Property,
    cfg: LssConfig,
    *,
    constants: dict | None = None,
) -> LssResult:
    """Sample m scheduler ids and keep the best estimate.

    direction=max keeps the maximum estimate (an underapproximation of the
    true maximum, since only m schedulers are tried); min keeps the minimum
    (an overapproximation of the true minimum).  ``distributed`` mode
    requires the model to be good for distribution and hashes only the
    owner's observed variables, ``global`` mode hashes the full state.
    """
    ids = sample_scheduler_ids(cfg.sampler_seed, cfg.m)
    cache: dict[tuple, SmcEstimate] = {}
    table: list[tuple[int, SmcEstimate]] = []
    for sid, decisions in zip(ids, reachable_decisions(space, ids, cfg.mode)):
        behavior = tuple(sorted(decisions.items()))
        est = cache.get(behavior)
        if est is None:
            est = estimate(space, decisions.__getitem__, prop, cfg.inner,
                           constants=constants)
            cache[behavior] = est
        table.append((sid, est))

    pick = max if cfg.direction is Direction.MAX else min
    best_id, best = pick(table, key=lambda row: row[1].mean)
    return LssResult(
        best_id=best_id,
        best=best,
        table=tuple(table),
        mode=cfg.mode,
        distinct_behaviors=len(cache),
    )
