"""Shared model types: explicit state spaces, properties, results.

All analysis modules operate on :class:`ExplicitStateSpace`, which is produced
by the language front end (``qmv.lang``) or constructed directly in tests.
Probabilities and rates are stored as 64-bit floats; exactness where it
matters (weight normalisation) is handled by the producer.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

#: Tolerance for "this distribution sums to one".
SUM_TOLERANCE = 1e-9


class ModelClass(enum.Enum):
    DTMC = "dtmc"
    MDP = "mdp"
    MA = "ma"


class Direction(enum.Enum):
    MIN = "min"
    MAX = "max"


class PropertyKind(enum.Enum):
    REACH_PROB = "reach_prob"
    STEP_BOUNDED_REACH_PROB = "step_bounded_reach_prob"
    TIME_BOUNDED_REACH_PROB = "time_bounded_reach_prob"
    EXPECTED_TIME = "expected_time"


#: Which property kinds make sense for which model class.
KIND_COMPATIBILITY: dict[PropertyKind, tuple[ModelClass, ...]] = {
    PropertyKind.REACH_PROB: (ModelClass.DTMC, ModelClass.MDP, ModelClass.MA),
    PropertyKind.STEP_BOUNDED_REACH_PROB: (ModelClass.DTMC, ModelClass.MDP),
    PropertyKind.TIME_BOUNDED_REACH_PROB: (ModelClass.MA,),
    PropertyKind.EXPECTED_TIME: (ModelClass.MA,),
}


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over successor state indices.

    Branches are (probability, target) pairs, sorted by target, duplicates
    merged at construction.  Probabilities lie in (0, 1] and sum to one
    within ``SUM_TOLERANCE``.
    """

    branches: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("empty distribution")
        total = 0.0
        seen: set[int] = set()
        for p, t in self.branches:
            if not (0.0 < p <= 1.0):
                raise ValueError(f"branch probability {p} outside (0, 1]")
            if not isinstance(t, int) or t < 0:
                raise ValueError(f"bad branch target {t!r}")
            if t in seen:
                raise ValueError(f"duplicate branch target {t}")
            seen.add(t)
            total += p
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"branch probabilities sum to {total!r}, not 1")

    @classmethod
    def build(cls, weighted: Iterable[tuple[object, int]]) -> "Distribution":
        """Normalise positive weights into a distribution.

        Weights may be ints, Fractions or floats; exact arithmetic is used
        when every weight is exact so that e.g. 0.1 + 0.9 normalises to
        exactly representable probabilities.  Duplicate targets are merged.
        """
        merged: dict[int, object] = {}
        exact = True
        for w, t in weighted:
            if isinstance(w, float):
                exact = False
            elif not isinstance(w, (int, Fraction)) or isinstance(w, bool):
                raise TypeError(f"weight {w!r} is not a number")
            if w <= 0:
                raise ValueError(f"non-positive weight {w}")
            merged[t] = merged.get(t, 0) + w
        if not merged:
            raise ValueError("no branches")
        if exact:
            total = sum(merged.values())
            branches = tuple(
                (float(Fraction(w) / total), t)
                for t, w in sorted(merged.items())
            )
        else:
            total = math.fsum(float(w) for w in merged.values())
            branches = tuple(
                (float(w) / total, t) for t, w in sorted(merged.items())
            )
        return cls(branches)

    def support(self) -> tuple[int, ...]:
        return tuple(t for _, t in self.branches)

    def __len__(self) -> int:
        return len(self.branches)


@dataclass(frozen=True)
class Choice:
    """One immediate (probabilistic) alternative of a state.

    ``owner`` is the index of the component (process) the decision belongs
    to; for synchronised choices it is the participant that actually had
    more than one enabled command, falling back to the lowest participant.
    ``origin`` records (component, command index, partner (component,
    command) pairs) and fixes the deterministic enumeration order.
    """

    action: str | None
    owner: int
    distribution: Distribution
    origin: tuple = ()


@dataclass(frozen=True)
class MarkovianTransitions:
    """Pooled exponential-rate transitions of a state (race semantics).

    ``masked`` is set when the state also has immediate choices; maximal
    progress then makes the Markovian transitions unreachable and every
    analysis ignores them.
    """

    entries: tuple[tuple[float, int], ...]
    exit_rate: float
    masked: bool = False

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty markovian transition set")
        total = 0.0
        seen: set[int] = set()
        for r, t in self.entries:
            if not (r > 0.0) or not math.isfinite(r):
                raise ValueError(f"non-positive rate {r}")
            if t in seen:
                raise ValueError(f"duplicate markovian target {t}")
            seen.add(t)
            total += r
        if abs(total - self.exit_rate) > SUM_TOLERANCE * max(1.0, abs(total)):
            raise ValueError(
                f"exit rate {self.exit_rate} does not match entry sum {total}"
            )

    @classmethod
    def build(
        cls, entries: Iterable[tuple[object, int]], masked: bool = False
    ) -> "MarkovianTransitions":
        merged: dict[int, object] = {}
        for r, t in entries:
            merged[t] = merged.get(t, 0) + r
        pairs = tuple((float(r), t) for t, r in sorted(merged.items()))
        exit_rate = math.fsum(r for r, _ in pairs)
        return cls(pairs, exit_rate, masked)

    def jump_distribution(self) -> Distribution:
        """Embedded successor distribution (rates normalised)."""
        return Distribution.build([(r, t) for r, t in self.entries])


@dataclass(frozen=True)
class VariableInfo:
    """Layout entry: one state variable.

    ``owner`` is the index of the declaring component, or None for globals.
    ``observers`` lists the components that can see this variable (used for
    distributed-information scheduler sampling).
    """

    name: str
    lo: int
    hi: int
    is_bool: bool = False
    owner: int | None = None
    observers: frozenset[int] = frozenset()


@dataclass(eq=False)
class ExplicitStateSpace:
    """Explored model: states, immediate choices, Markovian transitions.

    States are indexed 0..n-1 in exploration (BFS) order; ``valuations`` has
    one row per state in layout order, with booleans stored as 0/1.
    ``labels`` maps label names to boolean membership masks.
    """

    model_class: ModelClass
    layout: tuple[VariableInfo, ...]
    valuations: np.ndarray
    choices: tuple[tuple[Choice, ...], ...]
    markovian: tuple[MarkovianTransitions | None, ...]
    initial: int
    components: tuple[str, ...]
    labels: dict[str, np.ndarray] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        self.valuations = np.asarray(self.valuations, dtype=np.int64)
        if self.valuations.ndim != 2 or self.valuations.shape[1] != len(self.layout):
            raise ValueError("valuation matrix does not match layout")
        self.valuations.setflags(write=False)

    @property
    def n_states(self) -> int:
        return self.valuations.shape[0]

    @property
    def n_variables(self) -> int:
        return len(self.layout)

    def variable_index(self, name: str) -> int:
        for i, v in enumerate(self.layout):
            if v.name == name:
                return i
        raise KeyError(name)

    def state_values(self, state: int) -> dict[str, int | bool]:
        row = self.valuations[state]
        return {
            v.name: (bool(row[i]) if v.is_bool else int(row[i]))
            for i, v in enumerate(self.layout)
        }

    def observed_indices(self, component: int) -> tuple[int, ...]:
        """Indices (layout order) of the variables a component observes."""
        return tuple(
            i for i, v in enumerate(self.layout) if component in v.observers
        )

    def transition_count(self) -> int:
        n = sum(len(c.distribution) for cs in self.choices for c in cs)
        n += sum(len(m.entries) for m in self.markovian if m is not None)
        return n


@dataclass(frozen=True)
class Property:
    """A single query: optimise reachability/time towards ``target``.

    ``target`` is anything :func:`target_mask` resolves: a label name
    (str), a boolean numpy mask, or an expression from the language front
    end.  ``bound`` is a step count (int) for step-bounded queries and a
    time in minutes (float) for time-bounded ones.
    """

    kind: PropertyKind
    direction: Direction
    target: object
    bound: int | float | None = None
    text: str = ""

    def __post_init__(self):
        needs_bound = self.kind in (
            PropertyKind.STEP_BOUNDED_REACH_PROB,
            PropertyKind.TIME_BOUNDED_REACH_PROB,
        )
        if needs_bound and self.bound is None:
            raise ValueError(f"{self.kind.value} property requires a bound")
        if not needs_bound and self.bound is not None:
            raise ValueError(f"{self.kind.value} property takes no bound")

    def compatible_with(self, model_class: ModelClass) -> bool:
        return model_class in KIND_COMPATIBILITY[self.kind]


@dataclass(frozen=True)
class ValueResult:
    """Result of a numerical analysis.

    ``value`` is a probability or an expected time in minutes; +infinity is
    the distinguished "cannot reach" expected-time value.  ``scheduler`` maps
    state index to chosen choice index for every state with at least one
    choice (optimising analyses only).  ``info`` carries analysis metadata
    such as digitization step counts and a-priori error bounds.
    """

    value: float
    iterations: int
    residual: float
    scheduler: dict[int, int] | None = None
    info: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Violation:
    """One failed structural invariant, reported by :func:`validate`."""

    state: int | None
    rule: str
    message: str


def target_mask(space: ExplicitStateSpace, target: object,
                constants: Mapping | None = None) -> np.ndarray:
    """Resolve a property target into a boolean state mask.

    ``target`` is a mask over states, a label name, or an expression from
    the language front end (:class:`qmv.lang.ast.Expr`).  An expression is
    type-checked against the layout's variables and ``constants`` (model
    constants are not part of the state): it must be boolean, and
    undeclared names are rejected.  It is then compiled once and evaluated
    on every valuation row.
    """
    if isinstance(target, np.ndarray):
        mask = np.asarray(target, dtype=bool)
        if mask.shape != (space.n_states,):
            raise ValueError("target mask has wrong shape")
        return mask
    if isinstance(target, str):
        try:
            return np.asarray(space.labels[target], dtype=bool)
        except KeyError:
            raise KeyError(f"unknown label {target!r}") from None
    if not hasattr(target, "compile"):
        raise TypeError(f"cannot interpret target {target!r}")
    consts = dict(constants or {})
    types = {
        name: "bool" if isinstance(v, bool)
        else "int" if isinstance(v, int) else "real"
        for name, v in consts.items()
    }
    types.update(
        (v.name, "bool" if v.is_bool else "int") for v in space.layout)
    kind = target.type(types)
    if kind != "bool":
        raise ValueError(
            f"target {target.pretty()} has type {kind}; it must be boolean")
    cols = {v.name: i for i, v in enumerate(space.layout)}
    fn = target.compile(cols, consts)
    return np.fromiter(map(fn, space.valuations.tolist()), dtype=bool,
                       count=space.n_states)


def validate(space: ExplicitStateSpace) -> list[Violation]:
    """Check the structural invariants of a state space.

    Returns an empty list iff the space is well-formed for its model class.
    Never mutates its argument and is idempotent.
    """
    out: list[Violation] = []
    n = space.n_states

    if not (0 <= space.initial < n):
        out.append(Violation(None, "initial", f"initial state {space.initial} out of range"))
    if len(space.choices) != n or len(space.markovian) != n:
        out.append(Violation(None, "shape", "choices/markovian length differs from state count"))
        return out

    for i, v in enumerate(space.layout):
        col = space.valuations[:, i]
        lo, hi = (0, 1) if v.is_bool else (v.lo, v.hi)
        if col.size and (col.min() < lo or col.max() > hi):
            out.append(
                Violation(None, "variable_bounds",
                          f"variable {v.name} leaves its range [{lo}, {hi}]")
            )
        if v.owner is not None and not (0 <= v.owner < len(space.components)):
            out.append(Violation(None, "variable_owner", f"variable {v.name} has bad owner"))

    for name, mask in space.labels.items():
        if np.asarray(mask).shape != (n,):
            out.append(Violation(None, "label", f"label {name!r} mask has wrong shape"))

    mc = space.model_class
    for s in range(n):
        cs = space.choices[s]
        mk = space.markovian[s]
        for c in cs:
            if not (0 <= c.owner < len(space.components)):
                out.append(Violation(s, "owner", f"choice owner {c.owner} out of range"))
            for p, t in c.distribution.branches:
                if not (0 <= t < n):
                    out.append(Violation(s, "target", f"branch target {t} out of range"))
            total = math.fsum(p for p, _ in c.distribution.branches)
            if abs(total - 1.0) > SUM_TOLERANCE:
                out.append(Violation(s, "distribution_sum", f"probabilities sum to {total!r}"))
        if mk is not None:
            for r, t in mk.entries:
                if not (0 <= t < n):
                    out.append(Violation(s, "markov_target", f"rate target {t} out of range"))
            total = math.fsum(r for r, _ in mk.entries)
            if abs(total - mk.exit_rate) > SUM_TOLERANCE * max(1.0, total):
                out.append(Violation(s, "exit_rate", "exit rate differs from entry sum"))

        if mc is ModelClass.DTMC:
            if len(cs) != 1:
                out.append(Violation(s, "dtmc_choice", f"state has {len(cs)} choices, needs exactly 1"))
            if mk is not None:
                out.append(Violation(s, "dtmc_markov", "DTMC state has markovian transitions"))
        elif mc is ModelClass.MDP:
            if len(cs) < 1:
                out.append(Violation(s, "mdp_choice", "state has no choices"))
            if mk is not None:
                out.append(Violation(s, "mdp_markov", "MDP state has markovian transitions"))
        else:
            if mk is not None and mk.masked != bool(cs):
                out.append(
                    Violation(s, "masking",
                              "markovian masked flag inconsistent with immediate choices")
                )
            if mk is None and not cs:
                # absorbing MA state: fine
                pass
    return out


def decision_states(space: ExplicitStateSpace) -> list[int]:
    """States with two or more immediate choices (real decisions)."""
    return [s for s in range(space.n_states) if len(space.choices[s]) >= 2]


def scheduler_owner(space: ExplicitStateSpace, state: int) -> int:
    """Owner of the decision in ``state`` (unique if good-for-distribution)."""
    owners = {c.owner for c in space.choices[state]}
    if len(owners) != 1:
        raise ValueError(
            f"state {state} has choices owned by several components: {sorted(owners)}"
        )
    return owners.pop()
