"""Shared model types: explicit state spaces, properties, results.

All analysis modules operate on :class:`ExplicitStateSpace`, which is
produced by the language front end (``qmv.lang``) or built directly in
tests, in both cases through :class:`SpaceBuilder`.  A space is a set of
row-grouped sparse arrays (each state a group of choice rows, each choice
a row of branches, plus a rate list per state); analyses read the arrays.
Probabilities and rates are 64-bit floats; the builder normalises exact
weights exactly.  :func:`validate` is the one structural checker.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

#: Tolerance for "this distribution sums to one".
SUM_TOLERANCE = 1e-9
#: The default per-run step cap of a simulation.
DEFAULT_MAX_STEPS = 100_000


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
    """View of one choice's branches: (probability, target) pairs sorted by
    target."""

    branches: tuple[tuple[float, int], ...]


@dataclass(frozen=True)
class Choice:
    """View of one immediate alternative of a state.

    ``owner`` is the index of the component (process) the decision belongs
    to; for synchronised choices it is the participant that actually had
    more than one enabled command, falling back to the lowest participant.
    """

    action: str | None
    owner: int
    distribution: Distribution


@dataclass(frozen=True)
class MarkovianTransitions:
    """View of a state's exponential race: (rate, target) pairs sorted by
    target, and their sum."""

    entries: tuple[tuple[float, int], ...]
    exit_rate: float
    #: Always False: maximal progress drops the race of a state with
    #: immediate choices when the space is built.
    masked = False


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


_INT_ARRAYS = ("choice_ptr", "choice_owner", "choice_action", "branch_ptr",
               "branch_target", "rate_ptr", "rate_target")
_FLOAT_ARRAYS = ("branch_prob", "rate", "exit_rate")


@dataclass(frozen=True, eq=False)
class ExplicitStateSpace:
    """Explored model: states, immediate choices and Markovian races, stored
    as row-grouped sparse arrays.

    States are indexed 0..n-1 in exploration (BFS) order; ``valuations`` has
    one row per state in layout order, with booleans stored as 0/1.
    ``labels`` maps label names to boolean membership masks.

    State ``s`` is a group of choice rows ``choice_ptr[s]:choice_ptr[s+1]``.
    Choice ``c`` belongs to component ``choice_owner[c]``, carries the
    action ``actions[choice_action[c]]`` and has the branches
    ``branch_ptr[c]:branch_ptr[c+1]`` of ``branch_prob``/``branch_target``,
    sorted by target.  The Markovian race of state ``s`` is
    ``rate_ptr[s]:rate_ptr[s+1]`` of ``rate``/``rate_target``, sorted by
    target, and ``exit_rate[s]`` is its sum (0 without rates).  A state with
    choices has no rates (maximal progress).

    Build spaces with :class:`SpaceBuilder`; :func:`validate` checks the
    structural rules.  The space is frozen and its arrays are read-only;
    :attr:`choices` and :attr:`markovian` are lazy object views of the same
    data, and :attr:`closed` and :attr:`in_branches` the cached views that
    the analyses search.
    """

    model_class: ModelClass
    layout: tuple[VariableInfo, ...]
    valuations: np.ndarray
    components: tuple[str, ...]
    actions: tuple[str | None, ...]
    choice_ptr: np.ndarray
    choice_owner: np.ndarray
    choice_action: np.ndarray
    branch_ptr: np.ndarray
    branch_prob: np.ndarray
    branch_target: np.ndarray
    rate_ptr: np.ndarray
    rate: np.ndarray
    rate_target: np.ndarray
    exit_rate: np.ndarray
    initial: int = 0
    labels: dict[str, np.ndarray] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        for name in ("valuations",) + _INT_ARRAYS + _FLOAT_ARRAYS:
            arr = np.asarray(getattr(self, name), dtype=np.float64
                             if name in _FLOAT_ARRAYS else np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.valuations.ndim != 2 or self.valuations.shape[1] != len(self.layout):
            raise ValueError("valuation matrix does not match layout")

    @property
    def n_states(self) -> int:
        return self.valuations.shape[0]

    @property
    def n_variables(self) -> int:
        return len(self.layout)

    @cached_property
    def choice_state(self) -> np.ndarray:
        """Per choice: the state it belongs to."""
        return np.repeat(np.arange(self.n_states), np.diff(self.choice_ptr))

    @cached_property
    def branch_choice(self) -> np.ndarray:
        """Per branch: the choice it belongs to."""
        return np.repeat(np.arange(len(self.choice_owner)),
                         np.diff(self.branch_ptr))

    @cached_property
    def branch_source(self) -> np.ndarray:
        """Per branch: the state it leaves."""
        return self.choice_state[self.branch_choice]

    @cached_property
    def rate_state(self) -> np.ndarray:
        """Per rate: the state it leaves."""
        return np.repeat(np.arange(self.n_states), np.diff(self.rate_ptr))

    @cached_property
    def closed(self) -> ExplicitStateSpace:
        """This space with one choice row added to every state that has
        none (the space itself where every state has one).

        The added row is the embedded jump distribution (each rate over the
        exit rate) of a Markovian state, and a self-loop of an absorbing
        state, so every state has a row and per-state reductions stay total.
        States that have choices keep their rows, so a row's offset within
        its state is still the choice index there.  The rates stay in place,
        unread.  The solvers of :mod:`qmv.numeric`, the simulator and the
        scheduler search of :mod:`qmv.smc` read these rows.
        """
        counts = np.diff(self.choice_ptr)
        idle = counts == 0
        if not idle.any():
            return self
        absorbing = np.flatnonzero(idle & (np.diff(self.rate_ptr) == 0))
        # merge old and new rows by state, stably; no state has both
        rows = np.argsort(np.concatenate(
            [self.choice_state, np.flatnonzero(idle)]), kind="stable")
        branches = np.argsort(np.concatenate(
            [self.branch_source, self.rate_state, absorbing]), kind="stable")
        row_len = np.concatenate([np.diff(self.branch_ptr),
                                  np.maximum(np.diff(self.rate_ptr)[idle], 1)])
        added = np.zeros(idle.sum(), dtype=np.int64)
        return replace(
            self,
            actions=self.actions + (None,),
            choice_ptr=np.concatenate([[0], np.cumsum(np.maximum(counts, 1))]),
            choice_owner=np.concatenate([self.choice_owner, added])[rows],
            choice_action=np.concatenate(
                [self.choice_action, added + len(self.actions)])[rows],
            branch_ptr=np.concatenate([[0], np.cumsum(row_len[rows])]),
            branch_prob=np.concatenate(
                [self.branch_prob, self.rate / self.exit_rate[self.rate_state],
                 np.ones(len(absorbing))])[branches],
            branch_target=np.concatenate(
                [self.branch_target, self.rate_target, absorbing])[branches])

    @cached_property
    def in_branches(self) -> tuple:
        """The in-branch order of this space's choice rows (see
        :func:`in_branches`); the graph searches of :mod:`qmv.numeric` read
        that of :attr:`closed`."""
        return in_branches(self.branch_target, self.branch_choice,
                           self.choice_state, self.n_states)

    @cached_property
    def choices(self) -> tuple[tuple[Choice, ...], ...]:
        """Per state: its choices as objects (a view)."""
        prob = self.branch_prob.tolist()
        target = self.branch_target.tolist()
        bp = self.branch_ptr.tolist()
        made = [
            Choice(self.actions[a], o, Distribution(tuple(
                zip(prob[bp[c]:bp[c + 1]], target[bp[c]:bp[c + 1]]))))
            for c, (a, o) in enumerate(zip(self.choice_action.tolist(),
                                           self.choice_owner.tolist()))]
        cp = self.choice_ptr.tolist()
        return tuple(tuple(made[cp[s]:cp[s + 1]])
                     for s in range(self.n_states))

    @cached_property
    def markovian(self) -> tuple[MarkovianTransitions | None, ...]:
        """Per state: its race as an object, or None (a view)."""
        rate = self.rate.tolist()
        target = self.rate_target.tolist()
        exit_rate = self.exit_rate.tolist()
        rp = self.rate_ptr.tolist()
        return tuple(
            MarkovianTransitions(tuple(zip(rate[rp[s]:rp[s + 1]],
                                           target[rp[s]:rp[s + 1]])),
                                 exit_rate[s])
            if rp[s + 1] > rp[s] else None
            for s in range(self.n_states))

    def variable_index(self, name: str) -> int:
        for i, v in enumerate(self.layout):
            if v.name == name:
                return i
        raise KeyError(name)

    def state_values(self, state: int) -> dict[str, int | bool]:
        return state_dict(self.layout, self.valuations[state])

    def observed_indices(self, component: int) -> tuple[int, ...]:
        """Indices (layout order) of the variables a component observes."""
        return tuple(
            i for i, v in enumerate(self.layout) if component in v.observers
        )

    def transition_count(self) -> int:
        return len(self.branch_prob) + len(self.rate)


def in_branches(targets: np.ndarray, branch_row: np.ndarray,
                row_state: np.ndarray, n: int) -> tuple:
    """The in-branch order ``(ptr, row, row_state)`` of ``n`` states whose
    branches have the ``targets`` and lie in the rows ``branch_row``: the
    branches into state ``s`` are ``ptr[s]:ptr[s + 1]``, ``row[k]`` is the
    row of branch ``k`` there, and ``row_state[r]`` the state of row ``r``.
    """
    order = np.argsort(targets, kind="stable")
    return (np.searchsorted(targets[order], np.arange(n + 1)),
            branch_row[order], row_state)


def state_dict(layout: Iterable[VariableInfo],
               row: Iterable[int]) -> dict[str, int | bool]:
    """One valuation (layout order, booleans as 0/1) as {name: value}."""
    return {v.name: bool(x) if v.is_bool else int(x)
            for v, x in zip(layout, row)}


class SpaceBuilder:
    """Writes the arrays of an :class:`ExplicitStateSpace`, a batch of states
    at a time.

    Choices arrive with raw weights, and this is the one place that divides
    them by their sum, through :func:`_normalise`: exactly when all are
    ints or Fractions (weights 1 and 9 give exactly 0.1 and 0.9).  A batch
    brings its choices in groups that share their weights, and a group is
    normalised once per duplicate-target pattern.  The numpy work is per
    batch: the groups of one branch count are stacked to find their
    duplicate targets at once, and owners and actions are repeated over
    the group sizes.  Normalised numbers are
    kept per tuple of weights, their types and the pattern, so ``1``,
    ``1.0`` and ``Fraction(1)`` never share an entry.  Duplicate targets of a
    choice or race are merged and entries sorted by target; the exit rate
    is the exactly rounded rate sum.  Maximal progress is applied here: a
    state with choices keeps no rates.  :func:`validate` checks the rates.
    """

    def __init__(self):
        # per array, the chunks written so far; the three pointer arrays
        # hold per-group counts until :meth:`build`
        self._chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in _INT_ARRAYS + _FLOAT_ARRAYS}
        self._actions: dict[str | None, int] = {}
        self._probs: dict[tuple, tuple] = {}

    def add_state(
        self,
        choices: Iterable[tuple[str | None, int, Iterable[tuple[object, int]]]] = (),
        rates: Iterable[tuple[object, int]] = (),
    ) -> None:
        """Append the next state.

        ``choices`` holds (action, owner, [(weight, target), ...]) per
        choice; weights are ints, Fractions or floats.  ``rates`` holds
        (rate, target) pairs.  Raises TypeError for a weight that is not a
        number and ValueError for a non-positive weight or a choice
        without branches.
        """
        groups = []
        for action, owner, weighted in choices:
            weighted = list(weighted)
            groups.append((_ROW0, action, owner, [w for w, _ in weighted],
                           _row([t for _, t in weighted])))
        rates = list(rates)
        self.add_states(1, groups, [(_ROW0, [r for r, _ in rates],
                                     _row([t for _, t in rates]))])

    def add_states(self, count: int, choices: Iterable[tuple] = (),
                   races: Iterable[tuple] = ()) -> None:
        """Append ``count`` states, numbered 0 to ``count - 1`` here.

        ``choices`` holds groups (rows, action, owner, weights, targets):
        each state ``rows[i]`` (increasing) gets one choice with branch
        weights ``weights`` and targets ``targets[i]``.  A weight is a
        number for the whole group or an array of exact numbers, one per
        row; ``owner`` is an int or one per row.  A state's choices come in
        the order of their groups.  ``races`` holds groups (rows, rates,
        targets) of rate entries in the same form.  Raises like
        :meth:`add_state`.
        """
        chunks = self._chunks
        choices = [g for g in choices if len(g[0])]
        rows = [np.asarray(g[0], dtype=np.int64) for g in choices]
        sizes = np.array([len(r) for r in rows], dtype=np.int64)
        crow = np.concatenate(rows) if rows else _NONE
        corder = np.argsort(crow, kind="stable")
        cid = np.empty(len(crow), dtype=np.int64)
        cid[corder] = np.arange(len(crow))
        # actions are numbered in the order of their first choice
        for g in np.argsort(cid[np.cumsum(sizes) - sizes]).tolist():
            self._actions.setdefault(choices[g][1], len(self._actions))
        if choices:
            ent, target, prob = self._branches(choices, sizes, cid)
            order = np.lexsort((target, ent))
            chunks["branch_prob"].append(prob[order])
            chunks["branch_target"].append(target[order])
            chunks["branch_ptr"].append(np.bincount(ent, minlength=len(crow)))
            chunks["choice_owner"].append(
                _per_row([g[2] for g in choices], sizes)[corder])
            chunks["choice_action"].append(np.repeat(np.array(
                [self._actions[g[1]] for g in choices], dtype=np.int64),
                sizes)[corder])
        n_choices = np.bincount(crow, minlength=count)
        chunks["choice_ptr"].append(n_choices)
        self._add_races(count, races, n_choices > 0)

    def _add_races(self, count: int, races, has_choice: np.ndarray) -> None:
        """Merged, sorted rates and the exit rates of :meth:`add_states`."""
        row, target, value = [], [], []
        for rows, rates, targets in races:
            if not len(rows):
                continue
            rows = np.asarray(rows, dtype=np.int64)
            targets = np.asarray(targets, dtype=np.int64).reshape(len(rows), -1)
            for t, rate in zip(targets.T, rates):
                row.append(rows)
                target.append(t)
                value.append(rate.astype(object) if isinstance(rate, np.ndarray)
                             else np.full(len(rows), rate, dtype=object))
        rate = np.zeros(0)
        n_rates = np.zeros(count, dtype=np.int64)
        if row:
            row, target, value = (np.concatenate(x) for x in (row, target, value))
            keep = ~has_choice[row]
            row, target, value = row[keep], target[keep], value[keep]
            order = np.lexsort((target, row))
            row, target, value = row[order], target[order], value[order]
            start = np.flatnonzero(np.diff(row, prepend=-1)
                                   | np.diff(target, prepend=-1))
            row, target = row[start], target[start]
            rate = np.add.reduceat(value, start).astype(np.float64) \
                if len(start) else np.zeros(0)
            n_rates = np.bincount(row, minlength=count)
        exit_rate = np.zeros(count)
        if len(rate):
            first = np.flatnonzero(np.diff(row, prepend=-1))
            # a sum of one or two floats is exactly rounded; longer ones
            # need fsum
            exit_rate[row[first]] = np.add.reduceat(rate, first)
            ends = np.append(first[1:], len(rate))
            for lo, hi in zip(first.tolist(), ends.tolist()):
                if hi - lo > 2:
                    exit_rate[row[lo]] = math.fsum(rate[lo:hi].tolist())
            self._chunks["rate"].append(rate)
            self._chunks["rate_target"].append(target)
        self._chunks["rate_ptr"].append(n_rates)
        self._chunks["exit_rate"].append(exit_rate)

    def _branches(self, choices: list, sizes: np.ndarray, cid: np.ndarray):
        """(choice, target, probability) of every merged branch of the
        groups ``choices`` of ``sizes`` rows each, whose rows are the
        choices ``cid`` in group order.

        The groups of one branch count are stacked, and their duplicate
        targets found at once: a row's pattern labels each branch with the
        first branch of its target.  The weights are normalised once per
        group and pattern."""
        targets = [np.asarray(g[4], dtype=np.int64).reshape(n, -1)
                   for g, n in zip(choices, sizes.tolist())]
        widths = [t.shape[1] for t in targets]
        width_of_row = np.repeat(widths, sizes)
        by_width: dict[int, list[int]] = {}
        for g, b in enumerate(widths):
            by_width.setdefault(b, []).append(g)
        ent, target, prob = [], [], []
        for b, gs in by_width.items():
            T = np.concatenate([targets[g] for g in gs])
            n = len(T)
            label = np.argmax(T[:, :, None] == T[:, None, :], axis=2) \
                if b > 1 else np.zeros((n, b), dtype=np.int64)
            keep = label == np.arange(b)
            group = np.repeat(np.arange(len(gs)), sizes[gs])
            if keep.all():
                patterns, pairs, pair = [tuple(range(b))], range(len(gs)), group
            else:
                distinct, pattern = np.unique(label, axis=0,
                                              return_inverse=True)
                patterns = [tuple(p) for p in distinct.tolist()]
                pairs, pair = np.unique(
                    group * len(patterns) + pattern.reshape(-1),
                    return_inverse=True)
                pairs = pairs.tolist()
            # per pair, each branch's probability (0 where merged away)
            dense = []
            per_row = []  # the pairs whose weights are per-row arrays
            for k, gp in enumerate(pairs):
                g, p = divmod(gp, len(patterns))
                weights = choices[gs[g]][3]
                if any(isinstance(w, np.ndarray) for w in weights):
                    per_row.append((k, g, p))
                    dense.append((0.0,) * b)
                    continue
                key = (tuple(weights), tuple(map(type, weights)), patterns[p])
                found = self._probs.get(key)
                if found is None:
                    found = [0.0] * b
                    for j, q in zip(*_normalise(zip(weights, patterns[p]))):
                        found[j] = q
                    self._probs[key] = found
                dense.append(found)
            P = np.array(dense, dtype=np.float64).reshape(-1, b)[pair]
            starts = (np.cumsum(sizes[gs]) - sizes[gs]).tolist()
            for k, g, p in per_row:
                # the group's rows are contiguous; the pair's are among them
                lo = starts[g]
                local = np.flatnonzero(pair[lo:lo + len(targets[gs[g]])] == k)
                labels, probs = _normalise(zip(
                    [w[local] if isinstance(w, np.ndarray) else w
                     for w in choices[gs[g]][3]], patterns[p]))
                for j, q in zip(labels, probs):
                    P[lo + local, j] = q
            ids = cid[width_of_row == b]
            ent.append(np.broadcast_to(ids[:, None], (n, b))[keep])
            target.append(T[keep])
            prob.append(P[keep])
        return (np.concatenate(ent), np.concatenate(target),
                np.concatenate(prob))

    def build(self, model_class: ModelClass, layout: tuple[VariableInfo, ...],
              valuations: np.ndarray, components: tuple[str, ...],
              **fields) -> ExplicitStateSpace:
        """The finished space; ``fields`` are its ``initial``, ``labels``
        and ``name``.  The builder takes no further states."""
        arrays = {}
        for name, chunks in self._chunks.items():
            arr = np.concatenate(chunks) if chunks else np.zeros(
                0, dtype=np.float64 if name in _FLOAT_ARRAYS else np.int64)
            if name.endswith("_ptr"):
                arr = np.concatenate(([0], np.cumsum(arr)))
            arrays[name] = arr
        return ExplicitStateSpace(model_class, tuple(layout), valuations,
                                  tuple(components), tuple(self._actions),
                                  **arrays, **fields)


_NONE = np.zeros(0, dtype=np.int64)
_ROW0 = np.zeros(1, dtype=np.int64)


def _per_row(values: list, sizes: np.ndarray) -> np.ndarray:
    """One int64 per row of groups of ``sizes`` rows, from one int per
    group or one array of a value per row."""
    scalar = [isinstance(v, (int, np.integer)) for v in values]
    out = np.repeat(np.array([v if s else 0 for v, s in zip(values, scalar)],
                             dtype=np.int64), sizes)
    ends = np.cumsum(sizes)
    for g, s in enumerate(scalar):
        if not s:
            out[ends[g] - sizes[g]:ends[g]] = values[g]
    return out


def _row(targets: list[int]) -> np.ndarray:
    return np.array(targets, dtype=np.int64).reshape(1, -1)


#: float(w / total), exact for ints and Fractions, elementwise on arrays
_RATIO = np.frompyfunc(lambda w, total: float(Fraction(w) / total), 2, 1)


def _normalise(weighted: Iterable[tuple[object, int]]):
    """(sorted targets, probabilities) of positive per-target weights.

    A weight may also be an array of exact weights (ints or Fractions), one
    per row of a batch of choices that share their targets: each row is
    normalised on its own, and the probabilities are arrays too.
    """
    merged: dict[int, object] = {}
    exact = True
    for w, t in weighted:
        if isinstance(w, np.ndarray):
            w = w.astype(object)
            if (w <= 0).any():
                raise ValueError(f"non-positive weight {w[w <= 0][0]}")
        else:
            if isinstance(w, float):
                exact = False
            elif not isinstance(w, (int, Fraction)) or isinstance(w, bool):
                raise TypeError(f"weight {w!r} is not a number")
            if w <= 0:
                raise ValueError(f"non-positive weight {w}")
        merged[t] = merged.get(t, 0) + w
    if not merged:
        raise ValueError("choice without branches")
    targets = sorted(merged)
    if exact:
        total = sum(merged.values())
        probs = [_RATIO(merged[t], total) for t in targets]
        return targets, [p.astype(np.float64) if isinstance(p, np.ndarray)
                         else p for p in probs]
    total = math.fsum(float(w) for w in merged.values())
    return targets, [float(merged[t]) / total for t in targets]


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
    the distinguished "cannot reach" expected-time value.  ``scheduler`` is
    an int64 array with the chosen choice index of each state, -1 at states
    without choices (unbounded analyses only).  ``info`` carries metadata
    such as pinned-state counts, block statistics and the ``lower`` and
    ``upper`` ends of a time-bounded bracket.
    """

    value: float
    iterations: int
    residual: float
    scheduler: np.ndarray | None = None
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
    undeclared names are rejected.  It is then compiled and evaluated on
    all valuation rows in one call.
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
    return target.compile(space.layout, consts)(space.valuations)


def validate(space: ExplicitStateSpace) -> list[Violation]:
    """Check the structural invariants of a state space.

    Returns an empty list iff the space is well-formed for its model class.
    Never mutates its argument and is idempotent.
    """
    out: list[Violation] = []
    n = space.n_states
    n_choices = len(space.choice_owner)

    if not (0 <= space.initial < n):
        out.append(Violation(None, "initial", f"initial state {space.initial} out of range"))
    if not (_is_ptr(space.choice_ptr, n, n_choices)
            and len(space.choice_action) == n_choices
            and _is_ptr(space.branch_ptr, n_choices, len(space.branch_prob))
            and len(space.branch_target) == len(space.branch_prob)
            and _is_ptr(space.rate_ptr, n, len(space.rate))
            and len(space.rate_target) == len(space.rate)
            and len(space.exit_rate) == n):
        out.append(Violation(None, "shape", "array lengths or pointers do not fit together"))
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

    def flag(bad: np.ndarray, states: np.ndarray, rule: str, message: str):
        out.extend(Violation(s, rule, message)
                   for s in np.unique(states[bad]).tolist())

    owner, action = space.choice_owner, space.choice_action
    at = space.choice_state
    flag((owner < 0) | (owner >= len(space.components)), at, "owner",
         "choice owner out of range")
    flag((action < 0) | (action >= len(space.actions)), at, "action",
         "choice action out of range")
    flag(np.diff(space.branch_ptr) == 0, at, "empty_choice",
         "choice without branches")
    total = np.bincount(space.branch_choice, weights=space.branch_prob,
                        minlength=n_choices)
    flag(np.abs(total - 1.0) > SUM_TOLERANCE, at, "distribution_sum",
         "branch probabilities do not sum to 1")

    prob, target = space.branch_prob, space.branch_target
    at = space.branch_source
    flag((target < 0) | (target >= n), at, "target", "branch target out of range")
    flag(~((prob > 0.0) & (prob <= 1.0)), at, "probability",
         "branch probability outside (0, 1]")
    flag(_repeats(space.branch_choice, target), at, "duplicate_target",
         "two branches of a choice share a target")

    rate, target = space.rate, space.rate_target
    at = space.rate_state
    flag((target < 0) | (target >= n), at, "markov_target", "rate target out of range")
    flag(~((rate > 0.0) & np.isfinite(rate)), at, "rate",
         "rate not positive and finite")
    flag(_repeats(at, target), at, "duplicate_rate_target",
         "two rates of a state share a target")
    total = np.bincount(at, weights=rate, minlength=n)
    with np.errstate(invalid="ignore"):  # infinite rates are flagged above
        off = np.abs(total - space.exit_rate) \
            > SUM_TOLERANCE * np.maximum(1.0, total)
    flag(off, np.arange(n), "exit_rate", "exit rate differs from the rate sum")

    counts = np.diff(space.choice_ptr)
    racing = np.diff(space.rate_ptr) > 0
    states = np.arange(n)
    mc = space.model_class
    if mc is ModelClass.DTMC:
        flag(counts != 1, states, "dtmc_choice", "state needs exactly 1 choice")
        flag(racing, states, "dtmc_markov", "DTMC state has markovian transitions")
    elif mc is ModelClass.MDP:
        flag(counts < 1, states, "mdp_choice", "state has no choices")
        flag(racing, states, "mdp_markov", "MDP state has markovian transitions")
    else:
        flag(racing & (counts > 0), states, "maximal_progress",
             "state with immediate choices also has rates")
    return out


def _is_ptr(ptr: np.ndarray, groups: int, items: int) -> bool:
    """``ptr`` splits ``items`` entries into ``groups`` consecutive groups."""
    return (len(ptr) == groups + 1 and ptr[0] == 0 and ptr[-1] == items
            and bool(np.all(np.diff(ptr) >= 0)))


def _repeats(group: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Mask of entries whose key already occurs earlier in their group."""
    order = np.lexsort((key, group))
    same = (group[order][1:] == group[order][:-1]) \
        & (key[order][1:] == key[order][:-1])
    out = np.zeros(len(key), dtype=bool)
    out[order[1:]] = same
    return out


def decision_states(space: ExplicitStateSpace) -> list[int]:
    """States with two or more immediate choices (real decisions)."""
    return np.flatnonzero(np.diff(space.choice_ptr) >= 2).tolist()


class NotGoodForDistribution(ValueError):
    """Distributed-mode sampling on a model with shared decisions."""

    def __init__(self, states: list[int]):
        preview = states[:20]
        super().__init__(
            "model is not good for distribution: states "
            f"{preview}{'...' if len(states) > len(preview) else ''} have "
            "choices owned by more than one component")
        self.states = states


def check_good_for_distribution(space: ExplicitStateSpace) -> list[int]:
    """States whose decision is shared between components.

    Returns every reachable state with two or more immediate choices owned
    by different components.  An empty list means every decision belongs to
    exactly one component, so schedulers can be sampled per component from
    locally observable information.
    """
    busy = np.diff(space.choice_ptr) > 0
    starts, owner = space.choice_ptr[:-1][busy], space.choice_owner
    shared = (np.minimum.reduceat(owner, starts)
              != np.maximum.reduceat(owner, starts))
    return np.flatnonzero(busy)[shared].tolist()


def scheduler_owner(space: ExplicitStateSpace, state: int) -> int:
    """Owner of the decision in ``state`` (unique if good-for-distribution)."""
    lo, hi = space.choice_ptr[state], space.choice_ptr[state + 1]
    owners = sorted(set(space.choice_owner[lo:hi].tolist()))
    if len(owners) != 1:
        raise ValueError(
            f"state {state} has choices owned by several components: {owners}"
        )
    return owners[0]
