"""Explicit-state exploration of symbolic models.

Guards, weights, rates and assignments are compiled once with
:meth:`qmv.lang.ast.Expr.compile` into Python functions of the valuation
tuple (constants inlined), then the reachable state space is built
breadth-first from the initial valuation and written state by state into
the arrays of a :class:`qmv.core.SpaceBuilder`.

A state pays only for the commands it can enable.  Each process indexes
its commands by one key variable, the ``x`` that leads the most guards as
``x = c`` (or ``c = x``) with ``c`` reading constants only, folded once.
A command whose leftmost ``&`` conjunct is that test is tried only in
states where ``x`` equals ``c``; every other command is tried in every
state, and the candidates keep command order.  Guards compile to Python
``and``, which stops at a false first conjunct without evaluating the
rest, so skipping the command changes nothing, errors included.  An
equality further right is never indexed: a conjunct before it may raise.

Immediate commands become choice rows; commands sharing an action label
across several processes synchronize CSP-style (all participants move
together, assignments merge, branch weights multiply).  Choices reach the
builder with raw weights, and only the builder normalises them: the sum of
the products is the product of the sums, so each command's branches are
still normalised on their own.
Markovian commands pool into a single exponential race per state (branch
``i`` of a command with rate ``r`` races at ``r * w_i / sum(w)``) and are
dropped entirely in states that also have immediate choices (maximal
progress).  Labels are resolved on the finished space by
:func:`qmv.core.target_mask`, like every other property target.

Everything is deterministic: states are indexed in BFS discovery order and
choices are sorted by (component index, command index, partner indices), so
two explorations of the same model are identical — scheduler sampling
depends on this.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qmv.core import (
    ExplicitStateSpace,
    ModelClass,
    SpaceBuilder,
    VariableInfo,
    state_dict,
    target_mask,
)
from qmv.lang import ast
from qmv.lang.errors import EvalError, ExplorationError, ExplorationLimit

DEFAULT_STATE_CAP = 10_000_000


@dataclass
class _Cmd:
    """Compiled command: callables over the valuation tuple."""

    index: int
    action: str | None
    guard: object
    rate: object | None
    branches: list  # [(weight_fn, [(column, rhs_fn), ...])]
    line: int


# --------------------------------------------------------------------------
# exploration


class _Explorer:
    def __init__(self, model: ast.SymbolicModel, state_cap: int, name: str):
        self.model = model
        self.state_cap = state_cap
        self.name = name
        self.consts = model.constant_values()

        # variable layout: globals first, then locals in process order
        decls: list[tuple[ast.VarDecl, int | None]] = [
            (v, None) for v in model.globals_]
        for pi, p in enumerate(model.processes):
            decls += [(v, pi) for v in p.variables]
        self.cols = {v.name: i for i, (v, _) in enumerate(decls)}

        # compiled commands, the names each process reads and the action
        # synchronization table
        self.cmds: list[list[_Cmd]] = []
        reads: list[set[str]] = []
        self.participants: dict[str, list[int]] = {}
        for pi, p in enumerate(model.processes):
            names: set[str] = set()
            lst = []
            for ci, cmd in enumerate(p.commands):
                branches = [
                    (self._c(br.weight, names),
                     [(self.cols[a.var], self._c(a.expr, names))
                      for a in br.assignments])
                    for br in cmd.branches
                ]
                lst.append(_Cmd(
                    ci, cmd.action, self._c(cmd.guard, names),
                    self._c(cmd.rate, names) if cmd.rate is not None
                    else None,
                    branches, cmd.pos[0]))
                if cmd.action is not None:
                    ps = self.participants.setdefault(cmd.action, [])
                    if pi not in ps:
                        ps.append(pi)
            self.cmds.append(lst)
            reads.append(names)
        self.guard_index = [self._guard_index(p, lst)
                            for p, lst in zip(model.processes, self.cmds)]

        # a variable is observed by the processes that declare it in their
        # observes list; without one, by its owner and, for a global, by
        # every process that reads it
        self.layout = tuple(
            VariableInfo(
                v.name,
                0 if v.is_bool else int(v.lo.constant(self.consts)),
                1 if v.is_bool else int(v.hi.constant(self.consts)),
                v.is_bool, owner,
                frozenset(
                    pi for pi, p in enumerate(model.processes)
                    if (v.name in p.observes if p.observes is not None
                        else owner == pi
                        or owner is None and v.name in reads[pi])))
            for v, owner in decls)
        self.initial_vals = tuple(
            int(v.init.constant(self.consts)) for v, _ in decls)

        self.index: dict[tuple, int] = {}
        self.order: list[tuple] = []

    def _key_test(self, guard: ast.Expr):
        """(column, value) of the leftmost conjunct of ``guard`` when that
        conjunct is ``x = c`` or ``c = x`` for a variable ``x`` and an
        expression ``c`` of constants only, else None."""
        while isinstance(guard, ast.Binary) and guard.op == "&":
            guard = guard.left
        if not (isinstance(guard, ast.Binary) and guard.op == "="):
            return None
        for var, c in ((guard.left, guard.right), (guard.right, guard.left)):
            if isinstance(var, ast.Name) and var.name in self.cols \
                    and not any(n in self.cols for n in c.names()):
                try:
                    return self.cols[var.name], c.constant(self.consts)
                except EvalError:
                    return None  # left to raise where the guard runs
        return None

    def _guard_index(self, process: ast.ProcessDef, cmds: list[_Cmd]):
        """(key column, {key value: candidates in command order},
        unindexed commands) of one process, as the module docstring
        describes; the key column is None when no guard leads with a test
        of a variable against constants."""
        tests = [self._key_test(cmd.guard) for cmd in process.commands]
        counts = Counter(t[0] for t in tests if t is not None)
        if not counts:
            return None, {}, cmds
        col = max(counts, key=counts.__getitem__)  # a tie goes to the first
        buckets: dict[object, list[_Cmd]] = {}
        rest = []
        for cmd, test in zip(cmds, tests):
            if test is not None and test[0] == col:
                buckets.setdefault(test[1], []).append(cmd)
            else:
                rest.append(cmd)
        return col, {
            value: sorted(bucket + rest, key=lambda c: c.index)
            for value, bucket in buckets.items()}, rest

    def _c(self, e: ast.Expr, reads: set[str]):
        """Compile ``e``, adding the names it reads to ``reads``."""
        reads.update(e.names())
        return e.compile(self.cols, self.consts)

    def _intern(self, vals: tuple) -> int:
        idx = self.index.get(vals)
        if idx is None:
            idx = len(self.order)
            if idx >= self.state_cap:
                raise ExplorationLimit(self.state_cap)
            self.index[vals] = idx
            self.order.append(vals)
        return idx

    def _apply(self, vals: tuple, assignments, line: int,
               action: str | None) -> tuple:
        """Apply merged assignments; all right sides read ``vals``."""
        new = list(vals)
        written: set[int] = set()
        for col, fn in assignments:
            var = self.layout[col]
            if col in written:
                raise ExplorationError(
                    f"line {line}: conflicting synchronized writes to "
                    f"{var.name!r} on action {action!r} in state "
                    f"{state_dict(self.layout, vals)}")
            written.add(col)
            value = fn(vals)
            if isinstance(value, bool):
                value = int(value)
            if not var.lo <= value <= var.hi:
                raise ExplorationError(
                    f"line {line}: assignment {var.name} := {value} "
                    f"outside [{var.lo}..{var.hi}] in state "
                    f"{state_dict(self.layout, vals)}")
            new[col] = value
        return tuple(new)

    def _weighted(self, cmd: _Cmd, vals: tuple):
        """A command's raw branch weights: [(weight, assignments)]."""
        weighted = []
        for weight_fn, assignments in cmd.branches:
            w = weight_fn(vals)
            if w <= 0:
                raise ExplorationError(
                    f"line {cmd.line}: branch weight {w} is not positive in "
                    f"state {state_dict(self.layout, vals)}")
            weighted.append((w, assignments))
        return weighted

    def _expand(self, vals: tuple):
        """Choice candidates (origin-sorted) and markovian entries."""
        enabled: list[list[_Cmd]] = [
            [c for c in (rest if col is None else table.get(vals[col], rest))
             if c.guard(vals)]
            for col, table, rest in self.guard_index]

        cands = []  # (origin, action, owner, [(weight, succ vals)])
        sync_here: set[str] = set()
        for pi, lst in enumerate(enabled):
            for cmd in lst:
                if cmd.rate is not None:
                    continue
                if (cmd.action is not None
                        and len(self.participants[cmd.action]) > 1):
                    sync_here.add(cmd.action)
                    continue
                branches = [
                    (w, self._apply(vals, a, cmd.line, cmd.action))
                    for w, a in self._weighted(cmd, vals)]
                cands.append(((pi, cmd.index), cmd.action, pi, branches))

        for action in sorted(sync_here):
            ps = self.participants[action]
            per_proc = [
                [c for c in enabled[pi] if c.action == action] for pi in ps]
            if not all(per_proc):
                continue  # some participant blocks the synchronization
            deciders = [pi for pi, lst in zip(ps, per_proc) if len(lst) > 1]
            owner = deciders[0] if deciders else ps[0]
            for combo in itertools.product(*per_proc):
                origin = tuple(
                    x for pi, c in zip(ps, combo) for x in (pi, c.index))
                parts = [self._weighted(c, vals) for c in combo]
                line = combo[0].line
                branches = []
                for pick in itertools.product(*parts):
                    weight = 1
                    merged = []
                    for w, assignments in pick:
                        weight *= w
                        merged += assignments
                    branches.append(
                        (weight, self._apply(vals, merged, line, action)))
                cands.append((origin, action, owner, branches))
        cands.sort(key=lambda c: c[0])

        markov = []  # (Fraction rate, succ vals)
        if not cands:
            for pi, lst in enumerate(enabled):
                for cmd in lst:
                    if cmd.rate is None:
                        continue
                    rate = cmd.rate(vals)
                    if rate <= 0:
                        raise ExplorationError(
                            f"line {cmd.line}: rate {rate} is not positive "
                            f"in state {state_dict(self.layout, vals)}")
                    weighted = self._weighted(cmd, vals)
                    total = sum(w for w, _ in weighted)
                    for w, assignments in weighted:
                        markov.append(
                            (Fraction(rate) * w / total,
                             self._apply(vals, assignments, cmd.line, None)))
        return cands, markov

    def run(self) -> ExplicitStateSpace:
        model = self.model
        self._intern(self.initial_vals)
        builder = SpaceBuilder()
        # the loop also walks the states that _intern appends: a BFS queue
        for state, vals in enumerate(self.order):
            try:
                cands, markov = self._expand(vals)
            except EvalError as exc:
                where = state_dict(self.layout, vals)
                raise ExplorationError(f"{exc} in state {where}") from None
            choices = [
                (action, owner, [(p, self._intern(sv)) for p, sv in branches])
                for _, action, owner, branches in cands]
            if model.model_class is ModelClass.DTMC and len(choices) > 1:
                raise ExplorationError(
                    f"dtmc state {state_dict(self.layout, vals)} enables "
                    f"{len(choices)} choices; a dtmc must be "
                    "deterministic")
            if not choices and not markov \
                    and model.model_class is not ModelClass.MA:
                # deadlock: stay put forever
                choices = [(None, 0, [(1, state)])]
            builder.add_state(
                choices, [(r, self._intern(sv)) for r, sv in markov])

        n = len(self.order)
        valuations = np.array(self.order, dtype=np.int64).reshape(
            n, len(self.layout))
        # label resolution copies the valuations into Python rows; drop the
        # BFS bookkeeping first so the copy does not raise peak memory
        self.index.clear()
        self.order.clear()

        space = builder.build(
            model.model_class, self.layout, valuations,
            components=tuple(p.name for p in model.processes),
            name=self.name)
        space.labels.update(
            (decl.name, target_mask(space, decl.expr, self.consts))
            for decl in model.labels)
        return space


def explore(
    model: ast.SymbolicModel,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
    name: str = "",
) -> ExplicitStateSpace:
    """Build the reachable explicit state space of a parsed model.

    Raises :class:`ExplorationLimit` when more than ``state_cap`` states are
    discovered and :class:`ExplorationError` on dynamic modeling errors
    (out-of-bounds assignments, conflicting synchronized writes,
    non-positive weights or rates, nondeterministic DTMC states), and
    :class:`ValueError` when ``state_cap`` is below 1.
    """
    if state_cap < 1:
        raise ValueError(f"state cap must be at least 1, not {state_cap}")
    if not model.processes:
        raise ExplorationError("model has no modules")
    return _Explorer(model, state_cap, name).run()


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
