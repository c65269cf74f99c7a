"""Explicit-state exploration of symbolic models.

Guards, weights, rates and assignments are compiled once with
:meth:`qmv.lang.ast.Expr.compile` into Python functions of the valuation
tuple (constants inlined), then the reachable state space is built
breadth-first from the initial valuation and written state by state into
the arrays of a :class:`qmv.core.SpaceBuilder`.  Immediate commands become
choice rows; commands sharing an action label across several processes
synchronize CSP-style (all participants move together, branch
probabilities multiply, assignments merge).  Markovian commands pool into
a single exponential race per state and are dropped entirely in states
that also have immediate choices (maximal progress).  Labels are resolved
on the finished space by :func:`qmv.core.target_mask`, like every other
property target.

Everything is deterministic: states are indexed in BFS discovery order and
choices are sorted by (component index, command index, partner indices), so
two explorations of the same model are identical — scheduler sampling
depends on this.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qmv.core import (
    ExplicitStateSpace,
    ModelClass,
    SpaceBuilder,
    VariableInfo,
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
        self.cols: dict[str, int] = {}
        self.names: list[str] = []
        self.los: list[int] = []
        self.his: list[int] = []
        self.is_bool: list[bool] = []
        self.owners: list[int | None] = []
        init_vals: list[int] = []
        for v, owner in decls:
            if v.is_bool:
                lo, hi = 0, 1
            else:
                lo = int(v.lo.constant(self.consts))
                hi = int(v.hi.constant(self.consts))
            init = int(v.init.constant(self.consts))
            self.cols[v.name] = len(self.names)
            self.names.append(v.name)
            self.los.append(lo)
            self.his.append(hi)
            self.is_bool.append(v.is_bool)
            self.owners.append(owner)
            init_vals.append(init)
        self.initial_vals = tuple(init_vals)

        # compiled commands and the action synchronization table
        self.cmds: list[list[_Cmd]] = []
        participants: dict[str, list[int]] = {}
        for pi, p in enumerate(model.processes):
            lst = []
            for ci, cmd in enumerate(p.commands):
                branches = [
                    (self._c(br.weight),
                     [(self.cols[a.var], self._c(a.expr))
                      for a in br.assignments])
                    for br in cmd.branches
                ]
                lst.append(_Cmd(
                    ci, cmd.action, self._c(cmd.guard),
                    self._c(cmd.rate) if cmd.rate is not None else None,
                    branches, cmd.pos[0]))
                if cmd.action is not None:
                    ps = participants.setdefault(cmd.action, [])
                    if pi not in ps:
                        ps.append(pi)
            self.cmds.append(lst)
        self.participants = participants

        self.index: dict[tuple, int] = {}
        self.order: list[tuple] = []

    def _c(self, e: ast.Expr):
        return e.compile(self.cols, self.consts)

    def _state_dict(self, vals: tuple) -> dict:
        return {
            n: (bool(v) if b else int(v))
            for n, b, v in zip(self.names, self.is_bool, vals)
        }

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
            if col in written:
                raise ExplorationError(
                    f"line {line}: conflicting synchronized writes to "
                    f"{self.names[col]!r} on action {action!r} in state "
                    f"{self._state_dict(vals)}")
            written.add(col)
            value = fn(vals)
            if isinstance(value, bool):
                value = int(value)
            if not self.los[col] <= value <= self.his[col]:
                raise ExplorationError(
                    f"line {line}: assignment {self.names[col]} := {value} "
                    f"outside [{self.los[col]}..{self.his[col]}] in state "
                    f"{self._state_dict(vals)}")
            new[col] = value
        return tuple(new)

    def _cmd_branches(self, cmd: _Cmd, vals: tuple):
        """Exact per-command branch probabilities: [(Fraction, updates)]."""
        weighted = []
        for weight_fn, assignments in cmd.branches:
            w = weight_fn(vals)
            if w <= 0:
                raise ExplorationError(
                    f"line {cmd.line}: branch weight {w} is not positive in "
                    f"state {self._state_dict(vals)}")
            weighted.append((Fraction(w), assignments))
        total = sum(w for w, _ in weighted)
        return [(w / total, assignments) for w, assignments in weighted]

    def _expand(self, vals: tuple):
        """Choice candidates (origin-sorted) and markovian entries."""
        enabled: list[list[_Cmd]] = [
            [c for c in lst if c.guard(vals)] for lst in self.cmds]

        cands = []  # (origin, action, owner, [(Fraction prob, succ vals)])
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
                    (p, self._apply(vals, a, cmd.line, cmd.action))
                    for p, a in self._cmd_branches(cmd, vals)]
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
                parts = [self._cmd_branches(c, vals) for c in combo]
                line = combo[0].line
                branches = []
                for pick in itertools.product(*parts):
                    prob = Fraction(1)
                    merged = []
                    for p, assignments in pick:
                        prob *= p
                        merged += assignments
                    branches.append(
                        (prob, self._apply(vals, merged, line, action)))
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
                            f"in state {self._state_dict(vals)}")
                    for p, assignments in self._cmd_branches(cmd, vals):
                        markov.append(
                            (Fraction(rate) * p,
                             self._apply(vals, assignments, cmd.line, None)))
        return cands, markov

    def run(self) -> ExplicitStateSpace:
        model = self.model
        self._intern(self.initial_vals)
        builder = SpaceBuilder()
        frontier = 0
        while frontier < len(self.order):
            state = frontier
            vals = self.order[state]
            frontier += 1
            try:
                cands, markov = self._expand(vals)
            except EvalError as exc:
                raise ExplorationError(
                    f"{exc} in state {self._state_dict(vals)}") from None
            choices = [
                (action, owner, [(p, self._intern(sv)) for p, sv in branches])
                for _, action, owner, branches in cands]
            if model.model_class is ModelClass.DTMC and len(choices) > 1:
                raise ExplorationError(
                    f"dtmc state {self._state_dict(vals)} enables "
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
            n, len(self.names))
        # label resolution copies the valuations into Python rows; drop the
        # BFS bookkeeping first so the copy does not raise peak memory
        self.index.clear()
        self.order.clear()

        layout = tuple(
            VariableInfo(self.names[i], self.los[i], self.his[i],
                         self.is_bool[i], self.owners[i],
                         self._observers(i))
            for i in range(len(self.names))
        )
        space = builder.build(
            model.model_class, layout, valuations,
            components=tuple(p.name for p in model.processes),
            name=self.name)
        space.labels.update(
            (decl.name, target_mask(space, decl.expr, self.consts))
            for decl in model.labels)
        return space

    def _observers(self, col: int) -> frozenset[int]:
        name = self.names[col]
        out = set()
        for pi, p in enumerate(self.model.processes):
            if p.observes is not None:
                if name in p.observes:
                    out.add(pi)
                continue
            # default: own locals plus globals the process reads
            if self.owners[col] == pi:
                out.add(pi)
            elif self.owners[col] is None and name in self._reads(pi):
                out.add(pi)
        return frozenset(out)

    def _reads(self, pi: int) -> set[str]:
        cached = getattr(self, "_reads_cache", None)
        if cached is None:
            cached = {}
            self._reads_cache = cached
        if pi not in cached:
            reads: set[str] = set()
            for cmd in self.model.processes[pi].commands:
                reads.update(cmd.guard.names())
                if cmd.rate is not None:
                    reads.update(cmd.rate.names())
                for br in cmd.branches:
                    reads.update(br.weight.names())
                    for a in br.assignments:
                        reads.update(a.expr.names())
            cached[pi] = reads
        return cached[pi]


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
    non-positive weights or rates, nondeterministic DTMC states).
    """
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
