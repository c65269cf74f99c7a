"""Explicit-state exploration of symbolic models.

The explorer reads the variable layout, the constants' values and the
initial valuation that :func:`qmv.lang.parse_model` resolved.  Guards,
weights, rates and assignments are compiled against one scope (the
layout's columns, with the constants inlined), into the evaluator's code
(:meth:`qmv.lang.ast.Expr.compile`), which the explorer runs as it is:
``get`` gives a constant's value or the values on the rows of a
valuation matrix.  Code is kept per model, keyed by the expression and
the ranges its names have in the scope it is compiled over, so an update
or weight that many commands repeat is compiled once; the ranges are
part of the key because the range proof below reads them.  The
reachable state space is built breadth-first from
the initial valuation, one BFS level at a time: the frontier is an int64
matrix with one row per state, and every command runs once over all the
frontier rows that enable it.  The choices of all levels reach the arrays
of a :class:`qmv.core.SpaceBuilder` in one batch at the end, one group
per command or command combination.

A state pays only for the commands it can enable.  Each process indexes
its commands by one key variable, the ``x`` that leads the most guards as
``x = c`` (or ``c = x``) with ``c`` that folds to a constant.  A command
whose leftmost ``&`` conjunct is that test runs only on the rows where
``x`` equals ``c``; every other command runs on every row, and the
candidates keep command order.  ``&`` runs its right side only on the rows
its left side leaves true, so skipping the command changes nothing, errors
included.  An equality further right is never indexed: a conjunct before
it may raise.

Immediate commands become choice rows; commands sharing an action label
across several processes synchronize CSP-style (all participants move
together, assignments merge, branch weights multiply), over the product of
the participants' enabled commands.  Choices reach the builder with raw
weights, and only the builder normalises them: the sum of the products is
the product of the sums, so each command's branches are still normalised
on their own.  Markovian commands pool into a single exponential race per
state (branch ``i`` of a command with rate ``r`` races at
``r * w_i / sum(w)``) and are dropped entirely in states that also have
immediate choices (maximal progress).  Labels are resolved on the finished
space by :func:`qmv.core.target_mask`, like every other property target.

Everything is deterministic and as if the states were expanded one at a
time: states are numbered in order of first discovery under (parent,
choice, branch), choices are sorted by (component index, command index,
partner indices), and an error names the first state, in that order, that
one-at-a-time expansion would have failed on, with the same message.
Scheduler sampling depends on this.  There is one rule for errors: a
write whose value is not proven in range is checked as it is applied, so
evaluation errors, conflicting synchronized writes and values out of range
raise in assignment order; a level that fails is bisected for its first
failing row, which is then expanded alone on the same path.

A value is proven in range, once per assignment before the search, when
the range of its code lies inside the variable's range.  The code is
compiled over a copy of the scope whose columns the guard's top-level
comparisons of a variable with a constant narrow: ``x < N -> (x'=x+1)``
is never checked.
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
    state_dict,
    target_mask,
)
from qmv.lang import ast
from qmv.lang.ast import _Code, _exact, _Scope
from qmv.lang.errors import EvalError, ExplorationError, ExplorationLimit

DEFAULT_STATE_CAP = 10_000_000


@dataclass
class _Cmd:
    """Compiled command: the code of its guard, rate, weights and
    assignment values."""

    index: int
    action: str | None
    guard: _Code
    rate: _Code | None
    #: [(weight, [(column, value, proven), ...])]: ``proven`` when the
    #: value provably lies in its variable's range wherever the guard holds
    branches: list
    line: int

    def __post_init__(self):
        # the branch weights and race entries when they are positive
        # constants, computed once
        weights = [w.value for w, _ in self.branches]
        self.weights = weights if all(
            w.run is None and w.value > 0 for w, _ in self.branches) else None
        rate = self.rate
        self.races = [Fraction(rate.value) * w / sum(weights)
                      for w in weights] \
            if self.weights is not None and rate is not None \
            and rate.run is None and rate.value > 0 else None


@dataclass
class _Group:
    """Choices (or race entries) of one command or command combination on
    the frontier ``rows`` it enables: branch ``b`` goes to ``succ[b][i]``
    from row ``rows[i]`` with raw weight (or exact rate) ``weights[b]``."""

    rows: np.ndarray
    succ: list[np.ndarray]
    weights: list
    origin: tuple = ()
    action: str | None = None
    owner: object = 0
    race: bool = False


#: the origin of the self-loop that pads a deadlock, a state's only choice
_DEADLOCK = (-1,)

_NONE = np.zeros(0, dtype=np.int64)

#: Fraction(rate) elementwise
_FRACTION = np.frompyfunc(Fraction, 1, 1)


#: each comparison with its sides swapped
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_TRUE = ast.BoolLit(True)
#: the nodes that compile faster than a lookup of their code
_LEAVES = frozenset({ast.IntLit, ast.RealLit, ast.BoolLit, ast.Name})


def _conjuncts(guard: ast.Expr):
    if isinstance(guard, ast.Binary) and guard.op == "&":
        yield from _conjuncts(guard.left)
        yield from _conjuncts(guard.right)
    else:
        yield guard


def _after_leftmost(guard: ast.Expr) -> ast.Expr:
    """``guard`` without the leftmost conjunct of its ``&`` chain."""
    if not (isinstance(guard, ast.Binary) and guard.op == "&"):
        return _TRUE
    if not (isinstance(guard.left, ast.Binary) and guard.left.op == "&"):
        return guard.right
    return ast.Binary("&", _after_leftmost(guard.left), guard.right)


# --------------------------------------------------------------------------
# exploration


class _Explorer:
    def __init__(self, model: ast.SymbolicModel, state_cap: int, name: str):
        self.model = model
        self.state_cap = state_cap
        self.name = name
        self.layout = model.layout
        self.scope = _Scope.of(self.layout, model.consts)
        #: per expression, the names it reads and its compiled code per
        #: ranges of those names
        self.codes: dict[ast.Expr, tuple] = {}

        # compiled commands, their guard index and the action
        # synchronization table
        self.cmds: list[list[_Cmd]] = []
        self.guard_index = []
        self.participants: dict[str, list[int]] = {}
        for pi, p in enumerate(model.processes):
            cmds, index = self._compile(p)
            self.cmds.append(cmds)
            self.guard_index.append(index)
            for cmd in p.commands:
                if cmd.action is not None:
                    ps = self.participants.setdefault(cmd.action, [])
                    if pi not in ps:
                        ps.append(pi)
        self.markovian = any(c.rate is not None for lst in self.cmds for c in lst)

        # exact state keys: mixed-radix int64 keys when the declared ranges
        # fit, else the valuation row's bytes
        sizes = [v.hi - v.lo + 1 for v in self.layout]
        stride = [1] * len(sizes)
        for j in range(len(sizes) - 2, -1, -1):
            stride[j] = stride[j + 1] * sizes[j + 1]
        self.radix = None
        if not sizes or stride[0] * sizes[0] <= 2**63:
            # row @ stride differs from the mixed-radix key by a constant,
            # modulo 2^64, so it is exact too
            self.radix = np.array(stride, dtype=np.int64)
        self.index: dict[object, int] = {}

    def _comparisons(self, guard: ast.Expr) -> list:
        """Per top-level conjunct of ``guard``, in order: (column, op,
        value) when the conjunct is ``x op c`` or ``c op x`` for a variable
        ``x`` and a comparison other than ``!=``, with ``c`` folding to a
        constant, written as ``x op value``; else None."""
        columns = self.scope.columns
        found = []
        for test in _conjuncts(guard):
            found.append(None)
            if not (isinstance(test, ast.Binary) and test.op in _FLIPPED):
                continue
            for var, c, op in ((test.left, test.right, test.op),
                               (test.right, test.left, _FLIPPED[test.op])):
                if isinstance(var, ast.Name) and var.name in columns:
                    code = self._code(c, self.scope)
                    if code.run is None:
                        found[-1] = columns[var.name][0], op, code.value
        return found

    def _narrowed(self, comparisons: list) -> _Scope:
        """The scope with the bounds of each int variable narrowed by a
        guard's ``comparisons`` with an int constant: a command's weights,
        rates and assignments run only where its guard holds."""
        columns = dict(self.scope.columns)
        for j, op, k in filter(None, comparisons):
            var = self.layout[j]
            if isinstance(k, bool) or not isinstance(k, int) or var.is_bool:
                continue
            _, _, lo, hi = columns[var.name]
            if op in ("=", ">=", ">"):
                lo = max(lo, k + (op == ">"))
            if op in ("=", "<=", "<"):
                hi = min(hi, k - (op == "<"))
            if lo > hi:
                return self.scope  # the guard never holds
            columns[var.name] = (j, False, lo, hi)
        if columns == self.scope.columns:
            return self.scope
        return _Scope(columns, self.scope.consts)

    def _code(self, e: ast.Expr, scope: _Scope) -> _Code:
        """``e`` compiled over ``scope``, once per model for each equal
        expression and ranges of the names it reads: the code depends on
        nothing else, and a contact plan repeats its few updates, weights
        and guard tails over many commands."""
        if type(e) in _LEAVES:
            return e._vec(scope)
        found = self.codes.get(e)
        if found is None:
            found = self.codes[e] = tuple(dict.fromkeys(e.names())), {}
        names, codes = found
        columns = scope.columns
        key = tuple([columns.get(n) for n in names])
        code = codes.get(key)
        if code is None:
            code = codes[key] = e._vec(scope)
        return code

    def _assignment(self, a: ast.Assignment, scope: _Scope) -> tuple:
        """(column, value, proven) of ``a`` with its value compiled over
        ``scope``: ``proven`` when the value provably lies in the
        variable's declared range."""
        col, is_bool, lo, hi = self.scope.columns[a.var]
        code = self._code(a.expr, scope)
        return col, code, is_bool or lo <= code.lo and code.hi <= hi

    def _compile(self, process: ast.ProcessDef):
        """The compiled commands of ``process`` and its guard index: (key
        column, {key value: the commands keyed on it}, unindexed commands),
        as the module docstring describes; the key column is None when no
        guard leads with a test of a variable against a constant."""
        comparisons = [self._comparisons(cmd.guard)
                       for cmd in process.commands]
        keys = [(first[0], first[2]) if first and first[1] == "=" else None
                for first, *_ in comparisons]
        counts = Counter(key[0] for key in keys if key is not None)
        # a tie goes to the first
        col = max(counts, key=counts.__getitem__) if counts else None
        cmds: list[_Cmd] = []
        buckets: dict[object, list[_Cmd]] = {}
        rest = []
        for ci, (cmd, tests, key) in enumerate(
                zip(process.commands, comparisons, keys)):
            keyed = key is not None and key[0] == col
            scope = self._narrowed(tests)
            cmds.append(_Cmd(
                ci, cmd.action,
                # the key test holds on every row a keyed command runs on
                self._code(_after_leftmost(cmd.guard) if keyed
                           else cmd.guard, self.scope),
                None if cmd.rate is None else self._code(cmd.rate, scope),
                [(self._code(br.weight, scope),
                  [self._assignment(a, scope) for a in br.assignments])
                 for br in cmd.branches],
                cmd.pos[0]))
            if keyed:
                buckets.setdefault(key[1], []).append(cmds[-1])
            else:
                rest.append(cmds[-1])
        return cmds, (col, buckets, rest)

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        if self.radix is not None:
            return rows @ self.radix
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))) \
            .reshape(len(rows))

    def _where(self, row) -> dict:
        return state_dict(self.layout, row)

    # -- one level -------------------------------------------------------

    def _enabled(self, F: np.ndarray, pi: int) -> list[tuple[_Cmd, np.ndarray]]:
        """The commands of process ``pi`` that some row of ``F`` enables,
        in command order, each with the rows that enable it."""
        col, buckets, rest = self.guard_index[pi]
        cands = [(c, None) for c in rest]  # None: every row
        if col is not None:
            key = F[:, col]
            present = set(key.tolist())
            for value in present:
                bucket = buckets.get(value, ())
                rows = None if len(present) == 1 or not bucket \
                    else (key == value).nonzero()[0]
                cands += [(c, rows) for c in bucket]
            cands.sort(key=lambda t: t[0].index)
        enabled = []
        for cmd, rows in cands:
            if cmd.guard.run is not None:
                mask = cmd.guard.run(F if rows is None else F[rows])
                rows = mask.nonzero()[0] if rows is None else rows[mask]
            elif not cmd.guard.value:
                continue
            elif rows is None:
                rows = np.arange(len(F))
            if rows.size:
                enabled.append((cmd, rows))
        return enabled

    def _weights(self, cmd: _Cmd, sub: np.ndarray) -> list:
        """A command's raw branch weights on the rows ``sub``."""
        if cmd.weights is not None:
            return cmd.weights
        out = []
        for weight, _ in cmd.branches:
            w = weight.get(sub)
            self._positive(w, sub, cmd.line, "branch weight")
            out.append(w)
        return out

    def _positive(self, values, sub: np.ndarray, line: int, what: str):
        """Raise unless every value (one per row of ``sub``, or one
        constant for all) is positive."""
        self._fail_where(values <= 0, values, sub,
                         f"line {line}: {what} {{}} is not positive")

    def _fail_where(self, bad, values, sub: np.ndarray, message: str):
        """Raise ``message``, formatted with the value and followed by the
        state, for the first row of ``sub`` that is ``bad``; ``bad`` and
        ``values`` hold one entry per row, or one for all."""
        rows = np.flatnonzero(bad)
        if rows.size:
            i = rows[0]
            value = values[i] if isinstance(values, np.ndarray) else values
            raise ExplorationError(
                f"{message.format(value)} in state {self._where(sub[i])}")

    def _race(self, cmd: _Cmd, sub: np.ndarray) -> list:
        """A rate command's exact race entries on the rows ``sub``: branch
        ``i`` races at ``rate * w_i / sum(w)``."""
        rate = cmd.rate.get(sub)
        self._positive(rate, sub, cmd.line, "rate")
        weights = [_exact(w) for w in self._weights(cmd, sub)]
        rate = _FRACTION(_exact(rate))
        total = sum(weights)
        return [rate * w / total for w in weights]

    def _apply(self, sub: np.ndarray, assignments, line: int,
               action: str | None) -> np.ndarray:
        """Apply merged assignments to the rows ``sub``; all right sides
        read ``sub``.  Raises at the first assignment, in order, that
        conflicts with an earlier one, does not evaluate, or writes a value
        that is not proven in range and leaves its variable's range."""
        new = sub.copy()
        done: list[int] = []
        for col, value, proven in assignments:
            if col in done:
                raise ExplorationError(
                    f"line {line}: conflicting synchronized writes to "
                    f"{self.layout[col].name!r} on action {action!r} in "
                    f"state {self._where(sub[0])}")
            v = value.get(sub)
            if not proven:
                var = self.layout[col]
                self._fail_where(
                    (v < var.lo) | (v > var.hi), v, sub,
                    f"line {line}: assignment {var.name} := {{}} outside "
                    f"[{var.lo}..{var.hi}]")
            new[:, col] = v
            done.append(col)
        return new

    def _synchronise(self, F: np.ndarray, action: str, enabled,
                     choices: list[_Group]) -> None:
        """The choices of ``action``: one group per combination of
        enabled participant commands that some row enables together."""
        ps = self.participants[action]
        per_proc = [[(c, rows) for c, rows in enabled[pi] if c.action == action]
                    for pi in ps]
        if not all(per_proc):
            return  # some participant blocks the synchronization everywhere
        masks = {}
        owner = np.full(len(F), ps[0])
        for pi, lst in reversed(list(zip(ps, per_proc))):
            count = np.zeros(len(F), dtype=np.int64)
            for c, rows in lst:
                masks[pi, c.index] = np.zeros(len(F), dtype=bool)
                masks[pi, c.index][rows] = True
                count[rows] += 1
            owner[count > 1] = pi  # the first participant that decides
        for combo in itertools.product(*per_proc):
            mask = np.logical_and.reduce(
                [masks[pi, c.index] for pi, (c, _) in zip(ps, combo)])
            rows = mask.nonzero()[0]
            if not rows.size:
                continue
            sub = F[rows]
            cmds = [c for c, _ in combo]
            parts = [self._weights(c, sub) for c in cmds]
            weights, succ = [], []
            for pick in itertools.product(*(range(len(p)) for p in parts)):
                weight = 1
                merged = []
                for c, part, b in zip(cmds, parts, pick):
                    weight = weight * _exact(part[b])
                    merged += c.branches[b][1]
                weights.append(weight)
                succ.append(self._apply(sub, merged, cmds[0].line, action))
            choices.append(_Group(
                rows, succ, weights,
                tuple(x for pi, c in zip(ps, cmds) for x in (pi, c.index)),
                action, owner[rows]))

    def _expand(self, F: np.ndarray):
        """The choice groups, sorted by origin, and the race groups of the
        frontier rows ``F``, then every successor row with the frontier row
        it leaves, in group and branch order.

        Raises :class:`EvalError` or :class:`ExplorationError` when some
        row fails; for a single row, the error that expanding it alone
        raises first.
        """
        enabled = [self._enabled(F, pi) for pi in range(len(self.cmds))]
        choices: list[_Group] = []
        synced: set[str] = set()
        for pi, lst in enumerate(enabled):
            for cmd, rows in lst:
                if cmd.rate is not None:
                    continue
                if (cmd.action is not None
                        and len(self.participants[cmd.action]) > 1):
                    synced.add(cmd.action)
                    continue
                sub = F if len(rows) == len(F) else F[rows]
                weights = self._weights(cmd, sub)
                choices.append(_Group(
                    rows, [self._apply(sub, a, cmd.line, cmd.action)
                           for _, a in cmd.branches],
                    weights, (pi, cmd.index), cmd.action, pi))
        for action in sorted(synced):
            self._synchronise(F, action, enabled, choices)
        choices.sort(key=lambda g: g.origin)

        races: list[_Group] = []
        if self.markovian:
            free = np.ones(len(F), dtype=bool)
            for g in choices:
                free[g.rows] = False
            for pi, lst in enumerate(enabled):
                for cmd, rows in lst:
                    if cmd.rate is None:
                        continue
                    rows = rows[free[rows]]
                    if not rows.size:
                        continue
                    sub = F if len(rows) == len(F) else F[rows]
                    values = cmd.races or self._race(cmd, sub)
                    races.append(_Group(
                        rows, [self._apply(sub, a, cmd.line, None)
                               for _, a in cmd.branches],
                        values, (pi, cmd.index), race=True))

        groups = choices + races
        if not groups:
            return choices, races, _NONE, F[:0]
        rows = np.concatenate([g.rows for g in groups for _ in g.succ])
        succ = np.concatenate([s for g in groups for s in g.succ])
        return choices, races, rows, succ

    def _raise_first_error(self, F: np.ndarray):
        """Raise the error that expanding the rows of ``F`` one at a time
        would raise first: bisect for the first row that fails, admit the
        rows before it (which may hit the state cap first), then expand
        that row alone."""
        lo, hi = 0, len(F) - 1  # F[:hi + 1] fails
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                self._expand(F[:mid + 1])
            except (EvalError, ExplorationError):
                hi = mid
            else:
                lo = mid + 1
        if lo:
            self._admit(F[:lo], self._expand(F[:lo]))
        try:
            self._expand(F[lo:lo + 1])
        except EvalError as exc:
            raise ExplorationError(
                f"{exc} in state {self._where(F[lo])}") from None
        raise AssertionError("a failing row expanded alone")

    def _admit(self, F: np.ndarray, level) -> np.ndarray:
        """Number the successors of the frontier rows ``F`` (states
        ``self.expanded`` on), log the level's choices and races and return
        the next frontier."""
        choices, races, rows, succ = level
        stuck = dtmc = None
        if self.model.model_class is not ModelClass.MA and not (
                len(choices) == 1 and len(choices[0].rows) == len(F)):
            n_choices = np.bincount(
                np.concatenate([g.rows for g in choices] + [_NONE]),
                minlength=len(F))
            stuck = (n_choices == 0).nonzero()[0]
            if self.model.model_class is ModelClass.DTMC \
                    and len(choices) > 1:
                many = (n_choices > 1).nonzero()[0]
                dtmc = int(many[0]) if many.size else None

        # number the successors in (row, group, branch) order
        nxt = F[:0]
        if len(succ):
            order = rows.argsort(kind="stable")
            index = self.index
            get = index.get
            n = len(index)
            ids, fresh = [], []
            for p, k in enumerate(self._keys(succ)[order].tolist()):
                i = get(k)
                if i is None:
                    i = index[k] = len(index)
                    fresh.append(p)
                ids.append(i)
            if len(index) > self.state_cap:
                over = int(rows[order[fresh[self.state_cap - n]]])
                if dtmc is not None and dtmc < over:
                    self._dtmc_error(F, dtmc, n_choices)
                raise ExplorationLimit(self.state_cap)
            nxt = succ[order[fresh]]
            targets = np.empty(len(ids), dtype=np.int64)
            targets[order] = ids
        if dtmc is not None:
            self._dtmc_error(F, dtmc, n_choices)

        lo = 0
        for g in choices + races:
            hi = lo + len(g.rows) * len(g.succ)
            log = self.race_log if g.race else self.choice_log
            log.setdefault(g.origin, []).append((
                self.expanded + g.rows, g.action, g.owner, g.weights,
                targets[lo:hi].reshape(len(g.succ), len(g.rows)).T))
            lo = hi
        if stuck is not None and stuck.size:  # deadlock: stay put forever
            stuck += self.expanded
            self.choice_log.setdefault(_DEADLOCK, []).append(
                (stuck, None, 0, [1], stuck[:, None]))
        self.expanded += len(F)
        return nxt

    def _dtmc_error(self, F, row: int, n_choices):
        raise ExplorationError(
            f"dtmc state {self._where(F[row])} enables "
            f"{n_choices[row]} choices; a dtmc must be deterministic")

    def run(self) -> ExplicitStateSpace:
        model = self.model
        frontier = np.array([model.initial], dtype=np.int64).reshape(
            1, len(self.layout))
        self.index[self._keys(frontier).tolist()[0]] = 0
        self.expanded = 0
        # per origin, the groups of every level
        self.choice_log: dict[tuple, list] = {}
        self.race_log: dict[tuple, list] = {}
        levels = []
        while len(frontier):
            levels.append(frontier)
            try:
                level = self._expand(frontier)
            except (EvalError, ExplorationError):
                self._raise_first_error(frontier)
            frontier = self._admit(frontier, level)
        valuations = np.concatenate(levels)
        self.index.clear()

        builder = SpaceBuilder()
        builder.add_states(
            len(valuations), _joined(self.choice_log),
            [(rows, weights, targets)
             for rows, _, _, weights, targets in _joined(self.race_log)])
        space = builder.build(
            model.model_class, self.layout, valuations,
            components=tuple(p.name for p in model.processes),
            name=self.name)
        space.labels.update(
            (decl.name, target_mask(space, decl.expr, model.consts))
            for decl in model.labels)
        return space


def _joined(log: dict[tuple, list]):
    """A group (rows, action, owner, weights, targets) per origin in origin
    order, each the concatenation of the origin's groups over all levels."""
    for origin in sorted(log):
        parts = log[origin]
        if len(parts) == 1:
            yield parts[0]
            continue
        rows = np.concatenate([p[0] for p in parts])
        owners = [p[2] for p in parts]
        owner = owners[0] if all(isinstance(o, int) for o in owners) \
            else np.concatenate([np.broadcast_to(o, len(p[0]))
                                 for o, p in zip(owners, parts)])
        weights = [
            np.concatenate([p[3][b] for p in parts])
            if isinstance(w, np.ndarray) else w
            for b, w in enumerate(parts[0][3])]
        yield (rows, parts[0][1], owner, weights,
               np.concatenate([p[4] for p in parts]))


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
