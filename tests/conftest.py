"""Shared test helpers: tiny model sources, direct state-space builders,
a counter-unfolding transform, scheduler freezing and a random layered-MDP
generator."""
from __future__ import annotations

from dataclasses import replace
from random import Random

import numpy as np
import pytest

from qmv.core import (
    ExplicitStateSpace,
    ModelClass,
    SpaceBuilder,
    VariableInfo,
)
from qmv.lang import parse_model
from qmv.lang.explore import explore


def space_of(text: str) -> ExplicitStateSpace:
    """Parse and explore a model given as source text."""
    return explore(parse_model(text))


def model_and_space(text: str):
    model = parse_model(text)
    return model, explore(model)


def direct_space(
    model_class: ModelClass,
    choices: list[list[list[tuple[float, int]]]],
    *,
    markovian: dict[int, list[tuple[float, int]]] | None = None,
    labels: dict[str, list[int]] | None = None,
    owners: dict[int, int] | None = None,
    initial: int = 0,
) -> ExplicitStateSpace:
    """Hand-build a state space; state s carries the single variable s=s.

    ``choices[s]`` is a list of alternatives, each a list of
    (probability, target) branches.  ``owners`` overrides the choice owner
    per state (default 0); ``markovian`` adds rate entries per state.
    """
    n = len(choices)
    markovian = markovian or {}
    builder = SpaceBuilder()
    for s, alts in enumerate(choices):
        owner = (owners or {}).get(s, 0)
        builder.add_state([(None, owner, alt) for alt in alts],
                          markovian.get(s, ()))
    label_masks = {}
    for name, members in (labels or {}).items():
        mask = np.zeros(n, dtype=bool)
        mask[list(members)] = True
        label_masks[name] = mask
    n_components = max(
        [v + 1 for v in (owners or {}).values()] or [1])
    return builder.build(
        model_class,
        (VariableInfo("s", 0, max(n - 1, 1), observers=frozenset(
            range(n_components))),),
        np.arange(n, dtype=np.int64).reshape(n, 1),
        components=tuple(f"m{i}" for i in range(n_components)),
        initial=initial,
        labels=label_masks,
    )


def unfold_with_counter(space: ExplicitStateSpace, t_max: int):
    """Append an explicit step counter to the state.

    Returns ``(unfolded, at)`` where ``at(s, k)`` is the index of original
    state ``s`` with counter value ``k``; the counter saturates by
    self-looping at ``t_max``.  This is the construction that whole-CDF
    computation avoids; tests use it as an independent cross-check.
    """
    if space.model_class is ModelClass.MA:
        raise ValueError("counter unfolding only makes sense per step")
    n, width = space.n_states, t_max + 1

    def at(s: int, k: int) -> int:
        return s * width + k

    builder = SpaceBuilder()
    for s, cs in enumerate(space.choices):
        for k in range(width):
            if k == t_max or not cs:
                builder.add_state([(None, 0, [(1, at(s, k))])])
                continue
            builder.add_state(
                (c.action, c.owner,
                 [(p, at(t, k + 1)) for p, t in c.distribution.branches])
                for c in cs)
    vals = np.empty((n * width, space.n_variables + 1), dtype=np.int64)
    for s in range(n):
        for k in range(width):
            vals[at(s, k), :-1] = space.valuations[s]
            vals[at(s, k), -1] = k
    labels = {
        name: np.repeat(mask, width) for name, mask in space.labels.items()
    }
    unfolded = builder.build(
        space.model_class,
        space.layout + (VariableInfo("unfold_step", 0, t_max),),
        vals,
        components=space.components,
        initial=at(space.initial, 0),
        labels=labels,
    )
    return unfolded, at


def induced_chain(space: ExplicitStateSpace,
                  scheduler: dict[int, int]) -> ExplicitStateSpace:
    """Freeze a scheduler: keep only the chosen choice in every state."""
    has_choice = np.diff(space.choice_ptr) > 0
    states = np.flatnonzero(has_choice)
    keep = np.zeros(len(space.choice_owner), dtype=bool)
    picks = np.array([scheduler[s] for s in states.tolist()], dtype=np.int64)
    keep[space.choice_ptr[states] + picks] = True
    branches = keep[space.branch_choice]
    return replace(
        space,
        choice_ptr=np.concatenate([[0], np.cumsum(has_choice)]),
        choice_owner=space.choice_owner[keep],
        choice_action=space.choice_action[keep],
        branch_ptr=np.concatenate(
            [[0], np.cumsum(np.diff(space.branch_ptr)[keep])]),
        branch_prob=space.branch_prob[branches],
        branch_target=space.branch_target[branches],
    )


def random_layered_mdp(seed: int, *, layers: int = 3, width: int = 3,
                       decisions: int = 3) -> ExplicitStateSpace:
    """A small acyclic MDP: ``layers`` layers feeding a goal/sink pair.

    Exactly ``decisions`` of the internal states offer three choices, the
    rest one; the final layer splits randomly between the absorbing goal
    and sink states.  Always at most 200 states.
    """
    rng = Random(seed)
    n_internal = layers * width
    goal, sink = n_internal, n_internal + 1
    decision_states = set(rng.sample(range(n_internal), k=decisions))
    choices: list[list[list[tuple[float, int]]]] = []
    for layer in range(layers):
        nxt = [goal, sink] if layer == layers - 1 else [
            (layer + 1) * width + j for j in range(width)]
        for slot in range(width):
            n_alts = 3 if layer * width + slot in decision_states else 1
            alts = []
            for _ in range(n_alts):
                targets = rng.sample(nxt, k=min(2, len(nxt)))
                cuts = sorted(rng.randint(1, 7) for _ in targets[:-1])
                weights = []
                prev = 0
                for cut in cuts:
                    weights.append(cut - prev or 1)
                    prev = cut
                weights.append(8 - prev or 1)
                alts.append(list(zip(weights, targets)))
            choices.append(alts)
    choices.append([[(1, goal)]])
    choices.append([[(1, sink)]])
    return direct_space(
        ModelClass.MDP, choices, labels={"goal": [goal]})


@pytest.fixture
def coin_dtmc() -> ExplicitStateSpace:
    """Fair coin: one flip to heads (labelled) or tails, both absorbing."""
    return space_of("""
        dtmc
        module coin
          x : [0..2] init 0;
          [] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);
        endmodule
        label "heads" = x=1;
    """)


@pytest.fixture
def geometric_half() -> ExplicitStateSpace:
    """Retry with success probability 1/2 per step."""
    return space_of("""
        dtmc
        module g
          x : [0..1] init 0;
          [] x=0 -> 0.5:(x'=0) + 0.5:(x'=1);
        endmodule
        label "done" = x=1;
    """)


def geometric(p: float) -> ExplicitStateSpace:
    return space_of(f"""
        dtmc
        module g
          x : [0..1] init 0;
          [] x=0 -> {p!r}:(x'=1) + (1 - {p!r}):(x'=0);
        endmodule
        label "done" = x=1;
    """)


#: An MDP whose initial-state nondeterminism is split between two
#: components; not good for distribution.
INTERLEAVED_MDP = """
mdp
module left
  x : [0..1] init 0;
  [] x=0 -> (x'=1);
endmodule
module right
  y : [0..1] init 0;
  [] y=0 -> (y'=1);
endmodule
label "win" = x=1 & y=1;
"""
