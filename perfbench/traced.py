"""The traced pass: each workload command replayed in-process, layer by layer.

The pass parses a command's arguments with qmv's own argument parser, then
calls each layer's public functions in the order ``qmv.cli`` calls them.
Spans are recorded here, around those calls, never inside qmv.  Two
measurements are proxies until qmv records its own spans:
``smc.steps_per_run`` comes from ``simulate_run`` on the first run seeds,
and ``lss.decide_s`` from ``encode_state`` and ``lss_decide`` over every
decision state and sampled id, the hashing that ``lss`` does inside.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from qmv import numeric, smc
from qmv.cli import build_parser
from qmv.core import (Property, PropertyKind, decision_states,
                      scheduler_owner, target_mask)
from qmv.lang import explore, parse_model, parse_properties

#: Run seeds simulated one by one to count steps per run.
STEP_PROBE_RUNS = 200


class Tracer:
    """In-memory spans (name, start, end, parent, trace) and counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.trace = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "trace": self.trace,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)


def replay(tracer: Tracer, argv: list[str]) -> list[dict]:
    """Run one ``qmv`` command's layers in-process; return report-like
    property entries for the workload's check."""
    args = build_parser().parse_args(argv)
    path = Path(args.model)
    with tracer.span("lang.parser"):
        model = parse_model(path.read_text())
    with tracer.span("lang.explore"):
        space = explore(model, state_cap=args.state_cap, name=path.stem)
    tracer.add("explore.states", space.n_states)
    tracer.add("explore.transitions", space.transition_count())
    with tracer.span("lang.parser"):
        props = parse_properties(Path(args.props).read_text(),
                                 model_class=space.model_class)
    if args.prop_index is not None:
        props = [props[args.prop_index]]
    constants = model.constant_values()
    if args.subcommand in ("check", "cdf"):
        cfg = numeric.SolverConfig(epsilon=args.epsilon,
                                   time_bound_error=args.time_bound_error)
        if args.subcommand == "cdf":
            return [_cdf(tracer, space, props[0], cfg, constants,
                         args.horizon)]
        return [_check(tracer, space, p, cfg, constants) for p in props]
    inner = smc.SmcConfig(runs=args.runs, master_seed=args.seed,
                          max_steps=args.max_steps)
    if args.subcommand == "simulate":
        return [_simulate(tracer, space, props[0], inner, constants)]
    return [_lss(tracer, space, props[0], inner, constants, args)]


def _mask(tracer, space, prop, constants):
    with tracer.span("core.target_mask"):
        return target_mask(space, prop.target, constants)


def _check(tracer, space, prop, cfg, constants) -> dict:
    mask = _mask(tracer, space, prop, constants)
    kind = prop.kind
    if kind is PropertyKind.REACH_PROB:
        with tracer.span("numeric.reach_prob"):
            r = numeric.reach_prob(space, mask, prop.direction, cfg)
        tracer.add("numeric.reach_prob_iterations", r.iterations)
        tracer.add("numeric.pinned_states", r.info.get("pinned_zero", 0)
                   + r.info.get("pinned_one", 0))
        return {"value": r.value, "iterations": r.iterations}
    if kind is PropertyKind.STEP_BOUNDED_REACH_PROB:
        with tracer.span("numeric.cdf"):
            cdf = numeric.step_bounded_cdf(space, mask, prop.direction,
                                           prop.bound, cfg)
        return {"value": cdf.final, "iterations": prop.bound}
    if kind is PropertyKind.TIME_BOUNDED_REACH_PROB:
        with tracer.span("numeric.time_bounded"):
            r = numeric.ma_time_bounded(space, mask, prop.direction,
                                        prop.bound, cfg)
        tracer.add("numeric.digitization_steps", r.iterations)
        return {"value": r.value, "iterations": r.iterations}
    with tracer.span("numeric.expected_time"):
        r = numeric.ma_expected_time(space, mask, prop.direction, cfg)
    tracer.add("numeric.expected_time_iterations", r.iterations)
    return {"value": r.value, "iterations": r.iterations}


def _cdf(tracer, space, prop, cfg, constants, horizon) -> dict:
    mask = _mask(tracer, space, prop, constants)
    with tracer.span("numeric.cdf"):
        cdf = numeric.step_bounded_cdf(space, mask, prop.direction, horizon,
                                       cfg)
    return {"cdf": list(cdf.values), "final": cdf.final}


def _estimate(tracer, space, resolver, prop, cfg, constants, **attrs):
    """Time ``smc.estimate`` and probe its steps per run."""
    with tracer.span("smc.estimate", **attrs):
        est = smc.estimate(space, resolver, prop, cfg, constants=constants)
    tracer.add("smc.estimate_runs", est.runs)
    resolved = Property(prop.kind, prop.direction,
                        target_mask(space, prop.target, constants),
                        prop.bound, prop.text)
    with tracer.span("smc.steps_probe", probe=True):
        probe = [smc.simulate_run(space, resolver, resolved,
                                  smc.run_seed(cfg.master_seed, r),
                                  max_steps=cfg.max_steps).steps
                 for r in range(min(est.runs, STEP_PROBE_RUNS))]
    tracer.add("smc.probe_runs", len(probe))
    tracer.add("smc.probe_steps", sum(probe))
    return est


def _simulate(tracer, space, prop, cfg, constants) -> dict:
    est = _estimate(tracer, space, None, prop, cfg, constants)
    tracer.add("smc.runs", est.runs)
    tracer.add("smc.truncated_runs", est.truncated)
    return {"mean": est.mean, "ci_low": est.ci_low, "ci_high": est.ci_high,
            "runs": est.runs, "truncated_runs": est.truncated}


def _lss(tracer, space, prop, inner, constants, args) -> dict:
    cfg = smc.LssConfig(m=args.schedulers, mode=args.mode,
                        direction=prop.direction, inner=inner,
                        sampler_seed=args.seed)
    with tracer.span("lss.lss"):
        res = smc.lss(space, prop, cfg, constants=constants)
    tracer.add("lss.schedulers", cfg.m)
    tracer.add("lss.distinct_behaviors", res.distinct_behaviors)
    tracer.add("smc.runs", res.distinct_behaviors * res.best.runs)
    distinct = {id(est): est for _, est in res.table}
    tracer.add("smc.truncated_runs",
               sum(est.truncated for est in distinct.values()))

    # the hashing lss does: encode each decision state, decide per id
    states = decision_states(space)
    tracer.add("lss.decision_states", len(states))
    ids = smc.sample_scheduler_ids(cfg.sampler_seed, cfg.m)
    with tracer.span("lss.decide", probe=True):
        obs = {s: smc.encode_state(
            space, s, "all" if cfg.mode == "global"
            else space.observed_indices(scheduler_owner(space, s)))
            for s in states}
        decisions = [{s: smc.lss_decide(sid, o, len(space.choices[s]))
                      for s, o in obs.items()} for sid in ids]
    best = decisions[ids.index(res.best_id)]
    # one more estimate of the best scheduler: the cost per behaviour
    _estimate(tracer, space, best.__getitem__, prop, inner, constants,
              probe=True)
    return {"mean": res.best.mean, "ci_low": res.best.ci_low,
            "ci_high": res.best.ci_high,
            "distinct_behaviors": res.distinct_behaviors,
            "runs_per_scheduler": res.best.runs, "best_id": res.best_id}
