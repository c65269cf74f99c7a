"""Command-line front end.

Subcommands: ``check`` (exact analysis), ``cdf`` (whole step-bounded
reachability CDF), ``simulate`` (Monte Carlo estimation), ``lss``
(lightweight scheduler sampling) and ``gen`` (case-study generators).

``check``, ``cdf``, ``simulate`` and ``lss`` share one pipeline,
:func:`_run`: read and explore the model; parse the properties and select
them (``--prop-index``, else all for ``check`` and the first otherwise);
resolve every selected target to a state mask, so an ill-typed target
fails before any analysis runs; analyse each property; build one report.
Each command supplies only its analysis, which returns the fields of its
report entry.

Results go to stdout: the report as JSON with ``--json``, otherwise text
rendered from it, one aligned ``key  value`` row per scalar field of the
model and of each property entry (``cdf`` without ``--out`` prints its
``t,probability`` rows instead).  Diagnostics go to stderr.  Exit codes:
0 success, 1 usage, parse and parameter errors, 2 state cap exceeded,
3 solver failure, 4 model not good for distribution.  All commands are
deterministic given their flags; the only varying report fields live
under the top-level ``timing`` key.  Each subcommand imports only the
modules it calls: ``check`` and ``cdf`` load neither :mod:`qmv.smc` nor
:mod:`qmv.casestudies`.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import qmv
from qmv import numeric
from qmv.core import (DEFAULT_MAX_STEPS, NotGoodForDistribution,
                      PropertyKind, decision_states, target_mask)
from qmv.lang import parse_model, parse_properties, parse_property
from qmv.lang.errors import ExplorationLimit, ModelError
from qmv.lang.explore import DEFAULT_STATE_CAP, explore


def _aligned(rows) -> list[str]:
    width = max((len(key) for key, _ in rows), default=0)
    return [f"{key:<{width}}  {value}" for key, value in rows]


def _text(report) -> list[str]:
    """A row for each scalar field of the model and of each property entry
    (floats by ``repr``); then, after a blank line, ``lss --table``'s
    ``id  mean`` rows."""
    rows = list(report["model"].items())
    table = []
    for entry in report["properties"]:
        rows += [(key, value) for key, value in entry.items()
                 if not isinstance(value, (list, dict))]
        table += [(str(row["id"]), row["mean"])
                  for row in entry.get("table", ())]
    return _aligned(rows) + (["", *_aligned(table)] if table else [])


def _csv(values) -> list[str]:
    return [f"{t},{v!r}" for t, v in enumerate(values)]


def _run(args, analyse, *, seeds=None, text=_text) -> int:
    """Load, resolve, analyse and report; return the exit code.

    ``analyse(space, prop)`` gets each selected property with its target
    resolved to a state mask and returns the fields of its report entry;
    a :class:`numeric.SolverError` becomes an ``error`` entry and exit
    code 3, and the other properties still run.  ``text`` renders the
    report for stdout without ``--json``.
    ``timing`` holds every nondeterministic field, so reports with equal
    flags compare equal after dropping it.
    """
    path = Path(args.model)
    model = parse_model(path.read_text())
    t0 = time.perf_counter()
    space = explore(model, state_cap=args.state_cap, name=path.stem)
    timing = {"explore_seconds": time.perf_counter() - t0,
              "property_seconds": []}

    context = {"model_class": model.model_class, "labels": model.label_map()}
    props_path = Path(args.props)
    if props_path.is_file():
        props = parse_properties(props_path.read_text(), **context)
        if not props:
            raise ValueError(f"no properties in {props_path}")
    else:
        props = [parse_property(args.props, **context)]
    if args.prop_index is not None:
        if not 0 <= args.prop_index < len(props):
            raise ValueError(f"--prop-index {args.prop_index} out of range "
                             f"(have {len(props)})")
        props = [props[args.prop_index]]
    elif args.subcommand != "check":
        props = props[:1]
    constants = model.constant_values()
    props = [dataclasses.replace(
        p, target=target_mask(space, p.target, constants)) for p in props]

    entries, code = [], 0
    for prop in props:
        t0 = time.perf_counter()
        try:
            entry = analyse(space, prop)
        except numeric.SolverError as e:
            print(f"error: {prop.text}: {e}", file=sys.stderr)
            entry, code = {"error": str(e)}, 3
        timing["property_seconds"].append(time.perf_counter() - t0)
        entries.append({"property": prop.text, **entry})

    report = {
        "tool": "qmv",
        "version": qmv.__version__,
        "command": list(args.echo),
        "model": {
            "path": str(path),
            "class": space.model_class.value,
            "states": space.n_states,
            "transitions": space.transition_count(),
        },
        "properties": entries,
        "seeds": seeds or {},
        "timing": timing,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in text(report):
            print(line)
    return code


def _smc_config(args):
    from qmv.smc import SmcConfig
    runs = args.runs
    if runs is None and args.eps is None and args.delta is None:
        runs = 10_000
    return SmcConfig(runs=runs, epsilon=args.eps, delta=args.delta,
                     master_seed=args.seed, max_steps=args.max_steps)


def cmd_check(args) -> int:
    cfg = numeric.SolverConfig(epsilon=args.epsilon,
                               time_bound_error=args.time_bound_error)

    def analyse(space, prop):
        result = numeric.check_property(space, prop, cfg)
        entry = {"value": result.value, "iterations": result.iterations,
                 "residual": result.residual}
        if result.info:
            entry["info"] = result.info
        return entry

    return _run(args, analyse)


def cmd_cdf(args) -> int:
    def analyse(space, prop):
        if prop.kind not in (PropertyKind.REACH_PROB,
                             PropertyKind.STEP_BOUNDED_REACH_PROB):
            raise ValueError("cdf needs a reachability property")
        if prop.bound not in (None, args.horizon):
            print(f"warning: {prop.text}: step bound {prop.bound} ignored; "
                  f"the CDF runs to --horizon {args.horizon}",
                  file=sys.stderr)
        result = numeric.step_bounded_cdf(space, prop.target, prop.direction,
                                          args.horizon)
        if args.out:
            Path(args.out).write_text("\n".join(_csv(result.values)) + "\n")
        return {"horizon": args.horizon, "monotone": result.monotone,
                "final": result.final, "cdf": list(result.values)}

    def rows(report):
        return _csv(report["properties"][0].get("cdf", ()))

    return _run(args, analyse, text=_text if args.out else rows)


def cmd_simulate(args) -> int:
    from qmv import smc
    if args.mode == "distributed" and args.scheduler_id is None:
        raise ValueError("--mode distributed needs --scheduler-id")
    cfg = _smc_config(args)

    def analyse(space, prop):
        resolver = None
        if args.scheduler_id is not None:
            (decisions,) = smc.reachable_decisions(
                space, [args.scheduler_id], args.mode)
            resolver = decisions.__getitem__
        elif decision_states(space):
            raise ValueError("the model has nondeterministic choices; pass "
                             "--scheduler-id to fix a scheduler")
        est = smc.estimate(space, resolver, prop, cfg)
        entry = {"mean": est.mean, "ci_low": est.ci_low,
                 "ci_high": est.ci_high, "ci_method": est.ci_method,
                 "runs": est.runs, "truncated_runs": est.truncated}
        if args.scheduler_id is not None:
            entry["scheduler_id"] = args.scheduler_id
        return entry

    return _run(args, analyse, seeds={"master_seed": cfg.master_seed})


def cmd_lss(args) -> int:
    from qmv import smc
    inner = _smc_config(args)

    def analyse(space, prop):
        result = smc.lss(space, prop, smc.LssConfig(
            m=args.schedulers, mode=args.mode, direction=prop.direction,
            inner=inner, sampler_seed=args.seed))
        best = result.best
        entry = {"mode": result.mode, "schedulers": args.schedulers,
                 "distinct_behaviors": result.distinct_behaviors,
                 "best_id": result.best_id, "mean": best.mean,
                 "ci_low": best.ci_low, "ci_high": best.ci_high,
                 "ci_method": best.ci_method,
                 "runs_per_scheduler": best.runs,
                 "selection_mean": dict(result.table)[result.best_id].mean}
        if args.table:
            entry["table"] = [
                {"id": sid, "mean": est.mean, "ci_low": est.ci_low,
                 "ci_high": est.ci_high}
                for sid, est in result.table
            ]
        return entry

    return _run(args, analyse, seeds={"sampler_seed": args.seed,
                                      "master_seed": inner.master_seed})


# --------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    """The parser leaves out every flag the user did not give, so the
    generator's own parameter defaults apply."""
    from qmv import casestudies
    if args.case == "contacts":
        plan = casestudies.parse_contact_plan(Path(args.plan).read_bytes())
        case = casestudies.gen_contact_mdp(plan)
    else:
        params, gen = {
            "bitcoin": (casestudies.BitcoinParams, casestudies.gen_bitcoin),
            "noc": (casestudies.NocParams, casestudies.gen_noc)}[args.case]
        case = gen(params(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(params)
                             if hasattr(args, f.name)}))
    gcm, props = case.write(args.out_dir)
    print(gcm)
    print(props)
    return 0


# --------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", help="model file (.gcm)")
    p.add_argument("props", help="property text, or a .props file")
    p.add_argument("--prop-index", type=int, default=None,
                   help="select one property from a .props file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                   help="abort exploration beyond this many states")


def _add_smc(p: argparse.ArgumentParser) -> None:
    p.add_argument("--runs", type=int, default=None,
                   help="fixed number of simulation runs")
    p.add_argument("--eps", type=float, default=None,
                   help="statistical error bound (with --delta)")
    p.add_argument("--delta", type=float, default=None,
                   help="statistical confidence parameter (with --eps)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
                   help="per-run step cap")
    p.add_argument("--mode", choices=("global", "distributed"),
                   default="global",
                   help="what a scheduler id observes: the whole state, or "
                        "only the deciding component's variables")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, so that it exits 1 like any
    other bad parameter; argparse's own exit code 2 means an exceeded state
    cap here.  Subcommand parsers take the same class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmv",
        description="quantitative verification of DTMCs, MDPs and Markov "
                    "automata")
    parser.add_argument("--version", action="version",
                        version=f"qmv {qmv.__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="exact analysis of each property")
    _add_common(p)
    p.add_argument("--epsilon", type=float,
                   default=numeric.SolverConfig.epsilon,
                   help="value iteration convergence threshold, used only "
                        "for strongly connected components too large for a "
                        "dense solve")
    p.add_argument("--time-bound-error", type=float,
                   default=numeric.SolverConfig.time_bound_error,
                   help="requested bound width of MA time-bounded "
                        "reachability")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cdf", help="reachability CDF over step horizons")
    _add_common(p)
    p.add_argument("--horizon", type=int, required=True,
                   help="largest step bound t")
    p.add_argument("--out", default=None, help="write CSV rows t,probability")
    # no solver setting applies to a CDF; the defaults stay for callers that
    # build a SolverConfig from any parsed command (perfbench/traced.py)
    p.set_defaults(func=cmd_cdf, epsilon=numeric.SolverConfig.epsilon,
                   time_bound_error=numeric.SolverConfig.time_bound_error)

    p = sub.add_parser("simulate", help="Monte Carlo estimation")
    _add_common(p)
    _add_smc(p)
    p.add_argument("--scheduler-id", type=int, default=None,
                   help="resolve nondeterminism by this scheduler id")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lss", help="lightweight scheduler sampling")
    _add_common(p)
    _add_smc(p)
    p.add_argument("--schedulers", type=int, required=True, metavar="M",
                   help="number of scheduler ids to sample")
    p.add_argument("--table", action="store_true",
                   help="include the per-scheduler estimate table")
    p.set_defaults(func=cmd_lss)

    p = sub.add_parser("gen", help="generate a case-study model")
    gsub = p.add_subparsers(dest="case", required=True)

    g = gsub.add_parser("bitcoin", help="blockchain trust attack (MA)",
                        argument_default=argparse.SUPPRESS)
    g.add_argument("--M", type=float, help="attacker's hash-rate fraction")
    g.add_argument("--CD", type=int, help="confirmation depth")
    g.add_argument("--DB", type=int, help="give-up distance (default: CD)")
    g.add_argument("--goal", help="success predicate")
    g.add_argument("--out-dir", default=".")
    g.set_defaults(func=cmd_gen)

    g = gsub.add_parser("contacts", help="contact-plan routing (MDP)")
    g.add_argument("--plan", required=True, help="contact plan JSON file")
    g.add_argument("--out-dir", default=".")
    g.set_defaults(func=cmd_gen)

    g = gsub.add_parser("noc", help="network-on-chip noise (DTMC)",
                        argument_default=argparse.SUPPRESS)
    g.add_argument("--pattern", choices=("every-other", "bursty"))
    g.add_argument("--burst-len", type=int)
    g.add_argument("--burst-period", type=int)
    g.add_argument("--buffer", type=int)
    g.add_argument("--k-res", type=int,
                   help="simultaneous transmitters for a resistive event")
    g.add_argument("--k-ind", type=int,
                   help="transmitter-count change for an inductive event")
    g.add_argument("--events", type=int)
    g.add_argument("--horizon", type=int,
                   help="cycles in the bundled property")
    g.add_argument("--out-dir", default=".")
    g.set_defaults(func=cmd_gen)

    return parser


#: The exit code of each error, first match first: an ExplorationLimit is a
#: ModelError and a NotGoodForDistribution a ValueError.
_EXIT_CODES = {
    ExplorationLimit: 2,
    NotGoodForDistribution: 4,
    numeric.SolverError: 3,
    ModelError: 1,
    ValueError: 1,
    KeyError: 1,
    OSError: 1,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        args.echo = argv
        return args.func(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items()
                    if isinstance(e, error))


if __name__ == "__main__":
    sys.exit(main())
