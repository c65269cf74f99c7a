"""Command-line front end.

Subcommands: ``check`` (exact analysis), ``cdf`` (whole step-bounded
reachability CDF), ``simulate`` (Monte Carlo estimation), ``lss``
(lightweight scheduler sampling) and ``gen`` (case-study generators).

Results go to stdout (aligned text, or JSON with ``--json``); diagnostics
go to stderr.  Exit codes: 0 success, 1 parse/parameter errors, 2 state
cap exceeded, 3 solver failure, 4 model not good for distribution.
All commands are deterministic given their flags; the only varying report
fields live under the top-level ``timing`` key.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import qmv
from qmv import casestudies, numeric, smc
from qmv.core import Property, PropertyKind, decision_states, target_mask
from qmv.lang import parse_model, parse_properties, parse_property
from qmv.lang.errors import (
    EvalError,
    ExplorationError,
    ExplorationLimit,
    ModelError,
    ModelSyntaxError,
)
from qmv.lang.explore import DEFAULT_STATE_CAP, explore


def _load_model(args):
    path = Path(args.model)
    try:
        text = path.read_text()
    except OSError as e:
        raise ValueError(f"cannot read model: {e}") from None
    model = parse_model(text)
    t0 = time.perf_counter()
    space = explore(model, state_cap=args.state_cap, name=path.stem)
    dt = time.perf_counter() - t0
    stats = {
        "path": str(path),
        "class": space.model_class.value,
        "states": space.n_states,
        "transitions": space.transition_count(),
    }
    return model, space, stats, dt


def _load_properties(args, model) -> list[Property]:
    """The positional property argument: inline text, or a file of one
    property per line; ``--prop-index`` selects one (default: all for
    check, the first otherwise).  Label names resolve against the model's
    labels, bare or quoted."""
    spec = args.props
    path = Path(spec)
    context = {"model_class": model.model_class, "labels": model.label_map()}
    if path.is_file():
        props = parse_properties(path.read_text(), **context)
        if not props:
            raise ValueError(f"no properties in {path}")
    else:
        props = [parse_property(spec, **context)]
    index = getattr(args, "prop_index", None)
    if index is not None:
        if not 0 <= index < len(props):
            raise ValueError(
                f"--prop-index {index} out of range (have {len(props)})")
        props = [props[index]]
    return props


def _solver_config(args) -> numeric.SolverConfig:
    return numeric.SolverConfig(
        epsilon=args.epsilon,
        time_bound_error=args.time_bound_error,
    )


def _report(args, stats, props_out, *, seeds=None, timing=None) -> dict:
    """Machine-readable record of one command invocation.

    ``timing`` holds every nondeterministic field, so reports with equal
    flags compare equal after dropping it.
    """
    return {
        "tool": "qmv",
        "version": qmv.__version__,
        "command": list(args.echo),
        "model": stats,
        "properties": props_out,
        "seeds": seeds or {},
        "timing": timing or {},
    }


def _emit(args, report: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        width = max((len(k) for k, _ in (ln for ln in lines if isinstance(ln, tuple))), default=0)
        for ln in lines:
            if isinstance(ln, tuple):
                print(f"{ln[0]:<{width}}  {ln[1]}")
            else:
                print(ln)


def _model_lines(stats) -> list:
    return [
        ("model", f"{stats['path']} ({stats['class']})"),
        ("states", stats["states"]),
        ("transitions", stats["transitions"]),
    ]


# --------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    model, space, stats, explore_dt = _load_model(args)
    props = _load_properties(args, model)
    cfg = _solver_config(args)
    constants = model.constant_values()
    out, lines, times = [], _model_lines(stats), []
    failed = False
    for prop in props:
        t0 = time.perf_counter()
        try:
            result = numeric.check_property(space, prop, cfg,
                                            constants=constants)
        except numeric.SolverError as e:
            print(f"error: {prop.text}: {e}", file=sys.stderr)
            failed = True
            out.append({"property": prop.text, "error": str(e)})
            lines += [("property", prop.text), ("error", str(e))]
            continue
        finally:
            times.append(time.perf_counter() - t0)
        entry = {
            "property": prop.text,
            "value": result.value,
            "iterations": result.iterations,
            "residual": result.residual,
        }
        if result.info:
            entry["info"] = result.info
        out.append(entry)
        lines += [("property", prop.text), ("value", repr(result.value)),
                  ("iterations", result.iterations)]
    report = _report(args, stats, out, timing={
        "explore_seconds": explore_dt, "property_seconds": times})
    _emit(args, report, lines)
    return 3 if failed else 0


# --------------------------------------------------------------------------
# cdf


def cmd_cdf(args) -> int:
    model, space, stats, explore_dt = _load_model(args)
    prop = _load_properties(args, model)[0]
    if prop.kind not in (PropertyKind.REACH_PROB,
                         PropertyKind.STEP_BOUNDED_REACH_PROB):
        raise ValueError("cdf needs a reachability property")
    cfg = _solver_config(args)
    mask = target_mask(space, prop.target, model.constant_values())
    t0 = time.perf_counter()
    result = numeric.step_bounded_cdf(space, mask, prop.direction,
                                      args.horizon, cfg)
    dt = time.perf_counter() - t0
    rows = [f"{t},{v!r}" for t, v in enumerate(result.values)]
    if args.out:
        Path(args.out).write_text("\n".join(rows) + "\n")
    entry = {
        "property": prop.text,
        "horizon": args.horizon,
        "monotone": result.monotone,
        "final": result.final,
        "cdf": list(result.values),
    }
    report = _report(args, stats, [entry], timing={
        "explore_seconds": explore_dt, "property_seconds": [dt]})
    if args.json or args.out:
        _emit(args, report, _model_lines(stats) + [
            ("property", prop.text), ("horizon", args.horizon),
            ("final", repr(result.final)), ("csv", args.out)])
    else:
        for row in rows:
            print(row)
    return 0


# --------------------------------------------------------------------------
# simulate


def _smc_config(args) -> smc.SmcConfig:
    runs = args.runs
    if runs is None and args.eps is None and args.delta is None:
        runs = 10_000
    return smc.SmcConfig(runs=runs, epsilon=args.eps, delta=args.delta,
                         master_seed=args.seed, max_steps=args.max_steps)


def cmd_simulate(args) -> int:
    model, space, stats, explore_dt = _load_model(args)
    prop = _load_properties(args, model)[0]
    cfg = _smc_config(args)
    constants = model.constant_values()
    resolver = None
    if args.scheduler_id is not None:
        (decisions,) = smc.reachable_decisions(space, [args.scheduler_id])
        resolver = decisions.__getitem__
    elif decision_states(space):
        raise ValueError("the model has nondeterministic choices; pass "
                         "--scheduler-id to fix a scheduler")
    t0 = time.perf_counter()
    est = smc.estimate(space, resolver, prop, cfg, constants=constants)
    dt = time.perf_counter() - t0
    entry = {
        "property": prop.text,
        "mean": est.mean,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "runs": est.runs,
        "truncated_runs": est.truncated,
    }
    if args.scheduler_id is not None:
        entry["scheduler_id"] = args.scheduler_id
    report = _report(args, stats, [entry],
                     seeds={"master_seed": cfg.master_seed},
                     timing={"explore_seconds": explore_dt,
                             "property_seconds": [dt]})
    _emit(args, report, _model_lines(stats) + [
        ("property", prop.text), ("mean", repr(est.mean)),
        ("ci", f"[{est.ci_low!r}, {est.ci_high!r}]"),
        ("runs", est.runs), ("truncated", est.truncated)])
    return 0


# --------------------------------------------------------------------------
# lss


def cmd_lss(args) -> int:
    model, space, stats, explore_dt = _load_model(args)
    prop = _load_properties(args, model)[0]
    cfg = smc.LssConfig(
        m=args.schedulers,
        mode=args.mode,
        direction=prop.direction,
        inner=_smc_config(args),
        sampler_seed=args.seed,
    )
    t0 = time.perf_counter()
    result = smc.lss(space, prop, cfg, constants=model.constant_values())
    dt = time.perf_counter() - t0
    entry = {
        "property": prop.text,
        "mode": result.mode,
        "schedulers": args.schedulers,
        "distinct_behaviors": result.distinct_behaviors,
        "best_id": result.best_id,
        "mean": result.best.mean,
        "ci_low": result.best.ci_low,
        "ci_high": result.best.ci_high,
        "runs_per_scheduler": result.best.runs,
    }
    if args.table:
        entry["table"] = [
            {"id": sid, "mean": est.mean, "ci_low": est.ci_low,
             "ci_high": est.ci_high}
            for sid, est in result.table
        ]
    report = _report(args, stats, [entry],
                     seeds={"sampler_seed": args.seed,
                            "master_seed": cfg.inner.master_seed},
                     timing={"explore_seconds": explore_dt,
                             "property_seconds": [dt]})
    lines = _model_lines(stats) + [
        ("property", prop.text), ("mode", result.mode),
        ("schedulers", args.schedulers),
        ("distinct", result.distinct_behaviors),
        ("best id", result.best_id), ("mean", repr(result.best.mean)),
        ("ci", f"[{result.best.ci_low!r}, {result.best.ci_high!r}]")]
    if args.table:
        lines.append("")
        lines += [(str(sid), repr(est.mean)) for sid, est in result.table]
    _emit(args, report, lines)
    return 0


# --------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    if args.case == "bitcoin":
        params = casestudies.BitcoinParams(
            M=args.M, CD=args.CD, DB=args.DB,
            **({"goal": args.goal} if args.goal else {}))
        case = casestudies.gen_bitcoin(params)
    elif args.case == "contacts":
        plan = casestudies.parse_contact_plan(Path(args.plan).read_bytes())
        case = casestudies.gen_contact_mdp(plan)
    else:
        params = casestudies.NocParams(
            pattern=args.pattern, burst_len=args.burst_len,
            burst_period=args.burst_period, buffer=args.buffer,
            k_res=args.k_res, k_ind=args.k_ind, events=args.events,
            horizon=args.horizon)
        case = casestudies.gen_noc(params)
    gcm, props = case.write(args.out_dir)
    print(gcm)
    print(props)
    return 0


# --------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, *, props=True) -> None:
    p.add_argument("model", help="model file (.gcm)")
    if props:
        p.add_argument("props", help="property text, or a .props file")
        p.add_argument("--prop-index", type=int, default=None,
                       help="select one property from a .props file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                   help="abort exploration beyond this many states")


def _add_solver(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float,
                   default=numeric.SolverConfig.epsilon,
                   help="value iteration convergence threshold")
    p.add_argument("--time-bound-error", type=float,
                   default=numeric.SolverConfig.time_bound_error,
                   help="a-priori digitization error for time bounds")


def _add_smc(p: argparse.ArgumentParser) -> None:
    p.add_argument("--runs", type=int, default=None,
                   help="fixed number of simulation runs")
    p.add_argument("--eps", type=float, default=None,
                   help="statistical error bound (with --delta)")
    p.add_argument("--delta", type=float, default=None,
                   help="statistical confidence parameter (with --eps)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--max-steps", type=int, default=smc.SmcConfig.max_steps,
                   help="per-run step cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmv",
        description="quantitative verification of DTMCs, MDPs and Markov "
                    "automata")
    parser.add_argument("--version", action="version",
                        version=f"qmv {qmv.__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="exact analysis of each property")
    _add_common(p)
    _add_solver(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cdf", help="reachability CDF over step horizons")
    _add_common(p)
    _add_solver(p)
    p.add_argument("--horizon", type=int, required=True,
                   help="largest step bound t")
    p.add_argument("--out", default=None, help="write CSV rows t,probability")
    p.set_defaults(func=cmd_cdf)

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
    p.add_argument("--mode", choices=("global", "distributed"),
                   default="global")
    p.add_argument("--table", action="store_true",
                   help="include the per-scheduler estimate table")
    p.set_defaults(func=cmd_lss)

    p = sub.add_parser("gen", help="generate a case-study model")
    gsub = p.add_subparsers(dest="case", required=True)

    g = gsub.add_parser("bitcoin", help="blockchain trust attack (MA)")
    g.add_argument("--M", type=float, default=0.2,
                   help="attacker's hash-rate fraction")
    g.add_argument("--CD", type=int, default=6, help="confirmation depth")
    g.add_argument("--DB", type=int, default=None,
                   help="give-up distance (default: CD)")
    g.add_argument("--goal", default=None, help="success predicate")
    g.add_argument("--out-dir", default=".")
    g.set_defaults(func=cmd_gen)

    g = gsub.add_parser("contacts", help="contact-plan routing (MDP)")
    g.add_argument("--plan", required=True, help="contact plan JSON file")
    g.add_argument("--out-dir", default=".")
    g.set_defaults(func=cmd_gen)

    g = gsub.add_parser("noc", help="network-on-chip noise (DTMC)")
    g.add_argument("--pattern", choices=("every-other", "bursty"),
                   default="every-other")
    g.add_argument("--burst-len", type=int, default=None)
    g.add_argument("--burst-period", type=int, default=None)
    g.add_argument("--buffer", type=int, default=1)
    g.add_argument("--k-res", type=int, default=3,
                   help="simultaneous transmitters for a resistive event")
    g.add_argument("--k-ind", type=int, default=2,
                   help="transmitter-count change for an inductive event")
    g.add_argument("--events", type=int, default=1)
    g.add_argument("--horizon", type=int, default=10,
                   help="cycles in the bundled property")
    g.add_argument("--out-dir", default=".")
    g.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.echo = argv
    try:
        return args.func(args)
    except ModelSyntaxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ExplorationLimit as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except smc.NotGoodForDistribution as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except numeric.SolverError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ModelError, ExplorationError, EvalError, ValueError,
            KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
