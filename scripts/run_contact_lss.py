#!/usr/bin/env python3
"""Compare lightweight scheduler sampling against the exact optimum.

Loads a contact plan (JSON), builds the routing MDP, computes the exact
maximum delivery probability by policy iteration, then samples scheduler
ids in global and distributed mode and reports each mode's best estimate.
Sampling is an underapproximation: its best estimate stays at or below
the exact optimum up to the confidence-interval half-width.
"""
import argparse
from pathlib import Path

from qmv.casestudies import gen_contact_mdp, parse_contact_plan
from qmv.core import Direction, Property, PropertyKind
from qmv.lang import explore, parse_model
from qmv.numeric import reach_prob
from qmv.smc import LssConfig, SmcConfig, lss

DEFAULT_PLAN = Path(__file__).resolve().parent.parent / "data" \
    / "sample_contact_plan.json"


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("plan", nargs="?", default=str(DEFAULT_PLAN),
                    help="contact plan JSON file (default: the bundled "
                         "four-satellite plan)")
    ap.add_argument("--schedulers", type=int, default=100,
                    help="scheduler ids to sample per mode (default 100)")
    ap.add_argument("--runs", type=int, default=1000,
                    help="simulation runs per sampled scheduler "
                         "(default 1000)")
    ap.add_argument("--seed", type=int, default=0,
                    help="master seed for sampling and simulation")
    args = ap.parse_args()

    plan = parse_contact_plan(Path(args.plan).read_text())
    case = gen_contact_mdp(plan)
    space = explore(parse_model(case.model))
    exact = reach_prob(space, "delivered", Direction.MAX)
    print(f"plan: {args.plan}")
    print(f"  {len(plan.nodes)} nodes, {plan.slots} slots, "
          f"{len(plan.contacts)} contacts, {plan.copies} copies "
          f"-> {space.n_states} states")
    print(f"exact Pmax (policy iteration): {exact.value:.6f}")

    prop = Property(kind=PropertyKind.REACH_PROB, direction=Direction.MAX,
                    target="delivered")
    for mode in ("global", "distributed"):
        cfg = LssConfig(
            m=args.schedulers, mode=mode, direction=Direction.MAX,
            sampler_seed=args.seed,
            inner=SmcConfig(runs=args.runs, master_seed=args.seed))
        got = lss(space, prop, cfg)
        print(f"{mode:>11} mode: best id {got.best_id:>10} estimates "
              f"{got.best.mean:.4f} ± {got.best.half_width:.4f} "
              f"({got.distinct_behaviors} distinct behaviors among "
              f"{args.schedulers} sampled)")


if __name__ == "__main__":
    main()
