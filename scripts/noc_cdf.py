#!/usr/bin/env python3
"""Compute the noise-event CDF of the network-on-chip model.

Generates the 2x2 mesh DTMC for the chosen flit-injection pattern,
computes the probability of reaching the configured number of noise
events within t micro-steps for every t up to the property horizon
(5 micro-steps per clock cycle), and writes t,probability CSV rows.
"""
import argparse
import csv
import sys

from qmv.casestudies import NocParams, gen_noc
from qmv.core import Direction
from qmv.lang import explore, parse_model
from qmv.numeric import step_bounded_cdf


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pattern", choices=("every-other", "bursty"),
                    default=NocParams.pattern)
    ap.add_argument("--burst-len", type=int, default=NocParams.burst_len,
                    help="injection cycles per burst (bursty pattern)")
    ap.add_argument("--burst-period", type=int,
                    default=NocParams.burst_period,
                    help="cycles between burst starts (bursty pattern)")
    ap.add_argument("--buffer", type=int, default=NocParams.buffer,
                    help="queue bound per router (default %(default)s)")
    ap.add_argument("--events", type=int, default=NocParams.events,
                    help="noise events to accumulate (default %(default)s)")
    ap.add_argument("--horizon", type=int, default=NocParams.horizon,
                    help="clock cycles covered by the CDF "
                         "(default %(default)s)")
    ap.add_argument("-o", "--out", default="-",
                    help="output CSV file (default: stdout)")
    args = ap.parse_args()

    params = NocParams(
        pattern=args.pattern, burst_len=args.burst_len,
        burst_period=args.burst_period, buffer=args.buffer,
        events=args.events, horizon=args.horizon)
    case = gen_noc(params)
    space = explore(parse_model(case.model))
    t_max = 5 * args.horizon + 1
    cdf = step_bounded_cdf(space, "noisy", Direction.MAX, t_max)

    sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        writer = csv.writer(sink)
        for t, value in enumerate(cdf.values):
            writer.writerow([t, repr(value)])
    finally:
        if sink is not sys.stdout:
            sink.close()
    print(f"{space.n_states} states; P(reach {args.events} event(s) "
          f"within {args.horizon} cycles) = {cdf.final:.6f}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
