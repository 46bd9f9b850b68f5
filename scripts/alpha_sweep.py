#!/usr/bin/env python3
"""Sweep the decay rate and tabulate the synthesized certificates.

Shows the trade-off driving the choice of alpha: slower decay rates buy a
larger certified ellipsoid (level and projected area grow), faster ones
shrink it.
"""

import argparse
import math
import sys

from flatsat import (
    ConstraintParams,
    SynthesisError,
    max_inscribed_ball,
    synthesize_certificate,
)
from flatsat.cli import float_list


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--alphas",
        type=float_list,
        default="0.25,0.5,0.75,1.0,1.25",
        help="comma-separated decay rates",
    )
    args = ap.parse_args()
    params = ConstraintParams()
    print(f"rho = {max_inscribed_ball(params):.4f} (alpha-independent)")
    print(f"{'alpha':>6} {'p1':>9} {'p2':>9} {'p3':>9} {'eps':>9} {'xy-area':>9}")
    for alpha in args.alphas:
        try:
            cert = synthesize_certificate(params, alpha, 1.0)
        except SynthesisError as exc:
            sys.exit(f"--alphas: alpha {alpha} is infeasible: {exc}")
        g = cert.gain
        area = math.pi * cert.eps / math.sqrt(g.p1 * g.p3 - g.p2 * g.p2)
        print(
            f"{alpha:6.2f} {g.p1:9.4f} {g.p2:9.4f} {g.p3:9.4f} "
            f"{cert.eps:9.4f} {area:9.2f}"
        )


if __name__ == "__main__":
    main()
