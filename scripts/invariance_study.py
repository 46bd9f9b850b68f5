#!/usr/bin/env python3
"""Regulation from boundary starts of the certified ellipsoid.

Runs the origin scenario from boundary points of the verifier's sampler
(``boundary_states``, seed 0) for several feedback scales, confirms no
trajectory leaves the set and no command or physical input leaves its
constraint set, and writes one trace CSV per (gamma, start) pair, named by
the gamma tags of ``flatsat sweep``. The gamma list is read and checked as
``flatsat sweep`` reads and checks it, before synthesis. Any bad argument,
an infeasible ``--alpha``, a ``--starts`` too large to draw or a
``--duration`` that is not a whole number of ``--dt`` steps or whose step
count overflows included, stops the script with one usage line before it
writes anything. After the table the script exits with the runs' monitor
verdict: 3, as ``flatsat simulate`` does, if any run reported a violation
(an exit from the ellipsoid among them: every run is in invariance mode),
else 0.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from flatsat import (
    ConstraintParams,
    OriginReference,
    Scenario,
    SynthesisError,
    boundary_states,
    metrics,
    run,
    synthesize_certificate,
)
from flatsat.cli import EXIT_OK, EXIT_VIOLATIONS, _check_gammas, _gamma_tag, float_list


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out_invariance", help="output directory")
    ap.add_argument("--alpha", type=float, default=0.75)
    ap.add_argument("--gammas", type=float_list, default="1,5,15")
    ap.add_argument("--starts", type=int, default=20)
    ap.add_argument("--duration", type=float, default=20.0)
    ap.add_argument("--dt", type=float, default=0.02)
    args = ap.parse_args()
    if args.starts < 1:
        ap.error(f"--starts must be at least 1, got {args.starts}")
    try:
        _check_gammas(args.gammas, source="--gammas")
    except SynthesisError as exc:
        ap.error(f"--gammas: {exc}")
    except ValueError as exc:  # a repeated gamma, named by its flag
        ap.error(str(exc))

    params = ConstraintParams()
    try:
        base = synthesize_certificate(params, args.alpha, 1.0)
    except SynthesisError as exc:
        ap.error(f"--alpha: {exc}")
    try:
        starts = boundary_states(base.gain, base.eps, args.starts)
    except ValueError as exc:
        ap.error(f"--starts: {exc}")
    except MemoryError:
        ap.error(f"--starts {args.starts}: out of memory for the starts")

    def scenario(cert, xi0):
        return Scenario(
            reference=OriginReference(),
            initial_state=xi0,
            duration=args.duration,
            dt=args.dt,
            cert=cert,
            params=params,
            invariance_mode=True,
        )

    # the horizon checks are the same for every start and gamma
    try:
        scenario(base, starts[0])
    except ValueError as exc:
        ap.error(f"--duration/--dt: {exc}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"certificate: rho={base.rho:.4f} eps={base.eps:.4f} alpha={args.alpha}")
    any_violations = False
    for gamma in args.gammas:
        cert = replace(base, gamma=gamma)
        worst = 0.0
        n_violations = 0
        duty = []
        for i, xi0 in enumerate(starts):
            sc = scenario(cert, xi0)
            trace = run(sc)
            trace.to_csv(out / f"trace_g{_gamma_tag(gamma)}_s{i:02d}.csv")
            m = metrics(trace, sc)
            worst = max(worst, m.max_lyapunov / cert.eps)
            n_violations += m.n_violations
            duty.append(m.saturation_duty)
        print(
            f"gamma={gamma:5.1f}: max V/eps={worst:.9f} violations={n_violations} "
            f"saturation duty mean={np.mean(duty):.3f}"
        )
        any_violations = any_violations or n_violations > 0
    return EXIT_VIOLATIONS if any_violations else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
