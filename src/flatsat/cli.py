"""Command-line front end: synthesis, saturation, simulation, verification.

Subcommands:
    synth      synthesize a certificate and write it with a report
    saturate   one-shot saturation of a command vector
    simulate   run a closed-loop scenario, write trace CSV and summary
    verify     re-check a certificate file by boundary sampling
    sweep      run the scenario once per gamma value, combined summary

Configuration lives in a ``key = value`` text file (``#`` comments allowed;
unknown keys rejected); every key has a default mirroring the desk-scale
nano-drone setting, so a bare run needs no file at all. A key that sets a
library parameter reads its default from the class or constant that defines
it, and each key is parsed by the type of its default. The output directory
resolves as: ``--out`` flag, else ``FLATSAT_OUTDIR`` environment variable,
else the config value.

Exit codes: 0 clean, 1 usage or config error (argparse's own errors
included), 2 synthesis infeasible, 3 monitor or verification failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .constraint_sets import ConstraintParams
from .kvformat import dump_kv, parse_kv
from .saturation import saturate, saturate_oracle
from .simulation import (
    CircularReference,
    OriginReference,
    Scenario,
    SetpointReference,
    SimulationAborted,
    metrics,
    run,
)
from .synthesis import (
    DEFAULT_MARGIN,
    EllipsoidCert,
    SynthesisError,
    _check_gamma,
    load_certificate,
    lyapunov_residual,
    synthesize_certificate,
    save_certificate,
    verify_cert,
)

ENV_OUTDIR = "FLATSAT_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VIOLATIONS = 3


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def float_list(s: str) -> tuple[float, ...]:
    """Comma-separated floats; argparse names it in its error message."""
    return tuple(float(x) for x in s.split(","))


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration; defaults reproduce the canonical setting."""

    g: float = ConstraintParams.g
    t_max: float = ConstraintParams.t_max
    phi_max: float = ConstraintParams.phi_max
    theta_max: float = ConstraintParams.theta_max
    alpha: float = 0.75
    gamma: float = 1.0
    margin: float = DEFAULT_MARGIN
    scenario: str = "origin"
    setpoint: tuple = (0.3, 0.3, 0.8)
    circle_radius: float = CircularReference.radius
    circle_center_x: float = CircularReference.center[0]
    circle_center_y: float = CircularReference.center[1]
    circle_altitude: float = CircularReference.altitude
    circle_omega: float = CircularReference.omega
    circle_velocity_mode: str = CircularReference.velocity_mode
    initial_state: tuple = (-3.77, -0.46, -3.60, 0.94, -0.24, 2.31)
    duration: float = 20.0
    dt: float = 0.02
    psi: float = Scenario.psi
    feedforward: bool = Scenario.feedforward
    invariance_mode: bool = Scenario.invariance_mode
    seed: int = 0
    outdir: str = "flatsat_out"
    gammas: tuple = (1.0, 5.0, 15.0)

    def params(self) -> ConstraintParams:
        return ConstraintParams(
            g=self.g, t_max=self.t_max, phi_max=self.phi_max, theta_max=self.theta_max
        )

    def reference(self):
        if self.scenario == "origin":
            return OriginReference()
        if self.scenario == "setpoint":
            if len(self.setpoint) != 3:
                raise ValueError("setpoint needs exactly three values")
            return SetpointReference(position=tuple(self.setpoint))
        if self.scenario == "circular":
            return CircularReference(
                radius=self.circle_radius,
                center=(self.circle_center_x, self.circle_center_y),
                altitude=self.circle_altitude,
                omega=self.circle_omega,
                velocity_mode=self.circle_velocity_mode,
            )
        raise ValueError(
            f"scenario must be origin|setpoint|circular, got {self.scenario!r}"
        )

    def build_scenario(self, cert: EllipsoidCert, params: ConstraintParams) -> Scenario:
        if len(self.initial_state) != 6:
            raise ValueError("initial_state needs exactly six values")
        return Scenario(
            reference=self.reference(),
            initial_state=self.initial_state,
            duration=self.duration,
            dt=self.dt,
            cert=cert,
            params=params,
            psi=self.psi,
            feedforward=self.feedforward,
            invariance_mode=self.invariance_mode,
        )


# each config key is parsed by the type of its default
_PARSER_OF_TYPE = {float: float, int: int, str: str, bool: _parse_bool, tuple: float_list}
_CONFIG_PARSERS = {f.name: _PARSER_OF_TYPE[type(f.default)] for f in fields(RunConfig)}


def load_config(path) -> RunConfig:
    """Parse and validate a config file; unknown keys are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_kv(fh.read())
    unknown = sorted(set(raw) - set(_CONFIG_PARSERS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    updates = {}
    for key, text in raw.items():
        try:
            updates[key] = _CONFIG_PARSERS[key](text)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return replace(RunConfig(), **updates)


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for name in ("alpha", "gamma", "margin", "gammas"):
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)
    return replace(cfg, **overrides) if overrides else cfg


def _resolve_outdir(args, cfg: RunConfig) -> Path:
    if getattr(args, "out", None):
        out = Path(args.out)
    elif os.environ.get(ENV_OUTDIR):
        out = Path(os.environ[ENV_OUTDIR])
    else:
        out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _gamma_tag(g: float) -> str:
    """The file-name tag of a sweep gamma: its short ``g`` form when that
    reads back as ``g``, else its full-precision repr, so that two distinct
    gammas never share a trace file."""
    text = f"{g:g}"
    if float(text) != g:
        text = repr(g)
    return text.replace(".", "p").replace("-", "m")


def cmd_synth(args) -> int:
    cfg = _resolve_config(args)
    params = cfg.params()
    cert = synthesize_certificate(params, cfg.alpha, cfg.gamma, margin=cfg.margin)
    out = _resolve_outdir(args, cfg)
    cert_path = out / "certificate.txt"
    save_certificate(cert_path, params, cert, seed=cfg.seed, margin=cfg.margin)
    report = {
        "rho": cert.rho,
        "eps": cert.eps,
        "p1": cert.gain.p1,
        "p2": cert.gain.p2,
        "p3": cert.gain.p3,
        "alpha": cert.gain.alpha,
        "gamma": cert.gamma,
        "margin": cfg.margin,
        "closed_loop_residual": lyapunov_residual(cert.gain),
        "certificate": str(cert_path),
    }
    text = dump_kv(report, header="synthesis report")
    (out / "synth_report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


def cmd_saturate(args) -> int:
    cfg = _resolve_config(args)
    params = cfg.params()
    res = saturate((args.v1, args.v2, args.v3), params)
    lines = {
        "lambda": res.lam,
        "v_out": tuple(res.v_out),
        "saturated": res.saturated,
        "active": res.active.value,
    }
    if args.oracle:
        lines["lambda_oracle"] = saturate_oracle((args.v1, args.v2, args.v3), params)
    sys.stdout.write(dump_kv(lines))
    return EXIT_OK


def _load_or_synthesize(args, cfg: RunConfig):
    if getattr(args, "certificate", None):
        params, cert, _meta = load_certificate(args.certificate)
        return params, cert
    params = cfg.params()
    cert = synthesize_certificate(params, cfg.alpha, cfg.gamma, margin=cfg.margin)
    return params, cert


def _run_to_csv(scenario: Scenario, path: Path):
    """Run ``scenario`` and write its trace to ``path``. On an abort, write
    the completed rows to ``<stem>_partial.csv`` beside it, print the reason
    and return None."""
    try:
        trace = run(scenario)
    except SimulationAborted as exc:
        exc.trace.to_csv(path.with_name(f"{path.stem}_partial.csv"))
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return None
    trace.to_csv(path)
    return trace


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    params, cert = _load_or_synthesize(args, cfg)
    scenario = cfg.build_scenario(cert, params)
    out = _resolve_outdir(args, cfg)
    trace = _run_to_csv(scenario, out / "trace.csv")
    if trace is None:
        return EXIT_VIOLATIONS
    summary = metrics(trace, scenario).to_kv()
    summary["gamma"] = cert.gamma
    text = dump_kv(summary, header="simulation summary")
    (out / "summary.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    if trace.violations:
        for msg in trace.violations[:20]:
            print(f"violation: {msg}", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_verify(args) -> int:
    params, cert, meta = load_certificate(args.certificate)
    seed = meta["seed"] if args.seed is None else args.seed
    residual = lyapunov_residual(cert.gain)
    report = verify_cert(cert, params, n_samples=args.samples, seed=seed)
    pairs = {"closed_loop_residual": residual}
    pairs.update(report.to_kv())
    sys.stdout.write(dump_kv(pairs, header="verification report"))
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    params = cfg.params()
    # gamma does not enter synthesis: check every gamma before any run,
    # synthesize once and vary only the feedback scale
    for gamma in cfg.gammas:
        _check_gamma(gamma)
    for i, gamma in enumerate(cfg.gammas):
        if gamma in cfg.gammas[:i]:
            raise ValueError(
                f"--gammas (or the gammas config key) lists gamma {gamma!r} twice; "
                "each gamma writes its own trace file"
            )
    base = synthesize_certificate(params, cfg.alpha, cfg.gammas[0], margin=cfg.margin)
    out = _resolve_outdir(args, cfg)
    combined: dict = {}
    any_violations = False
    for i, gamma in enumerate(cfg.gammas):
        scenario = cfg.build_scenario(replace(base, gamma=gamma), params)
        trace = _run_to_csv(scenario, out / f"trace_gamma_{_gamma_tag(gamma)}.csv")
        if trace is None:
            return EXIT_VIOLATIONS
        summary = metrics(trace, scenario)
        combined[f"run{i}_gamma"] = gamma
        for key, value in summary.to_kv().items():
            combined[f"run{i}_{key}"] = value
        any_violations = any_violations or bool(trace.violations)
    text = dump_kv(combined, header="gamma sweep summary")
    (out / "sweep_summary.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_VIOLATIONS if any_violations else EXIT_OK


class _NegativeFloatLiteral:
    """A stand-in for argparse's negative-number pattern: ``match`` is true
    for every string that ``float()`` reads."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatsat",
        description="Saturated flat-space quadcopter control: synthesis, "
        "simulation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--alpha", type=float, help="decay rate")
        sp.add_argument("--margin", type=float, help="synthesis margin")

    sp = sub.add_parser("synth", help="synthesize and write a certificate")
    add_common(sp)
    sp.add_argument("--gamma", type=float, help="feedback scale (>= 1)")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("saturate", help="saturate one command vector")
    # argparse reads an argument that starts with "-" as an option unless it
    # matches this pattern, which by default spells only plain negative
    # decimals; widen it to every negative literal float() reads ("-2e1",
    # "-inf"), which no option of this subcommand looks like
    sp._negative_number_matcher = _NegativeFloatLiteral()
    sp.add_argument("v1", type=float)
    sp.add_argument("v2", type=float)
    sp.add_argument("v3", type=float)
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--oracle", action="store_true", help="also print bisection factor")
    sp.set_defaults(func=cmd_saturate)

    sp = sub.add_parser("simulate", help="run one closed-loop scenario")
    add_common(sp)
    sp.add_argument("--gamma", type=float, help="feedback scale (>= 1)")
    sp.add_argument("--certificate", help="use this certificate file instead of synthesizing")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="re-check a certificate by sampling")
    sp.add_argument("certificate", help="certificate file")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=None, help="override the stored seed")
    sp.set_defaults(func=cmd_verify)

    # no abbreviations here, so that "--gamma" is not read as "--gammas"
    sp = sub.add_parser(
        "sweep", help="run the scenario once per gamma value", allow_abbrev=False
    )
    add_common(sp)
    sp.add_argument("--gammas", type=float_list, help="comma-separated gamma list")
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (or the help) and exits 2
        # (or 0); 2 is the infeasible-synthesis code here
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except SynthesisError as exc:
        print(f"synthesis error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
