"""Command-line front end: synthesis, saturation, simulation, verification.

Subcommands:
    synth      synthesize a certificate and write it with a report
    saturate   one-shot saturation of a command vector
    simulate   run a closed-loop scenario, write trace CSV and summary
    verify     re-check a certificate file by boundary sampling
    sweep      run the scenario once per gamma value, combined summary
    invariance run from boundary starts of the certified ellipsoid per gamma
    alphas     tabulate the certificate at each decay rate

Configuration lives in a ``key = value`` text file (``#`` comments allowed;
unknown keys rejected); every key has a default mirroring the desk-scale
nano-drone setting, so a bare run needs no file at all. A key that sets a
library parameter reads its default from the class or constant that defines
it, and each key is parsed by the type of its default. The output directory
is the ``--out`` flag, else the config value. Every file written there
depends only on the inputs, so reruns are byte-identical; ``simulate``,
``sweep`` and ``invariance`` print on stdout, byte for byte, the summary
file they write. ``synth``, ``simulate``, ``sweep`` and ``invariance``
write their files through :func:`_output`; ``saturate``, ``verify`` and
``alphas`` write none.

Exit codes: 0 clean, 1 usage or config error (argparse's own errors
included), 2 synthesis infeasible, 3 monitor or verification failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .constraint_sets import ConstraintParams, max_inscribed_ball
from .kvformat import dump_kv, non_negative_int, parse_kv
from .saturation import saturate, saturate_oracle
from .simulation import (
    CircularReference,
    OriginReference,
    Scenario,
    SetpointReference,
    _on_grid,
    metrics,
    run,
)
from .synthesis import (
    DEFAULT_MARGIN,
    EllipsoidCert,
    SynthesisError,
    _check_gamma,
    boundary_states,
    load_certificate,
    lyapunov_residual,
    synthesize_certificate,
    save_certificate,
    verify_cert,
)

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
    initial_state: tuple = (-3.77, -0.46, -3.60, 0.94, -0.24, 2.31)
    duration: float = 20.0
    dt: float = 0.02
    psi: float = Scenario.psi
    feedforward: bool = Scenario.feedforward
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
            return SetpointReference(position=tuple(self.setpoint))
        if self.scenario == "circular":
            return CircularReference(
                radius=self.circle_radius,
                center=(self.circle_center_x, self.circle_center_y),
                altitude=self.circle_altitude,
                omega=self.circle_omega,
            )
        raise ValueError(
            f"scenario must be origin|setpoint|circular, got {self.scenario!r}"
        )

    def build_scenario(self, cert: EllipsoidCert, params: ConstraintParams) -> Scenario:
        return Scenario(
            reference=self.reference(),
            initial_state=self.initial_state,
            duration=self.duration,
            dt=self.dt,
            cert=cert,
            params=params,
            psi=self.psi,
            feedforward=self.feedforward,
        )


# each config key is parsed by the type of its default (the one int is the seed)
_PARSER_OF_TYPE = {float: float, int: non_negative_int, str: str, bool: _parse_bool,
                   tuple: float_list}
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


def _gamma_tag(g: float) -> str:
    """The file-name tag of a gamma: its ``g`` form where that reads back as
    ``g``, else its full-precision repr, so that two distinct gammas never
    share a tag; the point is written ``p``."""
    text = format(g, "g")
    return (text if float(text) == g else repr(g)).replace(".", "p")


def _check_gammas(gammas) -> None:
    """Raise :class:`SynthesisError` unless every gamma passes
    :func:`_check_gamma`, and ValueError if one repeats: each gamma writes
    its own trace file."""
    for gamma in gammas:
        _check_gamma(gamma)
    for i, gamma in enumerate(gammas):
        if gamma in gammas[:i]:
            raise ValueError(
                f"--gammas (or the gammas config key) lists gamma {gamma!r} twice; "
                "each gamma writes its own trace file"
            )


def cmd_synth(args) -> int:
    cfg = _resolve_config(args)
    params = cfg.params()
    cert = synthesize_certificate(params, cfg.alpha, cfg.gamma, margin=cfg.margin)
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
    }
    text = dump_kv(report, header="synthesis report")
    with _output(args, cfg) as stage:
        save_certificate(stage("certificate.txt"), params, cert, seed=cfg.seed,
                         margin=cfg.margin)
        stage("synth_report.txt").write_text(text, encoding="utf-8")
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
    """A loaded certificate takes the ``--gamma`` flag (gamma does not enter
    synthesis) and refuses ``--alpha`` and ``--margin``; config keys leave
    it alone."""
    if not args.certificate:
        params = cfg.params()
        return params, synthesize_certificate(params, cfg.alpha, cfg.gamma, margin=cfg.margin)
    for flag in ("alpha", "margin"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} cannot be combined with --certificate, which fixes it")
    params, cert, _meta = load_certificate(args.certificate)
    if args.gamma is not None:
        _check_gamma(args.gamma)
        cert = replace(cert, gamma=args.gamma)
    return params, cert


@contextlib.contextmanager
def _output(args, cfg: RunConfig):
    """Yield ``stage``: ``stage(name)`` is the path to write ``name`` to, in
    a private directory that the first call makes in the output directory
    and that is removed at the end. If the block completes, each staged file
    is renamed onto its name, in order; if it raises, the directories made
    are removed too. A rename that fails keeps the files renamed before it."""
    out = Path(getattr(args, "out", None) or cfg.outdir)
    made, staged, private = [], {}, None

    def stage(name: str) -> Path:
        nonlocal private
        if private is None:
            made.extend(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
            out.mkdir(parents=True, exist_ok=True)
            private = Path(tempfile.mkdtemp(dir=out, prefix=".flatsat-"))
        staged[name] = path = private / name
        return path

    try:
        yield stage
        for name, path in staged.items():
            path.replace(out / name)
        if private:
            private.rmdir()
    except BaseException:
        if private:
            shutil.rmtree(private, ignore_errors=True)
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def _run_step(stage, runs: dict) -> list:
    """Run each scenario of ``runs`` (trace file name to :class:`Scenario`)
    in order, holding one trace at a time: keep its :func:`metrics`, then
    write its trace to ``stage(name)`` of :func:`_output` and print its
    first 20 monitor violations, if any. A run that memory cannot hold is a
    ValueError naming its step count. Returns the metrics in order."""
    results = []
    for name, scenario in runs.items():
        try:
            trace = run(scenario)
        except MemoryError as exc:
            raise ValueError(
                f"duration / dt = {scenario.duration} / {scenario.dt} = {scenario.steps} "
                "steps: out of memory for the run"
            ) from exc
        results.append(metrics(trace, scenario))
        trace.to_csv(stage(name))
        for msg in trace.violations[:20]:
            print(f"violation: {msg}", file=sys.stderr)
        del trace
    return results


def _draw(flag: str, count: int, draw, *args):
    """``draw(*args)`` of ``count`` boundary states; its ValueError or
    MemoryError becomes one ValueError naming ``flag`` and ``count``."""
    try:
        return draw(*args)
    except ValueError as exc:
        raise ValueError(f"{flag} {count}: {exc}") from exc
    except MemoryError as exc:
        raise ValueError(f"{flag} {count}: out of memory for the {flag[2:]}") from exc


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    params, cert = _load_or_synthesize(args, cfg)
    with _output(args, cfg) as stage:
        (m,) = _run_step(stage, {"trace.csv": cfg.build_scenario(cert, params)})
        summary = asdict(m)
        summary["gamma"] = cert.gamma
        text = dump_kv(summary, header="simulation summary")
        stage("summary.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_VIOLATIONS if m.n_violations else EXIT_OK


def cmd_verify(args) -> int:
    params, cert, meta = load_certificate(args.certificate)
    seed = meta["seed"] if args.seed is None else args.seed
    residual = lyapunov_residual(cert.gain)
    report = _draw("--samples", args.samples, verify_cert, cert, params, args.samples, seed)
    pairs = {"closed_loop_residual": residual}
    pairs.update(report.to_kv())
    sys.stdout.write(dump_kv(pairs, header="verification report"))
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    params = cfg.params()
    # gamma does not enter synthesis: check every gamma before any run,
    # synthesize once and vary only the feedback scale
    _check_gammas(cfg.gammas)
    base = synthesize_certificate(params, cfg.alpha, cfg.gammas[0], margin=cfg.margin)
    runs = {f"trace_gamma_{_gamma_tag(gamma)}.csv":
            cfg.build_scenario(replace(base, gamma=gamma), params) for gamma in cfg.gammas}
    combined: dict = {}
    with _output(args, cfg) as stage:
        results = _run_step(stage, runs)
        for i, (gamma, m) in enumerate(zip(cfg.gammas, results)):
            combined[f"run{i}_gamma"] = gamma
            combined.update((f"run{i}_{key}", value) for key, value in asdict(m).items())
        text = dump_kv(combined, header="gamma sweep summary")
        stage("sweep_summary.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_VIOLATIONS if any(m.n_violations for m in results) else EXIT_OK


def cmd_invariance(args) -> int:
    """The scenario from ``--starts`` boundary points of the certified
    ellipsoid (the :func:`boundary_states` that ``verify`` checks for the
    config's seed), centred on the reference's state at t = 0, in invariance
    mode, once per gamma: one trace per (gamma, start), and
    ``invariance_summary.txt`` with the certificate's ``rho``, ``eps`` and
    ``alpha``, then per gamma i ``run<i>_gamma``, ``run<i>_max_level`` (the
    largest V/eps over its starts), ``run<i>_n_violations`` (their sum) and
    ``run<i>_saturation_duty`` (their mean)."""
    cfg = _resolve_config(args)
    params = cfg.params()
    _check_gammas(cfg.gammas)
    if args.starts < 1:
        raise ValueError(f"--starts must be at least 1, got {args.starts}")
    base = synthesize_certificate(params, cfg.alpha, cfg.gammas[0], margin=cfg.margin)
    offsets = _draw("--starts", args.starts, boundary_states, base.gain, base.eps, args.starts,
                    cfg.seed)
    # the starts surround the reference at t = 0: a non-finite one is the
    # error that run gives it
    centre = _on_grid(cfg.reference().state, np.zeros(1), 6, "state")[0]
    if not np.isfinite(centre).all():
        raise ValueError("reference.state is not finite at t=0.0")
    runs = {}
    for gamma in cfg.gammas:
        scenario = cfg.build_scenario(replace(base, gamma=gamma), params)
        for i, offset in enumerate(offsets):
            runs[f"trace_g{_gamma_tag(gamma)}_s{i:02d}.csv"] = replace(
                scenario, initial_state=centre + offset, invariance_mode=True)
    n = len(offsets)
    summary = {"rho": base.rho, "eps": base.eps, "alpha": base.gain.alpha}
    with _output(args, cfg) as stage:
        results = _run_step(stage, runs)
        for i, gamma in enumerate(cfg.gammas):
            per_start = results[i * n:(i + 1) * n]
            summary[f"run{i}_gamma"] = gamma
            summary[f"run{i}_max_level"] = max(m.max_lyapunov / base.eps for m in per_start)
            summary[f"run{i}_n_violations"] = sum(m.n_violations for m in per_start)
            summary[f"run{i}_saturation_duty"] = np.mean([m.saturation_duty for m in per_start])
        text = dump_kv(summary, header="invariance summary")
        stage("invariance_summary.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_VIOLATIONS if any(m.n_violations for m in results) else EXIT_OK


def cmd_alphas(args) -> int:
    """The certificate at each decay rate of ``--alphas``, at the default
    limits and margin: ``rho`` (of :func:`max_inscribed_ball`, the same for
    every alpha), then per alpha i ``run<i>_alpha``, the gain ``run<i>_p1``,
    ``run<i>_p2`` and ``run<i>_p3``, the level ``run<i>_eps`` and
    ``run<i>_axis_area`` = pi eps / sqrt(p1 p3 - p2^2), the area of the
    certified ellipse in one axis's (position error, velocity error) plane.
    A slower decay buys a larger ellipse. Every alpha is synthesized before
    anything is printed."""
    params = ConstraintParams()
    certs = [synthesize_certificate(params, alpha, 1.0) for alpha in args.alphas]
    table = {"rho": max_inscribed_ball(params)}
    for i, cert in enumerate(certs):
        g = cert.gain
        row = {"alpha": g.alpha, "p1": g.p1, "p2": g.p2, "p3": g.p3, "eps": cert.eps,
               "axis_area": math.pi * cert.eps / math.sqrt(g.p1 * g.p3 - g.p2 * g.p2)}
        table.update((f"run{i}_{key}", value) for key, value in row.items())
    sys.stdout.write(dump_kv(table, header="decay-rate sweep"))
    return EXIT_OK


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in this process, built on the
    first call, not at import. The ``flatsat`` console script calls
    ``main`` once per process; a program that calls it more than once (the
    test suite, an in-process session) parses with this one parser. Parsing
    keeps no state in it, so a usage error or ``--help`` leaves later calls
    unchanged."""
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

    sp = sub.add_parser("simulate", help="run one closed-loop scenario")
    add_common(sp)
    sp.add_argument("--gamma", type=float, help="feedback scale (>= 1)")
    sp.add_argument("--certificate", help="use this certificate file instead of synthesizing")

    sp = sub.add_parser("verify", help="re-check a certificate by sampling")
    sp.add_argument("certificate", help="certificate file")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=non_negative_int, help="override the stored seed")

    # no abbreviations here, so that "--gamma" is not read as "--gammas"
    sp = sub.add_parser(
        "sweep", help="run the scenario once per gamma value", allow_abbrev=False
    )
    add_common(sp)
    sp.add_argument("--gammas", type=float_list, help="comma-separated gamma list")

    sp = sub.add_parser(
        "invariance", help="run from boundary starts of the certified ellipsoid per gamma",
        allow_abbrev=False,
    )
    add_common(sp)
    sp.add_argument("--gammas", type=float_list, help="comma-separated gamma list")
    sp.add_argument("--starts", type=int, default=20, help="boundary starts per gamma")

    sp = sub.add_parser("alphas", help="tabulate the certificate at each decay rate")
    sp.add_argument("--alphas", type=float_list, default=(0.25, 0.5, 0.75, 1.0, 1.25),
                    help="comma-separated decay rates")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (or the help) and exits 2
        # (or 0); 2 is the infeasible-synthesis code here
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    # the command function is looked up by name on each call, not kept in
    # the shared parser, so a wrapper installed over it later still runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except SynthesisError as exc:
        print(f"synthesis error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
