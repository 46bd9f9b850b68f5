"""The benchmark's three workloads: inputs, timed calls and output checks.

Every input is generated from the workload seed. A workload is a fixed list of
calls (a *round*); the runner repeats whole rounds, so every round does the
same work and traced counts repeat exactly. Each call returns its output to
a check that counts a failure when the output is wrong. Checks use
tolerances, never bitwise equality, so a numerically different but correct
implementation still passes.

Each workload also records states from its first round, on which the runner
replays the scalar control law between rounds and times each call from
outside (the real-time latency metrics).
"""

from __future__ import annotations

import contextlib
import io
from array import array
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import flatsat
from flatsat import (
    CircularReference,
    ConstraintParams,
    OriginReference,
    Scenario,
    SetpointReference,
    synthesize_certificate,
)
from flatsat.cli import main as cli_main

DT = 0.02
CANONICAL_X0 = (-3.77, -0.46, -3.60, 0.94, -0.24, 2.31)
GAMMAS = (1.0, 5.0, 15.0)
MEMBERSHIP_TOL = 1e-9  # slack on the squared set clauses, as the program's monitors
VERIFY_SAMPLES = 10_000  # the verify subcommand's default sample count


@dataclass
class Call:
    """One timed public call: ``fn()`` is timed, ``check(out)`` is not."""

    kind: str
    fn: Callable[[], object]
    check: Callable[[object], list]
    items: int  # work units the call completes
    steps: int = 0  # plant steps it simulates


@dataclass
class ReplaySet:
    """States on which ``control_law`` is replayed.

    ``ref`` and ``ff`` are per-row reference states and feedforward
    accelerations (``ff`` None: no feedforward). ``certified`` marks states
    on the certified ellipsoid, where a saturated command must keep
    gamma * lam >= 1.
    """

    xi: np.ndarray
    ref: np.ndarray
    ff: Optional[np.ndarray]
    cert: object
    params: ConstraintParams
    certified: bool = False


def in_command_set(v, p: ConstraintParams, tol: float = MEMBERSHIP_TOL):
    """Membership in the convex command set (ball, cone, half-space),
    written out here so the checks do not trust the program's own test;
    works on one command or on rows of an (N, 3) array."""
    v = np.asarray(v, dtype=float)
    c = v[..., 2] + p.g
    h2 = v[..., 0] ** 2 + v[..., 1] ** 2
    return (h2 + c * c <= p.t2_max + tol) & (h2 <= c * c * p.tan2_eps + tol) & (c >= -tol)


def raw_feedback(xi, ref, cert, ff=None) -> np.ndarray:
    """The unsaturated scaled gradient feedback, rows of (N, 6) states."""
    e = np.asarray(xi, dtype=float) - ref
    g = cert.gain
    raw = -cert.gamma * (g.p2 * e[..., :3] + g.p3 * e[..., 3:])
    return raw if ff is None else raw + ff


def ellipsoid_points(rng, cert, n: int, inside: float) -> np.ndarray:
    """``n`` random states on the level set V = eps, uniform in the
    whitened coordinates (the distribution ``verify_cert`` samples); every
    other one is pulled inside to a level drawn from [inside, 1] * eps."""
    g = cert.gain
    P = np.kron(np.array([[g.p1, g.p2], [g.p2, g.p3]]), np.eye(3))
    s = rng.standard_normal((n, 6))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    level = np.ones(n)
    level[1::2] = rng.uniform(inside, 1.0, size=len(level[1::2]))
    # P = L L' and xi = L'^-1 s give xi' P xi = s's = 1
    xi = np.linalg.solve(np.linalg.cholesky(P).T, s.T).T
    return xi * np.sqrt(cert.eps * level)[:, None]


def _grid_steps(duration: float) -> int:
    return int(round(duration / DT))


class ClosedLoop:
    """The paper's regulation and tracking studies, run in memory.

    Boundary-start invariance runs at gamma 1, 5, 15 (alpha 0.75), the
    canonical regulation run, setpoint runs at gamma 1, 5, 15 and the 60 s
    circle at gamma 4.5 with and without feedforward (alpha 1.25). The plant
    step, the input map, the control law and the monitors do the work;
    saturation engages on about 1.6 % of samples and nothing is written.
    """

    name = "closed_loop"
    item_unit = "grid step"
    # 7 starts per gamma give the invariance study, the paper's central
    # claim, 21000 of a round's 37000 steps; a traced round measures
    # saturated_frac 0.014-0.017 over seeds 1-3
    starts_per_gamma = 7

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        p = ConstraintParams()
        c075 = synthesize_certificate(p, 0.75, 1.0)
        c125 = synthesize_certificate(p, 1.25, 1.0)
        self.runs = []  # (kind, scenario)
        for gamma in GAMMAS:
            cert = replace(c075, gamma=gamma)
            for xi0 in ellipsoid_points(rng, cert, self.starts_per_gamma, 0.95):
                self.runs.append(
                    ("invariance", Scenario(OriginReference(), xi0, 20.0, DT, cert, p,
                                            invariance_mode=True))
                )
        self.runs.append(
            ("regulation", Scenario(OriginReference(), CANONICAL_X0, 20.0, DT, c075, p))
        )
        for gamma in GAMMAS:
            target = tuple(float(x) for x in rng.uniform((-0.5, -0.5, 0.3), (0.5, 0.5, 1.2)))
            self.runs.append(
                ("setpoint", Scenario(SetpointReference(position=target), np.zeros(6),
                                      20.0, DT, replace(c125, gamma=gamma), p))
            )
        for ff in (False, True):
            for _ in range(2):
                xi0 = np.concatenate([rng.uniform(-0.2, 0.2, 3), np.zeros(3)])
                self.runs.append(
                    ("circle", Scenario(CircularReference(), xi0, 60.0, DT,
                                        replace(c125, gamma=4.5), p, feedforward=ff))
                )
        self.replay = []
        warm = Scenario(OriginReference(), CANONICAL_X0, 1.0, DT, c075, p)
        flatsat.metrics(flatsat.run(warm), warm)

    def calls(self) -> list:
        out = []
        for kind, sc in self.runs:
            n = _grid_steps(sc.duration)

            def fn(sc=sc):
                trace = flatsat.run(sc)
                return trace, flatsat.metrics(trace, sc)

            out.append(Call(kind, fn, lambda res, k=kind, sc=sc: self.check(k, sc, res), n, n))
        return out

    def check(self, kind: str, sc: Scenario, res) -> list:
        trace, m = res
        n = _grid_steps(sc.duration)
        fails = []
        if len(trace.t) != n + 1:
            fails.append(f"{kind}: {len(trace.t)} samples, expected {n + 1}")
        if trace.violations or m.n_violations:
            fails.append(f"{kind}: monitor violations {trace.violations[:3]}")
        if not np.all(np.isfinite(trace.xi)):
            fails.append(f"{kind}: non-finite state")
        if not np.all(in_command_set(trace.v, sc.params)):
            fails.append(f"{kind}: command outside the set")
        g = sc.cert.gain
        xi = np.asarray(trace.xi)
        ref = np.stack([sc.reference.state(t) for t in trace.t])
        ep, ev = (xi - ref)[:, :3], (xi - ref)[:, 3:]
        lyap = np.sum(g.p1 * ep * ep + 2.0 * g.p2 * ep * ev + g.p3 * ev * ev, axis=1)
        if kind == "invariance" and lyap.max() / sc.cert.eps > 1.0 + 1e-6:
            fails.append(f"{kind}: V/eps = {lyap.max() / sc.cert.eps}")
        if kind == "regulation":
            envelope = lyap[0] * np.exp(-sc.cert.gain.alpha * trace.t) * (1.0 + 1e-3)
            if np.any(lyap > envelope):
                fails.append(f"{kind}: Lyapunov value above the decay envelope")
        if kind == "setpoint":
            tail = trace.t >= trace.t[-1] - 2.0
            target = np.asarray(sc.reference.position)
            err = float(np.max(np.linalg.norm(trace.xi[tail][:, :3] - target, axis=1)))
            if err >= 0.01:
                fails.append(f"{kind}: setpoint error {err} m")
        if kind == "circle" and not m.rms_pos_error_steady < 0.15:
            fails.append(f"{kind}: steady RMS {m.rms_pos_error_steady} m")
        if not self._replay_done:
            ff = np.stack([sc.reference.accel(t) for t in trace.t]) if sc.feedforward else None
            self.replay.append(ReplaySet(xi.copy(), ref, ff, sc.cert, sc.params))
        return fails

    _replay_done = False

    def end_round(self) -> None:
        self._replay_done = True


class Verify:
    """``verify_cert`` on the canonical certificate at gamma 1, 5, 15.

    Saturation does the work in bulk: about 0 % of samples saturate at
    gamma 1 and 95-100 % at gamma 5 and 15. No plant, no input map, no I/O.
    """

    name = "verify"
    item_unit = "boundary sample"
    points_per_gamma = 10_000

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.params = p = ConstraintParams()
        base = synthesize_certificate(p, 0.75, 1.0)
        self.certs = [replace(base, gamma=g) for g in GAMMAS]
        self.verify_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(GAMMAS))]
        self.replay = []
        self.expected_frac = []
        for cert in self.certs:
            pts = ellipsoid_points(rng, cert, self.points_per_gamma, 1.0)
            raw = raw_feedback(pts, 0.0, cert)
            self.expected_frac.append(float(np.mean(~in_command_set(raw, p))))
            # replays use the gamma = 5 points, where about 95 % saturate;
            # mixing in the mostly unsaturated gamma = 1 points would put
            # the latency median between the two paths
            if cert.gamma == 5.0:
                self.replay.append(ReplaySet(pts, np.zeros_like(pts), None, cert, p,
                                             certified=True))
        self.first_count = {}
        for cert in self.certs:
            flatsat.verify_cert(cert, p, n_samples=200, seed=0)

    def calls(self) -> list:
        out = []
        for i, (cert, vseed) in enumerate(zip(self.certs, self.verify_seeds)):
            def fn(cert=cert, vseed=vseed):
                return flatsat.verify_cert(cert, self.params, n_samples=VERIFY_SAMPLES, seed=vseed)

            out.append(Call(f"gamma={cert.gamma:g}", fn,
                            lambda rep, i=i: self.check(i, rep), VERIFY_SAMPLES))
        return out

    def check(self, i: int, rep) -> list:
        tag = f"verify gamma={self.certs[i].gamma:g}"
        fails = []
        if not rep.passed or rep.n_samples != VERIFY_SAMPLES:
            fails.append(f"{tag}: report {rep}")
        frac = rep.n_saturated / VERIFY_SAMPLES
        # independent estimate from the benchmark's own boundary points;
        # 0.03 is about ten standard errors at 1e4 samples
        if abs(frac - self.expected_frac[i]) > 0.03:
            fails.append(f"{tag}: saturated fraction {frac}, expected {self.expected_frac[i]}")
        if self.first_count.setdefault(i, rep.n_saturated) != rep.n_saturated:
            fails.append(f"{tag}: saturated count changed between identical calls")
        return fails

    def end_round(self) -> None:
        pass


def _parse_kv_text(text: str) -> dict:
    """Own reader for the ``key = value`` output, so checks do not rely on
    the parser they time."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _read_csv(path: Path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


def _columns(header, rows, names) -> np.ndarray:
    idx = [header.index(n) for n in names]
    return np.array([[float(r[i]) for i in idx] for r in rows])


class CliSession:
    """The README session through ``flatsat.cli.main``, in-process.

    synth -> verify -> simulate -> sweep -> saturate --oracle, then verify of
    a tampered certificate (expected exit 3), over seed-varied origin,
    setpoint and circular config files, each session in a fresh directory.
    Trace CSV writing, certificate and config I/O and the CLI glue carry a
    large share of the time here; they are absent from the other workloads.
    """

    name = "cli_session"
    item_unit = "CLI command"
    duration = 20.0

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.params = p = ConstraintParams()
        self.cert = synthesize_certificate(p, 0.75, 1.0)
        cfg_dir = self.tmp / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.sessions = []  # (config path, reference, saturate vector)
        for scenario in ("origin", "setpoint", "circular"):
            lines = {
                "scenario": scenario,
                "alpha": "0.75",
                "gamma": "1.0",
                "duration": f"{self.duration:g}",
                "dt": f"{DT:g}",
                "seed": str(int(rng.integers(0, 2**31))),
                "gammas": "1, 5, 15",
            }
            if scenario == "origin":
                x0 = np.concatenate([rng.uniform(-4, 4, 3), rng.uniform(-2.5, 2.5, 3)])
                ref = OriginReference()
            elif scenario == "setpoint":
                x0 = np.zeros(6)
                target = tuple(float(x) for x in rng.uniform((-0.5, -0.5, 0.3), (0.5, 0.5, 1.2)))
                lines["setpoint"] = ", ".join(repr(x) for x in target)
                ref = SetpointReference(position=target)
            else:
                x0 = np.concatenate([rng.uniform(-0.2, 0.2, 3), np.zeros(3)])
                radius = float(rng.uniform(0.3, 0.6))
                lines["circle_radius"] = repr(radius)
                ref = CircularReference(radius=radius)
                lines["circle_center_x"] = repr(ref.center[0])
                lines["circle_center_y"] = repr(ref.center[1])
                lines["circle_altitude"] = repr(ref.altitude)
                lines["circle_omega"] = repr(ref.omega)
            lines["initial_state"] = ", ".join(repr(float(x)) for x in x0)
            path = cfg_dir / f"{scenario}.txt"
            path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
            v = rng.uniform(-20.0, 20.0, 3)
            self.sessions.append((path, ref, [repr(float(x)) for x in v]))
        self.replay = []
        self.counter = 0
        warm = self.tmp / "warm"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli_main(["synth", "--out", str(warm)])
            cli_main(["verify", str(warm / "certificate.txt"), "--samples", "200"])
            cli_main(["saturate", *self.sessions[0][2], "--oracle"])
        shutil.rmtree(warm)

    def calls(self) -> list:
        out = []
        n = _grid_steps(self.duration)
        for i, (cfg, ref, vec) in enumerate(self.sessions):
            out.append(Call(cfg.stem, lambda i=i: self.session(i),
                            lambda res, i=i: self.check(i, res), 6, 4 * n))
        return out

    def session(self, i: int):
        """One README session in a fresh directory; returns (dir, results)."""
        cfg, _ref, vec = self.sessions[i]
        self.counter += 1
        d = self.tmp / f"session{self.counter}"
        cert = str(d / "certificate.txt")
        results = []

        def cli(*argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli_main(list(argv))
            results.append((argv[0], rc, buf.getvalue()))

        cli("synth", "--config", str(cfg), "--out", str(d))
        cli("verify", cert)
        cli("simulate", "--config", str(cfg), "--certificate", cert, "--out", str(d))
        cli("sweep", "--config", str(cfg), "--out", str(d))
        cli("saturate", *vec, "--oracle")
        tampered = d / "tampered.txt"
        text = Path(cert).read_text(encoding="utf-8")
        eps = float(_parse_kv_text(text)["eps"])
        tampered.write_text(text.replace(f"eps = {eps:.17g}", f"eps = {eps * 1.5:.17g}"),
                            encoding="utf-8")
        cli("verify", str(tampered))
        return d, results

    def check(self, i: int, res) -> list:
        d, results = res
        cfg, ref, _vec = self.sessions[i]
        tag = f"session {cfg.stem}"
        try:
            return self._check(tag, d, results, ref)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _check(self, tag, d, results, ref) -> list:
        fails = []
        codes = [rc for _, rc, _ in results]
        if codes != [0, 0, 0, 0, 0, 3]:
            return [f"{tag}: exit codes {codes}, expected [0, 0, 0, 0, 0, 3]"]
        out = {cmd if k != 5 else "tampered": _parse_kv_text(text)
               for k, (cmd, _rc, text) in enumerate(results)}
        if out["verify"].get("passed") != "true" or out["tampered"].get("passed") != "false":
            fails.append(f"{tag}: verify verdicts {out['verify']} / {out['tampered']}")
        sat = out["saturate"]
        if abs(float(sat["lambda"]) - float(sat["lambda_oracle"])) > 1e-8:
            fails.append(f"{tag}: saturate {sat}")
        if out["simulate"].get("n_violations") != "0":
            fails.append(f"{tag}: simulate violations")
        n = _grid_steps(self.duration)
        sweep_viol = [v for k, v in out["sweep"].items() if k.endswith("_n_violations")]
        if sweep_viol != ["0"] * 3:
            fails.append(f"{tag}: sweep violations {sweep_viol}")
        traces = {p.name: _read_csv(p) for p in [d / "trace.csv", *d.glob("trace_gamma_*.csv")]}
        if len(traces) != 4:
            fails.append(f"{tag}: expected 3 sweep traces, found {sorted(traces)}")
        for name, (_header, rows) in traces.items():
            if len(rows) != n + 1:
                fails.append(f"{tag}: {name} has {len(rows)} rows, expected {n + 1}")
        header, rows = traces["trace.csv"]
        t = _columns(header, rows, ["t"])[:, 0]
        xi = _columns(header, rows, ["x", "y", "z", "xd", "yd", "zd"])
        v = _columns(header, rows, ["v1", "v2", "v3"])
        if not np.all(in_command_set(v, self.params)):
            fails.append(f"{tag}: command outside the set")
        if isinstance(ref, SetpointReference):
            tail = t >= t[-1] - 2.0
            err = float(np.max(np.linalg.norm(xi[tail, :3] - np.asarray(ref.position), axis=1)))
            if err >= 0.01:
                fails.append(f"{tag}: setpoint error {err} m")
        if not self._replay_done:
            refs = np.stack([ref.state(tk) for tk in t])
            self.replay.append(ReplaySet(xi, refs, None, self.cert, self.params))
        return fails

    _replay_done = False

    def end_round(self) -> None:
        self._replay_done = True


WORKLOADS = {w.name: w for w in (ClosedLoop, Verify, CliSession)}


class ControlReplay:
    """Replays ``control_law`` on the rows of some ReplaySets in blocks,
    cycling through them, and times each call from outside. Keeps the p50
    and p99 latency of each block.

    A replayed command must lie in the command set and on the ray of the raw
    feedback with a factor in (0, 1], equal the raw feedback when that is
    feasible, and, on certified states, keep gamma * factor >= 1.
    """

    def __init__(self, sets: list):
        self.sets = sets
        self.set_idx = 0
        self.row = 0
        self.calls = 0
        self.block_percentiles: list = []  # (p50, p99) in us, one per block
        self.failures: list = []

    def block(self, n: int) -> None:
        lat = array("q")
        while len(lat) < n:
            s = self.sets[self.set_idx]
            stop = min(len(s.xi), self.row + n - len(lat))
            self._replay(s, self.row, stop, lat)
            self.row = stop
            if stop == len(s.xi):
                self.set_idx = (self.set_idx + 1) % len(self.sets)
                self.row = 0
        self.calls += len(lat)
        p50, p99 = np.percentile(np.frombuffer(lat, dtype=np.int64), [50, 99]) / 1e3
        self.block_percentiles.append((float(p50), float(p99)))

    def _replay(self, s: ReplaySet, lo: int, hi: int, lat) -> None:
        clock = time.perf_counter_ns
        law = flatsat.control_law
        v = np.empty((hi - lo, 3))
        for k in range(lo, hi):
            ff = None if s.ff is None else s.ff[k]
            t0 = clock()
            out = law(s.xi[k], s.ref[k], s.cert, s.params, feedforward_accel=ff)
            t1 = clock()
            lat.append(t1 - t0)
            v[k - lo] = out[0] if isinstance(out, tuple) else out
        raw = raw_feedback(s.xi[lo:hi], s.ref[lo:hi], s.cert,
                           None if s.ff is None else s.ff[lo:hi])
        norm2 = np.einsum("ij,ij->i", raw, raw)
        lam = np.einsum("ij,ij->i", v, raw) / norm2
        scale = 1.0 + np.sqrt(norm2)
        off_ray = np.linalg.norm(v - lam[:, None] * raw, axis=1) > 1e-9 * scale
        feasible = in_command_set(raw, s.params)
        bad = (
            ~in_command_set(v, s.params)
            | off_ray
            | (lam <= 0.0)
            | (lam > 1.0 + 1e-12)
            | (feasible & (np.linalg.norm(v - raw, axis=1) > 1e-9 * scale))
        )
        if s.certified:
            bad |= ~feasible & (s.cert.gamma * lam < 1.0 - 1e-9)
        if np.any(bad):
            k = int(np.argmax(bad))
            self.failures.append(f"control_law replay: command {v[k]} for raw {raw[k]}")
