
import errno
import inspect
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flatsat import (
    CircularReference,
    ConstraintParams,
    OriginReference,
    Scenario,
    SetpointReference,
    boundary_states,
    max_inscribed_ball,
    run,
)
from flatsat import cli
from flatsat.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    RunConfig,
    load_config,
    main,
)
from flatsat.kvformat import parse_kv
from flatsat.synthesis import (
    DEFAULT_MARGIN,
    load_certificate,
    save_certificate,
    solve_stabilizing_P,
    synthesize_certificate,
)

from conftest import SCRIPTS, run_script


# finite configs whose runs overflow: the first run's metrics, and a
# sweep's gamma 15 run after its gamma 1 run has completed
OVERFLOW_METRICS = {"initial_state": "1e154, 0, 0, 0, 0, 0", "duration": "1"}
OVERFLOW_LATER_RUN = {"initial_state": "0, 0, 0, 1.5e153, 0, 0", "duration": "1",
                      "gammas": "1, 15"}


def snapshot(root):
    """Every path under ``root``, relative to it, with the bytes of each
    file (None for a directory)."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def no_space(path, *args, **kwargs):
    """A stand-in for a file write on a full disk."""
    raise OSError(errno.ENOSPC, "No space left on device", str(path))


def write_config(path, **pairs):
    path.write_text(
        "# test config\n" + "".join(f"{k} = {v}\n" for k, v in pairs.items()),
        encoding="utf-8",
    )
    return str(path)


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.txt"))
        assert cfg == RunConfig()

    def test_values_parsed(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path / "c.txt",
                alpha="1.25",
                gamma="4.5",
                scenario="circular",
                feedforward="true",
                gammas="1, 2.5, 7",
                initial_state="0,0,0,0,0,0",
            )
        )
        assert cfg.alpha == 1.25
        assert cfg.gammas == (1.0, 2.5, 7.0)
        assert cfg.feedforward is True
        assert cfg.initial_state == (0.0,) * 6

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.txt", tmax="14.0")
        with pytest.raises(ValueError, match="tmax"):
            load_config(path)

    def test_circle_velocity_mode_is_not_a_key(self, tmp_path, capsys):
        # the circle's velocity is always the derivative of its position
        path = write_config(tmp_path / "c.txt", scenario="circular", circle_velocity_mode="zero")
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "run")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: unknown config keys: circle_velocity_mode\n"

    def test_invariance_mode_is_not_a_key(self, tmp_path, capsys):
        # invariance mode is the library's Scenario field, which only
        # ``flatsat invariance`` sets, for each of its runs
        path = write_config(tmp_path / "c.txt", invariance_mode="true")
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "run")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: unknown config keys: invariance_mode\n"

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.txt", alpha="fast")
        with pytest.raises(ValueError, match="alpha"):
            load_config(path)

    def test_negative_seed_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.txt", seed="-1")
        with pytest.raises(
            ValueError, match="config key 'seed': expected a non-negative integer, got -1"
        ):
            load_config(path)

    def test_library_defaults(self, params, cert075):
        cfg = replace(RunConfig(), scenario="circular")
        assert cfg.params() == ConstraintParams()
        assert cfg.reference() == CircularReference()
        sc = cfg.build_scenario(cert075, params)
        for name in ("psi", "feedforward"):
            assert getattr(sc, name) == getattr(Scenario, name), name

    def test_margin_defaults_are_one_constant(self):
        defaults = [
            inspect.signature(f).parameters["margin"].default
            for f in (solve_stabilizing_P, synthesize_certificate, save_certificate)
        ]
        assert defaults + [RunConfig().margin] == [DEFAULT_MARGIN] * 4


class TestSynth:
    def test_writes_certificate_and_report(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        report = parse_kv(out)
        assert float(report["rho"]) == pytest.approx(2.9019, abs=1e-3)
        assert float(report["eps"]) == pytest.approx(3.8692, abs=1e-3)
        assert (tmp_path / "certificate.txt").exists()
        assert (tmp_path / "synth_report.txt").exists()

    def test_alpha_flag(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path), "--alpha", "1.25"])
        assert rc == EXIT_OK
        report = parse_kv(capsys.readouterr().out)
        assert float(report["p1"]) == pytest.approx(0.9766, abs=1e-2)
        assert float(report["p2"]) == pytest.approx(0.7813, abs=1e-2)
        assert float(report["p3"]) == pytest.approx(1.25, abs=1e-2)

    def test_infeasible_hover_diagnostic(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", t_max="9.0")
        rc = main(["synth", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "infeasible hover" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "simulate"])
    @pytest.mark.parametrize(
        "pairs, message",
        [({"t_max": "9.810000000000004"},
          "the limits g=9.81, t_max=9.810000000000004 give the saturation backoff "
          "-2.0073781250000047, outside [1 - 2^-20, 1)"),
         ({"g": "1e-200", "t_max": "2e-200"},
          "the limits t_max=2e-200 give t2_max = 0.0, not a normal float"),
         ({"phi_max": "1.4916681462400413e-154", "theta_max": "1.4916681462400413e-154"},
          "the limits phi_max=1.4916681462400413e-154, theta_max=1.4916681462400413e-154 give "
          "tan2_eps_inside = 2.2250738585071994e-308, not a normal float")],
        ids=["t_max_2_ulps_above_g", "underflowing_squares", "subnormal_margined_cone_bound"],
    )
    def test_limits_outside_the_rounding_analysis_rejected(self, tmp_path, capsys, command,
                                                           pairs, message):
        # limits that the derivation of the membership margin and of the
        # backoff does not cover, named before any output: a t_max so near
        # g that the backoff is negative (a simulate that fails mid-run), a
        # g and t_max whose squares underflow (a division by zero) and angles
        # whose cone bound is normal but whose margined one is subnormal
        cfg = write_config(tmp_path / "c.txt", **pairs)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.startswith(f"error: {message}")
        assert stderr.count("\n") == 1
        assert not out.exists()

    def test_infeasible_margin_exit_code(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path), "--margin", "2.5"])
        assert rc == EXIT_INFEASIBLE
        assert "synthesis error" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_infeasible(self, tmp_path, capsys, gamma):
        rc = main(["synth", "--out", str(tmp_path), "--gamma", gamma])
        assert rc == EXIT_INFEASIBLE
        assert "gamma must be >= 1 and finite" in capsys.readouterr().err
        assert not (tmp_path / "certificate.txt").exists()

    def test_tiny_alpha_exit_code(self, tmp_path, capsys):
        # the huge alpha builds a finite gain whose exact residual is positive
        for args, why in ((["--alpha", "1e-100"], "overflows"),
                          (["--alpha", "1e79", "--margin", "0"], "residual")):
            rc = main(["synth", "--out", str(tmp_path), *args])
            assert rc == EXIT_INFEASIBLE
            assert why in capsys.readouterr().err

    def test_negative_seed_writes_no_certificate(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", seed="-1")
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert "config key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSaturate:
    def test_halfspace_example(self, capsys):
        # the ray through the apex leaves the cone there, at factor 1/2,
        # and the backoff puts the output just above it
        rc = main(["saturate", "0", "0", "-19.62"])
        assert rc == EXIT_OK
        out = parse_kv(capsys.readouterr().out)
        assert float(out["lambda"]) == 0.5 * ConstraintParams().backoff
        assert out["active"] == "cone"

    def test_unsaturated(self, capsys):
        rc = main(["saturate", "0", "0", "0"])
        assert rc == EXIT_OK
        out = parse_kv(capsys.readouterr().out)
        assert out["saturated"] == "false"
        assert float(out["lambda"]) == 1.0

    def test_non_finite_command_rejected(self, capsys):
        rc = main(["saturate", "nan", "0", "0"])
        assert rc == EXIT_USAGE
        assert "no feasible pullback factor" in capsys.readouterr().err

    def test_overflowing_command_rejected(self, capsys):
        # "--" ends the options; the exponent form also parses without it
        rc = main(["saturate", "--", "0", "0", "-1e200"])
        assert rc == EXIT_USAGE
        assert "no feasible pullback factor" in capsys.readouterr().err

    def test_negative_exponent_form_is_a_component(self, capsys):
        rc = main(["saturate", "0", "0", "-2e1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert main(["saturate", "--", "0", "0", "-2e1"]) == EXIT_OK
        assert out == capsys.readouterr().out
        assert parse_kv(out)["active"] == "cone"

    @pytest.mark.parametrize("v3", ["-1e200", "-inf"])
    def test_negative_non_finite_or_overflowing_component_rejected(self, capsys, v3):
        rc = main(["saturate", "0", "0", v3])
        assert rc == EXIT_USAGE
        assert "no feasible pullback factor" in capsys.readouterr().err

    def test_options_parse_beside_negative_components(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.txt", g=9.81)
        rc = main(["saturate", "-1.5e0", "--config", cfg, "-2", "-3E1", "--oracle"])
        assert rc == EXIT_OK
        out = parse_kv(capsys.readouterr().out)
        assert abs(float(out["lambda"]) - float(out["lambda_oracle"])) <= 1e-8

    def test_oracle_flag(self, capsys):
        rc = main(["saturate", "1.5", "-2.0", "-30.0", "--oracle"])
        assert rc == EXIT_OK
        out = parse_kv(capsys.readouterr().out)
        assert abs(float(out["lambda"]) - float(out["lambda_oracle"])) <= 1e-8


class TestSimulate:
    def test_origin_run_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", duration="2.0")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "summary.txt").exists()
        text = (tmp_path / "summary.txt").read_text()
        summary = parse_kv(text)
        assert int(summary["n_violations"]) == 0
        assert list(summary) == [
            "rms_pos_error_steady", "max_decay_residual", "saturation_duty",
            "max_lyapunov", "min_ball_margin", "min_cone_margin", "min_half_margin",
            "min_thrust_margin", "min_roll_margin", "min_pitch_margin",
            "n_violations", "gamma",
        ]
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("command, summary", [("simulate", "summary.txt"),
                                                  ("sweep", "sweep_summary.txt")])
    def test_stdout_is_the_summary_file(self, tmp_path, capsys, command, summary):
        # a saturating run, so the summary has more than zeros to print
        cfg = write_config(tmp_path / "c.txt", duration="2.0", gamma="15", gammas="1, 15")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        text = (tmp_path / "out" / summary).read_bytes()
        duty = [v for k, v in parse_kv(text.decode()).items() if k.endswith("saturation_duty")]
        assert float(duty[-1]) > 0.0
        assert capsys.readouterr().out.encode() == text

    def test_byte_identical_reruns(self, tmp_path, capsys):
        """synth, verify (stdout saved beside the certificate), simulate and
        sweep write the same bytes into two directories, every file."""
        cfg = write_config(tmp_path / "c.txt", duration="2.0")
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["synth", "--config", cfg, "--out", str(out)]) == EXIT_OK
            capsys.readouterr()
            rc = main(["verify", str(out / "certificate.txt"), "--samples", "2000"])
            assert rc == EXIT_OK
            (out / "verify.txt").write_text(capsys.readouterr().out)
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        files = [{p.name: p.read_bytes() for p in out.iterdir()} for out in outs]
        assert sorted(files[0]) == [
            "certificate.txt", "summary.txt", "sweep_summary.txt", "synth_report.txt",
            "trace.csv", "trace_gamma_1.csv", "trace_gamma_15.csv", "trace_gamma_5.csv",
            "verify.txt",
        ]
        assert files[0] == files[1]

    def test_accepts_synthesized_certificate(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        cfg = write_config(tmp_path / "c.txt", duration="2.0")
        rc = main(
            [
                "simulate",
                "--config",
                cfg,
                "--certificate",
                str(tmp_path / "certificate.txt"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == EXIT_OK

    def test_setpoint_config_converges(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.txt",
            scenario="setpoint",
            setpoint="0.3, 0.3, 0.8",
            initial_state="0,0,0,0,0,0",
            alpha="1.25",
            gamma="5.0",
            duration="15.0",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        summary = parse_kv((tmp_path / "summary.txt").read_text())
        assert float(summary["rms_pos_error_steady"]) < 0.01
        assert int(summary["n_violations"]) == 0

    def test_circular_config_reports_steady_rms(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.txt",
            scenario="circular",
            initial_state="0,0,0,0,0,0",
            alpha="1.25",
            gamma="4.5",
            duration="20.0",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        summary = parse_kv(capsys.readouterr().out)
        assert 0.0 < float(summary["rms_pos_error_steady"]) < 0.15

    def test_horizon_not_a_whole_number_of_steps_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", duration="1.01", dt="0.02")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "whole number of steps" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_overflowing_step_count_rejected(self, tmp_path, capsys):
        # one error line naming duration and dt, not an OverflowError
        # traceback or numpy's "Maximum allowed size exceeded"
        for duration, dt, message in [
            ("1e300", "1e-10", "duration / dt overflows: 1e+300 / 1e-10"),
            ("1e300", "1", "duration / dt is too many steps to run: 1e+300 / 1.0 = 1e+300 "
             "steps, whose row buffer exceeds sys.maxsize bytes"),
        ]:
            cfg = write_config(tmp_path / "c.txt", duration=duration, dt=dt)
            rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
            assert rc == EXIT_USAGE
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "trace.csv").exists()

    def test_run_out_of_memory_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # a step count that fits an array index but not memory: one line
        # naming duration, dt and the step count, and no trace
        def out_of_memory(scenario):
            raise MemoryError

        monkeypatch.setattr(cli, "run", out_of_memory)
        cfg = write_config(tmp_path / "c.txt", duration="1e12", dt="1")
        for command in ("simulate", "sweep", "invariance"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE
            assert capsys.readouterr().err == (
                "error: duration / dt = 1000000000000.0 / 1.0 = 1000000000000 steps: "
                "out of memory for the run\n"
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt"]

    def test_certificate_with_nan_gamma_rejected(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        cert_path = tmp_path / "certificate.txt"
        cert_path.write_text(cert_path.read_text().replace("gamma = 1\n", "gamma = nan\n"))
        capsys.readouterr()
        cfg = write_config(tmp_path / "c.txt", duration="1.0")
        rc = main(["simulate", "--config", cfg, "--certificate", str(cert_path),
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "gamma" in capsys.readouterr().err
        assert not list(tmp_path.glob("trace*.csv"))

    def test_certificate_takes_the_gamma_flag(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        cfg = write_config(tmp_path / "c.txt", duration="2.0")
        loaded, synthesized = tmp_path / "loaded", tmp_path / "synthesized"
        cert = str(tmp_path / "certificate.txt")
        rc = main(["simulate", "--config", cfg, "--certificate", cert,
                   "--gamma", "5", "--out", str(loaded)])
        assert rc == EXIT_OK
        assert float(parse_kv((loaded / "summary.txt").read_text())["gamma"]) == 5.0
        # gamma does not enter synthesis: the rescaled certificate runs as a
        # certificate synthesized at gamma 5
        rc = main(["simulate", "--config", cfg, "--gamma", "5", "--out", str(synthesized)])
        assert rc == EXIT_OK
        assert (loaded / "trace.csv").read_bytes() == (synthesized / "trace.csv").read_bytes()

    @pytest.mark.parametrize("gamma", ["0.5", "nan"])
    def test_certificate_with_bad_gamma_flag_infeasible(self, tmp_path, capsys, gamma):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        cfg = write_config(tmp_path / "c.txt", duration="1.0")
        cert = str(tmp_path / "certificate.txt")
        rc = main(["simulate", "--config", cfg, "--certificate", cert,
                   "--gamma", gamma, "--out", str(tmp_path)])
        assert rc == EXIT_INFEASIBLE
        assert "gamma must be >= 1 and finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("trace*.csv"))

    @pytest.mark.parametrize("flag", ["--alpha", "--margin"])
    def test_synthesis_flag_beside_certificate_rejected(self, tmp_path, capsys, flag):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        cfg = write_config(tmp_path / "c.txt", duration="1.0")
        cert = str(tmp_path / "certificate.txt")
        rc = main(["simulate", "--config", cfg, "--certificate", cert,
                   flag, "0.5", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert f"{flag} cannot be combined with --certificate" in capsys.readouterr().err
        assert not list(tmp_path.glob("trace*.csv"))

    def test_config_synthesis_keys_leave_a_loaded_certificate_alone(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        cfg = write_config(tmp_path / "c.txt", duration="1.0", alpha="1.25", gamma="5",
                           margin="0.001")
        cert = str(tmp_path / "certificate.txt")
        rc = main(["simulate", "--config", cfg, "--certificate", cert,
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert float(parse_kv((tmp_path / "summary.txt").read_text())["gamma"]) == 1.0

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("setpoint", "0.3, 0.3", "setpoint needs exactly three values, got 2"),
            ("initial_state", "0, 0, 0, 0, 0", "initial_state needs exactly six values, got 5"),
        ],
        ids=["setpoint", "initial_state"],
    )
    def test_vector_of_wrong_length_rejected(self, tmp_path, capsys, key, value, message):
        cfg = write_config(tmp_path / "c.txt", scenario="setpoint", duration="1.0", **{key: value})
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("trace*.csv"))

    def test_outdir_env_variable_is_not_read(self, tmp_path, monkeypatch):
        # the output directory is the --out flag, else the outdir key
        cfg = write_config(tmp_path / "c.txt", duration="1.0", outdir=tmp_path / "from_config")
        monkeypatch.setenv("FLATSAT_OUTDIR", str(tmp_path / "from_env"))
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "from_config"]
        assert (tmp_path / "from_config" / "trace.csv").exists()


class TestVerify:
    def test_round_trip_passes(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        rc = main(["verify", str(tmp_path / "certificate.txt"), "--samples", "2000"])
        assert rc == EXIT_OK
        out = parse_kv(capsys.readouterr().out)
        assert out["passed"] == "true"

    def test_tampered_level_fails_with_located_sample(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        cert_path = tmp_path / "certificate.txt"
        _, cert, _ = load_certificate(cert_path)
        text = cert_path.read_text().replace(
            f"eps = {cert.eps:.17g}", f"eps = {cert.eps * 1.5:.17g}"
        )
        cert_path.write_text(text)
        rc = main(["verify", str(cert_path), "--samples", "2000"])
        assert rc == EXIT_VIOLATIONS
        out = parse_kv(capsys.readouterr().out)
        assert out["passed"] == "false"
        assert int(out["worst_sample"]) >= 0

    def test_negative_stored_seed_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        cert_path = tmp_path / "certificate.txt"
        cert_path.write_text(cert_path.read_text().replace("seed = 0\n", "seed = -2\n"))
        capsys.readouterr()
        assert main(["verify", str(cert_path), "--samples", "200"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: certificate key 'seed': expected a non-negative integer, got -2\n"
        )

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_certificate_limits_outside_the_rounding_analysis_rejected(self, tmp_path, capsys,
                                                                        command):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        cert_path = tmp_path / "certificate.txt"
        text = cert_path.read_text()
        t_max = f"t_max = {ConstraintParams().t_max:.17g}\n"
        assert t_max in text
        cert_path.write_text(text.replace(t_max, "t_max = 9.810000000000004\n"))
        capsys.readouterr()
        argv = {"verify": ["verify", str(cert_path)],
                "simulate": ["simulate", "--certificate", str(cert_path), "--out",
                             str(tmp_path / "out")]}[command]
        assert main(argv) == EXIT_USAGE
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.startswith(
            "error: the limits g=9.81, t_max=9.810000000000004 give the saturation backoff ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_nan_eps_max_usage_error(self, tmp_path, capsys, command):
        # NaN fails every comparison, so the consistency check must not pass
        # it by testing for a difference above the tolerance
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        cert_path = tmp_path / "certificate.txt"
        p, _, _ = load_certificate(cert_path)
        cert_path.write_text(
            cert_path.read_text().replace(f"eps_max = {p.eps_max:.17g}\n", "eps_max = nan\n")
        )
        capsys.readouterr()
        if command == "verify":
            argv = ["verify", str(cert_path)]
        else:
            argv = ["simulate", "--certificate", str(cert_path), "--out", str(tmp_path / "run")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: stored eps_max nan inconsistent with angle limits\n"
        )

    def test_zero_samples_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        rc = main(["verify", str(tmp_path / "certificate.txt"), "--samples", "0"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: --samples 0: n_samples must be positive, got 0\n"
        )

    def test_sample_count_too_large_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # one line naming the flag and the count: 1e20 is rejected before the
        # draw, and so is a count that memory cannot hold
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        cert = str(tmp_path / "certificate.txt")
        assert main(["verify", cert, "--samples", str(10**20)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: --samples {10**20}: n = {10**20} boundary states: their (n, 6) float64 "
            "block exceeds sys.maxsize bytes\n"
        )

        def out_of_memory(cert, params, n_samples, seed=0):
            raise MemoryError

        monkeypatch.setattr(cli, "verify_cert", out_of_memory)
        assert main(["verify", cert, "--samples", "1000000000"]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: --samples 1000000000: out of memory for the samples\n"
        )

    def test_report_keys_in_order(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "certificate.txt"), "--samples", "200"]) == EXIT_OK
        assert list(parse_kv(capsys.readouterr().out)) == [
            "closed_loop_residual", "n_samples", "seed", "n_saturated",
            "inward_failures", "decay_failures", "gain_failures", "worst_inward",
            "worst_decay", "worst_gain_margin", "worst_sample", "passed",
        ]


class TestSweep:
    def test_three_traces_and_combined_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", duration="2.0", gammas="1, 5, 15")
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        for tag in ("1", "5", "15"):
            assert (tmp_path / f"trace_gamma_{tag}.csv").exists()
        combined = parse_kv((tmp_path / "sweep_summary.txt").read_text())
        assert float(combined["run0_gamma"]) == 1.0
        assert float(combined["run2_gamma"]) == 15.0
        assert int(combined["run0_n_violations"]) == 0
        # unit gamma never saturates in the regulation study
        assert float(combined["run0_saturation_duty"]) == 0.0
        assert float(combined["run2_saturation_duty"]) > 0.0

    def test_synthesizes_once(self, tmp_path, monkeypatch):
        import flatsat.cli as cli

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return synthesize_certificate(*args, **kwargs)

        monkeypatch.setattr(cli, "synthesize_certificate", counting)
        cfg = write_config(tmp_path / "c.txt", duration="1.0", gammas="1, 5, 15")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("gammas", ["0.5, 5", "5, 0.5"])
    def test_gamma_below_one_infeasible_before_any_trace(self, tmp_path, gammas):
        cfg = write_config(tmp_path / "c.txt", duration="1.0", gammas=gammas)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_INFEASIBLE
        assert not list(tmp_path.glob("trace_gamma_*.csv"))

    @pytest.mark.parametrize("gammas", ["1,nan", "nan,1", "1,inf"])
    def test_non_finite_gamma_infeasible_before_any_trace(self, tmp_path, capsys, gammas):
        cfg = write_config(tmp_path / "c.txt", duration="1.0")
        rc = main(["sweep", "--config", cfg, "--gammas", gammas, "--out", str(tmp_path)])
        assert rc == EXIT_INFEASIBLE
        assert "gamma must be >= 1 and finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("trace_gamma_*.csv"))

    def test_gammas_equal_to_six_digits_get_their_own_traces(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt", duration="1.0")
        rc = main(["sweep", "--config", cfg, "--gammas", "5,5.000001", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert sorted(p.name for p in tmp_path.glob("trace*.csv")) == [
            "trace_gamma_5.csv", "trace_gamma_5p000001.csv"
        ]
        assert (tmp_path / "trace_gamma_5.csv").read_bytes() != (
            tmp_path / "trace_gamma_5p000001.csv"
        ).read_bytes()

    def test_gamma_tags(self):
        from flatsat.cli import _gamma_tag

        # short where it reads back, the shortest exact repr otherwise
        assert [_gamma_tag(g) for g in (1.0, 5.0, 15.0, 2.5, 1e20)] == [
            "1", "5", "15", "2p5", "1e+20"
        ]
        assert _gamma_tag(5.000001) == "5p000001"
        assert _gamma_tag(1.0 + 2.0**-52) == "1p0000000000000002"
        assert _gamma_tag(4.0 / 3.0) == "1p3333333333333333"

    def test_invariance_study_names_traces_by_gamma_tag(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", duration="0.2")
        out = tmp_path / "out"
        rc = main(["invariance", "--config", cfg, "--gammas", "5,5.000001", "--starts", "2",
                   "--out", str(out)])
        # the runs' monitor verdict is the exit status: clean, one line per gamma
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[1:]] == ["gamma=  5.0"] * 2
        assert all(" violations=0 " in line for line in lines[1:])
        assert sorted(p.name for p in out.iterdir()) == [
            "trace_g5_s00.csv", "trace_g5_s01.csv",
            "trace_g5p000001_s00.csv", "trace_g5p000001_s01.csv",
        ]

    def test_invariance_study_exits_on_a_monitor_violation(self, tmp_path, monkeypatch, capsys):
        def violating(scenario):
            trace = run(scenario)
            trace.violations.append("t=0: left the certified ellipsoid")
            return trace

        monkeypatch.setattr(cli, "run", violating)
        cfg = write_config(tmp_path / "c.txt", duration="0.2")
        out = tmp_path / "out"
        rc = main(["invariance", "--config", cfg, "--gammas", "1,5", "--starts", "2",
                   "--out", str(out)])
        # the table is printed whole, then the command exits as simulate does,
        # with simulate's violation lines on stderr
        assert rc == EXIT_VIOLATIONS
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 3
        assert all(line.startswith("gamma=") and " violations=2 " in line for line in lines[1:])
        assert captured.err == "violation: t=0: left the certified ellipsoid\n" * 4
        assert len(list(out.glob("*.csv"))) == 4

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_repeated_gamma_rejected_before_any_trace(self, tmp_path, capsys, where):
        cfg = write_config(tmp_path / "c.txt", duration="1.0", gammas="1, 5, 5.0")
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path)]
        if where == "flag":
            argv += ["--gammas", "5,1,5"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--gammas (or the gammas config key) lists gamma 5.0 twice" in err
        assert not list(tmp_path.glob("trace_gamma_*.csv"))
        assert not (tmp_path / "sweep_summary.txt").exists()

    def test_monitor_violations_printed_as_in_simulate(self, tmp_path, capsys, monkeypatch):
        from flatsat import simulation

        # a box monitor that rejects every sample
        monkeypatch.setattr(simulation, "_u_clauses",
                            lambda thrust, roll, pitch, p: np.zeros(len(thrust), dtype=bool))
        cfg = write_config(tmp_path / "c.txt", duration="1.0", gammas="1, 5")
        capsys.readouterr()
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VIOLATIONS
        swept = capsys.readouterr().err.splitlines()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VIOLATIONS
        simulated = capsys.readouterr().err.splitlines()
        # the first 20 violations of each run, gamma 1 first
        assert len(swept) == 40 and len(simulated) == 20
        assert swept[:20] == simulated
        assert simulated[0].startswith("violation: t=0: physical input left the box")

    @pytest.mark.parametrize(
        "pairs, message",
        [({"psi": "nan"}, "psi must be finite, got nan"),
         ({"scenario": "circular", "circle_omega": "nan"},
          "reference.state is not finite at t=0.0"),
         # omega^2 overflows, so the circle's accel computes inf * sin(0)
         ({"scenario": "circular", "feedforward": "true", "circle_omega": "1e200"},
          "reference.accel is not finite at t=0.0"),
         ({"initial_state": "1e160, 0, 0, 0, 0, 0"},
          "sample at t=0.0 rejected, state [1.e+160 0.e+000 0.e+000 0.e+000 0.e+000 "
          "0.e+000], reference [0. 0. 0. 0. 0. 0.]: no feasible pullback factor")],
        ids=["nan_yaw", "nan_reference", "infinite_accel", "overflow"],
    )
    def test_non_finite_input_writes_no_trace(self, tmp_path, capsys, pairs, message):
        # a config error in simulate and sweep alike: exit 1 before any trace
        cfg = write_config(tmp_path / "c.txt", duration="1.0", gammas="1, 5", **pairs)
        for command in ("sweep", "simulate"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE
            assert capsys.readouterr().err.startswith(f"error: {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt"]

    @pytest.mark.parametrize(
        "pairs, message, command",
        [pytest.param(pairs, message, command, id=f"{tag}-{command}")
         for tag, pairs, message, commands in [
             ("horizon", {"duration": "0.03"},
              "duration 0.03 is not a whole number of steps dt = 0.02",
              ("simulate", "sweep", "invariance")),
             ("nan_yaw", {"psi": "nan"}, "psi must be finite, got nan",
              ("simulate", "sweep", "invariance")),
             ("nan_reference", {"scenario": "circular", "circle_omega": "nan"},
              "reference.state is not finite at t=0.0", ("simulate", "sweep", "invariance")),
             # the first run completes and its metrics overflow (invariance
             # draws its own starts)
             ("overflow_metrics", OVERFLOW_METRICS,
              "run metric rms_pos_error_steady = inf is not finite: the run's values overflow",
              ("simulate", "sweep")),
             # the gamma 1 run completes and stages its trace, the gamma 15
             # one overflows
             ("overflow_later_run", OVERFLOW_LATER_RUN,
              "sample at t=0.0 rejected, state [0.0e+000 0.0e+000 0.0e+000 1.5e+153 0.0e+000 "
              "0.0e+000], reference [0. 0. 0. 0. 0. 0.]: no feasible pullback factor for "
              "(-1.687500001081055e+154, -0.0, -0.0)",
              ("sweep",)),
         ] for command in commands],
    )
    def test_failing_run_command_leaves_no_output_directory(self, tmp_path, capsys, command,
                                                            pairs, message):
        # every run command builds its scenarios, and run checks its
        # signals, before the output directory is made; a run that fails
        # later takes the directory and the traces staged before it along
        cfg = write_config(tmp_path / "c.txt", **pairs)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_failing_later_run_keeps_only_what_was_there(self, tmp_path, capsys):
        # the gamma 1 trace is staged, then removed when the gamma 15 run
        # overflows, with every directory made for it; every file that was
        # there before stays as it was, also one of a name the sweep writes
        cfg = write_config(tmp_path / "c.txt", **OVERFLOW_LATER_RUN)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "a" / "b")]) == EXIT_USAGE
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt"]
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        (out / "trace_gamma_1.csv").write_text("old")
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "trace_gamma_1.csv"]
        assert (out / "notes.txt").read_text() == "kept"
        assert (out / "trace_gamma_1.csv").read_text() == "old"
        # the directory of a complete earlier sweep, byte for byte
        clean = write_config(tmp_path / "clean.txt", duration="1", gammas="1, 15")
        earlier = tmp_path / "earlier"
        assert main(["sweep", "--config", clean, "--out", str(earlier)]) == EXIT_OK
        before = snapshot(earlier)
        assert len(before) == 3
        assert main(["sweep", "--config", cfg, "--out", str(earlier)]) == EXIT_USAGE
        assert snapshot(earlier) == before
        assert capsys.readouterr().err.count("error: ") == 3


class TestOutput:
    """The one output rule of the commands that write files: each file is
    staged, and the set is renamed onto its names once the command has
    completed."""

    COMMANDS = {
        "synth": (["synth"], ["certificate.txt", "synth_report.txt"]),
        "simulate": (["simulate"], ["summary.txt", "trace.csv"]),
        "sweep": (["sweep"], ["sweep_summary.txt", "trace_gamma_1.csv",
                              "trace_gamma_15.csv"]),
        "invariance": (["invariance", "--starts", "1"], ["trace_g15_s00.csv",
                                                         "trace_g1_s00.csv"]),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_successful_command_leaves_only_its_files(self, tmp_path, capsys, command):
        argv, names = self.COMMANDS[command]
        cfg = write_config(tmp_path / "c.txt", duration="1", gammas="1, 15")
        out = tmp_path / "a" / "out"
        assert main([*argv, "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == names
        assert sorted(p.name for p in out.parent.iterdir()) == ["out"]

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("command", ["synth", "simulate", "sweep"])
    def test_failing_write_after_the_runs_leaves_nothing(self, tmp_path, capsys, monkeypatch,
                                                        command, existing):
        # the report or summary is the last file a command writes: when
        # the disk is full there, the certificate and the traces go too
        argv, _ = self.COMMANDS[command]
        cfg = write_config(tmp_path / "c.txt", duration="1", gammas="1, 15")
        out = tmp_path / "a" / "out"
        if existing:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept")
        before = snapshot(tmp_path)

        monkeypatch.setattr(Path, "write_text", no_space)
        assert main([*argv, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: [Errno 28] No space left on device")
        assert stderr.count("\n") == 1
        assert snapshot(tmp_path) == before

    def test_files_named_like_staged_ones_are_left_alone(self, tmp_path, capsys, monkeypatch):
        # the files are staged in a directory of their own, so a command
        # that completes, and one whose summary write fails after its trace
        # is staged, leave every file that was there as it was
        cfg = write_config(tmp_path / "c.txt", duration="1")
        out = tmp_path / "out"
        out.mkdir()
        mine = [".summary.txt.staged", ".trace.csv.staged"]
        for name in mine:
            (out / name).write_text("mine")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [*mine, "summary.txt", "trace.csv"]
        assert [(out / name).read_text() for name in mine] == ["mine", "mine"]
        before = snapshot(out)
        monkeypatch.setattr(Path, "write_text", no_space)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: [Errno 28] No space left on device")
        assert snapshot(out) == before

    def test_failing_rename_keeps_the_files_renamed_before_it(self, tmp_path, capsys):
        # a directory where the summary goes: the trace, staged and renamed
        # first, stays; the staged summary does not
        cfg = write_config(tmp_path / "c.txt", duration="1")
        (tmp_path / "out" / "summary.txt").mkdir(parents=True)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["summary.txt",
                                                                        "trace.csv"]


class TestStudyConfigs:
    """The committed tracking-study configs run the setpoint and circle
    studies: alpha 1.25, from rest at the origin."""

    def test_traces_equal_library_runs(self, tmp_path, params, cert125):
        def library_csv(reference, duration, gamma, feedforward=False):
            scenario = Scenario(
                reference=reference,
                initial_state=(0.0,) * 6,
                duration=duration,
                dt=0.02,
                cert=replace(cert125, gamma=gamma),
                params=params,
                feedforward=feedforward,
            )
            path = tmp_path / "library.csv"
            run(scenario).to_csv(path)
            return path.read_bytes()

        out = tmp_path / "setpoint"
        cfg = str(SCRIPTS / "setpoint_study.txt")
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        setpoint = SetpointReference(position=(0.3, 0.3, 0.8))
        for gamma in (1.0, 5.0, 15.0):
            assert (out / f"trace_gamma_{gamma:g}.csv").read_bytes() == library_csv(
                setpoint, 20.0, gamma
            ), gamma
        for name, feedforward in [
            ("circle_study.txt", False), ("circle_feedforward_study.txt", True)
        ]:
            out = tmp_path / name
            assert main(["simulate", "--config", str(SCRIPTS / name), "--out", str(out)]) == EXIT_OK
            assert (out / "trace.csv").read_bytes() == library_csv(
                CircularReference(), 60.0, 4.5, feedforward
            ), name


class TestStudyScripts:
    """The alpha sweep script, and the boundary-start study that ``flatsat
    invariance`` runs."""

    @pytest.mark.parametrize(
        "pairs, args, code, line",
        [
            ({}, ["--gammas", "5,5"], EXIT_USAGE,
             "error: --gammas (or the gammas config key) lists gamma 5.0 twice; "
             "each gamma writes its own trace file"),
            ({}, ["--gammas", "0.5"], EXIT_INFEASIBLE,
             "synthesis error: gamma must be >= 1 and finite, got 0.5"),
            ({}, ["--gammas", "5,0.5"], EXIT_INFEASIBLE,
             "synthesis error: gamma must be >= 1 and finite, got 0.5"),
            ({}, ["--gammas", "x"], EXIT_USAGE,
             "flatsat invariance: error: argument --gammas: invalid float_list value: 'x'"),
            ({}, ["--starts", "0"], EXIT_USAGE, "error: --starts must be at least 1, got 0"),
            ({}, ["--starts", str(10**20)], EXIT_USAGE,
             f"error: --starts {10**20}: n = {10**20} boundary states: their (n, 6) float64 "
             "block exceeds sys.maxsize bytes"),
            ({}, ["--alpha", "0"], EXIT_INFEASIBLE,
             "synthesis error: alpha must be positive and finite, got 0.0"),
            ({"dt": "0"}, [], EXIT_USAGE, "error: dt must be positive, got 0.0"),
            ({"duration": "1.01"}, [], EXIT_USAGE,
             "error: duration 1.01 is not a whole number of steps dt = 0.02"),
            ({"duration": "1e300", "dt": "1e-10"}, [], EXIT_USAGE,
             "error: duration / dt overflows: 1e+300 / 1e-10"),
        ],
        ids=["repeated", "below_one", "below_one_second", "unparsable", "no_starts",
             "too_many_starts", "infeasible_alpha", "zero_dt", "horizon_not_whole_steps",
             "step_count_overflows"],
    )
    def test_invariance_study_rejects_bad_arguments_before_any_run(
        self, tmp_path, capsys, pairs, args, code, line
    ):
        cfg = write_config(tmp_path / "c.txt", **{"duration": "0.2", **pairs})
        out = tmp_path / "out"
        assert main(["invariance", "--config", cfg, "--out", str(out), *args]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        # one error line, after argparse's usage lines if argparse rejects
        assert captured.err.endswith(line + "\n") and captured.err.count("error: ") == 1
        assert not out.exists()

    def test_invariance_study_out_of_memory_is_a_usage_error(self, tmp_path, monkeypatch,
                                                             capsys):
        def out_of_memory(gain, eps, n, seed=0):
            raise MemoryError

        monkeypatch.setattr(cli, "boundary_states", out_of_memory)
        out = tmp_path / "out"
        assert main(["invariance", "--starts", "1000000000", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: --starts 1000000000: out of memory for the starts\n"
        )
        assert not out.exists()

    def test_invariance_traces_equal_library_runs(self, tmp_path, monkeypatch, params,
                                                  cert125):
        # the boundary-start study at alpha 1.25, regulating to the origin
        # and to the setpoint study's hover target: each trace is the library
        # run, in invariance mode, from the boundary_states row of the
        # config's seed added to the reference's state at t = 0
        modes = []
        monkeypatch.setattr(cli, "run", lambda sc: modes.append(sc.invariance_mode) or run(sc))
        starts = boundary_states(cert125.gain, cert125.eps, 2, seed=4)
        for pairs, reference in [
            ({}, OriginReference()),
            ({"scenario": "setpoint"}, SetpointReference(position=(0.3, 0.3, 0.8))),
        ]:
            cfg = write_config(tmp_path / "c.txt", alpha="1.25", duration="1.0", seed="4",
                               **pairs)
            out = tmp_path / type(reference).__name__
            assert main(["invariance", "--config", cfg, "--starts", "2",
                         "--out", str(out)]) == EXIT_OK
            for gamma in (1.0, 5.0, 15.0):
                for i, start in enumerate(starts):
                    scenario = Scenario(
                        reference=reference,
                        initial_state=reference.state(0.0) + start,
                        duration=1.0,
                        dt=0.02,
                        cert=replace(cert125, gamma=gamma),
                        params=params,
                        invariance_mode=True,
                    )
                    path = tmp_path / "library.csv"
                    run(scenario).to_csv(path)
                    assert (out / f"trace_g{gamma:g}_s{i:02d}.csv").read_bytes() == (
                        path.read_bytes()
                    ), (reference, gamma, i)
            assert len(list(out.iterdir())) == 6
        assert modes == [True] * 12

    @pytest.mark.filterwarnings("error")
    def test_alpha_sweep_tabulates_each_alpha(self, monkeypatch, capsys):
        alphas = (0.25, 0.75, 1.25, 3.0)
        run_script("alpha_sweep.py", monkeypatch, "--alphas", ",".join(map(str, alphas)))
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [float(row.split()[0]) for row in rows] == list(alphas)

    def test_alpha_sweep_rejects_unparsable_alphas(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run_script("alpha_sweep.py", monkeypatch, "--alphas", "x")
        assert exc.value.code != 0
        assert "argument --alphas: invalid float_list value: 'x'" in capsys.readouterr().err

    def test_alpha_sweep_names_an_infeasible_alpha(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run_script("alpha_sweep.py", monkeypatch, "--alphas", "0.5,0")
        # sys.exit with a message prints it as one line and exits 1
        assert exc.value.code == (
            "--alphas: alpha 0.0 is infeasible: alpha must be positive and finite, got 0.0"
        )
        assert capsys.readouterr().out.splitlines()[-1].startswith("  0.50 ")

    def test_alpha_sweep_reads_rho_without_a_synthesis(self, monkeypatch, capsys, params):
        import flatsat

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return synthesize_certificate(*args, **kwargs)

        monkeypatch.setattr(flatsat, "synthesize_certificate", counting)
        run_script("alpha_sweep.py", monkeypatch, "--alphas", "0.75")
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"rho = {max_inscribed_ball(params):.4f} (alpha-independent)"
        assert len(lines) == 3 and len(calls) == 1


class TestUsageErrors:
    """argparse's own errors exit 1 like every other usage error; 2 means
    synthesis infeasible."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--bogus"], "unrecognized arguments: --bogus"),
            (["verify"], "the following arguments are required: certificate"),
            (["verify", "c.txt", "--samples", "x"], "invalid int value: 'x'"),
            (["sweep", "--gamma", "3", "--gammas", "1"], "unrecognized arguments: --gamma 3"),
            (["sweep", "--gammas", "1,x"], "argument --gammas: invalid float_list value: '1,x'"),
            (["verify", "c.txt", "--seed", "-3"],
             "argument --seed: invalid non_negative_int value: '-3'"),
        ],
    )
    def test_parse_error_returns_usage_code(self, argv, message, capsys):
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_help_returns_ok(self, capsys):
        assert main(["simulate", "--help"]) == EXIT_OK
        assert "--certificate" in capsys.readouterr().out

    def test_one_parser_serves_repeated_calls(self, tmp_path, capsys):
        """simulate, a usage error, --help and the same simulate again in one
        process: the parser is built once, and each repeated call writes the
        same files and prints the same input-determined output."""
        # an empty cache, as in a fresh process
        cli.build_parser.cache_clear()
        cfg = write_config(tmp_path / "c.txt", duration="1.0")
        outputs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            rc = main(["simulate", "--config", cfg, "--out", str(out)])
            outputs.append((rc, capsys.readouterr().out))
            outputs.append((main(["simulate", "--bogus"]), capsys.readouterr().err))
            outputs.append((main(["simulate", "--help"]), capsys.readouterr().out))
        assert outputs[:3] == outputs[3:]
        assert [rc for rc, _ in outputs[:3]] == [EXIT_OK, EXIT_USAGE, EXIT_OK]
        assert outputs[0][1] == (tmp_path / "a" / "summary.txt").read_text()
        assert "unrecognized arguments: --bogus" in outputs[1][1]
        assert "--certificate" in outputs[2][1]
        files = [{p.name: p.read_bytes() for p in out.iterdir()}
                 for out in (tmp_path / "a", tmp_path / "b")]
        assert sorted(files[0]) == ["summary.txt", "trace.csv"]
        assert files[0] == files[1]
        assert cli.build_parser.cache_info().misses == 1

    def test_command_looked_up_per_call(self, capsys, monkeypatch):
        # a wrapper installed over a command function after the parser is
        # built still runs
        assert main(["saturate", "1", "2", "3"]) == EXIT_OK
        calls = []
        monkeypatch.setattr(cli, "cmd_saturate", lambda args: calls.append(args.v1) or 7)
        assert main(["saturate", "1", "2", "3"]) == 7
        assert calls == [1.0]

    def test_import_builds_no_parser(self):
        # a fresh process: importing the CLI leaves the parser unbuilt
        code = "import flatsat.cli; print(flatsat.cli.build_parser.cache_info().currsize)"
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        assert done.stdout == "0\n"
