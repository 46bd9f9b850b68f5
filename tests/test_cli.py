
import inspect
from dataclasses import replace

import pytest

from flatsat import CircularReference, ConstraintParams, Scenario
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

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.txt", alpha="fast")
        with pytest.raises(ValueError, match="alpha"):
            load_config(path)

    def test_library_defaults(self, params, cert075):
        cfg = replace(RunConfig(), scenario="circular")
        assert cfg.params() == ConstraintParams()
        assert cfg.reference() == CircularReference()
        sc = cfg.build_scenario(cert075, params)
        for name in ("psi", "feedforward", "invariance_mode"):
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


class TestSaturate:
    def test_halfspace_example(self, capsys):
        rc = main(["saturate", "0", "0", "-19.62"])
        assert rc == EXIT_OK
        out = parse_kv(capsys.readouterr().out)
        assert float(out["lambda"]) == pytest.approx(0.5, abs=1e-15)
        assert out["active"] == "halfspace"

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
        assert parse_kv(out)["active"] == "halfspace"

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
        summary = parse_kv((tmp_path / "summary.txt").read_text())
        assert int(summary["n_violations"]) == 0
        assert list(summary) == [
            "rms_pos_error_steady", "max_decay_residual", "saturation_duty",
            "ctrl_time_mean", "ctrl_time_p99", "max_lyapunov", "min_ball_margin",
            "min_cone_margin", "min_half_margin", "min_thrust_margin",
            "min_roll_margin", "min_pitch_margin", "n_violations", "gamma",
        ]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt", duration="2.0")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        # summaries agree except for the wall-clock timing statistics
        strip = lambda text: {
            k: v
            for k, v in parse_kv(text).items()
            if not k.startswith("ctrl_time")
        }
        assert strip((out_a / "summary.txt").read_text()) == strip(
            (out_b / "summary.txt").read_text()
        )

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

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.txt", duration="1.0")
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("FLATSAT_OUTDIR", str(env_dir))
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        assert (env_dir / "trace.csv").exists()


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

    def test_zero_samples_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_OK
        rc = main(["verify", str(tmp_path / "certificate.txt"), "--samples", "0"])
        assert rc == EXIT_USAGE
        assert "n_samples must be positive" in capsys.readouterr().err

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

    def test_aborted_run_writes_partial_trace(self, tmp_path, capsys):
        # a NaN yaw aborts each run at its first sample, as in simulate
        cfg = write_config(tmp_path / "c.txt", duration="1.0", psi="nan", gammas="1, 5")
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_VIOLATIONS
        assert "simulation aborted" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.glob("trace*.csv")) == [
            "trace_gamma_1_partial.csv"
        ]
        assert not (tmp_path / "sweep_summary.txt").exists()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VIOLATIONS
        assert (tmp_path / "trace_partial.csv").read_bytes() == (
            tmp_path / "trace_gamma_1_partial.csv"
        ).read_bytes()


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
        ],
    )
    def test_parse_error_returns_usage_code(self, argv, message, capsys):
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_help_returns_ok(self, capsys):
        assert main(["simulate", "--help"]) == EXIT_OK
        assert "--certificate" in capsys.readouterr().out
