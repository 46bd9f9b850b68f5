"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench

Each workload is run once per mode in smoke mode (one round), and its
result line is checked against the metric names and units in
BENCHMARK.json.
"""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def run_smoke(workload: str, trace: int, seed: int = 7):
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


smoke = functools.lru_cache(maxsize=None)(run_smoke)


def _check_result(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    readable, result = smoke(workload, 0)
    _check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "# failed_frac = 0 ratio" in readable
    assert any('"seed": 7' in line and '"nproc"' in line for line in readable)


@pytest.mark.parametrize(
    "workload, fixed_counts",
    [
        ("closed_loop", {"simulation.run.calls": 29, "simulation.metrics.calls": 29,
                         "simulation.Trace.to_csv.calls": 0}),
        ("verify", {"synthesis.verify_cert.calls": 3, "simulation.run.calls": 0}),
        ("cli_session", {"cli.cmd_synth.calls": 3, "cli.cmd_verify.calls": 6,
                         "cli.cmd_simulate.calls": 3, "cli.cmd_sweep.calls": 3,
                         "cli.cmd_saturate.calls": 3}),
    ],
)
def test_per_layer_metrics(workload, fixed_counts):
    _readable, result = smoke(workload, 1)
    _check_result(result, SPEC["per_layer"])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name, count in fixed_counts.items():
        assert values[name] == count, name
    assert values["saturation.saturate.calls"] > 0
    assert values["trace.absent_functions"] == 0


def test_traced_counts_repeat_exactly():
    from tracer import RATIO_METRICS

    _, first = smoke("closed_loop", 1)
    _, same = run_smoke("closed_loop", 1)
    _, other_seed = run_smoke("closed_loop", 1, seed=8)
    counts = [k for k in first["metrics"] if k.endswith(".calls")]
    counts += [k for k, _unit in RATIO_METRICS if k != "trace_overhead_frac"]
    for k in counts:
        assert same["metrics"][k]["value"] == first["metrics"][k]["value"], k
    # the time grid, not the seed, fixes how often the control law runs
    k = "simulation.control_law.calls"
    assert other_seed["metrics"][k]["value"] == first["metrics"][k]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_reports_absent_functions_and_restores_hooks():
    import flatsat.simulation
    from tracer import TARGETS, Tracer

    original = flatsat.simulation.saturate
    tracer = Tracer(TARGETS + (("simulation", "no_such_function"),))
    tracer.install()
    try:
        assert tracer.absent == ["simulation.no_such_function"]
        assert flatsat.simulation.saturate is not original
        assert flatsat.synthesis.saturate is flatsat.simulation.saturate
    finally:
        tracer.uninstall()
    assert flatsat.simulation.saturate is original


def test_inputs_depend_only_on_the_seed(tmp_path):
    from workloads import ClosedLoop

    def starts(seed):
        wl = ClosedLoop(seed, tmp_path)
        wl.setup()
        return [sc.initial_state for _kind, sc in wl.runs]

    a, b, c = starts(3), starts(3), starts(4)
    assert all((x == y).all() for x, y in zip(a, b))
    assert not all((x == y).all() for x, y in zip(a, c))
