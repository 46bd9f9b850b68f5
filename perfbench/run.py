#!/usr/bin/env python3
"""flatsat benchmark: one closed-loop client driving the public API.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 36 --trace 0

Workloads: closed_loop, verify, cli_session (see perfbench/README.md). Every
input comes from ``--seed``. The run imports flatsat from ``src/`` of the
checkout and sets up seven times; ``setup_s`` is the median of the import time
in a fresh interpreter plus the in-process set-up. It then repeats whole
rounds of timed calls until ``--seconds`` have passed, checking every output.
With ``--trace 0`` a first, untimed round records states, each later call is
followed by a replay of the scalar control law on them, and the run prints
the end-to-end metrics, timing each call as the best of its repeats. With
``--trace 1`` it runs untraced rounds for half the time and traced rounds for
the rest, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit in readable form, the sample counts, the
seed and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "ctrl_p50_us": "us",
    "ctrl_p99_us": "us",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import flatsat, flatsat.cli; print(time.perf_counter() - t)"
)
REPLAY_BLOCK = 1000  # control_law calls replayed after each call
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("closed_loop", "verify", "cli_session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round, one set-up, a short replay: a fast check "
                         "that every metric is produced")
    return ap.parse_args(argv)


def import_seconds() -> float:
    """Time to import flatsat in a fresh interpreter, as every CLI call pays."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


class Runner:
    """Times whole rounds of a workload's calls and counts failed checks."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def fail(self, msgs) -> None:
        self.failed += 1
        for m in msgs[: max(0, MAX_REPORTED_FAILURES - self.reported)]:
            self.reported += 1
            print(f"check failed: {m}", file=sys.stderr)

    def round(self, tracer=None, after_call=None):
        """Run one round, calling ``after_call()`` after each checked call;
        returns per-call seconds and per-call items completed (0 when the
        call failed)."""
        durations, items, steps = [], [], 0
        calls = self.wl.calls()
        if tracer:
            tracer.begin_round()
        for call in calls:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = tracer.call(call.fn) if tracer else call.fn()
            except Exception:
                durations.append(time.perf_counter() - t0)
                items.append(0)
                self.fail([f"{call.kind}: raised\n{traceback.format_exc()}"])
                continue
            durations.append(time.perf_counter() - t0)
            try:
                msgs = call.check(out)
            except Exception:
                msgs = [f"{call.kind}: check raised\n{traceback.format_exc()}"]
            items.append(0 if msgs else call.items)
            if msgs:
                self.fail(msgs)
            steps += call.steps
            if after_call:
                after_call()
        if tracer:
            tracer.end_round(steps, len(calls))
        self.wl.end_round()
        return durations, items

    def rounds_for(self, seconds: float, tracer=None, after_call=None):
        """Whole rounds until ``seconds`` have passed (at least one)."""
        out = []
        deadline = time.perf_counter() + seconds
        while True:
            out.append(self.round(tracer, after_call))
            if time.perf_counter() >= deadline:
                return out


def end_to_end(runner, wl, args, setup_s) -> dict:
    from workloads import ControlReplay

    runner.round()  # records the replay states; untimed, as it has no replays
    replay = ControlReplay(wl.replay)
    # a replay block after every call spreads the replays over the run, so
    # they sample the same machine conditions as the calls
    rounds = runner.rounds_for(0.0 if args.smoke else args.seconds,
                               after_call=lambda: replay.block(REPLAY_BLOCK))
    runner.attempted += 1  # the replay counts as one call
    if replay.failures:
        runner.fail(replay.failures)
    # Call i of a round does the same work in every round, so each call
    # reports the best of its repeats, and the replay its best block. On a
    # shared machine the speed drifts between a fast and a slower state for
    # seconds to minutes; a figure pooled over the run, or any middle
    # percentile, lands wherever the mix of states puts it, while the best
    # repeat follows the program whenever part of the run is fast.
    best_s = np.min([durs for durs, _items in rounds], axis=0)
    items = np.min([its for _durs, its in rounds], axis=0)  # 0 if any repeat failed
    call_ms = np.percentile(best_s, [50, 90]) * 1e3
    ctrl_us = np.min(replay.block_percentiles, axis=0)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": float(items.sum() / best_s.sum()),
        "call_p50_ms": float(call_ms[0]),
        "call_p90_ms": float(call_ms[1]),
        "ctrl_p50_us": float(ctrl_us[0]),
        "ctrl_p99_us": float(ctrl_us[1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# samples: {len(best_s)} calls, each the best of {len(rounds)} rounds; "
          f"control_law replays = {replay.calls} in {len(replay.block_percentiles)} "
          f"blocks; items per round = {int(items.sum())} ({wl.item_unit})")
    print(f"# failed_frac = {runner.failed / runner.attempted:.6g} ratio")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}


def per_layer(runner, wl, args) -> dict:
    from tracer import Tracer, per_layer_units

    half = 0.0 if args.smoke else args.seconds / 2.0
    plain = runner.rounds_for(half)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.rounds_for(half, tracer)
    finally:
        tracer.uninstall()
    plain_s = median(sum(r[0]) for r in plain)
    traced_s = median(sum(r[0]) for r in traced)
    values = tracer.metrics(overhead_frac=1.0 - plain_s / traced_s)
    units = per_layer_units()
    if tracer.absent:
        print(f"# absent (not hooked): {', '.join(tracer.absent)}")
    print(f"# traced rounds = {len(traced)}, untraced rounds = {len(plain)}; "
          f"values are per round (medians over rounds)")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_info(args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flatsat" / "__init__.py").is_file():
        print(f"perfbench: no flatsat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flatsat

    if Path(flatsat.__file__).resolve().parent != SRC / "flatsat":
        print(f"perfbench: imported flatsat from {flatsat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setups = []
        for k in range(1 if args.smoke else SETUP_REPEATS):
            import_s = import_seconds()
            wl = WORKLOADS[args.workload](args.seed, tmp / f"setup{k}")
            t0 = time.perf_counter()
            wl.setup()
            setups.append(import_s + time.perf_counter() - t0)
        setup_s = median(setups)
        runner = Runner(wl)
        if args.trace:
            metrics = per_layer(runner, wl, args)
        else:
            metrics = end_to_end(runner, wl, args, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it
    print("# run: " + json.dumps(run_info(args), sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
