"""Span tracer that hooks flatsat's public functions from outside the package.

Each target function is replaced, at every ``flatsat`` module attribute that
refers to it (so names imported by name, such as ``flatsat.simulation.saturate``,
are caught too), by a wrapper that records one span per call:
``(name, start, end, parent, call_id)``. Spans of one benchmark call are kept
in memory until that call returns; they are then folded into per-round totals.
A span's self time is its duration minus the durations of its direct
children. Targets that no longer exist are reported as absent, so the
benchmark keeps working when a later change removes a function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from statistics import median

# (module, attribute path) of every hooked function, grouped by layer
TARGETS = (
    ("constraint_sets", "in_Vc"),
    ("constraint_sets", "in_U"),
    ("saturation", "saturate"),
    ("saturation", "candidate_set"),
    ("saturation", "saturate_oracle"),
    ("flat_model", "to_physical"),
    ("flat_model", "accel"),
    ("simulation", "control_law"),
    ("simulation", "step_rk4"),
    ("simulation", "run"),
    ("simulation", "metrics"),
    ("simulation", "Trace.to_csv"),
    ("synthesis", "synthesize_certificate"),
    ("synthesis", "verify_cert"),
    ("synthesis", "save_certificate"),
    ("synthesis", "load_certificate"),
    ("kvformat", "dump_kv"),
    ("kvformat", "parse_kv"),
    ("cli", "cmd_synth"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_saturate"),
)

TARGET_NAMES = tuple(f"{mod}.{path}" for mod, path in TARGETS)
_IDX = {name: i for i, name in enumerate(TARGET_NAMES)}
ROOT = len(TARGET_NAMES)  # name id of the benchmark call that encloses a traced call

# ratios and counts reported next to the per-function numbers
RATIO_METRICS = (
    ("saturation.saturate.saturated_frac", "ratio"),
    ("saturation.candidate_set.candidates_per_call", "count"),
    ("saturation.in_Vc_per_saturate", "ratio"),
    ("flat_model.to_physical.calls_per_step", "ratio"),
    ("simulation.Trace.to_csv.bytes", "B/call"),
    ("synthesis.synthesize_certificate.calls_per_session", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("trace.absent_functions", "count"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TARGET_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.self_us_per_call"] = "us"
    units.update(RATIO_METRICS)
    return units


def _saturated(tracer, args, kwargs, out):
    if getattr(out, "saturated", False):
        tracer.counts["saturated"] += 1


def _candidates(tracer, args, kwargs, out):
    tracer.counts["candidates"] += len(out)


def _csv_bytes(tracer, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    tracer.counts["csv_bytes"] += os.path.getsize(path)


_OBSERVERS = {
    "saturation.saturate": _saturated,
    "saturation.candidate_set": _candidates,
    "simulation.Trace.to_csv": _csv_bytes,
}


def _flatsat_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "flatsat" or name.startswith("flatsat."))
    ]


class Tracer:
    """Installs the hooks, records spans per call and folds them per round."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._spans: list = []
        self._call_id = 0
        self.counts = self._zero_counts()
        self.rounds: list[dict] = []

    @staticmethod
    def _zero_counts() -> dict:
        return {"saturated": 0, "candidates": 0, "csv_bytes": 0, "in_vc_in_saturate": 0}

    def install(self) -> None:
        for mod in {mod for mod, _path in self.targets}:
            with contextlib.suppress(ImportError):
                importlib.import_module(f"flatsat.{mod}")
        modules = _flatsat_modules()
        for mod, path in self.targets:
            name = f"{mod}.{path}"
            owner = sys.modules.get(f"flatsat.{mod}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(_IDX[name], orig, _OBSERVERS.get(name))
            if owner_path:  # a method: patch the class once
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name_id, orig, observe):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            spans = self._spans
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (name_id, start, end, parent, self._call_id)
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return wrapper

    def call(self, fn):
        """Run ``fn()`` as one traced benchmark call; fold its spans."""
        self._call_id += 1
        self._spans = [None]
        self._stack.append(0)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._spans[0] = (ROOT, start, end, -1, self._call_id)
            self._fold(self._spans)
            self._spans = []

    def begin_round(self) -> None:
        self._calls = [0] * (ROOT + 1)
        self._self = [0.0] * (ROOT + 1)
        self.counts = self._zero_counts()

    def end_round(self, steps: int, sessions: int) -> None:
        self.rounds.append(
            {
                "calls": self._calls,
                "self_s": self._self,
                "counts": self.counts,
                "steps": steps,
                "sessions": sessions,
            }
        )

    def _fold(self, spans) -> None:
        calls, self_s = self._calls, self._self
        sat_id = _IDX["saturation.saturate"]
        in_vc_id = _IDX["constraint_sets.in_Vc"]
        for name_id, start, end, parent, _call_id in spans:
            d = end - start
            calls[name_id] += 1
            self_s[name_id] += d
            if parent >= 0:
                parent_id = spans[parent][0]
                self_s[parent_id] -= d
                if name_id == in_vc_id and parent_id == sat_id:
                    self.counts["in_vc_in_saturate"] += 1

    def metrics(self, overhead_frac: float) -> dict:
        """Per-round medians of every per-layer metric (counts repeat
        exactly across rounds, because every round does the same work)."""

        def med(f):
            return float(median(f(r) for r in self.rounds))

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for i, name in enumerate(TARGET_NAMES):
            out[f"{name}.calls"] = med(lambda r: r["calls"][i])
            out[f"{name}.self_s"] = med(lambda r: r["self_s"][i])
            out[f"{name}.self_us_per_call"] = med(
                lambda r: ratio(r["self_s"][i], r["calls"][i]) * 1e6
            )

        def calls_of(r, name):
            return r["calls"][_IDX[name]]

        out["saturation.saturate.saturated_frac"] = med(
            lambda r: ratio(r["counts"]["saturated"], calls_of(r, "saturation.saturate"))
        )
        out["saturation.candidate_set.candidates_per_call"] = med(
            lambda r: ratio(r["counts"]["candidates"], calls_of(r, "saturation.candidate_set"))
        )
        out["saturation.in_Vc_per_saturate"] = med(
            lambda r: ratio(r["counts"]["in_vc_in_saturate"], calls_of(r, "saturation.saturate"))
        )
        out["flat_model.to_physical.calls_per_step"] = med(
            lambda r: ratio(calls_of(r, "flat_model.to_physical"), r["steps"])
        )
        out["simulation.Trace.to_csv.bytes"] = med(
            lambda r: ratio(r["counts"]["csv_bytes"], calls_of(r, "simulation.Trace.to_csv"))
        )
        out["synthesis.synthesize_certificate.calls_per_session"] = med(
            lambda r: ratio(calls_of(r, "synthesis.synthesize_certificate"), r["sessions"])
        )
        out["trace_overhead_frac"] = overhead_frac
        out["trace.absent_functions"] = float(len(self.absent))
        return out
