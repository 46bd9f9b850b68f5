"""The command line's study set, held to a committed digest.

:func:`write_set` is the one list of the study commands: a certificate at
gamma 1 and 15 with their verification reports, ``simulate`` and ``sweep``
on the default origin run, on the setpoint study and on the circle with
feedforward under a constant yaw, ``simulate`` on the README's two circle
studies, with and without feedforward, ``invariance`` from boundary
starts around the origin and around the setpoint, and ``alphas`` at its
default decay rates. They write 51 files, and
``outputs.sha256`` beside this module holds the SHA-256 of each, in
``sha256sum`` format, sorted by path. A change that moves an output
commits the manifest that the failing test writes, and names each changed
file and the reason in CHANGES.md.

Run as a script, ``python tests/test_outputs.py DIR`` writes the set into
``DIR`` (with ``src`` on ``PYTHONPATH``).
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from flatsat import cli
from flatsat.kvformat import parse_kv

MANIFEST = Path(__file__).with_name("outputs.sha256")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SETPOINT = SCRIPTS / "setpoint_study.txt"
# the circle with feedforward under a constant yaw covers the feedforward,
# yaw and reference-column paths of the loop; 5 s per start keeps the
# origin invariance study short
CIRCLE = "scenario = circular\nfeedforward = true\npsi = 0.3\n"
INVARIANCE = "duration = 5\n"


def flatsat(*argv, stdout=None):
    """``main(argv)``, which must exit 0; its stdout goes to the file
    ``stdout`` if given, else nowhere."""
    argv = [str(a) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != cli.EXIT_OK:
        raise RuntimeError(f"flatsat {' '.join(argv)}: exit {rc}")
    if stdout:
        stdout.write_text(buf.getvalue(), encoding="utf-8")


def write_set(out: Path) -> None:
    """Write the study set into ``out``."""
    with tempfile.TemporaryDirectory() as cfg:
        circle, inv = Path(cfg, "circle.txt"), Path(cfg, "inv.txt")
        circle.write_text(CIRCLE, encoding="utf-8")
        inv.write_text(INVARIANCE, encoding="utf-8")
        flatsat("synth", "--out", out)
        flatsat("verify", out / "certificate.txt", stdout=out / "verify.txt")
        # almost every boundary sample saturates at gamma 15
        flatsat("synth", "--gamma", 15, "--out", out / "g15")
        flatsat("verify", out / "g15" / "certificate.txt", stdout=out / "g15" / "verify.txt")
        flatsat("simulate", "--out", out)
        flatsat("sweep", "--out", out)
        for name, config in (("circle", circle), ("setpoint", SETPOINT)):
            flatsat("simulate", "--config", config, "--out", out / name)
            flatsat("sweep", "--config", config, "--out", out / name)
        # the circle without feedforward is the one moving reference run
        # without its acceleration in the command
        for name in ("circle_study", "circle_feedforward_study"):
            flatsat("simulate", "--config", SCRIPTS / f"{name}.txt", "--out", out / name)
        flatsat("invariance", "--config", inv, "--starts", 3, "--out", out / "inv",
                stdout=out / "inv.txt")
        flatsat("invariance", "--config", SETPOINT, "--starts", 3, "--out", out / "inv_setpoint",
                stdout=out / "inv_setpoint.txt")
        flatsat("alphas", stdout=out / "alphas.txt")


def digests(root: Path) -> dict:
    """The SHA-256 of every file under ``root``, keyed by its relative path."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


def check_manifest(out: Path, tmp: Path) -> None:
    """Fail unless the files under ``out`` are those of the manifest, byte for
    byte; the failure names each file that differs, is missing or is extra,
    and writes the manifest of ``out`` under ``tmp``."""
    got = digests(out)
    want = {path: digest for digest, path in
            (line.split("  ", 1) for line in MANIFEST.read_text(encoding="utf-8").splitlines())}
    problems = [f"differs: {p}" for p in sorted(got.keys() & want.keys()) if got[p] != want[p]]
    problems += [f"missing: {p}" for p in sorted(want.keys() - got.keys())]
    problems += [f"extra: {p}" for p in sorted(got.keys() - want.keys())]
    if problems:
        new = tmp / MANIFEST.name
        new.write_text("".join(f"{got[p]}  {p}\n" for p in sorted(got)), encoding="utf-8")
        pytest.fail("\n".join([*problems, f"the manifest of this set is {new}"]), pytrace=False)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """The set written in this process, and a directory beside it."""
    tmp = tmp_path_factory.mktemp("outputs")
    write_set(tmp / "out")
    return tmp / "out", tmp


def test_set_written_in_process_matches_manifest(study):
    check_manifest(*study)


def test_set_written_by_a_fresh_interpreter_matches_manifest(tmp_path):
    # another process has another hash seed; warnings are errors there too
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONHASHSEED", None)
    done = subprocess.run([sys.executable, "-W", "error", __file__, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    check_manifest(tmp_path / "out", tmp_path)


def test_no_regulation_summary_reports_a_positive_decay_residual(study):
    # the certificate covers regulation, so V' + alpha V at every sample of
    # the origin and setpoint runs is <= 0; the circle tracks a moving
    # reference, which it does not cover
    out, _ = study
    values = {f"{path}: {key}": float(value)
              for path in (f"{d}/{f}" for d in (".", "setpoint")
                           for f in ("summary.txt", "sweep_summary.txt"))
              for key, value in parse_kv((out / path).read_text(encoding="utf-8")).items()
              if key.endswith("max_decay_residual")}
    assert len(values) == 8
    assert {k: v for k, v in values.items() if v > 0.0} == {}


def test_no_summary_reports_a_negative_margin(study):
    # a negative margin is an exit from the constraint set, which must not
    # hide behind n_violations = 0
    out, _ = study
    margins = {f"{path.relative_to(out)}: {key}": float(value)
               for name in ("summary.txt", "sweep_summary.txt") for path in out.rglob(name)
               for key, value in parse_kv(path.read_text(encoding="utf-8")).items()
               if key.endswith("_margin")}
    assert margins
    assert {k: v for k, v in margins.items() if v < 0.0} == {}


def test_trace_float_cells_are_17_significant_digits_of_their_values(study):
    # a writer that is deterministic but wrong would pass the manifest once
    # regenerated: each of the 18 float cells of every row is '%.17g' of
    # the value float() reads from it
    out, _ = study
    paths = sorted(out.rglob("trace*.csv"))
    assert len(paths) == 32
    for path in paths:
        for line in path.read_bytes().splitlines()[1:]:
            cells = line.split(b",")[:18]
            assert [b"%.17g" % float(c) for c in cells] == cells, f"{path}: {line.decode()}"


if __name__ == "__main__":
    write_set(Path(sys.argv[1]))
