"""Tests for scripts/run_all.py: argument checks, the --timings flag, the
per-suite wall times and a golden digest of the whole pipeline."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_all.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("flag", ["--grid", "--samples", "--trials"])
def test_zero_count_exits_2_before_any_suite(tmp_path, flag) -> None:
    counts = {"--grid": "1", "--samples": "5", "--trials": "1"}
    counts[flag] = "0"
    out = tmp_path / "reports"
    args = [a for kv in counts.items() for a in kv]
    proc = _run(*args, "--out", str(out))
    assert proc.returncode == 2
    assert f"error: {flag} must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def _checks(out: Path) -> dict:
    return {
        name: json.loads((out / f"{name}.json").read_text())["checks"]
        for name in ("structure", "lagrangian", "proof", "fit")
    }


def test_timings_flag_keeps_elapsed_ms(tmp_path) -> None:
    # both runs write to one directory, since the fit report names its input
    small = ["--grid", "1", "--samples", "5", "--trials", "1", "--out", str(tmp_path)]
    assert _run(*small).returncode == 0
    plain = _checks(tmp_path)
    assert _run(*small, "--timings").returncode == 0
    timed = _checks(tmp_path)
    for name, checks in timed.items():
        assert all(c["elapsed_ms"] is None for c in plain[name])
        assert any(isinstance(c["elapsed_ms"], float) for c in checks)
        for c in checks:
            c["elapsed_ms"] = None
        assert checks == plain[name]


#: SHA-256 of the reports of `run_all.py --grid 1 --samples 20 --trials 2
#: --seed 3`, recorded when the analyzer moved from nested finite differences
#: to Taylor jets; proof.json re-recorded when the axis case listed its fifth
#: node; structure.json re-recorded when frame-g-form took one frame package
#: per built-in over its four points instead of one per point, which moved
#: only its max_residual, in roundoff (5.168e-16 -> 5.034e-16; before:
#: a6e0a62e...3fe0c1); proof.json re-recorded when the constrained-angle case
#: became exact (before: 2d2edb15...545754); lagrangian.json re-recorded when
#: cmd_lagrangian's shadow read c from the suite's order-3 package, which
#: moved only theorem-shadow[diagonal]'s max_residual and max_symmetry_defect,
#: in roundoff (before: 9ae3ff08...1f615a); lagrangian.json re-recorded when a
#: one-row jet product became a two-row matrix product instead of a
#: matrix-vector one, so that a row rounds the same in any batch, which moved
#: only codazzi-residual[diagonal]'s max_residual, in roundoff (1.536e-16 ->
#: 2.054e-16; before: 8e8d8f62...f7d784).  fit.json is left out because it
#: names its input path.
PIPELINE_DIGESTS = {
    "structure": "8cb37cbb163e7121e79440b5f6e4065f66ee5cc92bf13f464056aa852dce79c4",
    "lagrangian": "551b10f6d7d73dd4894e0ffab09562a9bcb8b3dc900683562dd6a60d9c1bccfc",
    "proof": "f6502bdc8db67c08a3706e3b627ff72e6697a050200f0ef20c1fc0e4a04d68bd",
}


def test_pipeline_reports_golden_digest_and_suite_times(tmp_path) -> None:
    args = ["--grid", "1", "--samples", "20", "--trials", "2", "--seed", "3"]
    proc = _run(*args, "--out", str(tmp_path))
    assert proc.returncode == 0
    got = {
        name: hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
        for name in PIPELINE_DIGESTS
    }
    assert got == PIPELINE_DIGESTS
    headers = [line for line in proc.stdout.splitlines() if line.startswith("== ")]
    assert [h.split()[1] for h in headers] == ["structure", "lagrangian", "proof", "fit"]
    for header in headers:
        assert re.fullmatch(r"== \w+ in \d+\.\d\ds \(report .+\.json\) ==", header)
