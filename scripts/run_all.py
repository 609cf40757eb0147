#!/usr/bin/env python3
"""Run every verification suite with default settings and store the reports.

Produces structure, lagrangian, proof and fit reports under --out (default
reports/), prints each text summary, and exits with the worst status seen:
0 all passed, 1 a verification failed, 2 bad arguments (a count below 1).
Each suite's header line gives its wall time.  With --timings the JSON
reports keep each check's elapsed_ms; without it they are byte-identical for
a fixed seed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from nkverify.cli import (
    DEFAULT_GRID,
    DEFAULT_SAMPLES,
    DEFAULT_TRIALS,
    cmd_fit,
    cmd_lagrangian,
    cmd_proof,
    cmd_structure,
)
from nkverify.humfit import build_h_from_V


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", type=int, default=DEFAULT_GRID)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--out", type=str, default="reports")
    parser.add_argument(
        "--timings", action="store_true",
        help="keep each check's elapsed_ms in the JSON reports",
    )
    args = parser.parse_args(argv)
    for name in ("grid", "samples", "trials"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1, got {getattr(args, name)}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sample_tensor = out_dir / "sample_tensor.json"
    sample_tensor.write_text(build_h_from_V([1.0, 0.0, 0.0]).to_json())

    suites = [
        ("structure", lambda: cmd_structure(samples=args.samples, seed=args.seed)),
        ("lagrangian", lambda: cmd_lagrangian(grid=args.grid, seed=args.seed)),
        ("proof", lambda: cmd_proof(trials=args.trials, seed=args.seed)),
        ("fit", lambda: cmd_fit(str(sample_tensor))),
    ]
    worst = 0
    started = time.perf_counter()
    for name, build in suites:
        suite_start = time.perf_counter()
        report = build()
        suite_s = time.perf_counter() - suite_start
        json_out = out_dir / f"{name}.json"
        json_out.write_text(report.to_json(timings=args.timings) + "\n")
        print(f"== {name} in {suite_s:.2f}s (report {json_out}) ==")
        print(report.to_text())
        print()
        worst = max(worst, 0 if report.passed else 1)
    elapsed = time.perf_counter() - started
    print(f"pipeline finished in {elapsed:.1f}s with exit status {worst}")
    return worst


if __name__ == "__main__":
    sys.exit(run())
