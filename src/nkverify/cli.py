"""Command-line orchestration of the verification suites.

Four subcommands cover the engine: `structure` samples the algebraic and
differential invariants of the ambient geometry, `lagrangian` sweeps the
analyzer over example immersions, `proof` runs the exact frame-level
derivations and case analysis, and `fit` applies the H-umbilical detector to
a cubic tensor stored as JSON.  All randomness is funneled through one seed
per command so reports are byte-reproducible.

The structure suite evaluates each sampled identity over all samples at once,
with the array forms of nkgeom.  The samples are still drawn one at a time
(base point, then the tangent pair), so the rng stream, and every residual,
is that of a per-sample loop.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .codazzi import (
    case1_check,
    case2_check,
    case3_check,
    det_factorization_check,
    frame_relation_check,
    system1_check,
)
from .humfit import FIT_TOL, HARNESS_TOL, CubicTensor, fit, theorem_shadow, umbilical_lemma_check
from .lagrangian import (
    Box,
    Immersion,
    PointS3S3,
    example_by_label,
    frame_pass,
    lagrangian_suite,
    rotation_matrix,
    suite_pass,
)
from .nkgeom import G, J, P, g, g_ambient, norm, random_samples
from .quat import ImaginaryQuaternion, exp_im
from .report import CheckRecord, VerificationReport, residual_record

#: Parameter points at which adapted frames of the built-ins are probed.
FRAME_SAMPLE_POINTS = (
    (0.2, -0.35, 0.4),
    (-0.5, 0.1, -0.15),
    (0.0, 0.45, 0.3),
    (0.35, 0.25, -0.3),
)

LAGRANGIAN_LABELS = ("factor_left", "factor_right", "diagonal")

#: Defaults of `structure --samples`, `lagrangian --grid` and `proof --trials`.
DEFAULT_SAMPLES = 1000
DEFAULT_GRID = 5
DEFAULT_TRIALS = 100


def default_seed() -> int:
    """The base seed when none is given: NKVERIFY_SEED, else 0."""
    raw = os.environ.get("NKVERIFY_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"NKVERIFY_SEED must be an integer, got {raw!r}") from None


def _require_at_least(name: str, value: int, least: int = 1) -> None:
    """Reject a sample, grid or trial count below 1, which would leave checks
    with nothing to check, or a seed below 0: random.Random seeds with the
    seed's absolute value, so -s would replay the streams of s."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _require_tol(tol: float | None) -> None:
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite non-negative number, got {tol}")


def _stamp(records: Sequence[CheckRecord], start: float) -> list[CheckRecord]:
    """Attach wall time to records; jointly swept records share the total.

    Timings surface in JSON output only behind --timings, so default
    reports stay byte-reproducible.
    """
    elapsed = (time.perf_counter() - start) * 1000.0
    for rec in records:
        rec.elapsed_ms = elapsed
    return list(records)


# ---------------------------------------------------------------------------
# structure


def structure_algebra_records(
    samples: int, rng: np.random.Generator, seed: int, tol: float | None = None
) -> list[CheckRecord]:
    """Pointwise invariants of J, P and the two metric forms at random
    tangent pairs, each evaluated over all samples at once."""
    algebra = {
        "j-squared": 1e-12,
        "j-isometry": 1e-12,
        "p-squared": 0.0,
        "jp-anticommute": 1e-13,
        "metric-forms-agree": 1e-12,
    }
    pq, X, Y = random_samples(rng, samples)
    JX, JY = J(X), J(Y)
    residuals = {
        "j-squared": norm(J(JX) + X),
        "j-isometry": np.abs(g(JX, JY) - g(X, Y)),
        "p-squared": np.max(np.abs(P(P(X)) - X), axis=-1),
        "jp-anticommute": norm(J(P(X)) + P(JX)),
        "metric-forms-agree": np.abs(g(X, Y) - g_ambient(pq, X, Y)),
    }
    return [
        residual_record(name, residuals[name], default_tol if tol is None else tol, {"seed": seed})
        for name, default_tol in algebra.items()
    ]


def structure_g_records(
    g_samples: int, rng: np.random.Generator, seed: int, tol: float | None = None
) -> list[CheckRecord]:
    """G vanishes on the diagonal and is antisymmetric, sampled numerically
    over all samples at once."""
    g_tol = 1e-5 if tol is None else tol
    _, X, Y = random_samples(rng, g_samples)  # G is left-invariant: no base point
    return [
        residual_record(name, values, g_tol, {"seed": seed})
        for name, values in (
            ("g-vanishing-diagonal", norm(G(X, X))),
            ("g-antisymmetry", norm(G(X, Y) + G(Y, X))),
        )
    ]


def structure_frame_record(seed: int, tol: float | None = None) -> CheckRecord:
    """G takes its canonical alternating form on adapted frames of the
    built-in Lagrangian examples, from one `lagrangian.frame_pass` over all
    three: one order-2 package and one adapted-frame pass, whose time is
    the record's --timings total.  A frame that cannot be built (a
    ValueError, such as `angle_functions` raises on a pair (A, B) that is
    not symmetric and commuting) fails the record, with the message in its
    details."""
    frame_tol = 1e-4 if tol is None else tol
    details = {"seed": seed, "examples": list(LAGRANGIAN_LABELS)}
    imms = [example_by_label(label) for label in LAGRANGIAN_LABELS]
    try:
        residuals = np.concatenate(
            [frames["orientation"] for frames in frame_pass(imms, FRAME_SAMPLE_POINTS)]
        )
    except ValueError as exc:
        details["error"] = str(exc)
        return CheckRecord("frame-g-form", passed=False, tolerance=frame_tol, details=details)
    return residual_record("frame-g-form", residuals, frame_tol, details)


def cmd_structure(
    samples: int = DEFAULT_SAMPLES, seed: int = 0, tol: float | None = None
) -> VerificationReport:
    """Pointwise invariants of J, P and g, the skewness of G, and the
    canonical frame form of G on adapted Lagrangian frames."""
    _require_at_least("samples", samples)
    _require_at_least("seed", seed, 0)
    _require_tol(tol)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    records = _stamp(structure_algebra_records(samples, rng, seed, tol), start)
    g_samples = max(samples // 5, 1)
    start = time.perf_counter()
    records.extend(_stamp(structure_g_records(g_samples, rng, seed, tol), start))
    start = time.perf_counter()
    records.extend(_stamp([structure_frame_record(seed, tol)], start))
    return VerificationReport(
        records=records,
        seed=seed,
        meta={"suite": "structure", "samples": samples, "g_samples": g_samples},
    )


# ---------------------------------------------------------------------------
# lagrangian


def graph_immersion(
    left: np.ndarray, right: np.ndarray, label: str, box: Box
) -> Immersion:
    """u maps to (exp(L u), exp(R u)) for fixed rotations L and R."""

    def chart_map(u: np.ndarray) -> PointS3S3:
        return PointS3S3(
            exp_im(ImaginaryQuaternion.from_array(left @ u)),
            exp_im(ImaginaryQuaternion.from_array(right @ u)),
        )

    return Immersion(label, box, chart_map)


def _number(x, what: str) -> float:
    """x as a float; a JSON value that is not a number is malformed input."""
    try:
        return float(x)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest: {what} must be a number, got {x!r}") from exc


def _parse_rotation(payload: dict, side: str) -> np.ndarray:
    if payload is None:
        return np.eye(3)
    if not isinstance(payload, dict) or set(payload) - {"axis", "angle"}:
        raise ValueError(f"manifest: {side} rotation needs axis and angle fields")
    axis = payload.get("axis", [0.0, 0.0, 1.0])
    if isinstance(axis, list):
        axis = [_number(x, f"{side} rotation axis entry") for x in axis]
    if not isinstance(axis, list) or len(axis) != 3 or not any(x != 0.0 for x in axis):
        raise ValueError(f"manifest: {side} rotation axis must be a nonzero 3-vector")
    angle = _number(payload.get("angle", 0.0), f"{side} rotation angle")
    return rotation_matrix(axis, angle)


def _manifest_entry(entry) -> Immersion:
    if not isinstance(entry, dict):
        raise ValueError("manifest entries must be JSON objects")
    if "example" in entry:
        try:
            return example_by_label(str(entry["example"]))
        except KeyError as exc:
            raise ValueError(str(exc)) from exc
    if "graph" in entry:
        graph = entry["graph"]
        if not isinstance(graph, dict):
            raise ValueError("manifest: graph must be an object")
        left = _parse_rotation(graph.get("left"), "left")
        right = _parse_rotation(graph.get("right"), "right")
        bounds = entry.get("box", [-0.6, 0.6])
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ValueError(f"manifest: box must be a list [lo, hi], got {bounds!r}")
        lo, hi = (_number(x, "box bound") for x in bounds)
        box = Box((lo,) * 3, (hi,) * 3)
        label = str(entry.get("label", "manifest-graph"))
        return graph_immersion(left, right, label, box)
    raise ValueError("manifest entry needs an 'example' or 'graph' key")


def load_manifest(path: str) -> list[Immersion]:
    """Immersions from a JSON manifest: a single entry or a list of entries,
    each naming a built-in example or a rotation-graph composition, no two
    with the same label, since a report tells immersions apart by label."""
    payload = json.loads(Path(path).read_text())
    entries = payload if isinstance(payload, list) else [payload]
    if not entries:
        raise ValueError("manifest: no entries")
    imms = [_manifest_entry(e) for e in entries]
    labels = [imm.label for imm in imms]
    for pos, label in enumerate(labels):
        if label in labels[:pos]:
            raise ValueError(f"manifest: two entries are labelled {label!r}")
    return imms


def cmd_lagrangian(
    example: str | None = None,
    manifest: str | None = None,
    grid: int = DEFAULT_GRID,
    tol: float | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Analyzer sweep over immersions on a grid x grid x grid parameter box.

    One `lagrangian.suite_pass` analyses every immersion at once, evaluating
    each map once on the grid's jets, and `lagrangian_suite` reads each
    immersion's records from its share.  The suite records of all
    immersions share one --timings total, that of the pass and the reads.
    Where an immersion passes the Lagrangian test, the `theorem-shadow`
    record is `humfit.theorem_shadow` of the cubic forms of its share,
    bounded by tol or HARNESS_TOL; where it fails, that record is skipped.  Three
    `umbilical-rigidity` records follow, seeded seed + n for n = 2, 3, 4.
    """
    _require_at_least("grid", grid)
    _require_at_least("seed", seed, 0)
    _require_tol(tol)
    if example is not None:
        imms = [example_by_label(example)]
    elif manifest is not None:
        imms = load_manifest(manifest)
    else:
        imms = [example_by_label(label) for label in LAGRANGIAN_LABELS]
    shadow_tol = HARNESS_TOL if tol is None else tol
    start = time.perf_counter()
    shares = suite_pass(imms, grid, tol)
    suites = [
        lagrangian_suite(imm, grid=grid, tol=tol, rows=rows) for imm, rows in zip(imms, shares)
    ]
    _stamp([rec for suite in suites for rec in suite], start)
    records = []
    for imm, rows, suite in zip(imms, shares, suites):
        records.extend(suite)
        if rows.c is None:
            records.append(
                CheckRecord(
                    check_id=f"theorem-shadow[{imm.label}]",
                    passed=True,
                    status="skip",
                    details={"reason": "immersion failed the Lagrangian test"},
                )
            )
            continue
        start = time.perf_counter()
        records.extend(_stamp([theorem_shadow(imm.label, rows.points, rows.c, shadow_tol)], start))
    for n in (2, 3, 4):
        start = time.perf_counter()
        rec = umbilical_lemma_check(n, trials=100, seed=seed + n)
        rec.details.setdefault("seed", seed + n)
        records.extend(_stamp([rec], start))
    return VerificationReport(
        records=records,
        seed=seed,
        meta={"suite": "lagrangian", "grid": grid, "immersions": [i.label for i in imms]},
    )


# ---------------------------------------------------------------------------
# proof


def cmd_proof(trials: int = DEFAULT_TRIALS, seed: int = 0, mode: str = "all") -> VerificationReport:
    """Frame-level derivation checks, all exact: the frame relation, the
    derivative comparison, the axis, null-axis and v2 = 0 cases, and the
    determinant factorization.  Both modes, "exact" and "all", run all six
    and differ only in the report's meta; the command line has no mode."""
    if mode not in ("exact", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_at_least("trials", trials)
    _require_at_least("seed", seed, 0)
    checks = (
        frame_relation_check,
        system1_check,
        case1_check,
        case2_check,
        det_factorization_check,
        case3_check,
    )
    records = []
    for offset, check in enumerate(checks, start=1):
        sub_seed = seed + offset
        start = time.perf_counter()
        rec = check(sub_seed, trials)
        rec.details.setdefault("seed", sub_seed)
        records.extend(_stamp([rec], start))
    return VerificationReport(
        records=records,
        seed=seed,
        meta={"suite": "proof", "trials": trials, "mode": mode},
    )


# ---------------------------------------------------------------------------
# fit


def cmd_fit(path: str, tol: float = FIT_TOL) -> VerificationReport:
    """H-umbilical detection on a cubic tensor loaded from JSON."""
    _require_tol(tol)
    tensor = CubicTensor.from_json(Path(path).read_text())
    start = time.perf_counter()
    result = fit(tensor, tol)
    if result is None:
        details = {"fitted": False, "input": str(path)}
        max_residual = None
    else:
        details = {
            "fitted": True,
            "input": str(path),
            "U1": [float(x) for x in result.U1],
            "lambda": result.lam,
            "mu": result.mu,
            "minimality_defect": result.minimality_defect,
        }
        max_residual = result.residual
    record = CheckRecord(
        check_id="humbilical-fit",
        passed=True,  # both outcomes are valid detector answers
        samples=1,
        tolerance=tol,
        max_residual=max_residual,
        details=details,
    )
    _stamp([record], start)
    return VerificationReport(records=[record], seed=None, meta={"suite": "fit"})


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nkverify",
        description="Verification suites for the nearly Kahler S3 x S3 engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seeded: bool = True) -> None:
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="base seed (default: NKVERIFY_SEED, else 0)")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", type=str, default=None, help="write the report to a file")
        p.add_argument("--timings", action="store_true",
                       help="include elapsed milliseconds in JSON output")

    p = sub.add_parser("structure", help="ambient structure-tensor invariants")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--tol", type=float, default=None)
    add_common(p)

    p = sub.add_parser("lagrangian", help="immersion analyzer sweeps")
    p.add_argument("--example", type=str, default=None)
    p.add_argument("--manifest", type=str, default=None)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--tol", type=float, default=None)
    add_common(p)

    p = sub.add_parser("proof", help="frame-level derivation checks")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    add_common(p)

    p = sub.add_parser("fit", help="H-umbilical detection on a cubic tensor file")
    p.add_argument("input", type=str, help="path to a CubicTensor JSON file")
    p.add_argument("--tol", type=float, default=FIT_TOL)
    add_common(p, seeded=False)  # the fit draws nothing at random

    return parser


def _dispatch(args: argparse.Namespace) -> VerificationReport:
    if args.command == "fit":
        return cmd_fit(args.input, tol=args.tol)
    seed = default_seed() if args.seed is None else args.seed
    if args.command == "structure":
        return cmd_structure(samples=args.samples, seed=seed, tol=args.tol)
    if args.command == "lagrangian":
        if args.example and args.manifest:
            raise ValueError("pass either --example or --manifest, not both")
        return cmd_lagrangian(
            example=args.example,
            manifest=args.manifest,
            grid=args.grid,
            tol=args.tol,
            seed=seed,
        )
    if args.command == "proof":
        return cmd_proof(trials=args.trials, seed=seed)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = _dispatch(args)
        rendered = (
            report.to_json(timings=args.timings) if args.format == "json" else report.to_text()
        )
        if args.out:
            Path(args.out).write_text(rendered + "\n")
        else:
            print(rendered)
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"nkverify: error: {message}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
