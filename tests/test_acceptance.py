"""Acceptance gate: every stated guarantee checked at its stated tolerance.

Each criterion is one test that prints a single PASS/FAIL line (visible with
pytest -rA or -s) and asserts the same condition, so the suite both documents
and enforces the contract.
"""

import time

import numpy as np

from nkverify.cli import (
    LAGRANGIAN_LABELS,
    cmd_fit,
    cmd_lagrangian,
    cmd_proof,
    cmd_structure,
    structure_algebra_records,
    structure_frame_record,
    structure_g_records,
)
from nkverify.codazzi import (
    case1_check,
    case2_check,
    case3_check,
    det_factorization_check,
    frame_relation_check,
    system1_check,
)
from nkverify.humfit import build_h_from_V, theorem_harness, umbilical_lemma_check
from nkverify.lagrangian import example_by_label, lagrangian_suite


def _gate(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_structure_invariants() -> None:
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    records = structure_algebra_records(1000, rng, seed=0)
    elapsed = time.perf_counter() - start
    by_id = {r.check_id: r for r in records}
    bounds = {
        "j-squared": 1e-12,
        "j-isometry": 1e-12,
        "jp-anticommute": 1e-13,
        "metric-forms-agree": 1e-12,
    }
    ok = all(by_id[name].max_residual < bound for name, bound in bounds.items())
    ok = ok and by_id["p-squared"].max_residual == 0.0
    ok = ok and elapsed < 2.0
    worst = max(r.max_residual for r in records)
    _gate(
        "criterion-1 structure invariants, 1000 samples",
        ok,
        f"worst residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_g_skewness() -> None:
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    records = structure_g_records(200, rng, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(r.max_residual for r in records)
    ok = worst < 1e-5 and elapsed < 30.0
    _gate(
        "criterion-2 G diagonal and antisymmetry, 200 samples",
        ok,
        f"worst residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_g_canonical_frame_form() -> None:
    rec = structure_frame_record(seed=0)
    ok = rec.passed and rec.max_residual < 1e-4
    _gate(
        "criterion-3 G canonical form on adapted frames",
        ok,
        f"max residual {rec.max_residual:.2e} over {rec.samples} frames",
    )


def test_criterion_4_builtin_lagrangian_sweeps() -> None:
    stated = {
        "lagrangian": 1e-9,
        "minimality": 1e-5,
        "cubic-symmetry": 1e-5,
        "angle-sum": 1e-5,
        "codazzi-residual": 1e-4,
    }
    ok = True
    details = []
    for label in ("factor_left", "factor_right", "diagonal"):
        suite = lagrangian_suite(example_by_label(label), grid=5)
        by_id = {r.check_id.split("[")[0]: r for r in suite}
        ok = ok and all(r.passed and r.status is None for r in suite)
        for name, bound in stated.items():
            rec = by_id[name]
            ok = ok and rec.tolerance == bound and rec.max_residual < bound
        details.append(f"{label} codazzi {by_id['codazzi-residual'].max_residual:.2e}")
    _gate("criterion-4 built-in Lagrangians on 5^3 grids", ok, "; ".join(details))


def test_criterion_5_exact_identity_suite() -> None:
    start = time.perf_counter()
    records = [
        frame_relation_check(trials=100, seed=1),
        system1_check(seed=2, trials=100),
        det_factorization_check(seed=3, trials=100),
        case1_check(seed=4, trials=50),
        case2_check(seed=5, trials=50),
        case3_check(trials=50, seed=6),
    ]
    elapsed = time.perf_counter() - start
    floors = (100, 100, 100, 50, 50, 50)
    ok = all(r.passed for r in records)
    ok = ok and all(r.samples >= f for r, f in zip(records, floors))
    ok = ok and elapsed < 60.0
    _gate(
        "criterion-5 exact derivation suite",
        ok,
        f"{sum(r.samples for r in records)} states, {elapsed:.2f}s",
    )


def test_criterion_6_umbilical_rigidity() -> None:
    records = [umbilical_lemma_check(n, trials=100, seed=n) for n in (2, 3, 4)]
    ok = all(r.passed and r.samples == 100 for r in records)
    margins = ", ".join(
        f"n={r.details['dimension']} min {r.details['min_asymmetry']:.3f}"
        for r in records
    )
    _gate("criterion-6 umbilical rigidity, n in {2,3,4}", ok, margins)


def test_criterion_7_theorem_shadow_on_builtins() -> None:
    ok = True
    details = []
    for label in LAGRANGIAN_LABELS:
        rec = theorem_harness(example_by_label(label), grid=5, tol=1e-5)
        ok = ok and rec.passed
        ok = ok and rec.details["max_abs_lambda"] <= 1e-5
        ok = ok and rec.details["max_abs_mu"] <= 1e-5
        details.append(
            f"{label} {rec.details['fit_successes']}/{rec.details['grid_points']} fits"
        )
    _gate("criterion-7 fit-or-reject on every grid point", ok, "; ".join(details))


def test_criterion_8_deterministic_reports(tmp_path) -> None:
    tensor = tmp_path / "tensor.json"
    tensor.write_text(build_h_from_V([0.3, -0.4, 0.5]).to_json())
    builders = {
        "structure": lambda: cmd_structure(samples=120, seed=9),
        "lagrangian": lambda: cmd_lagrangian(example="diagonal", grid=2, seed=9),
        "proof": lambda: cmd_proof(trials=10, seed=9),
        "fit": lambda: cmd_fit(str(tensor)),
    }
    ok = True
    for name, build in builders.items():
        first, second = build(), build()
        ok = ok and first.to_json() == second.to_json()
        ok = ok and first.to_text() == second.to_text()
    _gate(
        "criterion-8 byte-identical reports per command",
        ok,
        "json and text stable across consecutive runs",
    )
