"""The batched structure suite against the per-sample loops it replaced.

The reference below is the earlier implementation, kept as it was: one base
point and tangent pair per sample, object-level g, J, P, G and embed written
with the quaternion types, and a running maximum.  The batched suite and the
array forms, applied to an object's components, must reproduce it bit for
bit.
"""

import math

import numpy as np
import pytest

from nkverify import cli
from nkverify.nkgeom import (
    G_ARRAY,
    TangentVector,
    G,
    G_tensor,
    J,
    P,
    embed,
    g,
    g_ambient,
    norm,
    unit_points,
)
from nkverify.report import CheckRecord, max_keep_nan
from random_tangents import promote, random_point, random_tangent

_SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# reference: the per-sample object-level formulas


def _ref_metric_g(X, Y):
    aa = X.alpha.dot(Y.alpha) + X.beta.dot(Y.beta)
    ab = X.alpha.dot(Y.beta) + Y.alpha.dot(X.beta)
    return (4.0 / 3.0) * aa - (2.0 / 3.0) * ab


def _ref_g_norm(X):
    return math.sqrt(_ref_metric_g(X, X))


def _ref_apply_J(X):
    a, b = X.alpha, X.beta
    return TangentVector(
        X.base,
        (b.scaled(2.0) - a).scaled(1.0 / _SQRT3),
        (b - a.scaled(2.0)).scaled(1.0 / _SQRT3),
    )


def _ref_apply_P(X):
    return TangentVector(X.base, X.beta, X.alpha)


def _ref_embed(X):
    pa = X.base.p * promote(X.alpha)
    qb = X.base.q * promote(X.beta)
    return np.concatenate([pa.as_array(), qb.as_array()])


def _ref_metric_g_ambient(X, Y):
    JX, JY = _ref_apply_J(X), _ref_apply_J(Y)
    return 0.5 * (
        float(np.dot(_ref_embed(X), _ref_embed(Y)))
        + float(np.dot(_ref_embed(JX), _ref_embed(JY)))
    )


def _ref_G_tensor(X, Y):
    return TangentVector.from_components(X.base, G_ARRAY @ Y.components() @ X.components())


# ---------------------------------------------------------------------------
# reference: the per-sample loops of the structure suite


def _ref_algebra_records(samples, rng, seed, tol=None):
    algebra = {
        "j-squared": 1e-12,
        "j-isometry": 1e-12,
        "p-squared": 0.0,
        "jp-anticommute": 1e-13,
        "metric-forms-agree": 1e-12,
    }
    worst = dict.fromkeys(algebra, 0.0)
    for _ in range(samples):
        base = random_point(rng)
        X = random_tangent(rng, base)
        Y = random_tangent(rng, base)
        worst["j-squared"] = max_keep_nan(
            worst["j-squared"], _ref_g_norm(_ref_apply_J(_ref_apply_J(X)) + X)
        )
        worst["j-isometry"] = max_keep_nan(
            worst["j-isometry"],
            abs(_ref_metric_g(_ref_apply_J(X), _ref_apply_J(Y)) - _ref_metric_g(X, Y)),
        )
        pp = _ref_apply_P(_ref_apply_P(X))
        worst["p-squared"] = max_keep_nan(
            worst["p-squared"], float(np.max(np.abs(pp.components() - X.components())))
        )
        worst["jp-anticommute"] = max_keep_nan(
            worst["jp-anticommute"],
            _ref_g_norm(_ref_apply_J(_ref_apply_P(X)) + _ref_apply_P(_ref_apply_J(X))),
        )
        worst["metric-forms-agree"] = max_keep_nan(
            worst["metric-forms-agree"],
            abs(_ref_metric_g(X, Y) - _ref_metric_g_ambient(X, Y)),
        )
    records = []
    for name, default_tol in algebra.items():
        bound = default_tol if tol is None else tol
        passed = worst[name] == 0.0 if bound == 0.0 else worst[name] < bound
        records.append(
            CheckRecord(
                check_id=name,
                passed=passed,
                samples=samples,
                tolerance=bound,
                max_residual=worst[name],
                details={"seed": seed},
            )
        )
    return records


def _ref_g_records(g_samples, rng, seed, tol=None):
    g_tol = 1e-5 if tol is None else tol
    diag_worst = 0.0
    anti_worst = 0.0
    for _ in range(g_samples):
        base = random_point(rng)
        X = random_tangent(rng, base)
        Y = random_tangent(rng, base)
        diag_worst = max_keep_nan(diag_worst, _ref_g_norm(_ref_G_tensor(X, X)))
        anti_worst = max_keep_nan(
            anti_worst, _ref_g_norm(_ref_G_tensor(X, Y) + _ref_G_tensor(Y, X))
        )
    return [
        CheckRecord(
            check_id=name,
            passed=value < g_tol,
            samples=g_samples,
            tolerance=g_tol,
            max_residual=value,
            details={"seed": seed},
        )
        for name, value in (
            ("g-vanishing-diagonal", diag_worst),
            ("g-antisymmetry", anti_worst),
        )
    ]


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("samples", [1, 7, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batched_structure_records_match_per_sample_loops(seed, samples) -> None:
    # one rng through both suites, as cmd_structure runs them, so the stream
    # each leaves behind is checked too
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = cli.structure_algebra_records(samples, rng, seed) + cli.structure_g_records(
        samples, rng, seed
    )
    want = _ref_algebra_records(samples, ref_rng, seed) + _ref_g_records(
        samples, ref_rng, seed
    )
    assert [r.check_id for r in got] == [r.check_id for r in want]
    for new, ref in zip(got, want):
        assert vars(new) == vars(ref)
        assert type(new.max_residual) is float
    assert rng.random() == ref_rng.random()


def test_array_forms_keep_the_reference_bits() -> None:
    rng = np.random.default_rng(12)
    for _ in range(300):
        base = random_point(rng)
        X, Y = random_tangent(rng, base), random_tangent(rng, base)
        pq, x, y = base.as_array(), X.components(), Y.components()
        assert g(x, y) == _ref_metric_g(X, Y)
        assert g_ambient(pq, x, y) == _ref_metric_g_ambient(X, Y)
        assert norm(x) == _ref_g_norm(X)
        assert np.array_equal(J(x), _ref_apply_J(X).components())
        assert np.array_equal(P(x), _ref_apply_P(X).components())
        assert np.array_equal(G(x, y), _ref_G_tensor(X, Y).components())
        assert G_tensor(X, Y) == _ref_G_tensor(X, Y)
        assert np.array_equal(embed(pq, x), _ref_embed(X))


def test_unit_points_keeps_the_point_checks() -> None:
    raw = np.random.default_rng(4).standard_normal((3, 2, 4))
    zero = raw.copy()
    zero[1, 0] = 0.0
    with pytest.raises(ZeroDivisionError):
        unit_points(zero)
    infinite = raw.copy()
    infinite[2, 1, 3] = math.inf
    with pytest.raises(ValueError, match="q is not a unit quaternion"):
        unit_points(infinite)
