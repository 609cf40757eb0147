"""Tests for the nearly Kahler structure tensors, the closed-form connection
and G = nabla J, and the finite-difference chart reference they are checked
against."""

import math

import numpy as np
import pytest

from nkverify.nkgeom import (
    BRACKET,
    CONNECTION,
    J_MATRIX,
    METRIC,
    Chart,
    PointS3S3,
    TangentVector,
    G_tensor,
    apply_J,
    apply_P,
    connection,
    covariant_derivative,
    covariant_derivative_along,
    g_norm,
    integrate_geodesic,
    metric_g,
    metric_g_ambient,
    random_point,
    random_tangent,
)
from nkverify.quat import ImaginaryQuaternion, Quaternion

I_IM = ImaginaryQuaternion(1.0, 0.0, 0.0)
ZERO_IM = ImaginaryQuaternion.zero()


def _pair(rng: np.random.Generator) -> tuple[TangentVector, TangentVector]:
    base = random_point(rng)
    return random_tangent(rng, base), random_tangent(rng, base)


def test_metric_oracle_values() -> None:
    # g((p i, 0), (p i, 0)) = 4/3 and g((p i, 0), (0, q i)) = -2/3 at any base
    base = random_point(np.random.default_rng(11))
    X = TangentVector(base, I_IM, ZERO_IM)
    Y = TangentVector(base, ZERO_IM, I_IM)
    assert metric_g(X, X) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert metric_g(X, Y) == pytest.approx(-2.0 / 3.0, abs=1e-15)


def test_metric_reduced_matches_definition() -> None:
    rng = np.random.default_rng(2)
    for _ in range(100):
        X, Y = _pair(rng)
        assert abs(metric_g(X, Y) - metric_g_ambient(X, Y)) < 1e-12


def test_metric_symmetric_and_bilinear() -> None:
    rng = np.random.default_rng(3)
    for _ in range(50):
        base = random_point(rng)
        X, Y, Z = (random_tangent(rng, base) for _ in range(3))
        assert metric_g(X, Y) == metric_g(Y, X)
        lhs = metric_g(X + Z, Y)
        assert abs(lhs - metric_g(X, Y) - metric_g(Z, Y)) < 1e-12
        t = float(rng.uniform(-2, 2))
        assert abs(metric_g(X.scaled(t), Y) - t * metric_g(X, Y)) < 1e-12


def test_metric_positive_definite() -> None:
    rng = np.random.default_rng(4)
    for _ in range(1000):
        base = random_point(rng)
        X = random_tangent(rng, base)
        if X.alpha.norm() + X.beta.norm() == 0.0:
            continue
        assert metric_g(X, X) > 0.0


def test_base_point_mismatch_raises() -> None:
    rng = np.random.default_rng(5)
    X = random_tangent(rng, random_point(rng))
    Y = random_tangent(rng, random_point(rng))
    with pytest.raises(ValueError):
        metric_g(X, Y)
    with pytest.raises(ValueError):
        X + Y


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_point_rejected(bad: float) -> None:
    with pytest.raises(ValueError):
        PointS3S3(Quaternion(bad, 0.0, 0.0, 0.0), Quaternion.one())
    with pytest.raises(ValueError):
        PointS3S3(Quaternion.one(), Quaternion(1.0, bad, 0.0, 0.0))


def test_shared_base_object_skips_close_to(monkeypatch) -> None:
    rng = np.random.default_rng(22)
    base = random_point(rng)
    X, Y = random_tangent(rng, base), random_tangent(rng, base)

    def fail(*_args, **_kwargs):
        raise AssertionError("close_to called for one shared base object")

    monkeypatch.setattr(PointS3S3, "close_to", fail)
    assert metric_g(X + Y, X - Y) == pytest.approx(metric_g(X, X) - metric_g(Y, Y))


def test_J_squares_to_minus_id() -> None:
    rng = np.random.default_rng(6)
    for _ in range(100):
        X = random_tangent(rng, random_point(rng))
        JJX = apply_J(apply_J(X))
        assert np.max(np.abs((JJX + X).components())) < 1e-13


def test_J_on_diagonal_tangents() -> None:
    # alpha = beta: J(p a, q a) = (p a, -q a)/sqrt(3)
    rng = np.random.default_rng(7)
    base = random_point(rng)
    a = ImaginaryQuaternion(0.4, -1.1, 0.25)
    JX = apply_J(TangentVector(base, a, a))
    s = 1.0 / math.sqrt(3.0)
    assert np.max(np.abs(JX.alpha.as_array() - s * a.as_array())) < 1e-15
    assert np.max(np.abs(JX.beta.as_array() + s * a.as_array())) < 1e-15


def test_J_is_isometry() -> None:
    rng = np.random.default_rng(8)
    for _ in range(100):
        X, Y = _pair(rng)
        assert abs(metric_g(apply_J(X), apply_J(Y)) - metric_g(X, Y)) < 1e-12


def test_P_swaps_and_is_involutive() -> None:
    rng = np.random.default_rng(9)
    X = random_tangent(rng, random_point(rng))
    PX = apply_P(X)
    assert PX.alpha == X.beta and PX.beta == X.alpha
    assert apply_P(PX) == X


def test_P_g_symmetric_and_anticommutes_with_J() -> None:
    rng = np.random.default_rng(10)
    for _ in range(100):
        X, Y = _pair(rng)
        assert abs(metric_g(apply_P(X), Y) - metric_g(X, apply_P(Y))) < 1e-12
        anti = apply_J(apply_P(X)) + apply_P(apply_J(X))
        assert np.max(np.abs(anti.components())) < 1e-13


def test_chart_center_and_round_trip() -> None:
    rng = np.random.default_rng(12)
    base = random_point(rng)
    ch = Chart(base)
    assert ch.point(np.zeros(6)).close_to(base)
    for _ in range(20):
        x = rng.uniform(-0.28, 0.28, 6)  # |x| < 0.5 in each factor
        back = ch.coords(ch.point(x))
        assert np.max(np.abs(back - x)) < 1e-10


def test_chart_radius_enforced() -> None:
    ch = Chart(PointS3S3.identity())
    bad = np.array([math.pi, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ch.point(bad)


def test_chart_frame_at_center_is_standard_basis() -> None:
    rng = np.random.default_rng(13)
    ch = Chart(random_point(rng))
    for a, f in enumerate(ch.frame(np.zeros(6))):
        expected = np.zeros(6)
        expected[a] = 1.0
        assert np.max(np.abs(f.components() - expected)) < 1e-10


def test_tangent_coords_round_trip() -> None:
    rng = np.random.default_rng(14)
    ch = Chart(random_point(rng))
    x = rng.uniform(-0.4, 0.4, 6)
    comps = rng.uniform(-1, 1, 6)
    X = ch.tangent_from_coords(x, comps)
    assert np.max(np.abs(ch.tangent_to_coords(x, X) - comps)) < 1e-12


def test_christoffel_index_symmetry_exact() -> None:
    rng = np.random.default_rng(15)
    ch = Chart(random_point(rng))
    gamma = ch.christoffel(rng.uniform(-0.3, 0.3, 6))
    assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


def test_metric_compatibility() -> None:
    # d_a g(W,W) = 2 g(nabla_{e_a} W, W) up to discretization error
    rng = np.random.default_rng(16)
    ch = Chart(random_point(rng))
    x = rng.uniform(-0.2, 0.2, 6)
    w0 = rng.uniform(-1, 1, 6)
    M = rng.uniform(-1, 1, (6, 6))

    def W(y: np.ndarray) -> np.ndarray:
        return w0 + M @ (y - x)

    def g_ww(y: np.ndarray) -> float:
        wy = W(y)
        return float(wy @ ch.gram(y) @ wy)

    h = 1e-4
    for a in range(6):
        e = np.zeros(6)
        e[a] = 1.0
        d1 = (g_ww(x + h * e) - g_ww(x - h * e)) / (2 * h)
        d2 = (g_ww(x + h / 2 * e) - g_ww(x - h / 2 * e)) / h
        lhs = (4 * d2 - d1) / 3
        nabla = covariant_derivative(ch, lambda y: e, W, x)
        rhs = 2.0 * metric_g(nabla, ch.tangent_from_coords(x, w0))
        assert abs(lhs - rhs) < 1e-5


def test_covariant_derivative_along_constant_field_at_center() -> None:
    # Straight coordinate line through 0 with constant components: the
    # derivative reduces to the pure Christoffel term
    rng = np.random.default_rng(17)
    ch = Chart(random_point(rng))
    v = rng.uniform(-1, 1, 6)
    w = rng.uniform(-1, 1, 6)
    got = covariant_derivative_along(ch, lambda t: t * v, lambda t: w, 0.0)
    gamma = ch.christoffel(np.zeros(6))
    want = ch.tangent_from_coords(np.zeros(6), np.einsum("dab,a,b->d", gamma, v, w))
    assert np.max(np.abs((got - want).components())) < 1e-9


def test_geodesic_in_first_factor_stays_there() -> None:
    ch = Chart(PointS3S3.identity())
    v0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    path = integrate_geodesic(ch, np.zeros(6), v0, t_max=1.0)
    assert np.max(np.abs(path[:, 3:])) < 1e-8
    # the first factor follows exp(t i): coordinates stay on the x1-axis
    assert np.max(np.abs(path[:, 1:3])) < 1e-8
    assert abs(path[-1, 0] - 1.0) < 1e-8


def _chart_nabla(ch: Chart, x: np.ndarray, field) -> TangentVector:
    """nabla_X W by finite differences in the chart centered at X.base, along
    the coordinate line t -> t x; field(t) is the tangent vector W at the
    chart point t x."""
    return covariant_derivative_along(
        ch, lambda t: t * x, lambda t: ch.tangent_to_coords(t * x, field(t)), 0.0
    )


def _G_chart(
    ch: Chart, X: TangentVector, Y: TangentVector, z: np.ndarray
) -> TangentVector:
    """G(X, Y) = nabla_X (J Ybar) - J nabla_X Ybar in the chart, with Y
    extended by the chart components y + t z along the line t x."""
    xdir, y = X.components(), Y.components()

    def j_field(t: float) -> TangentVector:
        return apply_J(ch.tangent_from_coords(t * xdir, y + t * z))

    term1 = _chart_nabla(ch, xdir, j_field)
    gamma0 = ch.christoffel(np.zeros(6))
    nabla = z + np.einsum("dab,a,b->d", gamma0, xdir, y)
    term2 = apply_J(ch.tangent_from_coords(np.zeros(6), nabla))
    return term1 - term2


def test_bracket_is_the_quaternion_commutator() -> None:
    # [X, Y] of left-invariant fields is X Y - Y X in each factor
    basis = [
        ImaginaryQuaternion(1.0, 0.0, 0.0),
        ImaginaryQuaternion(0.0, 1.0, 0.0),
        ImaginaryQuaternion(0.0, 0.0, 1.0),
    ]
    for a in range(3):
        for b in range(3):
            ea, eb = basis[a].promote(), basis[b].promote()
            comm = (ea * eb - eb * ea).imag.as_array()
            assert np.array_equal(BRACKET[:3, a, b], comm)
            assert np.array_equal(BRACKET[3:, 3 + a, 3 + b], comm)
    assert not BRACKET[:, :3, 3:].any() and not BRACKET[:, 3:, :3].any()


def test_constant_tables_match_pointwise_structure() -> None:
    # the left-invariant basis vectors at any base reproduce METRIC and J_MATRIX
    base = random_point(np.random.default_rng(25))
    basis = [TangentVector.from_components(base, row) for row in np.eye(6)]
    for a, ea in enumerate(basis):
        assert np.array_equal(apply_J(ea).components(), J_MATRIX[:, a])
        for b, eb in enumerate(basis):
            assert metric_g(ea, eb) == METRIC[a, b]


def test_connection_torsion_free_exact() -> None:
    # nabla_a e_b - nabla_b e_a = [e_a, e_b]
    assert np.array_equal(CONNECTION - CONNECTION.transpose(0, 2, 1), BRACKET)


def test_connection_metric_compatible_exact() -> None:
    # g(nabla_a e_b, e_c) + g(e_b, nabla_a e_c) = e_a(g(e_b, e_c)) = 0
    lowered = np.einsum("cd,dab->cab", METRIC, CONNECTION)
    assert not (lowered + lowered.transpose(2, 1, 0)).any()


def test_connection_matches_chart_reference() -> None:
    rng = np.random.default_rng(23)
    for _ in range(20):
        base = random_point(rng)
        ch = Chart(base)
        x, w = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)
        got = _chart_nabla(
            ch, x, lambda t: TangentVector.from_components(ch.point(t * x), w)
        )
        assert np.max(np.abs(got.components() - connection(x, w))) < 1e-9


def test_G_matches_chart_reference() -> None:
    rng = np.random.default_rng(24)
    for _ in range(20):
        base = random_point(rng)
        X, Y = random_tangent(rng, base), random_tangent(rng, base)
        ref = _G_chart(Chart(base), X, Y, np.zeros(6))
        assert np.max(np.abs((G_tensor(X, Y) - ref).components())) < 1e-9


def test_G_vanishes_on_diagonal() -> None:
    rng = np.random.default_rng(18)
    for _ in range(10):
        base = random_point(rng)
        X = random_tangent(rng, base)
        assert g_norm(G_tensor(X, X)) < 1e-5


def test_G_antisymmetric() -> None:
    rng = np.random.default_rng(19)
    for _ in range(10):
        base = random_point(rng)
        X, Y = random_tangent(rng, base), random_tangent(rng, base)
        s = G_tensor(X, Y) + G_tensor(Y, X)
        assert g_norm(s) < 1e-5


def test_G_cubic_antisymmetry_in_last_slot() -> None:
    rng = np.random.default_rng(20)
    for _ in range(10):
        base = random_point(rng)
        X, Y = random_tangent(rng, base), random_tangent(rng, base)
        assert abs(metric_g(G_tensor(X, Y), Y)) < 1e-4


def test_G_extension_independent() -> None:
    # recompute with the Y-extension perturbed by a field vanishing at 0
    rng = np.random.default_rng(21)
    base = random_point(rng)
    X, Y = random_tangent(rng, base), random_tangent(rng, base)
    alt = _G_chart(Chart(base), X, Y, rng.uniform(-1, 1, 6))
    assert np.max(np.abs((alt - G_tensor(X, Y)).components())) < 1e-7
