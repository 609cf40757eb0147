"""Tests for the nearly Kahler structure tensors, the closed-form connection
and G = nabla J, and the finite-difference chart reference they are checked
against."""

import math

import numpy as np
import pytest

from nkverify import nkgeom
from nkverify.nkgeom import (
    BRACKET,
    CONNECTION,
    J_MATRIX,
    METRIC,
    Chart,
    PointS3S3,
    TangentVector,
    G_tensor,
    J,
    P,
    covariant_derivative_along,
    g,
    g_ambient,
    norm,
)
from nkverify.quat import ImaginaryQuaternion, Quaternion
from random_tangents import promote, random_point, random_tangent

I_IM = ImaginaryQuaternion(1.0, 0.0, 0.0)
ZERO_IM = ImaginaryQuaternion.zero()


def _pair(rng: np.random.Generator) -> tuple[TangentVector, TangentVector]:
    base = random_point(rng)
    return random_tangent(rng, base), random_tangent(rng, base)


def test_metric_oracle_values() -> None:
    # g((p i, 0), (p i, 0)) = 4/3 and g((p i, 0), (0, q i)) = -2/3 at any base
    base = random_point(np.random.default_rng(11))
    x = TangentVector(base, I_IM, ZERO_IM).components()
    y = TangentVector(base, ZERO_IM, I_IM).components()
    assert g(x, x) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert g(x, y) == pytest.approx(-2.0 / 3.0, abs=1e-15)


def test_metric_reduced_matches_definition() -> None:
    rng = np.random.default_rng(2)
    for _ in range(100):
        X, Y = _pair(rng)
        x, y = X.components(), Y.components()
        assert abs(g(x, y) - g_ambient(X.base.as_array(), x, y)) < 1e-12


def test_metric_symmetric_and_bilinear() -> None:
    rng = np.random.default_rng(3)
    for _ in range(50):
        base = random_point(rng)
        X, Y, Z = (random_tangent(rng, base) for _ in range(3))
        x, y, z = X.components(), Y.components(), Z.components()
        assert g(x, y) == g(y, x)
        lhs = g((X + Z).components(), y)
        assert abs(lhs - g(x, y) - g(z, y)) < 1e-12
        t = float(rng.uniform(-2, 2))
        assert abs(g(X.scaled(t).components(), y) - t * g(x, y)) < 1e-12


def test_metric_positive_definite() -> None:
    rng = np.random.default_rng(4)
    for _ in range(1000):
        base = random_point(rng)
        X = random_tangent(rng, base)
        if X.alpha.norm() + X.beta.norm() == 0.0:
            continue
        assert g(X.components(), X.components()) > 0.0


def test_base_point_mismatch_raises() -> None:
    rng = np.random.default_rng(5)
    X = random_tangent(rng, random_point(rng))
    Y = random_tangent(rng, random_point(rng))
    with pytest.raises(ValueError):
        X + Y
    with pytest.raises(ValueError):
        G_tensor(X, Y)


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
    x, y = X.components(), Y.components()
    assert g((X + Y).components(), (X - Y).components()) == pytest.approx(
        g(x, x) - g(y, y)
    )


def test_J_squares_to_minus_id() -> None:
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = random_tangent(rng, random_point(rng)).components()
        assert np.max(np.abs(J(J(x)) + x)) < 1e-13


def test_J_on_diagonal_tangents() -> None:
    # alpha = beta: J(p a, q a) = (p a, -q a)/sqrt(3)
    rng = np.random.default_rng(7)
    base = random_point(rng)
    a = ImaginaryQuaternion(0.4, -1.1, 0.25)
    JX = J(TangentVector(base, a, a).components())
    s = 1.0 / math.sqrt(3.0)
    assert np.max(np.abs(JX[:3] - s * a.as_array())) < 1e-15
    assert np.max(np.abs(JX[3:] + s * a.as_array())) < 1e-15


def test_J_is_isometry() -> None:
    rng = np.random.default_rng(8)
    for _ in range(100):
        x, y = (V.components() for V in _pair(rng))
        assert abs(g(J(x), J(y)) - g(x, y)) < 1e-12


def test_P_swaps_and_is_involutive() -> None:
    rng = np.random.default_rng(9)
    x = random_tangent(rng, random_point(rng)).components()
    Px = P(x)
    assert np.array_equal(Px[:3], x[3:]) and np.array_equal(Px[3:], x[:3])
    assert np.array_equal(P(Px), x)


def test_P_g_symmetric_and_anticommutes_with_J() -> None:
    rng = np.random.default_rng(10)
    for _ in range(100):
        x, y = (V.components() for V in _pair(rng))
        assert abs(g(P(x), y) - g(x, P(y))) < 1e-12
        assert np.max(np.abs(J(P(x)) + P(J(x)))) < 1e-13


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
    ch = Chart(PointS3S3(Quaternion.one(), Quaternion.one()))
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
        nabla = covariant_derivative_along(ch, lambda t: x + t * e, lambda t: W(x + t * e), 0.0)
        rhs = 2.0 * g(nabla.components(), ch.tangent_from_coords(x, w0).components())
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
        V = ch.tangent_from_coords(t * xdir, y + t * z)
        return TangentVector.from_components(V.base, J(V.components()))

    term1 = _chart_nabla(ch, xdir, j_field)
    gamma0 = ch.christoffel(np.zeros(6))
    nabla = z + np.einsum("dab,a,b->d", gamma0, xdir, y)
    term2 = ch.tangent_from_coords(np.zeros(6), nabla)
    return term1 - TangentVector.from_components(term2.base, J(term2.components()))


def test_bracket_is_the_quaternion_commutator() -> None:
    # [X, Y] of left-invariant fields is X Y - Y X in each factor
    basis = [
        ImaginaryQuaternion(1.0, 0.0, 0.0),
        ImaginaryQuaternion(0.0, 1.0, 0.0),
        ImaginaryQuaternion(0.0, 0.0, 1.0),
    ]
    for a in range(3):
        for b in range(3):
            ea, eb = promote(basis[a]), promote(basis[b])
            comm = (ea * eb - eb * ea).imag.as_array()
            assert np.array_equal(BRACKET[:3, a, b], comm)
            assert np.array_equal(BRACKET[3:, 3 + a, 3 + b], comm)
    assert not BRACKET[:, :3, 3:].any() and not BRACKET[:, 3:, :3].any()


def test_constant_tables_match_pointwise_structure() -> None:
    # the left-invariant basis vectors at any base reproduce METRIC and J_MATRIX
    base = random_point(np.random.default_rng(25))
    basis = [TangentVector.from_components(base, row).components() for row in np.eye(6)]
    for a, ea in enumerate(basis):
        assert np.array_equal(J(ea), J_MATRIX[:, a])
        for b, eb in enumerate(basis):
            assert g(ea, eb) == METRIC[a, b]


def test_j_integer_squares_to_minus_three_exactly() -> None:
    # J^2 = -1 with J = _J_INTEGER^T / sqrt(3): the integer table alone
    # carries it, with no rounding
    assert np.array_equal(nkgeom._J_INTEGER @ nkgeom._J_INTEGER, -3.0 * np.eye(6))
    assert np.array_equal(J_MATRIX, nkgeom._J_INTEGER.T / math.sqrt(3.0))


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
        assert np.max(np.abs(got.components() - CONNECTION @ w @ x)) < 1e-9


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
        assert norm(G_tensor(X, X).components()) < 1e-5


def test_G_antisymmetric() -> None:
    rng = np.random.default_rng(19)
    for _ in range(10):
        base = random_point(rng)
        X, Y = random_tangent(rng, base), random_tangent(rng, base)
        s = G_tensor(X, Y) + G_tensor(Y, X)
        assert norm(s.components()) < 1e-5


def test_G_cubic_antisymmetry_in_last_slot() -> None:
    rng = np.random.default_rng(20)
    for _ in range(10):
        base = random_point(rng)
        X, Y = random_tangent(rng, base), random_tangent(rng, base)
        assert abs(g(G_tensor(X, Y).components(), Y.components())) < 1e-4


def test_G_extension_independent() -> None:
    # recompute with the Y-extension perturbed by a field vanishing at 0
    rng = np.random.default_rng(21)
    base = random_point(rng)
    X, Y = random_tangent(rng, base), random_tangent(rng, base)
    alt = _G_chart(Chart(base), X, Y, rng.uniform(-1, 1, 6))
    assert np.max(np.abs((alt - G_tensor(X, Y)).components())) < 1e-7
