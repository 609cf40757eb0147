"""Truncated Taylor jets: arithmetic against polynomial identities, the
quaternion exponential on jets, and the unit check of jet points."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkverify.jet import Jet, _monomials, size, stack
from nkverify.nkgeom import PointS3S3
from nkverify.quat import ImaginaryQuaternion, Quaternion, dexp_im, exp_im


def _coef(jet, exponents):
    return jet.c[..., _monomials(jet.order).index(tuple(exponents))]


def _reference_product(a, b, order):
    """Truncated product of coefficient vectors, monomial by monomial."""
    monos = _monomials(order)
    out = np.zeros(len(monos))
    for (i, x), (j, y) in itertools.product(enumerate(monos), repeat=2):
        xy = tuple(p + q for p, q in zip(x, y))
        if sum(xy) <= order:
            out[monos.index(xy)] += a[i] * b[j]
    return out


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_product_is_the_truncated_polynomial_product(order):
    rng = np.random.default_rng(order)
    a = Jet(rng.standard_normal((4, 2, size(order))), order)
    b = Jet(rng.standard_normal((2, size(order))), order)  # broadcasts over the 4
    got = (a * b).c
    for i, j in itertools.product(range(4), range(2)):
        assert np.allclose(got[i, j], _reference_product(a.c[i, j], b.c[j], order), atol=1e-14)


def test_polynomial_identities():
    us = np.array([[0.3, -1.2, 2.0], [0.0, 0.0, 0.0]])
    x, y, z = Jet.variables(us, 3)[0], Jet.variables(us, 3)[1], Jet.variables(us, 3)[2]
    # (x + y)(x - y) = x^2 - y^2, coefficient by coefficient
    assert np.allclose(((x + y) * (x - y)).c, (x * x - y * y).c, atol=1e-15)
    # x^2 z at u0 + t: 2 x0 z0 t_0, x0^2 t_2, z0 t_0^2, 2 x0 t_0 t_2, t_0^2 t_2
    f = x * x * z
    x0, z0 = us[:, 0], us[:, 2]
    assert np.allclose(f.value, x0**2 * z0)
    assert np.allclose(_coef(f, (1, 0, 0)), 2 * x0 * z0)
    assert np.allclose(_coef(f, (0, 0, 1)), x0**2)
    assert np.allclose(_coef(f, (2, 0, 0)), z0)
    assert np.allclose(_coef(f, (1, 0, 1)), 2 * x0)
    assert np.allclose(_coef(f, (2, 0, 1)), 1.0)
    assert np.allclose(_coef(f, (0, 1, 0)), 0.0) and np.allclose(_coef(f, (3, 0, 0)), 0.0)
    # the derivative axis: d/dt_0 of x^2 z is 2 x z
    assert np.allclose(f.grad()[..., 0].c, (2.0 * x * z).truncate(2).c, atol=1e-15)


def test_reciprocal_and_square_root():
    us = np.array([[0.7, 0.2, -0.4], [2.5, -1.0, 0.3]])
    x = Jet.variables(us, 3)[0]
    x0 = us[:, 0]
    r = x.power(-1.0)
    for k in range(4):  # 1/(x0 + t) = sum_k (-t)^k / x0^(k+1)
        assert np.allclose(_coef(r, (k, 0, 0)), (-1) ** k / x0 ** (k + 1), rtol=1e-14)
    root = (x * x).power(0.5)
    assert np.allclose(root.c, x.c, atol=1e-15)
    a = x * x + Jet.variables(us, 3)[1] + 3.0
    one = (a * a.power(-1.0)).c
    assert np.allclose(one[..., 0], 1.0, atol=1e-15) and np.allclose(one[..., 1:], 0.0, atol=1e-14)
    assert np.allclose((a.power(0.5) * a.power(0.5)).c, a.c, atol=1e-14)


_COEFFS = st.lists(st.floats(-2.0, 2.0), min_size=size(3), max_size=size(3))


def _jet(coeffs, constant):
    c = np.array(coeffs)
    c[0] = constant
    return Jet(c[None], 3)


@settings(max_examples=50, deadline=None)
@given(_COEFFS, _COEFFS, _COEFFS, st.floats(0.5, 3.0), st.floats(-3.0, -0.5))
def test_jet_algebra_properties(ca, cb, cc, pos, neg):
    a, b, c = _jet(ca, pos), _jet(cb, neg), _jet(cc, 0.0)
    scale = 1e-12 * (1 + np.max(np.abs(a.c)) * np.max(np.abs(b.c))) ** 4
    assert np.allclose(((a * b) * c).c, (a * (b * c)).c, atol=scale)
    assert np.allclose((a * (b + c)).c, (a * b + a * c).c, atol=scale)
    assert np.allclose((a * b).c, (b * a).c, atol=0.0)
    inverse = (a.power(-1.0) * b.power(-1.0)).c
    assert np.allclose((a * b).power(-1.0).c, inverse, rtol=1e-9, atol=1e-9)
    assert np.allclose((a * a).power(0.5).c, a.c, rtol=1e-9, atol=1e-9)
    # c has no constant term: c^4 vanishes at order 3
    assert np.all((c * c * c * c).c == 0.0)


def _exp_jet(u, order=3):
    return exp_im(ImaginaryQuaternion.from_array(Jet.variables(u, order)))


@pytest.mark.parametrize("scale", [0.0, 1e-7, 1e-3, 1.0])
def test_exp_im_jet_matches_exp_im_and_dexp_im(scale):
    direction = np.array([0.48, -0.6, 0.64])
    u = scale * direction
    jet = _exp_jet(u)
    value = exp_im(ImaginaryQuaternion.from_array(u))
    got = np.array([x.value[0] for x in (jet.w, jet.x, jet.y, jet.z)])
    first = [
        np.array([_coef(x, np.eye(3, dtype=int)[a])[0] for x in (jet.w, jet.x, jet.y, jet.z)])
        for a in range(3)
    ]
    want = [dexp_im(ImaginaryQuaternion.from_array(u), e).as_array() for e in
            map(ImaginaryQuaternion.from_array, np.eye(3))]
    if scale == 0.0:  # the same numbers, no cutoff branch needed
        assert np.array_equal(got, value.as_array())
        for f, w in zip(first, want):
            assert np.array_equal(f, w)
    else:
        assert np.allclose(got, value.as_array(), rtol=0.0, atol=1e-15)
        for f, w in zip(first, want):
            assert np.allclose(f, w, rtol=0.0, atol=2e-15)


@pytest.mark.parametrize("s", [0.0, 1e-7, 0.3, 2.0])
def test_exp_im_jet_higher_coefficients_along_an_axis(s):
    # exp(i (s + t)) = cos(s + t) + i sin(s + t): t^k carries the k-th
    # derivatives / k!
    jet = _exp_jet(np.array([s, 0.0, 0.0]))
    for k in range(4):
        w = _coef(jet.w, (k, 0, 0))[0]
        x = _coef(jet.x, (k, 0, 0))[0]
        assert w == pytest.approx(math.cos(s + k * math.pi / 2) / math.factorial(k), abs=1e-15)
        assert x == pytest.approx(math.sin(s + k * math.pi / 2) / math.factorial(k), abs=1e-15)


def test_unit_check_reads_every_coefficient():
    u = Jet.variables(np.zeros((1, 3)), 2)
    p = _exp_jet(np.array([0.2, 0.1, -0.3]), 2)
    PointS3S3(p, Quaternion.one())  # |p|^2 = 1 to every order
    # |1 + i t_0|^2 = 1 + t_0^2: unit at t = 0, not to second order
    bent = Quaternion(1.0 + 0.0 * u[0], u[0], 0.0, 0.0)
    assert bent.w.value[0] == 1.0 and bent.x.value[0] == 0.0
    with pytest.raises(ValueError, match=r"a coefficient of \|p\|\^2 - 1 is 1.0"):
        PointS3S3(bent, Quaternion.one())


def test_float_components_keep_their_float_path():
    q = Quaternion.from_array(np.array([0.5, 0.5, 0.5, 0.5]))
    assert all(type(v) is float for v in (q.w, q.x, q.y, q.z))
    assert type(q.norm()) is float
    e = exp_im(ImaginaryQuaternion.from_array(np.array([0.1, 0.2, 0.3])))
    assert all(type(v) is float for v in (e.w, e.x, e.y, e.z))


def test_matmul_and_stack_follow_numpy_shapes():
    rng = np.random.default_rng(2)
    us = rng.standard_normal((4, 3))
    u = Jet.variables(us, 2)
    M = rng.standard_normal((2, 3))
    assert (M @ u).shape == (2, 4)
    assert np.allclose((M @ u).value, M @ us.T)
    v = stack([u[0], u[1]], axis=-1)  # (4, 2)
    assert v.shape == (4, 2) and np.allclose((v @ M).value, us[:, :2] @ M)
    assert np.allclose(v.sum(-1).value, us[:, 0] + us[:, 1])
