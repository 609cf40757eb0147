"""Tests for the quaternion layer: Hamilton algebra, exp/log, differentials."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nkverify.quat import ImaginaryQuaternion, Quaternion, dexp_im, exp_im, log_unit
from random_tangents import promote

ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

components = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


@st.composite
def quaternions(draw) -> Quaternion:
    return Quaternion(
        draw(components), draw(components), draw(components), draw(components)
    )


@st.composite
def unit_quaternions(draw) -> Quaternion:
    q = draw(quaternions())
    if q.norm() < 0.3:
        q = q + ONE
    return q.normalized()


@st.composite
def imaginary_quaternions(draw) -> ImaginaryQuaternion:
    return ImaginaryQuaternion(draw(components), draw(components), draw(components))


def test_hamilton_relations() -> None:
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE
    assert I * J == -(J * I)


def test_identity_element() -> None:
    q = Quaternion(0.3, -1.2, 0.5, 2.0)
    assert ONE * q == q
    assert q * ONE == q


@given(quaternions(), quaternions(), quaternions())
def test_associativity(a: Quaternion, b: Quaternion, c: Quaternion) -> None:
    lhs = ((a * b) * c).as_array()
    rhs = (a * (b * c)).as_array()
    scale = max(1.0, a.norm() * b.norm() * c.norm())
    assert np.max(np.abs(lhs - rhs)) < 1e-14 * scale


@given(quaternions(), quaternions())
def test_norm_multiplicative(a: Quaternion, b: Quaternion) -> None:
    scale = max(1.0, a.norm() * b.norm())
    assert abs((a * b).norm() - a.norm() * b.norm()) < 1e-14 * scale


@given(quaternions(), quaternions())
def test_conjugation_antihomomorphism(a: Quaternion, b: Quaternion) -> None:
    lhs = (a * b).conjugate().as_array()
    rhs = (b.conjugate() * a.conjugate()).as_array()
    scale = max(1.0, a.norm() * b.norm())
    assert np.max(np.abs(lhs - rhs)) < 1e-14 * scale


@given(unit_quaternions(), imaginary_quaternions())
def test_left_translate_of_imaginary_is_tangent(
    p: Quaternion, a: ImaginaryQuaternion
) -> None:
    # p*a is orthogonal to p in the Euclidean 4-product: T_p S^3 = p * Im(H)
    assert abs((p * promote(a)).dot(p)) < 1e-13 * max(1.0, a.norm())


def test_exp_at_zero() -> None:
    assert exp_im(ImaginaryQuaternion.zero()) == ONE


def test_exp_quarter_turn() -> None:
    q = exp_im(ImaginaryQuaternion(math.pi / 2, 0.0, 0.0))
    assert np.max(np.abs(q.as_array() - I.as_array())) < 1e-15


def test_log_at_one_and_i() -> None:
    assert log_unit(ONE) == ImaginaryQuaternion.zero()
    v = log_unit(I)
    assert np.max(np.abs(v.as_array() - [math.pi / 2, 0.0, 0.0])) < 1e-15


@given(imaginary_quaternions())
def test_exp_produces_unit_norm(a: ImaginaryQuaternion) -> None:
    assert abs(exp_im(a).norm() - 1.0) < 1e-14


@given(imaginary_quaternions())
def test_log_exp_round_trip(a: ImaginaryQuaternion) -> None:
    if a.norm() >= math.pi - 0.1:
        a = a.scaled((math.pi - 0.2) / a.norm())
    back = log_unit(exp_im(a))
    assert np.max(np.abs(back.as_array() - a.as_array())) < 1e-10


@given(unit_quaternions())
def test_exp_log_round_trip(q: Quaternion) -> None:
    if 1.0 + q.w < 1e-6:
        q = -q
    back = exp_im(log_unit(q))
    assert np.max(np.abs(back.as_array() - q.as_array())) < 1e-12


def test_exp_series_branch_consistent() -> None:
    a = ImaginaryQuaternion(3e-7, -4e-7, 1e-7)
    q = exp_im(a)
    assert abs(q.norm() - 1.0) < 1e-15
    back = log_unit(q)
    assert np.max(np.abs(back.as_array() - a.as_array())) < 1e-18


def test_log_rejects_non_unit() -> None:
    with pytest.raises(ValueError):
        log_unit(Quaternion(1.1, 0.0, 0.0, 0.0))


def test_log_rejects_antipode() -> None:
    with pytest.raises(ValueError):
        log_unit(Quaternion(-1.0, 0.0, 0.0, 0.0))


def _dexp_fd(v: ImaginaryQuaternion, e: ImaginaryQuaternion, h: float) -> np.ndarray:
    plus = exp_im(v + e.scaled(h)).as_array()
    minus = exp_im(v - e.scaled(h)).as_array()
    return (plus - minus) / (2.0 * h)


@given(imaginary_quaternions(), imaginary_quaternions())
def test_dexp_matches_finite_difference(
    v: ImaginaryQuaternion, e: ImaginaryQuaternion
) -> None:
    if v.norm() >= math.pi - 0.2:
        v = v.scaled((math.pi - 0.3) / v.norm())
    got = dexp_im(v, e).as_array()
    want = _dexp_fd(v, e, 1e-6)
    assert np.max(np.abs(got - want)) < 1e-8 * max(1.0, e.norm())


def test_dexp_small_norm_branch() -> None:
    v = ImaginaryQuaternion(1e-5, 2e-5, -1e-5)
    e = ImaginaryQuaternion(0.7, -0.2, 0.4)
    got = dexp_im(v, e).as_array()
    want = _dexp_fd(v, e, 1e-6)
    assert np.max(np.abs(got - want)) < 1e-9


def test_dexp_at_zero_is_inclusion() -> None:
    e = ImaginaryQuaternion(0.3, 0.1, -0.5)
    assert dexp_im(ImaginaryQuaternion.zero(), e) == promote(e)
