"""Tests for the quaternion layer: Hamilton algebra, exp/log, differentials,
and the stacked jet products against the written-out sums."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nkverify import jet
from nkverify.jet import Jet, size
from nkverify.quat import (
    ImaginaryQuaternion,
    Quaternion,
    _cos_sqrt,
    _sinc_sqrt,
    dexp_im,
    exp_im,
    log_unit,
)
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


# -- stacked jet products ------------------------------------------------------


def _sparse_jet(rng, shape, order):
    """A jet of the given shape, half its coefficients zeros of either sign,
    so that products and sums land on zeros of both signs."""
    c = rng.standard_normal(shape + (size(order),))
    zero = rng.random(c.shape) < 0.5
    c[zero] = np.where(rng.random(c.shape) < 0.5, 0.0, -0.0)[zero]
    return Jet(c, order)


def _sparse_jets(rng, count, rows, order):
    """count sparse jets of shape (rows,)."""
    jets = _sparse_jet(rng, (count, rows), order)
    return [jets[k] for k in range(count)]


def _sparse_floats(rng, count):
    return [float(x) for x in rng.choice([0.0, -0.0, 0.5, -1.25, 3.0], count)]


def _components(rng, kind, count, rows, order):
    """Components of one kind: jets, jets of shape () that broadcast, jets of
    one order lower, floats, or a mix of floats and jets."""
    if kind == "floats":
        return _sparse_floats(rng, count)
    if kind == "broadcast jets":
        return [Jet(x.c[0], order) for x in _sparse_jets(rng, count, 1, order)]
    if kind == "lower jets":
        return _sparse_jets(rng, count, rows, max(order - 1, 0))
    comps = _sparse_jets(rng, count, rows, order)
    if kind == "mixed":
        comps[1:3] = _sparse_floats(rng, 2)
    return comps


def _bits(values):
    """Each value's shape, order and bytes: equal bits, signs of zero included."""
    return [
        (v.c.shape, v.order, v.c.tobytes()) if isinstance(v, Jet) else np.float64(v).tobytes()
        for v in values
    ]


def _parts(q):
    return q.w, q.x, q.y, q.z


def _written_product(a, b):
    return (
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def _written_exp_im(a):
    """exp_im of jets as one series at a time and one product per component."""
    n2 = a.x * a.x + a.y * a.y + a.z * a.z
    sinc = n2.entire(_sinc_sqrt)[0]
    return n2.entire(_cos_sqrt)[0], sinc * a.x, sinc * a.y, sinc * a.z


KIND_PAIRS = [
    ("jets", "jets"),
    ("floats", "jets"),
    ("jets", "floats"),
    ("jets", "broadcast jets"),
    ("lower jets", "jets"),
    ("mixed", "jets"),
    ("jets", "mixed"),
    ("floats", "floats"),
]


@pytest.mark.parametrize("rows", [1, 2, 300])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("kinds", KIND_PAIRS, ids="-".join)
def test_stacked_product_and_dot_are_the_written_out_sums(kinds, order, rows):
    rng = np.random.default_rng([order, rows, KIND_PAIRS.index(kinds)])
    a = Quaternion(*_components(rng, kinds[0], 4, rows, order))
    b = Quaternion(*_components(rng, kinds[1], 4, rows, order))
    assert _bits(_parts(a * b)) == _bits(_written_product(a, b))
    assert _bits([a.dot(b)]) == _bits([a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z])
    ia, ib = a.imag, b.imag
    assert _bits([ia.dot(ib)]) == _bits([ia.x * ib.x + ia.y * ib.y + ia.z * ib.z])


@pytest.mark.parametrize("rows", [1, 2, 300])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["jets", "mixed"])
def test_stacked_exp_im_is_the_written_out_exp_im(kind, order, rows):
    rng = np.random.default_rng([order, rows])
    a = ImaginaryQuaternion(*_components(rng, kind, 3, rows, order)[::-1])
    assert _bits(_parts(exp_im(a))) == _bits(_written_exp_im(a))


@pytest.mark.parametrize("kinds, order", [(("jets", "jets"), 1), (("floats", "jets"), 3)])
def test_stacked_products_meet_zeros_of_both_signs(kinds, order):
    # the sparse operands above do reach signed zeros in the stacked sums
    # (a BLAS sum of order 2 or more starts from +0.0, so not there)
    rng = np.random.default_rng(order)
    a = Quaternion(*_components(rng, kinds[0], 4, 300, order))
    b = Quaternion(*_components(rng, kinds[1], 4, 300, order))
    c = np.array([x.c for x in _parts(a * b)])
    zeros = c[c == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()


def _counted_products(monkeypatch) -> list:
    calls = []
    real = jet._product

    def counted(a, b, order):
        calls.append(order)
        return real(a, b, order)

    monkeypatch.setattr(jet, "_product", counted)
    return calls


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_one_product_call_per_jet_quaternion_product_and_dot(monkeypatch, order):
    rng = np.random.default_rng(order)
    a, b = (Quaternion(*_sparse_jets(rng, 4, 5, order)) for _ in range(2))
    floats = Quaternion(0.5, -1.0, 0.0, 2.0)
    calls = _counted_products(monkeypatch)
    a * b
    a.dot(b)
    a.imag.dot(b.imag)
    assert calls == [order] * 3
    a * floats
    floats * a
    assert len(calls) == 3  # a jet times a float is no truncated product


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_exp_im_product_calls(monkeypatch, order):
    # |alpha|^2, the Horner steps after the first of the joint compose, and
    # the sinc factor times (x, y, z)
    alpha = ImaginaryQuaternion.from_array(Jet.variables([[0.3, -0.2, 0.1]], order))
    calls = _counted_products(monkeypatch)
    exp_im(alpha)
    assert len(calls) == 2 + max(order - 1, 0)
