"""Tests for exact rational and Q(sqrt(3)) arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nkverify.exact import (
    CirclePoint,
    QSqrt3,
    divide_exactly,
    poly_identity_check,
    rat_circle_point,
)

from exact_oracle import (
    CIRCLE_ONE,
    HALF_INV_SQRT3,
    INV_SQRT3,
    SQRT3,
    angle_add,
    angle_sub,
    conjugate,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
qsqrt3s = st.builds(QSqrt3, rationals, rationals)


def test_sqrt3_squares_to_three() -> None:
    assert SQRT3 * SQRT3 == QSqrt3(3, 0)
    assert SQRT3 * SQRT3 == 3


def test_conjugate_product_is_negative_two() -> None:
    # (1 + sqrt(3)) * (1 - sqrt(3)) = 1 - 3 = -2
    x = QSqrt3(1, 1)
    assert x * x.conjugate() == -2
    assert x.field_norm() == Fraction(-2)


def test_inverse_of_sqrt3() -> None:
    assert SQRT3.inverse() == QSqrt3(0, Fraction(1, 3))
    assert SQRT3.inverse() == INV_SQRT3
    assert SQRT3 * INV_SQRT3 == 1


def test_named_constants() -> None:
    assert HALF_INV_SQRT3 * (2 * SQRT3) == 1
    assert INV_SQRT3 == SQRT3 / 3


def test_inverse_of_zero_raises() -> None:
    with pytest.raises(ZeroDivisionError):
        QSqrt3(0, 0).inverse()


def test_mixed_coercion() -> None:
    x = QSqrt3(Fraction(1, 2), 2)
    assert 1 + x == QSqrt3(Fraction(3, 2), 2)
    assert x - Fraction(1, 2) == QSqrt3(0, 2)
    assert Fraction(1, 2) * x == QSqrt3(Fraction(1, 4), 1)
    assert (2 / SQRT3) == QSqrt3(0, Fraction(2, 3))


def test_power() -> None:
    assert (QSqrt3(1, 1)) ** 2 == QSqrt3(4, 2)
    assert SQRT3**0 == 1
    assert SQRT3**5 == QSqrt3(0, 9)
    with pytest.raises(ValueError):
        SQRT3 ** (-1)


def test_float_and_str() -> None:
    assert abs(float(SQRT3) - 3**0.5) < 1e-15
    assert str(QSqrt3(1, -1)) == "1 - 1*sqrt(3)"
    assert str(QSqrt3(Fraction(1, 2), 0)) == "1/2"


def test_hash_matches_rational_embedding() -> None:
    assert hash(QSqrt3(Fraction(3, 4), 0)) == hash(Fraction(3, 4))
    assert QSqrt3(2, 0) == 2


@given(qsqrt3s, qsqrt3s, qsqrt3s)
def test_ring_axioms(x: QSqrt3, y: QSqrt3, z: QSqrt3) -> None:
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(qsqrt3s)
def test_multiplicative_inverse(x: QSqrt3) -> None:
    if not x:
        return
    # a^2 = 3 b^2 has no rational solution besides a = b = 0, so every
    # nonzero element is invertible.
    assert x * x.inverse() == 1


@given(qsqrt3s)
def test_conjugation_is_an_involution(x: QSqrt3) -> None:
    assert x.conjugate().conjugate() == x
    assert x * x.conjugate() == QSqrt3(x.field_norm())


def test_rat_circle_point_half() -> None:
    p = rat_circle_point(Fraction(1, 2))
    assert p == CirclePoint(Fraction(3, 5), Fraction(4, 5))


def test_circle_point_validates() -> None:
    with pytest.raises(ValueError):
        CirclePoint(Fraction(1), Fraction(1))
    # 3**2 + 4**2 == 5**2, but 3/5 and 4/7 do not share a denominator
    with pytest.raises(ValueError):
        CirclePoint(Fraction(3, 5), Fraction(4, 7))


@given(rationals)
def test_rat_circle_point_matches_the_rational_formula(t: Fraction) -> None:
    # the integer half-angle map gives the Fraction formula's point
    p = rat_circle_point(t)
    assert (p.c, p.s) == ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def test_circle_point_constructor_keeps_its_check() -> None:
    with pytest.raises(ValueError):
        CirclePoint(Fraction(3, 5), Fraction(3, 5))


def test_circle_arithmetic_stays_on_the_circle() -> None:
    # conjugates, sums and differences are built without the check; they are
    # on the circle because c + i s is multiplicative
    rng = random.Random(19)
    points = [
        rat_circle_point(Fraction(rng.randint(-60, 60), rng.randint(1, 60))) for _ in range(200)
    ]
    for p, q in zip(points, points[1:] + points[:1]):
        for r in (angle_add(p, q), angle_sub(p, q), conjugate(p)):
            assert type(r.c) is Fraction and type(r.s) is Fraction
            assert r.c * r.c + r.s * r.s == 1
            assert r == CirclePoint(r.c, r.s)


def test_angle_add_pythagorean_example() -> None:
    p = CirclePoint(Fraction(3, 5), Fraction(4, 5))
    q = CirclePoint(Fraction(5, 13), Fraction(12, 13))
    assert angle_add(p, q) == CirclePoint(Fraction(-33, 65), Fraction(56, 65))


@given(rationals, rationals)
def test_angle_add_sub_inverse(t: Fraction, u: Fraction) -> None:
    p, q = rat_circle_point(t), rat_circle_point(u)
    assert angle_sub(angle_add(p, q), q) == p
    assert angle_add(p, conjugate(p)) == CIRCLE_ONE


@given(rationals)
def test_angle_double(t: Fraction) -> None:
    p = rat_circle_point(t)
    d = angle_add(p, p)
    assert d.c == p.c * p.c - p.s * p.s
    assert d.s == 2 * p.s * p.c


@given(rationals, rationals)
def test_rat_circle_point_injective(t: Fraction, u: Fraction) -> None:
    if t != u:
        assert rat_circle_point(t) != rat_circle_point(u)


def test_poly_identity_check_accepts_identity() -> None:
    f = lambda x: (x[0] + x[1]) ** 2
    g = lambda x: x[0] ** 2 + 2 * x[0] * x[1] + x[1] ** 2
    assert poly_identity_check(f, g, n_vars=2, degree=2)


def test_poly_identity_check_rejects_non_identity() -> None:
    f = lambda x: x[0] * x[1]
    g = lambda x: x[0] * x[1] + x[0] ** 3
    assert not poly_identity_check(f, g, n_vars=2, degree=3)


def test_poly_identity_check_handles_qsqrt3_values() -> None:
    f = lambda x: SQRT3 * x[0] * (SQRT3 * x[0])
    g = lambda x: 3 * x[0] ** 2
    assert poly_identity_check(f, g, n_vars=1, degree=2)


def test_poly_identity_check_needs_degree_plus_one_points() -> None:
    # x(x-1)...(x-8) has degree 9 and vanishes at 0, ..., 8: nine points per
    # variable cannot tell it from 0, the ten of the degree-9 grid do
    def f(x):
        out = 1
        for r in range(9):
            out *= x[0] - r
        return out

    zero = lambda x: 0
    assert not poly_identity_check(f, zero, n_vars=1, degree=9)
    assert not poly_identity_check(lambda x: f([x[0] + 4]), zero, n_vars=1, degree=9)
    assert poly_identity_check(lambda x: f([x[0] + 4]), zero, n_vars=1, degree=8)


@given(qsqrt3s, rationals, st.integers(-50, 50))
def test_rational_factor_matches_coerced_product(x, q, n) -> None:
    # the rational fast path of __mul__/__rmul__ against the full field product
    for r in (q, n, True, False):
        full = x * QSqrt3(r, 0)
        for got in (x * r, r * x):
            assert isinstance(got, QSqrt3)
            assert got == full
            assert (got.a, got.b) == (full.a, full.b)
            assert type(got.a) is Fraction and type(got.b) is Fraction


# ---------------------------------------------------------------------------
# exact integer division


def test_divide_exactly_never_truncates() -> None:
    assert divide_exactly(-12, 4) == -3
    assert divide_exactly(0, -7) == 0
    assert divide_exactly(6 * 10**40, -3) == -2 * 10**40
    for x, d in ((7, 2), (-7, 2), (10**40 + 1, 10**20), (3, -4)):
        with pytest.raises(ArithmeticError):
            divide_exactly(x, d)
