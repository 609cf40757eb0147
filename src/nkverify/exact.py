"""Exact scalar arithmetic for the verification engine.

Provides arbitrary-precision rationals, the real quadratic field Q(sqrt(3)),
a checked exact division of integers, rational points on the unit circle
(exact cosine/sine pairs, checked on their integer numerators), and a proof
of polynomial identities by the degree bound on an integer grid.  Nothing in
this module ever rounds through floating point or truncates a quotient;
sqrt(3) stays symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence, Union

RationalLike = Union[int, Fraction]

#: Anything the exact evaluators are allowed to return.
Scalar = Union[int, Fraction, "QSqrt3"]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


class QSqrt3:
    """An element ``a + b*sqrt(3)`` of the real quadratic field Q(sqrt(3)).

    The coefficient pair (a, b) over Q is a canonical representation, so
    equality is structural and instances are hashable.  Arithmetic coerces
    ints and Fractions on either side.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0) -> None:
        object.__setattr__(self, "_a", _frac(a))
        object.__setattr__(self, "_b", _frac(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QSqrt3 is immutable")

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @staticmethod
    def _coerce(x: object) -> "QSqrt3 | None":
        if isinstance(x, QSqrt3):
            return x
        if isinstance(x, (int, Fraction)):
            return QSqrt3(x, 0)
        return None

    def conjugate(self) -> "QSqrt3":
        """The Galois conjugate ``a - b*sqrt(3)``."""
        return QSqrt3(self._a, -self._b)

    def field_norm(self) -> Fraction:
        """``a**2 - 3*b**2``, the product with the Galois conjugate."""
        return self._a * self._a - 3 * self._b * self._b

    def inverse(self) -> "QSqrt3":
        n = self.field_norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(3))")
        return QSqrt3(self._a / n, -self._b / n)

    def __add__(self, other: object) -> "QSqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt3(self._a + o._a, self._b + o._b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QSqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt3(self._a - o._a, self._b - o._b)

    def __rsub__(self, other: object) -> "QSqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt3(o._a - self._a, o._b - self._b)

    def __mul__(self, other: object) -> "QSqrt3":
        if isinstance(other, (int, Fraction)):
            # a rational factor scales both coefficients; no coercion needed
            return QSqrt3(self._a * other, self._b * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt3(
            self._a * o._a + 3 * self._b * o._b,
            self._a * o._b + self._b * o._a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QSqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "QSqrt3":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self) -> "QSqrt3":
        return QSqrt3(-self._a, -self._b)

    def __pow__(self, n: int) -> "QSqrt3":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = QSqrt3(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __float__(self) -> float:
        # Presentation only; exact computations never call this.
        return float(self._a) + float(self._b) * (3.0 ** 0.5)

    def __repr__(self) -> str:
        return f"QSqrt3({self._a!r}, {self._b!r})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        if self._a == 0:
            return f"{self._b}*sqrt(3)"
        sign = "+" if self._b > 0 else "-"
        return f"{self._a} {sign} {abs(self._b)}*sqrt(3)"


def divide_exactly(x: int, d: int) -> int:
    """The quotient of an int x by a nonzero int d that divides it.

    Raises ArithmeticError when the remainder is not zero: a quotient is never
    truncated.
    """
    q, r = divmod(x, d)
    if r:
        raise ArithmeticError(f"{d} does not divide {x}")
    return q


@dataclass(frozen=True)
class CirclePoint:
    """An exact point (c, s) on the unit circle: c**2 + s**2 == 1 over Q.

    Stands for the angle with cosine ``c`` and sine ``s``.  Only rational
    circle points are representable; they are dense in the circle, which is
    all the sampling machinery needs.  In lowest terms c and s share their
    denominator E, so the point is the integer triple (C, S, E) with
    C**2 + S**2 == E**2, and that is what the constructor checks.
    """

    c: Fraction
    s: Fraction

    def __post_init__(self) -> None:
        c, s = _frac(self.c), _frac(self.s)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", s)
        # for fractions in lowest terms, c**2 + s**2 == 1 holds iff both have
        # one denominator d and their numerators a, b satisfy a**2 + b**2 == d**2
        d = c.denominator
        if s.denominator != d or c.numerator ** 2 + s.numerator ** 2 != d * d:
            raise ValueError(f"({c}, {s}) is not on the unit circle")


def rat_circle_point(t: RationalLike) -> CirclePoint:
    """Rational circle point via the tangent half-angle map.

    ``t`` is mapped to ``((1 - t**2)/(1 + t**2), 2t/(1 + t**2))``, computed on
    integers: with t = p/q it is (q**2 - p**2, 2pq) / (q**2 + p**2).  The map
    is injective on Q and never hits (-1, 0).
    """
    t = _frac(t)
    p, q = t.numerator, t.denominator
    pp, qq = p * p, q * q
    return CirclePoint(Fraction(qq - pp, qq + pp), Fraction(2 * p * q, qq + pp))


def poly_identity_check(
    f: Callable[[Sequence[int]], Scalar],
    g: Callable[[Sequence[int]], Scalar],
    n_vars: int,
    degree: int,
) -> bool:
    """Proof of a polynomial identity over Q(sqrt(3)) by the degree bound.

    ``f`` and ``g`` must be polynomial maps of degree at most ``degree`` in
    each of their ``n_vars`` variables.  Their difference then vanishes on a
    grid S**n_vars with |S| = degree + 1 only if it is the zero polynomial
    (Alon, Combinatorial Nullstellensatz, Lemma 2.1), so they are compared
    exactly at every point of the integer grid with degree + 1 consecutive
    values per variable, centred on 0: agreement everywhere proves the
    identity, and a single disagreement refutes it.
    """
    lo = -(degree // 2)
    axis = range(lo, lo + degree + 1)
    return all(f(xs) == g(xs) for xs in product(axis, repeat=n_vars))
