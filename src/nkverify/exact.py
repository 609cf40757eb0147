"""Exact scalar arithmetic for the verification engine.

Provides arbitrary-precision rationals, the real quadratic field Q(sqrt(3)),
integer numerators in Z[sqrt(3)] for sums kept over one common denominator
with a checked exact division, rational points on the unit circle (exact
cosine/sine pairs), and a randomized polynomial identity test.  Nothing in
this module ever rounds through floating point or truncates a quotient;
sqrt(3) stays symbolic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
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


class ZSqrt3:
    """An element ``a + b*sqrt(3)`` of Z[sqrt(3)]: the integer numerator of a
    Q(sqrt(3)) value whose denominator is kept elsewhere.

    Adds and subtracts ints and other ZSqrt3 and scales by ints, on either
    side, without a single gcd; ``over`` divides by the denominator once.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def __add__(self, other: object) -> "ZSqrt3":
        if isinstance(other, ZSqrt3):
            return ZSqrt3(self.a + other.a, self.b + other.b)
        if isinstance(other, int):
            return ZSqrt3(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "ZSqrt3":
        if isinstance(other, ZSqrt3):
            return ZSqrt3(self.a - other.a, self.b - other.b)
        if isinstance(other, int):
            return ZSqrt3(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other: object) -> "ZSqrt3":
        if isinstance(other, int):
            return ZSqrt3(other - self.a, -self.b)
        return NotImplemented

    def __mul__(self, other: object) -> "ZSqrt3":
        if isinstance(other, int):
            return ZSqrt3(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "ZSqrt3":
        return ZSqrt3(-self.a, -self.b)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def over(self, den: int) -> QSqrt3:
        """The field element ``(a + b*sqrt(3)) / den``."""
        return QSqrt3(Fraction(self.a, den), Fraction(self.b, den))

    def __repr__(self) -> str:
        return f"ZSqrt3({self.a!r}, {self.b!r})"


def divide_exactly(x, d: int):
    """The quotient of an int or ZSqrt3 x by a nonzero int d that divides it.

    Raises ArithmeticError when the remainder is not zero: a quotient is never
    truncated.
    """
    if isinstance(x, ZSqrt3):
        return ZSqrt3(divide_exactly(x.a, d), divide_exactly(x.b, d))
    q, r = divmod(x, d)
    if r:
        raise ArithmeticError(f"{d} does not divide {x}")
    return q


#: sqrt(3) as a field element.
SQRT3 = QSqrt3(0, 1)
#: 1/sqrt(3) == sqrt(3)/3.
INV_SQRT3 = QSqrt3(0, Fraction(1, 3))
#: 1/(2*sqrt(3)) == sqrt(3)/6.
HALF_INV_SQRT3 = QSqrt3(0, Fraction(1, 6))


@dataclass(frozen=True)
class CirclePoint:
    """An exact point (c, s) on the unit circle: c**2 + s**2 == 1 over Q.

    Stands for the angle with cosine ``c`` and sine ``s``.  Only rational
    circle points are representable; they are dense in the circle, which is
    all the sampling machinery needs.
    """

    c: Fraction
    s: Fraction

    def __post_init__(self) -> None:
        c, s = _frac(self.c), _frac(self.s)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", s)
        if c * c + s * s != 1:
            raise ValueError(f"({c}, {s}) is not on the unit circle")

    def conjugate(self) -> "CirclePoint":
        """The point of the negated angle."""
        return _on_circle(self.c, -self.s)


def _on_circle(c: Fraction, s: Fraction) -> CirclePoint:
    """A CirclePoint built without the c**2 + s**2 == 1 check.

    Only for coordinates on the circle by construction: the conjugate, sum or
    difference of checked points, as |c + i s| is kept by conjugation and is
    multiplicative.
    """
    pt = object.__new__(CirclePoint)
    object.__setattr__(pt, "c", c)
    object.__setattr__(pt, "s", s)
    return pt


#: Angle zero.
CIRCLE_ONE = CirclePoint(Fraction(1), Fraction(0))


def rat_circle_point(t: RationalLike) -> CirclePoint:
    """Rational circle point via the tangent half-angle map.

    ``t`` is mapped to ``((1 - t**2)/(1 + t**2), 2t/(1 + t**2))``.  The map is
    injective on Q and never hits (-1, 0).
    """
    t = _frac(t)
    d = 1 + t * t
    return CirclePoint((1 - t * t) / d, 2 * t / d)


def angle_add(p: CirclePoint, q: CirclePoint) -> CirclePoint:
    """Circle point of the sum of the two angles."""
    return _on_circle(p.c * q.c - p.s * q.s, p.s * q.c + p.c * q.s)


def angle_sub(p: CirclePoint, q: CirclePoint) -> CirclePoint:
    """Circle point of the difference of the two angles."""
    return _on_circle(p.c * q.c + p.s * q.s, p.s * q.c - p.c * q.s)


def poly_identity_check(
    f: Callable[[Sequence[Fraction]], Scalar],
    g: Callable[[Sequence[Fraction]], Scalar],
    n_vars: int,
    trials: int = 100,
    seed: int = 0,
) -> bool:
    """Randomized polynomial identity test over Q(sqrt(3)).

    Evaluates ``f`` and ``g`` at ``trials`` uniformly random rational points
    (numerators and denominators up to 10**4) and compares exactly.  For
    polynomial maps the sample space is vastly larger than any total degree
    arising here, so agreement on all trials certifies identity with
    overwhelming probability; a single disagreement refutes it.
    """
    rng = random.Random(seed)
    for _ in range(trials):
        xs = [
            Fraction(rng.randint(-10_000, 10_000), rng.randint(1, 10_000))
            for _ in range(n_vars)
        ]
        if f(xs) != g(xs):
            return False
    return True
