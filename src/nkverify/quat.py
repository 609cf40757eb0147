"""Double-precision quaternion algebra for the numeric geometry layer.

Imaginary quaternions get their own type: tangent data on the 3-sphere lives
in the imaginary part, and keeping the two kinds apart catches a whole class
of index bugs at construction time instead of deep inside a derivative.

Components may also be jets (`nkverify.jet.Jet`): the arithmetic, from_array
and exp_im then carry truncated Taylor polynomials through unchanged, so a
map written with these types returns its own derivatives when it is given a
jet argument.  Float components keep their float operations.

The product and the dot products are read from term tables (`_bilinear`).
Where one side's components are jets of one order and shape and the other's
are too, or are floats, all the terms of a table are taken in one stacked
operation -- one `jet._product` call for two jet sides -- and summed over
the stack; the result is the same, bit for bit, as the written-out sum of
the components' own products.  exp_im composes its two series in one Horner
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import jet
from .jet import Jet

# Below this norm, sin|a|/|a| and friends switch to series to avoid 0/0.
_SERIES_CUTOFF = 1e-6

#: A bilinear form as a term table: output k is the sum, left to right, of
#: sign * a[i] * b[j] over the terms (i, j, sign) of row k, each row's first
#: sign +1.  _HAMILTON is the quaternion product of (w, x, y, z) components.
_HAMILTON = (
    ((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
    ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
    ((0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, 1)),
    ((0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, 1)),
)
#: The Euclidean products of four and of three components.
_DOT4 = (((0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)),)
_DOT3 = (_DOT4[0][:3],)
#: One factor times each of three components, the factor on the left.
_SCALE3 = (((0, 0, 1),), ((0, 1, 1),), ((0, 2, 1),))


def _side(comps: tuple) -> tuple[np.ndarray | tuple, int | None] | None:
    """The components as one stack with their jet order: for jets of one
    order and shape, their coefficient arrays stacked on a new first axis;
    for floats, the floats and None; for anything else, None."""
    first = comps[0]
    if isinstance(first, Jet):
        order, shape = first.order, first.c.shape
        if all(isinstance(x, Jet) and x.order == order and x.c.shape == shape for x in comps):
            return np.array([x.c for x in comps]), order
    elif all(isinstance(x, float) for x in comps):
        return comps, None
    return None


@cache
def _plan(table: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """A term table's left and right component indices, term-major (term t
    of row k at t * rows + k), and the signs of terms 1 on, None where all
    are +1."""
    terms = range(len(table[0]))
    left = np.array([row[t][0] for t in terms for row in table])
    right = np.array([row[t][1] for t in terms for row in table])
    signs = np.array([[row[t][2] for row in table] for t in terms[1:]], dtype=float)
    return left, right, None if np.all(signs == 1.0) else signs


def _lifted(stack: np.ndarray, ndim: int) -> np.ndarray:
    """A stack with unit axes after its first, to at least ndim axes, so
    that stacks of different jet shapes broadcast."""
    if stack.ndim >= ndim:
        return stack
    return stack.reshape(stack.shape[:1] + (1,) * (ndim - stack.ndim) + stack.shape[1:])


def _bilinear(a: tuple, b: tuple, table: tuple) -> tuple:
    """Each row of a term table at the components a and b.

    Where each side is jets of one order and shape, or floats, and one side
    is jets, the terms are formed in one stacked operation -- jet times jet
    by one `jet._product` call over the stacked pairs, at the lower order --
    and each row is summed over the stack, x - y as x + (-1 * y), which is
    the same float.  Otherwise each term is formed by the components' own
    operators, x - y as written.  Both give what the written-out sum gives,
    bit for bit.
    """
    sa, sb = _side(a), _side(b)
    if sa is None or sb is None or (sa[1] is None and sb[1] is None):
        return tuple(_row(a, b, row) for row in table)
    (A, order_a), (B, order_b) = sa, sb
    left, right, signs = _plan(table)
    A, B = np.asarray(A)[left], np.asarray(B)[right]
    A, B = _lifted(A, B.ndim), _lifted(B, A.ndim)
    if order_a is None or order_b is None:
        order, terms = order_a if order_b is None else order_b, A * B
    else:
        order = min(order_a, order_b)
        if order_a != order_b:
            A, B = A[..., : jet.size(order)], B[..., : jet.size(order)]
        terms = jet._product(A, B, order)
    terms = terms.reshape((-1, len(table)) + terms.shape[1:])
    out = terms[0]
    if len(terms) > 1:
        rest = terms[1:]
        if signs is not None:
            rest = rest * signs.reshape(signs.shape + (1,) * (rest.ndim - 2))
        out = out + rest[0]
        for term in rest[1:]:
            out += term
    return tuple(Jet(c, order) for c in out)


def _row(a: tuple, b: tuple, row: tuple):
    """One row of a term table, each term by the components' own operators."""
    (i, j, _), *rest = row
    out = a[i] * b[j]
    for i, j, sign in rest:
        out = out + a[i] * b[j] if sign > 0 else out - a[i] * b[j]
    return out


@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + x*i + y*j + z*k with float components."""

    w: float
    x: float
    y: float
    z: float

    @classmethod
    def one(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, a: np.ndarray) -> "Quaternion":
        try:
            return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))
        except TypeError:  # jet components
            return cls(*(_component(a[i]) for i in range(4)))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @property
    def imag(self) -> "ImaginaryQuaternion":
        return ImaginaryQuaternion(self.x, self.y, self.z)

    def _components(self) -> tuple:
        return self.w, self.x, self.y, self.z

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """The Hamilton product, from the term table _HAMILTON: one
        `jet._product` call for two quaternions of jets."""
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(*_bilinear(self._components(), other._components(), _HAMILTON))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(
            self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z
        )

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(
            self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z
        )

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def scaled(self, t: float) -> "Quaternion":
        return Quaternion(t * self.w, t * self.x, t * self.y, t * self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(
            self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
        )

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero quaternion")
        return self.scaled(1.0 / n)

    def dot(self, other: "Quaternion") -> float:
        """Euclidean 4-product, summed left to right: one `jet._product` call
        for two quaternions of jets."""
        return _bilinear(self._components(), other._components(), _DOT4)[0]


@dataclass(frozen=True)
class ImaginaryQuaternion:
    """A purely imaginary quaternion x*i + y*j + z*k."""

    x: float
    y: float
    z: float

    @classmethod
    def zero(cls) -> "ImaginaryQuaternion":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, a: np.ndarray) -> "ImaginaryQuaternion":
        try:
            return cls(float(a[0]), float(a[1]), float(a[2]))
        except TypeError:  # jet components
            return cls(*(_component(a[i]) for i in range(3)))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def __add__(self, other: "ImaginaryQuaternion") -> "ImaginaryQuaternion":
        if not isinstance(other, ImaginaryQuaternion):
            return NotImplemented
        return ImaginaryQuaternion(
            self.x + other.x, self.y + other.y, self.z + other.z
        )

    def __sub__(self, other: "ImaginaryQuaternion") -> "ImaginaryQuaternion":
        if not isinstance(other, ImaginaryQuaternion):
            return NotImplemented
        return ImaginaryQuaternion(
            self.x - other.x, self.y - other.y, self.z - other.z
        )

    def __neg__(self) -> "ImaginaryQuaternion":
        return ImaginaryQuaternion(-self.x, -self.y, -self.z)

    def scaled(self, t: float) -> "ImaginaryQuaternion":
        return ImaginaryQuaternion(t * self.x, t * self.y, t * self.z)

    def _components(self) -> tuple:
        return self.x, self.y, self.z

    def dot(self, other: "ImaginaryQuaternion") -> float:
        """Euclidean 3-product, summed left to right, as Quaternion.dot."""
        return _bilinear(self._components(), other._components(), _DOT3)[0]

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


def _component(x):
    """A quaternion component: a jet as it is, anything else as a float."""
    return x if isinstance(x, Jet) else float(x)


def _cos_sqrt(m: int) -> float:
    """Power-series coefficients of cos(sqrt(s)) in s."""
    return (-1) ** m / math.factorial(2 * m)


def _sinc_sqrt(m: int) -> float:
    """Power-series coefficients of sin(sqrt(s)) / sqrt(s) in s."""
    return (-1) ** m / math.factorial(2 * m + 1)


def exp_im(alpha: ImaginaryQuaternion) -> Quaternion:
    """exp(alpha) = cos|alpha| + sin|alpha| * alpha/|alpha|, a unit quaternion.

    For |alpha| below the series cutoff, sin|a|/|a| is evaluated as
    1 - |a|^2/6 so the direction factor never divides by zero.  With jet
    components it is cos(sqrt s) + (sin(sqrt s)/sqrt s) alpha for s = |alpha|^2;
    both are entire in s, so their jets need no cutoff.  The two series are
    composed in one Horner pass, and the sinc factor times (x, y, z) is one
    stacked product: for jets of order K, 2 + max(K - 1, 0) `jet._product`
    calls in all, counting the one of |alpha|^2.
    """
    n2 = alpha.dot(alpha)
    if isinstance(n2, Jet):
        cos_sinc = n2.entire(_cos_sqrt, _sinc_sqrt)
        return Quaternion(cos_sinc[0], *_bilinear((cos_sinc[1],), alpha._components(), _SCALE3))
    r = math.sqrt(n2)  # alpha.norm(), as computed there
    if r < _SERIES_CUTOFF:
        s = 1.0 - r * r / 6.0
    else:
        s = math.sin(r) / r
    return Quaternion(math.cos(r), s * alpha.x, s * alpha.y, s * alpha.z)


def log_unit(q: Quaternion) -> ImaginaryQuaternion:
    """Principal-branch logarithm of a unit quaternion.

    Raises ValueError if |q| is not 1 within 1e-9, or if q is within
    tolerance of -1 where the branch is singular.
    """
    if abs(q.norm() - 1.0) > 1e-9:
        raise ValueError(f"log_unit requires a unit quaternion, got |q| = {q.norm()}")
    if 1.0 + q.w < 1e-9:
        raise ValueError("log_unit is singular at the antipode q = -1")
    v = q.imag
    r = v.norm()
    # angle in [0, pi): q.w = cos(theta), r = sin(theta)
    theta = math.atan2(r, q.w)
    if r < _SERIES_CUTOFF:
        # theta/sin(theta) ~ 1 + theta^2/6; at this scale theta ~ r
        return v.scaled(1.0 + theta * theta / 6.0)
    return v.scaled(theta / r)


def dexp_im(v: ImaginaryQuaternion, e: ImaginaryQuaternion) -> Quaternion:
    """Differential of exp_im at v, applied to e.

    Returns d/dt exp_im(v + t*e) at t = 0, a tangent quaternion at exp_im(v).
    Derivation: split e against u = v/|v|; the radial part moves the angle,
    the orthogonal part rotates the axis with factor sin r / r.
    """
    r = v.norm()
    if r < 1e-4:
        # exp(v+te) = 1 + (v+te) - |v+te|^2/2 + ..., expanded to O(r^2)
        c = e.dot(v)
        scalar = -c * (1.0 - r * r / 6.0)
        imag = e.scaled(1.0 - r * r / 6.0) + v.scaled(c * (-1.0 / 3.0 + r * r / 30.0))
        return Quaternion(scalar, imag.x, imag.y, imag.z)
    u = v.scaled(1.0 / r)
    c = e.dot(u)
    sinc = math.sin(r) / r
    imag = e.scaled(sinc) + u.scaled(c * (math.cos(r) - sinc))
    return Quaternion(-math.sin(r) * c, imag.x, imag.y, imag.z)
