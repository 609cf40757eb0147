"""Double-precision quaternion algebra for the numeric geometry layer.

Imaginary quaternions get their own type: tangent data on the 3-sphere lives
in the imaginary part, and keeping the two kinds apart catches a whole class
of index bugs at construction time instead of deep inside a derivative.

Components may also be jets (`nkverify.jet.Jet`): the arithmetic, from_array
and exp_im then carry truncated Taylor polynomials through unchanged, so a
map written with these types returns its own derivatives when it is given a
jet argument.  Float components keep their float operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jet import Jet

# Below this norm, sin|a|/|a| and friends switch to series to avoid 0/0.
_SERIES_CUTOFF = 1e-6


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

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

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
        """Euclidean 4-product."""
        return (
            self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z
        )


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

    def dot(self, other: "ImaginaryQuaternion") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

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
    both are entire in s, so their jets need no cutoff.
    """
    n2 = alpha.dot(alpha)
    if isinstance(n2, Jet):
        sinc = n2.entire(_sinc_sqrt)
        return Quaternion(n2.entire(_cos_sqrt), sinc * alpha.x, sinc * alpha.y, sinc * alpha.z)
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
