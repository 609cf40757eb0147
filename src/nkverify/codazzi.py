"""Exact frame-level verification of the Codazzi analysis.

Works with a three-dimensional orthonormal frame abstractly: a state consists
of the components v = (v1, v2, v3) of the cubic-form vector field and exact
circle points for the angle functions theta_i (with theta1+theta2+theta3 = 0
imposed).  The second fundamental form components h_ij^k are cubic polynomials
in v, the connection components omega_ij^k are rational in v and the angle
cotangents, and each antisymmetrized Codazzi component becomes a scalar that
is affine in the nine unknown frame derivatives D_im = E_i(v_m).

All identities that are polynomial over Q(sqrt(3)) are checked exactly; the
one case whose constraint couples v and theta transcendentally is checked in
high-precision floating point with explicit tolerances.

Each state caches its tables once: h, the gradient dh/dv, omega, and the
shifted connection omega_im^l - eps_iml/sqrt(3) that the Codazzi scalars
read.  h and dh are symmetric in (i, j, k) and (j, k, l), so each symmetry
class is computed once, at its sorted index, and every permuted key holds
that same value.  The builders add only the terms whose Kronecker factor is
nonzero, in the order of the full formulas, so each class gets exactly the
dense expression's value at its sorted index, on exact and mpmath states
alike.  No arithmetic is spent on exact zeros: a Codazzi scalar skips each
product whose h factor is zero and stores a D-coefficient only where its dh
entry is nonzero.

An exact state is built on integers from the draw: each angle is a triple
(C, S, E) of integers with cosine C/E and sine S/E, so theta3 and the angle
differences are integer sums and products, a cotangent or doubled-angle
sine is one Fraction built from them, and the gate 4 v1^2 - 3(v2^2 + v3^2)
is an integer over D^2.  Its tables are on integer numerators too.  With D
the lcm of the denominators of v, w = D v is an integer vector, and the
three distinct cotangents are put over one common denominator Q
(cot(b, a) = -cot(a, b)).  h is then D^-3 times integers, dh D^-2 times integers and
omega (6 D^3 Q)^-1 times an element of Z[sqrt(3)], whose sqrt(3) part comes
only from 1/(2 sqrt 3).  A Codazzi row is kept over one denominator per
state, L = lcm(6 D^6 Q, A) with A the common denominator of the three
sin 2(theta_a - theta_b)/3: its D-coefficients are the (rational) dh
numerators times L / D^2, and its constant, a sum of h-omega products plus
the angle term, is one integer rational part and one integer sqrt(3) part.
The exact solver eliminates these integer rows fraction-free (Bareiss): each
update is divided exactly by the previous pivot, every pivot is an integer,
and no Fraction or QSqrt3 is built until the results are read, when each
solution is divided once by the last pivot and each leftover once by the
last pivot times L.  Pivots are still the first rows with a nonzero
coefficient, so the pivot order, rank and free variables are those of
value-form elimination, and a value is a QSqrt3 exactly where the
rational-arithmetic formulas give a QSqrt3, so the reports keep their types.
The mpmath state runs the same formulas at scale 1, where the numerators
are the values and nothing is divided, and eliminates its values with
magnitude pivoting, so its operations and their order are those of the
plain formulas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product
from math import lcm
from operator import add
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from mpmath import mp

from .exact import (
    HALF_INV_SQRT3,
    INV_SQRT3,
    SQRT3,
    CirclePoint,
    QSqrt3,
    ZSqrt3,
    divide_exactly,
    poly_identity_check,
    rat_circle_point,
)
from .report import CheckRecord, max_keep_nan, min_keep_nan

AXES = (1, 2, 3)
CANONICAL_PAIRS = ((1, 2), (1, 3), (2, 3))
#: Default bound of case3_check on its matched closed forms.
CASE3_TOL = 1e-8

_EPS_TABLE = {
    (1, 2, 3): 1,
    (2, 3, 1): 1,
    (3, 1, 2): 1,
    (1, 3, 2): -1,
    (3, 2, 1): -1,
    (2, 1, 3): -1,
}


def epsilon(i: int, j: int, k: int) -> int:
    """Totally antisymmetric symbol on {1,2,3}."""
    return _EPS_TABLE.get((i, j, k), 0)


def delta(i: int, j: int) -> int:
    return 1 if i == j else 0


DVar = tuple[int, int]  # (i, m) stands for the derivative E_i(v_m)


class AffineExpr:
    """A scalar of the form const + sum coeffs[(i,m)] * D_im.

    Pure arithmetic container; zero tests are the owning state's business, so
    coefficient dictionaries may carry explicit zeros.
    """

    __slots__ = ("const", "coeffs")

    def __init__(self, const, coeffs: Mapping[DVar, object] | None = None) -> None:
        self.const = const
        self.coeffs: dict[DVar, object] = dict(coeffs) if coeffs else {}

    def coeff(self, var: DVar, zero):
        return self.coeffs.get(var, zero)

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            out[v] = out[v] + c if v in out else c
        return AffineExpr(self.const + other.const, out)

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            out[v] = out[v] - c if v in out else -c
        return AffineExpr(self.const - other.const, out)

    def scale(self, s) -> "AffineExpr":
        return AffineExpr(self.const * s, {v: c * s for v, c in self.coeffs.items()})

    def subst(self, var: DVar, expr: "AffineExpr") -> "AffineExpr":
        """Replace D_var by the affine expression expr.

        An exactly zero coefficient of D_var only drops the variable.
        """
        if var not in self.coeffs:
            return self
        c = self.coeffs[var]
        rest = AffineExpr(self.const, {v: k for v, k in self.coeffs.items() if v != var})
        return rest + expr.scale(c) if c else rest

    def free_vars(self, is_zero: Callable[[object], bool]) -> list[DVar]:
        return sorted(v for v, c in self.coeffs.items() if not is_zero(c))

    def __repr__(self) -> str:
        terms = "".join(
            f" + ({c})*D{v}" for v, c in sorted(self.coeffs.items())
        )
        return f"AffineExpr({self.const}{terms})"


# ---------------------------------------------------------------------------
# states


class _OmegaScale(NamedTuple):
    """The scale of a state's omega numerators and the numerators it needs.

    den is the scale of omega; sigma, inv_sqrt3 and cot are the numerators of
    1/(2 sqrt 3), 1/sqrt(3) and cot(theta_a - theta_b), keyed by (a, b), at
    that scale; const_den = D^3 den is the scale of a sum of h-omega
    products.
    """

    den: object
    sigma: object
    inv_sqrt3: object
    cot: dict
    const_den: object


class _RowScale(NamedTuple):
    """The scale of a state's Codazzi rows and the numerators they need.

    den is the scale of a row, L for an exact state.  coeff_mult = den / D^2
    carries a dh numerator to it, const_mult = den / const_den a sum of
    h-omega products, and angle holds sin 2(theta_a - theta_b)/3 at it,
    keyed by (a, b).
    """

    den: object
    coeff_mult: object
    const_mult: object
    angle: dict


class _StateCaches:
    """Lazy per-state tables shared by the exact and floating variants.

    Every table is computed by one formula on numerators: `_w` holds D v,
    `_omega_scale()` the scale of omega with the numerators of the cotangents,
    of 1/(2 sqrt 3) and of 1/sqrt(3), `_row_scale()` the scale of a Codazzi
    row, and `_over(x, den)` turns a numerator into its value.  The exact
    state's numerators are integers, with a Z[sqrt(3)] part where sqrt(3)
    enters; the floating state's scales are 1, its numerators are its values
    and `_over` returns them untouched.

    h and dh come from `hijk_from_v` and `hijk_gradient` at scales D^3 and
    D^2, omega from `omega_numerators` at scale 6 D^3 Q.  The shifted table
    holds omega_im^l - eps_iml/sqrt(3), the connection factor of the two
    h-omega terms in `codazzi_scalar`, and the curl omega_ij^m - omega_ji^m,
    the factor of the third, is kept per pair (i, j); both are at omega's
    scale.  The h and dh builders skip the terms whose Kronecker factor is
    zero and keep the order of the rest, so one code path serves both ring
    types.
    """

    _w: list
    _D: int
    _h_num: dict | None
    _dh_num: dict | None
    _om_scale: _OmegaScale | None
    _rows: _RowScale | None
    _om_num: dict | None
    _shifted_num: dict | None
    _curl_num: dict

    def _reset_tables(self) -> None:
        self._h_num = self._dh_num = self._om_scale = self._rows = self._om_num = None
        self._shifted_num = None
        self._curl_num = {}

    def h_numerators(self) -> dict:
        """h at scale D^3: entry (i, j, k) is D^3 h_ij^k."""
        if self._h_num is None:
            self._h_num = hijk_from_v(self._w)
        return self._h_num

    def dh_numerators(self) -> dict:
        """dh at scale D^2: entry (j, k, l, m) is D^2 d h_jk^l / d v_m."""
        if self._dh_num is None:
            self._dh_num = hijk_gradient(self._w)
        return self._dh_num

    def omega_numerators(self) -> dict:
        """omega at its scale: entry (i, j, k) is 6 D^3 Q omega_ij^k."""
        if self._om_num is None:
            self._om_num = omega_numerators(self)
        return self._om_num

    def shifted_numerators(self) -> dict:
        """Entry (i, m, l) is omega_im^l - eps_iml / sqrt(3), at omega's scale.

        Where eps_iml = 0 the entry is omega_im^l itself, so a rational
        omega stays rational.
        """
        if self._shifted_num is None:
            om = self.omega_numerators()
            inv_sqrt3 = self._omega_scale().inv_sqrt3
            self._shifted_num = {}
            for key in product(AXES, AXES, AXES):
                eps = epsilon(*key)
                self._shifted_num[key] = om[key] - inv_sqrt3 * eps if eps else om[key]
        return self._shifted_num

    def curl_numerators(self, i: int, j: int) -> tuple:
        """omega_ij^m - omega_ji^m for m = 1, 2, 3, at omega's scale.

        Computed once per pair (i, j), when a Codazzi scalar first needs it.
        """
        curl = self._curl_num.get((i, j))
        if curl is None:
            om = self.omega_numerators()
            curl = self._curl_num[(i, j)] = tuple(om[(i, j, m)] - om[(j, i, m)] for m in AXES)
        return curl


class FrameState(_StateCaches):
    """Exact frame state over Q(sqrt(3)).

    v entries are rationals.  An angle is a rational circle point, held as an
    integer triple (C, S, E): cosine C/E and sine S/E over one common
    denominator, not necessarily in lowest terms.  theta1 and theta2 are read
    from their circle points; theta3 = -(theta1 + theta2) and the three
    differences theta_a - theta_b, a < b, are built on the triples, a
    reverse pair is (C, -S, E) and the diagonal (1, 0, 1).  Construction
    rejects states where some sin(theta_a - theta_b) vanishes, since the
    connection components divide by those factors.  The tables are built on
    integers: w = D v with D the lcm of the denominators of v, and the three
    distinct cotangents over their common denominator Q, with
    cot(b, a) = -cot(a, b).  A Codazzi row's constant is over
    L = lcm(6 D^6 Q, A), with A the common denominator of the three
    sin 2(theta_a - theta_b)/3.
    """

    exact = True

    def __init__(self, v: Sequence[Fraction], theta1: CirclePoint, theta2: CirclePoint) -> None:
        self._set_v(v)
        c1, s1, e1 = theta1.c.numerator, theta1.s.numerator, theta1.c.denominator
        c2, s2, e2 = theta2.c.numerator, theta2.s.numerator, theta2.c.denominator
        # theta3 is the conjugate of the sum of theta1 and theta2
        self._theta = {
            1: (c1, s1, e1),
            2: (c2, s2, e2),
            3: (c1 * c2 - s1 * s2, -(s1 * c2 + c1 * s2), e1 * e2),
        }
        self._diffs: dict[tuple[int, int], tuple[int, int, int]] = {
            (a, a): (1, 0, 1) for a in AXES
        }
        for a, b in CANONICAL_PAIRS:
            ca, sa, ea = self._theta[a]
            cb, sb, eb = self._theta[b]
            c, s, e = ca * cb + sa * sb, sa * cb - ca * sb, ea * eb
            self._diffs[(a, b)], self._diffs[(b, a)] = (c, s, e), (c, -s, e)
        if any(self._diffs[ab][1] == 0 for ab in CANONICAL_PAIRS):
            raise ValueError("state rejected: some sin(theta_a - theta_b) vanishes")
        self._cot = self._thirds = None

    def _set_v(self, v: Sequence[Fraction]) -> None:
        self.v = {m: Fraction(v[m - 1]) for m in AXES}
        self._D = lcm(*(x.denominator for x in self.v.values()))
        self._w = [x.numerator * (self._D // x.denominator) for x in self.v.values()]
        self._reset_tables()

    def with_v(self, v: Sequence[Fraction]) -> "FrameState":
        """The state at another v with the same, already validated, angles.

        The angle triples, their differences, the cotangent numerators and
        the angle terms of the rows are shared, not rebuilt.
        """
        st = object.__new__(FrameState)
        st._set_v(v)
        st._theta, st._diffs = self._theta, self._diffs
        st._cot, st._thirds = self._cotangents(), self._angle_thirds()
        return st

    @property
    def angles(self) -> dict[int, CirclePoint]:
        """theta1, theta2 and theta3 as circle points, built when read."""
        return {
            a: CirclePoint(Fraction(c, e), Fraction(s, e)) for a, (c, s, e) in self._theta.items()
        }

    # ring interface -------------------------------------------------------
    zero = Fraction(0)
    third = Fraction(1, 3)
    sigma = HALF_INV_SQRT3
    inv_sqrt3 = INV_SQRT3
    _zero_num = 0

    @staticmethod
    def is_zero(x) -> bool:
        return x == 0

    @staticmethod
    def _over(x, den: int):
        """The value of numerator x over den, divided once: a Fraction, or a
        QSqrt3 where x has a sqrt(3) part."""
        return x.over(den) if isinstance(x, ZSqrt3) else Fraction(x, den)

    def _cotangents(self) -> tuple[int, dict]:
        """Q and the numerators 6 Q cot(a, b) for a != b.

        Three cotangents are computed; cot(b, a) = -cot(a, b) gives the rest.
        """
        if self._cot is None:
            cots = {ab: self.cot(*ab) for ab in CANONICAL_PAIRS}
            q = lcm(*(c.denominator for c in cots.values()))
            num = {}
            for (a, b), c in cots.items():
                num[(a, b)] = 6 * c.numerator * (q // c.denominator)
                num[(b, a)] = -num[(a, b)]
            self._cot = (q, num)
        return self._cot

    def _omega_scale(self) -> _OmegaScale:
        """omega at scale 6 D^3 Q: the cotangent numerators scale by D^3."""
        if self._om_scale is None:
            q, cot = self._cotangents()
            d3 = self._D ** 3
            d3q = d3 * q
            self._om_scale = _OmegaScale(
                6 * d3q, ZSqrt3(0, d3q), ZSqrt3(0, 2 * d3q), cot, 6 * d3q * d3
            )
        return self._om_scale

    def _angle_thirds(self) -> tuple[int, dict]:
        """A and the numerators A sin 2(theta_a - theta_b)/3 for all (a, b).

        Three are computed; the reverse pairs are their negatives and the
        diagonal is zero.
        """
        if self._thirds is None:
            thirds = {}
            for ab in CANONICAL_PAIRS:
                c, s, e = self._diffs[ab]
                thirds[ab] = Fraction(2 * s * c, 3 * e * e)
            den = lcm(*(t.denominator for t in thirds.values()))
            num = {(a, a): 0 for a in AXES}
            for (a, b), t in thirds.items():
                num[(a, b)] = t.numerator * (den // t.denominator)
                num[(b, a)] = -num[(a, b)]
            self._thirds = (den, num)
        return self._thirds

    def _row_scale(self) -> _RowScale:
        """Rows at L = lcm(6 D^6 Q, A), a multiple of D^2."""
        if self._rows is None:
            const_den = self._omega_scale().const_den
            a, thirds = self._angle_thirds()
            den = lcm(const_den, a)
            mult = den // a
            self._rows = _RowScale(
                den,
                den // self._D ** 2,
                den // const_den,
                {ab: x * mult for ab, x in thirds.items()},
            )
        return self._rows

    # angle data -----------------------------------------------------------
    def cot(self, a: int, b: int) -> Fraction:
        c, s, _ = self._diffs[(a, b)]
        return Fraction(c, s)

    def sin2(self, a: int, b: int) -> Fraction:
        c, s, e = self._diffs[(a, b)]
        return Fraction(2 * s * c, e * e)

    @property
    def ec_value(self) -> Fraction:
        """4 v1^2 - 3 (v2^2 + v3^2), from the integers w = D v over D^2."""
        w1, w2, w3 = self._w
        return Fraction(4 * w1 * w1 - 3 * (w2 * w2 + w3 * w3), self._D * self._D)

    def describe(self) -> dict:
        return {
            "v": [self.v[m] for m in AXES],
            "theta1": self.angles[1],
            "theta2": self.angles[2],
        }


class FloatFrameState(_StateCaches):
    """High-precision floating state (mpmath) mirroring FrameState.

    Used only where a constraint ties v and theta transcendentally, so exact
    circle points cannot parametrize the variety.  Its tables are at scale
    1: the numerators are the values, so each is computed by the same
    operations, in the same order, as the plain formula.  Only the three
    differences theta_a - theta_b, a < b, go through sin and cos: mpmath
    rounds symmetrically and its sine is odd and its cosine even bit for bit,
    so a reverse pair is (-sin, cos) of its canonical pair, and the diagonal,
    a difference of exactly 0, is (0, 1).
    """

    exact = False

    #: Entries below this magnitude count as zero, in the solver's pivoting too.
    zero_tol = 1e-30

    def __init__(self, v: Sequence[float], theta1, theta2) -> None:
        self.v = {m: mp.mpf(v[m - 1]) for m in AXES}
        t1, t2 = mp.mpf(theta1), mp.mpf(theta2)
        t3 = -t1 - t2
        self.thetas = {1: t1, 2: t2, 3: t3}
        self._s = {(a, a): mp.mpf(0) for a in AXES}
        self._c = {(a, a): mp.mpf(1) for a in AXES}
        for a, b in CANONICAL_PAIRS:
            d = self.thetas[a] - self.thetas[b]
            s, c = mp.sin(d), mp.cos(d)
            self._s[(a, b)], self._c[(a, b)] = s, c
            self._s[(b, a)], self._c[(b, a)] = -s, c
        # omega divides by these sines; the margin is read at the working precision
        margin = mp.mpf("1e-3")
        if any(abs(self._s[ab]) < margin for ab in CANONICAL_PAIRS):
            raise ValueError("state rejected: sin(theta_a - theta_b) below margin")
        self.zero = mp.mpf(0)
        self.one = mp.mpf(1)
        self.third = mp.mpf(1) / 3
        self.sigma = 1 / (2 * mp.sqrt(3))
        self.inv_sqrt3 = 1 / mp.sqrt(3)
        self._zero_num = self.zero
        self._w = [self.v[m] for m in AXES]
        self._D = 1
        self._reset_tables()

    def is_zero(self, x) -> bool:
        return abs(x) < self.zero_tol

    @staticmethod
    def _over(x, den):
        return x

    def _omega_scale(self) -> _OmegaScale:
        """Scale 1, with one cot per ordered pair."""
        if self._om_scale is None:
            cot = {(a, b): self.cot(a, b) for a, b in product(AXES, AXES) if a != b}
            self._om_scale = _OmegaScale(1, self.sigma, self.inv_sqrt3, cot, 1)
        return self._om_scale

    def _row_scale(self) -> _RowScale:
        """Scale 1, with the angle terms third * sin2(a, b) as the plain formula
        multiplies them."""
        if self._rows is None:
            angle = {(a, b): self.third * self.sin2(a, b) for a, b in product(AXES, AXES)}
            self._rows = _RowScale(1, 1, 1, angle)
        return self._rows

    def cot(self, a: int, b: int):
        return self._c[(a, b)] / self._s[(a, b)]

    def sin2(self, a: int, b: int):
        return 2 * self._s[(a, b)] * self._c[(a, b)]

    @property
    def ec_value(self):
        return 4 * self.v[1] ** 2 - 3 * (self.v[2] ** 2 + self.v[3] ** 2)


def random_frame_state(
    rng: random.Random,
    require_ec: bool = True,
    nonzero: Iterable[int] = (),
    zero: Iterable[int] = (),
) -> FrameState:
    """Draw a valid exact state with small random rationals.

    Components listed in `zero` are pinned to 0; those in `nonzero` are
    redrawn until nonzero.  States violating the validity constraints (or the
    4v1^2 - 3(v2^2+v3^2) != 0 condition, when required) are rejected and
    resampled, up to 500 draws.
    """
    zero = set(zero)
    nonzero = set(nonzero)
    for _ in range(500):
        v = []
        for m in AXES:
            if m in zero:
                v.append(Fraction(0))
                continue
            val = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            while m in nonzero and val == 0:
                val = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            v.append(val)
        t1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        t2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        try:
            st = FrameState(v, rat_circle_point(t1), rat_circle_point(t2))
        except ValueError:
            continue
        if require_ec and st.ec_value == 0:
            continue
        return st
    raise RuntimeError("could not sample a valid frame state")


# ---------------------------------------------------------------------------
# component tables


#: Each key of h and its symmetry class's sorted index; likewise for dh,
#: which is symmetric in its first three slots.
_H_CLASS = {key: tuple(sorted(key)) for key in product(AXES, AXES, AXES)}
_DH_CLASS = {
    (j, k, l, m): (*sorted((j, k, l)), m) for j, k, l, m in product(AXES, AXES, AXES, AXES)
}

#: For each sorted (i, j, k): the slots among v_i, v_j, v_k whose Kronecker
#: factor in v_i d_jk + v_j d_ki + v_k d_ij is one, in that order.
_H_LINEAR = {
    (i, j, k): tuple(
        a for a, d in ((i, delta(j, k)), (j, delta(k, i)), (k, delta(i, j))) if d
    )
    for i, j, k in combinations_with_replacement(AXES, 3)
}


def hijk_from_v(v: Sequence) -> dict[tuple[int, int, int], object]:
    """Second fundamental form components from the vector field components.

    h_ij^k = |v|^2 (v_i d_jk + v_j d_ki + v_k d_ij) - 5 v_i v_j v_k.
    Fully symmetric and trace-free in every slot.  Each of the 10 symmetry
    classes is computed at its sorted index and shared by all its keys.
    Terms with a zero Kronecker factor are left out; the others are added in
    the order written.
    """
    vv = {m: v[m - 1] for m in AXES}
    v2 = vv[1] * vv[1] + vv[2] * vv[2] + vv[3] * vv[3]
    classes = {}
    for (i, j, k), linear in _H_LINEAR.items():
        cubic = 5 * vv[i] * vv[j] * vv[k]
        if linear:
            classes[(i, j, k)] = v2 * reduce(add, [vv[a] for a in linear]) - cubic
        else:
            classes[(i, j, k)] = -cubic
    return {key: classes[rep] for key, rep in _H_CLASS.items()}


def _gradient_terms(j: int, k: int, l: int, m: int) -> tuple:
    """The nonzero-Kronecker terms of d h_jk^l / d v_m besides 2 v_m sum v_a.

    Returns (count, quadratic): the integer factor of |v|^2 and the slot
    pairs (p, q) of 5 sum v_p v_q, in formula order.
    """
    count = delta(j, m) * delta(k, l) + delta(k, m) * delta(l, j) + delta(l, m) * delta(j, k)
    quadratic = tuple(
        pq for pq, d in (((k, l), delta(j, m)), ((j, l), delta(k, m)), ((j, k), delta(l, m)))
        if d
    )
    return count, quadratic


#: Per sorted (j, k, l): the slots a of the linear sum v_a, which is h's
#: (v_j d_kl + v_k d_lj + v_l d_jk), and per m the entry's key with its
#: remaining terms.
_DH_TERMS = {
    jkl: (_H_LINEAR[jkl], tuple(((*jkl, m), *_gradient_terms(*jkl, m)) for m in AXES))
    for jkl in combinations_with_replacement(AXES, 3)
}


def _sum_in_order(values: Mapping, keys: Sequence):
    """values[keys[0]] + values[keys[1]] + ..., added left to right."""
    it = iter(keys)
    total = values[next(it)]
    for key in it:
        total = total + values[key]
    return total


def hijk_gradient(v: Sequence) -> dict[tuple[int, int, int, int], object]:
    """Partial derivatives: entry (j,k,l,m) is d h_jk^l / d v_m.

    d h_jk^l / d v_m = 2 v_m (v_j d_kl + v_k d_lj + v_l d_jk)
        + |v|^2 (d_jm d_kl + d_km d_lj + d_lm d_jk)
        - 5 (d_jm v_k v_l + v_j d_km v_l + v_j v_k d_lm),
    computed for the 30 entries with j <= k <= l and shared by every
    permutation of (j, k, l).  Each is built from the terms whose Kronecker
    factor is nonzero, added in the order written.  The sums v_a (one per
    (j, k, l)) and the factors 2 v_m, |v|^2 c and v_p v_q (p <= q, as sorted
    slots give) recur across entries, so each is computed once.
    """
    vv = {m: v[m - 1] for m in AXES}
    v2 = vv[1] * vv[1] + vv[2] * vv[2] + vv[3] * vv[3]
    twice = {m: 2 * vv[m] for m in AXES}
    v2_times = {c: v2 * c for c in (1, 2, 3)}
    pair = {(p, q): vv[p] * vv[q] for p, q in combinations_with_replacement(AXES, 2)}
    classes = {}
    # every entry has a linear or a quadratic term (j, k, l distinct means m
    # is one of them), and a nonzero count implies a linear term
    for linear, entries in _DH_TERMS.values():
        lin = _sum_in_order(vv, linear) if linear else None
        for key, count, quadratic in entries:
            val = twice[key[3]] * lin if linear else None
            if count:
                val = val + v2_times[count]
            if quadratic:
                quad = 5 * _sum_in_order(pair, quadratic)
                val = val - quad if linear else -quad
            classes[key] = val
    return {key: classes[rep] for key, rep in _DH_CLASS.items()}


def omega_numerators(st) -> dict[tuple[int, int, int], object]:
    """Connection components omega_ij^k of the induced metric, at the state's
    scale (see `_StateCaches`).

    The nine displayed formulas determine everything through the skew
    symmetry omega_ij^k = -omega_ik^j (and omega_ij^j = 0).  They are
    evaluated on w = D v, the scaled cotangents and the scaled 1/(2 sqrt 3).
    """
    scale = st._omega_scale()
    sigma, cot = scale.sigma, scale.cot
    v1, v2, v3 = st._w
    q1, q2, q3 = v1 * v1, v2 * v2, v3 * v3
    five_v = 5 * v1 * v2 * v3
    displays = {
        (1, 1, 2): -v2 * (-4 * q1 + q2 + q3) * cot[(1, 2)],
        (1, 1, 3): -v3 * (-4 * q1 + q2 + q3) * cot[(1, 3)],
        (2, 2, 1): -v1 * (q1 - 4 * q2 + q3) * cot[(2, 1)],
        (2, 2, 3): -v3 * (q1 - 4 * q2 + q3) * cot[(2, 3)],
        (3, 3, 1): -v1 * (q1 + q2 - 4 * q3) * cot[(3, 1)],
        (3, 3, 2): -v2 * (q1 + q2 - 4 * q3) * cot[(3, 2)],
        (1, 2, 3): sigma + five_v * cot[(2, 3)],
        (2, 3, 1): sigma + five_v * cot[(3, 1)],
        (3, 1, 2): sigma + five_v * cot[(1, 2)],
    }
    out = {}
    for i, j, k in product(AXES, AXES, AXES):
        if j == k:
            out[(i, j, k)] = st._zero_num
        elif (i, j, k) in displays:
            out[(i, j, k)] = displays[(i, j, k)]
        else:
            out[(i, j, k)] = -displays[(i, k, j)]
    return out


# ---------------------------------------------------------------------------
# Codazzi components


def codazzi_scalar(
    st, i: int, j: int, k: int, l: int, vanishing: frozenset[int] = frozenset()
) -> AffineExpr:
    """JE_l-component of the antisymmetrized Codazzi equation on (E_i,E_j,E_k).

    Returns the scalar that must vanish, affine in the unknowns D_am, as
    numerators at the state's row scale L (see `_RowScale`): integer
    D-coefficients and an int or Z[sqrt(3)] constant, L times the scalar.
    `codazzi_values` divides them.  The `vanishing` set lists components v_m
    assumed identically zero, whose derivatives D_am are then dropped as well.
    """
    h = st.h_numerators()
    dh = st.dh_numerators()
    om = st.omega_numerators()
    shifted = st.shifted_numerators()
    curl = st.curl_numerators(i, j)
    # only nonzero dh entries give coefficients; for i == j both land on one
    # key and must still be summed
    coeffs: dict[DVar, object] = {}
    for m in AXES:
        if m in vanishing:
            continue
        c = dh[(j, k, l, m)]
        if c:
            coeffs[(i, m)] = c
        c = dh[(i, k, l, m)]
        if c:
            coeffs[(j, m)] = coeffs[(j, m)] - c if (j, m) in coeffs else -c
    # a product with an exactly zero h factor (or Kronecker factor) adds zero,
    # so it is skipped; the remaining terms keep the order of the full sum.
    # Every product is an h numerator times an omega-scale numerator, so the
    # sum is at the product of the two scales.
    const = st._zero_num
    for m in AXES:
        if h[(j, k, m)]:
            const = const + h[(j, k, m)] * shifted[(i, m, l)]
        if h[(i, k, m)]:
            const = const - h[(i, k, m)] * shifted[(j, m, l)]
        if h[(m, k, l)]:
            const = const - curl[m - 1] * h[(m, k, l)]
        if h[(j, m, l)]:
            const = const - om[(i, k, m)] * h[(j, m, l)]
        if h[(i, m, l)]:
            const = const + om[(j, k, m)] * h[(i, m, l)]
    rows = st._row_scale()
    if rows.den != 1:
        # one integer factor each takes the sum and the dh numerators to L
        const = const * rows.const_mult
        coeffs = {v: c * rows.coeff_mult for v, c in coeffs.items()}
    angle = delta(j, k) * delta(i, l) + delta(i, k) * delta(j, l)
    if angle:
        const = const - rows.angle[(i, j)] * angle
    return AffineExpr(const, coeffs)


def codazzi_values(st, row: AffineExpr) -> AffineExpr:
    """A `codazzi_scalar` row as values: each numerator divided once by L.

    An exact value is a QSqrt3 exactly where its numerator has a Z[sqrt(3)]
    part; at the floating state's scale 1 the row is returned as its values.
    """
    den = st._row_scale().den
    if den == 1:
        return row
    return AffineExpr(st._over(row.const, den), {v: st._over(c, den) for v, c in row.coeffs.items()})


# ---------------------------------------------------------------------------
# linear solving


@dataclass
class SolveResult:
    """Outcome of exact elimination on a set of Codazzi rows.

    solutions: designated unknowns, as affine expressions in any never-pivoted
    variables (constants when the system determines them fully).
    extras: other variables the elimination had to resolve along the way.
    leftovers: fully substituted rows that no pivot consumed; these are the
    compatibility constraints of the system.
    """

    solutions: dict[DVar, AffineExpr]
    extras: dict[DVar, AffineExpr]
    leftovers: list[AffineExpr]
    rank: int
    n_rows: int
    free: list[DVar]


def solve_triple_system(
    st,
    triples: Sequence[tuple[int, int, int]],
    unknowns: Sequence[DVar],
    vanishing: frozenset[int] = frozenset(),
    free_vars: Sequence[DVar] = (),
) -> SolveResult:
    """Exact Gaussian elimination on the rows of the given Codazzi triples.

    Rows are the JE_l-components (l = 1,2,3) of each triple, in order.
    Variables not listed in `unknowns` but present in the rows are eliminated
    first, so the designated solutions never silently depend on them unless
    the system leaves them free.  Variables in `free_vars` are never pivoted;
    they survive as symbols in the returned expressions, which makes solution
    families comparable across different subsystems sharing a free unknown.

    An exact state eliminates its integer rows fraction-free
    (`eliminate_fraction_free`) and divides once when it reads the results;
    a floating state eliminates its values with magnitude pivoting.
    """
    if st.is_zero(st.ec_value):
        raise ValueError("solve requires 4 v1^2 - 3 (v2^2 + v3^2) != 0")
    rows = []
    for (i, j, k) in triples:
        for l in AXES:
            rows.append(codazzi_scalar(st, i, j, k, l, vanishing))
    present: list[DVar] = sorted(
        {v for r in rows for v in r.free_vars(st.is_zero)}
    )
    designated = list(unknowns)
    extra_vars = [v for v in present if v not in designated and v not in free_vars]
    eliminate = _eliminate_integers if st.exact else _eliminate_values
    final, leftovers = eliminate(st, rows, present, extra_vars + designated)
    return SolveResult(
        solutions={u: final[u] for u in designated if u in final},
        extras={v: final[v] for v in extra_vars if v in final},
        leftovers=leftovers,
        rank=len(final),
        n_rows=len(rows),
        free=[u for u in designated if u not in final],
    )


def _eliminate_values(st, rows, present, pivot_vars) -> tuple[dict, list]:
    """Gaussian elimination of a floating state's rows, which at scale 1 are
    their values.

    Each variable in turn is pivoted on the active row where its coefficient
    is largest in magnitude, solved for and substituted into the other rows;
    the solutions are then back-substituted in reverse pivot order.
    """
    defs: dict[DVar, AffineExpr] = {}
    order: list[DVar] = []
    active = list(rows)
    for var in pivot_vars:
        best = pivot_idx = None
        for idx, row in enumerate(active):
            mag = abs(row.coeff(var, st.zero))
            if mag > st.zero_tol and (best is None or mag > best):
                best, pivot_idx = mag, idx
        if pivot_idx is None:
            continue
        row = active.pop(pivot_idx)
        a = row.coeff(var, st.zero)
        rest = AffineExpr(row.const, {w: c for w, c in row.coeffs.items() if w != var})
        expr = rest.scale(-(st.one / a))
        defs[var] = expr
        order.append(var)
        active = [r.subst(var, expr) for r in active]

    final: dict[DVar, AffineExpr] = {}
    for var in reversed(order):
        e = defs[var]
        for w, we in final.items():
            e = e.subst(w, we)
        final[var] = e
    return final, active


class FractionFree(NamedTuple):
    """Outcome of `eliminate_fraction_free` on integer rows.

    pivots: (column, pivot row) in pivot order; the pivot is row[column].
    free: the columns never pivoted, then the constant's index.
    solved: per pivoted column, `last` times its solution (an affine form in
    the never-pivoted columns) as integer numerators over `free`.
    leftovers: the rows no pivot consumed, over `free`: `last` times what
    value-form elimination leaves of them.
    last: the last pivot, 1 when nothing was pivoted.
    """

    pivots: list
    free: list
    solved: dict
    leftovers: list
    last: object


def eliminate_fraction_free(rows: Sequence[Sequence], order: Sequence[int]) -> FractionFree:
    """Bareiss's integer-preserving Gaussian elimination.

    Each row lists integer coefficients and then its constant, an int or a
    ZSqrt3.  Columns are pivoted in `order`, each on the first active row
    whose entry is nonzero; a column with none is skipped.  Every update
    p * r - a * pivot_row is divided exactly by the previous pivot, so each
    entry stays an integer minor of the input (Sylvester's identity), and
    `divide_exactly` raises ArithmeticError on a nonzero remainder.  A row
    whose entry in the pivot column is zero is only rescaled, so a constant
    becomes a ZSqrt3 exactly where value-form elimination would have mixed
    a QSqrt3 into it.  Back substitution in reverse pivot order keeps last
    times each solution on integers: those numerators are Cramer's rule's,
    and each of its divisions by a pivot is exact too.
    """
    active = [list(r) for r in rows]
    live = list(range(len(rows[0])))
    pivots = []
    prev = 1
    for j in order:
        idx = next((n for n, row in enumerate(active) if row[j]), None)
        if idx is None:
            continue
        prow = active.pop(idx)
        p = prow[j]
        live.remove(j)
        for row in active:
            a = row[j]
            if a:
                for c in live:
                    row[c] = divide_exactly(p * row[c] - a * prow[c], prev)
            else:
                for c in live:
                    row[c] = divide_exactly(p * row[c], prev)
        pivots.append((j, prow))
        prev = p
    solved: dict = {}
    for j, prow in reversed(pivots):
        acc = [prev * prow[c] for c in live]
        for jw, later in solved.items():
            a = prow[jw]
            if a:
                acc = [x + a * y for x, y in zip(acc, later)]
        solved[j] = [divide_exactly(-x, prow[j]) for x in acc]
    leftovers = [[row[c] for c in live] for row in active]
    return FractionFree(pivots, live, solved, leftovers, prev)


def _eliminate_integers(st, rows, present, pivot_vars) -> tuple[dict, list]:
    """Fraction-free elimination of an exact state's integer rows, read once.

    Each row is L times its scalar, which scales no solution: with P the
    last pivot, a solution is its numerators over P, and a leftover its row
    over P L.
    """
    col = {v: n for n, v in enumerate(present)}
    matrix = [[r.coeffs.get(v, 0) for v in present] + [r.const] for r in rows]
    out = eliminate_fraction_free(matrix, [col[v] for v in pivot_vars if v in col])
    free = [present[c] for c in out.free[:-1]]

    def read(nums, den) -> AffineExpr:
        *coeffs, const = nums
        return AffineExpr(
            st._over(const, den), {v: Fraction(c, den) for v, c in zip(free, coeffs) if c}
        )

    final = {present[j]: read(nums, out.last) for j, nums in out.solved.items()}
    leftovers = [read(r, out.last * st._row_scale().den) for r in out.leftovers]
    return final, leftovers


# ---------------------------------------------------------------------------
# the quartic bracket polynomials


def _quartic_brackets(v: Sequence) -> tuple:
    """The four bracketed quartics, in display order."""
    q1 = v[0] * v[0]
    q2 = v[1] * v[1]
    q3 = v[2] * v[2]
    b1 = 4 * q1 * q1 + q3 * q3 + 4 * q1 * q2 + 12 * q1 * q3 + q2 * q3
    b2 = 4 * q1 * q1 + 4 * q2 * q2 + 3 * q3 * q3 + 8 * q1 * q2 + 7 * q2 * q3
    b3 = 4 * q1 * q1 + 3 * q2 * q2 + 4 * q3 * q3 + 8 * q1 * q3 + 7 * q2 * q3
    b4 = 4 * q1 * q1 + q2 * q2 + 12 * q1 * q2 + 4 * q1 * q3 + q2 * q3
    return b1, b2, b3, b4


def compat_form_1(st):
    """F1: the first bracketed compatibility form (without the v1 v2 prefactor)."""
    b1, b2, _, _ = _quartic_brackets([st.v[m] for m in AXES])
    return b1 * st.sin2(1, 2) - b2 * st.sin2(1, 3)


def compat_form_2(st):
    """F2: the second bracketed compatibility form (without the v1 v3 prefactor)."""
    _, _, b3, b4 = _quartic_brackets([st.v[m] for m in AXES])
    return b3 * st.sin2(1, 2) - b4 * st.sin2(1, 3)


def det_product_form(v: Sequence):
    """The factored determinant: 4(v2^2+v3^2)|v|^2(2v1^2+v2^2+v3^2)(4v1^2-3(v2^2+v3^2))."""
    q1 = v[0] * v[0]
    q2 = v[1] * v[1]
    q3 = v[2] * v[2]
    return 4 * (q2 + q3) * (q1 + q2 + q3) * (2 * q1 + q2 + q3) * (4 * q1 - 3 * (q2 + q3))


def _rational(x) -> Fraction:
    """Coerce a rational-valued scalar that may be carried as QSqrt3."""
    if isinstance(x, QSqrt3):
        if x.b != 0:
            raise ValueError(f"not rational: {x}")
        return x.a
    return Fraction(x)


# ---------------------------------------------------------------------------
# verification checks


def frame_relation_check(trials: int = 120, seed: int = 0) -> CheckRecord:
    """h_ij^k cos(th_j - th_k) = (eps_ijk/(2 sqrt 3) - omega_ij^k) sin(th_j - th_k).

    Exact identity linking the cubic-form components and the connection
    components, for all i and all j != k, at random valid states.  It is
    compared on integers, times 6 D^3 Q E: 6 Q H C = (sigma eps - Omega) S,
    with H and Omega the h and omega numerators, sigma that of 1/(2 sqrt 3),
    and (C, S, E) the state's integer triple of theta_j - theta_k: any
    common denominator E of the cosine and sine serves.
    """
    rng = random.Random(seed)
    failures = []
    for n in range(trials):
        st = random_frame_state(rng, require_ec=False)
        h = st.h_numerators()
        om = st.omega_numerators()
        six_q = 6 * st._cotangents()[0]
        sigma = st._omega_scale().sigma
        for i, j, k in product(AXES, AXES, AXES):
            if j == k:
                continue
            c, s, _ = st._diffs[(j, k)]
            lhs = six_q * h[(i, j, k)] * c
            rhs = (sigma * epsilon(i, j, k) - om[(i, j, k)]) * s
            if lhs - rhs:
                failures.append({"state": st.describe(), "index": (i, j, k)})
    return CheckRecord(
        check_id="frame-relation",
        passed=not failures,
        samples=trials,
        details={"identities_per_state": 18},
        failures=failures[:5],
    )


SET1_TRIPLES = tuple((1, 2, k) for k in AXES)
SET2_TRIPLES = tuple((1, 3, k) for k in AXES)
SET1_UNKNOWNS = ((2, 1), (1, 2), (2, 2), (1, 3), (2, 3))
SET2_UNKNOWNS = ((3, 1), (1, 2), (3, 2), (1, 3), (3, 3))
SHARED_FREE = ((1, 1),)


def system1_check(seed: int = 0, trials: int = 100) -> CheckRecord:
    """Compare the two overlapping derivative solves and their compatibility.

    Both nine-row systems (triples (1,2,k) and (1,3,k)) are solved for the
    five derivatives each determines, keeping the shared unknown D_11 as a
    free symbol.  The differences of the shared solutions D_12 and D_13 are
    then honest scalars; each vanishes exactly when the corresponding product
    v1 v2 F1 (resp. v1 v3 F2) does, and the clearing factor
    product / (difference * |v|^6 * (4v1^2 - 3(v2^2+v3^2))) is a single
    rational constant, discovered at the first sample and reconfirmed at all
    others.
    """
    rng = random.Random(seed)
    failures = []
    snapshot: dict[str, Fraction] = {}
    kinds = {"generic": 0, "v1=0": 0, "v2=0": 0, "v3=0": 0}
    d11_dependent = 0
    for n in range(trials):
        r = n % 5
        if r == 2:
            kind, kw = "v1=0", dict(zero=(1,), nonzero=(2, 3))
        elif r == 3:
            kind, kw = "v2=0", dict(zero=(2,), nonzero=(1, 3))
        elif r == 4:
            kind, kw = "v3=0", dict(zero=(3,), nonzero=(1, 2))
        else:
            kind, kw = "generic", dict(nonzero=(1, 2, 3))
        kinds[kind] += 1
        st = random_frame_state(rng, require_ec=True, **kw)
        res1 = solve_triple_system(st, SET1_TRIPLES, SET1_UNKNOWNS, free_vars=SHARED_FREE)
        res2 = solve_triple_system(st, SET2_TRIPLES, SET2_UNKNOWNS, free_vars=SHARED_FREE)

        def fail(reason, extra=None):
            failures.append({"state": st.describe(), "reason": reason, "extra": extra})

        if res1.free or res2.free:
            fail("singular subsystem", {"free1": res1.free, "free2": res2.free})
            continue
        stray = [
            x for res in (res1, res2) for x in res.leftovers
            if x.const != 0 or any(c != 0 for c in x.coeffs.values())
        ]
        if stray:
            fail("nonzero leftover constraint", repr(stray[0]))
            continue
        if any(
            e.coeffs.get(SHARED_FREE[0], Fraction(0)) != 0
            for res in (res1, res2) for e in res.solutions.values()
        ):
            d11_dependent += 1

        w = st.v[1] ** 2 + st.v[2] ** 2 + st.v[3] ** 2
        norm = w ** 3 * st.ec_value
        pairs = (
            ("K2", (1, 2), st.v[1] * st.v[2] * compat_form_1(st)),
            ("K3", (1, 3), st.v[1] * st.v[3] * compat_form_2(st)),
        )
        for label, var, prod in pairs:
            diff = res1.solutions[var] - res2.solutions[var]
            if any(c != 0 for c in diff.coeffs.values()):
                fail("difference not gauge-free", {"var": var})
                continue
            gap = diff.const
            if (gap == 0) != (prod == 0):
                fail("vanishing mismatch", {"var": var, "gap_zero": gap == 0})
                continue
            if prod == 0:
                continue
            try:
                ratio = _rational(prod / (gap * norm))
            except ValueError:
                fail("irrational clearing ratio", {"var": var})
                continue
            if label not in snapshot:
                snapshot[label] = ratio
            elif snapshot[label] != ratio:
                fail("clearing factor drift", {"var": var, "seen": str(ratio)})
    details = {
        "kinds": kinds,
        "clearing_factors": {
            k: f"({v}) * |v|^6 * (4 v1^2 - 3 (v2^2 + v3^2))" for k, v in snapshot.items()
        },
        "solutions_depending_on_D11": d11_dependent,
        "designated_rank": 5,
    }
    return CheckRecord(
        check_id="derivative-comparison",
        passed=not failures,
        samples=trials,
        details=details,
        failures=failures[:5],
    )


def case1_check(seed: int = 0, trials: int = 60) -> CheckRecord:
    """The case v2 = v3 = 0: the leftover constraint forces v1 = 0.

    Eliminating the derivative unknowns from the (E1,E2,E1) components leaves
    one constraint, a polynomial of degree at most 3 in v1.  It is compared
    with -v1^3/sqrt(3) exactly at v1 = 1, ..., 5: four nodes fix the cubic and
    the fifth probes it.  The only real root of -v1^3/sqrt(3) is v1 = 0.
    """
    rng = random.Random(seed)
    failures = []
    vanishing = frozenset({2, 3})
    nodes = [Fraction(k) for k in (1, 2, 3, 4, 5)]
    for n in range(trials):
        st0 = random_frame_state(rng, require_ec=False, zero=(2, 3))

        def leftover_at(v1: Fraction):
            st = st0.with_v([v1, Fraction(0), Fraction(0)])
            res = solve_triple_system(st, [(1, 2, 1)], [(2, 1), (1, 1)], vanishing)
            if len(res.leftovers) != 1 or any(
                c != 0 for c in res.leftovers[0].coeffs.values()
            ):
                raise AssertionError("unexpected elimination shape")
            d21 = res.solutions[(2, 1)]
            if d21.const != 0 or any(c != 0 for c in d21.coeffs.values()):
                raise AssertionError("D_21 not forced to zero")
            return res.leftovers[0].const

        def fail(reason, extra=None):
            failures.append({"angles": {k: st0.angles[k] for k in (1, 2)},
                             "reason": reason, "extra": extra})

        try:
            for x in nodes:
                leftover = leftover_at(x)
                if leftover != QSqrt3(0, -x ** 3 / 3):
                    fail("leftover is not -v1^3/sqrt(3)", {"v1": x, "leftover": leftover})
                    break
        except AssertionError as e:
            fail(str(e))
    return CheckRecord(
        check_id="axis-case",
        passed=not failures,
        samples=trials,
        details={"constraint": "(-1/sqrt(3)) v1^3 = 0", "nodes": [str(x) for x in nodes]},
        failures=failures[:5],
    )


def _case2_displays(st) -> tuple[AffineExpr, AffineExpr]:
    """The displayed pair of conditions on x = E_1(v_3) for the case v1 = 0."""
    v2, v3 = st.v[2], st.v[3]
    q2, q3 = v2 * v2, v3 * v3
    x = (1, 3)
    first = AffineExpr(
        v3 * (3 * q2 ** 2 - q2 * q3 + q3 ** 2),
        {x: QSqrt3(0, 15) * q2 * v2 * v3},
    )
    second = AffineExpr(
        v2 * (3 * q2 ** 2 - 3 * q2 * q3 + 4 * q3 ** 2),
        {x: QSqrt3(0, 3) * (4 * q2 ** 2 - 7 * q2 * q3 - q3 ** 2)},
    )
    return first, second


def case2_resultant(v2, v3):
    """Eliminant of the displayed pair: nonzero whenever v2 v3 != 0."""
    q2, q3 = v2 * v2, v3 * v3
    return QSqrt3(0, -3) * v3 * (
        q3 ** 4 + 6 * q2 * q3 ** 3 + 12 * q2 ** 2 * q3 ** 2 + 10 * q2 ** 3 * q3 + 3 * q2 ** 4
    )


def case2_check(seed: int = 0, trials: int = 60) -> CheckRecord:
    """The case v1 = 0: the two substituted conditions are incompatible.

    Solves the (E1,E2,E1) components for E2(v3), E1(v2), E2(v2) in terms of
    the free unknown x = E1(v3), substitutes into the (E1,E2,E2) components,
    and verifies each resulting row is the corresponding displayed condition
    times the clearing factor 2/(sqrt(3)(3 v2^2 + v3^2)) (second row: -1/2 of
    that).  Eliminating x from the displayed pair leaves a polynomial that
    cannot vanish while v2 v3 != 0, so the case forces v2 = v3 = 0.
    """
    rng = random.Random(seed)
    failures = []
    vanishing = frozenset({1})
    unknowns = [(2, 3), (1, 2), (2, 2), (1, 3)]
    x = (1, 3)
    for n in range(trials):
        st = random_frame_state(rng, require_ec=True, zero=(1,), nonzero=(2, 3))

        def fail(reason, extra=None):
            failures.append({"state": st.describe(), "reason": reason, "extra": extra})

        res = solve_triple_system(st, [(1, 2, 1)], unknowns, vanishing)
        if res.free != [x] or res.leftovers:
            fail("unexpected solve shape", {"free": res.free, "leftovers": len(res.leftovers)})
            continue
        rows = []
        for l in AXES:
            e = codazzi_values(st, codazzi_scalar(st, 1, 2, 2, l, vanishing))
            for var, expr in res.solutions.items():
                e = e.subst(var, expr)
            rows.append(e)
        if rows[0].const != 0 or any(c != 0 for c in rows[0].coeffs.values()):
            fail("first substituted row does not vanish")
            continue
        first, second = _case2_displays(st)
        q2, q3 = st.v[2] ** 2, st.v[3] ** 2
        clear = SQRT3 * (3 * q2 + q3)
        checks = (
            (rows[1].scale(clear) - first.scale(2), "first display"),
            (rows[2].scale(clear) - second.scale(-1), "second display"),
        )
        bad = False
        for diffed, label in checks:
            if diffed.const != 0 or any(c != 0 for c in diffed.coeffs.values()):
                fail("clearing factor mismatch", label)
                bad = True
        if bad:
            continue
        resultant = first.const * second.coeff(x, st.zero) - second.const * first.coeff(x, st.zero)
        if resultant - case2_resultant(st.v[2], st.v[3]) != 0:
            fail("eliminant closed form mismatch")
            continue
        if resultant == 0:
            fail("displayed pair unexpectedly compatible")
    return CheckRecord(
        check_id="null-axis-case",
        passed=not failures,
        samples=trials,
        details={"clearing_factor": "2 / (sqrt(3) (3 v2^2 + v3^2))",
                 "second_row_scale": "-1/2"},
        failures=failures[:5],
    )


def case3_closed_forms(v1, v3):
    """The two derivative values pinned in the constrained-angle case."""
    q1, q3 = v1 * v1, v3 * v3
    denom = 3 * mp.sqrt(3) * (8 * q1 ** 2 + 6 * q1 * q3 + 3 * q3 ** 2)
    d23 = v1 * (6 * q1 ** 2 + 5 * q1 * q3 + 4 * q3 ** 2) / denom
    d21 = -v3 * (10 * q1 ** 2 + 8 * q1 * q3 + 3 * q3 ** 2) / denom
    return d23, d21


def constrained_theta2(v1, v3, theta1):
    """Solve the angle constraint of the v2 = 0 case in closed form.

    With theta3 = -theta1 - theta2, the constraint
    (v1^2+v3^2) sin 2(theta1-theta2) = v1^2 sin 2(theta1-theta3)
    is linear in (sin 2theta2, cos 2theta2), so theta2 comes from atan2.
    """
    q1, q3 = v1 * v1, v3 * v3
    num = (q1 + q3) * mp.sin(2 * theta1) - q1 * mp.sin(4 * theta1)
    den = (q1 + q3) * mp.cos(2 * theta1) + q1 * mp.cos(4 * theta1)
    return mp.atan2(num, den) / 2


def case3_check(trials: int = 60, tol: float = CASE3_TOL, seed: int = 0) -> CheckRecord:
    """The case v2 = 0 with the angle constraint: forced back to v = 0.

    Numeric check on the constraint variety (it couples v and theta
    transcendentally, so exact circle points cannot parametrize it).  At each
    sample the six components for the triples (E1,E2,E1), (E1,E2,E2) pin four
    derivatives; the two displayed closed forms are matched to tol, and the
    (E1,E2,E3) components then leave a residual proportional to
    v3 (v1^2 + v3^2), nonzero away from v3 = 0.  A companion branch with
    v3 = 0 (where the constraint cannot bind, so angles are free) checks the
    immediate constant obstruction -v1^3/sqrt(3) instead.  Every test is
    written so that a NaN residual fails it, and a NaN reaches max_residual.
    The check also fails when no main trial reaches the final components or
    no companion sample is checked, so a pass never rests on skipped trials.
    """
    rng = random.Random(seed)
    failures = []
    skipped = 0
    reached = 0
    max_residual = 0.0
    min_forcing_ratio = None
    vanishing = frozenset({2})
    unknowns = [(1, 1), (1, 3), (2, 1), (2, 3)]
    with mp.workdps(50):
        for n in range(trials):
            v1 = mp.mpf(rng.randint(30, 150)) / 100
            v3 = mp.mpf(rng.randint(30, 150)) / 100
            th1 = mp.mpf(rng.randint(5, 70)) / 100
            if abs(4 * v1 ** 2 - 3 * v3 ** 2) < mp.mpf("0.05"):
                skipped += 1
                continue
            th2 = constrained_theta2(v1, v3, th1)
            try:
                st = FloatFrameState([v1, 0, v3], th1, th2)
            except ValueError:
                skipped += 1
                continue

            def fail(reason, extra=None):
                failures.append({"v": [float(v1), 0.0, float(v3)],
                                 "theta1": float(th1), "reason": reason,
                                 "extra": extra})

            q1, q3 = v1 * v1, v3 * v3
            constraint = (q1 + q3) * st.sin2(1, 2) - q1 * st.sin2(1, 3)
            if not abs(constraint) <= mp.mpf("1e-40"):
                fail("constraint residual too large", float(constraint))
                continue
            res = solve_triple_system(st, [(1, 2, 1), (1, 2, 2)], unknowns, vanishing)
            if res.free:
                fail("derivatives not pinned", res.free)
                continue
            d23, d21 = case3_closed_forms(v1, v3)
            got23 = res.solutions[(2, 3)].const
            got21 = res.solutions[(2, 1)].const
            err = max_keep_nan(abs(got23 - d23), abs(got21 - d21))
            max_residual = max_keep_nan(max_residual, float(err))
            if not err <= tol:
                fail("closed form mismatch", {"err": float(err)})
                continue
            reached += 1
            resid = mp.mpf(0)
            for l in AXES:
                e = codazzi_values(st, codazzi_scalar(st, 1, 2, 3, l, vanishing))
                for var, expr in res.solutions.items():
                    e = e.subst(var, AffineExpr(expr.const))
                if e.coeffs and any(abs(c) > st.zero_tol for c in e.coeffs.values()):
                    fail("unresolved unknowns in final components")
                    break
                resid = max_keep_nan(resid, abs(e.const))
            else:
                forcing = abs(v3) * (q1 + q3)
                ratio = float(resid / forcing)
                min_forcing_ratio = (
                    ratio if min_forcing_ratio is None else min_keep_nan(min_forcing_ratio, ratio)
                )
                if not resid >= mp.mpf("0.02") * forcing:
                    fail("final components fail to force v3 (v1^2+v3^2) = 0",
                         {"residual": float(resid), "forcing_scale": float(forcing)})
        # companion branch: v3 = 0 exactly.  The angle constraint cannot bind
        # there for a valid frame (it would force sin(theta2 - theta3) = 0),
        # so the angles are free and the obstruction is immediate.
        companion_ok = 0
        companion_total = 12
        for n in range(companion_total):
            v1 = mp.mpf(rng.randint(30, 150)) / 100
            st = None
            for _ in range(20):
                th1 = mp.mpf(rng.randint(-140, 140)) / 100
                th2 = mp.mpf(rng.randint(-140, 140)) / 100
                try:
                    st = FloatFrameState([v1, 0, 0], th1, th2)
                    break
                except ValueError:
                    continue
            if st is None:
                skipped += 1
                continue
            res = solve_triple_system(st, [(1, 2, 1)], [(2, 1), (1, 1)], frozenset({2, 3}))
            if len(res.leftovers) != 1 or any(
                abs(c) > st.zero_tol for c in res.leftovers[0].coeffs.values()
            ):
                failures.append({"reason": "companion elimination shape"})
                continue
            leftover = res.leftovers[0].const
            expected = -v1 ** 3 / mp.sqrt(3)
            if not (abs(leftover - expected) <= tol and abs(leftover) >= mp.mpf("0.01")):
                failures.append({"reason": "companion obstruction mismatch",
                                 "leftover": float(leftover), "v1": float(v1)})
                continue
            companion_ok += 1
    # a pass must rest on at least one checked sample of each branch
    if not reached:
        failures.append({"reason": "no trial reached the final components"})
    if not companion_ok:
        failures.append({"reason": "no companion sample checked"})
    return CheckRecord(
        check_id="constrained-angle-case",
        passed=not failures,
        samples=trials,
        skipped=skipped,
        tolerance=tol,
        max_residual=max_residual,
        details={"min_forcing_ratio": min_forcing_ratio,
                 "companion_v3_zero_samples": companion_ok},
        failures=failures[:5],
    )


def det_factorization_check(seed: int = 0, trials: int = 120) -> CheckRecord:
    """Determinant of the angle-sine system factors into the displayed product.

    Proved as an exact polynomial identity in (v1, v2, v3) by the degree
    bound: both sides have degree at most 8 in each variable, so agreement
    on the integer grid {-4, ..., 4}^3 proves it (`poly_identity_check`).
    The bracket convention is det = b1 b4 - b2 b3 (the matrix
    [[b1, -b2], [b3, -b4]] has determinant of the opposite sign).  Given
    4v1^2 - 3(v2^2+v3^2) != 0, the product vanishes only at v2 = v3 = 0;
    sampled states there are not tested and are counted in `skipped`.  At
    the others the determinant is evaluated on the integers w = D v: it is
    homogeneous of degree 8, so it vanishes at w exactly when it vanishes at
    v.  The check fails when every sampled state is skipped, so a pass
    never rests on no tested state.
    """

    def bracket_det(v):
        b1, b2, b3, b4 = _quartic_brackets(v)
        return b1 * b4 - b2 * b3

    identity_ok = poly_identity_check(bracket_det, det_product_form, n_vars=3, degree=8)
    rng = random.Random(seed + 1)
    failures = []
    skipped = 0
    vanished = 0
    if not identity_ok:
        failures.append({"reason": "polynomial identity failed"})
    for n in range(trials):
        st = random_frame_state(rng, require_ec=True)
        if st.v[2] == 0 and st.v[3] == 0:
            skipped += 1
            continue
        if bracket_det(st._w) == 0:
            vanished += 1
            failures.append({"state": st.describe(),
                             "reason": "determinant vanished off v2=v3=0"})
    if skipped == trials:
        failures.append({"reason": "every sampled state was skipped"})
    # the angle conclusion when the determinant is nonzero: both doubled
    # angle differences are multiples of pi/2, and among k1, k2, k3 = k2 - k1
    # at least one is even, so two angle functions agree modulo pi
    parity_ok = all(
        (k1 % 2 == 0) or (k2 % 2 == 0) or ((k2 - k1) % 2 == 0)
        for k1, k2 in product(range(2), range(2))
    )
    if not parity_ok:
        failures.append({"reason": "angle parity argument failed"})
    return CheckRecord(
        check_id="determinant-factorization",
        passed=not failures,
        samples=trials,
        skipped=skipped,
        details={"sign_convention": "det = b1 b4 - b2 b3 = -(matrix determinant)",
                 "nonvanishing_given_constraint": skipped < trials and not vanished,
                 "angle_parity": parity_ok},
        failures=failures[:5],
    )
