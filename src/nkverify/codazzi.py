"""Exact frame-level verification of the Codazzi analysis.

Works with a three-dimensional orthonormal frame abstractly: a state consists
of the components v = (v1, v2, v3) of the cubic-form vector field and exact
circle points for the angle functions theta_i (with theta1+theta2+theta3 = 0
imposed).  The second fundamental form components h_ij^k are cubic polynomials
in v, the connection components omega_ij^k are rational in v and the angle
cotangents, and each antisymmetrized Codazzi component becomes a scalar that
is affine in the nine unknown frame derivatives D_im = E_i(v_m).

Every identity is checked exactly over Q(sqrt(3)).  The case v2 = 0 needs
no angle constraint: its rows leave a leftover free of the angles that
vanishes only at v3 = 0, so it too is checked at exact states with free
rational angles.

A state (`FrameState`) is a point and its angles, all integers.  The point
(`_Point`) holds w = D v, with D the lcm of the denominators of v, and what
depends on v alone: h and dh from the closed forms of `hijk_from_v` and
`hijk_gradient` on w, at scales D^3 and D^2, once per symmetry class (10
and 30 entries; `_H_CLASS` and `_DH_CLASS` map every key to its class), and
the gate 4 v1^2 - 3(v2^2 + v3^2) over D^2.  The angles (`_Angles`) hold
each angle as a triple (C, S, E) with cosine C/E and sine S/E, the three
distinct cotangents over one common denominator Q (cot(b, a) =
-cot(a, b)), and per D the scales the states there share.  Only omega
reads both: it is (6 D^3 Q)^-1 times an integer plus a sqrt(3) part that
comes only from 1/(2 sqrt 3), so it is sigma eps_ijk for one integer sigma.
The same holds for the two connection factors the Codazzi scalars read:
the shifted connection omega_im^l - eps_iml/sqrt(3) has omega's rational
part and the sqrt(3) part (sigma - iota) eps_iml, with iota the numerator
of 1/sqrt(3), and the curl omega_ij^m - omega_ji^m has the sqrt(3) part
2 sigma eps_ijm.  So sqrt(3) is a column of its own: no table entry is
anything but an int.  Each table is computed once, when first read; the
axis case builds its five nodes' points once per call.

Each Codazzi scalar (i, j, k, l) reads a plan compiled once, when it is
first needed: its dh class keys, and its h-omega products grouped by h
class, each group holding the omega keys of its rational part, the integer
weights of sigma and iota in its sqrt(3) part, and a flag that says whether
any of its connection factors has a sqrt(3) part at all.  A row's
D-coefficients are the integer dh numerators, at scale D^2, and its
constant, a sum of h-omega products plus the angle term, is one integer
rational part and one integer sqrt(3) part at L = lcm(6 D^6 Q, A), with A
the common denominator of the three sin 2(theta_a - theta_b)/3.  A group
whose h class is zero is skipped, so the row is flagged irrational exactly
where value-form arithmetic would have met an element of Q(sqrt 3), even
where the sqrt(3) parts cancel.  A solve compiles its shape once per
(triples, vanishing), its scalars and the sorted columns of the unknowns
they read, and writes each row straight into a dense integer matrix.

The exact solver eliminates that matrix fraction-free (Bareiss), with the
constant as two integer columns and the flag carried per row: each
update is divided exactly by the previous pivot, and every pivot is an
integer minor of the small coefficients.  It hands out the numerators
(`Numerators`): with P the last pivot, a solution's coefficients are over P
and its constant over P L / D^2, the constant's own scale against the
coefficients'; a leftover's coefficients are over P D^2 and its constant
over P L.  Pivots are still the first rows with a nonzero coefficient, so
the pivot order, rank and free variables are those of value-form
elimination, and a numerator is flagged irrational exactly where the
rational-arithmetic formulas give an element of Q(sqrt 3); a sqrt(3) part on
a numerator that is not flagged raises.

The checks decide on these numerators.  A leftover is tested for zero on
its integers.  A closed form homogeneous of degree k in v is evaluated on
w = D v, where it is D^k times its value at v, and compared with a
numerator by cross-multiplication; so are the two solutions the derivative
comparison subtracts, and the null-axis rows after the substitution, which
stays on numerators too.  A failure's details are built from the integers:
each number a Fraction, an angle its cosine and sine as {"c", "s"}, and a
constant flagged irrational its rational and sqrt(3) parts as {"a", "b"};
a failed comparison with a closed form gives that form as "expected".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, product
from math import gcd, lcm, nan
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exact import divide_exactly, poly_identity_check
from .report import CheckRecord

AXES = (1, 2, 3)
CANONICAL_PAIRS = ((1, 2), (1, 3), (2, 3))


def epsilon(i: int, j: int, k: int) -> int:
    """Totally antisymmetric symbol on {1,2,3}."""
    return (i - j) * (j - k) * (k - i) // 2


def delta(i: int, j: int) -> int:
    return 1 if i == j else 0


DVar = tuple[int, int]  # (i, m) stands for the derivative E_i(v_m)


# ---------------------------------------------------------------------------
# states


def _require_flag(root3: int, irrational: bool) -> None:
    """A numerator that is not flagged irrational has no sqrt(3) part."""
    if root3 and not irrational:
        raise ArithmeticError("a sqrt(3) part on a numerator not flagged irrational")


class _Scales(NamedTuple):
    """The scales of the states at one set of angles and one D.

    omega is at omega_den = 6 D^3 Q, where sigma and inv_sqrt3 are the
    sqrt(3) coefficients of 1/(2 sqrt 3) and 1/sqrt(3).  A row's constant
    is at den = L, coeff_mult = L / D^2 times its coefficients' scale;
    const_mult takes a sum of h-omega products, at D^3 omega_den, to L, and
    angle[(a, b)] is sin 2(theta_a - theta_b)/3 at L.
    """

    omega_den: int
    sigma: int
    inv_sqrt3: int
    den: int
    coeff_mult: int
    const_mult: int
    angle: dict[tuple[int, int], int]


def _circle(triple: tuple[int, int, int]) -> dict[str, Fraction]:
    """An integer triple (C, S, E) as a failure's details give an angle."""
    c, s, e = triple
    return {"c": Fraction(c, e), "s": Fraction(s, e)}


class _Angles:
    """The angle data of a state, shared by the states `at` builds.

    theta holds the three integer triples, with theta3 = -(theta1 + theta2),
    and diffs the triple of theta_a - theta_b for every ordered pair: the
    three with a < b are built on the triples, a reverse pair is (C, -S, E)
    and the diagonal (1, 0, 1).  Construction rejects angles where some
    sin(theta_a - theta_b) vanishes, since the connection components divide
    by those factors.  The cotangents, the angle terms and the scales at
    each denominator D are computed once, when first read.
    """

    def __init__(self, theta1: tuple, theta2: tuple) -> None:
        (c1, s1, e1), (c2, s2, e2) = theta1, theta2
        # theta3 is the conjugate of the sum of theta1 and theta2
        self.theta = {1: theta1, 2: theta2, 3: (c1 * c2 - s1 * s2, -(s1 * c2 + c1 * s2), e1 * e2)}
        self.diffs: dict[tuple[int, int], tuple[int, int, int]] = {
            (a, a): (1, 0, 1) for a in AXES
        }
        for a, b in CANONICAL_PAIRS:
            ca, sa, ea = self.theta[a]
            cb, sb, eb = self.theta[b]
            c, s, e = ca * cb + sa * sb, sa * cb - ca * sb, ea * eb
            self.diffs[(a, b)], self.diffs[(b, a)] = (c, s, e), (c, -s, e)
        if any(self.diffs[ab][1] == 0 for ab in CANONICAL_PAIRS):
            raise ValueError("state rejected: some sin(theta_a - theta_b) vanishes")
        self._by_d: dict[int, _Scales] = {}

    @cached_property
    def cotangents(self) -> tuple[int, dict]:
        """Q and the numerators 6 Q cot(a, b) for a != b, from the three
        cotangents C/S of the canonical pairs."""
        q, num = self._over_lcm(lambda c, s, e: (c, s))
        return q, {ab: 6 * x for ab, x in num.items()}

    @cached_property
    def thirds(self) -> tuple[int, dict]:
        """A and the numerators A sin 2(theta_a - theta_b)/3 for all (a, b),
        from 2 S C / (3 E^2) on the canonical pairs; the diagonal is zero."""
        a, num = self._over_lcm(lambda c, s, e: (2 * s * c, 3 * e * e))
        return a, {(b, b): 0 for b in AXES} | num

    def _over_lcm(self, fraction) -> tuple[int, dict]:
        """fraction(C, S, E) = (n, d) at the triple of each canonical pair
        (a, b), in lowest terms and then over the least common denominator,
        which is positive: it, and the numerators by (a, b) and, negated, by
        (b, a)."""
        reduced = []
        for ab in CANONICAL_PAIRS:
            n, d = fraction(*self.diffs[ab])
            g = gcd(n, d)
            reduced.append((n // g, d // g))
        den = lcm(*(d for _, d in reduced))
        num = {}
        for (a, b), (n, d) in zip(CANONICAL_PAIRS, reduced):
            num[(a, b)] = n * (den // d)
            num[(b, a)] = -num[(a, b)]
        return den, num

    def scales(self, d: int) -> _Scales:
        """The scales at the denominator d, computed once per d and shared by
        the states at these angles and d."""
        if d not in self._by_d:
            q, _ = self.cotangents
            d3q = d ** 3 * q
            const_den = 6 * d3q * d ** 3
            a, thirds = self.thirds
            den = lcm(const_den, a)
            angle = {ab: x * (den // a) for ab, x in thirds.items()}
            self._by_d[d] = _Scales(6 * d3q, d3q, 2 * d3q, den, den // d ** 2,
                                    den // const_den, angle)
        return self._by_d[d]


class _Point:
    """The tables of one v = w / D, which no angle enters, shared by the
    states at v: h and dh, each computed when first read, and
    ec = 4 w1^2 - 3 (w2^2 + w3^2), D^2 times the gate at v."""

    def __init__(self, w: list[int], d: int) -> None:
        self.w, self.d = w, d
        w1, w2, w3 = w
        self.ec = 4 * w1 * w1 - 3 * (w2 * w2 + w3 * w3)

    @cached_property
    def h(self) -> dict:
        """h at scale D^3: entry (i, j, k), i <= j <= k, is D^3 h_ij^k."""
        return hijk_from_v(self.w)

    @cached_property
    def dh(self) -> dict:
        """dh at scale D^2: entry (j, k, l, m), j <= k <= l, is
        D^2 d h_jk^l / d v_m."""
        return hijk_gradient(self.w)


class FrameState:
    """Exact frame state, on integers: a `_Point` and an `_Angles`.

    v is held as w = D v, with D the lcm of the denominators of its entries.
    An angle is a rational circle point, held as an integer triple (C, S, E):
    cosine C/E and sine S/E over one common denominator, not necessarily in
    lowest terms; `_Angles` builds theta3 and the differences and rejects
    angles where some sin(theta_a - theta_b) vanishes.

    Every table holds only ints and is computed once, when a check first
    reads it.  h and dh belong to the point and the scales (`_Scales`) to
    the angles, at each D; only omega needs both.  The omega table holds
    the rational parts at 6 D^3 Q; the sqrt(3) part of omega_ij^k is
    `_scales.sigma` times eps_ijk.
    """

    def __init__(self, w: list[int], d: int, theta1: tuple, theta2: tuple) -> None:
        self._point, self._angles = _Point(w, d), _Angles(theta1, theta2)
        self._w, self._D = w, d

    def at(self, point: _Point) -> "FrameState":
        """The state at the point's v with the same, already validated,
        angles, whose data and scales are shared, not rebuilt."""
        st = object.__new__(FrameState)
        st._point, st._angles, st._w, st._D = point, self._angles, point.w, point.d
        return st

    @cached_property
    def omega_numerators(self) -> dict:
        """omega's rational part at its scale: entry (i, j, k) is 6 D^3 Q
        omega_ij^k less its sqrt(3) part, sigma eps_ijk."""
        return omega_numerators(self)

    @property
    def _scales(self) -> _Scales:
        return self._angles.scales(self._D)

    def describe(self) -> dict:
        """v and the two drawn angles, as a failure's details give them."""
        return {
            "v": [Fraction(x, self._D) for x in self._w],
            "theta1": _circle(self._angles.theta[1]),
            "theta2": _circle(self._angles.theta[2]),
        }


def _draw_ratio(rng: random.Random) -> tuple[int, int]:
    """A small random rational as (numerator, denominator), not reduced."""
    return rng.randint(-9, 9), rng.randint(1, 9)


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

    The draw goes straight to integers: each v_m = a/b is reduced by one gcd
    into w = D v, and each angle t = p/q to the half-angle triple
    (q^2 - p^2, 2pq, q^2 + p^2) of `rat_circle_point`, unreduced.
    """
    zero = set(zero)
    nonzero = set(nonzero)
    for _ in range(500):
        nums, dens = [], []
        for m in AXES:
            if m in zero:
                a, b = 0, 1
            else:
                a, b = _draw_ratio(rng)
                while m in nonzero and a == 0:
                    a, b = _draw_ratio(rng)
            g = gcd(a, b)
            nums.append(a // g)
            dens.append(b // g)
        d = lcm(*dens)
        w = [a * (d // b) for a, b in zip(nums, dens)]
        angles = []
        for _ in (1, 2):
            p, q = _draw_ratio(rng)
            angles.append((q * q - p * p, 2 * p * q, q * q + p * p))
        try:
            st = FrameState(w, d, *angles)
        except ValueError:
            continue
        if require_ec and not st._point.ec:
            continue
        return st
    raise RuntimeError("could not sample a valid frame state")


# ---------------------------------------------------------------------------
# component tables


#: Each key of h and its symmetry class's sorted index, the key its table
#: holds it at; likewise for dh, which is symmetric in its first three slots.
_H_CLASS = {key: tuple(sorted(key)) for key in product(AXES, AXES, AXES)}
_DH_CLASS = {
    (j, k, l, m): (*sorted((j, k, l)), m) for j, k, l, m in product(AXES, AXES, AXES, AXES)
}


def hijk_from_v(v: Sequence) -> dict[tuple[int, int, int], object]:
    """Second fundamental form components from the vector field components.

    h_ij^k = |v|^2 (v_i d_jk + v_j d_ki + v_k d_ij) - 5 v_i v_j v_k.
    Fully symmetric and trace-free in every slot, so the table holds the 10
    symmetry classes at their sorted indices; `_H_CLASS` maps any key to
    its class.  The comparisons j == k, ... are the Kronecker deltas: a
    bool multiplies as 0 or 1.
    """
    vv = dict(zip(AXES, v))
    n = vv[1] * vv[1] + vv[2] * vv[2] + vv[3] * vv[3]
    return {
        (i, j, k): n * (vv[i] * (j == k) + vv[j] * (k == i) + vv[k] * (i == j))
        - 5 * vv[i] * vv[j] * vv[k]
        for i, j, k in combinations_with_replacement(AXES, 3)
    }


def hijk_gradient(v: Sequence) -> dict[tuple[int, int, int, int], object]:
    """Partial derivatives: entry (j,k,l,m), j <= k <= l, is d h_jk^l / d v_m.

    d h_jk^l / d v_m = 2 v_m (v_j d_kl + v_k d_lj + v_l d_jk)
        + |v|^2 (d_jm d_kl + d_km d_lj + d_lm d_jk)
        - 5 (d_jm v_k v_l + v_j d_km v_l + v_j v_k d_lm),
    held for the 30 entries with j <= k <= l, the classes of the
    permutations of (j, k, l); `_DH_CLASS` maps any key to its class.  The
    Kronecker deltas are comparisons, as in `hijk_from_v`.
    """
    vv = dict(zip(AXES, v))
    n = vv[1] * vv[1] + vv[2] * vv[2] + vv[3] * vv[3]
    out = {}
    for j, k, l in combinations_with_replacement(AXES, 3):
        vj, vk, vl = vv[j], vv[k], vv[l]
        d_kl, d_lj, d_jk = k == l, l == j, j == k
        linear = vj * d_kl + vk * d_lj + vl * d_jk
        for m in AXES:
            d_jm, d_km, d_lm = j == m, k == m, l == m
            out[(j, k, l, m)] = (
                2 * vv[m] * linear
                + n * (d_jm * d_kl + d_km * d_lj + d_lm * d_jk)
                - 5 * (d_jm * vk * vl + vj * d_km * vl + vj * vk * d_lm)
            )
    return out


#: The keys of omega in the order of its table.
_OMEGA_KEYS = tuple(product(AXES, AXES, AXES))


def omega_numerators(st) -> dict[tuple[int, int, int], int]:
    """Rational parts of the connection components omega_ij^k of the
    induced metric, at the state's scale (see `FrameState`).

    The nine displayed formulas determine everything through the skew
    symmetry omega_ij^k = -omega_ik^j (and omega_ij^j = 0).  They are
    evaluated on w = D v and the cotangent numerators 6 Q cot, which do not
    depend on D: d_ab is the display (a, a, b) and e_a the display
    (a, a+1, a+2), cyclically.  The three e_a also hold 1/(2 sqrt 3); that
    sqrt(3) part is sigma eps_ijk and is not stored.
    """
    _, cot = st._angles.cotangents
    v1, v2, v3 = st._w
    q1, q2, q3 = v1 * v1, v2 * v2, v3 * v3
    five_v = 5 * v1 * v2 * v3
    d12 = -v2 * (-4 * q1 + q2 + q3) * cot[(1, 2)]
    d13 = -v3 * (-4 * q1 + q2 + q3) * cot[(1, 3)]
    d21 = -v1 * (q1 - 4 * q2 + q3) * cot[(2, 1)]
    d23 = -v3 * (q1 - 4 * q2 + q3) * cot[(2, 3)]
    d31 = -v1 * (q1 + q2 - 4 * q3) * cot[(3, 1)]
    d32 = -v2 * (q1 + q2 - 4 * q3) * cot[(3, 2)]
    e1, e2, e3 = five_v * cot[(2, 3)], five_v * cot[(3, 1)], five_v * cot[(1, 2)]
    return dict(zip(_OMEGA_KEYS, (
        0, d12, d13, -d12, 0, e1, -d13, -e1, 0,
        0, -d21, -e2, d21, 0, d23, e2, -d23, 0,
        0, e3, -d31, -e3, 0, -d32, d31, d32, 0,
    )))


# ---------------------------------------------------------------------------
# Codazzi components


class _Group(NamedTuple):
    """The h-omega products of one Codazzi scalar that share an h class.

    Their connection factors sum to the sum of c omega_key over `terms`, on
    omega's rational numerators, plus sqrt(3) times
    by_sigma sigma + by_inv iota (see `_Scales`).  irrational says
    whether any of the factors has a sqrt(3) part, even where those cancel.
    """

    h_class: tuple[int, int, int]
    terms: tuple[tuple[int, tuple[int, int, int]], ...]
    by_sigma: int
    by_inv: int
    irrational: bool


class _Plan(NamedTuple):
    """What the Codazzi scalar (i, j, k, l) reads, compiled once.

    dh lists (unknown, dh class, sign) per D-coefficient term, in formula
    order; groups are its h-omega products by h class; angle is the integer
    factor of sin 2(theta_i - theta_j)/3.
    """

    dh: tuple[tuple[DVar, tuple[int, int, int, int], int], ...]
    groups: tuple[_Group, ...]
    angle: int


def _compile_plan(i: int, j: int, k: int, l: int) -> _Plan:
    """The plan of the scalar (i, j, k, l), from the Codazzi formula.

    The constant's products are, for m = 1, 2, 3,
        h_jk^m S_im^l - h_ik^m S_jm^l - C_ij^m h_mk^l
        - omega_ik^m h_jm^l + omega_jk^m h_im^l,
    with S the shifted connection omega - eps/sqrt(3), whose sqrt(3) part
    is (sigma - iota) eps, and C the curl omega_ij^m - omega_ji^m, whose
    sqrt(3) part is 2 sigma eps_ijm; omega's own is sigma eps.  The rational
    parts are omega's; omega_ij^j = 0 adds nothing, and terms of one group
    at one omega key are summed.
    """
    dh = []
    for m in AXES:
        dh.append(((i, m), _DH_CLASS[(j, k, l, m)], 1))
        dh.append(((j, m), _DH_CLASS[(i, k, l, m)], -1))
    terms: dict = {}  # h class -> {omega key: coefficient}
    root3: dict = {}  # h class -> (by_sigma, by_inv), where a factor has sqrt(3)
    for m in AXES:
        for sign, h_key, omega, w_sigma, w_inv, eps in (
            (1, (j, k, m), ((1, (i, m, l)),), 1, -1, epsilon(i, m, l)),
            (-1, (i, k, m), ((1, (j, m, l)),), 1, -1, epsilon(j, m, l)),
            (-1, (m, k, l), ((1, (i, j, m)), (-1, (j, i, m))), 2, 0, epsilon(i, j, m)),
            (-1, (j, m, l), ((1, (i, k, m)),), 1, 0, epsilon(i, k, m)),
            (1, (i, m, l), ((1, (j, k, m)),), 1, 0, epsilon(j, k, m)),
        ):
            h_class = _H_CLASS[h_key]
            group = terms.setdefault(h_class, {})
            for c, key in omega:
                if key[1] != key[2]:
                    group[key] = group.get(key, 0) + sign * c
            if eps:
                by_sigma, by_inv = root3.get(h_class, (0, 0))
                root3[h_class] = (by_sigma + sign * w_sigma * eps, by_inv + sign * w_inv * eps)
    return _Plan(
        tuple(dh),
        tuple(
            _Group(
                h_class,
                tuple((c, key) for key, c in group.items() if c),
                *root3.get(h_class, (0, 0)),
                h_class in root3,
            )
            for h_class, group in terms.items()
            if h_class in root3 or any(group.values())
        ),
        delta(j, k) * delta(i, l) + delta(i, k) * delta(j, l),
    )


class _Compiled(dict):
    """Values by key, each compiled by build(*key) when it is first read."""

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key: tuple):
        value = self[key] = self.build(*key)
        return value


def _compile_shape(triples: tuple, vanishing: frozenset[int]) -> tuple:
    """The shape of a solve: the scalars (i, j, k, l), l = 1, 2, 3 for each
    triple in order, the unknowns D_am they read, a in (i, j) and m not
    vanishing, sorted, and each unknown's column."""
    columns = tuple(sorted(
        {(a, m) for i, j, _ in triples for a in (i, j) for m in AXES if m not in vanishing}
    ))
    keys = tuple((i, j, k, l) for i, j, k in triples for l in AXES)
    return keys, columns, {var: n for n, var in enumerate(columns)}


#: The plans by (i, j, k, l) and the shapes by (triples, vanishing).
_PLANS = _Compiled(_compile_plan)
_SHAPES = _Compiled(_compile_shape)


def _codazzi_rows(st, keys, col: Mapping[DVar, int]) -> tuple[list[list[int]], list[bool]]:
    """The Codazzi scalars `keys` as integer rows and their flags, each row
    read from its plan when it is built: its dh numerators summed into the
    columns of `col` (an unknown not in col is dropped), at scale D^2, then
    its constant's rational and sqrt(3) parts at L (`_Scales`).  A group of
    products whose h class is zero is skipped, so its flag is not raised.
    """
    h, dh, om = st._point.h, st._point.dh, st.omega_numerators
    scale = st._scales
    width = len(col) + 2
    matrix, flags = [], []
    for key in keys:
        plan = _PLANS[key]
        row = [0] * width
        # for i == j both terms of an m land on one unknown and are summed
        for var, dh_key, sign in plan.dh:
            c = col.get(var)
            if c is not None:
                row[c] += sign * dh[dh_key]
        # every product is an h numerator times an omega-scale numerator, so
        # the sums are at the product of the two scales
        const = by_sigma = by_inv = 0
        irrational = False
        for h_class, terms, w_sigma, w_inv, irr in plan.groups:
            x = h[h_class]
            if x:
                const += x * sum([c * om[k] for c, k in terms])
                if irr:
                    irrational = True
                    by_sigma += x * w_sigma
                    by_inv += x * w_inv
        # one integer factor takes the sums to L
        row[-2] = const * scale.const_mult - scale.angle[key[:2]] * plan.angle
        row[-1] = (by_sigma * scale.sigma + by_inv * scale.inv_sqrt3) * scale.const_mult
        matrix.append(row)
        flags.append(irrational)
    return matrix, flags


class CodazziRow(NamedTuple):
    """A Codazzi scalar as integer numerators.

    coeffs maps each unknown D_am to its coefficient, at scale D^2, and the
    constant is const + root3 sqrt(3), at the state's row scale L.
    irrational says whether the constant is in Q(sqrt 3): whether a nonzero h
    class met a connection factor with a sqrt(3) part.
    """

    coeffs: dict[DVar, int]
    const: int
    root3: int
    irrational: bool


def codazzi_scalar(
    st, i: int, j: int, k: int, l: int, vanishing: frozenset[int] = frozenset()
) -> CodazziRow:
    """JE_l-component of the antisymmetrized Codazzi equation on (E_i,E_j,E_k).

    Returns the scalar that must vanish, affine in the unknowns D_am, as a
    `CodazziRow`: the one-row case of `_codazzi_rows`, in the columns of the
    triple's shape.  An unknown is held where one of its dh numerators is
    nonzero.  The `vanishing` set lists components v_m assumed identically
    zero, whose derivatives D_am are then dropped as well.
    """
    _, _, col = _SHAPES[(((i, j, k),), vanishing)]
    (row,), (irrational,) = _codazzi_rows(st, [(i, j, k, l)], col)
    dh, plan = st._point.dh, _PLANS[(i, j, k, l)]
    coeffs = {var: row[col[var]] for var, key, _ in plan.dh if var in col and dh[key]}
    return CodazziRow(coeffs, row[-2], row[-1], irrational)


# ---------------------------------------------------------------------------
# linear solving


class Numerators(NamedTuple):
    """An affine form in the unknowns D_am as integer numerators.

    Its coefficient of D_am is coeffs[(a, m)] / coeff_den, with only nonzero
    numerators held, and its constant is (const + root3 sqrt(3)) / const_den.
    irrational says whether the constant is in Q(sqrt 3); a numerator
    that is not flagged has no sqrt(3) part.
    """

    coeffs: dict[DVar, int]
    const: int
    root3: int
    irrational: bool
    coeff_den: int
    const_den: int

    def is_zero(self) -> bool:
        """Whether every numerator is zero, so the form is."""
        return not (self.const or self.root3 or self.coeffs)

    def const_detail(self):
        """The constant as a failure's details give it: a Fraction, or where
        it is flagged irrational its rational and sqrt(3) parts as
        {"a", "b"}, each numerator divided once."""
        _require_flag(self.root3, self.irrational)
        if self.irrational:
            return {"a": Fraction(self.const, self.const_den),
                    "b": Fraction(self.root3, self.const_den)}
        return Fraction(self.const, self.const_den)

    def detail(self) -> dict:
        """The form as a failure's details give it: its constant and its
        coefficients, as Fractions."""
        return {
            "const": self.const_detail(),
            "coeffs": {v: Fraction(c, self.coeff_den) for v, c in sorted(self.coeffs.items())},
        }


@dataclass
class SolveResult:
    """Outcome of exact elimination on a set of Codazzi rows.

    solutions: designated unknowns, as affine forms in any never-pivoted
    variables (constants when the system determines them fully).
    extras: other variables the elimination had to resolve along the way.
    leftovers: fully substituted rows that no pivot consumed; these are the
    compatibility constraints of the system.
    Each is a `Numerators`: with P the last pivot and K = L / D^2, a
    solution is over P (coefficients) and P K (constant), and a leftover
    over P D^2 and P L.
    """

    solutions: dict[DVar, Numerators]
    extras: dict[DVar, Numerators]
    leftovers: list[Numerators]
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

    The rows go straight into an integer matrix in the shape's columns
    (`_codazzi_rows`), each scalar times D^2 and its constant's two columns
    times K = L / D^2 more; a column that is zero at the state is never
    pivoted and holds no numerator.  It is eliminated fraction-free
    (`eliminate_fraction_free`) and handed out as its numerators: with P
    the last pivot, a solution's coefficients are over P and its constant
    over P K, as scaling the constant's columns scales it by 1/K, and a
    leftover, its row's residual times D^2, is over P D^2 and P L.  A
    sqrt(3) part on a numerator not flagged irrational raises.
    """
    if not st._point.ec:
        raise ValueError("solve requires 4 v1^2 - 3 (v2^2 + v3^2) != 0")
    keys, columns, col = _SHAPES[(tuple(triples), vanishing)]
    matrix, flags = _codazzi_rows(st, keys, col)
    designated = list(unknowns)
    extra_vars = [v for v in columns if v not in designated and v not in free_vars]
    out = eliminate_fraction_free(
        matrix, [col[v] for v in extra_vars + designated if v in col], flags
    )
    free = [columns[c] for c in out.free[:-2]]

    def read(nums, irrational, coeff_den, const_den) -> Numerators:
        *coeffs, const, root3 = nums
        _require_flag(root3, irrational)
        return Numerators(
            {v: c for v, c in zip(free, coeffs) if c}, const, root3, irrational, coeff_den,
            const_den,
        )

    p, scale = out.last, st._scales
    final = {
        columns[j]: read(nums, out.solved_irrational[j], p, p * scale.coeff_mult)
        for j, nums in out.solved.items()
    }
    return SolveResult(
        solutions={u: final[u] for u in designated if u in final},
        extras={v: final[v] for v in extra_vars if v in final},
        leftovers=[
            read(r, irrational, p * st._D * st._D, p * scale.den)
            for r, irrational in zip(out.leftovers, out.leftover_irrational)
        ],
        rank=len(final),
        n_rows=len(keys),
        free=[u for u in designated if u not in final],
    )


class FractionFree(NamedTuple):
    """Outcome of `eliminate_fraction_free` on integer rows.

    pivots: (column, pivot row) in pivot order; the pivot is row[column].
    free: the columns never pivoted, the constant's columns among them.
    solved: per pivoted column, `last` times its solution (an affine form in
    the never-pivoted columns) as integer numerators over `free`.
    leftovers: the rows no pivot consumed, over `free`: `last` times what
    value-form elimination leaves of them.
    last: the last pivot, 1 when nothing was pivoted.
    solved_irrational, leftover_irrational: the flags of the solutions, by
    column, and of the leftovers, in order.
    """

    pivots: list
    free: list
    solved: dict
    leftovers: list
    last: int
    solved_irrational: dict
    leftover_irrational: list


def eliminate_fraction_free(
    rows: Sequence[Sequence[int]], order: Sequence[int], irrational: Sequence[bool]
) -> FractionFree:
    """Bareiss's integer-preserving Gaussian elimination.

    Each row lists integer coefficients and then its constant, which may
    take two columns, a rational and a sqrt(3) part; `irrational` flags the
    rows whose constant is in Q(sqrt 3).  Columns are
    pivoted in `order`, each on the first active row whose entry is nonzero;
    a column with none is skipped.  Every update p * r - a * pivot_row is
    one divmod by the previous pivot, so each entry stays an integer minor
    of the input (Sylvester's identity), and a nonzero remainder raises
    ArithmeticError.  An update with a != 0 takes the pivot row's flag into
    the row; a row whose entry in the pivot column is zero is only rescaled
    and keeps its own, so a row is flagged exactly where value-form
    elimination would have mixed an element of Q(sqrt 3) into it.  Back
    substitution in reverse pivot order keeps last times each solution on
    integers: those numerators are Cramer's rule's, and each of its
    divisions by a pivot is exact too (`divide_exactly`).
    """
    active = [list(r) for r in rows]
    flags = list(irrational)
    live = list(range(len(rows[0])))
    pivots, pivot_flags = [], []
    prev = 1
    for j in order:
        idx = next((n for n, row in enumerate(active) if row[j]), None)
        if idx is None:
            continue
        prow = active.pop(idx)
        pflag = flags.pop(idx)
        p = prow[j]
        live.remove(j)
        for n, row in enumerate(active):
            a = row[j]
            # divide_exactly inlined: this loop makes most of a solve's divisions
            for c in live:
                q, r = divmod(p * row[c] - a * prow[c], prev)
                if r:
                    raise ArithmeticError(f"{prev} does not divide an update")
                row[c] = q
            if a and pflag:
                flags[n] = True
        pivots.append((j, prow))
        pivot_flags.append(pflag)
        prev = p
    solved: dict = {}
    solved_flags: dict = {}
    for (j, prow), flag in zip(reversed(pivots), reversed(pivot_flags)):
        acc = [prev * prow[c] for c in live]
        for jw, later in solved.items():
            a = prow[jw]
            if a:
                acc = [x + a * y for x, y in zip(acc, later)]
                flag = flag or solved_flags[jw]
        solved[j] = [divide_exactly(-x, prow[j]) for x in acc]
        solved_flags[j] = flag
    leftovers = [[row[c] for c in live] for row in active]
    return FractionFree(pivots, live, solved, leftovers, prev, solved_flags, flags)


def _substitute(st, row: CodazziRow, solutions: Mapping[DVar, Numerators]) -> Numerators:
    """A Codazzi row with the solved unknowns replaced by their solutions.

    The solutions of one solve share their scales, P and P K, so the result
    is at a leftover's: its coefficients over P D^2 and its constant over
    P L.  Its flag is the row's, or a substituted solution's.
    """
    p = next(iter(solutions.values())).coeff_den if solutions else 1
    coeffs = {v: c * p for v, c in row.coeffs.items() if v not in solutions}
    const, root3, irrational = row.const * p, row.root3 * p, row.irrational
    for var, c in row.coeffs.items():
        sol = solutions.get(var)
        if sol is None or not c:
            continue
        for u, a in sol.coeffs.items():
            coeffs[u] = coeffs.get(u, 0) + c * a
        const += c * sol.const
        root3 += c * sol.root3
        irrational = irrational or sol.irrational
    return Numerators(
        {v: c for v, c in coeffs.items() if c}, const, root3, irrational,
        p * st._D * st._D, p * st._scales.den,
    )


def _matches_root3(form: Numerators, num, den, degree: int, d: int) -> bool:
    """Whether the constant of `form` is sqrt(3) num / (den D^degree).

    A closed form homogeneous of that degree in v, read at w = D v as
    sqrt(3) num / den, is D^degree times its value at v, so this compares
    form with it by cross-multiplication: no rational part, and
    root3 den D^degree = num const_den.  A NaN in num or den never matches.
    """
    return form.const == 0 and form.root3 * den * d ** degree == num * form.const_den


def _root3_detail(num, den, degree: int, d: int) -> dict:
    """The closed form of `_matches_root3`, sqrt(3) num / (den D^degree), as
    a failure's details give an irrational constant: {"a", "b"}.  A NaN in
    num or den is written as NaN."""
    scale = den * d ** degree
    return {"a": Fraction(0), "b": Fraction(num, scale) if num == num and scale == scale else nan}


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


def det_product_form(v: Sequence):
    """The factored determinant: 4(v2^2+v3^2)|v|^2(2v1^2+v2^2+v3^2)(4v1^2-3(v2^2+v3^2))."""
    q1 = v[0] * v[0]
    q2 = v[1] * v[1]
    q3 = v[2] * v[2]
    return 4 * (q2 + q3) * (q1 + q2 + q3) * (2 * q1 + q2 + q3) * (4 * q1 - 3 * (q2 + q3))


# ---------------------------------------------------------------------------
# verification checks


def frame_relation_check(seed: int = 0, trials: int = 120) -> CheckRecord:
    """h_ij^k cos(th_j - th_k) = (eps_ijk/(2 sqrt 3) - omega_ij^k) sin(th_j - th_k).

    Exact identity linking the cubic-form components and the connection
    components, for all i and all j != k, at random valid states.  It is
    compared on integers, times 6 D^3 Q E: 6 Q H C = -Omega S, with H the h
    numerator of the class of (i, j, k), Omega omega's rational numerator
    and (C, S, E) the state's integer triple of theta_j - theta_k: any
    common denominator E of the cosine and sine serves.  The sqrt(3) parts
    agree by the definition of omega's, sigma eps_ijk.
    """
    rng = random.Random(seed)
    failures = []
    for n in range(trials):
        st = random_frame_state(rng, require_ec=False)
        h = st._point.h
        om = st.omega_numerators
        six_q = 6 * st._angles.cotangents[0]
        for i, j, k in product(AXES, AXES, AXES):
            if j == k:
                continue
            c, s, _ = st._angles.diffs[(j, k)]
            if six_q * h[_H_CLASS[(i, j, k)]] * c + om[(i, j, k)] * s:
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


def _compare_derivatives(st) -> tuple[list, list, bool]:
    """The derivative comparison at one state, decided on numerators.

    Returns the state's own failures, as (reason, extra); per shared
    unknown, (label, var, failure, ratio), where ratio is the clearing
    ratio product / (difference * |v|^6 * (4v1^2 - 3(v2^2+v3^2))) as an
    integer pair (num, den), or None where the product vanishes; and
    whether a solution depends on D_11.

    The differences are cross-multiplied: a solution's coefficients are
    over P and its constant over P K (`SolveResult`), so the gap of the two
    constants is an integer pair over the product of their scales.  The
    products v1 v2 F1 and v1 v3 F2 are 3 / (A D^6) times integers on w and
    the angle numerators A sin 2(theta_a - theta_b)/3, and the norm is
    D^-8 times |w|^6 (4 w1^2 - 3 (w2^2 + w3^2)), so the ratio is
    3 prod e1 e2 D^2 / (A gap norm), with e1, e2 the constants' scales.
    """
    res1 = solve_triple_system(st, SET1_TRIPLES, SET1_UNKNOWNS, free_vars=SHARED_FREE)
    res2 = solve_triple_system(st, SET2_TRIPLES, SET2_UNKNOWNS, free_vars=SHARED_FREE)
    if res1.free or res2.free:
        return [("singular subsystem", {"free1": res1.free, "free2": res2.free})], [], False
    stray = [x for res in (res1, res2) for x in res.leftovers if not x.is_zero()]
    if stray:
        return [("nonzero leftover constraint", stray[0].detail())], [], False
    dependent = any(
        SHARED_FREE[0] in e.coeffs for res in (res1, res2) for e in res.solutions.values()
    )
    w1, w2, w3 = st._w
    b1, b2, b3, b4 = _quartic_brackets(st._w)
    a, thirds = st._angles.thirds
    t12, t13 = thirds[(1, 2)], thirds[(1, 3)]
    norm = (w1 * w1 + w2 * w2 + w3 * w3) ** 3 * st._point.ec
    pairs = []
    for label, var, prod in (
        ("K2", (1, 2), w1 * w2 * (b1 * t12 - b2 * t13)),
        ("K3", (1, 3), w1 * w3 * (b3 * t12 - b4 * t13)),
    ):
        s1, s2 = res1.solutions[var], res2.solutions[var]
        if any(
            s1.coeffs.get(u, 0) * s2.coeff_den != s2.coeffs.get(u, 0) * s1.coeff_den
            for u in {*s1.coeffs, *s2.coeffs}
        ):
            pairs.append((label, var, ("difference not gauge-free", {"var": var}), None))
            continue
        e1, e2 = s1.const_den, s2.const_den
        gap, gap_root3 = s1.const * e2 - s2.const * e1, s1.root3 * e2 - s2.root3 * e1
        gap_zero = not (gap or gap_root3)
        if gap_zero != (prod == 0):
            failure = ("vanishing mismatch", {"var": var, "gap_zero": gap_zero})
            pairs.append((label, var, failure, None))
        elif prod == 0:
            pairs.append((label, var, None, None))
        elif gap_root3:
            pairs.append((label, var, ("irrational clearing ratio", {"var": var}), None))
        else:
            ratio = (3 * prod * e1 * e2 * st._D ** 2, a * gap * norm)
            pairs.append((label, var, None, ratio))
    return [], pairs, dependent


def system1_check(seed: int = 0, trials: int = 100) -> CheckRecord:
    """Compare the two overlapping derivative solves and their compatibility.

    Both nine-row systems (triples (1,2,k) and (1,3,k)) are solved for the
    five derivatives each determines, keeping the shared unknown D_11 as a
    free symbol.  The differences of the shared solutions D_12 and D_13 are
    then honest scalars; each vanishes exactly when the corresponding product
    v1 v2 F1 (resp. v1 v3 F2) does, and the clearing factor
    product / (difference * |v|^6 * (4v1^2 - 3(v2^2+v3^2))) is a single
    rational constant, discovered at the first sample and reconfirmed at all
    others.  Every comparison is made on integer numerators
    (`_compare_derivatives`); the factor becomes a Fraction only for the
    report.
    """
    rng = random.Random(seed)
    failures = []
    snapshot: dict[str, tuple[int, int]] = {}
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

        def fail(reason, extra=None):
            failures.append({"state": st.describe(), "reason": reason, "extra": extra})

        failed, pairs, dependent = _compare_derivatives(st)
        for reason, extra in failed:
            fail(reason, extra)
        d11_dependent += dependent
        for label, var, failure, ratio in pairs:
            if failure:
                fail(*failure)
            elif ratio is None:
                continue
            elif label not in snapshot:
                snapshot[label] = ratio
            elif snapshot[label][0] * ratio[1] != ratio[0] * snapshot[label][1]:
                fail("clearing factor drift", {"var": var, "seen": str(Fraction(*ratio))})
    details = {
        "kinds": kinds,
        "clearing_factors": {
            k: f"({Fraction(*v)}) * |v|^6 * (4 v1^2 - 3 (v2^2 + v3^2))"
            for k, v in snapshot.items()
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


#: The v1 values of the axis case: four fix a cubic, the fifth probes it.
AXIS_NODES = (1, 2, 3, 4, 5)


def case1_leftover(w1: int) -> tuple[int, int]:
    """-v1^3/sqrt(3) = sqrt(3) (-v1^3)/3 at w1 = D v1, as (num, den): D^3
    times its value at v1."""
    return -w1 ** 3, 3


def _axis_case(st0, nodes: Sequence[_Point]) -> list:
    """The axis case at the angles of st0, decided on numerators: the
    failures, as (reason, extra), of its solves at the nodes, the points
    v = (x, 0, 0) for x in `AXIS_NODES`, stopping at the first that fails."""
    vanishing = frozenset({2, 3})
    for node in nodes:
        st = st0.at(node)
        x = node.w[0]
        res = solve_triple_system(st, [(1, 2, 1)], [(2, 1), (1, 1)], vanishing)
        if len(res.leftovers) != 1 or res.leftovers[0].coeffs:
            return [("unexpected elimination shape", None)]
        if not res.solutions[(2, 1)].is_zero():
            return [("D_21 not forced to zero", None)]
        (leftover,) = res.leftovers
        num, den = case1_leftover(x)
        if not _matches_root3(leftover, num, den, 3, st._D):
            reason = "leftover is not -v1^3/sqrt(3)"
            expected = _root3_detail(num, den, 3, st._D)
            return [(reason, {"v1": x, "leftover": leftover.const_detail(), "expected": expected})]
    return []


def case1_check(seed: int = 0, trials: int = 60) -> CheckRecord:
    """The case v2 = v3 = 0: the leftover constraint forces v1 = 0.

    Eliminating the derivative unknowns from the (E1,E2,E1) components leaves
    one constraint, a polynomial of degree at most 3 in v1.  It is compared
    with -v1^3/sqrt(3) exactly at v1 = 1, ..., 5: four nodes fix the cubic and
    the fifth probes it.  The only real root of -v1^3/sqrt(3) is v1 = 0.
    The five nodes' h and dh depend on v alone, so each call builds them
    once and the trials share them; the nodes of a trial share its scales.
    """
    rng = random.Random(seed)
    nodes = [_Point([x, 0, 0], 1) for x in AXIS_NODES]
    failures = []
    for n in range(trials):
        st0 = random_frame_state(rng, require_ec=False, zero=(2, 3))
        for reason, extra in _axis_case(st0, nodes):
            failures.append({"angles": {k: _circle(st0._angles.theta[k]) for k in (1, 2)},
                             "reason": reason, "extra": extra})
    return CheckRecord(
        check_id="axis-case",
        passed=not failures,
        samples=trials,
        details={"constraint": "(-1/sqrt(3)) v1^3 = 0",
                 "nodes": [str(x) for x in AXIS_NODES]},
        failures=failures[:5],
    )


def _case2_displays(w2: int, w3: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The displayed pair of conditions on x = E_1(v_3) for the case v1 = 0,
    at w = D v.

    Each is c + sqrt(3) s x, returned as (c, s): the first is
    v3 (3 v2^4 - v2^2 v3^2 + v3^4) + 15 sqrt(3) v2^3 v3 x and the second
    v2 (3 v2^4 - 3 v2^2 v3^2 + 4 v3^4) + 3 sqrt(3) (4 v2^4 - 7 v2^2 v3^2 - v3^4) x.
    c is homogeneous of degree 5 and s of degree 4, so at w they are D^5
    and D^4 times their values at v.
    """
    q2, q3 = w2 * w2, w3 * w3
    first = (w3 * (3 * q2 * q2 - q2 * q3 + q3 * q3), 15 * q2 * w2 * w3)
    second = (w2 * (3 * q2 * q2 - 3 * q2 * q3 + 4 * q3 * q3),
              3 * (4 * q2 * q2 - 7 * q2 * q3 - q3 * q3))
    return first, second


def case2_resultant(w2: int, w3: int) -> int:
    """Eliminant of the displayed pair, nonzero whenever v2 v3 != 0:
    -3 sqrt(3) v3 (v3^8 + 6 v2^2 v3^6 + 12 v2^4 v3^4 + 10 v2^6 v3^2 + 3 v2^8),
    as its sqrt(3) coefficient at w = D v, which is D^9 times that at v."""
    q2, q3 = w2 * w2, w3 * w3
    return -3 * w3 * (
        q3 ** 4 + 6 * q2 * q3 ** 3 + 12 * q2 ** 2 * q3 ** 2 + 10 * q2 ** 3 * q3 + 3 * q2 ** 4
    )


CASE2_UNKNOWNS = ((2, 3), (1, 2), (2, 2), (1, 3))
CASE2_FREE = (1, 3)


def _clears_to(st, row: Numerators, display: tuple[int, int], factor: int) -> bool:
    """Whether row * sqrt(3) (3 v2^2 + v3^2) is factor times the display.

    row, a substituted row, is a form in x = E_1(v_3) alone.  Multiplied
    out on integers: its constant (k + r sqrt(3)) / const_den times
    sqrt(3) (3 w2^2 + w3^2) / D^2 must be factor c / D^5, so k = 0 and
    3 r (3 w2^2 + w3^2) D^3 = factor c const_den, and its x coefficient
    a / coeff_den times the same must be factor sqrt(3) s / D^4.
    """
    _, w2, w3 = st._w
    clear, d = 3 * w2 * w2 + w3 * w3, st._D
    c, s = display
    a = row.coeffs.get(CASE2_FREE, 0)
    return (
        set(row.coeffs) <= {CASE2_FREE}
        and row.const == 0
        and 3 * row.root3 * clear * d ** 3 == factor * c * row.const_den
        and a * clear * d * d == factor * s * row.coeff_den
    )


def _null_axis_case(st) -> list:
    """The null-axis case at one state, decided on numerators: its
    failures, as (reason, extra)."""
    vanishing = frozenset({1})
    res = solve_triple_system(st, [(1, 2, 1)], CASE2_UNKNOWNS, vanishing)
    if res.free != [CASE2_FREE] or res.leftovers:
        return [("unexpected solve shape", {"free": res.free, "leftovers": len(res.leftovers)})]
    rows = [
        _substitute(st, codazzi_scalar(st, 1, 2, 2, l, vanishing), res.solutions)
        for l in AXES
    ]
    if not rows[0].is_zero():
        return [("first substituted row does not vanish", None)]
    first, second = _case2_displays(*st._w[1:])
    failed = [
        ("clearing factor mismatch", label)
        for row, display, factor, label in (
            (rows[1], first, 2, "first display"),
            (rows[2], second, -1, "second display"),
        )
        if not _clears_to(st, row, display, factor)
    ]
    if failed:
        return failed
    (c1, s1), (c2, s2) = first, second
    resultant = c1 * s2 - c2 * s1
    if resultant != case2_resultant(*st._w[1:]):
        return [("eliminant closed form mismatch", None)]
    if resultant == 0:
        return [("displayed pair unexpectedly compatible", None)]
    return []


def case2_check(seed: int = 0, trials: int = 60) -> CheckRecord:
    """The case v1 = 0: the two substituted conditions are incompatible.

    Solves the (E1,E2,E1) components for E2(v3), E1(v2), E2(v2) in terms of
    the free unknown x = E1(v3), substitutes into the (E1,E2,E2) components,
    and verifies each resulting row is the corresponding displayed condition
    times the clearing factor 2/(sqrt(3)(3 v2^2 + v3^2)) (second row: -1/2 of
    that).  Eliminating x from the displayed pair leaves a polynomial that
    cannot vanish while v2 v3 != 0, so the case forces v2 = v3 = 0.  The
    substitution, the displays and the eliminant are all on integer
    numerators (`_null_axis_case`).
    """
    rng = random.Random(seed)
    failures = []
    for n in range(trials):
        st = random_frame_state(rng, require_ec=True, zero=(1,), nonzero=(2, 3))
        for reason, extra in _null_axis_case(st):
            failures.append({"state": st.describe(), "reason": reason, "extra": extra})
    return CheckRecord(
        check_id="null-axis-case",
        passed=not failures,
        samples=trials,
        details={"clearing_factor": "2 / (sqrt(3) (3 v2^2 + v3^2))",
                 "second_row_scale": "-1/2"},
        failures=failures[:5],
    )


def case3_closed_forms(w1: int, w3: int) -> tuple[int, int, int]:
    """D23 and D21 of the case v2 = 0:
    v1 (6 v1^4 + 5 v1^2 v3^2 + 4 v3^4) / (3 sqrt(3) B) and
    -v3 (10 v1^4 + 8 v1^2 v3^2 + 3 v3^4) / (3 sqrt(3) B),
    with B = 8 v1^4 + 6 v1^2 v3^2 + 3 v3^4 and sqrt(3) moved to the numerator.
    Returned at w = D v as (n23, n21, den), with D23 = sqrt(3) n23 / den
    there; both are homogeneous of degree 1, so that is D times D23 at v."""
    q1, q3 = w1 * w1, w3 * w3
    nine_b = 9 * (8 * q1 * q1 + 6 * q1 * q3 + 3 * q3 * q3)
    d23 = w1 * (6 * q1 * q1 + 5 * q1 * q3 + 4 * q3 * q3)
    d21 = -w3 * (10 * q1 * q1 + 8 * q1 * q3 + 3 * q3 * q3)
    return d23, d21, nine_b


def case3_leftover(w1: int, w3: int) -> tuple[int, int]:
    """The forcing leftover of the case v2 = 0:
    -2 sqrt(3) v3 (v1^2 + v3^2)^3 / (3 (8 v1^4 + 6 v1^2 v3^2 + 3 v3^4)),
    at w = D v as (num, den), with the leftover sqrt(3) num / den there:
    D^3 times its value at v, as it is homogeneous of degree 3."""
    q1, q3 = w1 * w1, w3 * w3
    return -2 * w3 * (q1 + q3) ** 3, 3 * (8 * q1 * q1 + 6 * q1 * q3 + 3 * q3 * q3)


CASE3_UNKNOWNS = ((1, 1), (1, 3), (2, 1), (2, 3))


def _v2_zero_case(st) -> list:
    """The case v2 = 0 at one state, decided on numerators: its failures,
    as (reason, extra)."""
    res = solve_triple_system(st, [(1, 2, 1), (1, 2, 2)], CASE3_UNKNOWNS, frozenset({2}))
    if res.free or any(e.coeffs for e in res.solutions.values()):
        return [("derivatives not pinned", res.free)]
    w1, _, w3 = st._w
    d = st._D
    n23, n21, den = case3_closed_forms(w1, w3)
    d23, d21 = res.solutions[(2, 3)], res.solutions[(2, 1)]
    if not (_matches_root3(d23, n23, den, 1, d) and _matches_root3(d21, n21, den, 1, d)):
        expected = {"D23": _root3_detail(n23, den, 1, d), "D21": _root3_detail(n21, den, 1, d)}
        return [("closed form mismatch",
                 {"D23": d23.const_detail(), "D21": d21.const_detail(), "expected": expected})]
    num, den = case3_leftover(w1, w3)
    left = res.leftovers
    if any(x.coeffs for x in left) or len(left) != 2 or not (
        (left[0].is_zero() and _matches_root3(left[1], num, den, 3, d))
        or (_matches_root3(left[0], num, den, 3, d) and left[1].is_zero())
    ):
        consts = [x.const_detail() for x in left]
        expected = _root3_detail(num, den, 3, d)
        return [("leftovers are not 0 and the forcing leftover",
                 {"leftovers": consts, "expected": expected})]
    return []


def case3_check(seed: int = 0, trials: int = 60) -> CheckRecord:
    """The case v2 = 0: the rows alone force v3 = 0, for every angle.

    At exact states with v2 = 0, v1 v3 != 0 and free rational angles, the
    six components of the triples (E1,E2,E1) and (E1,E2,E2) are solved for
    D11, D13, D21 and D23.  All four must be pinned, D23 and D21 must equal
    their closed forms (`case3_closed_forms`), and of the two leftover rows
    one must vanish identically and the other be the constant
    `case3_leftover`.  That constant is free of the angles and vanishes only
    at v3 = 0, since v1^2 + v3^2 and 8 v1^4 + 6 v1^2 v3^2 + 3 v3^4 are
    positive.  The angle constraint (v1^2 + v3^2) sin 2(theta1 - theta2) =
    v1^2 sin 2(theta1 - theta3), which is F2 = 0 at v2 = 0, is therefore not
    needed.  Every comparison is made on integer numerators
    (`_v2_zero_case`).  A drawn state outside the case is counted in
    `skipped`, and the check fails when no state is checked, so a pass never
    rests on none.
    """
    rng = random.Random(seed)
    failures = []
    skipped = checked = 0
    for n in range(trials):
        st = random_frame_state(rng, zero=(2,), nonzero=(1, 3))
        w1, w2, w3 = st._w
        if w2 != 0 or w1 == 0 or w3 == 0:
            skipped += 1
            continue
        failed = _v2_zero_case(st)
        for reason, extra in failed:
            failures.append({"state": st.describe(), "reason": reason, "extra": extra})
        checked += not failed
    if not checked:
        failures.append({"reason": "no state was checked"})
    return CheckRecord(
        check_id="constrained-angle-case",
        passed=not failures,
        samples=trials,
        skipped=skipped,
        details={
            "closed_forms": {
                "D23": "v1 (6 v1^4 + 5 v1^2 v3^2 + 4 v3^4) / (3 sqrt(3) B)",
                "D21": "-v3 (10 v1^4 + 8 v1^2 v3^2 + 3 v3^4) / (3 sqrt(3) B)",
                "B": "8 v1^4 + 6 v1^2 v3^2 + 3 v3^4",
            },
            "leftovers": ["0", "-2 sqrt(3) v3 (v1^2 + v3^2)^3 / (3 B)"],
            "forces": "v3 = 0",
            "angle_constraint": "F2 = 0 at v2 = 0; not needed",
        },
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
        if st._w[1] == 0 == st._w[2]:
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
