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
`hijk_gradient` on w, at scales D^3 and D^2, once per symmetry class, as
tuples of 10 and 30 entries (`_H_CLASS` and `_DH_CLASS` map every key to
its class's position; omega's 27 entries are in the order of
`_OMEGA_KEYS`), and the gate 4 v1^2 - 3(v2^2 + v3^2) over D^2.  Both closed
forms are their cubics and quadratics in w written out, with only +, - and
*, so they hold on any commutative ring.  The angles (`_Angles`) hold
each angle as a triple (C, S, E) with cosine C/E and sine S/E, the three
distinct cotangents over one common denominator Q (cot(b, a) =
-cot(a, b)), and per D the scales the states there share; the triples of
the differences, the cotangents and the angle terms are written out for
the three pairs a < b, with no loop.  Only omega
reads both: it is (6 D^3 Q)^-1 times an integer plus a sqrt(3) part that
comes only from 1/(2 sqrt 3), so it is sigma eps_ijk for one integer sigma.
The same holds for the two connection factors the Codazzi scalars read:
the shifted connection omega_im^l - eps_iml/sqrt(3) has omega's rational
part and the sqrt(3) part -sigma eps_iml, since 1/sqrt(3) is 2 sigma at
omega's scale, and the curl omega_ij^m - omega_ji^m has the sqrt(3) part
2 sigma eps_ijm.  So sqrt(3) is a column of its own: no table entry is
anything but an int.  Each table is computed once, when first read, and
stored on its point, angles or state (`_lazy`); the axis case builds its
five nodes' points once per call, and the nodes of a trial share its
angles' tables.

Each Codazzi scalar (i, j, k, l) has a plan compiled once, when it is
first needed: its dh positions, and its h-omega products grouped by h
class, each group holding the omega keys of its rational part and the
integer weight of sigma in its sqrt(3) part.  A row's D-coefficients are
the integer dh numerators, at scale D^2, and its constant, a sum of
h-omega products plus the angle term, is one integer rational part and
one integer sqrt(3) part at L = lcm(6 D^6 Q, A), with A the common
denominator of the three sin 2(theta_a - theta_b)/3, so a row is a list
of ints.  A solve's shape, per (triples, vanishing), is its
scalars and the sorted columns of the unknowns they read.  The source of
its rows is generated from the plans, with no loop, no lookup by key and
no test, reading h, dh and omega by position, and a shape's row kernel
is that source as one function that returns the dense integer matrix.

The exact solver eliminates that matrix fraction-free (Bareiss), with the
constant as two integer columns: each update is divided exactly by the
previous pivot, and every pivot is an integer minor of the small
coefficients.  Pivots are the first rows with a nonzero coefficient, so
the pivot order, rank and free variables are those of value-form
elimination.  Each solve key, the shape with the unknowns it pivots, the
solutions its caller reads and the zero pattern of w, has a solver: one
straight-line function that builds the rows on local variables,
eliminates them on a pivot schedule fixed when it is compiled, the
general routine's at one fixed state with that zero pattern, and
back-substitutes.  An entry that is 0 in the row source enters no
update.  At each step the solver checks that the general routine would
take its scheduled pivot; a state on a pivot locus fails a check and is
solved by that routine, `eliminate_fraction_free`, with the same result.
A schedule, per pivot its unknown and the scalar of its row, lists the
pivot hypotheses of the solve.  Row kernels and solvers are compiled
when a solve first needs them, never at import.  The solve hands out the
numerators (`Numerators`): with P the last pivot, a solution's
coefficients are over P and its constant over P L / D^2, the constant's
own scale against the coefficients'; a leftover's coefficients are over
P D^2 and its constant over P L.

The checks decide on these numerators.  A leftover is tested for zero on
its integers.  A closed form homogeneous of degree k in v is evaluated on
w = D v, where it is D^k times its value at v, and compared with a
numerator by cross-multiplication; so are the two solutions the derivative
comparison subtracts, and the null-axis rows with the (E1,E2,E1) solutions
substituted, which are the leftovers of one solve of both triples.  A
failure's details are built from the integers: each number a Fraction, an
angle its cosine and sine as {"c", "s"}, and a constant whose sqrt(3)
numerator is nonzero its rational and sqrt(3) parts as {"a", "b"}; a failed
comparison with a closed form gives that form as "expected".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm, nan
from typing import Iterable, NamedTuple, Sequence

from .exact import divide_exactly, poly_identity_check
from .report import CheckRecord, failure_record

AXES = (1, 2, 3)


def epsilon(i: int, j: int, k: int) -> int:
    """Totally antisymmetric symbol on {1,2,3}."""
    return (i - j) * (j - k) * (k - i) // 2


def delta(i: int, j: int) -> int:
    return 1 if i == j else 0


DVar = tuple[int, int]  # (i, m) stands for the derivative E_i(v_m)


# ---------------------------------------------------------------------------
# states


class _lazy:
    """A method read as an attribute: computed on the first read and stored
    in the instance's __dict__, where every later read finds it before this
    descriptor.  It is functools.cached_property without the lock that one
    takes on every first read (Python 3.11): threads that race on a first
    read each compute the same value, and whichever store lands serves."""

    def __init__(self, func) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _Scales(NamedTuple):
    """The scales of the states at one set of angles and one D.

    omega is at 6 D^3 Q, where sigma = D^3 Q is the sqrt(3) coefficient of
    1/(2 sqrt 3); 1/sqrt(3) is 2 sigma there, so every sqrt(3) part in the
    rows is an integer times sigma.  A row's constant is at den = L,
    coeff_mult = L / D^2 times its coefficients' scale; const_mult takes a
    sum of h-omega products, at 6 D^6 Q, to L, and angle[(a, b)] is
    sin 2(theta_a - theta_b)/3 at L.
    """

    sigma: int
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
    three with a < b are written out on the triples, a reverse pair is
    (C, -S, E) and the diagonal (1, 0, 1).  Construction rejects angles
    where some sin(theta_a - theta_b) vanishes, since the connection
    components divide by those factors.  The cotangents and the angle terms
    reduce the three pairs a < b on integers, one gcd each and one lcm, with
    no loop; they are computed once, when first read (`_lazy`), and the
    scales once per denominator D.  `FrameState.at` hands these angles to
    every state it builds, so those states share all three.
    """

    def __init__(self, theta1: tuple, theta2: tuple) -> None:
        (c1, s1, e1), (c2, s2, e2) = theta1, theta2
        # theta3 is the conjugate of the sum of theta1 and theta2
        c3, s3, e3 = c1 * c2 - s1 * s2, -(s1 * c2 + c1 * s2), e1 * e2
        self.theta = {1: theta1, 2: theta2, 3: (c3, s3, e3)}
        s12, s13, s23 = s1 * c2 - c1 * s2, s1 * c3 - c1 * s3, s2 * c3 - c2 * s3
        if not (s12 and s13 and s23):
            raise ValueError("state rejected: some sin(theta_a - theta_b) vanishes")
        c12, c13, c23 = c1 * c2 + s1 * s2, c1 * c3 + s1 * s3, c2 * c3 + s2 * s3
        e12, e13, e23 = e1 * e2, e1 * e3, e2 * e3
        self.diffs: dict[tuple[int, int], tuple[int, int, int]] = {
            (1, 1): (1, 0, 1), (2, 2): (1, 0, 1), (3, 3): (1, 0, 1),
            (1, 2): (c12, s12, e12), (2, 1): (c12, -s12, e12),
            (1, 3): (c13, s13, e13), (3, 1): (c13, -s13, e13),
            (2, 3): (c23, s23, e23), (3, 2): (c23, -s23, e23),
        }
        self._by_d: dict[int, _Scales] = {}

    @_lazy
    def cotangents(self) -> tuple[int, dict]:
        """Q and the numerators 6 Q cot(a, b) for a != b, from the three
        cotangents C/S of the canonical pairs, each in lowest terms and then
        over their least common denominator Q, which is positive."""
        d = self.diffs
        (c12, s12, _), (c13, s13, _), (c23, s23, _) = d[(1, 2)], d[(1, 3)], d[(2, 3)]
        g12, g13, g23 = gcd(c12, s12), gcd(c13, s13), gcd(c23, s23)
        s12, s13, s23 = s12 // g12, s13 // g13, s23 // g23
        q = lcm(s12, s13, s23)
        k12 = 6 * (c12 // g12) * (q // s12)
        k13 = 6 * (c13 // g13) * (q // s13)
        k23 = 6 * (c23 // g23) * (q // s23)
        return q, {(1, 2): k12, (2, 1): -k12, (1, 3): k13, (3, 1): -k13,
                   (2, 3): k23, (3, 2): -k23}

    @_lazy
    def thirds(self) -> tuple[int, dict]:
        """A and the numerators A sin 2(theta_a - theta_b)/3 for all (a, b),
        from 2 S C / (3 E^2) on the canonical pairs, each in lowest terms and
        then over their least common denominator A; the diagonal is zero and
        a reverse pair the negated numerator."""
        d = self.diffs
        (c12, s12, e12), (c13, s13, e13), (c23, s23, e23) = d[(1, 2)], d[(1, 3)], d[(2, 3)]
        n12, n13, n23 = 2 * s12 * c12, 2 * s13 * c13, 2 * s23 * c23
        d12, d13, d23 = 3 * e12 * e12, 3 * e13 * e13, 3 * e23 * e23
        g12, g13, g23 = gcd(n12, d12), gcd(n13, d13), gcd(n23, d23)
        d12, d13, d23 = d12 // g12, d13 // g13, d23 // g23
        a = lcm(d12, d13, d23)
        t12 = (n12 // g12) * (a // d12)
        t13 = (n13 // g13) * (a // d13)
        t23 = (n23 // g23) * (a // d23)
        return a, {(1, 1): 0, (2, 2): 0, (3, 3): 0, (1, 2): t12, (2, 1): -t12,
                   (1, 3): t13, (3, 1): -t13, (2, 3): t23, (3, 2): -t23}

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
            self._by_d[d] = _Scales(d3q, den, den // d ** 2, den // const_den, angle)
        return self._by_d[d]


class _Point:
    """The tables of one v = w / D, which no angle enters, shared by the
    states at v: h and dh, from the written-out polynomials of
    `hijk_from_v` and `hijk_gradient` on w, each computed when first read,
    ec = 4 w1^2 - 3 (w2^2 + w3^2), D^2 times the gate at v, and the zero
    pattern of w, which is part of a solver's key (`_compile_solver`)."""

    def __init__(self, w: list[int], d: int) -> None:
        self.w, self.d = w, d
        w1, w2, w3 = w
        self.ec = 4 * w1 * w1 - 3 * (w2 * w2 + w3 * w3)
        self.zeros = (w1 == 0, w2 == 0, w3 == 0)

    @_lazy
    def h(self) -> tuple:
        """h at scale D^3: the entry at _H_CLASS[(i, j, k)] is D^3 h_ij^k."""
        return hijk_from_v(self.w)

    @_lazy
    def dh(self) -> tuple:
        """dh at scale D^2: the entry at _DH_CLASS[(j, k, l, m)] is
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

    @_lazy
    def omega_numerators(self) -> tuple:
        """omega's rational part at its scale, in the order of `_OMEGA_KEYS`:
        the entry of (i, j, k) is 6 D^3 Q omega_ij^k less its sqrt(3) part,
        sigma eps_ijk."""
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
    """A small random rational as (numerator, denominator), not reduced:
    (rng.randint(-9, 9), rng.randint(1, 9)), drawn as CPython's
    `Random._randbelow_with_getrandbits` draws them, which randint calls:
    k = n.bit_length() random bits, redrawn while r >= n, for n = 19 and
    n = 9.  So the stream, and the generator's state after it, are those of
    the two randint calls, in one call frame in place of three each."""
    bits = rng.getrandbits
    a = bits(5)
    while a >= 19:
        a = bits(5)
    b = bits(4)
    while b >= 9:
        b = bits(4)
    return a - 9, b + 1


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
    (q^2 - p^2, 2pq, q^2 + p^2) of `rat_circle_point`, unreduced.  Every
    ratio comes from `_draw_ratio`, whose stream is that of
    (rng.randint(-9, 9), rng.randint(1, 9)), so the states and the
    generator's state after them are those of randint draws.
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


#: The symmetry classes of h in table order, the sorted indices ascending,
#: and each key of h at its class's position; likewise for dh, which is
#: symmetric in its first three slots, with m the fastest index.
_H_CLASSES = tuple(combinations_with_replacement(AXES, 3))
_H_CLASS = {key: _H_CLASSES.index(tuple(sorted(key))) for key in product(AXES, AXES, AXES)}
_DH_CLASS = {
    (j, k, l, m): 3 * _H_CLASS[(j, k, l)] + m - 1
    for j, k, l, m in product(AXES, AXES, AXES, AXES)
}


def hijk_from_v(v: Sequence) -> tuple:
    """Second fundamental form components from the vector field components.

    h_ij^k = |v|^2 (v_i d_jk + v_j d_ki + v_k d_ij) - 5 v_i v_j v_k.
    Fully symmetric and trace-free in every slot, so the table holds the 10
    symmetry classes, in the order of `_H_CLASSES`; `_H_CLASS` maps any key
    to its class's position.  Each class is its cubic written out, with
    q_m = v_m^2: 111 is v1 (3 q2 + 3 q3 - 2 q1), 112 is v2 (q2 + q3 - 4 q1),
    123 is -5 v1 v2 v3, and the others follow by permuting the axes.  It
    uses only +, - and * of the entries and integer constants, so it holds
    on any commutative ring that has them, a polynomial ring among them.
    """
    v1, v2, v3 = v
    q1, q2, q3 = v1 * v1, v2 * v2, v3 * v3
    return (
        v1 * (3 * q2 + 3 * q3 - 2 * q1),
        v2 * (q2 + q3 - 4 * q1),
        v3 * (q2 + q3 - 4 * q1),
        v1 * (q1 + q3 - 4 * q2),
        -5 * v1 * v2 * v3,
        v1 * (q1 + q2 - 4 * q3),
        v2 * (3 * q1 + 3 * q3 - 2 * q2),
        v3 * (q1 + q3 - 4 * q2),
        v2 * (q1 + q2 - 4 * q3),
        v3 * (3 * q1 + 3 * q2 - 2 * q3),
    )


def hijk_gradient(v: Sequence) -> tuple:
    """Partial derivatives d h_jk^l / d v_m, j <= k <= l.

    d h_jk^l / d v_m = 2 v_m (v_j d_kl + v_k d_lj + v_l d_jk)
        + |v|^2 (d_jm d_kl + d_km d_lj + d_lm d_jk)
        - 5 (d_jm v_k v_l + v_j d_km v_l + v_j v_k d_lm),
    held for the 30 entries with j <= k <= l, the classes of the
    permutations of (j, k, l), each class of h followed by m = 1, 2, 3;
    `_DH_CLASS` maps any key (j, k, l, m) to its entry's position.  Each
    entry is the derivative of its class's cubic in `hijk_from_v`, a
    quadratic written out with q_m = v_m^2 and p_ab = v_a v_b: 111 gives
    (3 q2 + 3 q3 - 6 q1, 6 p12, 6 p13), 112 gives
    (-8 p12, 3 q2 + q3 - 4 q1, 2 p23) and 123 gives (-5 p23, -5 p13, -5 p12).
    Like `hijk_from_v` it uses only +, - and *.
    """
    v1, v2, v3 = v
    q1, q2, q3 = v1 * v1, v2 * v2, v3 * v3
    p12, p13, p23 = v1 * v2, v1 * v3, v2 * v3
    return (
        3 * q2 + 3 * q3 - 6 * q1, 6 * p12, 6 * p13,
        -8 * p12, 3 * q2 + q3 - 4 * q1, 2 * p23,
        -8 * p13, 2 * p23, q2 + 3 * q3 - 4 * q1,
        3 * q1 + q3 - 4 * q2, -8 * p12, 2 * p13,
        -5 * p23, -5 * p13, -5 * p12,
        3 * q1 + q2 - 4 * q3, 2 * p12, -8 * p13,
        6 * p12, 3 * q1 + 3 * q3 - 6 * q2, 6 * p23,
        2 * p13, -8 * p23, q1 + 3 * q3 - 4 * q2,
        2 * p12, q1 + 3 * q2 - 4 * q3, -8 * p23,
        6 * p13, 6 * p23, 3 * q1 + 3 * q2 - 6 * q3,
    )


#: The keys of omega in the order of its table.
_OMEGA_KEYS = tuple(product(AXES, AXES, AXES))


def omega_numerators(st) -> tuple:
    """Rational parts of the connection components omega_ij^k of the
    induced metric, at the state's scale (see `FrameState`), in the order
    of `_OMEGA_KEYS`.

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
    return (
        0, d12, d13, -d12, 0, e1, -d13, -e1, 0,
        0, -d21, -e2, d21, 0, d23, e2, -d23, 0,
        0, e3, -d31, -e3, 0, -d32, d31, d32, 0,
    )


# ---------------------------------------------------------------------------
# Codazzi components


class _Group(NamedTuple):
    """The h-omega products of one Codazzi scalar that share an h class.

    Their connection factors sum to the sum of c omega_key over `terms`, on
    omega's rational numerators, plus sqrt(3) times by_sigma sigma (see
    `_Scales`).
    """

    h_class: tuple[int, int, int]
    terms: tuple[tuple[int, tuple[int, int, int]], ...]
    by_sigma: int


class _Plan(NamedTuple):
    """What the Codazzi scalar (i, j, k, l) reads, compiled once.

    dh lists (unknown, dh position, sign) per D-coefficient term, in formula
    order; groups are its h-omega products by h class; angle is the integer
    factor of sin 2(theta_i - theta_j)/3.
    """

    dh: tuple[tuple[DVar, int, int], ...]
    groups: tuple[_Group, ...]
    angle: int


def _compile_plan(i: int, j: int, k: int, l: int) -> _Plan:
    """The plan of the scalar (i, j, k, l), from the Codazzi formula.

    The constant's products are, for m = 1, 2, 3,
        h_jk^m S_im^l - h_ik^m S_jm^l - C_ij^m h_mk^l
        - omega_ik^m h_jm^l + omega_jk^m h_im^l,
    with S the shifted connection omega - eps/sqrt(3), whose sqrt(3) part
    is -sigma eps, as 1/sqrt(3) is 2 sigma, and C the curl
    omega_ij^m - omega_ji^m, whose sqrt(3) part is 2 sigma eps_ijm; omega's
    own is sigma eps.  The rational parts are omega's; omega_ij^j = 0 adds
    nothing, and terms of one group at one omega key are summed, as are
    its sigma weights.  A group whose sums are all zero adds nothing and is
    left out.
    """
    dh = []
    for m in AXES:
        dh.append(((i, m), _DH_CLASS[(j, k, l, m)], 1))
        dh.append(((j, m), _DH_CLASS[(i, k, l, m)], -1))
    terms: dict = {}  # h class -> {omega key: coefficient}
    root3: dict = {}  # h class -> weight of sigma
    for m in AXES:
        for sign, h_key, omega, weight, eps in (
            (1, (j, k, m), ((1, (i, m, l)),), -1, epsilon(i, m, l)),
            (-1, (i, k, m), ((1, (j, m, l)),), -1, epsilon(j, m, l)),
            (-1, (m, k, l), ((1, (i, j, m)), (-1, (j, i, m))), 2, epsilon(i, j, m)),
            (-1, (j, m, l), ((1, (i, k, m)),), 1, epsilon(i, k, m)),
            (1, (i, m, l), ((1, (j, k, m)),), 1, epsilon(j, k, m)),
        ):
            h_class = tuple(sorted(h_key))
            group = terms.setdefault(h_class, {})
            for c, key in omega:
                if key[1] != key[2]:
                    group[key] = group.get(key, 0) + sign * c
            root3[h_class] = root3.get(h_class, 0) + sign * weight * eps
    return _Plan(
        tuple(dh),
        tuple(
            _Group(h_class, tuple((c, key) for key, c in group.items() if c), root3[h_class])
            for h_class, group in terms.items()
            if root3[h_class] or any(group.values())
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


def _linear(terms: Iterable[tuple[int, str]]) -> str:
    """The source of the sum of c x over (c, x), x an expression of a
    kernel's source: "0" where every c is zero."""
    out = "".join(
        " %s %s%s" % ("-" if c < 0 else "+", "" if abs(c) == 1 else "%d * " % abs(c), x)
        for c, x in terms if c
    )
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


def _row_entries(triples: tuple, vanishing: frozenset[int]) -> list[list[str]]:
    """The source of each entry of a shape's integer matrix, row by row: an
    expression in a state's tables, read by position, or "0" where the entry
    is zero at every state.  It uses only +, - and *.

    It is generated from the scalars' plans, and reads as they do.  A row's
    entry in a column is the signed sum of its dh numerators there, at scale
    D^2; for i == j both terms of an m land on one unknown and are summed,
    and an unknown not in the shape's columns is dropped.  Its constant's
    rational part sums, over the groups, the h numerator hN times the
    group's omega numerators om[n], at D^3 times omega's scale, which cm =
    const_mult takes to L, less the angle term ang[i, j] at L; its sqrt(3)
    part is the sum of the h numerators times the groups' sigma weights,
    times r3 = sigma const_mult (`_Scales`).  Only the plans' integers and
    table positions enter the source, each formatted as an integer; the
    names are those `_KERNEL_HEAD` binds.
    """
    keys, _, col = _SHAPES[(triples, vanishing)]
    rows = []
    for key in keys:
        plan = _PLANS[key]
        by_column: list[dict[int, int]] = [{} for _ in col]
        for var, pos, sign in plan.dh:
            if var in col:
                terms = by_column[col[var]]
                terms[pos] = terms.get(pos, 0) + sign
        entries = [_linear((c, "dh[%d]" % pos) for pos, c in t.items()) for t in by_column]
        products, by_sigma = [], []
        for g in plan.groups:
            x = "h%d" % _H_CLASS[g.h_class]
            factor = _linear((c, "om[%d]" % _OMEGA_KEYS.index(om_key)) for c, om_key in g.terms)
            if factor != "0":
                products.append((1, "%s * (%s)" % (x, factor)))
            by_sigma.append((g.by_sigma, x))
        const = [(1, "(%s) * cm" % _linear(products))] if products else []
        const.append((-plan.angle, "ang[%d, %d]" % key[:2]))
        root3 = _linear(by_sigma)
        rows.append(entries + [_linear(const), "(%s) * r3" % root3 if root3 != "0" else "0"])
    return rows


#: The lines that bind the names `_row_entries` reads, from h, dh, om and
#: scale: the ten h numerators and the scales of the constant's columns.
_KERNEL_HEAD = (
    "    %s = h\n"
    "    cm, ang = scale.const_mult, scale.angle\n"
    "    r3 = scale.sigma * cm\n"
) % ", ".join("h%d" % n for n in range(len(_H_CLASSES)))


def _compile_kernel(triples: tuple, vanishing: frozenset[int]):
    """The row builder of a shape: one straight-line function
    rows(h, dh, om, scale) of a state's tables, with no loop, no lookup by
    key and no test, that returns the shape's integer matrix, each entry
    as `_row_entries` writes it."""
    rows = "".join(
        "        [%s],\n" % ", ".join(row) for row in _row_entries(triples, vanishing)
    )
    source = "def rows(h, dh, om, scale):\n%s    return [\n%s    ]\n" % (_KERNEL_HEAD, rows)
    namespace: dict = {"__builtins__": {}}
    exec(compile(source, "<codazzi kernel>", "exec"), namespace)
    return namespace["rows"]


#: The plans by (i, j, k, l), and the shapes and their row kernels by
#: (triples, vanishing); nothing is compiled until a check first reads it.
_PLANS = _Compiled(_compile_plan)
_SHAPES = _Compiled(_compile_shape)
_KERNELS = _Compiled(_compile_kernel)


def _codazzi_rows(st, shape: tuple) -> list[list[int]]:
    """The rows of the shape (triples, vanishing) at the state, as integers,
    built by the shape's kernel (`_compile_kernel`)."""
    point = st._point
    return _KERNELS[shape](point.h, point.dh, st.omega_numerators, st._scales)


class CodazziRow(NamedTuple):
    """A Codazzi scalar as integer numerators.

    coeffs maps each unknown D_am to its coefficient, at scale D^2, and the
    constant is const + root3 sqrt(3), at the state's row scale L.
    """

    coeffs: dict[DVar, int]
    const: int
    root3: int


def codazzi_scalar(
    st, i: int, j: int, k: int, l: int, vanishing: frozenset[int] = frozenset()
) -> CodazziRow:
    """JE_l-component of the antisymmetrized Codazzi equation on (E_i,E_j,E_k).

    Returns the scalar that must vanish, affine in the unknowns D_am, as a
    `CodazziRow`: row l of the triple's shape, built by that shape's kernel
    (`_codazzi_rows`), in its columns.  An unknown is held where one of its
    dh numerators is nonzero.  The `vanishing` set lists components v_m
    assumed identically zero, whose derivatives D_am are then dropped as
    well.  No check reads a row alone, since every solve builds its rows in
    its solver (`_compile_solver`): it serves the tests, which compare it
    with other row builders, and the benchmark's tracer, which counts its
    calls.
    """
    shape = (((i, j, k),), vanishing)
    _, _, col = _SHAPES[shape]
    row = _codazzi_rows(st, shape)[l - 1]
    dh, plan = st._point.dh, _PLANS[(i, j, k, l)]
    coeffs = {var: row[col[var]] for var, pos, _ in plan.dh if var in col and dh[pos]}
    return CodazziRow(coeffs, row[-2], row[-1])


# ---------------------------------------------------------------------------
# linear solving


class Numerators(NamedTuple):
    """An affine form in the unknowns D_am as integer numerators.

    Its coefficient of D_am is coeffs[(a, m)] / coeff_den, with only nonzero
    numerators held, and its constant is (const + root3 sqrt(3)) / const_den.
    """

    coeffs: dict[DVar, int]
    const: int
    root3: int
    coeff_den: int
    const_den: int

    def is_zero(self) -> bool:
        """Whether every numerator is zero, so the form is."""
        return not (self.const or self.root3 or self.coeffs)

    def const_detail(self):
        """The constant as a failure's details give it: a Fraction, or where
        its sqrt(3) numerator is nonzero its rational and sqrt(3) parts as
        {"a", "b"}, each numerator divided once.  So a sqrt(3) part is never
        dropped, and one that cancels is not written."""
        if self.root3:
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

    solutions: the designated unknowns a pivot determines and the caller
    reads, as affine forms in the columns never pivoted (constants when the
    system determines them fully).
    leftovers: the rows no pivot consumed, with every solution substituted;
    these are the compatibility constraints of the system.
    free: the designated unknowns no pivot determines.
    Each form is a `Numerators`: with P the last pivot and K = L / D^2, a
    solution is over P (coefficients) and P K (constant), and a leftover
    over P D^2 and P L.
    """

    solutions: dict[DVar, Numerators]
    leftovers: list[Numerators]
    free: list[DVar]


def solve_triple_system(
    st,
    triples: Sequence[tuple[int, int, int]],
    unknowns: Sequence[DVar],
    vanishing: frozenset[int] = frozenset(),
    read: Sequence[DVar] | None = None,
) -> SolveResult:
    """Exact Gaussian elimination on the rows of the given Codazzi triples.

    Rows are the JE_l-components (l = 1,2,3) of each triple, in order.  Only
    the columns of `unknowns` are pivoted, in that order, each on the first
    row left with a nonzero entry there; every other column of the shape
    survives as a symbol in the solutions and leftovers, which makes
    solution families comparable across subsystems sharing such an unknown.
    So where the rows of the first triples have full rank in the unknowns,
    every pivot is one of them, and the leftovers are the later triples'
    rows with the solutions substituted.  Only the solutions of the
    unknowns in `read` are built, of every designated unknown when it is
    None.

    The rows are the shape's integer matrix in its columns, each scalar
    times D^2 and its constant's two columns times K = L / D^2 more; a
    column that is zero at the state is never pivoted and holds no
    numerator.  They are eliminated fraction-free (Bareiss) and handed out
    as their numerators: with P the last pivot, a solution's coefficients
    are over P and its constant over P K, as scaling the constant's columns
    scales it by 1/K, and a leftover, its row's residual times D^2, is over
    P D^2 and P L.  The constant's sqrt(3) part is eliminated as a column
    like any other.

    The solve runs the solver compiled for its key, the shape, the
    unknowns, `read` and the zero pattern of w (`_compile_solver`): rows,
    elimination on the pivot schedule fixed for that key, back
    substitution and read-out in one straight-line function.  A state that
    breaks the schedule, a pivot locus, is solved by the general path
    instead (`_solve_rows`), and both give the same result.
    """
    point = st._point
    if not point.ec:
        raise ValueError("solve requires 4 v1^2 - 3 (v2^2 + v3^2) != 0")
    key = (tuple(triples), vanishing, tuple(unknowns),
           None if read is None else tuple(read), point.zeros)
    res = _SOLVERS[key](st)
    return _solve_rows(st, *key[:4]) if res is None else res


def _solve_rows(st, triples: tuple, vanishing: frozenset[int], unknowns: tuple,
                read: tuple | None) -> SolveResult:
    """The general path of `solve_triple_system`: the shape's matrix, built
    by its kernel (`_codazzi_rows`), eliminated by `eliminate_fraction_free`
    and read into `Numerators`."""
    shape = (triples, vanishing)
    _, columns, col = _SHAPES[shape]
    out = eliminate_fraction_free(_codazzi_rows(st, shape), [col[v] for v in unknowns if v in col])
    free = [columns[c] for c in out.free[:-2]]

    def form(nums, coeff_den, const_den) -> Numerators:
        *coeffs, const, root3 = nums
        return Numerators(
            {v: c for v, c in zip(free, coeffs) if c}, const, root3, coeff_den, const_den
        )

    p, scale = out.last, st._scales
    solved = {columns[j]: nums for j, nums in out.solved.items()}
    return SolveResult(
        solutions={
            u: form(solved[u], p, p * scale.coeff_mult)
            for u in unknowns if u in solved and (read is None or u in read)
        },
        leftovers=[form(r, p * st._D * st._D, p * scale.den) for r in out.leftovers],
        free=[u for u in unknowns if u not in solved],
    )


#: The state whose pivots fix each solver's schedule (`_compile_solver`):
#: w = (7, 11, 13) with the components of the key's zero pattern set to 0,
#: D = 1, and the angles of the half-angle points t = 3/11 and 5/17.
_SCHEDULE_W = (7, 11, 13)
_SCHEDULE_ANGLES = ((112, 66, 130), (264, 170, 314))


def _inexact(d: int):
    """Raise for a division by d that leaves a remainder: a solver never
    truncates a quotient."""
    raise ArithmeticError(f"{d} does not divide an update")


def _compile_solver(triples: tuple, vanishing: frozenset[int], unknowns: tuple,
                    read: tuple | None, zeros: tuple):
    """The solver of one key: a straight-line function solve(st) that
    builds the shape's rows as `_row_entries` writes them, eliminates them
    as `eliminate_fraction_free` does on a fixed pivot schedule, and
    returns the `SolveResult` of `_solve_rows`, or None where the state
    breaks the schedule.

    The schedule is the general routine's at one fixed state with the
    key's zero pattern (`_SCHEDULE_W`), so it does not depend on the states
    a run draws.  At each designated column in order, the solver checks
    that the general routine would take the same step: every active row
    before the scheduled pivot row is zero there and the pivot is not, or,
    where no row is scheduled, every active row is zero there.  Otherwise
    it returns None.  An entry that is "0" in the row source, or has been
    checked zero, is known zero: it enters no update, and an update whose
    terms are all known zero is not made.  Every update after the first
    pivot is one divmod by the previous pivot, every back substitution one
    by its own pivot, and a nonzero remainder raises ArithmeticError.  Back
    substitution runs for the solutions in `read` and those they read.
    The function keeps its schedule as `schedule`: per pivot in order, the
    unknown and the scalar (i, j, k, l) of its row, the pivot hypotheses of
    the solve.
    """
    shape = (triples, vanishing)
    keys, columns, col = _SHAPES[shape]
    order = [col[v] for v in unknowns if v in col]
    fixed = FrameState([0 if z else x for z, x in zip(zeros, _SCHEDULE_W)], 1, *_SCHEDULE_ANGLES)
    point = fixed._point
    out = eliminate_fraction_free(
        _KERNELS[shape](point.h, point.dh, fixed.omega_numerators, fixed._scales), order
    )
    pivot_row = {j: r for (j, _), r in zip(out.pivots, out.pivot_rows)}
    lines = []
    entry = {}  # (row, column) -> the local that holds it, or "0"
    # the rows
    for r, row in enumerate(_row_entries(*shape)):
        for c, x in enumerate(row):
            entry[r, c] = x if x == "0" else "e%d_%d" % (r, c)
            if x != "0":
                lines.append("%s = %s" % (entry[r, c], x))
    # the forward pass on the schedule, each step checked
    active, live = list(range(len(keys))), list(range(len(columns) + 2))
    pivots, prev = [], None
    for j in order:
        r = pivot_row.get(j)
        for n in active if r is None else active[:active.index(r)]:
            if entry[n, j] != "0":
                lines.append("if %s: return None" % entry[n, j])
                entry[n, j] = "0"
        if r is None:
            continue
        p = entry[r, j]
        lines.append("if not %s: return None" % p)
        active.remove(r)
        live.remove(j)
        for n in active:
            a = entry[n, j]
            for c in live:
                terms = [(1, "%s * %s" % (p, entry[n, c]))] if entry[n, c] != "0" else []
                if a != "0" and entry[r, c] != "0":
                    terms.append((-1, "%s * %s" % (a, entry[r, c])))
                if not terms:
                    continue
                x = entry[n, c] = "e%d_%d" % (n, c)
                if prev is None:
                    lines.append("%s = %s" % (x, _linear(terms)))
                else:
                    lines.append("%s, m = divmod(%s, %s)" % (x, _linear(terms), prev))
                    lines.append("if m: _inexact(%s)" % prev)
        pivots.append((j, r))
        prev = p
    # back substitution of the solutions read and of those they read
    last = prev or "1"
    final = {columns[j]: j for j, _ in pivots}
    wanted = [u for u in unknowns if u in final and (read is None or u in read)]
    needed = {final[u] for u in wanted}
    for k, (j, r) in enumerate(pivots):
        if j in needed:
            needed.update(jw for jw, _ in pivots[k + 1:] if entry[r, jw] != "0")
    solved: dict = {}
    for j, r in reversed(pivots):
        if j not in needed:
            continue
        nums = {}
        for c in live:
            terms = [(1, "%s * %s" % (last, entry[r, c]))] if entry[r, c] != "0" else []
            terms += [(1, "%s * %s" % (entry[r, jw], y[c])) for jw, y in solved.items()
                      if entry[r, jw] != "0" and y[c] != "0"]
            nums[c] = "s%d_%d" % (j, c) if terms else "0"
            if terms:
                lines.append("%s, m = divmod(-(%s), %s)" % (nums[c], _linear(terms), entry[r, j]))
                lines.append("if m: _inexact(%s)" % entry[r, j])
        solved[j] = nums

    # the read-out: a form's nonzero coefficients, in the order of the free
    # columns, its constant and its scales
    def form(nums: dict, name: str, coeff_den: str, const_den: str) -> str:
        coeffs = [(columns[c], nums[c]) for c in live[:-2] if nums[c] != "0"]
        lines.append("%s = {}" % name)
        lines.extend("if %s: %s[%r] = %s" % (x, name, v, x) for v, x in coeffs)
        const, root3 = (nums[c] for c in live[-2:])
        return "_new(Numerators, (%s, %s, %s, %s, %s))" % (name, const, root3, coeff_den, const_den)

    if wanted:
        lines.append("sk = %s * scale.coeff_mult" % last)
    if active:
        lines.append("ld, lk = %s * st._D * st._D, %s * scale.den" % (last, last))
    solutions = [
        "%r: %s" % (u, form(solved[final[u]], "cs%d" % final[u], last, "sk")) for u in wanted
    ]
    leftovers = [form({c: entry[n, c] for c in live}, "ce%d" % n, "ld", "lk") for n in active]
    lines.append("return SolveResult({%s}, [%s], %r)" % (
        ", ".join(solutions), ", ".join(leftovers), [u for u in unknowns if u not in final]))
    source = (
        "def solve(st):\n"
        "    point = st._point\n"
        "    h, dh, om, scale = point.h, point.dh, st.omega_numerators, st._scales\n"
        "%s%s"
    ) % (_KERNEL_HEAD, "".join("    %s\n" % line for line in lines))
    # _new builds a Numerators from a tuple, as NamedTuple._make does, with
    # no Python-level __new__ to call
    namespace: dict = {
        "__builtins__": {}, "divmod": divmod, "_inexact": _inexact, "_new": tuple.__new__,
        "Numerators": Numerators, "SolveResult": SolveResult,
    }
    exec(compile(source, "<codazzi solver>", "exec"), namespace)
    solve = namespace["solve"]
    solve.schedule = tuple((columns[j], keys[r]) for j, r in pivots)
    return solve


#: The solvers by (triples, vanishing, unknowns, read, zero pattern of w);
#: each is compiled when a solve first reads it.
_SOLVERS = _Compiled(_compile_solver)


class FractionFree(NamedTuple):
    """Outcome of `eliminate_fraction_free` on integer rows.

    pivots: (column, pivot row) in pivot order; the pivot is row[column].
    pivot_rows: the input index of each pivot row, in pivot order; with the
    columns of `pivots` it is the schedule a solver fixes (`_compile_solver`).
    free: the columns never pivoted, the constant's columns among them.
    solved: per pivoted column, `last` times its solution (an affine form in
    the never-pivoted columns) as integer numerators over `free`.
    leftovers: the rows no pivot consumed, over `free`: `last` times what
    value-form elimination leaves of them.
    last: the last pivot, 1 when nothing was pivoted.
    """

    pivots: list
    pivot_rows: list
    free: list
    solved: dict
    leftovers: list
    last: int


def eliminate_fraction_free(rows: Sequence[Sequence[int]], order: Sequence[int]) -> FractionFree:
    """Bareiss's integer-preserving Gaussian elimination, the one general
    path of the exact solves.

    Each row lists integer coefficients and then its constant, which may
    take two columns, a rational and a sqrt(3) part, so an element of
    Q(sqrt 3) is a pair of integer columns.  Columns are pivoted in
    `order`, each on the first active row whose entry is nonzero; a column
    with none is skipped.  Every nonzero update p * r - a * pivot_row is one
    divmod by the previous pivot, none at the first pivot, where that is 1,
    so each entry stays an integer minor of the input (Sylvester's
    identity), and a nonzero remainder raises ArithmeticError.  Back
    substitution in reverse pivot order keeps last times each solution on
    integers: those numerators are Cramer's rule's, and each of its
    divisions by a pivot is exact too (`divide_exactly`).

    It fixes the schedule of each compiled solver, at one state, and solves
    every state that breaks one (`_compile_solver`).
    """
    active = [list(r) for r in rows]
    index = list(range(len(rows)))
    live = list(range(len(rows[0])))
    pivots, pivot_rows = [], []
    prev = 1
    for j in order:
        idx = next((n for n, row in enumerate(active) if row[j]), None)
        if idx is None:
            continue
        prow = active.pop(idx)
        pivot_rows.append(index.pop(idx))
        p = prow[j]
        live.remove(j)
        for row in active:
            a = row[j]
            if prev == 1:
                for c in live:
                    row[c] = p * row[c] - a * prow[c]
            else:
                # divide_exactly inlined: this loop makes most of a solve's
                # divisions; an update that is zero needs none
                for c in live:
                    x = p * row[c] - a * prow[c]
                    if x:
                        x, r = divmod(x, prev)
                        if r:
                            raise ArithmeticError(f"{prev} does not divide an update")
                    row[c] = x
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
    return FractionFree(pivots, pivot_rows, live, solved, leftovers, prev)


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
    a failure's details give a constant with a sqrt(3) part: {"a", "b"}.  A NaN in
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
        for pos, (i, j, k) in enumerate(_OMEGA_KEYS):
            if j == k:
                continue
            c, s, _ = st._angles.diffs[(j, k)]
            if six_q * h[_H_CLASS[(i, j, k)]] * c + om[pos] * s:
                failures.append({"state": st.describe(), "index": (i, j, k)})
    return failure_record(
        "frame-relation", failures, trials, details={"identities_per_state": 18}
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
    res1 = solve_triple_system(st, SET1_TRIPLES, SET1_UNKNOWNS)
    res2 = solve_triple_system(st, SET2_TRIPLES, SET2_UNKNOWNS)
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


#: The clearing ratio product / (difference * |v|^6 * (4v1^2 - 3(v2^2+v3^2)))
#: of both shared solutions of the derivative comparison, as (num, den).
CLEARING_RATIO = (-12, 5)


def system1_check(seed: int = 0, trials: int = 100) -> CheckRecord:
    """Compare the two overlapping derivative solves and their compatibility.

    Both nine-row systems (triples (1,2,k) and (1,3,k)) are solved for the
    five derivatives each determines, keeping the shared unknown D_11 as a
    free symbol.  The differences of the shared solutions D_12 and D_13 are
    then honest scalars; each vanishes exactly when the corresponding product
    v1 v2 F1 (resp. v1 v3 F2) does, and the clearing factor
    product / (difference * |v|^6 * (4v1^2 - 3(v2^2+v3^2))) is the constant
    CLEARING_RATIO at every sample where the product does not vanish.  Every
    comparison is made on integer numerators (`_compare_derivatives`), the
    ratio with the constant by cross-multiplication; the factor becomes a
    Fraction only for the report.
    """
    rng = random.Random(seed)
    failures = []
    compared: set[str] = set()
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
            elif ratio[0] * CLEARING_RATIO[1] != CLEARING_RATIO[0] * ratio[1]:
                fail("clearing factor mismatch",
                     {"var": var, "seen": Fraction(*ratio), "expected": Fraction(*CLEARING_RATIO)})
            else:
                compared.add(label)
    factor = f"({Fraction(*CLEARING_RATIO)}) * |v|^6 * (4 v1^2 - 3 (v2^2 + v3^2))"
    details = {
        "kinds": kinds,
        "clearing_factors": {label: factor for label in sorted(compared)},
        "solutions_depending_on_D11": d11_dependent,
        "designated_rank": 5,
    }
    return failure_record("derivative-comparison", failures, trials, details=details)


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
        res = solve_triple_system(st, [(1, 2, 1)], [(2, 1), (1, 1)], vanishing, [(2, 1)])
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
    return failure_record(
        "axis-case", failures, trials,
        details={"constraint": "(-1/sqrt(3)) v1^3 = 0",
                 "nodes": [str(x) for x in AXIS_NODES]},
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


CASE2_UNKNOWNS = ((2, 3), (1, 2), (2, 2))
CASE2_FREE = (1, 3)


def _clears_to(st, row: Numerators, display: tuple[int, int], factor: int) -> bool:
    """Whether row * sqrt(3) (3 v2^2 + v3^2) is factor times the display.

    row, a leftover of the null-axis solve, is a form in x = E_1(v_3)
    alone.  Multiplied out on integers: its constant
    (k + r sqrt(3)) / const_den times sqrt(3) (3 w2^2 + w3^2) / D^2 must be
    factor c / D^5, so k = 0 and 3 r (3 w2^2 + w3^2) D^3 = factor c
    const_den, and its x coefficient a / coeff_den times the same must be
    factor sqrt(3) s / D^4.
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
    res = solve_triple_system(st, [(1, 2, 1), (1, 2, 2)], CASE2_UNKNOWNS, frozenset({1}), ())
    if res.free or len(res.leftovers) != 3:
        return [("unexpected solve shape", {"free": res.free, "leftovers": len(res.leftovers)})]
    rows = res.leftovers
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

    One solve of the six components of (E1,E2,E1) and (E1,E2,E2) pivots
    E2(v3), E1(v2) and E2(v2), leaving x = E1(v3) free.  The three
    (E1,E2,E1) rows come first and have full rank in those unknowns, so
    they hold every pivot, and the three leftovers are the (E1,E2,E2)
    components with the solutions substituted.  The first must vanish, and
    each other one must be its displayed condition times the clearing
    factor 2/(sqrt(3)(3 v2^2 + v3^2)) (second row: -1/2 of that).
    Eliminating x from the displayed pair leaves a polynomial that cannot
    vanish while v2 v3 != 0, so the case forces v2 = v3 = 0.  The leftovers,
    the displays and the eliminant are all on integer numerators
    (`_null_axis_case`).
    """
    rng = random.Random(seed)
    failures = []
    for n in range(trials):
        st = random_frame_state(rng, require_ec=True, zero=(1,), nonzero=(2, 3))
        for reason, extra in _null_axis_case(st):
            failures.append({"state": st.describe(), "reason": reason, "extra": extra})
    return failure_record(
        "null-axis-case", failures, trials,
        details={"clearing_factor": "2 / (sqrt(3) (3 v2^2 + v3^2))",
                 "second_row_scale": "-1/2"},
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
    return failure_record(
        "constrained-angle-case", failures, trials, skipped=skipped,
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
    return failure_record(
        "determinant-factorization", failures, trials, skipped=skipped,
        details={"sign_convention": "det = b1 b4 - b2 b3 = -(matrix determinant)",
                 "nonvanishing_given_constraint": skipped < trials and not vanished,
                 "angle_parity": parity_ok},
    )
