"""Value-form oracle for the proof layer's tables, Codazzi solves and checks.

Before the exact replay eliminated integer rows fraction-free, it built each
Codazzi scalar from value tables (Fraction and QSqrt3) and eliminated those
values in the field: each pivot row was scaled by the inverse of its pivot
and substituted into the others, and the solutions were back-substituted in
reverse pivot order.  That code lives here as an
independent reference.  Its tables come from the dense formulas below, not
from the module's numerators, so it shares nothing with the solver under test
but the state's integers.  The constants the formulas need (0, 1/3,
1/(2 sqrt 3), 1/sqrt(3) and sin 2(theta_a - theta_b)) and the state's v and
cotangents come from a ring object, `ExactRing` by default, so the same
formulas also run on the state read as doubles.

A state holds only integers; the value view of it is here: v as Fractions
(`v_of`), the angles as circle points (`angles_of`), the cotangents
(`cot`), and the constructor from Fraction v and circle points
(`frame_state`).  The checks decide on integer numerators.  The value forms
they compared before are kept here: the affine forms (`AffineExpr`), a row
or a solve read into values (`codazzi_values`, `solve_values`), the
integer solve with its rows built one at a time (`row_by_row_solve`), the
compatibility forms, the closed forms of the axis, null-axis and v2 = 0
cases in Fraction and Q(sqrt 3), and each case's verdict at one state
computed from those, to be held against the checks' integer verdicts.  A
value becomes a failure's detail through `detail`, the JSON that the report
gave QSqrt3 and CirclePoint values.

It also keeps the circle arithmetic in Fraction that exact states used
before they held their angles as integer triples: sums, differences and
conjugates of circle points, built without the constructor's check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Mapping

from nkverify import codazzi
from nkverify.codazzi import (
    AXES,
    AXIS_NODES,
    CASE2_FREE,
    CASE2_UNKNOWNS,
    CASE3_UNKNOWNS,
    SET1_TRIPLES,
    SET1_UNKNOWNS,
    SET2_TRIPLES,
    SET2_UNKNOWNS,
    SHARED_FREE,
    DVar,
    FrameState,
    Numerators,
    SolveResult,
    delta,
    epsilon,
)
from nkverify.exact import CirclePoint, QSqrt3, rat_circle_point

#: sqrt(3) as a field element.
SQRT3 = QSqrt3(0, 1)
#: 1/sqrt(3) == sqrt(3)/3.
INV_SQRT3 = QSqrt3(0, Fraction(1, 3))
#: 1/(2*sqrt(3)) == sqrt(3)/6.
HALF_INV_SQRT3 = QSqrt3(0, Fraction(1, 6))

# ---------------------------------------------------------------------------
# circle arithmetic


def on_circle(c: Fraction, s: Fraction) -> CirclePoint:
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


def conjugate(p: CirclePoint) -> CirclePoint:
    """The point of the negated angle."""
    return on_circle(p.c, -p.s)


def angle_add(p: CirclePoint, q: CirclePoint) -> CirclePoint:
    """Circle point of the sum of the two angles."""
    return on_circle(p.c * q.c - p.s * q.s, p.s * q.c + p.c * q.s)


def angle_sub(p: CirclePoint, q: CirclePoint) -> CirclePoint:
    """Circle point of the difference of the two angles."""
    return on_circle(p.c * q.c + p.s * q.s, p.s * q.c - p.c * q.s)


# ---------------------------------------------------------------------------
# the value view of a state


def integers(v) -> tuple[list[int], int]:
    """Rational v as (w, D): D the lcm of the denominators and w = D v."""
    v = [Fraction(x) for x in v]
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def frame_state(v, theta1: CirclePoint, theta2: CirclePoint) -> FrameState:
    """The state at rational v and two circle points, each point in lowest
    terms as its triple (C, S, E)."""
    return FrameState(
        *integers(v), *((p.c.numerator, p.s.numerator, p.c.denominator) for p in (theta1, theta2))
    )


def v_of(st) -> dict[int, Fraction]:
    """v as Fractions, w / D."""
    return {m: Fraction(x, st._D) for m, x in zip(AXES, st._w)}


def angles_of(st) -> dict[int, CirclePoint]:
    """theta1, theta2 and theta3 as circle points."""
    return {
        a: CirclePoint(Fraction(c, e), Fraction(s, e)) for a, (c, s, e) in st._angles.theta.items()
    }


def cot(st, a: int, b: int) -> Fraction:
    """cot(theta_a - theta_b), from the state's triple of the difference."""
    c, s, _ = st._angles.diffs[(a, b)]
    return Fraction(c, s)


def detail(x):
    """A value as a failure's details give it: a QSqrt3 as {"a", "b"}, a
    circle point as {"c", "s"}, a rational as a Fraction, and containers
    item by item."""
    if isinstance(x, QSqrt3):
        return {"a": x.a, "b": x.b}
    if isinstance(x, CirclePoint):
        return {"c": x.c, "s": x.s}
    if isinstance(x, dict):
        return {k: detail(y) for k, y in x.items()}
    if isinstance(x, list):
        return [detail(y) for y in x]
    return Fraction(x)


def describe(st) -> dict:
    """`FrameState.describe` from the value view."""
    angles = angles_of(st)
    return detail({"v": [v_of(st)[m] for m in AXES], "theta1": angles[1], "theta2": angles[2]})


def fraction_frame_state(rng, require_ec=True, nonzero=(), zero=()):
    """`random_frame_state` as it drew in Fraction arithmetic: each v_m and
    each half-angle parameter t a Fraction, and the angles through
    `rat_circle_point`, with the same RNG calls in the same order."""
    zero, nonzero = set(zero), set(nonzero)
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
            st = frame_state(v, rat_circle_point(t1), rat_circle_point(t2))
        except ValueError:
            continue
        if require_ec and ec_value(st) == 0:
            continue
        return st
    raise RuntimeError("could not sample a valid frame state")


# ---------------------------------------------------------------------------
# affine arithmetic and angle data in values


class AffineExpr:
    """A scalar of the form const + sum coeffs[(i,m)] * D_im, as values."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const, coeffs: Mapping[DVar, object] | None = None) -> None:
        self.const = const
        self.coeffs: dict[DVar, object] = dict(coeffs) if coeffs else {}

    def __repr__(self) -> str:
        terms = "".join(f" + ({c})*D{v}" for v, c in sorted(self.coeffs.items()))
        return f"AffineExpr({self.const}{terms})"


def coeff(e: AffineExpr, var, zero):
    return e.coeffs.get(var, zero)


def add(a: AffineExpr, b: AffineExpr) -> AffineExpr:
    out = dict(a.coeffs)
    for v, c in b.coeffs.items():
        out[v] = out[v] + c if v in out else c
    return AffineExpr(a.const + b.const, out)


def sub(a: AffineExpr, b: AffineExpr) -> AffineExpr:
    out = dict(a.coeffs)
    for v, c in b.coeffs.items():
        out[v] = out[v] - c if v in out else -c
    return AffineExpr(a.const - b.const, out)


def scale(e: AffineExpr, s) -> AffineExpr:
    return AffineExpr(e.const * s, {v: c * s for v, c in e.coeffs.items()})


def subst(e: AffineExpr, var, expr: AffineExpr) -> AffineExpr:
    """e with D_var replaced by expr; a zero coefficient only drops D_var."""
    if var not in e.coeffs:
        return e
    c = e.coeffs[var]
    rest = AffineExpr(e.const, {v: k for v, k in e.coeffs.items() if v != var})
    return add(rest, scale(expr, c)) if c else rest


def sin2(st, a: int, b: int) -> Fraction:
    """sin 2(theta_a - theta_b) of an exact state, from its integer triple."""
    c, s, e = st._angles.diffs[(a, b)]
    return Fraction(2 * s * c, e * e)


def ec_value(st) -> Fraction:
    """4 v1^2 - 3 (v2^2 + v3^2), in Fraction arithmetic on v."""
    v1, v2, v3 = (v_of(st)[m] for m in AXES)
    return 4 * v1 * v1 - 3 * (v2 * v2 + v3 * v3)


def _value(const: int, root3: int, irrational: bool, den: int):
    """const + root3 sqrt(3) over den, divided once: a QSqrt3 where the
    numerator is flagged irrational, else a Fraction."""
    codazzi._require_flag(root3, irrational)
    if irrational:
        return QSqrt3(Fraction(const, den), Fraction(root3, den))
    return Fraction(const, den)


def numerator_values(e: Numerators) -> AffineExpr:
    """A form's numerators as values, each divided once."""
    return AffineExpr(
        _value(e.const, e.root3, e.irrational, e.const_den),
        {v: Fraction(c, e.coeff_den) for v, c in e.coeffs.items()},
    )


def codazzi_values(st, row) -> AffineExpr:
    """A `codazzi_scalar` row as values: each numerator divided once, the
    coefficients by D^2 and the constant by L.

    The constant is a QSqrt3 exactly where the row is flagged irrational.
    """
    d2 = st._D * st._D
    return AffineExpr(
        _value(row.const, row.root3, row.irrational, st._scales.den),
        {v: Fraction(c, d2) for v, c in row.coeffs.items()},
    )


def solve_values(res: SolveResult) -> SolveResult:
    """A solve with its numerators read into values."""
    return SolveResult(
        solutions={u: numerator_values(e) for u, e in res.solutions.items()},
        extras={u: numerator_values(e) for u, e in res.extras.items()},
        leftovers=[numerator_values(e) for e in res.leftovers],
        rank=res.rank,
        n_rows=res.n_rows,
        free=res.free,
    )


# ---------------------------------------------------------------------------
# tables and solves


class ExactRing:
    """The constants of the dense formulas, in Q(sqrt(3)), and the state's
    v, cotangents and doubled-angle sines as values."""

    zero = Fraction(0)
    third = Fraction(1, 3)
    sigma = HALF_INV_SQRT3
    inv_sqrt3 = INV_SQRT3
    v = staticmethod(v_of)
    cot = staticmethod(cot)
    sin2 = staticmethod(sin2)


def dense_h(v) -> dict:
    """h_ij^k = |v|^2 (v_i d_jk + v_j d_ki + v_k d_ij) - 5 v_i v_j v_k, every key."""
    vv = {m: v[m - 1] for m in AXES}
    v2 = vv[1] * vv[1] + vv[2] * vv[2] + vv[3] * vv[3]
    return {
        (i, j, k): v2 * (vv[i] * delta(j, k) + vv[j] * delta(k, i) + vv[k] * delta(i, j))
        - 5 * vv[i] * vv[j] * vv[k]
        for i, j, k in product(AXES, AXES, AXES)
    }


def dense_dh(v) -> dict:
    """d h_jk^l / d v_m for every key, by the displayed gradient formula."""
    vv = {m: v[m - 1] for m in AXES}
    v2 = vv[1] * vv[1] + vv[2] * vv[2] + vv[3] * vv[3]
    out = {}
    for j, k, l, m in product(AXES, AXES, AXES, AXES):
        out[(j, k, l, m)] = (
            2 * vv[m] * (vv[j] * delta(k, l) + vv[k] * delta(l, j) + vv[l] * delta(j, k))
            + v2 * (delta(j, m) * delta(k, l) + delta(k, m) * delta(l, j)
                    + delta(l, m) * delta(j, k))
            - 5 * (delta(j, m) * vv[k] * vv[l] + vv[j] * delta(k, m) * vv[l]
                   + vv[j] * vv[k] * delta(l, m))
        )
    return out


def dense_omega(st, ring=ExactRing) -> dict:
    """The connection components by their nine displayed formulas, with one
    `cot` call per use, as values (Fraction or QSqrt3)."""
    v = ring.v(st)
    v1, v2, v3 = v[1], v[2], v[3]
    q1, q2, q3 = v1 * v1, v2 * v2, v3 * v3
    five_v = 5 * v1 * v2 * v3
    displays = {
        (1, 1, 2): -v2 * (-4 * q1 + q2 + q3) * ring.cot(st, 1, 2),
        (1, 1, 3): -v3 * (-4 * q1 + q2 + q3) * ring.cot(st, 1, 3),
        (2, 2, 1): -v1 * (q1 - 4 * q2 + q3) * ring.cot(st, 2, 1),
        (2, 2, 3): -v3 * (q1 - 4 * q2 + q3) * ring.cot(st, 2, 3),
        (3, 3, 1): -v1 * (q1 + q2 - 4 * q3) * ring.cot(st, 3, 1),
        (3, 3, 2): -v2 * (q1 + q2 - 4 * q3) * ring.cot(st, 3, 2),
        (1, 2, 3): ring.sigma + five_v * ring.cot(st, 2, 3),
        (2, 3, 1): ring.sigma + five_v * ring.cot(st, 3, 1),
        (3, 1, 2): ring.sigma + five_v * ring.cot(st, 1, 2),
    }
    out = {}
    for i, j, k in product(AXES, AXES, AXES):
        if j == k:
            out[(i, j, k)] = ring.zero
        elif (i, j, k) in displays:
            out[(i, j, k)] = displays[(i, j, k)]
        else:
            out[(i, j, k)] = -displays[(i, k, j)]
    return out


def dense_tables(st, ring=ExactRing):
    """h, dh, omega and the shifted omega of the state from the formulas above.

    h and dh are read at the sorted index of each entry's symmetry class, the
    index the state's table computes it at; the shifted entry subtracts
    eps/sqrt(3) only where eps != 0, so a rational omega stays a Fraction.
    """
    v = [ring.v(st)[m] for m in AXES]
    full_h, full_dh = dense_h(v), dense_dh(v)
    h = {key: full_h[tuple(sorted(key))] for key in full_h}
    dh = {(j, k, l, m): full_dh[(*sorted((j, k, l)), m)] for j, k, l, m in full_dh}
    om = dense_omega(st, ring)
    shifted = {}
    for key in product(AXES, AXES, AXES):
        eps = epsilon(*key)
        shifted[key] = om[key] - ring.inv_sqrt3 * eps if eps else om[key]
    return h, dh, om, shifted


def dense_scalar(st, tables, i, j, k, l, vanishing=frozenset(), ring=ExactRing) -> AffineExpr:
    """The Codazzi scalar summed term by term in the tables' own arithmetic.

    A product whose h factor is exactly zero is left out: it adds an exact
    zero, so the value is the full sum's, and the constant is a QSqrt3
    exactly where a nonzero h entry meets a sqrt(3) in omega.
    """
    h, dh, om, shifted = tables
    coeffs = {}
    for m in AXES:
        if m in vanishing:
            continue
        c = dh[(j, k, l, m)]
        if c:
            coeffs[(i, m)] = c
        c = dh[(i, k, l, m)]
        if c:
            coeffs[(j, m)] = coeffs[(j, m)] - c if (j, m) in coeffs else -c
    const = ring.zero
    for m in AXES:
        if h[(j, k, m)]:
            const = const + h[(j, k, m)] * shifted[(i, m, l)]
        if h[(i, k, m)]:
            const = const - h[(i, k, m)] * shifted[(j, m, l)]
        if h[(m, k, l)]:
            const = const - (om[(i, j, m)] - om[(j, i, m)]) * h[(m, k, l)]
        if h[(j, m, l)]:
            const = const - om[(i, k, m)] * h[(j, m, l)]
        if h[(i, m, l)]:
            const = const + om[(j, k, m)] * h[(i, m, l)]
    const = const - ring.third * ring.sin2(st, i, j) * (
        delta(j, k) * delta(i, l) + delta(i, k) * delta(j, l)
    )
    return AffineExpr(const, coeffs)


def oracle_solve(st, triples, unknowns, vanishing=frozenset(), free_vars=()) -> SolveResult:
    """`solve_triple_system` by value-form elimination, pivoting on the first
    row with a nonzero coefficient."""
    if ec_value(st) == 0:
        raise ValueError("solve requires 4 v1^2 - 3 (v2^2 + v3^2) != 0")
    tables = dense_tables(st)
    rows = [
        dense_scalar(st, tables, i, j, k, l, vanishing) for i, j, k in triples for l in AXES
    ]
    present = sorted({v for r in rows for v, c in r.coeffs.items() if c != 0})
    designated = list(unknowns)
    extra_vars = [v for v in present if v not in designated and v not in free_vars]
    defs, order, active = {}, [], list(rows)
    for var in extra_vars + designated:
        pivot_idx = next(
            (idx for idx, r in enumerate(active) if coeff(r, var, ExactRing.zero) != 0), None
        )
        if pivot_idx is None:
            continue
        row = active.pop(pivot_idx)
        a = coeff(row, var, ExactRing.zero)
        rest = AffineExpr(row.const, {w: c for w, c in row.coeffs.items() if w != var})
        defs[var] = scale(rest, -(1 / a))
        order.append(var)
        active = [subst(r, var, defs[var]) for r in active]
    final = {}
    for var in reversed(order):
        e = defs[var]
        for w, we in final.items():
            e = subst(e, w, we)
        final[var] = e
    return SolveResult(
        solutions={u: final[u] for u in designated if u in final},
        extras={v: final[v] for v in extra_vars if v in final},
        leftovers=active,
        rank=len(order),
        n_rows=len(rows),
        free=[u for u in designated if u not in final],
    )


def row_by_row_solve(st, triples, unknowns, vanishing=frozenset(), free_vars=()) -> SolveResult:
    """`solve_triple_system` as it was before its rows went straight into the
    matrix: each row built alone by `codazzi_scalar`, the columns the
    unknowns with a nonzero coefficient at this state (`present`), and the
    rows' dicts turned into the dense integer matrix, then read out into
    `Numerators` as the solver does."""
    if not st._point.ec:
        raise ValueError("solve requires 4 v1^2 - 3 (v2^2 + v3^2) != 0")
    rows = [
        codazzi.codazzi_scalar(st, i, j, k, l, vanishing) for i, j, k in triples for l in AXES
    ]
    present = sorted({v for r in rows for v, c in r.coeffs.items() if c})
    designated = list(unknowns)
    extra_vars = [v for v in present if v not in designated and v not in free_vars]
    col = {v: n for n, v in enumerate(present)}
    out = codazzi.eliminate_fraction_free(
        [[r.coeffs.get(v, 0) for v in present] + [r.const, r.root3] for r in rows],
        [col[v] for v in extra_vars + designated if v in col],
        [r.irrational for r in rows],
    )
    free = [present[c] for c in out.free[:-2]]

    def read(nums, irrational, coeff_den, const_den) -> Numerators:
        *coeffs, const, root3 = nums
        codazzi._require_flag(root3, irrational)
        return Numerators({v: c for v, c in zip(free, coeffs) if c}, const, root3, irrational,
                          coeff_den, const_den)

    p, scale = out.last, st._scales
    final = {
        present[j]: read(nums, out.solved_irrational[j], p, p * scale.coeff_mult)
        for j, nums in out.solved.items()
    }
    return SolveResult(
        solutions={u: final[u] for u in designated if u in final},
        extras={v: final[v] for v in extra_vars if v in final},
        leftovers=[read(r, irrational, p * st._D * st._D, p * scale.den)
                   for r, irrational in zip(out.leftovers, out.leftover_irrational)],
        rank=len(final),
        n_rows=len(rows),
        free=[u for u in designated if u not in final],
    )


# ---------------------------------------------------------------------------
# the checks' comparisons in values


def rational(x) -> Fraction:
    """Coerce a rational-valued scalar that may be carried as QSqrt3."""
    if isinstance(x, QSqrt3):
        if x.b != 0:
            raise ValueError(f"not rational: {x}")
        return x.a
    return Fraction(x)


def compat_form_1(st):
    """F1: the first bracketed compatibility form (without the v1 v2 prefactor)."""
    b1, b2, _, _ = codazzi._quartic_brackets([v_of(st)[m] for m in AXES])
    return b1 * sin2(st, 1, 2) - b2 * sin2(st, 1, 3)


def compat_form_2(st):
    """F2: the second bracketed compatibility form (without the v1 v3 prefactor)."""
    _, _, b3, b4 = codazzi._quartic_brackets([v_of(st)[m] for m in AXES])
    return b3 * sin2(st, 1, 2) - b4 * sin2(st, 1, 3)


def case2_displays(st) -> tuple[AffineExpr, AffineExpr]:
    """The displayed pair of conditions on x = E_1(v_3) for the case v1 = 0."""
    v2, v3 = v_of(st)[2], v_of(st)[3]
    q2, q3 = v2 * v2, v3 * v3
    first = AffineExpr(
        v3 * (3 * q2 ** 2 - q2 * q3 + q3 ** 2),
        {CASE2_FREE: QSqrt3(0, 15) * q2 * v2 * v3},
    )
    second = AffineExpr(
        v2 * (3 * q2 ** 2 - 3 * q2 * q3 + 4 * q3 ** 2),
        {CASE2_FREE: QSqrt3(0, 3) * (4 * q2 ** 2 - 7 * q2 * q3 - q3 ** 2)},
    )
    return first, second


def case2_resultant(v2, v3):
    """Eliminant of the displayed pair: nonzero whenever v2 v3 != 0."""
    q2, q3 = v2 * v2, v3 * v3
    return QSqrt3(0, -3) * v3 * (
        q3 ** 4 + 6 * q2 * q3 ** 3 + 12 * q2 ** 2 * q3 ** 2 + 10 * q2 ** 3 * q3 + 3 * q2 ** 4
    )


def case3_closed_forms(v1, v3) -> tuple[QSqrt3, QSqrt3]:
    """D23 and D21 of the case v2 = 0, with sqrt(3) moved to the numerator."""
    q1, q3 = v1 * v1, v3 * v3
    nine_b = 9 * (8 * q1 * q1 + 6 * q1 * q3 + 3 * q3 * q3)
    d23 = v1 * (6 * q1 * q1 + 5 * q1 * q3 + 4 * q3 * q3) / nine_b
    d21 = -v3 * (10 * q1 * q1 + 8 * q1 * q3 + 3 * q3 * q3) / nine_b
    return QSqrt3(0, d23), QSqrt3(0, d21)


def case3_leftover(v1, v3) -> QSqrt3:
    """The forcing leftover of the case v2 = 0."""
    q1, q3 = v1 * v1, v3 * v3
    return QSqrt3(0, -2 * v3 * (q1 + q3) ** 3 / (3 * (8 * q1 * q1 + 6 * q1 * q3 + 3 * q3 * q3)))


def _nonzero(e: AffineExpr) -> bool:
    return e.const != 0 or any(c != 0 for c in e.coeffs.values())


def compare_derivatives_values(st) -> tuple[list, list, bool]:
    """`codazzi._compare_derivatives` in values: the clearing ratio is
    prod / (gap * norm) in Fraction and Q(sqrt 3), with the products from
    the compatibility forms."""
    res1 = solve_values(codazzi.solve_triple_system(
        st, SET1_TRIPLES, SET1_UNKNOWNS, free_vars=SHARED_FREE))
    res2 = solve_values(codazzi.solve_triple_system(
        st, SET2_TRIPLES, SET2_UNKNOWNS, free_vars=SHARED_FREE))
    if res1.free or res2.free:
        return [("singular subsystem", {"free1": res1.free, "free2": res2.free})], [], False
    stray = [x for res in (res1, res2) for x in res.leftovers if _nonzero(x)]
    if stray:
        leftover = stray[0]
        form = {"const": leftover.const, "coeffs": dict(sorted(leftover.coeffs.items()))}
        return [("nonzero leftover constraint", detail(form))], [], False
    dependent = any(
        coeff(e, SHARED_FREE[0], Fraction(0)) != 0
        for res in (res1, res2) for e in res.solutions.values()
    )
    v = v_of(st)
    w = v[1] ** 2 + v[2] ** 2 + v[3] ** 2
    norm = w ** 3 * ec_value(st)
    pairs = []
    for label, var, prod in (
        ("K2", (1, 2), v[1] * v[2] * compat_form_1(st)),
        ("K3", (1, 3), v[1] * v[3] * compat_form_2(st)),
    ):
        diff = sub(res1.solutions[var], res2.solutions[var])
        if any(c != 0 for c in diff.coeffs.values()):
            pairs.append((label, var, ("difference not gauge-free", {"var": var}), None))
            continue
        gap = diff.const
        if (gap == 0) != (prod == 0):
            pairs.append((label, var, ("vanishing mismatch", {"var": var, "gap_zero": gap == 0}),
                          None))
        elif prod == 0:
            pairs.append((label, var, None, None))
        else:
            try:
                ratio = rational(prod / (gap * norm))
            except ValueError:
                pairs.append((label, var, ("irrational clearing ratio", {"var": var}), None))
                continue
            pairs.append((label, var, None, ratio))
    return [], pairs, dependent


def axis_case_values(st0) -> list:
    """`codazzi._axis_case` in values: each leftover compared with
    QSqrt3(0, -v1^3/3), which a failure's details give as expected."""
    vanishing = frozenset({2, 3})
    for x in AXIS_NODES:
        st = st0.at(codazzi._Point([x, 0, 0], 1))
        res = solve_values(
            codazzi.solve_triple_system(st, [(1, 2, 1)], [(2, 1), (1, 1)], vanishing)
        )
        if len(res.leftovers) != 1 or any(c != 0 for c in res.leftovers[0].coeffs.values()):
            return [("unexpected elimination shape", None)]
        if _nonzero(res.solutions[(2, 1)]):
            return [("D_21 not forced to zero", None)]
        leftover, expected = res.leftovers[0].const, QSqrt3(0, Fraction(-x ** 3, 3))
        if leftover != expected:
            extra = {"v1": x, "leftover": detail(leftover), "expected": detail(expected)}
            return [("leftover is not -v1^3/sqrt(3)", extra)]
    return []


def null_axis_case_values(st) -> list:
    """`codazzi._null_axis_case` in values: rows substituted in values and
    compared with the displays times the clearing factor in Q(sqrt 3)."""
    vanishing = frozenset({1})
    x = CASE2_FREE
    res = solve_values(codazzi.solve_triple_system(st, [(1, 2, 1)], CASE2_UNKNOWNS, vanishing))
    if res.free != [x] or res.leftovers:
        return [("unexpected solve shape", {"free": res.free, "leftovers": len(res.leftovers)})]
    rows = []
    for l in AXES:
        e = codazzi_values(st, codazzi.codazzi_scalar(st, 1, 2, 2, l, vanishing))
        for var, expr in res.solutions.items():
            e = subst(e, var, expr)
        rows.append(e)
    if _nonzero(rows[0]):
        return [("first substituted row does not vanish", None)]
    first, second = case2_displays(st)
    clear = SQRT3 * (3 * v_of(st)[2] ** 2 + v_of(st)[3] ** 2)
    failed = [
        ("clearing factor mismatch", label)
        for diffed, label in (
            (sub(scale(rows[1], clear), scale(first, 2)), "first display"),
            (sub(scale(rows[2], clear), scale(second, -1)), "second display"),
        )
        if _nonzero(diffed)
    ]
    if failed:
        return failed
    zero = Fraction(0)
    resultant = first.const * coeff(second, x, zero) - second.const * coeff(first, x, zero)
    if resultant - case2_resultant(v_of(st)[2], v_of(st)[3]) != 0:
        return [("eliminant closed form mismatch", None)]
    if resultant == 0:
        return [("displayed pair unexpectedly compatible", None)]
    return []


def v2_zero_case_values(st) -> list:
    """`codazzi._v2_zero_case` in values: the solutions and leftovers
    compared with the closed forms in Q(sqrt 3), which a failure's details
    give as expected."""
    res = solve_values(
        codazzi.solve_triple_system(st, [(1, 2, 1), (1, 2, 2)], CASE3_UNKNOWNS, frozenset({2}))
    )
    if res.free or any(e.coeffs for e in res.solutions.values()):
        return [("derivatives not pinned", res.free)]
    v1, v3 = v_of(st)[1], v_of(st)[3]
    got = (res.solutions[(2, 3)].const, res.solutions[(2, 1)].const)
    want = case3_closed_forms(v1, v3)
    if got != want:
        expected = {"D23": want[0], "D21": want[1]}
        return [("closed form mismatch",
                 detail({"D23": got[0], "D21": got[1], "expected": expected}))]
    consts = [x.const for x in res.leftovers]
    forcing = case3_leftover(v1, v3)
    if any(x.coeffs for x in res.leftovers) or consts not in ([0, forcing], [forcing, 0]):
        extra = {"leftovers": detail(consts), "expected": detail(forcing)}
        return [("leftovers are not 0 and the forcing leftover", extra)]
    return []
