"""Value-form oracle for the proof layer's tables and Codazzi solves.

Before the exact replay eliminated integer rows fraction-free, it built each
Codazzi scalar from value tables (Fraction and QSqrt3) and eliminated those
values in the field: each pivot row was scaled by the inverse of its pivot
and substituted into the others, and the solutions were back-substituted in
reverse pivot order.  That code lives here as an
independent reference.  Its tables come from the dense formulas below, not
from the module's numerators, so it shares nothing with the solver under test
but the state's v and its angle accessors (cot, sin2) and the AffineExpr
container.  The constants the formulas need (0, 1/3, 1/(2 sqrt 3) and
1/sqrt(3)) come from a ring object, `ExactRing` by default, so the same
formulas also run on a float view of a state.

It also keeps the circle arithmetic in Fraction that exact states used
before they held their angles as integer triples: sums, differences and
conjugates of circle points, built without the constructor's check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from nkverify.codazzi import AXES, AffineExpr, SolveResult, delta, epsilon
from nkverify.exact import HALF_INV_SQRT3, INV_SQRT3, CirclePoint

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
# tables and solves


class ExactRing:
    """The constants of the dense formulas, in Q(sqrt(3))."""

    zero = Fraction(0)
    third = Fraction(1, 3)
    sigma = HALF_INV_SQRT3
    inv_sqrt3 = INV_SQRT3


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
    v1, v2, v3 = st.v[1], st.v[2], st.v[3]
    q1, q2, q3 = v1 * v1, v2 * v2, v3 * v3
    five_v = 5 * v1 * v2 * v3
    displays = {
        (1, 1, 2): -v2 * (-4 * q1 + q2 + q3) * st.cot(1, 2),
        (1, 1, 3): -v3 * (-4 * q1 + q2 + q3) * st.cot(1, 3),
        (2, 2, 1): -v1 * (q1 - 4 * q2 + q3) * st.cot(2, 1),
        (2, 2, 3): -v3 * (q1 - 4 * q2 + q3) * st.cot(2, 3),
        (3, 3, 1): -v1 * (q1 + q2 - 4 * q3) * st.cot(3, 1),
        (3, 3, 2): -v2 * (q1 + q2 - 4 * q3) * st.cot(3, 2),
        (1, 2, 3): ring.sigma + five_v * st.cot(2, 3),
        (2, 3, 1): ring.sigma + five_v * st.cot(3, 1),
        (3, 1, 2): ring.sigma + five_v * st.cot(1, 2),
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
    v = [st.v[m] for m in AXES]
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
    const = const - ring.third * st.sin2(i, j) * (
        delta(j, k) * delta(i, l) + delta(i, k) * delta(j, l)
    )
    return AffineExpr(const, coeffs)


def _subst(e: AffineExpr, var, expr: AffineExpr) -> AffineExpr:
    """e with D_var replaced by expr; a zero coefficient only drops D_var."""
    if var not in e.coeffs:
        return e
    c = e.coeffs[var]
    rest = AffineExpr(e.const, {v: k for v, k in e.coeffs.items() if v != var})
    return rest + expr.scale(c) if c else rest


def oracle_solve(st, triples, unknowns, vanishing=frozenset(), free_vars=()) -> SolveResult:
    """`solve_triple_system` by value-form elimination, pivoting on the first
    row with a nonzero coefficient."""
    if st.ec_value == 0:
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
            (idx for idx, r in enumerate(active) if r.coeff(var, ExactRing.zero) != 0), None
        )
        if pivot_idx is None:
            continue
        row = active.pop(pivot_idx)
        a = row.coeff(var, ExactRing.zero)
        rest = AffineExpr(row.const, {w: c for w, c in row.coeffs.items() if w != var})
        defs[var] = rest.scale(-(1 / a))
        order.append(var)
        active = [_subst(r, var, defs[var]) for r in active]
    final = {}
    for var in reversed(order):
        e = defs[var]
        for w, we in final.items():
            e = _subst(e, w, we)
        final[var] = e
    return SolveResult(
        solutions={u: final[u] for u in designated if u in final},
        extras={v: final[v] for v in extra_vars if v in final},
        leftovers=active,
        rank=len(order),
        n_rows=len(rows),
        free=[u for u in designated if u not in final],
    )
