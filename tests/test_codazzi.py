"""Tests for the exact Codazzi verification: tables, solver, case checks."""

import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nkverify import codazzi
from nkverify.cli import cmd_proof
from nkverify.codazzi import (
    AXES,
    AXIS_NODES,
    CANONICAL_PAIRS,
    CASE3_UNKNOWNS,
    SET1_TRIPLES,
    SET1_UNKNOWNS,
    SET2_TRIPLES,
    SET2_UNKNOWNS,
    SHARED_FREE,
    FrameState,
    Numerators,
    case1_check,
    case2_check,
    case2_resultant,
    case3_check,
    case3_closed_forms,
    case3_leftover,
    codazzi_scalar,
    delta,
    det_factorization_check,
    det_product_form,
    eliminate_fraction_free,
    epsilon,
    frame_relation_check,
    hijk_from_v,
    hijk_gradient,
    random_frame_state,
    solve_triple_system,
    system1_check,
    _case2_displays,
    _DH_CLASS,
    _H_CLASS,
    _Point,
)
from nkverify.exact import CirclePoint, QSqrt3, rat_circle_point
from nkverify.humfit import build_h_from_V
from nkverify.report import jsonable

import exact_oracle
from exact_oracle import (
    HALF_INV_SQRT3,
    AffineExpr,
    angle_add,
    angle_sub,
    angles_of,
    codazzi_values,
    compat_form_2,
    conjugate,
    cot,
    dense_dh,
    dense_h,
    dense_scalar,
    dense_tables,
    ec_value,
    frame_state,
    integers,
    oracle_solve,
    sin2,
    solve_values,
    subst,
    v_of,
)

small_fractions = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=8
)
v_triples = st.tuples(small_fractions, small_fractions, small_fractions)


def _state(seed: int = 0, **kw) -> FrameState:
    return random_frame_state(random.Random(seed), **kw)


def _evaluate(e: AffineExpr, assignment: dict, zero):
    """The value of e with D_var = assignment[var], and 0 for unassigned."""
    val = e.const
    for v, c in e.coeffs.items():
        val = val + c * assignment.get(v, zero)
    return val


def _full(table: dict, classes: dict) -> dict:
    """A table held per symmetry class, read at every key."""
    return {key: table[rep] for key, rep in classes.items()}


def _class_values(table: dict, classes: dict, den) -> dict:
    """An h or dh numerator table over its scale, at every key."""
    return {key: Fraction(x, den) for key, x in _full(table, classes).items()}


def _connection_values(st_, root3) -> dict:
    """omega's rational numerators plus root3 eps_ijk sqrt(3), over omega's
    scale: a QSqrt3 where i, j, k are distinct."""
    den = st_._scales.omega_den
    return {
        key: exact_oracle._value(x, root3 * epsilon(*key), epsilon(*key) != 0, den)
        for key, x in st_.omega_numerators.items()
    }


def _omega_values(st_) -> dict:
    return _connection_values(st_, st_._scales.sigma)


def _shifted_values(st_) -> dict:
    """The shifted connection omega_im^l - eps_iml/sqrt(3) as values: omega's
    rational part, and the sqrt(3) part (sigma - iota) eps_iml."""
    scale = st_._scales
    return _connection_values(st_, scale.sigma - scale.inv_sqrt3)


# ---------------------------------------------------------------------------
# cubic form components


def test_h_spot_values_on_first_axis() -> None:
    h = _full(hijk_from_v([Fraction(1), Fraction(0), Fraction(0)]), _H_CLASS)
    assert h[(1, 1, 1)] == -2
    assert h[(1, 2, 2)] == 1
    assert h[(2, 2, 1)] == 1
    assert h[(2, 3, 1)] == 0


@given(v_triples)
def test_h_totally_symmetric_and_trace_free(v) -> None:
    # one entry per symmetry class, at its sorted index
    assert sorted(hijk_from_v(v)) == sorted(set(_H_CLASS.values()))
    h = _full(hijk_from_v(v), _H_CLASS)
    for i, j, k in product(AXES, AXES, AXES):
        assert h[(i, j, k)] == h[(j, i, k)] == h[(i, k, j)]
    for k in AXES:
        assert sum(h[(j, j, k)] for j in AXES) == 0


def hijk_from_cubic_contraction(v):
    """Independent construction of the components of `hijk_from_v`.

    Contracts h(X,Y) = g(V,V)(g(Y,V)JX + g(X,V)JY + g(X,Y)JV) - 5g(X,V)g(Y,V)JV
    against an abstract orthonormal frame, using only g(E_i, V) = v_i,
    g(E_i, E_j) = d_ij and g(JE_a, JE_b) = d_ab.
    """
    vv = {m: v[m - 1] for m in AXES}
    gvv = sum(vv[m] * vv[m] for m in AXES)
    out = {}
    for i, j in product(AXES, AXES):
        # h(E_i, E_j) expanded in the JE_k basis
        for k in AXES:
            val = gvv * (
                vv[j] * delta(i, k) + vv[i] * delta(j, k) + delta(i, j) * vv[k]
            ) - 5 * vv[i] * vv[j] * vv[k]
            out[(i, j, k)] = val
    return out


def test_h_matches_contraction_construction() -> None:
    rng = random.Random(7)
    for _ in range(50):
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        assert _full(hijk_from_v(v), _H_CLASS) == hijk_from_cubic_contraction(v)


def test_h_gradient_by_richardson_differences() -> None:
    # for a cubic polynomial (4 D(h/2) - D(h)) / 3 is the exact derivative;
    # the zero patterns are the ones the case checks sample
    rng = random.Random(8)
    base = [Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 5)) for _ in range(3)]
    for zero in ((), (1,), (2,), (2, 3), (1, 2, 3)):
        v = [Fraction(0) if m in zero else base[m - 1] for m in AXES]
        dh = _full(hijk_gradient(v), _DH_CLASS)
        h = Fraction(1, 3)
        for m in AXES:
            def shifted(step):
                w = list(v)
                w[m - 1] += step
                return _full(hijk_from_v(w), _H_CLASS)
            d_full = {k: (a - b) / (2 * h) for (k, a), b
                      in zip(shifted(h).items(), shifted(-h).values())}
            d_half = {k: (a - b) / h for (k, a), b
                      in zip(shifted(h / 2).items(), shifted(-h / 2).values())}
            for (j, k, l) in product(AXES, AXES, AXES):
                exact = (4 * d_half[(j, k, l)] - d_full[(j, k, l)]) / 3
                assert dh[(j, k, l, m)] == exact


# ---------------------------------------------------------------------------
# the numerator tables against the dense formulas of exact_oracle


ZERO_PATTERNS = [(), (1,), (2,), (2, 3), (1, 2, 3)]


def _assert_same(got, want) -> None:
    """Equal, and of the same type: the report writes a Fraction and a QSqrt3
    differently, so a rational value must not turn into a QSqrt3."""
    assert got == want and type(got) is type(want), (got, want)


def _assert_tables_match_dense(st_) -> None:
    """The h and dh numerator tables hold one integer per symmetry class, at
    its sorted index, and each over its scale (D^3, D^2) is the dense
    formula's value at every key of its class, with ==.  omega and the
    shifted connection over omega's scale, and every Codazzi row read by
    `codazzi_values`, match the dense formulas with == and have their type,
    with and without the state's zero components vanishing."""
    v = [v_of(st_)[m] for m in AXES]
    d = st_._D
    h_num, full_h = st_._point.h, dense_h(v)
    assert sorted(h_num) == sorted(set(_H_CLASS.values()))
    for key, rep in _H_CLASS.items():
        assert type(h_num[rep]) is int
        _assert_same(Fraction(h_num[rep], d ** 3), full_h[key])
    dh_num, full_dh = st_._point.dh, dense_dh(v)
    assert sorted(dh_num) == sorted(set(_DH_CLASS.values()))
    for key, rep in _DH_CLASS.items():
        assert type(dh_num[rep]) is int
        _assert_same(Fraction(dh_num[rep], d ** 2), full_dh[key])
    tables = dense_tables(st_)
    _, _, dense_om, dense_shifted = tables
    om, shifted = _omega_values(st_), _shifted_values(st_)
    for key in product(AXES, AXES, AXES):
        _assert_same(om[key], dense_om[key])
        _assert_same(shifted[key], dense_shifted[key])
    zeros = frozenset(m for m in AXES if v[m - 1] == 0)
    for vanishing in {frozenset(), zeros}:
        for i, j, k, l in product(AXES, AXES, AXES, AXES):
            got = codazzi_values(st_, codazzi_scalar(st_, i, j, k, l, vanishing))
            want = dense_scalar(st_, tables, i, j, k, l, vanishing)
            _assert_same(got.const, want.const)
            assert got.coeffs.keys() == want.coeffs.keys()
            for var, c in want.coeffs.items():
                _assert_same(got.coeffs[var], c)


#: Denominators of v, pairwise coprime, so D is their product (up to 504).
COPRIME_DENOMINATORS = ((7, 8, 9), (5, 8, 9), (4, 7, 9), (5, 7, 8), (2, 3, 5), (1, 1, 7))


def _coprime_states(seed: int, n: int) -> list[FrameState]:
    """Exact states whose three v denominators are pairwise coprime."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        dens = COPRIME_DENOMINATORS[len(out) % len(COPRIME_DENOMINATORS)]
        v = []
        for d in dens:
            num = rng.choice((-1, 1)) * rng.randint(1, 60)
            while math.gcd(num, d) != 1:
                num += 1
            v.append(Fraction(num, d))
        assert math.lcm(*(x.denominator for x in v)) == math.prod(dens)
        t1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        t2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        try:
            out.append(frame_state(v, rat_circle_point(t1), rat_circle_point(t2)))
        except ValueError:
            continue
    return out


def _axis_states(seed: int, n: int) -> list[FrameState]:
    """`case1_check`'s states: v = (v1, 0, 0) at v1 = 1, ..., 5 (D = 1), built
    with `at` from a sampled state with v2 = v3 = 0."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        st0 = random_frame_state(rng, require_ec=False, zero=(2, 3))
        out.extend(st0.at(_Point([x, 0, 0], 1)) for x in range(1, 6))
    return out


@pytest.mark.parametrize("zero", ZERO_PATTERNS)
def test_exact_tables_match_dense_formulas(zero) -> None:
    # 40 states per zero pattern, 200 in all
    rng = random.Random(30 + len(zero))
    for _ in range(40):
        st_ = random_frame_state(rng, require_ec=False, zero=zero)
        _assert_tables_match_dense(st_)
        # exact values do not depend on the order of the factors
        v, d = [v_of(st_)[m] for m in AXES], st_._D
        assert _class_values(st_._point.h, _H_CLASS, d ** 3) == dense_h(v)
        assert _class_values(st_._point.dh, _DH_CLASS, d ** 2) == dense_dh(v)


@pytest.mark.parametrize("states", [_coprime_states, _axis_states])
def test_exact_tables_match_dense_formulas_on_integer_edge_states(states) -> None:
    # the largest common denominator of v (504) and the smallest (1)
    for st_ in states(35, 24 if states is _coprime_states else 4):
        _assert_tables_match_dense(st_)


class _FloatRing:
    """The constants of exact_oracle's dense formulas, and a state's v and
    angle data, as doubles: with it the dense formulas run in float
    arithmetic, with no Fraction or QSqrt3 operation."""

    zero = 0.0
    third = 1 / 3
    sigma = 1 / (2 * math.sqrt(3))
    inv_sqrt3 = 1 / math.sqrt(3)

    @staticmethod
    def v(st_) -> dict[int, float]:
        return {m: float(x) for m, x in v_of(st_).items()}

    @staticmethod
    def cot(st_, a: int, b: int) -> float:
        return float(cot(st_, a, b))

    @staticmethod
    def sin2(st_, a: int, b: int) -> float:
        return float(sin2(st_, a, b))


def _dyadic_states(rng: random.Random, zero, n: int) -> list[FrameState]:
    """Exact states whose v entries are multiples of 1/8 in [-9, 9], 0 on
    `zero`: a double holds each entry, and every sum and product the h and
    dh formulas make of them, exactly."""
    out = []
    while len(out) < n:
        v = [Fraction(0) if m in zero else Fraction(rng.randint(-72, 72), 8) for m in AXES]
        t1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        t2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        try:
            out.append(frame_state(v, rat_circle_point(t1), rat_circle_point(t2)))
        except ValueError:
            continue
    return out


@pytest.mark.parametrize("zero", ZERO_PATTERNS)
def test_float_tables_match_dense_formulas_exactly(zero) -> None:
    # at dyadic v nothing rounds, so the float array `fit` reads, the dense
    # formulas evaluated in doubles and the exact tables read as doubles
    # agree with ==, at every key, permuted ones included
    rng = random.Random(40 + len(zero))
    for st_ in _dyadic_states(rng, zero, 8):
        fv = [float(v_of(st_)[m]) for m in AXES]
        assert all(fv[m - 1] == 0 for m in zero)
        d = st_._D
        h_float, dh_float = dense_h(fv), dense_dh(fv)
        fit_array = np.asarray(build_h_from_V(fv))
        h_exact = _class_values(st_._point.h, _H_CLASS, d ** 3)
        dh_exact = _class_values(st_._point.dh, _DH_CLASS, d ** 2)
        for i, j, k in product(AXES, AXES, AXES):
            want = float(h_exact[(i, j, k)])
            assert h_float[(i, j, k)] == want == fit_array[i - 1, j - 1, k - 1], (i, j, k)
        for key in product(AXES, AXES, AXES, AXES):
            assert dh_float[key] == float(dh_exact[key]), key


#: sha256 of `cmd_proof(trials=t, seed=s).to_json()`, keyed by (trials, seed).
#: Re-recorded when the constrained-angle case moved from mpmath on the
#: angle-constraint variety to exact states with free angles; the records of
#: the other five checks stayed byte-identical.
PROOF_DIGESTS = {
    (100, 1): "35a49bbb0e906e8e750354fb57370e149e2f2dd297c30f4cdd193ece5c73b920",
    (5, 4): "10624426f4eb2cfcfeca50f8057a8964b7b6f5ae7176ef2e1e8a93e9dde49e18",
    (10, 0): "bb863736f7881a0247cb842044bc97cf54ffb64e115e2f3f27893c5912361f65",
    (10, 1): "24fca3c358b28f487471da860578a6db5975965f9c3a662cc443924b7dc294b6",
    (10, 2): "e4515af795017e07b3ba42fe475f5b5dcd8760adfdf44c763c7b98ce83fea70f",
    (10, 3): "343f138fadca4b258d321bab0f51842c5afcb1d23c1365c77db9a321422764ee",
}


def test_proof_report_golden_digest() -> None:
    digests = {
        (trials, seed): hashlib.sha256(
            cmd_proof(trials=trials, seed=seed).to_json().encode()
        ).hexdigest()
        for trials, seed in PROOF_DIGESTS
    }
    assert digests == PROOF_DIGESTS


def _random_v(rng: random.Random) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in AXES]


def test_frame_state_angle_differences_match_angle_sub() -> None:
    # theta3 and three differences are built on integer triples; the reverse
    # pairs and the diagonal follow, and `at` states share them.  Each
    # triple must give the Fraction circle arithmetic's point, and the angle
    # numerators A sin 2(theta_a - theta_b)/3 its doubled-angle sine, on all
    # nine ordered pairs of 40 drawn states and 4 `at` states of each
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        p = rat_circle_point(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        q = rat_circle_point(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        try:
            st0 = frame_state(_random_v(rng), p, q)
        except ValueError:
            continue
        angles = {1: p, 2: q, 3: conjugate(angle_add(p, q))}
        for st_ in [st0] + [st0.at(_Point(*integers(_random_v(rng)))) for _ in range(4)]:
            assert angles_of(st_) == angles
            den, thirds = st_._angles.thirds
            for a, b in product(AXES, AXES):
                c, s, e = st_._angles.diffs[(a, b)]
                want = angle_sub(angles[a], angles[b])
                assert (Fraction(c, e), Fraction(s, e)) == (want.c, want.s)
                assert Fraction(3 * thirds[(a, b)], den) == 2 * want.s * want.c
                if a != b:
                    assert cot(st_, a, b) == want.c / want.s
            v1, v2, v3 = (v_of(st_)[m] for m in AXES)
            gate = Fraction(st_._point.ec, st_._D ** 2)
            assert gate == 4 * v1 ** 2 - 3 * (v2 ** 2 + v3 ** 2)
            checked += 1


def test_exact_states_are_drawn_without_fraction_arithmetic(monkeypatch) -> None:
    # a state may construct Fractions, one gcd each, but its circle points,
    # angle triples, cotangents, angle terms and ec gate stay on integers
    def refuse(*args, **kw):
        raise AssertionError("Fraction arithmetic while building a state")

    rng = random.Random(24)
    states = []
    with monkeypatch.context() as m:
        for name in ("add", "sub", "mul", "truediv", "pow"):
            m.setattr(Fraction, f"__{name}__", refuse)
            m.setattr(Fraction, f"__r{name}__", refuse)
        for _ in range(200):
            st0 = random_frame_state(rng)
            states.append(st0)
            states.extend(st0.at(_Point(*integers(_random_v(rng)))) for _ in range(4))
    assert len(states) == 1000
    assert all(ec_value(st_) != 0 for st_ in states[::5])


@pytest.mark.parametrize("zero", ZERO_PATTERNS)
def test_integer_draw_matches_the_fraction_draw(zero) -> None:
    # the draw straight into w, D and the half-angle triples makes the
    # Fraction draw's RNG calls in its order, and its states read back the
    # same v, angles and descriptions, with the same angle data; the
    # description, built from the integers, is the value view's
    kw = {"zero": zero, "nonzero": tuple(m for m in AXES if m not in zero)[:2]}
    for require_ec in (True, False):
        if require_ec and zero == (1, 2, 3):
            continue
        rng, ref_rng = random.Random(80 + len(zero)), random.Random(80 + len(zero))
        for _ in range(60):
            st_ = random_frame_state(rng, require_ec=require_ec, **kw)
            ref = exact_oracle.fraction_frame_state(ref_rng, require_ec=require_ec, **kw)
            assert rng.getstate() == ref_rng.getstate()
            assert st_.describe() == exact_oracle.describe(ref) == ref.describe()
            assert angles_of(st_) == angles_of(ref)
            assert (st_._w, st_._D) == (ref._w, ref._D)
            assert st_._angles.cotangents == ref._angles.cotangents
            assert st_._angles.thirds == ref._angles.thirds


def test_angle_tables_match_fraction_arithmetic() -> None:
    # the cotangent and angle-term numerators, reduced with gcd and lcm on
    # ints, are those of Fraction arithmetic: Q and A the lcm of the reduced
    # denominators, the same numerators, the reverse pairs negated and the
    # diagonal of the angle terms zero, at 3000 draws
    rng = random.Random(26)
    for _ in range(3000):
        angles = random_frame_state(rng, require_ec=False)._angles
        cots = {ab: Fraction(c, s) for ab, (c, s, _) in angles.diffs.items() if ab[0] != ab[1]}
        thirds = {ab: Fraction(2 * s * c, 3 * e * e) for ab, (c, s, e) in angles.diffs.items()}
        q = math.lcm(*(x.denominator for x in cots.values()))
        a = math.lcm(*(x.denominator for x in thirds.values()))
        assert angles.cotangents == (q, {ab: 6 * x * q for ab, x in cots.items()})
        assert angles.thirds == (a, {ab: x * a for ab, x in thirds.items()})
        assert all(type(x) is int for x in [*angles.cotangents[1].values(),
                                            *angles.thirds[1].values()])


# ---------------------------------------------------------------------------
# connection components


def test_omega_skew_in_last_two_slots() -> None:
    st_ = _state(1)
    om = _omega_values(st_)
    for i, j, k in product(AXES, AXES, AXES):
        assert om[(i, j, k)] == -om[(i, k, j)]
        assert om[(i, j, j)] == 0


def test_omega_spot_values() -> None:
    st_ = _state(2, zero=(3,))  # v3 = 0 kills the 5 v1 v2 v3 terms
    om = _omega_values(st_)
    assert om[(1, 2, 3)] == HALF_INV_SQRT3
    assert om[(2, 3, 1)] == HALF_INV_SQRT3
    st2 = frame_state(
        [Fraction(0), Fraction(1), Fraction(0)],
        rat_circle_point(Fraction(1, 3)),
        rat_circle_point(Fraction(1, 7)),
    )
    assert _omega_values(st2)[(1, 1, 2)] == -cot(st2, 1, 2)


def test_frame_relation_identity() -> None:
    rec = frame_relation_check(trials=100, seed=3)
    assert rec.passed and rec.samples == 100


# ---------------------------------------------------------------------------
# states


def test_state_rejects_equal_angles() -> None:
    p = rat_circle_point(Fraction(2, 5))
    with pytest.raises(ValueError):
        frame_state([Fraction(1), Fraction(1), Fraction(1)], p, p)


def test_random_state_honors_pins() -> None:
    rng = random.Random(4)
    for _ in range(20):
        st_ = random_frame_state(rng, require_ec=True, zero=(2,), nonzero=(1, 3))
        v = v_of(st_)
        assert v[2] == 0 and v[1] != 0 and v[3] != 0
        assert ec_value(st_) != 0


# ---------------------------------------------------------------------------
# Codazzi scalars


def test_components_affine_in_unknowns() -> None:
    # three-point collinearity: e((a+b)/2) = (e(a) + e(b)) / 2
    st_ = _state(5)
    rng = random.Random(6)
    comp = {
        (i, j, k, l): codazzi_values(st_, codazzi_scalar(st_, i, j, k, l))
        for (i, j), k, l in product(CANONICAL_PAIRS, AXES, AXES)
    }
    assert len(comp) == 27
    for key, e in list(comp.items())[:6]:
        a = {(i, m): Fraction(rng.randint(-5, 5)) for i, m in product(AXES, AXES)}
        b = {(i, m): Fraction(rng.randint(-5, 5)) for i, m in product(AXES, AXES)}
        mid = {k: (a[k] + b[k]) / 2 for k in a}
        lhs = _evaluate(e, mid, Fraction(0))
        rhs = (_evaluate(e, a, Fraction(0)) + _evaluate(e, b, Fraction(0))) / 2
        assert lhs == rhs


def test_repeated_direction_components_vanish_identically() -> None:
    for seed in range(4):
        st_ = _state(seed, require_ec=False)
        for i, k, l in product(AXES, AXES, AXES):
            e = codazzi_values(st_, codazzi_scalar(st_, i, i, k, l))
            assert e.const == 0
            assert all(c == 0 for c in e.coeffs.values())


def test_zero_v_rows_are_inconsistent() -> None:
    # at v = 0 the unknowns drop out but an angle term survives: no solution
    st_ = frame_state(
        [Fraction(0)] * 3,
        rat_circle_point(Fraction(1, 2)),
        rat_circle_point(Fraction(1, 5)),
    )
    e = codazzi_values(st_, codazzi_scalar(st_, 1, 2, 1, 2))
    assert all(c == 0 for c in e.coeffs.values())
    assert e.const == -Fraction(1, 3) * sin2(st_, 1, 2) != 0
    with pytest.raises(ValueError):
        solve_triple_system(st_, [(1, 2, 1)], [(1, 1)])


@given(small_fractions, small_fractions, small_fractions)
def test_affine_subst_matches_evaluation(a, b, c) -> None:
    e = AffineExpr(a, {(1, 1): b, (2, 2): c})
    sub = AffineExpr(Fraction(2), {(2, 2): Fraction(-1)})
    assignment = {(2, 2): Fraction(3, 2)}
    direct = _evaluate(subst(e, (1, 1), sub), assignment, Fraction(0))
    full = dict(assignment)
    full[(1, 1)] = _evaluate(sub, assignment, Fraction(0))
    assert direct == _evaluate(e, full, Fraction(0))


# ---------------------------------------------------------------------------
# the solver


def test_solver_keeps_free_vars_symbolic() -> None:
    st_ = _state(10, nonzero=(1, 2, 3))
    res = solve_values(solve_triple_system(
        st_,
        [(1, 2, k) for k in AXES],
        [(2, 1), (1, 2), (2, 2), (1, 3), (2, 3)],
        free_vars=[(1, 1)],
    ))
    assert not res.free and res.rank == 5 and res.n_rows == 9
    assert all(
        set(sol.coeffs) <= {(1, 1)} or
        all(c == 0 for v, c in sol.coeffs.items() if v != (1, 1))
        for sol in res.solutions.values()
    )
    for leftover in res.leftovers:
        assert leftover.const == 0
        assert all(c == 0 for c in leftover.coeffs.values())


def test_solver_reports_undetermined_unknowns() -> None:
    st_ = _state(11, zero=(1,), nonzero=(2, 3))
    res = solve_triple_system(
        st_, [(1, 2, 1)], [(2, 3), (1, 2), (2, 2), (1, 3)], frozenset({1})
    )
    assert res.free == [(1, 3)]
    assert res.rank == 3


def test_solver_solution_satisfies_rows() -> None:
    st_ = _state(12, nonzero=(1, 2, 3))
    res = solve_values(solve_triple_system(
        st_, [(1, 2, k) for k in AXES],
        [(2, 1), (1, 2), (2, 2), (1, 3), (2, 3)],
        free_vars=[(1, 1)],
    ))
    assignment = {(1, 1): Fraction(7, 3)}
    for var, sol in {**res.solutions, **res.extras}.items():
        assignment[var] = _evaluate(sol, assignment, Fraction(0))
    for k in AXES:
        for l in AXES:
            e = codazzi_values(st_, codazzi_scalar(st_, 1, 2, k, l))
            assert _evaluate(e, assignment, Fraction(0)) == 0


# ---------------------------------------------------------------------------
# the integer solve against the value-form oracle


#: (triples, unknowns, vanishing, free_vars) of every solve the checks make.
PROOF_SOLVES = {
    "system1/set1": (SET1_TRIPLES, SET1_UNKNOWNS, frozenset(), SHARED_FREE),
    "system1/set2": (SET2_TRIPLES, SET2_UNKNOWNS, frozenset(), SHARED_FREE),
    "case1": (((1, 2, 1),), ((2, 1), (1, 1)), frozenset({2, 3}), ()),
    "case2": (((1, 2, 1),), ((2, 3), (1, 2), (2, 2), (1, 3)), frozenset({1}), ()),
    "case3": (((1, 2, 1), (1, 2, 2)), CASE3_UNKNOWNS, frozenset({2}), ()),
}


def _typed(x):
    """A value with its type: the report writes a Fraction and a QSqrt3
    differently."""
    return type(x).__name__, x


def _expr_outcome(e):
    return _typed(e.const), {v: _typed(c) for v, c in e.coeffs.items() if c != 0}


def _solve_outcome(solve, st_, shape):
    try:
        res = solve(st_, *shape)
    except ValueError as e:
        return str(e)
    return (
        {u: _expr_outcome(e) for u, e in res.solutions.items()},
        {u: _expr_outcome(e) for u, e in res.extras.items()},
        [_expr_outcome(e) for e in res.leftovers],
        res.rank,
        res.n_rows,
        res.free,
    )


def _exact_solve(st_, *shape):
    """`solve_triple_system` with its numerators read into values."""
    return solve_values(solve_triple_system(st_, *shape))


def _oracle_mismatches(st_) -> list[str]:
    """The PROOF_SOLVES shapes where `solve_triple_system` and the oracle's
    value-form elimination give different results."""
    return [
        name for name, shape in PROOF_SOLVES.items()
        if _solve_outcome(_exact_solve, st_, shape)
        != _solve_outcome(oracle_solve, st_, shape)
    ]


@pytest.mark.parametrize("zero", ZERO_PATTERNS)
def test_exact_solves_match_dense_replay(zero) -> None:
    rng = random.Random(50 + len(zero))
    for _ in range(8):
        assert _oracle_mismatches(random_frame_state(rng, require_ec=False, zero=zero)) == []


@pytest.mark.parametrize("states", [_coprime_states, _axis_states])
def test_exact_solves_match_dense_replay_on_integer_edge_states(states) -> None:
    for st_ in states(55, 12 if states is _coprime_states else 2):
        assert _oracle_mismatches(st_) == []


def _float_replay_mismatches(st_, shape, rng: random.Random) -> list:
    """The rows of `shape` whose float replay disagrees with the exact solve.

    Every variable the solve leaves unpinned gets a random rational value,
    the solutions and extras are evaluated there exactly, and each dense row,
    built in doubles with `_FloatRing`, is evaluated there.  Sorted, the
    residuals must be `rank` zeros (the pivot rows) and the leftovers'
    values, to rounding: 1e-12 of the largest row's sum of absolute terms.
    """
    triples, unknowns, vanishing, free_vars = shape
    res = _exact_solve(st_, *shape)
    tables = dense_tables(st_, _FloatRing)
    rows = [
        dense_scalar(st_, tables, i, j, k, l, vanishing, _FloatRing)
        for i, j, k in triples for l in AXES
    ]
    solved = {**res.solutions, **res.extras}
    variables = {*unknowns, *free_vars, *(var for r in rows for var in r.coeffs)}
    assignment = {
        var: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for var in sorted(variables) if var not in solved
    }
    for var, e in solved.items():
        assignment[var] = _evaluate(e, assignment, Fraction(0))
    residuals, scale = [], 0.0
    for r in rows:
        terms = [r.const, *(c * float(assignment[var]) for var, c in r.coeffs.items())]
        residuals.append(math.fsum(terms))
        scale = max(scale, sum(abs(t) for t in terms))
    want = [0.0] * res.rank + [float(_evaluate(e, assignment, Fraction(0))) for e in res.leftovers]
    assert len(want) == res.n_rows == len(rows)
    return [
        (got, w) for got, w in zip(sorted(residuals), sorted(want))
        if not abs(got - w) <= 1e-12 * scale
    ]


@pytest.mark.parametrize("zero", ZERO_PATTERNS)
def test_float_solves_match_dense_replay(zero) -> None:
    # the exact solves against the dense rows replayed in doubles: a fault in
    # the Q(sqrt 3) arithmetic that the comparison with the value-form
    # oracle itself runs on (QSqrt3 ==, for one) cannot hide here.  Where
    # 4 v1^2 - 3 (v2^2 + v3^2) = 0 every solve must refuse the state
    rng = random.Random(60 + len(zero))
    replayed = 0
    for _ in range(8):
        st_ = random_frame_state(rng, require_ec=False, zero=zero)
        for name, shape in PROOF_SOLVES.items():
            if ec_value(st_) == 0:
                with pytest.raises(ValueError):
                    solve_triple_system(st_, *shape)
                continue
            assert _float_replay_mismatches(st_, shape, rng) == [], name
            replayed += 1
    # only v = 0 leaves nothing to replay
    assert replayed or zero == (1, 2, 3)


def test_case3_solves_match_the_oracle() -> None:
    # 60 states drawn as case3_check draws them: the four solutions and both
    # leftovers, with their types, are those of value-form elimination
    rng = random.Random(56)
    for _ in range(60):
        st_ = random_frame_state(rng, zero=(2,), nonzero=(1, 3))
        got = _solve_outcome(_exact_solve, st_, PROOF_SOLVES["case3"])
        assert got == _solve_outcome(oracle_solve, st_, PROOF_SOLVES["case3"])
        solutions, _, leftovers, rank, n_rows, free = got
        assert (len(solutions), len(leftovers), rank, n_rows, free) == (4, 2, 4, 6, [])


#: Per solve shape: states drawn as the check that makes the solve draws
#: them, n at a time; the axis case's five nodes per drawn angle pair.
SHAPE_STATES = {
    "system1/set1": lambda rng, n: _derivative_states(rng, n),
    "system1/set2": lambda rng, n: _derivative_states(rng, n),
    "case1": lambda rng, n: [
        st0.at(_Point([x, 0, 0], 1))
        for st0 in (random_frame_state(rng, require_ec=False, zero=(2, 3)) for _ in range(n // 5))
        for x in AXIS_NODES
    ],
    "case2": lambda rng, n: [random_frame_state(rng, zero=(1,), nonzero=(2, 3)) for _ in range(n)],
    "case3": lambda rng, n: [random_frame_state(rng, zero=(2,), nonzero=(1, 3)) for _ in range(n)],
}


@pytest.mark.parametrize("name", PROOF_SOLVES)
def test_solve_matches_the_row_by_row_reference(name) -> None:
    # the rows built straight into the matrix, in the shape's columns, give
    # the result of rows built one at a time through `codazzi_scalar` and
    # eliminated in the columns present at the state: every field, with its
    # flags, scales and dict order, at 60 states drawn as the check draws
    # them and 25 of each zero pattern, where a refused state must raise alike
    shape = PROOF_SOLVES[name]
    rng = random.Random(90)
    states = SHAPE_STATES[name](rng, 60)
    states += [random_frame_state(rng, require_ec=False, zero=z) for z in ZERO_PATTERNS
               for _ in range(25)]
    for st_ in states:
        if not st_._point.ec:
            for solve in (solve_triple_system, exact_oracle.row_by_row_solve):
                with pytest.raises(ValueError):
                    solve(st_, *shape)
            continue
        got, want = solve_triple_system(st_, *shape), exact_oracle.row_by_row_solve(st_, *shape)
        assert got == want and repr(got) == repr(want), st_.describe()


def _flip_first_constant(real):
    # both of the constant's columns, its rational and its sqrt(3) part
    def mutant(rows, order, irrational):
        rows = [list(r) for r in rows]
        rows[0][-2:] = [-rows[0][-2], -rows[0][-1]]
        return real(rows, order, irrational)
    return mutant


def _flip_first_solution(real):
    def mutant(rows, order, irrational):
        out = real(rows, order, irrational)
        first = next(iter(out.solved), None)
        if first is not None:
            out.solved[first] = [-x for x in out.solved[first]]
        return out
    return mutant


@pytest.mark.parametrize("mutate", [_flip_first_constant, _flip_first_solution])
def test_oracle_comparison_catches_a_mutant_solver(monkeypatch, mutate) -> None:
    # the oracle does not share the solver's rows or elimination, so a sign
    # flip in either shows up as a mismatch
    monkeypatch.setattr(
        codazzi, "eliminate_fraction_free", mutate(codazzi.eliminate_fraction_free)
    )
    rng = random.Random(50)
    mismatches = set()
    for _ in range(4):
        mismatches.update(_oracle_mismatches(random_frame_state(rng, nonzero=(1, 2, 3))))
    assert {"system1/set1", "system1/set2"} <= mismatches


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** c * m[0][c] * _det([row[:c] + row[c + 1:] for row in m[1:]])
        for c in range(len(m))
    )


def test_fraction_free_pivots_are_the_leading_minors() -> None:
    # leading minors 2, 2 and 4; pivot row k's entry in a column c it still
    # holds is the minor of rows 0..k and columns 0..k-1, c (Sylvester)
    rows = [[2, 1, 1, 3], [4, 3, 3, 5], [8, 7, 9, 1]]
    out = eliminate_fraction_free(rows, [0, 1, 2], [False] * 3)
    assert [prow[j] for j, prow in out.pivots] == [2, 2, 4]
    for k, (j, prow) in enumerate(out.pivots):
        for c in range(k, 4):
            assert prow[c] == _det([row[:k] + [row[c]] for row in rows[:k + 1]])
    assert (out.last, out.free, out.leftovers) == (4, [3], [])
    # last times the solution of A x + b = 0, on integers
    assert all(type(n) is int for nums in out.solved.values() for n in nums)
    x = {j: Fraction(nums[0], out.last) for j, nums in out.solved.items()}
    for row in rows:
        assert sum(row[j] * x[j] for j in range(3)) + row[3] == 0


def test_fraction_free_skips_empty_columns_and_keeps_leftovers() -> None:
    # column 1 vanishes once column 0 is eliminated, so 2 is pivoted next;
    # row 3 is row 1 + row 2 in its coefficients, so it is left over, at the
    # last pivot times its constant minus theirs: 3 (2 sqrt 3 - 6 - sqrt 3).
    # The constant takes two columns, its rational and its sqrt(3) part, and
    # rows 1 and 3 are flagged irrational
    rows = [[1, 2, 0, 1, 1], [2, 4, 3, 5, 0], [3, 6, 3, 0, 2]]
    out = eliminate_fraction_free(rows, [0, 1, 2], [True, False, True])
    assert [(j, prow[j]) for j, prow in out.pivots] == [(0, 1), (2, 3)]
    assert out.free == [1, 3, 4] and out.last == 3
    (leftover,) = out.leftovers
    assert leftover[0] == 0
    assert (leftover[1], leftover[2]) == (-18, 3)
    assert out.leftover_irrational == [True]
    # row 2 took row 1's flag in its update, so both solutions carry it
    assert out.solved_irrational == {0: True, 2: True}


def test_fraction_free_flags_follow_the_updates() -> None:
    # a row whose entry in the pivot column is zero is only rescaled and keeps
    # its own flag; a solution takes a later one's flag only where it reads it
    rows = [[1, 0, 1, 1], [0, 1, 2, 0], [1, 1, 0, 0]]
    out = eliminate_fraction_free(rows, [0, 1], [True, False, False])
    assert out.solved_irrational == {1: False, 0: True}
    assert out.leftover_irrational == [True]
    out = eliminate_fraction_free(rows, [1, 0], [True, False, False])
    assert out.solved_irrational == {0: True, 1: False}


#: QSqrt3's arithmetic, which a row build or an elimination must not reach.
QSQRT3_ARITHMETIC = (
    "__init__", "inverse", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


def test_exact_elimination_runs_no_field_arithmetic(monkeypatch) -> None:
    # the state's scales, the nine rows of a nine-row solve built from their
    # plans, and their elimination and back substitution build no Fraction
    # and touch no QSqrt3; those come only when the results are read.  The
    # scales, with the cotangents and angle terms, are computed under the
    # refusal too
    st_ = _state(10, nonzero=(1, 2, 3))

    def refuse(*args, **kw):
        raise AssertionError("field arithmetic inside the row build or the elimination")

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", refuse)
        for name in QSQRT3_ARITHMETIC:
            m.setattr(QSqrt3, name, refuse)
        rows = [codazzi_scalar(st_, i, j, k, l) for i, j, k in SET1_TRIPLES for l in AXES]
        present = sorted({v for r in rows for v, c in r.coeffs.items() if c})
        matrix = [[r.coeffs.get(v, 0) for v in present] + [r.const, r.root3] for r in rows]
        out = eliminate_fraction_free(
            matrix, range(len(present)), [r.irrational for r in rows]
        )
    assert all(type(x) is int for row in matrix for x in row)
    # at a generic state every row meets a connection factor with sqrt(3)
    assert all(r.irrational and r.root3 for r in rows)
    # rank 5: one of the six unknowns stays free, as D_11 does in the checks,
    # beside the constant's two columns
    assert len(out.pivots) == 5 and len(out.free) == 3
    assert all(type(prow[j]) is int for j, prow in out.pivots)


def _dh_off_by_one(real):
    # one dh numerator, d h_11^2 / d v_1 (one class), off by one: the rows
    # stay integer, so every division stays exact
    def mutant(v):
        dh = dict(real(v))
        dh[(1, 1, 2, 1)] = dh[(1, 1, 2, 1)] + 1
        return dh
    return mutant


def test_mutant_dh_numerator_fails_the_checks_as_records(monkeypatch) -> None:
    # the checks must report the wrong rows as failures
    monkeypatch.setattr(codazzi, "hijk_gradient", _dh_off_by_one(codazzi.hijk_gradient))
    for rec in (system1_check(seed=20, trials=10), case1_check(seed=22, trials=5)):
        assert not rec.passed and rec.failures, rec.check_id


def _replace_group(plan, h_class, **fields):
    """The plan with the group of h_class changed."""
    return plan._replace(groups=tuple(
        g._replace(**fields) if g.h_class == h_class else g for g in plan.groups
    ))


def test_mutant_plan_term_sign_fails_the_checks_as_records(monkeypatch) -> None:
    # the scalar (1, 2, 2, 1) reads h_12^2 (-omega_22^1 + omega_21^2) among
    # its products; with the first term's sign flipped, the rows stay integer
    # and every division exact, and both checks that solve rows of (E1,E2,E2)
    # must fail.  Both factors are nonzero at v2 = 0, so the constrained-angle
    # case sees it
    key, h_class = (1, 2, 2, 1), (1, 2, 2)
    plan = codazzi._PLANS[key]
    (group,) = [g for g in plan.groups if g.h_class == h_class]
    assert group.terms == ((-1, (2, 2, 1)), (1, (2, 1, 2))) and not group.irrational
    monkeypatch.setitem(
        codazzi._PLANS, key,
        _replace_group(plan, h_class, terms=((1, (2, 2, 1)), (1, (2, 1, 2)))),
    )
    records = (system1_check(seed=20, trials=10), case3_check(trials=5, seed=7))
    assert [r.check_id for r in records] == ["derivative-comparison", "constrained-angle-case"]
    for rec in records:
        assert not rec.passed and rec.failures, rec.check_id


def test_mutant_plan_without_a_sqrt3_flag_fails_the_type_check(monkeypatch) -> None:
    # in the scalar (1, 1, 2, 2) the products of h_12^3 with the shifted
    # connection S_13^2 come in with both signs: their sqrt(3) parts cancel,
    # and the value is the QSqrt3 zero.  A plan that drops that group's flag
    # gives the right value as a Fraction, and only the type check sees it
    key, h_class = (1, 1, 2, 2), (1, 2, 3)
    plan = codazzi._PLANS[key]
    (group,) = [g for g in plan.groups if g.h_class == h_class]
    assert group.irrational and (group.terms, group.by_sigma, group.by_inv) == ((), 0, 0)
    monkeypatch.setitem(codazzi._PLANS, key, _replace_group(plan, h_class, irrational=False))
    st_ = _state(10, nonzero=(1, 2, 3))
    got = codazzi_values(st_, codazzi_scalar(st_, *key)).const
    want = dense_scalar(st_, dense_tables(st_), *key).const
    assert got == want == 0 and (type(got), type(want)) == (Fraction, QSqrt3)
    with pytest.raises(AssertionError):
        _assert_tables_match_dense(st_)


def test_proof_replay_work_counts(monkeypatch) -> None:
    # the cheaper arithmetic must not come from fewer rows, solves or
    # samples.  Recorded with every table entry and zero coefficient
    # computed (39, 180, 15), and re-recorded when the constrained-angle case
    # became exact: it draws its 3 states with random_frame_state, makes one
    # 6-row solve each, and no longer builds 12 companion solves (36 rows) or
    # 3 rows of (E1,E2,E3) per state.  Every row, a solve's or a
    # substitution's, is built by the one row loop `_codazzi_rows`, which
    # counts the rows it is handed
    counts = dict.fromkeys(("solve_triple_system", "_codazzi_rows", "random_frame_state"), 0)
    for name in counts:
        def counted(*args, _real=getattr(codazzi, name), _name=name, **kw):
            counts[_name] += len(args[1]) if _name == "_codazzi_rows" else 1
            return _real(*args, **kw)

        monkeypatch.setattr(codazzi, name, counted)
    assert cmd_proof(trials=3, seed=3).passed
    assert counts == {"solve_triple_system": 27, "_codazzi_rows": 135, "random_frame_state": 18}


# ---------------------------------------------------------------------------
# the quartic bracket system


def _system2(v) -> list[list]:
    """The angle-sine system of the last case: rows pair with
    (sin 2(theta1-theta2), sin 2(theta1-theta3)), the second column carrying
    the displayed minus signs."""
    b1, b2, b3, b4 = codazzi._quartic_brackets(v)
    return [[b1, -b2], [b3, -b4]]


def test_system2_spot_matrices() -> None:
    assert _system2([1, 1, 1]) == [[22, -26], [26, -22]]
    assert _system2([0, 1, 0]) == [[0, -4], [3, -1]]


def test_det_product_spot_values() -> None:
    assert det_product_form([1, 0, 0]) == 0
    assert det_product_form([0, 1, 0]) == -12
    assert det_product_form([1, 1, 0]) == 24
    assert det_product_form([1, 1, 1]) == -192


def test_matrix_determinant_is_minus_product() -> None:
    rng = random.Random(13)
    for _ in range(50):
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        (a, nb), (c, nd) = _system2(v)
        assert a * nd - nb * c == -det_product_form(v)


# ---------------------------------------------------------------------------
# the case analysis


def test_system1_clearing_factor_is_single_constant() -> None:
    rec = system1_check(seed=20, trials=40)
    assert rec.passed
    want = "(-12/5) * |v|^6 * (4 v1^2 - 3 (v2^2 + v3^2))"
    assert rec.details["clearing_factors"] == {"K2": want, "K3": want}


def test_system1_seed_stability() -> None:
    a = system1_check(seed=21, trials=15)
    b = system1_check(seed=21, trials=15)
    assert a.as_dict() == b.as_dict()


def test_axis_case_builds_its_node_tables_once_per_call(monkeypatch) -> None:
    # h and dh at v = (x, 0, 0) depend on v alone: one call builds them for
    # the five nodes, whatever the trials, and the next call builds its own,
    # so a table builder patched between calls reaches every node
    counts = dict.fromkeys(("hijk_gradient", "hijk_from_v"), 0)
    for name in counts:
        def counted(*args, _real=getattr(codazzi, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(codazzi, name, counted)
    assert case1_check(seed=22, trials=20).passed
    assert counts == {"hijk_gradient": 5, "hijk_from_v": 5}
    assert case1_check(seed=22, trials=3).passed
    assert counts == {"hijk_gradient": 10, "hijk_from_v": 10}


def test_case1_forces_v1_zero() -> None:
    rec = case1_check(seed=22, trials=20)
    assert rec.passed
    assert rec.details["constraint"] == "(-1/sqrt(3)) v1^3 = 0"


def _off_at_five(real):
    # the axis case's leftover at v1 = 5 only: its constant numerator gains
    # its scale, so its value gains 1
    def mutant(st_, triples, unknowns, vanishing=frozenset(), free_vars=()):
        res = real(st_, triples, unknowns, vanishing, free_vars)
        if st_._w[0] == 5 * st_._D:
            (left,) = res.leftovers
            res.leftovers = [left._replace(const=left.const + left.const_den)]
        return res
    return mutant


def test_case1_probes_the_fifth_node(monkeypatch) -> None:
    # four nodes fix a cubic; a leftover that leaves -v1^3/sqrt(3) only at
    # the fifth node must still fail
    monkeypatch.setattr(codazzi, "solve_triple_system", _off_at_five(codazzi.solve_triple_system))
    rec = case1_check(seed=22, trials=3)
    assert not rec.passed
    assert len(rec.failures) == 3
    assert all(f["extra"]["v1"] == 5 for f in rec.failures)
    assert rec.details["nodes"] == ["1", "2", "3", "4", "5"]


def test_case2_displays_spot() -> None:
    # v2 = 1, v3 -> 0 limit of the displayed pair: (0, 3 + 12 sqrt(3) x),
    # held as (constant, sqrt(3) coefficient of x); D = 1, so w = v
    first, second = _case2_displays(1, 0)
    assert first == (0, 0)
    assert second == (3, 12)
    # the value-form displays of the oracle at a state with v = (0, 1, 0)
    st_ = frame_state(
        [Fraction(0), Fraction(1), Fraction(0)],
        rat_circle_point(Fraction(1, 4)),
        rat_circle_point(Fraction(2, 3)),
    )
    values = exact_oracle.case2_displays(st_)
    assert [(e.const, e.coeffs[(1, 3)]) for e in values] == [(0, 0), (3, QSqrt3(0, 12))]


def test_case2_resultant_positive_terms() -> None:
    # the sqrt(3) coefficient of the eliminant on w = D v, D^9 times its
    # value at v, which is the oracle's
    assert case2_resultant(1, 1) == -96
    assert case2_resultant(1, 0) == 0
    rng = random.Random(23)
    for _ in range(30):
        v2 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        v3 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        d = math.lcm(v2.denominator, v3.denominator)
        got = case2_resultant(int(v2 * d), int(v3 * d))
        assert got != 0
        assert QSqrt3(0, Fraction(got, d ** 9)) == exact_oracle.case2_resultant(v2, v3)


def test_case2_incompatibility() -> None:
    rec = case2_check(seed=24, trials=20)
    assert rec.passed
    assert rec.details["clearing_factor"] == "2 / (sqrt(3) (3 v2^2 + v3^2))"


def test_case3_closed_forms_spot() -> None:
    # v = (1, 0, 0): D23 = 1/(4 sqrt 3), D21 = 0, and no forcing leftover;
    # each form is sqrt(3) num / den, and D = 1
    n23, n21, den = case3_closed_forms(1, 0)
    assert Fraction(n23, den) == Fraction(1, 12) and n21 == 0
    assert case3_leftover(1, 0)[0] == 0
    # v = (0, 0, 1): -2 sqrt(3) / (3 * 3)
    assert Fraction(*case3_leftover(0, 1)) == Fraction(-2, 9)


def test_constrained_angle_satisfies_relation() -> None:
    # angles satisfy the constraint of the v2 = 0 case,
    # (v1^2 + v3^2) sin 2(th1 - th2) = v1^2 sin 2(th1 - th3), exactly where
    # F2 = 0: at v2 = 0, b3 = 4 (v1^2 + v3^2)^2 and b4 = 4 v1^2 (v1^2 + v3^2),
    # so F2 is 4 (v1^2 + v3^2) times the constraint, at every angle pair
    rng = random.Random(27)
    for _ in range(40):
        st_ = random_frame_state(rng, zero=(2,), nonzero=(1, 3))
        q1, q3 = v_of(st_)[1] ** 2, v_of(st_)[3] ** 2
        constraint = (q1 + q3) * sin2(st_, 1, 2) - q1 * sin2(st_, 1, 3)
        assert compat_form_2(st_) == 4 * (q1 + q3) * constraint


def test_case3_leftover_is_free_of_the_angles() -> None:
    # one v at many drawn angle pairs: the solutions move with the angles,
    # the forcing leftover does not
    rng = random.Random(28)
    v = [Fraction(3, 4), Fraction(0), Fraction(-5, 7)]
    leftovers, solutions = set(), set()
    for _ in range(12):
        st_ = random_frame_state(rng, zero=(2,), nonzero=(1, 3)).at(_Point(*integers(v)))
        res = _exact_solve(st_, *PROOF_SOLVES["case3"])
        assert res.leftovers[0].const == 0
        leftovers.add(res.leftovers[1].const)
        solutions.add(res.solutions[(1, 1)].const)
    assert leftovers == {exact_oracle.case3_leftover(v[0], v[2])}
    assert len(solutions) == 12


def test_case3_exact_flow() -> None:
    rec = case3_check(trials=25, seed=25)
    assert rec.passed and (rec.samples, rec.skipped) == (25, 0)
    # an exact record: nothing compared to a tolerance
    assert rec.tolerance is None and rec.max_residual is None
    assert rec.details["forces"] == "v3 = 0"


@pytest.mark.parametrize("seed,trials", [(7, 100), (8, 100), (9, 100), (1, 60), (2, 60), (3, 60)])
def test_case3_residuals_pinned(seed, trials) -> None:
    # `cmd_proof(seed=s)`'s configurations (sub-seed s + 6, 100 trials) and
    # `case3_check(seed=s)` at its own default (60 trials).  The residuals of
    # the six rows, their two leftovers, are pinned exactly at every drawn
    # state: one to 0, the other to the forcing leftover
    rec = case3_check(trials=trials, seed=seed)
    assert rec.passed and (rec.samples, rec.skipped, rec.failures) == (trials, 0, [])


def test_case3_fails_when_no_trial_reaches_the_variety(monkeypatch) -> None:
    # a draw that never gives v2 = 0 with v1 v3 != 0: every state is
    # skipped, and the check fails instead of passing on none
    real = codazzi.random_frame_state
    monkeypatch.setattr(
        codazzi, "random_frame_state", lambda rng, **kw: real(rng, zero=(2, 3), nonzero=(1,))
    )
    rec = case3_check(trials=3, seed=7)
    assert (rec.samples, rec.skipped) == (3, 3)
    assert not rec.passed
    assert rec.failures == [{"reason": "no state was checked"}]


def _off_by_one_d23(real):
    # D23 at w gains sqrt(3): its numerator gains the denominator 9 B
    def mutant(w1, w3):
        n23, n21, den = real(w1, w3)
        return n23 + den, n21, den
    return mutant


def _five_v1_d23(real):
    # 6 v1^4 becomes 5 v1^4 in the numerator of D23: it loses w1^5 over 9 B
    def mutant(w1, w3):
        n23, n21, den = real(w1, w3)
        return n23 - w1 ** 5, n21, den
    return mutant


@pytest.mark.parametrize("mutate", [_off_by_one_d23, _five_v1_d23])
def test_mutant_case3_closed_form_fails_the_check_as_a_record(monkeypatch, mutate) -> None:
    monkeypatch.setattr(codazzi, "case3_closed_forms", mutate(codazzi.case3_closed_forms))
    rec = case3_check(trials=5, seed=7)
    assert not rec.passed and len(rec.failures) == 5
    assert all(f["reason"] == "closed form mismatch" for f in rec.failures)


def test_case3_unpinned_derivative_fails_the_check_as_a_record(monkeypatch) -> None:
    # a solve that leaves D23 free must not pass on the other three
    real = codazzi.solve_triple_system

    def d23_free(*args, **kw):
        res = real(*args, **kw)
        del res.solutions[(2, 3)]
        res.free = [(2, 3)]
        return res

    monkeypatch.setattr(codazzi, "solve_triple_system", d23_free)
    rec = case3_check(trials=3, seed=7)
    assert not rec.passed
    assert [f["reason"] for f in rec.failures] == ["derivatives not pinned"] * 3 + [
        "no state was checked"
    ]


def _scaled_leftover(factor):
    # the forcing leftover's numerator times factor
    def make(real):
        def mutant(w1, w3):
            num, den = real(w1, w3)
            return num * factor, den
        return mutant
    return make


@pytest.mark.parametrize("factor", [Fraction(1, 2), Fraction(-1), 0])
def test_mutant_case3_leftover_fails_the_check_as_a_record(monkeypatch, factor) -> None:
    # -2 sqrt(3)/3 becomes -sqrt(3)/3, the opposite sign, or 0 (the leftover
    # the check would accept if it only asked for the rows to be consistent)
    monkeypatch.setattr(
        codazzi, "case3_leftover", _scaled_leftover(factor)(codazzi.case3_leftover)
    )
    rec = case3_check(trials=5, seed=7)
    assert not rec.passed and len(rec.failures) == 5
    assert all(
        f["reason"] == "leftovers are not 0 and the forcing leftover" for f in rec.failures
    )


def test_det_factorization_identity() -> None:
    rec = det_factorization_check(seed=26, trials=60)
    assert rec.passed
    assert rec.details["angle_parity"] is True


def _bracket_det(v):
    b1, b2, b3, b4 = codazzi._quartic_brackets(v)
    return b1 * b4 - b2 * b3


def _finite_difference(f, base, axis: int, order: int):
    """The forward difference of the given order of f along one axis."""
    total = 0
    for k in range(order + 1):
        x = list(base)
        x[axis] += k
        total += (-1) ** (order - k) * math.comb(order, k) * f(x)
    return total


@pytest.mark.parametrize("side", [_bracket_det, det_product_form])
def test_determinant_sides_have_degree_at_most_8_per_variable(side) -> None:
    # the grid proof rests on this bound: a 9th difference along an axis
    # vanishes everywhere exactly when the degree in that variable is <= 8,
    # and the 8th difference along v2 does not, so the bound is tight
    bases = ((0, 0, 0), (3, -2, 5), (-7, 11, 1), (13, 4, -9))
    for base in bases:
        for axis in range(3):
            assert _finite_difference(side, base, axis, 9) == 0, (base, axis)
    assert all(_finite_difference(side, base, 1, 8) != 0 for base in bases)


def test_mutant_det_product_form_fails_the_check_as_a_record(monkeypatch) -> None:
    # 3 (v2^2 + v3^2) in the last factor becomes 2 (v2^2 + v3^2)
    def mutant(v):
        q1, q2, q3 = v[0] * v[0], v[1] * v[1], v[2] * v[2]
        return 4 * (q2 + q3) * (q1 + q2 + q3) * (2 * q1 + q2 + q3) * (4 * q1 - 2 * (q2 + q3))

    monkeypatch.setattr(codazzi, "det_product_form", mutant)
    rec = det_factorization_check(seed=26, trials=10)
    assert not rec.passed
    assert rec.failures == [{"reason": "polynomial identity failed"}]


def test_det_factorization_counts_skipped_states() -> None:
    # one of the 100 states at this seed (run_all.py's default sub-seed) has
    # v2 = v3 = 0, where the determinant is not tested
    rec = det_factorization_check(seed=5, trials=100)
    assert rec.passed
    assert (rec.samples, rec.skipped) == (100, 1)


def test_det_factorization_fails_when_every_state_is_skipped() -> None:
    # the only state at this seed has v2 = v3 = 0; so has `proof --trials 1
    # --seed 11`, whose determinant sub-seed is 16
    rec = det_factorization_check(seed=16, trials=1)
    assert (rec.samples, rec.skipped) == (1, 1)
    assert not rec.passed
    assert rec.failures == [{"reason": "every sampled state was skipped"}]
    assert rec.details["nonvanishing_given_constraint"] is False
    report = cmd_proof(trials=1, seed=11)
    assert [r.check_id for r in report.records if not r.passed] == ["determinant-factorization"]


@pytest.mark.parametrize("which", [(0, 1), (0,), (1,)])
def test_case3_nan_closed_form_fails(monkeypatch, which) -> None:
    # every comparison with a NaN is False; the check must read that as a
    # mismatch, not as no mismatch.  The NaN replaces the numerator of D23,
    # of D21 or of both
    real = codazzi.case3_closed_forms

    def with_nan(w1, w3):
        out = list(real(w1, w3))
        for idx in which:
            out[idx] = math.nan
        return tuple(out)

    monkeypatch.setattr(codazzi, "case3_closed_forms", with_nan)
    rec = case3_check(trials=5, seed=7)
    assert not rec.passed and len(rec.failures) == 5
    assert all(f["reason"] == "closed form mismatch" for f in rec.failures)


def _stray_leftover(real):
    # one more leftover row, with the constant 1, in every solve
    def mutant(*args, **kw):
        res = real(*args, **kw)
        res.leftovers = [*res.leftovers, Numerators({}, 1, 0, False, 1, 1)]
        return res
    return mutant


def test_every_overdetermined_solve_asserts_its_leftovers(monkeypatch) -> None:
    # each check that solves an overdetermined system must fail as a record
    monkeypatch.setattr(
        codazzi, "solve_triple_system", _stray_leftover(codazzi.solve_triple_system)
    )
    records = (
        system1_check(seed=20, trials=5),
        case1_check(seed=22, trials=3),
        case2_check(seed=24, trials=5),
        case3_check(trials=5, seed=7),
    )
    assert [r.check_id for r in records] == [
        "derivative-comparison", "axis-case", "null-axis-case", "constrained-angle-case"
    ]
    for rec in records:
        assert not rec.passed and rec.failures, rec.check_id


#: The checks with the (seed, trials) each mutant below runs them at.
_ALL_CHECKS = (
    ("frame_relation_check", 3, 5), ("system1_check", 20, 10), ("case1_check", 22, 5),
    ("case2_check", 24, 5), ("det_factorization_check", 26, 5), ("case3_check", 7, 5),
)
_SOLVING_CHECKS = tuple(c for c in _ALL_CHECKS if c[0] not in (
    "frame_relation_check", "det_factorization_check"))

#: Per mutant: the codazzi function it replaces, how, and the checks it runs.
FAILURE_MUTANTS = {
    "dh-off-by-one": ("hijk_gradient", _dh_off_by_one, _ALL_CHECKS),
    "fifth-node": ("solve_triple_system", _off_at_five, (("case1_check", 22, 3),)),
    "d23-off-by-one": ("case3_closed_forms", _off_by_one_d23, (("case3_check", 7, 5),)),
    "d23-five-v1": ("case3_closed_forms", _five_v1_d23, (("case3_check", 7, 5),)),
    "leftover-half": ("case3_leftover", _scaled_leftover(Fraction(1, 2)), (("case3_check", 7, 5),)),
    "leftover-negated": ("case3_leftover", _scaled_leftover(-1), (("case3_check", 7, 5),)),
    "leftover-zero": ("case3_leftover", _scaled_leftover(0), (("case3_check", 7, 5),)),
    "stray-leftover": ("solve_triple_system", _stray_leftover, _SOLVING_CHECKS),
}

#: sha256 of each check's failures under each mutant, as the report writes
#: them (`jsonable`, canonical JSON), with two details blanked: the form of a
#: nonzero leftover constraint and the axis case's v1.  Recorded while the
#: checks still read their failure details through Fraction and QSqrt3
#: values; those two details changed form when the details came to be built
#: from the integers, and `test_failure_details_read_the_numerators` pins
#: their new form.  The eight case1_check and case3_check entries whose
#: failures compare a leftover or a solution with a closed form were
#: re-recorded when those failures came to give the closed form as
#: "expected" (before: dh-off-by-one/case3 1d19dc37, fifth-node fe0434b6,
#: d23-off-by-one and d23-five-v1 118821d8, the three leftover mutants
#: 1d878e8e, stray-leftover/case3 fb1d8af6); the others stayed.
FAILURE_DIGESTS = {
    "dh-off-by-one": {
        "frame_relation_check": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "system1_check": "e590960275af1c57bfb6df4580bc7107a13b3c21efcd59dd6cefac184e272452",
        "case1_check": "24329802ea2ee2a94f71d715dca11b8099c99812c7421fee0cbe7bd250050ccd",
        "case2_check": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "det_factorization_check": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "case3_check": "70a67dbb7e170da988786006f6993ffe29b27a7174a4d83d2af24f6fa57e851c",
    },
    "fifth-node": {
        "case1_check": "d9632cde6e879f48f150874eb30532dd7643170c98e784db147a894368880ac2",
    },
    "d23-off-by-one": {
        "case3_check": "0f0a25bc365b6515e95fd71db7a6c78f91f4bfd7016f2d55b8290b9a19317b50",
    },
    "d23-five-v1": {
        "case3_check": "d670fe00ac678ce716341df78e5445cee9bef0c2bf3d7efe0b0a5a2b795b2007",
    },
    "leftover-half": {
        "case3_check": "d5a16780f17107ad564674ddbd775ddf8d61ead00e11ca592d21e3b287ede8c0",
    },
    "leftover-negated": {
        "case3_check": "8f2336a995dfd89d11174cc11bdccf260f574c8e173bdf25ecf5200c07deebf3",
    },
    "leftover-zero": {
        "case3_check": "f199ff61baa2dad84ed1c2fc4bbb3cea983455bd3eafea112609e50e194f11f7",
    },
    "stray-leftover": {
        "system1_check": "e590960275af1c57bfb6df4580bc7107a13b3c21efcd59dd6cefac184e272452",
        "case1_check": "fed470414095208b5bfa2fc6bee049585ef217e5f93ef3922b25b02ae1a2754b",
        "case2_check": "98dd44fa1e428f96ad3c20bc290712c29eb399ce2224b7f86e11888342c2ff61",
        "case3_check": "88245bf2b1cd1b95a6872d88025c2c603947b155c17f2f2b0a01382366675d49",
    },
}


def _blanked(failures) -> list:
    out = jsonable(failures)
    for f in out:
        if f.get("reason") == "nonzero leftover constraint":
            f["extra"] = None
        elif f.get("reason") == "leftover is not -v1^3/sqrt(3)":
            f["extra"]["v1"] = None
    return out


def _mutant_failures(monkeypatch, mutant: str) -> dict:
    """Each check's failures under the mutant, as the report writes them."""
    attr, make, checks = FAILURE_MUTANTS[mutant]
    with monkeypatch.context() as m:
        m.setattr(codazzi, attr, make(getattr(codazzi, attr)))
        return {
            name: jsonable(getattr(codazzi, name)(seed=seed, trials=trials).failures)
            for name, seed, trials in checks
        }


@pytest.mark.parametrize("mutant", FAILURE_MUTANTS)
def test_failure_details_are_pinned(monkeypatch, mutant) -> None:
    got = {
        name: hashlib.sha256(json.dumps(_blanked(failures), sort_keys=True).encode()).hexdigest()
        for name, failures in _mutant_failures(monkeypatch, mutant).items()
    }
    assert got == FAILURE_DIGESTS[mutant]


def test_failure_details_read_the_numerators(monkeypatch) -> None:
    # the two details that `FAILURE_DIGESTS` blanks, in the form they take
    # from the integers: a nonzero leftover constraint as its constant (a
    # Fraction, or {"a", "b"} where it is flagged irrational) and its
    # coefficients, and the axis case's v1 as the int node
    leftovers = [
        f["extra"] for f in _mutant_failures(monkeypatch, "dh-off-by-one")["system1_check"]
    ]
    assert leftovers[0] == {"const": {"a": "0/1", "b": "0/1"}, "coeffs": {"(1, 1)": "1/1"}}
    assert leftovers[4] == {"const": "0/1", "coeffs": {"(1, 1)": "1/9"}}
    stray = _mutant_failures(monkeypatch, "stray-leftover")["system1_check"]
    assert [f["extra"] for f in stray] == [{"const": "1/1", "coeffs": {}}] * 5
    axis = _mutant_failures(monkeypatch, "fifth-node")["case1_check"]
    assert [f["extra"]["v1"] for f in axis] == [5] * 3


def test_failure_details_give_the_closed_form_compared_with(monkeypatch) -> None:
    # a failure that compares a leftover or a solution with a closed form
    # names that form as "expected", so mutants of the form differ
    assert FAILURE_DIGESTS["d23-off-by-one"] != FAILURE_DIGESTS["d23-five-v1"]
    leftover_mutants = ("leftover-half", "leftover-negated", "leftover-zero")
    assert len({FAILURE_DIGESTS[m]["case3_check"] for m in leftover_mutants}) == 3
    axis = _mutant_failures(monkeypatch, "fifth-node")["case1_check"]
    assert [f["extra"]["expected"] for f in axis] == [{"a": "0/1", "b": "-125/3"}] * 3
    # the expected values are the mutated closed forms at each failing state:
    # D23 + sqrt(3)/D, and the forcing leftover times the factor
    for mutant, factor in (("d23-off-by-one", None), ("leftover-half", Fraction(1, 2)),
                           ("leftover-negated", -1), ("leftover-zero", 0)):
        failures = _mutant_failures(monkeypatch, mutant)["case3_check"]
        assert len(failures) == 5
        for f in failures:
            v1, _, v3 = (Fraction(x) for x in f["state"]["v"])
            d = math.lcm(v1.denominator, v3.denominator)
            got = f["extra"]["expected"]
            if factor is None:
                d23, d21 = exact_oracle.case3_closed_forms(v1, v3)
                assert {k: Fraction(got[k]["b"]) for k in got} == {
                    "D23": d23.b + Fraction(1, d), "D21": d21.b}
            else:
                assert Fraction(got["b"]) == factor * exact_oracle.case3_leftover(v1, v3).b


# ---------------------------------------------------------------------------
# the integer verdicts against the value-form comparisons of exact_oracle


def _derivative_states(rng: random.Random, n: int) -> list[FrameState]:
    """States drawn as `system1_check` draws them, one kind after another."""
    kinds = ({"nonzero": (1, 2, 3)}, {"nonzero": (1, 2, 3)}, {"zero": (1,), "nonzero": (2, 3)},
             {"zero": (2,), "nonzero": (1, 3)}, {"zero": (3,), "nonzero": (1, 2)})
    return [random_frame_state(rng, require_ec=True, **kinds[k % 5]) for k in range(n)]


def _derivative_verdicts(st_) -> tuple:
    failed, pairs, dependent = codazzi._compare_derivatives(st_)
    pairs = [(label, var, failure, None if ratio is None else Fraction(*ratio))
             for label, var, failure, ratio in pairs]
    return failed, pairs, dependent


#: Per check: its integer verdict at one state, the value-form verdict of
#: exact_oracle, and a draw of states as the check makes them.
DIFFERENTIAL_CASES = {
    "derivative-comparison": (
        _derivative_verdicts, exact_oracle.compare_derivatives_values, _derivative_states,
    ),
    "axis-case": (
        lambda st0: codazzi._axis_case(st0, [_Point([x, 0, 0], 1) for x in AXIS_NODES]),
        exact_oracle.axis_case_values,
        lambda rng, n: [random_frame_state(rng, require_ec=False, zero=(2, 3)) for _ in range(n)],
    ),
    "null-axis-case": (
        codazzi._null_axis_case, exact_oracle.null_axis_case_values,
        lambda rng, n: [random_frame_state(rng, zero=(1,), nonzero=(2, 3)) for _ in range(n)],
    ),
    "constrained-angle-case": (
        codazzi._v2_zero_case, exact_oracle.v2_zero_case_values,
        lambda rng, n: [random_frame_state(rng, zero=(2,), nonzero=(1, 3)) for _ in range(n)],
    ),
}


def _verdicts_disagree(case: str, states) -> list:
    integer, values, _ = DIFFERENTIAL_CASES[case]
    return [st_.describe() for st_ in states if integer(st_) != values(st_)]


@pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
def test_integer_verdicts_match_the_value_forms(case) -> None:
    # at 60 states per case, drawn as the check draws them, every integer
    # comparison decides as the value-form comparison it replaced: the same
    # failures in the same order, the same clearing ratios and D_11 counts
    integer, values, draw = DIFFERENTIAL_CASES[case]
    states = draw(random.Random(70), 60)
    assert _verdicts_disagree(case, states) == []
    assert not any(_failed(case, integer(st_)) for st_ in states)


def _shift_leftover_constants(real):
    # every leftover's rational constant numerator gains the last pivot
    def mutant(rows, order, irrational):
        out = real(rows, order, irrational)
        for row in out.leftovers:
            row[-2] += out.last
        return out
    return mutant


def _shift_solution_constants(real):
    # in the solves whose input rows hash to an odd number (about half of
    # them), each solution's rational constant numerator gains the last
    # pivot, so the gap of two solves moves off its value; the choice
    # depends on the rows alone, so a solve repeated on the same state is
    # shifted alike
    def mutant(rows, order, irrational):
        out = real(rows, order, irrational)
        if hash(tuple(map(tuple, rows))) % 2:
            for nums in out.solved.values():
                nums[-2] += out.last
        return out
    return mutant


def _failed(case: str, verdict) -> bool:
    if case == "derivative-comparison":
        failed, pairs, _ = verdict
        return bool(failed) or any(failure for _, _, failure, _ in pairs)
    return bool(verdict)


@pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
def test_integer_verdicts_match_the_value_forms_on_mutant_solvers(monkeypatch, case) -> None:
    # solvers with a sign flipped or a leftover shifted make comparisons
    # fail; both sides read the same numerators, so they must fail alike,
    # and each case must see failures under some mutant
    integer, _, draw = DIFFERENTIAL_CASES[case]
    real = codazzi.eliminate_fraction_free
    failing = 0
    for mutate in (_flip_first_constant, _flip_first_solution, _shift_leftover_constants,
                   _shift_solution_constants):
        monkeypatch.setattr(codazzi, "eliminate_fraction_free", mutate(real))
        states = draw(random.Random(71), 12)
        assert _verdicts_disagree(case, states) == [], mutate.__name__
        failing += sum(_failed(case, integer(st_)) for st_ in states)
    assert failing


def test_unflagged_sqrt3_part_raises_when_handed_out(monkeypatch) -> None:
    # an elimination that loses the flags hands out a sqrt(3) part on a
    # solution not flagged irrational: the solve raises before any value
    real = codazzi.eliminate_fraction_free

    def unflagged(rows, order, irrational):
        out = real(rows, order, irrational)
        return out._replace(solved_irrational=dict.fromkeys(out.solved_irrational, False))

    monkeypatch.setattr(codazzi, "eliminate_fraction_free", unflagged)
    with pytest.raises(ArithmeticError):
        solve_triple_system(_state(10, nonzero=(1, 2, 3)), SET1_TRIPLES, SET1_UNKNOWNS)


def _count_value_forms(monkeypatch) -> dict:
    """Counters of QSqrt3 and CirclePoint constructions, installed."""
    counts = {"QSqrt3": 0, "CirclePoint": 0}
    for cls in (QSqrt3, CirclePoint):
        def counted(self, *args, _real=cls.__init__, _name=cls.__name__, **kw):
            counts[_name] += 1
            _real(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def _assert_counters_see_a_value_read(counts, seed: int) -> None:
    angles_of(_state(seed, nonzero=(1, 2, 3)))
    solve_values(solve_triple_system(_state(10, nonzero=(1, 2, 3)), SET1_TRIPLES, SET1_UNKNOWNS))
    assert counts["QSqrt3"] > 0 and counts["CirclePoint"] > 0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_passing_checks_build_no_value_forms(monkeypatch, seed) -> None:
    # the six checks decide on numerators: on passing seeds they construct
    # no QSqrt3 and no CirclePoint
    counts = _count_value_forms(monkeypatch)
    report = cmd_proof(trials=20, seed=seed)
    assert report.passed and len(report.records) == 6
    assert counts == {"QSqrt3": 0, "CirclePoint": 0}
    _assert_counters_see_a_value_read(counts, seed)


@pytest.mark.parametrize("mutant", FAILURE_MUTANTS)
def test_failing_checks_build_no_value_forms(monkeypatch, mutant) -> None:
    # a failure's details are built from the integers too: under each mutant
    # the checks fail, and construct no QSqrt3 and no CirclePoint
    counts = _count_value_forms(monkeypatch)
    failures = _mutant_failures(monkeypatch, mutant)
    assert any(failures.values())
    assert counts == {"QSqrt3": 0, "CirclePoint": 0}
    _assert_counters_see_a_value_read(counts, 0)
