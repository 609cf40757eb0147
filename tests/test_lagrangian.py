"""Lagrangian analyzer: built-in immersions, operators, angles, Codazzi."""

import hashlib
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fd_oracle
from exact_oracle import angles_of, dense_omega, v_of
from nkverify import lagrangian
from nkverify.cli import FRAME_SAMPLE_POINTS, cmd_lagrangian, graph_immersion
from nkverify.codazzi import _H_CLASS, hijk_from_v, random_frame_state
from nkverify.humfit import HARNESS_TOL, theorem_harness, theorem_shadow
from nkverify.jet import Jet
from nkverify.lagrangian import (
    EPSILON,
    SUITE_TOLS,
    TWIST_ROTATION,
    Box,
    Immersion,
    ab_operators,
    angle_functions,
    angle_sum_defect,
    builtin_examples,
    codazzi_residual,
    example_by_label,
    frame_components,
    is_lagrangian,
    lagrangian_suite,
    p_split_residual,
    relation_h_omega_residual,
    second_fundamental_form,
    suite_pass,
)
from nkverify.nkgeom import PointS3S3, TangentVector, g, norm
from nkverify.quat import ImaginaryQuaternion, Quaternion, dexp_im, exp_im

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's seeded curved immersion)

SQRT3 = math.sqrt(3.0)

SAMPLE_POINTS = [
    np.array([0.2, -0.35, 0.4]),
    np.array([-0.5, 0.1, -0.15]),
    np.array([0.0, 0.45, 0.3]),
]


def by_label(label):
    return example_by_label(label)


def test_epsilon_spots():
    assert EPSILON[0, 1, 2] == 1.0
    assert EPSILON[1, 0, 2] == -1.0
    assert EPSILON[2, 0, 1] == 1.0
    assert EPSILON[0, 0, 2] == 0.0


def test_builtin_examples_roster():
    labels = [imm.label for imm in builtin_examples()]
    assert labels == ["factor_left", "factor_right", "diagonal", "twisted-control"]
    # hyphen/underscore spellings both resolve
    assert example_by_label("factor-left").label == "factor_left"
    with pytest.raises(KeyError):
        example_by_label("nonsense")


def test_three_builtins_are_lagrangian():
    tol = SUITE_TOLS["lagrangian"]
    for label in ("factor_left", "factor_right", "diagonal"):
        imm = by_label(label)
        for u, residual in zip(SAMPLE_POINTS, is_lagrangian(imm, SAMPLE_POINTS)):
            assert residual < tol, (label, u, residual)
            assert residual < 1e-9


def test_twisted_control_is_not_lagrangian():
    imm = by_label("twisted-control")
    residuals = is_lagrangian(imm, SAMPLE_POINTS)
    assert residuals.shape == (len(SAMPLE_POINTS),)
    for residual in residuals:
        assert not residual < SUITE_TOLS["lagrangian"]
        assert residual > 0.1


def test_twist_rotation_is_orthogonal():
    assert np.allclose(TWIST_ROTATION @ TWIST_ROTATION.T, np.eye(3), atol=1e-14)
    assert abs(np.linalg.det(TWIST_ROTATION) - 1.0) < 1e-14


def test_factor_left_operators():
    # on a factor sphere P acts as -1/2 on tangents and J picks up -sqrt(3)/2
    imm = by_label("factor_left")
    [A], [B] = ab_operators(imm, [SAMPLE_POINTS[0]])
    assert np.allclose(A, -0.5 * np.eye(3), atol=1e-8)
    assert np.allclose(B, -(SQRT3 / 2) * np.eye(3), atol=1e-8)
    ang = angle_functions(A, B)
    assert ang.degenerate
    for t in ang.thetas:
        assert abs(t - 2 * math.pi / 3) < 1e-8
    assert angle_sum_defect(ang.thetas) < 1e-8  # 2*pi is a multiple of pi


def test_diagonal_operators():
    imm = by_label("diagonal")
    [A], [B] = ab_operators(imm, [SAMPLE_POINTS[1]])
    assert np.allclose(A, np.eye(3), atol=1e-8)
    assert np.allclose(B, np.zeros((3, 3)), atol=1e-8)
    ang = angle_functions(A, B)
    assert ang.degenerate
    assert max(min(t, math.pi - t) for t in ang.thetas) < 1e-8


def test_ab_structure_invariants():
    for label in ("factor_left", "factor_right", "diagonal"):
        imm = by_label(label)
        [A], [B] = ab_operators(imm, [SAMPLE_POINTS[0]])
        assert np.max(np.abs(A - A.T)) < 1e-8
        assert np.max(np.abs(B - B.T)) < 1e-8
        assert np.max(np.abs(A @ B - B @ A)) < 1e-8
        assert np.max(np.abs(A @ A + B @ B - np.eye(3))) < 1e-8
        [residual] = p_split_residual(imm, [SAMPLE_POINTS[0]])
        assert residual < 1e-8


def test_builtins_are_totally_geodesic():
    # h vanishes, so the mean curvature and every cubic component do too
    for label in ("factor_left", "factor_right", "diagonal"):
        imm = by_label(label)
        [c], [H] = second_fundamental_form(imm, [SAMPLE_POINTS[2]])
        assert norm(H) < 1e-5
        assert np.max(np.abs(c)) < 1e-5
        assert np.max(np.abs(c - c.transpose(1, 0, 2))) < 1e-5
        assert np.max(np.abs(c - c.transpose(0, 2, 1))) < 1e-5


def test_angle_recovery_synthetic():
    thetas = (0.3, 0.5, math.pi - 0.8)
    A = np.diag([math.cos(2 * t) for t in thetas])
    B = np.diag([math.sin(2 * t) for t in thetas])
    ang = angle_functions(A, B)
    assert not ang.degenerate
    assert sorted(ang.thetas) == pytest.approx(sorted(t % math.pi for t in thetas), abs=1e-10)
    assert list(ang.cos2) == sorted(ang.cos2)


def test_angle_order_breaks_cos_ties_by_sin():
    # theta = 2 pi/3 and pi/3 share cos(2 theta) = -1/2; roundoff in cos must
    # not decide their order, sin(2 theta) does
    s = math.sqrt(3.0) / 2
    for wobble in (1e-12, -1e-12, 0.0):
        ang = angle_functions(np.diag([-0.5 + wobble, -0.5, 1.0]), np.diag([s, -s, 0.0]))
        assert ang.sin2 == pytest.approx([-s, s, 0.0], abs=1e-15)
        assert ang.thetas == pytest.approx((2 * math.pi / 3, math.pi / 3, 0.0), abs=1e-12)


def test_angle_functions_rejects_noncommuting():
    A = np.diag([1.0, 0.5, -1.0])
    B = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        angle_functions(A, B)


def test_angle_functions_joint_cluster():
    # scalar A leaves the whole space as one cluster; B alone splits it
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    target = np.array([-0.4, 0.1, 0.9])
    B = Q @ np.diag(target) @ Q.T
    ang = angle_functions(0.5 * np.eye(3), B)
    assert np.allclose(ang.cos2, 0.5, atol=1e-12)
    assert np.allclose(ang.sin2, target, atol=1e-10)
    for row, s in zip(ang.coeffs, target):
        assert abs(float(row @ B @ row) - s) < 1e-10


def _points(record: dict) -> list[SimpleNamespace]:
    """The rows of a record of arrays, one namespace per point."""
    return [SimpleNamespace(**dict(zip(record, row))) for row in zip(*record.values())]


def test_frame_components_diagonal():
    [fc] = _points(frame_components(by_label("diagonal"), [SAMPLE_POINTS[0]]))
    assert fc.degenerate
    # the eigenframe checks do not run at a degenerate point
    assert fc.frame_relation == fc.dtheta == fc.dtheta_max_abs == 0.0
    assert fc.orientation < 1e-4
    assert np.max(np.abs(fc.omega + fc.omega.transpose(0, 2, 1))) < 1e-8
    assert np.max(np.abs(fc.h)) < 1e-5
    assert np.max(np.abs(fc.h - fc.h.transpose(1, 0, 2))) < 1e-6
    assert norm(fc.H) < 1e-5
    assert fc.frame.shape == (3, 6)
    for e in fc.frame:  # orthonormal after the orientation fix
        assert abs(norm(e) - 1.0) < 1e-10


def test_orientation_invariant_all_builtins():
    for label in ("factor_left", "factor_right", "diagonal"):
        [fc] = _points(frame_components(by_label(label), [SAMPLE_POINTS[1]]))
        assert fc.orientation < 1e-4, label


def _angle_gap(a, b):
    """Distances between two angle triples taken mod pi."""
    return np.abs((np.subtract(a, b) + math.pi / 2) % math.pi - math.pi / 2)


@pytest.mark.parametrize("label", ["factor_left", "factor_right", "diagonal", "conjugation"])
def test_frame_components_batch_matches_one_row_calls(label):
    # One package for all rows gives what one package per row gives, up to
    # roundoff.  Where all angles coincide (the built-ins) roundoff picks the
    # eigenframe inside the eigenspace, so the batch frame is Q times the
    # one-row frame for an orthogonal Q, and h, omega follow by Q; on the
    # conjugation immersion Q is the identity and the eigenframe fields agree.
    imm = _conjugation_immersion() if label == "conjugation" else by_label(label)
    batch = _points(frame_components(imm, FRAME_SAMPLE_POINTS))
    assert len(batch) == len(FRAME_SAMPLE_POINTS)
    close = {"rtol": 0, "atol": 1e-13}
    for fc, u in zip(batch, FRAME_SAMPLE_POINTS):
        [one] = _points(frame_components(imm, [u]))
        assert fc.degenerate == one.degenerate == (label != "conjugation")
        assert np.max(_angle_gap(fc.thetas, one.thetas)) < 1e-13
        Q = g(fc.frame[:, None], one.frame[None])
        np.testing.assert_allclose(Q @ Q.T, np.eye(3), **close)
        if not fc.degenerate:
            np.testing.assert_allclose(Q, np.eye(3), **close)
        np.testing.assert_allclose(fc.frame, Q @ one.frame, **close)
        np.testing.assert_allclose(fc.h, lagrangian._rotated(Q, one.h), **close)
        np.testing.assert_allclose(fc.omega, lagrangian._rotated(Q, one.omega), **close)
        np.testing.assert_allclose(fc.H, one.H, **close)
        assert fc.orientation == pytest.approx(one.orientation, abs=1e-15)
        for field in ("frame_relation", "dtheta", "dtheta_max_abs"):
            if fc.degenerate:
                assert getattr(fc, field) == getattr(one, field) == 0.0
            else:
                assert getattr(fc, field) == pytest.approx(getattr(one, field), abs=1e-13)


def test_row_readers_match_one_row_calls():
    # The readers work in the Gram-Schmidt frame, which the pushforward fixes
    # at every point, so one call over all rows gives each one-row result up
    # to roundoff, degenerate or not.
    imm = _conjugation_immersion()
    us = np.array(imm.domain.grid(3))
    readers = {
        "is_lagrangian": lambda rows: (is_lagrangian(imm, rows),),
        "second_fundamental_form": lambda rows: second_fundamental_form(imm, rows),
        "ab_operators": lambda rows: ab_operators(imm, rows),
        "p_split_residual": lambda rows: (p_split_residual(imm, rows),),
        "codazzi_residual": lambda rows: (codazzi_residual(imm, rows),),
    }
    for name, read in readers.items():
        batch = read(us)
        for k, u in enumerate(us):
            for got, one in zip(batch, read([u])):
                assert len(got) == len(us) and len(one) == 1, name
                np.testing.assert_allclose(got[k], one[0], rtol=0, atol=1e-13, err_msg=name)


def test_codazzi_residual_builtins():
    for label in ("factor_left", "factor_right", "diagonal"):
        [residual] = codazzi_residual(by_label(label), [SAMPLE_POINTS[0]])
        assert residual < 1e-4


def test_codazzi_refuses_non_lagrangian():
    with pytest.raises(ValueError):
        codazzi_residual(by_label("twisted-control"), [SAMPLE_POINTS[0]])


def test_second_fundamental_form_precondition():
    with pytest.raises(ValueError):
        second_fundamental_form(by_label("twisted-control"), [SAMPLE_POINTS[1]])


def test_relation_residual_against_exact_tables():
    # the exact module's h, omega and angles satisfy the frame relation by
    # construction, so the float residual must be pure roundoff
    for seed in range(5):
        st = random_frame_state(random.Random(seed))
        h_exact = hijk_from_v([v_of(st)[m] for m in (1, 2, 3)])
        om_exact = dense_omega(st)
        h = np.zeros((3, 3, 3))
        om = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    h[i, j, k] = float(h_exact[_H_CLASS[(i + 1, j + 1, k + 1)]])
                    om[i, j, k] = float(om_exact[(i + 1, j + 1, k + 1)])
        angles = angles_of(st)
        thetas = [math.atan2(float(angles[a].s), float(angles[a].c)) for a in (1, 2, 3)]
        assert relation_h_omega_residual(h, om, thetas) < 1e-12


def test_relation_residual_flags_wrong_omega():
    st = random_frame_state(random.Random(3))
    h_exact = hijk_from_v([v_of(st)[m] for m in (1, 2, 3)])
    h = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                h[i, j, k] = float(h_exact[_H_CLASS[(i + 1, j + 1, k + 1)]])
    angles = angles_of(st)
    thetas = [math.atan2(float(angles[a].s), float(angles[a].c)) for a in (1, 2, 3)]
    assert relation_h_omega_residual(h, np.zeros((3, 3, 3)), thetas) > 1e-3


def test_rank_guard():
    flat = Immersion(
        "flat",
        Box((-0.5,) * 3, (0.5,) * 3),
        lambda u: PointS3S3(Quaternion.one(), Quaternion.one()),
    )
    with pytest.raises(ValueError, match="rank-deficient"):
        is_lagrangian(flat, [np.zeros(3)])


@dataclass
class _AnalyticImmersion(Immersion):
    """An immersion with a hand-written jacobian (u -> three tangent vectors),
    which the finite-difference oracle uses instead of its stencil."""

    jacobian: Callable | None = None


def _diagonal_pair() -> tuple[Immersion, Immersion]:
    """The diagonal u -> (e^u, e^u), plain and with a dexp_im jacobian."""
    basis = [
        ImaginaryQuaternion(1.0, 0.0, 0.0),
        ImaginaryQuaternion(0.0, 1.0, 0.0),
        ImaginaryQuaternion(0.0, 0.0, 1.0),
    ]

    def jac(u):
        w = ImaginaryQuaternion.from_array(u)
        p = exp_im(w)
        pt = PointS3S3(p, p)
        ec = p.conjugate()
        out = []
        for e in basis:
            al = (ec * dexp_im(w, e)).imag
            out.append(TangentVector(pt, al, al))
        return out

    box = Box((-0.6,) * 3, (0.6,) * 3)
    numeric = Immersion("diag_n", box, lambda u: PointS3S3(exp_im(ImaginaryQuaternion.from_array(u)),
                                                           exp_im(ImaginaryQuaternion.from_array(u))))
    return numeric, _AnalyticImmersion("diag_a", box, numeric.map_fn, jacobian=jac)


def test_analytic_jacobian_matches_numeric():
    # the jet pushforward is the dexp_im jacobian up to roundoff; the
    # oracle's central differences agree within their truncation error
    numeric, analytic = _diagonal_pair()
    for u in SAMPLE_POINTS:
        jets = lagrangian._Package(numeric, u, 1).V[0]
        exact = analytic.jacobian(u)
        oracle = fd_oracle.pushforwards(numeric, u)[1][0]
        for x, y, z in zip(jets, exact, oracle):
            assert norm(x - y.components()) < 1e-14
            assert np.max(np.abs(x - z)) < 1e-9
        assert is_lagrangian(numeric, [u])[0] < 1e-15
        assert codazzi_residual(numeric, [u])[0] < 1e-14


def test_match_to_reference_recovers_permutation():
    reference = np.eye(3)
    scrambled = np.array([[0.0, -1.0, 0.05], [0.0, 0.05, 1.0], [1.0, 0.0, 0.0]])
    matched = fd_oracle.match_to_reference(scrambled, reference)
    assert matched[0, 0] > 0.9 or abs(matched[0, 0] - 1.0) < 0.2
    for i in range(3):
        assert np.dot(matched[i], reference[i]) > 0


def test_unwrap_angles():
    center = np.array([0.05, 1.5, 3.0])
    jumped = np.array([0.05 + math.pi, 1.5, 3.0 - 2 * math.pi])
    assert np.allclose(fd_oracle.unwrap(jumped, center), center, atol=1e-12)


def test_box_grid_and_contains():
    box = Box((-1.0, 0.0, 2.0), (1.0, 1.0, 3.0))
    pts = box.grid(2)
    assert len(pts) == 8
    assert all(np.all(p >= box.lo) and np.all(p <= box.hi) for p in pts)
    assert {tuple(p) for p in pts} == {
        (x, y, z) for x in (-1.0, 1.0) for y in (0.0, 1.0) for z in (2.0, 3.0)
    }


@pytest.mark.parametrize("n", [1, 2, 5])
def test_box_grid_is_the_product_of_the_axes_last_fastest(n):
    box = Box((-1.0, 0.0, 2.0), (1.0, 0.5, 3.0))
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(box.lo, box.hi)]
    want = [[a, b, c] for a in axes[0] for b in axes[1] for c in axes[2]]
    assert np.array_equal(box.grid(n), want) and box.grid(n).shape == (n**3, 3)


def test_angle_sum_defect_of_a_stack_is_each_triple_alone():
    rng = np.random.default_rng(28)
    thetas = np.concatenate([
        rng.uniform(0.0, math.pi, (2000, 3)),
        [[math.pi / 3] * 3, [0.0, 0.0, 0.0], [math.pi / 2, math.pi / 4, math.pi / 4]],
    ])
    want = []
    for triple in thetas.tolist():
        s = triple[0] + triple[1] + triple[2]
        want.append(abs(s - math.pi * round(s / math.pi)))
    assert np.array_equal(angle_sum_defect(thetas), want)


def test_lagrangian_suite_diagonal():
    records = lagrangian_suite(by_label("diagonal"), grid=2)
    assert [r.check_id.split("[")[0] for r in records] == [
        "lagrangian",
        "minimality",
        "cubic-symmetry",
        "ab-structure",
        "angle-sum",
        "orientation",
        "codazzi-residual",
    ]
    assert all(r.passed for r in records)
    assert all(r.status is None for r in records)
    angle = next(r for r in records if r.check_id.startswith("angle-sum"))
    # all points degenerate: no eigenframe residuals, details as before
    assert angle.details == {"degenerate_points": 8, "grid_points": 8}


def test_lagrangian_suite_skips_downstream_on_control():
    imm = by_label("twisted-control")
    [share] = suite_pass([imm], 2)
    records = lagrangian_suite(imm, grid=2, rows=share)
    assert not records[0].passed
    assert records[0].max_residual > 0.1
    assert share.c is None  # nothing for the theorem shadow to read
    for rec in records[1:]:
        assert rec.status == "skip"
        assert rec.passed


#: Codazzi residual of the conjugation immersion below at grid 2 when the
#: ambient connection came from chart finite differences; the closed-form
#: connection must not exceed it by more than 0.1%.
CHART_CODAZZI_RESIDUAL = 9.197168498026804e-06


def _conjugation_immersion():
    """u -> (e^u i e^-u, e^u j e^-u): Lagrangian with constant angles and
    |h| = sqrt(3/8), so every point takes the non-degenerate eigenframe path."""
    i = Quaternion(0.0, 1.0, 0.0, 0.0)
    j = Quaternion(0.0, 0.0, 1.0, 0.0)

    def conj_map(u):
        e = exp_im(ImaginaryQuaternion.from_array(u))
        ebar = e.conjugate()
        return PointS3S3(e * i * ebar, e * j * ebar)

    return Immersion("conjugation", Box((-0.4,) * 3, (0.4,) * 3), conj_map)


#: (passed, max_residual) of each record for the conjugation immersion at
#: grid 2, recorded when the analyzer moved from nested finite differences to
#: Taylor jets (the finite-difference values were 1.5e-11, 3.9e-9, 8.3e-9,
#: 2.2e-11, 1.5e-11, 1.4e-11, 9.2e-6 and 0.6123724398258565).  The
#: theorem-shadow value was re-recorded when the harness read h from one
#: package for the grid instead of one per point, which moved it in roundoff
#: (before: 0.6123724356957945; sqrt(3/8) = 0.61237243569579452...).
CONJUGATION_RECORDS = {
    "lagrangian[conjugation]": (True, 1.6653345369377348e-16),
    "minimality[conjugation]": (True, 1.3417853197544905e-16),
    "cubic-symmetry[conjugation]": (True, 4.3021142204224816e-16),
    "ab-structure[conjugation]": (True, 4.710958790503505e-16),
    "angle-sum[conjugation]": (True, 0.0),
    "orientation[conjugation]": (True, 3.671717528720129e-16),
    "codazzi-residual[conjugation]": (True, 4.615288235178178e-16),
    "theorem-shadow[conjugation]": (True, 0.6123724356957949),
}


def test_curved_immersion_suite_and_eigenframe_checks():
    imm = _conjugation_immersion()
    [share] = suite_pass([imm], 2)
    records = lagrangian_suite(imm, grid=2, rows=share)
    assert len(records) == 7
    assert all(r.passed and r.status is None for r in records)
    codazzi = next(r for r in records if r.check_id.startswith("codazzi-residual"))
    assert codazzi.max_residual <= 1.001 * CHART_CODAZZI_RESIDUAL
    # the suite's share holds its grid and cubic forms; the shadow of them
    # agrees with the standalone harness's in roundoff
    points, cs = share.points, share.c
    np.testing.assert_array_equal(points, imm.domain.grid(2))
    shadow = theorem_shadow(imm.label, points, cs, HARNESS_TOL)
    records.append(theorem_harness(imm, grid=2))
    got = {r.check_id: (r.passed, r.max_residual) for r in records}
    assert got == CONJUGATION_RECORDS
    assert shadow.details["fit_successes"] == records[-1].details["fit_successes"] == 0
    assert shadow.max_residual == pytest.approx(records[-1].max_residual, abs=1e-15)
    angle = records[4]
    assert angle.details["degenerate_points"] == 0
    for key in ("frame_relation_worst", "dtheta_worst"):
        assert 0.0 < angle.details[key] < 1e-7
    # the angles are constant, so the dtheta check compares zero with zero
    assert angle.details["dtheta_max_abs"] < 1e-12
    for fc in _points(frame_components(imm, imm.domain.grid(2))):
        assert not fc.degenerate
        assert fc.frame_relation > 0.0 and fc.dtheta > 0.0
        assert fc.frame_relation < 1e-5 and fc.dtheta < 1e-5
        h_norm = math.sqrt(float(np.sum(fc.h**2)))
        assert h_norm == pytest.approx(math.sqrt(3 / 8), abs=1e-6)


def test_lagrangian_report_golden_digest():
    # recorded when the analyzer moved from nested finite differences to
    # Taylor jets (before: f734b453...3492f2); re-recorded when the theorem
    # harness read h from one package for the grid instead of one per point,
    # which moved only theorem-shadow[diagonal]'s max_residual (2.93e-16 ->
    # 2.25e-16) and max_symmetry_defect (2.50e-16 -> 1.73e-16), in roundoff
    # (before: 09ea760d...7a9e70); re-recorded when cmd_lagrangian's shadow
    # read c from the suite's order-3 package instead of an order-2 one,
    # which moved only theorem-shadow[diagonal]'s max_residual (2.245e-16 ->
    # 2.365e-16) and max_symmetry_defect (1.73e-16 -> 1.67e-16), in roundoff
    # (before: 696c8ec5...a0061b)
    report = cmd_lagrangian(grid=2, seed=1).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "273c07564cd1840aa8fd4e71fb679b4b6d921e5c21845f9c95fb32e9d4101133"
    )


def _injected_checks(injected):
    """A stand-in for `_eigenfield_checks` that reports the frame relation
    and dtheta residuals injected, and 0.0 for the largest |E_i(theta_j)|,
    at every row it is given."""
    return lambda pkg, rows, *rest: tuple(np.full(len(rows), v) for v in injected + (0.0,))


@pytest.mark.parametrize(
    "injected", [(1e-3, 0.0), (0.0, 1e-3), (math.nan, 0.0), (0.0, math.nan)]
)
def test_angle_sum_gates_on_eigenframe_residuals(monkeypatch, injected):
    monkeypatch.setattr(lagrangian, "_eigenfield_checks", _injected_checks(injected))
    records = lagrangian_suite(_conjugation_immersion(), grid=1)
    angle = next(r for r in records if r.check_id.startswith("angle-sum"))
    assert not angle.passed
    assert angle.max_residual < angle.tolerance  # the angle sum itself is fine
    got = (angle.details["frame_relation_worst"], angle.details["dtheta_worst"])
    assert np.array_equal(got, injected, equal_nan=True)
    assert all(r.passed for r in records if r is not angle)


def test_zero_tolerance_passes_exact_zero_residuals():
    # factor_left's Lagrangian residual is exactly 0.0 at grid 2: at tol 0 it
    # passes, so every downstream check runs and passes exactly where its
    # worst residual is 0.0
    report = cmd_lagrangian(example="factor_left", grid=2, tol=0.0)
    records = {r.check_id: r for r in report.records}
    lag = records["lagrangian[factor_left]"]
    assert lag.max_residual == 0.0 and lag.passed
    assert all(r.status is None for r in records.values())
    for rec in records.values():
        if rec.tolerance == 0.0:
            assert rec.passed == (rec.max_residual == 0.0), rec.check_id
    assert records["theorem-shadow[factor_left]"].passed


def test_zero_tolerance_gates_angle_sum_on_exact_zeros(monkeypatch):
    build = lagrangian._Package.__init__

    def exactly_lagrangian(self, *args):
        build(self, *args)
        self.lagrangian_residual = np.zeros(len(self.us))

    monkeypatch.setattr(lagrangian._Package, "__init__", exactly_lagrangian)
    monkeypatch.setattr(lagrangian, "angle_sum_defect", lambda thetas: np.zeros(len(thetas)))
    for injected, passed in (((0.0, 0.0), True), ((0.0, 5e-324), False), ((math.nan, 0.0), False)):
        monkeypatch.setattr(lagrangian, "_eigenfield_checks", _injected_checks(injected))
        records = lagrangian_suite(_conjugation_immersion(), grid=1, tol=0.0)
        angle = next(r for r in records if r.check_id.startswith("angle-sum"))
        assert angle.status is None and angle.max_residual == 0.0
        assert angle.passed is passed, injected


@pytest.mark.parametrize(
    "target, check",
    [
        ("_codazzi", "codazzi-residual"),
        ("_p_split", "ab-structure"),
        ("angle_sum_defect", "angle-sum"),
    ],
)
def test_suite_nan_residual_fails_its_check(monkeypatch, target, check):
    def nan(first, *rest):  # at every point of a package, or of a stack of angles
        return np.full(len(first.us if isinstance(first, lagrangian._Package) else first), math.nan)

    monkeypatch.setattr(lagrangian, target, nan)
    records = lagrangian_suite(by_label("diagonal"), grid=1)
    rec = next(r for r in records if r.check_id.startswith(check))
    assert not rec.passed and math.isnan(rec.max_residual)
    assert all(r.passed for r in records if r is not rec)


def test_nan_lagrangian_residual_fails_and_skips_downstream(monkeypatch):
    build = lagrangian._Package.__init__

    def nan_residuals(self, *args):
        build(self, *args)
        self.lagrangian_residual = np.full(len(self.us), math.nan)

    monkeypatch.setattr(lagrangian._Package, "__init__", nan_residuals)
    assert not is_lagrangian(by_label("diagonal"), [SAMPLE_POINTS[0]])[0] < SUITE_TOLS["lagrangian"]
    records = lagrangian_suite(by_label("diagonal"), grid=1)
    assert not records[0].passed and math.isnan(records[0].max_residual)
    assert all(r.status == "skip" for r in records[1:])


@pytest.mark.parametrize("label", ["diagonal", "conjugation"])
def test_suite_evaluates_the_map_once_as_a_jet(monkeypatch, label):
    # one order-3 jet evaluation for the whole grid, and no float map calls
    calls = []
    point = Immersion.point
    monkeypatch.setattr(
        Immersion, "point", lambda self, u: calls.append(isinstance(u, Jet)) or point(self, u)
    )
    imm = _conjugation_immersion() if label == "conjugation" else by_label(label)
    lagrangian_suite(imm, grid=2)
    assert calls == [True]


#: Map evaluations per call of each reader, as jets over the whole grid:
#: `_checked_rows` runs `is_lagrangian` on an order-1 package before it
#: builds the reader's own package, while `frame_components` reads the
#: precondition from its own package.  The order-k package carries the same
#: residuals bit for bit, so the first four could read theirs too; that waits
#: until the benchmark's tracer test stops counting is_lagrangian calls.
READER_MAP_CALLS = {
    second_fundamental_form: 2,
    ab_operators: 2,
    p_split_residual: 2,
    codazzi_residual: 2,
    frame_components: 1,
}


@pytest.mark.parametrize("reader", READER_MAP_CALLS, ids=lambda f: f.__name__)
def test_each_reader_evaluates_the_map_as_jets(monkeypatch, reader):
    # a non-Lagrangian map raises after the precondition's one evaluation
    calls = []
    point = Immersion.point
    monkeypatch.setattr(
        Immersion, "point", lambda self, u: calls.append(isinstance(u, Jet)) or point(self, u)
    )
    imm = by_label("diagonal")
    reader(imm, imm.domain.grid(2))
    assert calls == [True] * READER_MAP_CALLS[reader]
    with pytest.raises(ValueError, match="not Lagrangian"):
        reader(by_label("twisted-control"), [SAMPLE_POINTS[1]])
    assert calls == [True] * (READER_MAP_CALLS[reader] + 1)


def _pushforward_reference(imm, u):
    """The TangentVector pushforward of the oracle: central differences
    left-translated with Quaternion products."""
    if getattr(imm, "jacobian", None):
        return imm.jacobian(u)
    h = fd_oracle.PUSHFORWARD_STEP
    base = imm.point(u)
    out = []
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        plus, minus = imm.point(u + e), imm.point(u - e)
        dp = Quaternion.from_array((plus.p.as_array() - minus.p.as_array()) / (2 * h))
        dq = Quaternion.from_array((plus.q.as_array() - minus.q.as_array()) / (2 * h))
        out.append(
            TangentVector(
                base,
                (base.p.conjugate() * dp).imag,
                (base.q.conjugate() * dq).imag,
            )
        )
    return out


def _gram_schmidt_reference(vecs):
    """The TangentVector Gram-Schmidt of the oracle."""
    out = []
    rows = np.zeros((3, 3))
    for a, v in enumerate(vecs):
        w = v
        comb = np.zeros(3)
        comb[a] = 1.0
        for b, e in enumerate(out):
            c = float(g(v.components(), e.components()))
            w = w - e.scaled(c)
            comb = comb - c * rows[b]
        n = float(norm(w.components()))
        out.append(w.scaled(1.0 / n))
        rows[a] = comb / n
    return out, rows


def _rotation_graph():
    R = lagrangian.rotation_matrix((0.3, -1.2, 0.8), 1.1)
    return graph_immersion(R, R, "rotation-graph", Box((-0.5,) * 3, (0.5,) * 3))


@pytest.mark.parametrize(
    "make",
    [
        lambda: by_label("diagonal"),
        _rotation_graph,
        _conjugation_immersion,
        lambda: _diagonal_pair()[1],
    ],
    ids=["diagonal", "rotation-graph", "conjugation", "analytic-jacobian"],
)
def test_frame_builder_matches_tangent_vector_path(make):
    # the oracle's batched builder reproduces the per-vector frames bit for bit
    imm = make()
    us = np.random.default_rng(11).uniform(-0.4, 0.4, (50, 3))
    E, S = fd_oracle.frames(imm, us)
    for u, Eu, Su in zip(us, E, S):
        vecs = _pushforward_reference(imm, u)
        frame, rows = _gram_schmidt_reference(vecs)
        assert np.array_equal(Eu, [e.components() for e in frame])
        assert np.array_equal(Su, rows)
    for u in us[:5]:
        got = fd_oracle.pushforwards(imm, u)[1][0]
        assert np.array_equal(got, [v.components() for v in _pushforward_reference(imm, u)])


_ONE = Quaternion.one()


def test_frame_builder_rank_guard():
    # a constant map becomes a constant jet, whose pushforward is zero
    flat = Immersion(
        "flat",
        Box((-0.5,) * 3, (0.5,) * 3),
        lambda u: PointS3S3(Quaternion.one(), Quaternion.one()),
    )
    with pytest.raises(ValueError, match="flat: pushforward rank-deficient"):
        lagrangian._Package(flat, np.zeros((2, 3)), 3)
    # a map of one parameter only
    line = Immersion(
        "line",
        flat.domain,
        lambda u: PointS3S3(exp_im(ImaginaryQuaternion(u[0], 0.0, 0.0)), _ONE),
    )
    with pytest.raises(ValueError, match="line: pushforward rank-deficient"):
        lagrangian._Package(line, np.zeros((1, 3)), 1)
    # a map that returns NaN fails the unit check of PointS3S3 on its jets,
    # before a pushforward exists
    nan_map = Immersion(
        "nan",
        flat.domain,
        lambda u: PointS3S3(exp_im(ImaginaryQuaternion.from_array(math.nan * u)), _ONE),
    )
    with pytest.raises(ValueError, match="not a unit quaternion"):
        lagrangian._Package(nan_map, np.zeros((1, 3)), 1)


def test_map_that_rejects_jets_is_named():
    def float_only(u):
        return PointS3S3(exp_im(ImaginaryQuaternion(math.sin(u[0]), u[1], u[2])), _ONE)

    imm = Immersion("float-only", Box((-0.5,) * 3, (0.5,) * 3), float_only)
    imm.point(np.zeros(3))  # a float argument is fine
    with pytest.raises(ValueError, match="float-only: the map does not take jet arguments"):
        lagrangian_suite(imm, grid=1)


#: Immersions whose jets are checked against the finite-difference oracle,
#: and whether they are Lagrangian (c, omega, H and dc mean nothing otherwise).
ORACLE_CASES = {
    "factor_left": True,
    "factor_right": True,
    "diagonal": True,
    "twisted-control": False,
    "rotation-graph": True,
    "conjugation": True,
    "curved-seed-1": True,
}

#: The oracle's truncation error: central differences at 1e-5 leave about
#: h^2 + eps/h = 1e-10 in the pushforward and frame; the Richardson frame
#: derivative at 1e-3 divides the frame error by 1e-3; dc, one more central
#: difference at 1e-3, adds h^2 times the third derivative of c.
ORACLE_BOUNDS = {"V": 1e-9, "E": 1e-9, "c": 1e-7, "omega": 1e-7, "H": 1e-7, "dc": 1e-4}


def _oracle_case(name):
    if name == "rotation-graph":
        return _rotation_graph()
    if name == "conjugation":
        return _conjugation_immersion()
    if name == "curved-seed-1":
        rng = np.random.default_rng(1)
        return workloads.curved_immersion(workloads.random_unit_quaternion(rng))
    return by_label(name)


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_jets_agree_with_the_finite_difference_oracle(name):
    imm = _oracle_case(name)
    us = np.random.default_rng(5).uniform(-0.4, 0.4, (3, 3))
    pkg = lagrangian._Package(imm, us, 3)
    keys = list(ORACLE_BOUNDS) if ORACLE_CASES[name] else ["V", "E"]
    for k, u in enumerate(us):
        oracle = fd_oracle.point_tables(imm, u)
        for key in keys:
            err = float(np.max(np.abs(getattr(pkg, key)[k] - oracle[key])))
            assert err < ORACLE_BOUNDS[key], (key, u, err)


@pytest.mark.parametrize("name", ["conjugation", "curved-seed-1"])
def test_eigenframe_rates_agree_with_the_finite_difference_oracle(name):
    # the closed-form perturbation of the eigenbasis against differences of
    # continuity-matched eigenframes
    imm = _oracle_case(name)
    us = np.random.default_rng(6).uniform(-0.4, 0.4, (3, 3))
    pkg = lagrangian._Package(imm, us, 3)
    ang = angle_functions(pkg.A, pkg.B)
    assert not ang.degenerate.any()
    rows, rotated = np.arange(len(us)), lagrangian._rotated(ang.coeffs, pkg.omega)
    omegas, derivs = lagrangian._eigenframe_rates(pkg, rows, ang.coeffs, ang, rotated)
    for k, u in enumerate(us):
        omega, deriv = omegas[k], derivs[k]
        omega_fd, deriv_fd = fd_oracle.eigenframe_rates(
            imm, u, ang.coeffs[k], pkg.S[k], ang.thetas[k]
        )
        assert np.max(np.abs(omega)) > 0.4  # the eigenbasis does rotate
        assert np.max(np.abs(omega - omega_fd)) < 1e-7
        assert np.max(np.abs(deriv - deriv_fd)) < 1e-7


_UNIT_QUATERNIONS = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 4)
    .filter(lambda v: math.hypot(*v) > 0.1)
    .map(lambda v: Quaternion(*v).normalized())
)


def _moved(imm, a, b, c):
    """imm followed by the isometry (p, q) -> (a p c*, b q c*)."""
    cbar = c.conjugate()

    def moved_map(u):
        x = imm.map_fn(u)
        return PointS3S3(a * x.p * cbar, b * x.q * cbar)

    return Immersion(imm.label, imm.domain, moved_map)


def _invariants(imm):
    u = imm.domain.grid(1)[0]
    records = lagrangian_suite(imm, grid=1) + [theorem_harness(imm, grid=1)]
    [c], [H] = second_fundamental_form(imm, [u])
    [A], [B] = ab_operators(imm, [u])
    thetas = angle_functions(A, B).thetas
    return records, float(np.linalg.norm(c)), float(norm(H)), thetas


@settings(max_examples=8, deadline=None, derandomize=True)
@given(a=_UNIT_QUATERNIONS, b=_UNIT_QUATERNIONS, c=_UNIT_QUATERNIONS)
def test_isometry_leaves_the_analysis_unchanged(a, b, c):
    for imm in (_conjugation_immersion(), _rotation_graph()):
        records, h_norm, H_norm, thetas = _invariants(imm)
        moved, h_moved, H_moved, thetas_moved = _invariants(_moved(imm, a, b, c))
        assert [(r.check_id, r.passed, r.status) for r in moved] == [
            (r.check_id, r.passed, r.status) for r in records
        ]
        assert h_moved == pytest.approx(h_norm, abs=1e-6)
        assert H_moved == pytest.approx(H_norm, abs=1e-6)
        # the same angles in the same order, each mod pi (0 and pi are one
        # angle, and roundoff picks either)
        for t, s in zip(thetas, thetas_moved):
            assert abs(math.remainder(t - s, math.pi)) < 1e-6
        for rec in moved:
            if rec.check_id.split("[")[0] in ("lagrangian", "codazzi-residual"):
                assert rec.max_residual < rec.tolerance
            if rec.check_id.startswith("codazzi-residual"):
                assert rec.max_residual <= 1e-10
