"""The adapted-frame pass against its per-point reference.

`lagrangian._adapted_frames` builds the frames of every point of a package
in one pass.  Each point must get, bit for bit, what the per-point analysis
in `frame_reference` gives it, and the pass must refuse a package exactly
where the per-point loop refuses it, with the same message.
"""

import hashlib
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import frame_reference
from nkverify import cli, lagrangian
from nkverify.cli import FRAME_SAMPLE_POINTS
from nkverify.report import VerificationReport
from nkverify.lagrangian import (
    angle_functions,
    codazzi_residual,
    example_by_label,
    frame_components,
    is_lagrangian,
    lagrangian_suite,
    second_fundamental_form,
)
from test_lagrangian import _conjugation_immersion, _rotation_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's seeded curved immersion)

_FIELDS = (
    "frame", "thetas", "h", "omega", "H", "degenerate", "orientation",
    "frame_relation", "dtheta", "dtheta_max_abs",
)


def _curved(seed):
    rng = np.random.default_rng(seed)
    return workloads.curved_immersion(workloads.random_unit_quaternion(rng))


IMMERSIONS = {
    "factor_left": lambda: example_by_label("factor_left"),
    "factor_right": lambda: example_by_label("factor_right"),
    "diagonal": lambda: example_by_label("diagonal"),
    "rotation-graph": _rotation_graph,
    "conjugation": _conjugation_immersion,
    "curved-seed-1": lambda: _curved(1),
    "curved-seed-2": lambda: _curved(2),
    "curved-seed-3": lambda: _curved(3),
}

#: (points, package order): the suite's order-3 grids, and the structure
#: suite's frame points on the order-2 package of `frame_components`.
POINT_SETS = {
    "grid-1": (lambda imm: imm.domain.grid(1), 3),
    "grid-2": (lambda imm: imm.domain.grid(2), 3),
    "grid-3": (lambda imm: imm.domain.grid(3), 3),
    "frame-sample-points": (lambda imm: FRAME_SAMPLE_POINTS, 2),
}


def _frames(imm, us, order):
    """The pass on the package of the given order: through `frame_components`
    where that is the package it builds."""
    if order == 2:
        return frame_components(imm, us)
    return lagrangian._adapted_frames(lagrangian._Package(imm, us, order))


def _mismatches(got, want) -> list[str]:
    """The fields, by point, where the pass's record of arrays differs from
    the reference's per-point records, by np.array_equal."""
    assert sorted(got) == sorted(_FIELDS)
    assert all(len(values) == len(want) for values in got.values())
    return [
        f"{k}:{name}"
        for k, one in enumerate(want)
        for name in _FIELDS
        if not np.array_equal(got[name][k], getattr(one, name))
    ]


@pytest.mark.parametrize("points", POINT_SETS)
@pytest.mark.parametrize("name", IMMERSIONS)
def test_frame_pass_matches_the_per_point_reference(name, points):
    imm = IMMERSIONS[name]()
    rows, order = POINT_SETS[points]
    got = _frames(imm, rows(imm), order)
    want = frame_reference.adapted_frames(lagrangian._Package(imm, rows(imm), order))
    assert _mismatches(got, want) == []
    degenerate = got["degenerate"].tolist()
    assert degenerate == [not name.startswith(("conjugation", "curved"))] * len(got["frame"])


#: SHA-256 of the JSON report of `lagrangian_suite`'s records on the two
#: non-degenerate immersions, by grid: these reach the eigenframe gate of
#: angle-sum (`frame_relation_worst`, `dtheta_worst`, `dtheta_max_abs`),
#: which no built-in of the pipeline digests does.  Recorded while the frame
#: pass still handed the suite one object per point.
SUITE_DIGESTS = {
    ("conjugation", 2): "335535f6b0f6b2174f2ff24e6b69f3300dad57ab31a9b35c181a5139e980a627",
    ("conjugation", 3): "c67290cd8af8cc783e3e98dfd4a5f502177aff4743832e7615d2108241a13dc6",
    ("curved-seed-1", 2): "589fc67b0a001ba645e68f77773bb5ab5c20be6f8f13f133102dbe542a4483c3",
    ("curved-seed-1", 3): "7558407446941e2ce01627fc5d3043fced713245e511f7b95f60498958f2f324",
}


@pytest.mark.parametrize("name, grid", SUITE_DIGESTS, ids=lambda x: str(x))
def test_non_degenerate_suite_records_golden_digest(name, grid):
    records = lagrangian_suite(IMMERSIONS[name](), grid=grid)
    angle = [r for r in records if r.check_id.startswith("angle-sum[")]
    assert angle[0].details["degenerate_points"] == 0 and "dtheta_worst" in angle[0].details
    report = VerificationReport(list(records)).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == SUITE_DIGESTS[(name, grid)]


def _pair(thetas, rotation):
    """(A, B) with eigenvalues cos(2 theta), sin(2 theta) on the columns of
    the rotation."""
    cos2, sin2 = np.cos(2 * np.asarray(thetas)), np.sin(2 * np.asarray(thetas))
    return rotation @ np.diag(cos2) @ rotation.T, rotation @ np.diag(sin2) @ rotation.T


#: Angle triples by the clusters of A's eigenvalues they give: theta and
#: pi - theta share cos(2 theta), so B alone splits them.
LAYOUT_ANGLES = {
    "fully-degenerate": (0.7, 0.7, 0.7),
    "one-cluster-split-by-b": (0.5, math.pi - 0.5, 0.5),
    "cluster-(0,2)": (1.2, math.pi - 1.2, 0.3),
    "cluster-(1,3)": (0.4, math.pi - 0.4, 1.2),
    "degenerate-pair": (0.3, 0.3, 1.0),
    "non-degenerate": (0.3, 0.5, math.pi - 0.8),
}


def _mixed_stack():
    """Pairs of every layout, each under three rotations (the identity among
    them), plus cos(2 theta) ties within 1e-12 that sin(2 theta) orders."""
    rng = np.random.default_rng(25)
    rotations = [np.eye(3)] + [np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2)]
    pairs = [_pair(t, Q) for Q in rotations for t in LAYOUT_ANGLES.values()]
    s = math.sqrt(3.0) / 2
    for wobble in (1e-12, -1e-12, 0.0):
        pairs.append((np.diag([-0.5 + wobble, -0.5, 1.0]), np.diag([s, -s, 0.0])))
    A, B = map(np.array, zip(*pairs))
    return A, B


def test_batched_angle_functions_match_the_per_point_reference():
    A, B = _mixed_stack()
    ang = angle_functions(A, B)
    assert ang.thetas.shape == ang.cos2.shape == ang.sin2.shape == (len(A), 3)
    assert ang.coeffs.shape == A.shape and ang.degenerate.shape == (len(A),)
    for k in range(len(A)):
        one = frame_reference.angle_functions(A[k], B[k])
        assert tuple(ang.thetas[k].tolist()) == one.thetas, k
        assert ang.degenerate[k] == one.degenerate, k
        for field in ("coeffs", "cos2", "sin2"):
            assert np.array_equal(getattr(ang, field)[k], getattr(one, field)), (k, field)
    # every cluster layout of A's eigenvalues occurs, more than once each
    w = np.linalg.eigvalsh(A)
    shared = {run: len(rows) for run, rows in lagrangian._runs(w)}
    assert set(shared) == {(0, 3), (0, 2), (1, 3)} and min(shared.values()) > 1
    assert (len(A) - sum(shared.values())) > 1
    assert 0 < ang.degenerate.sum() < len(A)


def test_one_pair_keeps_its_shape():
    A, B = _mixed_stack()
    one = angle_functions(A[3], B[3])
    assert one.thetas.shape == (3,) and one.coeffs.shape == (3, 3) and one.degenerate.shape == ()
    assert np.array_equal(one.coeffs, angle_functions(A, B).coeffs[3])


#: A pair that is symmetric and commutes within 1e-6, but whose A
#: eigenvalues 0 and 1e-7 are farther apart than the cluster gap, so B is
#: never diagonalized inside their plane.
NOT_JOINTLY_DIAGONAL = (
    np.diag([0.0, 1e-7, 1.0]),
    np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
)
NAN_PAIR = (np.diag([math.nan, 1.0, 1.0]), np.zeros((3, 3)))
GOOD_PAIR = _pair((0.3, 0.5, 1.0), np.eye(3))
JOINT = "A and B could not be jointly diagonalized"
SYMMETRIC = "angle functions need symmetric commuting A, B"


def test_a_nan_pair_raises():
    # both gates compared with > 1e-6, which a NaN passes: the pair gave
    # theta = (nan, nan, nan) and no error
    with pytest.raises(ValueError, match=SYMMETRIC):
        angle_functions(*NAN_PAIR)
    with pytest.raises(ValueError, match=SYMMETRIC):
        frame_reference.angle_functions(*NAN_PAIR)


@pytest.mark.parametrize(
    "stack, message",
    [
        ((GOOD_PAIR, NOT_JOINTLY_DIAGONAL, NAN_PAIR), JOINT),
        ((GOOD_PAIR, NAN_PAIR, NOT_JOINTLY_DIAGONAL), SYMMETRIC),
        ((NOT_JOINTLY_DIAGONAL, GOOD_PAIR), JOINT),
        ((GOOD_PAIR, GOOD_PAIR, NAN_PAIR), SYMMETRIC),
    ],
    ids=["joint-then-nan", "nan-then-joint", "joint-first", "nan-last"],
)
def test_the_first_failing_pair_sets_the_message(stack, message):
    A, B = map(np.array, zip(*stack))
    with pytest.raises(ValueError) as batched:
        angle_functions(A, B)
    with pytest.raises(ValueError) as loop:
        for a, b in stack:
            frame_reference.angle_functions(a, b)
    assert str(batched.value) == str(loop.value) == message


def test_a_mutant_orientation_flip_fails_the_comparison():
    # the pass with its flip inverted, built from its own source
    source = inspect.getsource(lagrangian._adapted_frames)
    assert source.count("flip = probe > 0") == 1
    namespace = dict(vars(lagrangian))
    exec(source.replace("flip = probe > 0", "flip = probe < 0"), namespace)
    mutant = namespace["_adapted_frames"]
    for name in ("diagonal", "conjugation"):
        pkg = lagrangian._Package(IMMERSIONS[name](), FRAME_SAMPLE_POINTS, 2)
        frames = mutant(pkg)
        wrong = _mismatches(frames, frame_reference.adapted_frames(pkg))
        assert {w.split(":")[1] for w in wrong} >= {"frame", "h", "orientation"}
        assert all(frames["orientation"] > 0.1)


def _counted_angle_functions(monkeypatch) -> list:
    calls = []
    real = lagrangian.angle_functions

    def counted(A, B):
        calls.append(len(np.reshape(A, (-1, 3, 3))))
        return real(A, B)

    monkeypatch.setattr(lagrangian, "angle_functions", counted)
    return calls


@pytest.mark.parametrize("grid", [1, 2, 3])
@pytest.mark.parametrize("name", ["diagonal", "conjugation", "twisted-control"])
def test_one_angle_functions_call_per_suite(monkeypatch, name, grid):
    # none where the immersion fails the Lagrangian test
    calls = _counted_angle_functions(monkeypatch)
    imm = example_by_label(name) if name == "twisted-control" else IMMERSIONS[name]()
    lagrangian_suite(imm, grid=grid)
    assert calls == ([] if name == "twisted-control" else [grid**3])


def test_one_angle_functions_call_per_structure_frame_record(monkeypatch):
    # one pass over the points of all three built-ins
    calls = _counted_angle_functions(monkeypatch)
    cli.cmd_structure(samples=5, seed=0)
    assert calls == [len(FRAME_SAMPLE_POINTS) * len(cli.LAGRANGIAN_LABELS)]


@pytest.mark.parametrize(
    "reader", [frame_components, is_lagrangian, second_fundamental_form, codazzi_residual],
    ids=lambda f: f.__name__,
)
def test_an_empty_row_list_is_named(reader):
    with pytest.raises(ValueError, match="^diagonal: no parameter rows to evaluate$"):
        reader(example_by_label("diagonal"), [])
