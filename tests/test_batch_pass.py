"""One analysis pass for several immersions against each immersion alone.

`lagrangian.suite_pass` and `lagrangian.frame_pass` analyse several
immersions in one frame package: each map is evaluated once, the jets are
concatenated, and one adapted-frame pass and one set of residual arrays
cover every row.  Each immersion must get, bit for bit, what it gets alone,
and every error must be the one it raises alone, in manifest order.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from nkverify import cli, lagrangian
from nkverify.cli import FRAME_SAMPLE_POINTS, LAGRANGIAN_LABELS, cmd_lagrangian, main
from nkverify.lagrangian import (
    Box,
    Immersion,
    example_by_label,
    frame_components,
    frame_pass,
    lagrangian_suite,
    suite_pass,
)
from nkverify.nkgeom import PointS3S3
from nkverify.quat import ImaginaryQuaternion, Quaternion, exp_im
from test_frame_pass import _mismatches
from test_lagrangian import _conjugation_immersion

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's geodesic manifest)


@pytest.fixture
def roster(tmp_path):
    """The benchmark's geodesic manifest at seed 1 (the built-ins, the
    twisted control and a seeded rotation graph), then the conjugation
    immersion, whose points are all non-degenerate."""
    manifest = workloads.PARTS["geodesic"].build(1, tmp_path)["manifest"]
    return cli.load_manifest(manifest) + [_conjugation_immersion()]


def _package_mismatches(batch, part, alone) -> list[str]:
    return [
        key for key, value in vars(alone).items()
        if isinstance(value, np.ndarray) and not np.array_equal(getattr(batch, key)[part], value)
    ]


@pytest.mark.parametrize("grid", [1, 2, 3])
def test_each_immersion_is_bit_identical_alone_and_batched(roster, grid):
    assert "twisted-control" in [imm.label for imm in roster]
    points = [imm.domain.grid(grid) for imm in roster]
    batch = lagrangian._Package(roster, points, 3)
    shares = suite_pass(roster, grid)
    for imm, rows, part, share in zip(roster, points, batch.segments, shares):
        alone = lagrangian._Package(imm, rows, 3)
        assert _package_mismatches(batch, part, alone) == [], imm.label
        want = lagrangian_suite(imm, grid=grid)
        got = lagrangian_suite(imm, grid=grid, rows=share)
        assert [vars(r) for r in got] == [vars(r) for r in want], imm.label
        if want.cubic is None:
            assert imm.label == "twisted-control" and got.cubic is None
            assert share.frames is None and share.residuals is None
            continue
        assert all(np.array_equal(x, y) for x, y in zip(got.cubic, want.cubic)), imm.label
        [own] = suite_pass([imm], grid)
        assert _mismatches(share.frames, own.frames) == [], imm.label


def test_frame_pass_is_bit_identical_to_each_immersion_alone():
    imms = [example_by_label(label) for label in LAGRANGIAN_LABELS] + [_conjugation_immersion()]
    frames = frame_pass(imms, FRAME_SAMPLE_POINTS)
    assert len(frames) == len(imms)
    for imm, got in zip(imms, frames):
        assert _mismatches(got, frame_components(imm, FRAME_SAMPLE_POINTS)) == [], imm.label


def test_one_package_and_one_angle_functions_call_per_lagrangian_command(monkeypatch):
    # each map once, one frame pass over the Lagrangian rows of all three
    angle_calls, packages = [], []
    angle_functions, build = lagrangian.angle_functions, lagrangian._Package.__init__

    def counted_angles(A, B):
        angle_calls.append(len(np.reshape(A, (-1, 3, 3))))
        return angle_functions(A, B)

    def counted_build(self, *args):
        packages.append(args)
        build(self, *args)

    monkeypatch.setattr(lagrangian, "angle_functions", counted_angles)
    monkeypatch.setattr(lagrangian._Package, "__init__", counted_build)
    assert cmd_lagrangian(grid=2).passed
    assert angle_calls == [8 * len(LAGRANGIAN_LABELS)] and len(packages) == 1


_FLAT_BOX = Box((-0.5,) * 3, (0.5,) * 3)
_ONE = Quaternion.one()


def _flat(label):
    """A constant map: its pushforward is zero at every row."""
    return Immersion(label, _FLAT_BOX, lambda u: PointS3S3(_ONE, _ONE))


def _float_only(label):
    """A map that takes no jet argument."""

    def chart(u):
        return PointS3S3(exp_im(ImaginaryQuaternion(math.sin(u[0]), u[1], u[2])), _ONE)

    return Immersion(label, _FLAT_BOX, chart)


def _alone_error(imm, grid) -> str:
    with pytest.raises(ValueError) as info:
        lagrangian_suite(imm, grid=grid)
    return str(info.value)


@pytest.mark.parametrize(
    "entries, first",
    [
        (["diagonal", "flat-a", "flat-b"], "flat-a"),
        (["flat-a", "float-only"], "flat-a"),
        (["diagonal", "float-only", "flat-a"], "float-only"),
    ],
)
def test_the_first_failing_entry_sets_the_error(monkeypatch, capsys, entries, first):
    # a rank failure and a map that refuses jets, in manifest order, with
    # the one-line message the failing entry raises alone
    make = {"flat-a": _flat, "flat-b": _flat, "float-only": _float_only}
    imms = [make[e](e) if e in make else example_by_label(e) for e in entries]
    want = _alone_error(imms[entries.index(first)], 2)
    assert want.startswith(f"{first}: ")
    with pytest.raises(ValueError) as info:
        suite_pass(imms, 2)
    assert str(info.value) == want
    monkeypatch.setattr(cli, "load_manifest", lambda path: imms)
    assert main(["lagrangian", "--manifest", "roster.json", "--grid", "2"]) == 2
    assert capsys.readouterr().err == f"nkverify: error: {want}\n"


def _refuse_non_degenerate(monkeypatch) -> str:
    """angle_functions patched to raise on any stack that holds a
    non-degenerate pair, as it raises on a pair it cannot diagonalize;
    returns its message."""
    message = "angle functions need symmetric commuting A, B"
    real = lagrangian.angle_functions

    def refuse(A, B):
        ang = real(A, B)
        if not np.all(ang.degenerate):
            raise ValueError(message)
        return ang

    monkeypatch.setattr(lagrangian, "angle_functions", refuse)
    return message


def test_a_refused_frame_pass_fails_only_its_own_immersion(monkeypatch):
    message = _refuse_non_degenerate(monkeypatch)
    imms = [example_by_label("diagonal"), _conjugation_immersion(), example_by_label("factor_left")]
    shares = suite_pass(imms, 2)
    assert [s.frame_error for s in shares] == [None, message, None]
    for imm, share in zip(imms, shares):
        want = lagrangian_suite(imm, grid=2)
        got = lagrangian_suite(imm, grid=2, rows=share)
        assert [vars(r) for r in got] == [vars(r) for r in want], imm.label
    failed = [r.check_id for r in lagrangian_suite(imms[1], grid=2, rows=shares[1]) if not r.passed]
    assert failed == ["angle-sum[conjugation]", "orientation[conjugation]"]
