"""Tests for the command-line suites: reports, exit codes, files, determinism."""

import json
import math

import numpy as np
import pytest

from nkverify import cli
from nkverify.cli import (
    LAGRANGIAN_LABELS,
    cmd_fit,
    cmd_lagrangian,
    cmd_proof,
    cmd_structure,
    load_manifest,
    main,
)
from nkverify.humfit import COMPONENT_KEYS, build_h_from_V, theorem_harness
from nkverify.lagrangian import example_by_label

STRUCTURE_IDS = [
    "frame-g-form",
    "g-antisymmetry",
    "g-vanishing-diagonal",
    "j-isometry",
    "j-squared",
    "jp-anticommute",
    "metric-forms-agree",
    "p-squared",
]

PROOF_IDS = [
    "axis-case",
    "constrained-angle-case",
    "derivative-comparison",
    "determinant-factorization",
    "frame-relation",
    "null-axis-case",
]


def _tensor_file(tmp_path, V, name="tensor.json"):
    path = tmp_path / name
    path.write_text(build_h_from_V(V).to_json())
    return str(path)


def _counted_examples(monkeypatch) -> list[str]:
    """Labels of the built-in maps cli evaluates, one entry per map call."""
    calls = []
    real_example = cli.example_by_label

    def counted_example(label):
        imm = real_example(label)
        imm.map_fn = lambda u, fn=imm.map_fn: calls.append(imm.label) or fn(u)
        return imm

    monkeypatch.setattr(cli, "example_by_label", counted_example)
    return calls


# ---------------------------------------------------------------------------
# structure


def test_structure_report_passes_with_expected_records() -> None:
    report = cmd_structure(samples=60, seed=1)
    assert report.passed
    assert [r.check_id for r in report.sorted_records()] == STRUCTURE_IDS
    assert report.meta["g_samples"] == 12
    for rec in report.records:
        assert rec.samples > 0
        assert math.isfinite(rec.max_residual)


def test_structure_impossible_tolerance_fails_with_finite_residuals() -> None:
    report = cmd_structure(samples=40, seed=2, tol=1e-30)
    assert not report.passed
    by_id = {r.check_id: r for r in report.records}
    assert not by_id["j-squared"].passed
    assert not by_id["frame-g-form"].passed
    # the exact involution really does hit zero, so it survives any tol > 0
    assert by_id["p-squared"].passed
    assert all(math.isfinite(r.max_residual) for r in report.records)


def _nan_at_middle_sample(fn):
    """fn with its per-sample output set to NaN at sample 1 of 3."""

    def patched(*args):
        out = np.array(fn(*args), dtype=float)
        out[1] = math.nan
        return out

    return patched


def test_structure_nan_residuals_fail_their_checks(monkeypatch) -> None:
    # a NaN at one middle sample survives the reduction over all samples, so
    # the check fails and reports it
    monkeypatch.setattr(cli, "g_ambient", _nan_at_middle_sample(cli.g_ambient))
    monkeypatch.setattr(cli, "G", _nan_at_middle_sample(cli.G))
    real_frames = cli.frame_pass

    def nan_at_second_frame(imms, us):
        frames = real_frames(imms, us)
        assert imms[0].label == LAGRANGIAN_LABELS[0]
        frames[0][1].orientation_residual = math.nan
        return frames

    monkeypatch.setattr(cli, "frame_pass", nan_at_second_frame)
    rng = np.random.default_rng(0)
    records = (
        cli.structure_algebra_records(3, rng, 0)
        + cli.structure_g_records(3, rng, 0)
        + [cli.structure_frame_record(0)]
    )
    failed = {r.check_id for r in records if not r.passed}
    assert failed == {
        "metric-forms-agree", "g-vanishing-diagonal", "g-antisymmetry", "frame-g-form"
    }
    for rec in records:
        assert math.isnan(rec.max_residual) == (rec.check_id in failed)


def test_structure_exact_zero_residuals_pass_at_tol_zero(monkeypatch) -> None:
    # every structure check passes an exactly zero residual at tol 0, as
    # p-squared always did
    monkeypatch.setattr(cli, "G", lambda x, y: np.zeros(np.broadcast_shapes(x.shape, y.shape)))
    real_frames = cli.frame_pass

    def exact_frame(imms, us):
        frames = real_frames(imms, us)
        for fc in (fc for fcs in frames for fc in fcs):
            fc.orientation_residual = 0.0
        return frames

    monkeypatch.setattr(cli, "frame_pass", exact_frame)
    records = cli.structure_g_records(3, np.random.default_rng(0), 0, tol=0.0) + [
        cli.structure_frame_record(0, tol=0.0)
    ]
    assert [r.check_id for r in records] == [
        "g-vanishing-diagonal", "g-antisymmetry", "frame-g-form"
    ]
    for rec in records:
        assert rec.passed
        assert rec.max_residual == 0.0
        assert rec.tolerance == 0.0


def test_frame_record_evaluates_each_builtin_map_once(monkeypatch) -> None:
    # one order-2 jet evaluation per built-in covers all of its sample points
    calls = _counted_examples(monkeypatch)
    rec = cli.structure_frame_record(0)
    assert rec.passed
    assert rec.samples == len(LAGRANGIAN_LABELS) * len(cli.FRAME_SAMPLE_POINTS)
    assert calls == list(LAGRANGIAN_LABELS)


def test_structure_reports_are_byte_identical() -> None:
    first = cmd_structure(samples=50, seed=7)
    second = cmd_structure(samples=50, seed=7)
    assert first.to_json() == second.to_json()
    assert first.to_text() == second.to_text()


def test_structure_seed_changes_residuals() -> None:
    a = cmd_structure(samples=50, seed=0)
    b = cmd_structure(samples=50, seed=1)
    res_a = [r.max_residual for r in a.sorted_records() if r.check_id != "frame-g-form"]
    res_b = [r.max_residual for r in b.sorted_records() if r.check_id != "frame-g-form"]
    assert res_a != res_b


# ---------------------------------------------------------------------------
# lagrangian


def test_lagrangian_default_roster_passes() -> None:
    report = cmd_lagrangian(grid=2, seed=0)
    assert report.passed
    assert report.meta["immersions"] == list(LAGRANGIAN_LABELS)
    ids = [r.check_id for r in report.records]
    for label in LAGRANGIAN_LABELS:
        assert f"lagrangian[{label}]" in ids
        assert f"theorem-shadow[{label}]" in ids
    for n in (2, 3, 4):
        assert f"umbilical-rigidity[n={n}]" in ids


def test_lagrangian_failure_skips_downstream_records() -> None:
    report = cmd_lagrangian(example="twisted-control", grid=2, seed=0)
    assert not report.passed
    by_id = {r.check_id: r for r in report.records}
    lag = by_id["lagrangian[twisted-control]"]
    assert not lag.passed and lag.max_residual > 0.1
    for prefix in (
        "minimality",
        "cubic-symmetry",
        "ab-structure",
        "angle-sum",
        "orientation",
        "codazzi-residual",
        "theorem-shadow",
    ):
        rec = by_id[f"{prefix}[twisted-control]"]
        assert rec.status == "skip" and rec.passed


@pytest.mark.parametrize("grid", [1, 3])
def test_lagrangian_evaluates_each_map_once_per_grid(monkeypatch, grid) -> None:
    # the suite's order-3 jet evaluation feeds the theorem shadow too, and
    # the control fails the Lagrangian test on that same evaluation
    calls = _counted_examples(monkeypatch)
    assert cmd_lagrangian(grid=grid, seed=0).passed
    assert calls == list(LAGRANGIAN_LABELS)
    calls.clear()
    assert not cmd_lagrangian(example="twisted-control", grid=grid, seed=0).passed
    assert calls == ["twisted-control"]


@pytest.mark.parametrize("grid", [1, 2])
def test_lagrangian_shadow_matches_the_standalone_harness(grid) -> None:
    by_id = {r.check_id: r for r in cmd_lagrangian(grid=grid, seed=0).records}
    for label in LAGRANGIAN_LABELS:
        got = by_id[f"theorem-shadow[{label}]"]
        want = theorem_harness(example_by_label(label), grid=grid)
        assert (got.samples, got.passed) == (want.samples, want.passed)
        for key in ("fit_successes", "grid_points"):
            assert got.details[key] == want.details[key]
        assert abs(got.max_residual - want.max_residual) <= 1e-15


def test_lagrangian_tol_reaches_the_theorem_shadow(tmp_path) -> None:
    # under --tol 1e-7 this graph passes lagrangian[near] (residual 1.25e-8);
    # the shadow is gated by that verdict, with no precheck of its own at
    # the default 1e-9 that would raise and end the command without a report
    z = [0.0, 0.0, 1.0]
    graph = {"left": {"axis": z, "angle": 0.5}, "right": {"axis": z, "angle": 0.5 + 1e-8}}
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"graph": graph, "label": "near"}))
    report = cmd_lagrangian(manifest=str(path), grid=1, tol=1e-7, seed=0)
    by_id = {r.check_id: r for r in report.records}
    lag = by_id["lagrangian[near]"]
    assert lag.passed and 1e-9 < lag.max_residual < 1e-7
    shadow = by_id["theorem-shadow[near]"]
    assert shadow.status is None and shadow.passed
    assert (shadow.samples, shadow.tolerance) == (1, 1e-7)
    assert main(["lagrangian", "--manifest", str(path), "--grid", "1", "--tol", "1e-7"]) == 0


def test_lagrangian_umbilical_records_carry_derived_seeds() -> None:
    report = cmd_lagrangian(example="diagonal", grid=2, seed=10)
    by_id = {r.check_id: r for r in report.records}
    for n in (2, 3, 4):
        assert by_id[f"umbilical-rigidity[n={n}]"].details["seed"] == 10 + n


# ---------------------------------------------------------------------------
# manifests


def test_manifest_single_object_and_list(tmp_path) -> None:
    single = tmp_path / "one.json"
    single.write_text(json.dumps({"example": "diagonal"}))
    imms = load_manifest(str(single))
    assert [i.label for i in imms] == ["diagonal"]

    many = tmp_path / "many.json"
    many.write_text(
        json.dumps(
            [
                {"example": "factor_left"},
                {
                    "graph": {"left": {"axis": [0, 0, 1], "angle": 0.0}},
                    "label": "identity-graph",
                    "box": [-0.4, 0.4],
                },
            ]
        )
    )
    imms = load_manifest(str(many))
    assert [i.label for i in imms] == ["factor_left", "identity-graph"]
    assert imms[1].domain.lo == (-0.4, -0.4, -0.4)


def test_manifest_identity_graph_is_lagrangian(tmp_path) -> None:
    # omitted rotations default to the identity, giving the diagonal immersion
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"graph": {}, "label": "plain-diagonal"}))
    report = cmd_lagrangian(manifest=str(path), grid=2, seed=0)
    assert report.passed
    assert "lagrangian[plain-diagonal]" in [r.check_id for r in report.records]


def test_manifest_rejects_bad_entries(tmp_path) -> None:
    cases = [
        [],
        {"neither": 1},
        {"graph": {"left": {"axis": [0, 0, 0], "angle": 1.0}}},
        {"graph": {"left": {"axis": [1, 0, 0], "angle": 1.0, "extra": 2}}},
        {"example": "no-such-thing"},
    ]
    for idx, payload in enumerate(cases):
        path = tmp_path / f"bad{idx}.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_manifest(str(path))


# ---------------------------------------------------------------------------
# proof


def test_proof_all_mode_passes_with_expected_records() -> None:
    report = cmd_proof(trials=5, seed=1)
    assert report.passed
    assert [r.check_id for r in report.sorted_records()] == PROOF_IDS
    assert all(r.status is None for r in report.records)


def test_proof_numeric_mode_is_rejected(capsys) -> None:
    # every check is exact, so a numeric mode would select nothing, and the
    # command line takes no mode at all
    with pytest.raises(ValueError):
        cmd_proof(trials=5, seed=1, mode="numeric")
    for mode in ("numeric", "all"):
        with pytest.raises(SystemExit) as exc:
            main(["proof", "--mode", mode])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --mode {mode}" in capsys.readouterr().err


def test_proof_exact_mode_runs_every_check() -> None:
    # exact and all differ only in the mode they write to the report's meta
    exact = cmd_proof(trials=5, seed=1, mode="exact")
    both = cmd_proof(trials=5, seed=1, mode="all")
    assert exact.passed and all(r.status is None for r in exact.records)
    assert [r.as_dict() for r in exact.sorted_records()] == [
        r.as_dict() for r in both.sorted_records()
    ]
    assert (exact.meta["mode"], both.meta["mode"]) == ("exact", "all")


def test_proof_derived_seeds_recorded_in_order() -> None:
    report = cmd_proof(trials=5, seed=20)
    seeds = {r.check_id: r.details["seed"] for r in report.records}
    assert seeds["frame-relation"] == 21
    assert seeds["derivative-comparison"] == 22
    assert seeds["axis-case"] == 23
    assert seeds["null-axis-case"] == 24
    assert seeds["determinant-factorization"] == 25
    assert seeds["constrained-angle-case"] == 26


def test_proof_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        cmd_proof(trials=0)
    with pytest.raises(ValueError):
        cmd_proof(trials=5, mode="fancy")


def test_proof_reports_are_byte_identical() -> None:
    first = cmd_proof(trials=5, seed=4)
    second = cmd_proof(trials=5, seed=4)
    assert first.to_json() == second.to_json()


# ---------------------------------------------------------------------------
# fit


def test_fit_axis_tensor_recovers_normal_form(tmp_path) -> None:
    report = cmd_fit(_tensor_file(tmp_path, [1.0, 0.0, 0.0]))
    rec = report.records[0]
    assert rec.check_id == "humbilical-fit" and rec.passed
    details = rec.details
    assert details["fitted"] is True
    assert abs(details["lambda"] + 2.0) < 1e-8
    assert abs(details["mu"] - 1.0) < 1e-8
    assert abs(details["minimality_defect"]) < 1e-8
    assert max(abs(u - e) for u, e in zip(details["U1"], (1.0, 0.0, 0.0))) < 1e-8
    assert rec.max_residual < 1e-10


def test_fit_zero_tensor_reports_zero_coefficients(tmp_path) -> None:
    report = cmd_fit(_tensor_file(tmp_path, [0.0, 0.0, 0.0]))
    details = report.records[0].details
    assert details["fitted"] is True
    assert details["lambda"] == 0.0 and details["mu"] == 0.0


def test_fit_rejection_is_still_a_passing_record(tmp_path) -> None:
    path = tmp_path / "generic.json"
    comps = dict.fromkeys(COMPONENT_KEYS, 0.0)
    comps.update({"111": 1.0, "222": -0.7, "123": 0.4, "113": 0.2})
    path.write_text(json.dumps({"n": 3, "components": comps}))
    report = cmd_fit(str(path))
    rec = report.records[0]
    assert rec.passed
    assert rec.details["fitted"] is False
    assert rec.max_residual is None
    assert main(["fit", str(path)]) == 0


# ---------------------------------------------------------------------------
# main: exit codes and rendering


def test_main_structure_pass_prints_text(capsys) -> None:
    assert main(["structure", "--samples", "30", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("ALL CHECKS PASSED")
    for check_id in STRUCTURE_IDS:
        assert check_id in out


def test_main_verification_failure_exits_one(capsys) -> None:
    code = main(["lagrangian", "--example", "twisted-control", "--grid", "2"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.strip().endswith("VERIFICATION FAILED")


def test_main_unknown_example_exits_two(capsys) -> None:
    assert main(["lagrangian", "--example", "no-such-thing"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nkverify: error:")
    assert "no built-in example named 'no-such-thing'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lagrangian", "--grid", "0"],
        ["structure", "--samples", "0"],
        ["proof", "--trials", "0"],
        ["structure", "--tol", "nan"],
        ["lagrangian", "--tol", "inf"],
        ["fit", "sample.json", "--tol", "nan"],
    ],
)
def test_main_bad_count_or_tolerance_exits_two(argv, capsys) -> None:
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("nkverify: error:")


def test_main_lagrangian_tol_above_the_precondition_reports_at_that_bound(
    tmp_path, capsys
) -> None:
    # a graph 3e-6 off the diagonal has a Lagrangian residual of about 4.2e-6,
    # above the 1e-6 precondition of the standalone readers.  The suite gates
    # its checks on its own lagrangian[...] record, so with --tol 1e-3 every
    # record is read at that bound, and at the default bound that record fails
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        [{"graph": {"right": {"axis": [1, 2, 3], "angle": 3e-6}}, "label": "near-diagonal"}]
    ))
    argv = ["lagrangian", "--manifest", str(path), "--grid", "2", "--format", "json"]
    assert main([*argv, "--tol", "1e-3"]) == 0
    checks = {c["check_id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    lag = checks["lagrangian[near-diagonal]"]
    assert lag["passed"] and 1e-6 < lag["max_residual"] < 1e-3
    assert checks["theorem-shadow[near-diagonal]"]["status"] is None
    assert main(argv) == 1
    checks = {c["check_id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not checks["lagrangian[near-diagonal]"]["passed"]
    assert checks["minimality[near-diagonal]"]["status"] == "skip"


def test_main_example_and_manifest_conflict_exits_two(tmp_path, capsys) -> None:
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"example": "diagonal"}))
    code = main(["lagrangian", "--example", "diagonal", "--manifest", str(path)])
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_main_manifest_parse_failure_exits_two(tmp_path, capsys) -> None:
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["lagrangian", "--manifest", str(path)]) == 2
    assert "nkverify: error:" in capsys.readouterr().err


def test_main_missing_tensor_component_exits_two(tmp_path, capsys) -> None:
    comps = {k: 0.0 for k in COMPONENT_KEYS if k != "112"}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"n": 3, "components": comps}))
    assert main(["fit", str(path)]) == 2
    assert "112" in capsys.readouterr().err


def test_main_malformed_fit_json_exits_two(tmp_path, capsys) -> None:
    path = tmp_path / "garbage.json"
    path.write_text("][")
    assert main(["fit", str(path)]) == 2
    assert "nkverify: error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, extra, env, message",
    [
        ("fit", [1.0, 2.0], [], {}, "holds one JSON object"),
        ("fit", {"n": 3}, [], {}, "needs a components object"),
        (
            "fit",
            {"n": 3, "components": {**dict.fromkeys(COMPONENT_KEYS, 0.0), "123": math.inf}},
            [],
            {},
            "component 123 is not a finite number",
        ),
        ("lagrangian", {"graph": {}, "box": [None, 0.5]}, [], {}, "box bound must be a number"),
        (
            "lagrangian",
            {"graph": {"left": {"axis": 1.0, "angle": 0.5}}},
            [],
            {},
            "axis must be a nonzero 3-vector",
        ),
        ("lagrangian", {"graph": {}, "box": [-40, 40]}, [], {}, "too large to sum"),
        ("proof", None, ["--trials", "1"], {"NKVERIFY_SEED": "abc"}, "must be an integer"),
        (
            "fit",
            json.loads(build_h_from_V([1.0, 0.0, 0.0]).to_json()),
            ["--out", "{tmp}/missing/report.json"],
            {},
            "No such file or directory",
        ),
    ],
    ids=[
        "fit-not-an-object",
        "fit-no-components",
        "fit-infinite-component",
        "box-not-numbers",
        "axis-not-a-list",
        "box-overflows-the-series",
        "seed-env-not-an-integer",
        "out-directory-missing",
    ],
)
def test_main_malformed_input_exits_two(
    tmp_path, capsys, monkeypatch, command, payload, extra, env, message
) -> None:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = {
        "fit": ["fit", str(path)],
        "lagrangian": ["lagrangian", "--manifest", str(path)],
        "proof": ["proof"],
    }[command] + [arg.format(tmp=tmp_path) for arg in extra]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("nkverify: error:") and err.count("\n") == 1
    assert message in err


def test_main_fit_takes_no_seed(tmp_path, capsys) -> None:
    # the fit draws nothing at random, so a seed is a usage error
    path = tmp_path / "t.json"
    path.write_text(build_h_from_V([1.0, 0.0, 0.0]).to_json())
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(path), "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert main(["fit", str(path)]) == 0


def test_main_fit_rejects_a_nan_tolerance(tmp_path, capsys) -> None:
    # a valid tensor file, so exit 2 can come only from the bound
    path = tmp_path / "t.json"
    path.write_text(build_h_from_V([1.0, 0.0, 0.0]).to_json())
    assert main(["fit", str(path), "--tol", "nan"]) == 2
    assert "tol must be a finite non-negative number" in capsys.readouterr().err


def test_main_proof_takes_no_tolerance(capsys) -> None:
    # every proof check is exact, so a bound is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["proof", "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err
    assert main(["proof", "--trials", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["mode"] == "all"


def test_main_missing_fit_file_exits_two(tmp_path, capsys) -> None:
    assert main(["fit", str(tmp_path / "absent.json")]) == 2
    assert "nkverify: error:" in capsys.readouterr().err


def test_main_out_writes_report_file(tmp_path, capsys) -> None:
    out_path = tmp_path / "report.json"
    code = main(
        ["structure", "--samples", "20", "--seed", "3", "--format", "json",
         "--out", str(out_path)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    text = out_path.read_text()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["seed"] == 3
    assert [c["check_id"] for c in payload["checks"]] == STRUCTURE_IDS


def test_main_env_seed_default(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("NKVERIFY_SEED", "42")
    out_path = tmp_path / "report.json"
    main(["structure", "--samples", "20", "--format", "json", "--out", str(out_path)])
    assert json.loads(out_path.read_text())["seed"] == 42


def test_main_explicit_seed_beats_env(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("NKVERIFY_SEED", "42")
    out_path = tmp_path / "report.json"
    main(["structure", "--samples", "20", "--seed", "5", "--format", "json",
          "--out", str(out_path)])
    assert json.loads(out_path.read_text())["seed"] == 5


def test_main_json_omits_timings_unless_requested(tmp_path) -> None:
    plain = tmp_path / "plain.json"
    timed = tmp_path / "timed.json"
    main(["proof", "--trials", "3", "--seed", "2", "--format", "json",
          "--out", str(plain)])
    main(["proof", "--trials", "3", "--seed", "2", "--format", "json",
          "--timings", "--out", str(timed)])
    plain_checks = json.loads(plain.read_text())["checks"]
    timed_checks = json.loads(timed.read_text())["checks"]
    assert all(c["elapsed_ms"] is None for c in plain_checks)
    assert any(c["elapsed_ms"] is not None for c in timed_checks)


def test_main_repeated_runs_write_identical_files(tmp_path) -> None:
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        main(["proof", "--trials", "3", "--seed", "6", "--format", "json",
              "--out", str(path)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_refuses_values_it_cannot_write_exactly() -> None:
    # a Q(sqrt 3) element would have been written as a rounded float, a
    # circle point would have raised by accident; both raise TypeError now,
    # while numpy scalars are still read through .item()
    from fractions import Fraction

    from nkverify.exact import CirclePoint, QSqrt3
    from nkverify.report import jsonable

    for value in (QSqrt3(0, Fraction(-1, 3)), CirclePoint(Fraction(3, 5), Fraction(4, 5))):
        with pytest.raises(TypeError):
            jsonable({"extra": [value]})
    assert jsonable([np.float64(0.5), np.int64(3), np.bool_(True)]) == [0.5, 3, True]


def _refuse_angles(monkeypatch) -> str:
    """angle_functions patched to raise as it does on a pair (A, B) that is
    not symmetric and commuting; returns its message."""
    from nkverify import lagrangian

    message = "angle functions need symmetric commuting A, B"

    def refuse(A, B):
        raise ValueError(message)

    monkeypatch.setattr(lagrangian, "angle_functions", refuse)
    return message


def test_angle_function_error_fails_the_frame_records(monkeypatch, tmp_path) -> None:
    # a frame that cannot be built fails frame-g-form, angle-sum and
    # orientation as records with the message in their details: exit 1 and a
    # report, not a usage error; the other records are unchanged
    message = _refuse_angles(monkeypatch)
    out = tmp_path / "structure.json"
    as_json = ["--format", "json", "--out", str(out)]
    assert main(["structure", "--samples", "5", "--seed", "1", *as_json]) == 1
    checks = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    assert [k for k, c in checks.items() if not c["passed"]] == ["frame-g-form"]
    assert checks["frame-g-form"]["details"]["error"] == message
    out = tmp_path / "lagrangian.json"
    as_json = ["--format", "json", "--out", str(out)]
    assert main(["lagrangian", "--example", "diagonal", "--grid", "1", *as_json]) == 1
    checks = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    failed = sorted(k for k, c in checks.items() if not c["passed"])
    assert failed == ["angle-sum[diagonal]", "orientation[diagonal]"]
    assert all(checks[k]["details"] == {"error": message} for k in failed)


def test_angle_function_error_still_writes_every_pipeline_report(monkeypatch, tmp_path) -> None:
    import importlib.util
    from pathlib import Path

    _refuse_angles(monkeypatch)
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all.py"
    spec = importlib.util.spec_from_file_location("run_all", script)
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)
    small = ["--grid", "1", "--samples", "5", "--trials", "1", "--out", str(tmp_path)]
    assert run_all.run(small) == 1
    for name in ("structure", "lagrangian", "proof", "fit"):
        assert json.loads((tmp_path / f"{name}.json").read_text())["checks"]
