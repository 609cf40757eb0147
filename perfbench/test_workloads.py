"""Sanity tests of the benchmark: its workloads stay what they claim to be,
the tracer measures and restores faithfully, and BENCHMARK.json names the
metrics the benchmark reports.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from nkverify import cli, humfit, lagrangian  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)
GRID = 2


@pytest.fixture
def tmp_path(request):
    """A fresh directory under perfbench/out, so tests write only there."""
    path = run.OUT / "tests" / request.node.name.replace("[", "-").rstrip("]")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@pytest.mark.parametrize("seed", SEEDS)
def test_curved_workload_is_the_constant_angle_example(seed, tmp_path):
    imm = workloads.PARTS["curved"].build(seed, tmp_path)["immersion"]
    records = {r.check_id: r for r in lagrangian.lagrangian_suite(imm, grid=GRID)}
    assert records[f"lagrangian[{imm.label}]"].max_residual < 1e-9
    assert records[f"angle-sum[{imm.label}]"].details["degenerate_points"] == 0
    assert all(r.passed and r.status != "skip" for r in records.values())
    for u in imm.domain.grid(GRID):
        c, _ = lagrangian.second_fundamental_form(imm, u)
        assert float(np.linalg.norm(c)) == pytest.approx(math.sqrt(3 / 8), abs=1e-6)
    shadow = humfit.theorem_harness(imm, grid=GRID)
    assert shadow.passed and shadow.details["fit_successes"] == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_rotation_graph_passes(seed, tmp_path):
    graph = workloads.PARTS["geodesic"].build(seed, tmp_path)["graph"]
    assert graph.label == workloads.GRAPH_LABEL
    records = lagrangian.lagrangian_suite(graph, grid=GRID)
    records.append(humfit.theorem_harness(graph, grid=GRID))
    assert all(r.passed and r.status != "skip" for r in records)


@pytest.mark.parametrize("seed", SEEDS)
def test_fit_inputs_take_the_accept_and_reject_paths(seed, tmp_path):
    inputs = workloads.PARTS["fits"].build(seed, tmp_path)
    outcomes = []
    for path, want in inputs["tensors"]:
        tensor = humfit.CubicTensor.from_json(Path(path).read_text())
        outcomes.append("fit" if humfit.fit(tensor) is not None else "reject")
        assert outcomes[-1] == want
    assert set(outcomes) == {"fit", "reject"}


def test_every_part_runs_in_exactly_one_workload():
    parts = [p for w in workloads.WORKLOADS.values() for p in w.parts]
    assert sorted(parts) == sorted(workloads.PARTS)


def test_fitter_exits_early_on_the_geodesic_part(tmp_path):
    inputs = workloads.PARTS["geodesic"].build(1, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.open(tracing.PASS_SPAN):
        cli.cmd_lagrangian(manifest=inputs["manifest"], grid=1, seed=1)
    assert tracer.counts["lagrangian.points"] > 0
    assert tracer.self_s["humfit.fit"] < 0.01 * tracer.total_s[tracing.PASS_SPAN]


def test_tracer_counts_spans_and_restores_originals(tmp_path):
    graph = workloads.PARTS["geodesic"].build(1, tmp_path)["graph"]
    original = lagrangian.is_lagrangian
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.open(tracing.PASS_SPAN):
        assert humfit.is_lagrangian is not original
        humfit.theorem_harness(graph, grid=1)
    assert humfit.is_lagrangian is original and lagrangian.is_lagrangian is original
    # once in the harness's precheck, once in second_fundamental_form's
    assert tracer.counts["lagrangian.is_lagrangian"] == 2
    assert tracer.counts["humfit.fit"] == tracer.counts["humfit.fit.accepted"] == 1
    assert tracer.counts["lagrangian.map"] > 0
    spans = {s[0]: s for s in tracer.spans}
    root = [s for s in tracer.spans if s[4] is None]
    assert len(root) == 1 and root[0][1] == tracing.PASS_SPAN
    assert all(s[4] in spans for s in tracer.spans if s[4] is not None)
    for name, self_s in tracer.self_s.items():
        assert 0.0 <= self_s <= tracer.total_s[name]


def test_speed_monitor_shares_the_core_scales_and_stops(tmp_path):
    affinity = os.sched_getaffinity(0)
    path = tmp_path / "bursts.txt"
    monitor = speed.Monitor(path)
    try:
        assert os.sched_getaffinity(0) == {monitor.cpu}
        assert os.sched_getaffinity(monitor.proc.pid) == {monitor.cpu}
        time.sleep(0.5)
    finally:
        monitor.stop()
        os.sched_setaffinity(0, affinity)
    assert monitor.proc.returncode is not None and not path.exists()
    assert len(monitor.bursts) >= 2
    mean = statistics.fmean(cpu for _, cpu in monitor.bursts)
    whole = (monitor.bursts[0][0], monitor.bursts[-1][0])
    assert math.isclose(monitor.factor(*whole), speed.REFERENCE_S / mean)
    # an interval in which no burst ended takes the nearest one
    end, cpu = monitor.bursts[0]
    assert math.isclose(monitor.factor(end - 1e-3, end - 1e-3), speed.REFERENCE_S / cpu)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == [
        m.name for m in tracing.LAYER_METRICS
    ] + [tracing.OVERHEAD_METRIC[0]]


def test_run_refuses_a_tree_without_engine_source(tmp_path):
    # test files stay out of the copy, so pytest never collects it
    ignore = shutil.ignore_patterns("out", "__pycache__", "test_*.py")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=ignore)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "algebra",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
