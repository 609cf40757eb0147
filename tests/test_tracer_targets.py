"""Every name the benchmark's tracer wraps exists in the engine.

`perfbench/tracing.py` patches engine functions and methods by name; a name
that moved or was renamed would only fail a traced benchmark run.  This test
loads the tracer's target table and resolves each entry.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
tracing = importlib.import_module("tracing")


@pytest.mark.parametrize("target", tracing.TARGETS, ids=lambda t: f"{t.name}:{t.attr}")
def test_tracer_target_resolves(target):
    owner = importlib.import_module(f"nkverify.{target.module}")
    if target.cls is not None:
        owner = getattr(owner, target.cls)
    assert callable(getattr(owner, target.attr, None))


def test_tracer_layers_are_engine_modules():
    for layer in tracing.LAYERS:
        importlib.import_module(f"nkverify.{layer}")


def test_cmd_lagrangian_calls_the_suite_once_per_immersion(monkeypatch):
    # the tracer counts grid points from lagrangian_suite's own arguments:
    # the Immersion first and the grid given, once per immersion, wherever
    # an engine module holds the function by name
    from nkverify import cli, lagrangian

    real = lagrangian.lagrangian_suite
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nkverify" and getattr(module, "lagrangian_suite", None) is real:
            monkeypatch.setattr(module, "lagrangian_suite", recorded)
    imms = [lagrangian.example_by_label(label) for label in cli.LAGRANGIAN_LABELS]
    monkeypatch.setattr(cli, "load_manifest", lambda path: imms)
    cli.cmd_lagrangian(manifest="roster.json", grid=2)
    assert [args[0] for args, _ in calls] == imms
    assert all(kwargs["grid"] == 2 for _, kwargs in calls)
    tracer = tracing.Tracer()
    with tracer.installed():
        cli.cmd_lagrangian(manifest="roster.json", grid=2)
    assert tracer.counts["lagrangian.points"] == len(imms) * 2**3
    assert tracer.counts["lagrangian.map"] == len(imms)
