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
