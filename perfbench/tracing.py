"""Per-layer tracing of the engine from outside its source.

The layers are the engine's modules.  While a `Tracer` is installed, public
functions and methods of each module are replaced by wrappers defined here:
span targets record (id, name, start, end, parent) and accumulate self time,
which is span time minus the time covered by child spans; spans are timed in
CPU seconds of this process, so the speed monitor that shares its core does
not count (see `speed.py`); count targets are
hot, tiny calls that are only counted.  Module functions are replaced in every
`nkverify` module namespace that holds them, because the engine imports them
by name across modules.  Everything is kept in memory until the run writes it
out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

#: Layers in report order.
LAYERS = ("cli", "lagrangian", "nkgeom", "quat", "humfit", "codazzi", "exact", "report")


@dataclass(frozen=True)
class Target:
    """One wrapped callable: `attr` of module `module` (or of its class `cls`),
    recorded under `name` as a span or as a count."""

    name: str
    module: str
    attr: str
    cls: str | None = None
    span: bool = True


def _span(name: str, module: str, attr: str, cls: str | None = None) -> Target:
    return Target(name, module, attr, cls, True)


def _count(name: str, module: str, attr: str, cls: str | None = None) -> Target:
    return Target(name, module, attr, cls, False)


TARGETS = (
    # cli: entry points and the structure suites
    _span("cli.cmd_lagrangian", "cli", "cmd_lagrangian"),
    _span("cli.cmd_proof", "cli", "cmd_proof"),
    _span("cli.cmd_structure", "cli", "cmd_structure"),
    _span("cli.cmd_fit", "cli", "cmd_fit"),
    _span("cli.structure_algebra_records", "cli", "structure_algebra_records"),
    _span("cli.structure_g_records", "cli", "structure_g_records"),
    _span("cli.structure_frame_record", "cli", "structure_frame_record"),
    # lagrangian
    _span("lagrangian.lagrangian_suite", "lagrangian", "lagrangian_suite"),
    _span("lagrangian.is_lagrangian", "lagrangian", "is_lagrangian"),
    _span("lagrangian.second_fundamental_form", "lagrangian", "second_fundamental_form"),
    _span("lagrangian.ab_operators", "lagrangian", "ab_operators"),
    _span("lagrangian.p_split_residual", "lagrangian", "p_split_residual"),
    _span("lagrangian.frame_components", "lagrangian", "frame_components"),
    _span("lagrangian.codazzi_residual", "lagrangian", "codazzi_residual"),
    _count("lagrangian.angle_functions", "lagrangian", "angle_functions"),
    _count("lagrangian.map", "lagrangian", "point", "Immersion"),
    # nkgeom
    _span("nkgeom.christoffel", "nkgeom", "christoffel", "Chart"),
    _span("nkgeom.G_tensor", "nkgeom", "G_tensor"),
    _count("nkgeom.Chart", "nkgeom", "__init__", "Chart"),
    _count("nkgeom.tangent_to_coords", "nkgeom", "tangent_to_coords", "Chart"),
    _count("nkgeom.close_to", "nkgeom", "close_to", "PointS3S3"),
    # quat
    _count("quat.mul", "quat", "__mul__", "Quaternion"),
    _count("quat.exp_im", "quat", "exp_im"),
    _count("quat.dexp_im", "quat", "dexp_im"),
    # humfit
    _span("humfit.fit", "humfit", "fit"),
    _span("humfit.theorem_harness", "humfit", "theorem_harness"),
    _span("humfit.umbilical_lemma_check", "humfit", "umbilical_lemma_check"),
    # codazzi
    _span("codazzi.frame_relation_check", "codazzi", "frame_relation_check"),
    _span("codazzi.system1_check", "codazzi", "system1_check"),
    _span("codazzi.case1_check", "codazzi", "case1_check"),
    _span("codazzi.case2_check", "codazzi", "case2_check"),
    _span("codazzi.case3_check", "codazzi", "case3_check"),
    _span("codazzi.det_factorization_check", "codazzi", "det_factorization_check"),
    _span("codazzi.solve_triple_system", "codazzi", "solve_triple_system"),
    _count("codazzi.codazzi_scalar", "codazzi", "codazzi_scalar"),
    _count("codazzi.random_frame_state", "codazzi", "random_frame_state"),
    # exact
    _span("exact.poly_identity_check", "exact", "poly_identity_check"),
    _count("exact.QSqrt3.mul", "exact", "__mul__", "QSqrt3"),
    _count("exact.QSqrt3.mul", "exact", "__rmul__", "QSqrt3"),
    _count("exact.rat_circle_point", "exact", "rat_circle_point"),
    # report
    _span("report.to_json", "report", "to_json", "VerificationReport"),
)

#: Name of the span around one whole pass, opened by the benchmark itself.
PASS_SPAN = "bench.pass"


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    @contextmanager
    def open(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span called `name`."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        self.counts[name] += 1
        start = time.process_time()
        try:
            yield
        finally:
            end = time.process_time()
            self._stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[1]
            self.total_s[name] += duration
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((span_id, name, start, end, parent))

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with self.open(name):
                result = fn(*args, **kwargs)
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        """Counters that need a call's arguments or result."""
        if name == "humfit.fit" and result is not None:
            self.counts["humfit.fit.accepted"] += 1
        elif name == "lagrangian.lagrangian_suite":
            imm = args[0]
            grid = kwargs.get("grid", args[1] if len(args) > 1 else 5)
            self.counts["lagrangian.points"] += len(imm.domain.grid(grid))

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Replace every target by its wrapper; restore the originals on exit."""
        restore: list[tuple[object, str, object]] = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "nkverify"]
        try:
            for t in TARGETS:
                owner = sys.modules[f"nkverify.{t.module}"]
                wrap = self.span_wrapper if t.span else self.count_wrapper
                if t.cls is not None:
                    cls = getattr(owner, t.cls)
                    original = cls.__dict__[t.attr]
                    restore.append((cls, t.attr, original))
                    setattr(cls, t.attr, wrap(t.name, original))
                    continue
                original = getattr(owner, t.attr)
                wrapped = wrap(t.name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


#: What each layer's metrics should move, on which workload (read by people
#: quoting the traced table; nothing computes with it).
PREDICTIONS = {
    "cli": "verdict_s on geometry (structure suites)",
    "lagrangian": "verdict_s on geometry; frame_components.self_s per call is higher on "
    "the curved part (eigenfield path); codazzi_residual ~2/3 of the analyzer parts",
    "nkgeom": "verdict_s on geometry, peak_rss_mb via chart caches; zero on algebra",
    "quat": "verdict_s on geometry (per-object overhead)",
    "humfit": "verdict_s on geometry (curved reject path) and algebra (fits); "
    "fit ~0 on the geodesic part",
    "codazzi": "verdict_s on algebra only; zero on geometry",
    "exact": "verdict_s on algebra only; zero on geometry",
    "report": "verdict_s everywhere, small",
    "bench": "the benchmark's own glue around each pass",
}


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric: `exact` ones are counts that must repeat exactly
    between traced passes; the others are times, reported as medians."""

    name: str
    unit: str
    better: str
    value: Callable[[Tracer], float]
    exact: bool


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_self(layer: str) -> Callable[[Tracer], float]:
    return lambda t: sum(v for k, v in t.self_s.items() if layer_of(k) == layer)


def _metrics() -> list[LayerMetric]:
    out: list[LayerMetric] = []

    def calls(name: str, counter: str | None = None) -> None:
        key = counter or name
        out.append(LayerMetric(f"{name}.calls", "count", "lower", lambda t: t.counts[key], True))

    def self_s(name: str) -> None:
        out.append(LayerMetric(f"{name}.self_s", "s", "lower", lambda t: t.self_s[name], False))

    out.append(LayerMetric(
        "lagrangian.points", "count", "higher", lambda t: t.counts["lagrangian.points"], True))
    out.append(LayerMetric(
        "lagrangian.map_calls", "count", "lower", lambda t: t.counts["lagrangian.map"], True))
    out.append(LayerMetric(
        "lagrangian.map_calls_per_point", "calls/point", "lower",
        lambda t: _ratio(t.counts["lagrangian.map"], t.counts["lagrangian.points"]), True))
    for fn in ("is_lagrangian", "second_fundamental_form", "ab_operators",
               "p_split_residual", "frame_components", "codazzi_residual"):
        calls(f"lagrangian.{fn}")
        self_s(f"lagrangian.{fn}")
    calls("lagrangian.angle_functions")
    calls("nkgeom.Chart")
    calls("nkgeom.christoffel")
    self_s("nkgeom.christoffel")
    calls("nkgeom.tangent_to_coords")
    calls("nkgeom.G_tensor")
    self_s("nkgeom.G_tensor")
    calls("nkgeom.close_to")
    for fn in ("mul", "exp_im", "dexp_im"):
        calls(f"quat.{fn}")
    calls("humfit.fit")
    self_s("humfit.fit")
    out.append(LayerMetric(
        "humfit.fit.accept_ratio", "ratio", "higher",
        lambda t: _ratio(t.counts["humfit.fit.accepted"], t.counts["humfit.fit"]), True))
    self_s("humfit.theorem_harness")
    self_s("humfit.umbilical_lemma_check")
    for fn in ("frame_relation_check", "system1_check", "case1_check", "case2_check",
               "case3_check", "det_factorization_check"):
        self_s(f"codazzi.{fn}")
    calls("codazzi.solve_triple_system")
    self_s("codazzi.solve_triple_system")
    calls("codazzi.codazzi_scalar")
    calls("codazzi.random_frame_state")
    calls("exact.poly_identity_check")
    self_s("exact.poly_identity_check")
    calls("exact.QSqrt3.mul")
    calls("exact.rat_circle_point")
    for fn in ("structure_algebra_records", "structure_g_records", "structure_frame_record"):
        self_s(f"cli.{fn}")
    self_s("report.to_json")
    for layer in LAYERS + ("bench",):
        out.append(LayerMetric(f"{layer}.self_s", "s", "lower", _layer_self(layer), False))
    return out


#: Every per-layer metric except trace.overhead_s, which compares runs.
LAYER_METRICS = _metrics()
OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")
