#!/usr/bin/env python3
"""Time-to-verdict benchmark of the nkverify engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from `src/`.
Workloads are defined in `workloads.py`.  Load model: closed loop, one
caller in one process; each pass starts after the previous one returns, and
no worker threads or processes run the engine (BLAS/OpenMP pools are pinned
to one thread before numpy loads).  One other process runs: the speed
monitor of `speed.py`, which shares the benchmark's core, takes about a
tenth of it, and is stopped and waited for before the run ends.

With --trace 0 the run reports the end-to-end metrics: `setup_s` (imports,
plus the median of several set-ups that each build the inputs and run one
warm-up item), `verdict_s` (median over passes of the time from the call
into the entry point until the report is serialized), `peak_rss_mb` (the
process's own peak resident memory) and `margin_digits` (-log10 of the worst
residual/tolerance over checks expected to pass; a log, because the worst
margin itself moves by factors between seeds).  The two times are CPU
seconds scaled to the monitor's reference speed over the interval they were
taken in, so that the host's drift in core speed does not read as a change
of the engine; the unscaled and the wall times are kept in the details file.
With --trace 1 it alternates untraced and traced passes and reports
per-layer counts and self times (see `tracing.py`) plus `trace.overhead_s`,
the median over adjacent pairs of the traced minus the untraced pass time,
both scaled; counts must repeat exactly between traced passes.  Every pass
is checked: each check's verdict against the expected one, no zero-sample or
NaN check, and the JSON report byte-identical to the first pass's.  The last
line of output is one JSON object with `correct`, `attempted`, `failed`
(failed operations over checks attempted) and `metrics`; details and spans
go to perfbench/out/.
"""

import os
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per run; setup_s takes their median.
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: Measuring stops by this point whatever --seconds says, so a run ends
#: well inside three minutes.
MAX_MEASURE_S = 120.0
#: margin_digits of a check whose residual is exactly zero.
MARGIN_DIGITS_CAP = 60.0
#: End-to-end metrics and their units, in BENCHMARK.json order.
END_TO_END = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB", "margin_digits": "digits"}
#: Failures printed per run; the rest are only counted.
MAX_PRINTED_FAILURES = 40


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "versions": versions,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile above the median with at least ten samples beyond it."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(values, n=100)[p - 1]


def _checks_by_id(blob: str | None) -> dict[str, dict]:
    checks = json.loads(blob)["checks"] if blob else []
    return {c["check_id"]: c for c in checks}


class PassChecker:
    """Runs passes of one workload and checks every one of them."""

    def __init__(self, workload, inputs, verdict, not_bounds=()) -> None:
        self.workload = workload
        self.inputs = inputs
        self.verdict = verdict
        self.not_bounds = not_bounds
        self.expected = workload.expected(inputs)
        self.reference: dict[str, str] | None = None
        self.first_reports = None
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wall_s: list[float] = []
        self.part_s: list[dict] = []

    def fail(self, key: str, reason: str) -> None:
        line = f"FAILED pass {self.passes} {key}: {reason}"
        self.failures.append(line)
        if len(self.failures) <= MAX_PRINTED_FAILURES:
            print(line, flush=True)

    def run_pass(self, tracer=None, pass_span: str = "") -> float | None:
        """One pass; returns its CPU seconds, or None if it raised.  Its wall
        seconds go to `wall_s`."""
        self.passes += 1
        wall = time.perf_counter()
        start = time.process_time()
        try:
            if tracer is None:
                reports = self.workload.run(self.inputs)
                blobs = {name: report.to_json() for name, report in reports}
            else:
                with tracer.installed(), tracer.open(pass_span):
                    reports = self.workload.run(self.inputs)
                    blobs = {name: report.to_json() for name, report in reports}
        except Exception as exc:  # a raising pass is a counted failure, not a crash
            traceback.print_exc(file=sys.stderr)
            self.attempted += len(self.expected)
            self.failed += len(self.expected)
            self.fail("*", f"pass raised {exc!r}")
            return None
        elapsed = time.process_time() - start
        self.wall_s.append(time.perf_counter() - wall)
        self.part_s.append(dict(self.workload.part_s))
        self._check(reports, blobs)
        return elapsed

    def _check(self, reports, blobs: dict[str, str]) -> None:
        records = {}
        for name, report in reports:
            for rec in report.records:
                records[f"{name}/{rec.check_id}"] = rec
        bad: dict[str, str] = {}
        for key, want in self.expected.items():
            rec = records.get(key)
            if rec is None:
                bad[key] = "missing"
                continue
            got = self.verdict(rec)
            if got != want:
                bad[key] = f"verdict {got}, expected {want}"
            elif rec.status != "skip" and rec.samples == 0:
                bad[key] = "zero samples"
            elif rec.max_residual is not None and math.isnan(float(rec.max_residual)):
                bad[key] = "NaN residual"
        for key in records.keys() - self.expected.keys():
            bad[key] = "unexpected check"
        if self.reference is None:
            self.reference = blobs
            self.first_reports = records
        else:
            for name, blob in blobs.items():
                if blob == self.reference.get(name):
                    continue
                before = _checks_by_id(self.reference.get(name))
                after = _checks_by_id(blob)
                changed = [k for k in before.keys() | after.keys() if before.get(k) != after.get(k)]
                for check_id in changed or ["(report)"]:
                    bad.setdefault(f"{name}/{check_id}", "JSON report differs from the first pass")
        self.attempted += len(self.expected.keys() | records.keys())
        self.failed += len(bad)
        for key in sorted(bad):
            self.fail(key, bad[key])

    def worst_margin(self) -> tuple[float, str] | None:
        """Largest max_residual/tolerance over checks expected to pass."""
        worst = None
        for key, rec in (self.first_reports or {}).items():
            if self.expected.get(key) in (None, "skip", "fail") or rec.status == "skip":
                continue
            if rec.check_id.startswith(self.not_bounds):
                continue
            if not rec.tolerance or rec.tolerance <= 0 or rec.max_residual is None:
                continue
            margin = float(rec.max_residual) / rec.tolerance
            if worst is None or margin > worst[0]:
                worst = (margin, key)
        return worst


def measure(checker: PassChecker, seconds: float) -> tuple[list, list]:
    """Pass times until the next pass would end after `seconds`, at least
    MIN_PASSES, with each pass's (start, end) on time.monotonic(); a pass
    that raised has time None."""
    durations: list[float | None] = []
    intervals: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        t0 = time.monotonic()
        durations.append(checker.run_pass())
        intervals.append((t0, time.monotonic()))
        elapsed = time.perf_counter() - start
        done = [d for d in durations if d is not None]
        typical = statistics.median(done) if done else elapsed / checker.passes
        if elapsed + typical > MAX_MEASURE_S or (
            checker.passes >= MIN_PASSES and elapsed + typical > seconds
        ):
            return durations, intervals


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _import_engine():
    """The engine and the benchmark modules, from this checkout only."""
    if not (SRC / "nkverify" / "__init__.py").is_file():
        raise ImportError(f"no engine source at {SRC}/nkverify")
    sys.path.insert(0, str(SRC))
    import nkverify

    if Path(nkverify.__file__).resolve().parent != (SRC / "nkverify").resolve():
        raise ImportError(f"nkverify imported from {nkverify.__file__}, not {SRC}")
    import speed
    import tracing
    import workloads

    return workloads, tracing, speed


def _print_end_to_end(metrics: dict, passes: int, durations: list[float], extra: dict) -> None:
    tail = tail_percentile(durations)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "none (needs over 20 passes)"
    rows = [
        ("setup_s", f"import {extra['import_s']:.3f} s + median of {SETUP_REPEATS} set-ups, "
                    f"{extra['raw_setup_s']:.3f} s unscaled"),
        ("verdict_s", f"median of {len(durations)} passes, "
                      f"{statistics.median(d for d in extra['raw_durations_s'] if d is not None):.4f} s "
                      f"unscaled, {statistics.median(extra['wall_s']):.4f} s wall; tail {tail_text}"),
        ("peak_rss_mb", "getrusage of this process"),
        ("margin_digits", f"worst margin {extra['worst_margin']:.3e} at {extra['worst_check']}"),
    ]
    for name, note in rows:
        m = metrics[name]
        print(f"  {name:<14} {m['value']:>12.5g} {m['unit']:<7} {note}")
    print(f"  {'failed_frac':<14} {extra['failed']:>5}/{extra['attempted']:<6} "
          f"{'':<7} failed operations / checks attempted over {passes} passes")


def _print_layers(tracing, metrics: dict, pass_s: float) -> None:
    print(f"  {'layer':<11} {'self_s':>9} {'share':>6}  predicted to move")
    for layer in tracing.LAYERS + ("bench",):
        self_s = metrics[f"{layer}.self_s"]["value"]
        share = self_s / pass_s if pass_s else 0.0
        print(f"  {layer:<11} {self_s:>9.4f} {share:>6.1%}  {tracing.PREDICTIONS[layer]}")
    print("  (quat has counted calls only; its time is in its callers' self time)")
    print(f"  {'metric':<44} {'value':>14} unit")
    for m in tracing.LAYER_METRICS:
        v = metrics[m.name]
        print(f"  {m.name:<44} {v['value']:>14.6g} {v['unit']}")
    v = metrics["trace.overhead_s"]
    print(f"  {'trace.overhead_s':<44} {v['value']:>14.6g} {v['unit']}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        workloads, tracing, speed = _import_engine()
    except ImportError as exc:
        print(f"run.py: cannot import the engine: {exc}", file=sys.stderr)
        return 2
    import_s = time.process_time()  # CPU seconds since the interpreter started
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # The speed monitor runs while set-up and passes are timed (see speed.py).
    OUT.mkdir(parents=True, exist_ok=True)
    monitor = speed.Monitor(OUT / f"speed-{os.getpid()}.txt")
    try:
        return _measured(args, workload, workloads, tracing, monitor, import_s)
    finally:
        monitor.stop()


def _measured(args, workload, workloads, tracing, monitor, import_s) -> int:
    workdir = OUT / f"{workload.name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        start = time.process_time()
        inputs = workload.build(args.seed, workdir)
        workload.warmup(inputs)
        setups.append((time.process_time() - start, t0, time.monotonic()))

    checker = PassChecker(workload, inputs, workloads.verdict, workloads.NOT_RESIDUAL_BOUNDS)
    info = machine()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: closed loop, "
          f"1 caller, nproc {info['nproc']}, threads {info['threads']}", flush=True)
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": info,
        "import_s": import_s,
        "setups_s": [d for d, _, _ in setups],
    }
    correct = True
    if args.trace == 0:
        raw, intervals = measure(checker, args.seconds)
        monitor.stop()
        # Each time is scaled to the reference speed over its own interval.
        durations = [d * monitor.factor(*iv) for d, iv in zip(raw, intervals) if d is not None]
        # Set-ups are too short for a factor each; they share the factor of
        # the whole set-up phase.
        setup_raw = import_s + statistics.median(d for d, _, _ in setups)
        setup_s = setup_raw * monitor.factor(setups[0][1], setups[-1][2])
        worst = checker.worst_margin()
        margin, worst_check = worst if worst else (0.0, "none")
        digits = -math.log10(margin) if margin > 0 else MARGIN_DIGITS_CAP
        # With every pass raising there is no verdict time; report the cap.
        verdict_s = statistics.median(durations) if durations else MAX_MEASURE_S
        values = {
            "setup_s": setup_s,
            "verdict_s": verdict_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "margin_digits": min(digits, MARGIN_DIGITS_CAP),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        details.update(durations_s=durations, raw_durations_s=raw, raw_setup_s=setup_raw,
                       wall_s=checker.wall_s, bursts=monitor.bursts,
                       part_s=checker.part_s, worst_margin=margin, worst_check=worst_check,
                       tail=tail_percentile(durations))
        correct = bool(durations)
    else:
        # Untraced and traced passes alternate, and trace.overhead_s is the
        # median difference of their scaled times within a pair.
        untraced: list[float] = []
        traced: list[float] = []
        pairs: list[tuple] = []  # (untraced, its interval, traced, its interval)
        tracers = []
        start = time.perf_counter()
        for pair in itertools.count(1):
            t0 = time.monotonic()
            plain = checker.run_pass()
            t1 = time.monotonic()
            if plain is not None:
                untraced.append(plain)
            tracer = tracing.Tracer()
            d = checker.run_pass(tracer, tracing.PASS_SPAN)
            if d is not None:
                traced.append(d)
                tracers.append(tracer)
                if plain is not None:
                    pairs.append((plain, (t0, t1), d, (t1, time.monotonic())))
            elapsed = time.perf_counter() - start
            typical = elapsed / pair
            if elapsed + typical > MAX_MEASURE_S:
                break
            if pair >= MIN_TRACED_PASSES and elapsed + typical > args.seconds:
                break
        if not untraced or len(tracers) < MIN_TRACED_PASSES:
            correct = False
        metrics = {}
        for m in tracing.LAYER_METRICS:
            values = [m.value(t) for t in tracers] or [0.0]
            metrics[m.name] = {
                "value": values[0] if m.exact else statistics.median(values),
                "unit": m.unit,
            }
        # Counts are exact: a counter that differs between traced passes of
        # one seed is a failed operation.
        for t in tracers[1:]:
            for key in sorted(t.counts.keys() | tracers[0].counts.keys()):
                if t.counts[key] != tracers[0].counts[key]:
                    checker.attempted += 1
                    checker.failed += 1
                    checker.fail(key, f"count {t.counts[key]} differs from "
                                  f"{tracers[0].counts[key]} in the first traced pass")
        monitor.stop()
        overheads = [d * monitor.factor(*dt) - u * monitor.factor(*ut) for u, ut, d, dt in pairs]
        overhead = statistics.median(overheads) if overheads else 0.0
        name, unit, _ = tracing.OVERHEAD_METRIC
        metrics[name] = {"value": overhead, "unit": unit}
        details.update(
            untraced_s=untraced,
            traced_s=traced,
            passes=[
                {
                    "counts": dict(t.counts),
                    "self_s": dict(t.self_s),
                    "total_s": dict(t.total_s),
                    "spans": t.spans,
                }
                for t in tracers
            ],
        )

    correct = correct and checker.failed == 0
    details.update(metrics=metrics, attempted=checker.attempted, failed=checker.failed,
                   failures=checker.failures, correct=correct)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details) + "\n"
    )
    if args.trace == 0:
        _print_end_to_end(metrics, checker.passes, details["durations_s"], details)
    else:
        _print_layers(tracing, metrics, statistics.median(traced) if traced else 0.0)
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
