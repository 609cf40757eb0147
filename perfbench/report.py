#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seed N] [--seconds S] [--baseline]

Runs `run.py` once per workload and trace setting, one after the other, and
prints: every end-to-end metric per workload with its unit and pass count;
the traced per-layer table with each layer's share of the traced verdict
time and the end-to-end metric it is predicted to move; every per-layer
metric per workload; and per-call self and inclusive times of the hot
functions.  With --baseline the same figures, with the machine and seeds,
are written to perfbench/BASELINE.json.  Exits 1 if any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import PARTS, WORKLOADS  # noqa: E402

#: Functions whose per-call cost the ROADMAP baseline quotes.
PER_CALL = (
    "nkgeom.G_tensor",
    "lagrangian.frame_components",
    "lagrangian.codazzi_residual",
    "codazzi.solve_triple_system",
    "humfit.fit",
)


#: Layers a workload must bypass entirely: every metric of theirs reads 0.
BYPASS = {
    "geometry": ("codazzi.", "exact."),
    "algebra": ("nkgeom.", "lagrangian."),
}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The last-line result and the details file of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} trace {trace}: no output (exit {proc.returncode})")
    for line in lines[:-1]:
        if line.startswith("FAILED"):
            print(f"{workload}: {line}")
    result = json.loads(lines[-1])
    details = json.loads(
        (run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return result, details


def unscaled_verdict_s(details: dict) -> float:
    """Median wall time per pass as measured, before speed scaling."""
    return statistics.median(d for d in details["raw_durations_s"] if d is not None)


def per_call(details: dict) -> dict[str, dict]:
    """Median per-call self and inclusive milliseconds over the traced passes."""
    out = {}
    for name in PER_CALL:
        selfs, totals, calls = [], [], 0
        for p in details["passes"]:
            calls = p["counts"].get(name, 0)
            if calls:
                selfs.append(1000 * p["self_s"][name] / calls)
                totals.append(1000 * p["total_s"][name] / calls)
        if selfs:
            out[name] = {"calls": calls, "self_ms": statistics.median(selfs),
                         "inclusive_ms": statistics.median(totals)}
    return out


def geodesic_fit_share(seed: int) -> float:
    """humfit.fit self time over one traced pass of the geodesic part alone."""
    part = PARTS["geodesic"]
    workdir = run.OUT / f"geodesic-part-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = part.build(seed, workdir)
    part.warmup(inputs)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.open(tracing.PASS_SPAN):
        part.run(inputs)
    return tracer.self_s["humfit.fit"] / tracer.total_s[tracing.PASS_SPAN]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--baseline", action="store_true",
                        help="also write perfbench/BASELINE.json")
    args = parser.parse_args(argv)

    plain, traced = {}, {}
    correct = True
    for name in WORKLOADS:
        for trace, store in ((0, plain), (1, traced)):
            print(f"running {name} trace {trace} ...", flush=True)
            result, details = run_one(name, args.seed, args.seconds, trace)
            store[name] = (result, details)
            correct = correct and result["correct"]

    print(f"\nEnd-to-end metrics, seed {args.seed}, {args.seconds:g} s per run")
    print(f"{'workload':<18} {'setup_s':>8} {'verdict_s':>10} {'unscaled':>9} {'passes':>6} "
          f"{'peak_rss_mb':>11} {'margin_digits':>13} {'worst_margin':>12} {'failed_frac':>12}")
    for name, (result, d) in plain.items():
        m = result["metrics"]
        print(f"{name:<18} {m['setup_s']['value']:>8.3f} {m['verdict_s']['value']:>10.3f} "
              f"{unscaled_verdict_s(d):>9.3f} "
              f"{len(d['durations_s']):>6} {m['peak_rss_mb']['value']:>11.1f} "
              f"{m['margin_digits']['value']:>13.3f} {d['worst_margin']:>12.3e} "
              f"{result['failed']:>5}/{result['attempted']:<6}")
    print("units: setup_s s and verdict_s s (median over passes), both scaled to the "
          "reference speed of perfbench/speed.py; peak_rss_mb MB; "
          "margin_digits -log10(worst residual/tolerance)")

    print("\nPer-layer self time as a share of traced verdict_s")
    print(f"{'layer':<11}" + "".join(f" {n:>18}" for n in traced) + "  predicted to move")
    for layer in tracing.LAYERS + ("bench",):
        cells = []
        for result, d in traced.values():
            pass_s = statistics.median(d["traced_s"]) if d["traced_s"] else 0.0
            v = result["metrics"][f"{layer}.self_s"]["value"]
            cells.append(f"{v:>9.3f}s {v / pass_s if pass_s else 0.0:>6.1%}")
        print(f"{layer:<11}" + "".join(f" {c:>18}" for c in cells)
              + f"  {tracing.PREDICTIONS[layer]}")

    print("\nPer-layer metrics")
    print(f"{'metric':<44}" + "".join(f" {n:>18}" for n in traced) + "  unit")
    names = [m.name for m in tracing.LAYER_METRICS] + [tracing.OVERHEAD_METRIC[0]]
    for metric in names:
        vals = [result["metrics"][metric] for result, _ in traced.values()]
        print(f"{metric:<44}" + "".join(f" {v['value']:>18.6g}" for v in vals)
              + f"  {vals[0]['unit']}")

    print("\nBypass predictions")
    for name, prefixes in BYPASS.items():
        metrics = traced[name][0]["metrics"]
        nonzero = [k for k in metrics if k.startswith(prefixes) and metrics[k]["value"] != 0]
        verdict = "holds" if not nonzero else f"violated by {', '.join(nonzero)}"
        print(f"{name:<18} {' and '.join(p.rstrip('.') for p in prefixes)} all zero: {verdict}")
    share = geodesic_fit_share(args.seed)
    print(f"{'geodesic part':<18} humfit.fit.self_s is {share:.2%} of one traced pass")

    calls = {name: per_call(d) for name, (_, d) in traced.items()}
    print("\nPer-call times from the traced passes (ms; tracing overhead included)")
    for fn in PER_CALL:
        for name, table in calls.items():
            if fn in table:
                t = table[fn]
                print(f"{fn:<30} {name:<18} calls {t['calls']:>6}  self {t['self_ms']:>9.3f}"
                      f"  inclusive {t['inclusive_ms']:>9.3f}")

    if args.baseline:
        any_details = next(iter(plain.values()))[1]
        baseline = {
            "machine": any_details["machine"],
            "seed": args.seed,
            "seconds": args.seconds,
            "correct": correct,
            "end_to_end": {
                name: dict(result["metrics"], passes=len(d["durations_s"]),
                           unscaled_verdict_s=unscaled_verdict_s(d),
                           unscaled_setup_s=d["raw_setup_s"],
                           worst_margin=d["worst_margin"], worst_check=d["worst_check"],
                           attempted=result["attempted"], failed=result["failed"])
                for name, (result, d) in plain.items()
            },
            "per_layer": {name: result["metrics"] for name, (result, _) in traced.items()},
            "per_call_ms": calls,
        }
        (HERE / "BASELINE.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {HERE / 'BASELINE.json'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
