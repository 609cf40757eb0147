"""The two seeded verification workloads of the benchmark and their parts.

A workload is a sequence of parts; one pass runs every part once.  Each part
builds its inputs from a seed (`build`), runs one small call of the same kind
to warm the code paths (`warmup`), and runs its entry-point calls (`run`),
returning the named reports whose records are compared against `expected`.
Inputs are generated here and handed to the engine as files or objects; the
engine never sees the seed except through the `seed` argument its commands
already take.

`geometry` holds every part that runs the nkgeom and lagrangian layers;
`algebra` holds the parts that never touch them, so it is the no-change
control for analyzer work and the other way round.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from nkverify import cli, humfit, lagrangian, quat
from nkverify.quat import ImaginaryQuaternion, Quaternion
from nkverify.report import VerificationReport

#: Grid points per axis of the analyzer parts.  Grid 3 on the geodesic
#: roster costs about 15 s per pass, too long for several passes per run.
GEODESIC_GRID = 2
CURVED_GRID = 2
#: Half-width of the parameter box of the curved immersion.
CURVED_HALF_WIDTH = 0.4
#: Label of the seeded rotation graph in the geodesic manifest.
GRAPH_LABEL = "rotation-graph"
BUILTIN_LABELS = ("factor_left", "factor_right", "diagonal", "twisted-control")
CURVED_LABEL = "constant-angle"
#: Tensors per fit pass: half H-umbilical, half sums of rank-one cubes.
FIT_TENSORS = 8
RANK_ONE_TERMS = 3

_LAGRANGIAN_DOWNSTREAM = (
    "minimality",
    "cubic-symmetry",
    "ab-structure",
    "angle-sum",
    "orientation",
    "codazzi-residual",
)
_STRUCTURE_CHECKS = (
    "frame-g-form",
    "g-antisymmetry",
    "g-vanishing-diagonal",
    "j-isometry",
    "j-squared",
    "jp-anticommute",
    "metric-forms-agree",
    "p-squared",
)
_PROOF_CHECKS = (
    "axis-case",
    "constrained-angle-case",
    "derivative-comparison",
    "determinant-factorization",
    "frame-relation",
    "null-axis-case",
)

Reports = list[tuple[str, VerificationReport]]

#: Checks whose tolerance is not a bound on their residual: theorem-shadow
#: reports max |h| and uses its tolerance as the |h| above which a successful
#: fit would falsify the theorem.
NOT_RESIDUAL_BOUNDS = ("theorem-shadow[",)


def verdict(record) -> str:
    """'skip', 'fail' or 'pass'; a passing fit record reads 'fit' or 'reject'."""
    if record.status == "skip":
        return "skip"
    if not record.passed:
        return "fail"
    if record.check_id == "humbilical-fit":
        return "fit" if record.details.get("fitted") else "reject"
    return "pass"


def _lagrangian_expectations(label: str, lagrangian_ok: bool) -> dict[str, str]:
    downstream = "pass" if lagrangian_ok else "skip"
    out = {f"lagrangian[{label}]": "pass" if lagrangian_ok else "fail"}
    for name in _LAGRANGIAN_DOWNSTREAM + ("theorem-shadow",):
        out[f"{name}[{label}]"] = downstream
    return out


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    return Quaternion.from_array(rng.standard_normal(4)).normalized()


def curved_immersion(c: Quaternion, half_width: float = CURVED_HALF_WIDTH):
    """u -> (c e^u i e^-u c*, c e^u j e^-u c*), a Lagrangian immersion with
    constant angles and nonzero second fundamental form (|h| = sqrt(3/8)).

    Conjugation by the unit quaternion c is an isometry of the nearly Kahler
    structure, so every invariant is independent of c; only the numerics see
    it.
    """
    i = Quaternion(0.0, 1.0, 0.0, 0.0)
    j = Quaternion(0.0, 0.0, 1.0, 0.0)
    cbar = c.conjugate()

    def chart_map(u: np.ndarray) -> lagrangian.PointS3S3:
        e = quat.exp_im(ImaginaryQuaternion.from_array(u))
        ce, ebar = c * e, e.conjugate()
        return lagrangian.PointS3S3(ce * i * ebar * cbar, ce * j * ebar * cbar)

    box = lagrangian.Box((-half_width,) * 3, (half_width,) * 3)
    return lagrangian.Immersion(CURVED_LABEL, box, chart_map)


def rank_one_sum(rng: np.random.Generator, terms: int = RANK_ONE_TERMS) -> humfit.CubicTensor:
    """sum_r w_r x_r (x) x_r (x) x_r for random directions: not H-umbilical."""
    full = np.zeros((3, 3, 3))
    for _ in range(terms):
        x = rng.standard_normal(3)
        full += rng.uniform(0.5, 1.5) * np.einsum("a,b,c->abc", x, x, x)
    return humfit.CubicTensor.from_full(full)


def _umbilical_expectations() -> dict[str, str]:
    return {f"umbilical-rigidity[n={n}]": "pass" for n in (2, 3, 4)}


@dataclass
class Part:
    """One seeded item of a workload.

    build(seed, workdir) -> inputs builds everything a pass needs;
    warmup(inputs) runs one small call of the same kind; run(inputs) runs the
    part's entry-point calls once and returns named reports; expected(inputs)
    maps "report/check_id" to the verdict every pass must reproduce.
    """

    name: str
    build: Callable[[int, Path], Any]
    warmup: Callable[[Any], None]
    run: Callable[[Any], Reports]
    expected: Callable[[Any], dict[str, str]]


# ---------------------------------------------------------------------------
# analyzer on the geodesic roster: built-ins, a seeded rotation graph, the control


def _build_geodesic(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    rotation = {
        "axis": [float(x) for x in rng.standard_normal(3)],
        "angle": float(rng.uniform(0.2, 2.8)),
    }
    entries = [{"example": label} for label in BUILTIN_LABELS]
    entries.append(
        {"graph": {"left": rotation, "right": rotation}, "label": GRAPH_LABEL}
    )
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=1) + "\n")
    graph = cli.load_manifest(str(manifest))[-1]
    return {"seed": seed, "manifest": str(manifest), "graph": graph}


def _warm_geodesic(inputs: dict) -> None:
    lagrangian.lagrangian_suite(inputs["graph"], grid=1)


def _run_geodesic(inputs: dict) -> Reports:
    report = cli.cmd_lagrangian(
        manifest=inputs["manifest"], grid=GEODESIC_GRID, seed=inputs["seed"]
    )
    return [("geodesic", report)]


def _expected_geodesic(_inputs: dict) -> dict[str, str]:
    out: dict[str, str] = {}
    for label in BUILTIN_LABELS + (GRAPH_LABEL,):
        out.update(_lagrangian_expectations(label, label != "twisted-control"))
    out.update(_umbilical_expectations())
    return {f"geodesic/{k}": v for k, v in out.items()}


# ---------------------------------------------------------------------------
# analyzer on the seeded constant-angle immersion (h != 0)


def _build_curved(seed: int, _workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    return {"seed": seed, "immersion": curved_immersion(random_unit_quaternion(rng))}


def _warm_curved(inputs: dict) -> None:
    lagrangian.lagrangian_suite(inputs["immersion"], grid=1)


def curved_pass(imm, grid: int, seed: int) -> VerificationReport:
    """The calls cmd_lagrangian makes for one Lagrangian immersion."""
    records = lagrangian.lagrangian_suite(imm, grid=grid)
    records.append(humfit.theorem_harness(imm, grid=grid, tol=1e-5))
    return VerificationReport(
        records=records,
        seed=seed,
        meta={"suite": "lagrangian", "grid": grid, "immersions": [imm.label]},
    )


def _run_curved(inputs: dict) -> Reports:
    return [("curved", curved_pass(inputs["immersion"], CURVED_GRID, inputs["seed"]))]


def _expected_curved(_inputs: dict) -> dict[str, str]:
    return {
        f"curved/{k}": v
        for k, v in _lagrangian_expectations(CURVED_LABEL, True).items()
    }


# ---------------------------------------------------------------------------
# structure sampling: fresh base points, so chart caches are never reused


def _build_structure(seed: int, _workdir: Path) -> dict:
    return {"seed": seed}


def _warm_structure(inputs: dict) -> None:
    cli.cmd_structure(samples=5, seed=inputs["seed"])


def _run_structure(inputs: dict) -> Reports:
    return [("structure", cli.cmd_structure(seed=inputs["seed"]))]


def _expected_structure(_inputs: dict) -> dict[str, str]:
    return {f"structure/{name}": "pass" for name in _STRUCTURE_CHECKS}


# ---------------------------------------------------------------------------
# proof replay


def _build_proof(seed: int, _workdir: Path) -> dict:
    return {"seed": seed}


def _warm_proof(inputs: dict) -> None:
    cli.cmd_proof(trials=1, seed=inputs["seed"], mode="all")


def _run_proof(inputs: dict) -> Reports:
    return [("proof", cli.cmd_proof(seed=inputs["seed"], mode="all"))]


def _expected_proof(_inputs: dict) -> dict[str, str]:
    return {f"proof/{name}": "pass" for name in _PROOF_CHECKS}


# ---------------------------------------------------------------------------
# seeded fits: half H-umbilical (accept path), half rank-one sums (reject path)


def _build_fits(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    tensors = []
    for k in range(FIT_TENSORS):
        if k % 2 == 0:
            tensor, outcome = humfit.build_h_from_V(rng.uniform(-1.0, 1.0, 3)), "fit"
        else:
            tensor, outcome = rank_one_sum(rng), "reject"
        path = workdir / f"tensor-{k}.json"
        path.write_text(tensor.to_json() + "\n")
        tensors.append((str(path), outcome))
    return {"seed": seed, "tensors": tensors}


def _warm_fits(inputs: dict) -> None:
    cli.cmd_fit(inputs["tensors"][0][0])


def _run_fits(inputs: dict) -> Reports:
    return [(f"fit-{k}", cli.cmd_fit(path)) for k, (path, _) in enumerate(inputs["tensors"])]


def _expected_fits(inputs: dict) -> dict[str, str]:
    return {
        f"fit-{k}/humbilical-fit": outcome
        for k, (_, outcome) in enumerate(inputs["tensors"])
    }


PARTS = {
    p.name: p
    for p in (
        Part("geodesic", _build_geodesic, _warm_geodesic, _run_geodesic, _expected_geodesic),
        Part("curved", _build_curved, _warm_curved, _run_curved, _expected_curved),
        Part("structure", _build_structure, _warm_structure, _run_structure,
             _expected_structure),
        Part("proof", _build_proof, _warm_proof, _run_proof, _expected_proof),
        Part("fits", _build_fits, _warm_fits, _run_fits, _expected_fits),
    )
}


@dataclass
class Workload:
    """One benchmark workload: its parts, run in order, make one pass.

    `build`, `warmup`, `run` and `expected` act on every part; inputs map
    each part's name to that part's inputs.
    """

    name: str
    why: str
    parts: tuple[str, ...]
    #: CPU seconds each part took in the last `run`.
    part_s: dict[str, float] = field(default_factory=dict, init=False, repr=False)

    def build(self, seed: int, workdir: Path) -> dict[str, Any]:
        return {name: PARTS[name].build(seed, workdir) for name in self.parts}

    def warmup(self, inputs: dict[str, Any]) -> None:
        for name in self.parts:
            PARTS[name].warmup(inputs[name])

    def run(self, inputs: dict[str, Any]) -> Reports:
        reports: Reports = []
        for name in self.parts:
            start = time.process_time()
            reports.extend(PARTS[name].run(inputs[name]))
            self.part_s[name] = time.process_time() - start
        return reports

    def expected(self, inputs: dict[str, Any]) -> dict[str, str]:
        out: dict[str, str] = {}
        for name in self.parts:
            out.update(PARTS[name].expected(inputs[name]))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "geometry",
            "analyzer on the geodesic roster and a seeded curved immersion, plus structure "
            "sampling at fresh base points: lagrangian, nkgeom, quat and the fit reject path",
            ("geodesic", "curved", "structure"),
        ),
        Workload(
            "algebra",
            "proof replay in exact Q(sqrt 3) and mpmath, plus seeded fits on both paths: "
            "no nkgeom or lagrangian work, the control for analyzer changes",
            ("proof", "fits"),
        ),
    )
}
