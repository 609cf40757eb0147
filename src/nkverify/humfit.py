"""H-umbilicity detection for cubic second-fundamental-form tensors.

A Lagrangian submanifold here carries its second fundamental form as a fully
symmetric cubic tensor c_abc = g(h(E_a, E_b), J E_c).  This module decides
whether such a tensor matches the H-umbilical normal form (one distinguished
unit direction U1 with h(U1,U1) = lambda J U1 and mu on the orthogonal
complement), checks that a totally umbilical shape operator forces h = 0, and
runs the totally-geodesic harness over example immersions.  The fitter finds
U1 in closed form, from the trace vector and the eigenvectors of one
symmetric 3x3 matrix, and accepts only on the exact least-squares residual.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

import numpy as np

from .codazzi import hijk_from_v
from .lagrangian import (
    SUITE_TOLS,
    Immersion,
    Rows,
    is_lagrangian,
    require_lagrangian,
    second_fundamental_form,
)
from .report import CheckRecord, max_keep_nan, min_keep_nan, within, worst_residual

#: Ten independent slots of a symmetric cubic tensor on R^3, ascending indices.
COMPONENT_KEYS = ("111", "112", "113", "122", "123", "133", "222", "223", "233", "333")

_KEY_TUPLES = tuple(tuple(int(ch) - 1 for ch in key) for key in COMPONENT_KEYS)

#: Default bound of the harness on ||h|| where a fit succeeds: h's accuracy.
HARNESS_TOL = 1e-5
#: Default acceptance tolerance of the fitter, a guard factor below
#: HARNESS_TOL so the fit is never stricter than its data.
FIT_TOL = 1e-6


@dataclass(frozen=True)
class CubicTensor:
    """Fully symmetric cubic tensor, stored by its ten independent components.

    Components are exact rationals so that algebraic identities (the three
    vanishing traces of a minimal form, for instance) survive construction.
    """

    components: tuple[Fraction, ...]
    n: int = 3

    def __post_init__(self) -> None:
        if len(self.components) != len(COMPONENT_KEYS):
            raise ValueError("expected the ten independent components")

    @classmethod
    def from_components(cls, mapping: dict) -> "CubicTensor":
        if not isinstance(mapping, dict):
            raise ValueError("components must be an object keyed by index")
        missing = [k for k in COMPONENT_KEYS if k not in mapping]
        if missing:
            raise ValueError(f"missing components: {missing}")
        comps = []
        for k in COMPONENT_KEYS:
            try:
                comps.append(Fraction(mapping[k]))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"component {k} is not a finite number: {mapping[k]!r}") from exc
        return cls(tuple(comps))

    @classmethod
    def from_full(cls, full: np.ndarray) -> "CubicTensor":
        """Exact symmetrization of a 3x3x3 array (permutations averaged)."""
        full = np.asarray(full, dtype=float)
        comps = []
        for idx in _KEY_TUPLES:
            vals = [Fraction(float(full[p])) for p in permutations(idx)]
            comps.append(sum(vals) / len(vals))
        return cls(tuple(comps))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The full 3x3x3 float array, so `fit` and numpy read a tensor as one."""
        full = np.zeros((3, 3, 3))
        for idx, val in zip(_KEY_TUPLES, self.components):
            for p in permutations(idx):
                full[p] = float(val)
        return full if dtype is None else full.astype(dtype)

    def to_json(self) -> str:
        comps = {k: float(v) for k, v in zip(COMPONENT_KEYS, self.components)}
        return json.dumps({"n": self.n, "components": comps}, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "CubicTensor":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a cubic tensor file holds one JSON object")
        if payload.get("n", 3) != 3:
            raise ValueError("only n = 3 tensors are supported by the fitter")
        if "components" not in payload:
            raise ValueError("a cubic tensor file needs a components object keyed by index")
        return cls.from_components(payload["components"])


#: The five non-identity permutations of a cubic array's axes.
_TRANSPOSES = tuple(permutations(range(3)))[1:]


def symmetry_defect(c: np.ndarray) -> np.ndarray | float:
    """Largest deviation from full symmetry of each 3-index array in c, whose
    last three axes are the indices: a float for one array, an array over
    the leading axes for a batch.  A NaN entry is its array's result."""
    c = np.asarray(c, dtype=float)
    lead = tuple(range(c.ndim - 3))
    worst = np.zeros(c.shape[:-3])
    for axes in _TRANSPOSES:
        diff = np.abs(c - c.transpose(lead + tuple(len(lead) + a for a in axes)))
        worst = np.maximum(worst, diff.max(axis=(-3, -2, -1)))  # both keep a NaN
    return worst if lead else float(worst)


def build_h_from_V(V: Sequence) -> CubicTensor:
    """Cubic form of the minimal normal-form family driven by one vector,
    `codazzi.hijk_from_v` in exact rationals.  Its table holds one entry per
    symmetry class, the sorted indices ascending, which is the order of
    `COMPONENT_KEYS`.

    Equals the H-umbilical pattern with U1 = V/|V|, mu = |V|^3, lambda = -2 mu.
    """
    return CubicTensor(hijk_from_v([Fraction(float(x)) for x in V]))


@dataclass(frozen=True)
class HUmbilicalFit:
    """Normal-form parameters recovered from a cubic tensor."""

    U1: np.ndarray
    lam: float
    mu: float
    residual: float

    @property
    def minimality_defect(self) -> float:
        """lambda + 2 mu; zero exactly when the fitted form is minimal."""
        return self.lam + 2.0 * self.mu


def _normalize(u: np.ndarray) -> np.ndarray:
    return u / np.linalg.norm(u)


def _pattern_pair(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal basis tensors of the normal form at direction u:
    T1 = u (x) u (x) u and T2 = the symmetrized u (x) (Id - u u^T)."""
    T1 = np.einsum("a,b,c->abc", u, u, u)
    P = np.eye(3) - np.outer(u, u)
    T2 = (
        np.einsum("a,bc->abc", u, P)
        + np.einsum("b,ac->abc", u, P)
        + np.einsum("c,ab->abc", u, P)
    )
    return T1, T2


def _least_squares(full: np.ndarray, u: np.ndarray) -> tuple[float, float, float]:
    T1, T2 = _pattern_pair(u)
    lam = float(np.sum(full * T1))  # T1 is unit and orthogonal to T2
    mu = float(np.sum(full * T2) / np.sum(T2 * T2))
    resid = float(np.linalg.norm(full - lam * T1 - mu * T2))
    return lam, mu, resid


def _candidates(full: np.ndarray) -> list[np.ndarray]:
    """Unit directions among which U1 lies, when full is H-umbilical.

    For the normal form the trace vector t_c = c_aac is (lambda + 2 mu) U1 and
    S = sum_ab c_abc c_abd is lambda^2 U1 U1^T + 2 mu^2 Id.  The three
    eigenvectors of S contain U1 unless lambda = 0, where S is a multiple of
    Id; the trace names U1 unless lambda = -2 mu, where it vanishes.  Both
    fail together only for c = 0, which `fit` settles first.
    """
    _, vecs = np.linalg.eigh(np.einsum("abc,abd->cd", full, full))
    cands = list(vecs.T)
    trace = np.einsum("aab->b", full)
    if np.linalg.norm(trace) > 0:
        cands.append(_normalize(trace))
    return cands


def fit(h, tol: float = FIT_TOL) -> HUmbilicalFit | None:
    """Recover the normal-form parameters of h, a 3x3x3 array or a
    CubicTensor, or reject.

    A tensor below the tolerance in norm fits trivially with lambda = mu = 0.
    Otherwise U1 is chosen in closed form among the eigenvectors of
    S = sum_ab c_abc c_abd and the normalized trace vector (see
    `_candidates`), the pair (lambda, mu) is solved by least squares at each
    candidate, and the candidate with the smallest reconstruction residual is
    accepted only if that residual is below tol.  The sign convention keeps
    mu >= 0 (flipping U1 as needed), with a lexicographically positive U1
    when mu = 0.
    """
    full = np.asarray(h, dtype=float)
    nrm = float(np.linalg.norm(full))
    if nrm < tol:
        return HUmbilicalFit(np.array([1.0, 0.0, 0.0]), 0.0, 0.0, nrm)
    u = min(_candidates(full), key=lambda cand: _least_squares(full, cand)[2])
    lam, mu, resid = _least_squares(full, u)
    if not resid < tol:
        return None
    # (U1, lam, mu) and (-U1, -lam, -mu) describe the same tensor
    lead = next((x for x in u if x != 0), 1.0)
    if mu < 0 or (mu == 0 and lead < 0):
        u, lam, mu = -u, -lam, abs(mu)
    return HUmbilicalFit(u, lam, mu, resid)


def umbilical_cubic(n: int, xi: Sequence[float] | np.ndarray) -> np.ndarray:
    """Cubic form of a totally umbilical shape operator, c_abc = d_ab xi_c,
    for each n-vector xi along the last axis of xi."""
    xi = np.asarray(xi, dtype=float)
    c = np.zeros(xi.shape[:-1] + (n, n, n))
    for a in range(n):
        c[..., a, a, :] = xi
    return c


def umbilical_lemma_check(n: int = 3, trials: int = 100, seed: int = 0) -> CheckRecord:
    """A totally umbilical cubic form is symmetric only for xi = 0.

    Hence a symmetric second fundamental form of this shape vanishes, which is
    the totally geodesic conclusion in the umbilical case.  The asymmetry of
    c_abc = d_ab xi_c equals the sup norm of xi, so unit vectors xi are
    rejected with margin at least 1/sqrt(n).  The trials are drawn one at a
    time and their cubic forms, with xi = 0 last, measured in one batch.
    """
    if n < 2:
        raise ValueError("the umbilical argument needs dimension at least 2")
    rng = random.Random(seed)
    floor = 1.0 / math.sqrt(n)
    xis = np.zeros((trials + 1, n))  # the last row stays xi = 0
    for t in range(trials):
        xi = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        xis[t] = xi / np.linalg.norm(xi)
    *asyms, zero_asym = symmetry_defect(umbilical_cubic(n, xis)).tolist()
    failures = [
        {"trial": t, "xi": xis[t].tolist(), "asymmetry": asym}
        for t, asym in enumerate(asyms)
        if not asym >= floor * (1.0 - 1e-12)
    ]
    if zero_asym != 0.0:
        failures.append({"trial": "xi=0", "asymmetry": "nonzero"})
    return CheckRecord(
        check_id=f"umbilical-rigidity[n={n}]",
        passed=not failures,
        samples=trials,
        details={
            "dimension": n,
            "min_asymmetry": min_keep_nan(math.inf, *asyms),
            "margin_floor": floor,
        },
        failures=failures,
    )


def theorem_harness(imm: Immersion, grid: int = 5, tol: float = HARNESS_TOL) -> CheckRecord:
    """Totally geodesic shadow of the rigidity theorem on one immersion, on
    its own: one is_lagrangian precheck (at SUITE_TOLS["lagrangian"]) and
    one second_fundamental_form call cover the grid, three map evaluations
    in all, and `theorem_shadow` reads the cubic forms.  `cli.cmd_lagrangian`
    runs `theorem_shadow` on the cubic forms of a `suite_pass` share instead.
    """
    points = imm.domain.grid(grid)
    require_lagrangian(imm.label, points, is_lagrangian(imm, points), SUITE_TOLS["lagrangian"])
    cs, _ = second_fundamental_form(imm, points)
    return theorem_shadow(imm.label, points, cs, tol)


def theorem_shadow(label: str, points: Rows, cs: np.ndarray, tol: float) -> CheckRecord:
    """The `theorem-shadow[label]` record of the cubic forms cs (n, 3, 3, 3)
    of a Lagrangian immersion at the rows of points.

    Each point's cubic form is fed to the fitter; any point where an
    H-umbilical fit succeeds while ||h|| is not within tol (`report.within`)
    would be a falsification candidate, and is reported as a failure.
    """
    failures = []
    fits = 0
    max_h = 0.0
    max_lam = 0.0
    max_mu = 0.0
    for u, c in zip(points, cs):
        h_norm = float(np.linalg.norm(c))
        max_h = max_keep_nan(max_h, h_norm)
        if not math.isfinite(h_norm):  # nothing to fit, and no pass on it
            failures.append({"u": np.asarray(u).tolist(), "h_norm": h_norm})
            continue
        result = fit(c)
        if result is not None:
            fits += 1
            max_lam = max_keep_nan(max_lam, abs(result.lam))
            max_mu = max_keep_nan(max_mu, abs(result.mu))
            if not within(h_norm, tol):
                failures.append(
                    {
                        "u": np.asarray(u).tolist(),
                        "h_norm": h_norm,
                        "lam": result.lam,
                        "mu": result.mu,
                    }
                )
    return CheckRecord(
        check_id=f"theorem-shadow[{label}]",
        passed=not failures,
        samples=len(points),
        tolerance=tol,
        max_residual=max_h,
        details={
            "fit_successes": fits,
            "grid_points": len(points),
            "max_abs_lambda": max_lam,
            "max_abs_mu": max_mu,
            "max_symmetry_defect": worst_residual(symmetry_defect(cs)),
        },
        failures=failures,
    )
