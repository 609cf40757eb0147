"""Analyzer for three-dimensional immersions into S3 x S3.

Given a parametrized immersion, tests the Lagrangian condition, computes the
induced frame geometry (second fundamental form, mean curvature, the split of
the product structure P into A + JB, angle functions), fixes the frame
orientation against the G tensor, and evaluates the Codazzi-equation residual.
Every derivative comes from evaluating the map once on truncated Taylor jets
(see jet.py) for a whole batch of parameter points, and several immersions
share one frame package and one pass of checks (`suite_pass`, `frame_pass`),
each getting what it gets alone.  Ships the built-in
example immersions: the two sphere factors, the diagonal, and a twisted
non-Lagrangian control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .jet import Jet, size, stack
from .nkgeom import CONNECTION, G_ARRAY, J, P, PointS3S3, g, norm
from .quat import ImaginaryQuaternion, Quaternion, exp_im
from .report import CheckRecord, max_keep_nan, within, worst_residual

_SQRT3 = math.sqrt(3.0)

#: Immersion rank guard: smallest eigenvalue of the pushforward Gram matrix.
RANK_FLOOR = 1e-6
#: Two eigenpairs of (A, B) closer than this are treated as coinciding.
DEGENERACY_GAP = 1e-6
#: Residual bound enforcing the Lagrangian precondition of downstream ops.
LAGRANGIAN_PRECONDITION_TOL = 1e-6

#: The bound of each check of lagrangian_suite, unless one tol is given for all.
SUITE_TOLS = {
    "lagrangian": 1e-9,
    "minimality": 1e-5,
    "cubic-symmetry": 1e-5,
    "ab-structure": 1e-8,
    "angle-sum": 1e-5,
    "orientation": 1e-4,
    "codazzi-residual": 1e-4,
}

#: Parameter points, one per row: an (n, 3) array or a list of 3-vectors.
Rows = Sequence[Sequence[float]]

EPSILON = np.zeros((3, 3, 3))
for _even in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[_even] = 1.0
for _odd in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
    EPSILON[_odd] = -1.0


@dataclass(frozen=True)
class Box:
    """Axis-aligned parameter domain in R^3."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def grid(self, n: int) -> list[np.ndarray]:
        axes = [np.linspace(l, h, n) for l, h in zip(self.lo, self.hi)]
        return [
            np.array([a, b, c])
            for a in axes[0]
            for b in axes[1]
            for c in axes[2]
        ]


@dataclass
class Immersion:
    """A parametrized map from a box in R^3 into S3 x S3.

    The map is written with the quat and nkgeom types, so it also takes a
    jet argument (`jet.Jet.variables`) and then returns the jets of its
    point: the analyzer reads every derivative it needs from one such call
    per batch of points.
    """

    label: str
    domain: Box
    map_fn: Callable[[np.ndarray], PointS3S3]

    def point(self, u: Sequence[float] | Jet) -> PointS3S3:
        if isinstance(u, Jet):
            return self.map_fn(u)
        return self.map_fn(np.asarray(u, dtype=float))


# ---------------------------------------------------------------------------
# frame layer: tangent data as (..., 6) arrays of (alpha, beta) components,
# or as jets of them, batched over leading axes.

#: _CONJ_MUL[4 j + k, i] is the i-th imaginary component of conj(e_j) e_k.
_CONJ_MUL = np.array(
    [
        (a.conjugate() * b).imag.as_array()
        for a in map(Quaternion.from_array, np.eye(4))
        for b in map(Quaternion.from_array, np.eye(4))
    ]
)
#: _CONNECTION_FLAT[6 a + b, d] = CONNECTION[d, a, b].
_CONNECTION_FLAT = CONNECTION.transpose(1, 2, 0).reshape(36, 6)


def _gamma(X: Jet, W: Jet) -> Jet:
    """The closed-form connection Gamma(X, W) = CONNECTION @ w @ x of jets."""
    outer = X[..., :, None] * W[..., None, :]
    return outer.reshape(*outer.shape[:-2], 36) @ _CONNECTION_FLAT


def _per_point(residuals: np.ndarray) -> np.ndarray:
    """The largest residual at each point (the first axis); NaN stays NaN."""
    return np.max(residuals, axis=tuple(range(1, residuals.ndim)))


def _map_jet(imm: Immersion, us: np.ndarray, order: int) -> Jet:
    """The jets (n, 2, 4) of (p, q) at the rows of us, from one map call.
    Float components of the result (a constant factor) become constant jets."""
    try:
        pt = imm.point(Jet.variables(us, order))
        c = np.zeros((len(us), 8, size(order)))
        for i, x in enumerate((pt.p.w, pt.p.x, pt.p.y, pt.p.z, pt.q.w, pt.q.x, pt.q.y, pt.q.z)):
            if isinstance(x, Jet):
                c[:, i] = x.c
            else:
                c[:, i, 0] = float(x)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{imm.label}: the map does not take jet arguments ({exc})") from exc
    return Jet(c.reshape(len(us), 2, 4, -1), order)


def _orthonormalize(V: Jet) -> tuple[Jet, Jet]:
    """Classical Gram-Schmidt in g of the jets V (n, 3, 6): the frames E
    (n, 3, 6) and S (n, 3, 3), whose rows express E_a in the input vectors."""
    E: list[Jet] = []
    S: list[Jet] = []
    for a in range(3):
        w, comb = V[:, a], np.eye(3)[a]
        for b in range(a):
            c = g(V[:, a], E[b])[:, None]
            w = w - c * E[b]
            comb = comb - c * S[b]
        inv = g(w, w).power(-0.5)[:, None]
        E.append(inv * w)
        S.append(inv * comb)
    return stack(E, 1), stack(S, 1)


def _ab(E, JE):
    """A_ab = g(P E_a, E_b) and B_ab = g(P E_a, J E_b) on frames E (..., 3, 6),
    arrays or jets."""
    PE = P(E)[..., :, None, :]
    return g(PE, E[..., None, :, :]), g(PE, JE[..., None, :, :])


def _tables(nabla, E, JE):
    """Cubic components g(nabla_a E_b, JE_k) and connection components
    g(nabla_a E_b, E_k) of frames E (..., 3, 6), nabla (..., 3, 3, 6)."""
    nabla = nabla[..., None, :]
    return g(nabla, JE[..., None, None, :, :]), g(nabla, E[..., None, None, :, :])


def _slices(lengths: Sequence[int]) -> list[slice]:
    """Consecutive slices of the given lengths."""
    ends = np.cumsum(lengths).tolist()
    return [slice(end - n, end) for n, end in zip(lengths, ends)]


class _Package:
    """Frame package at the rows of us, from one jet evaluation of the map.

    The pushforward V_a = Im(conj(p) d_a p), Im(conj(q) d_a q) is the
    left-translated first-order part of the map's jet, and Gram-Schmidt runs
    on its jets.  Every order gives the frame E (n, 3, 6), JE, the parameter
    directions S (n, 3, 3) pushing to E, A/B and the Lagrangian residuals.
    Order 2 adds the ambient derivatives nabla_{E_a} E_b = E_a(e_b) +
    Gamma(e_a, e_b), with E_a(f) = sum_c S_ac d_c f read from the frame's
    jet, the cubic components c, the connection components omega, the mean
    curvature H and the derivatives dA, dB (n, 3, 3, 3) of A/B along the
    parameter axes (last index).  Order 3 adds dc (n, 3, 3, 3, 3), the
    derivative of c along E_x (first index after n), for Codazzi.

    imm may also be a list of immersions, with us the list of their row
    sets: the package then holds their rows in turn, from one jet evaluation
    of each map, and `segments` gives each immersion's slice of them.  Every
    row gets, bit for bit, what its immersion's own package gives it (the jet
    product does not depend on the batch), and every error is the one the
    immersions' own packages, built in turn, would raise first.
    """

    def __init__(
        self, imm: Immersion | Sequence[Immersion], us: Rows | Sequence[Rows], order: int
    ) -> None:
        imms, row_sets = ([imm], [us]) if isinstance(imm, Immersion) else (list(imm), list(us))
        us, jets = [], []
        for k, (one, rows) in enumerate(zip(imms, row_sets)):
            try:
                us.append(np.asarray(rows, dtype=float).reshape(-1, 3))
                if not len(us[-1]):
                    raise ValueError(f"{one.label}: no parameter rows to evaluate")
                jets.append(_map_jet(one, us[-1], order))
            except ValueError:
                if k:  # a rank failure of an earlier immersion comes first
                    _Package(imms[:k], row_sets[:k], order)
                raise
        self.us = us[0] if len(us) == 1 else np.concatenate(us)
        self.segments = _slices([len(rows) for rows in us])
        pq = jets[0] if len(jets) == 1 else Jet(np.concatenate([j.c for j in jets]), order)
        n = len(self.us)
        # V_a = Im(conj(p) d_a p), Im(conj(q) d_a q), a jet of order - 1
        p, dp = pq.truncate(order - 1)[:, None], pq.grad().moveaxis(-1, 1)
        V = (p[..., :, None] * dp[..., None, :]).reshape(n, 3, 2, 16) @ _CONJ_MUL
        V = V.reshape(n, 3, 6)
        self.V = V.value
        low = np.linalg.eigvalsh(g(self.V[:, :, None], self.V[:, None])).min(axis=-1)
        for one, part in zip(imms, self.segments):
            for u, m in zip(self.us[part], low[part]):
                if not m > RANK_FLOOR:
                    raise ValueError(f"{one.label}: pushforward rank-deficient at u={u.tolist()}")
        E, S = _orthonormalize(V)
        JE = J(E)
        first = min(order - 1, 1)  # A/B are read to first order: values, dA, dB
        A, B = _ab(E.truncate(first), JE.truncate(first))
        self.E, self.S, self.JE, self.A, self.B = E.value, S.value, JE.value, A.value, B.value
        self.lagrangian_residual = _per_point(np.abs(g(self.JE[:, :, None], self.E[:, None])))
        if order < 2:
            return
        # nabla_{E_a} E_b, c and omega as jets of order - 2
        E2, S2 = E.truncate(order - 2), S.truncate(order - 2)
        along = (S2[:, :, None, None, :] * E.grad()[:, None]).sum(-1)
        nabla = along + _gamma(E2[:, :, None], E2[:, None])
        c, omega = _tables(nabla, E2, JE.truncate(order - 2))
        self.c, self.omega = c.value, omega.value
        diag = [0, 1, 2]
        normal = nabla.value[:, diag, diag] - np.einsum(
            "nak,nkd->nad", self.omega[:, diag, diag], self.E
        )
        self.H = normal.sum(axis=1) / 3.0
        self.dA, self.dB = A.grad().value, B.grad().value
        if order >= 3:
            self.dc = np.einsum("nxd,nabkd->nxabk", self.S, c.grad().value)

    def take(self, rows: np.ndarray | slice) -> "_Package":
        """The package of the given rows only (without `segments`)."""
        part = object.__new__(_Package)
        for key, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(part, key, value[rows])
        return part


@dataclass(frozen=True)
class LagrangianCheck:
    ok: bool
    residual: float

    def __bool__(self) -> bool:
        return self.ok


def is_lagrangian(imm: Immersion, us: Rows) -> list[LagrangianCheck]:
    """Does J map the tangent space into the normal space, at each row of us?

    The residual is the largest |g(J E_a, E_b)| over an orthonormal tangent
    frame, so the test is scale-free in the parametrization; a row is ok when
    it is below the suite's bound SUITE_TOLS["lagrangian"].
    """
    tol = SUITE_TOLS["lagrangian"]
    return [LagrangianCheck(r < tol, r) for r in _Package(imm, us, 1).lagrangian_residual.tolist()]


def require_lagrangian(
    label: str, us: Rows, residuals: Sequence[float], tol: float = LAGRANGIAN_PRECONDITION_TOL
) -> None:
    """Raise at the first point whose Lagrangian residual is not below tol."""
    for u, residual in zip(us, residuals):
        if not residual < tol:
            raise ValueError(
                f"{label}: not Lagrangian at u={np.asarray(u).tolist()} (residual {residual:.3e})"
            )


def _checked_rows(imm: Immersion, us: Rows, order: int) -> _Package:
    """Frame package of the given order at the rows of us, once is_lagrangian
    has passed the precondition at every row."""
    us = np.asarray(us, dtype=float).reshape(-1, 3)
    require_lagrangian(imm.label, us, [chk.residual for chk in is_lagrangian(imm, us)])
    return _Package(imm, us, order)


def second_fundamental_form(imm: Immersion, us: Rows) -> tuple[np.ndarray, np.ndarray]:
    """Cubic components c_abk = g(h(E_a, E_b), JE_k) in an orthonormal frame
    (n, 3, 3, 3), and the (alpha, beta) components (n, 6) of the mean
    curvature vector H, at the rows of us."""
    pkg = _checked_rows(imm, us, 2)
    return pkg.c, pkg.H


def ab_operators(imm: Immersion, us: Rows) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (n, 3, 3) of the tangential split
    P E_a = sum_b (A_ab E_b + B_ab J E_b) at the rows of us.

    The sign of B is fixed by that expansion: B_ab = g(P E_a, J E_b), since
    {E_b, JE_b} is a g-orthonormal basis of the pulled-back tangent bundle.
    """
    pkg = _checked_rows(imm, us, 1)
    return pkg.A, pkg.B


def p_split_residual(imm: Immersion, us: Rows) -> np.ndarray:
    """Reconstruction error max_a |P E_a - sum_b (A_ab E_b + B_ab J E_b)|
    at each row of us."""
    return _p_split(_checked_rows(imm, us, 1))


def _p_split(pkg: _Package) -> np.ndarray:
    """The P-split reconstruction error at each package point."""
    recon = np.einsum("nab,nbd->nad", pkg.A, pkg.E) + np.einsum("nab,nbd->nad", pkg.B, pkg.JE)
    return _per_point(norm(P(pkg.E) - recon))


def _ab_structure(pkg: _Package) -> np.ndarray:
    """Symmetry, commutation and A^2 + B^2 = 1 defects of A/B, and the
    P-split error, at each package point."""
    A, B = pkg.A, pkg.B
    At, Bt = A.transpose(0, 2, 1), B.transpose(0, 2, 1)
    defects = np.stack((A - At, B - Bt, A @ B - B @ A, A @ A + B @ B - np.eye(3)), axis=1)
    return np.maximum(_per_point(np.abs(defects)), _p_split(pkg))


@dataclass
class AngleData:
    """The joint eigenstructure of a stack of pairs (A, B), indexed by the
    stack's leading axes."""

    thetas: np.ndarray  # (..., 3)
    coeffs: np.ndarray  # (..., 3, 3): rows are eigenvectors in the input frame
    degenerate: np.ndarray  # (...,) bool
    cos2: np.ndarray  # (..., 3)
    sin2: np.ndarray  # (..., 3)


#: Values of cos(2 theta), or of an eigenvalue of A, this close to their
#: run's first value count as equal.
CLUSTER_GAP = 1e-8
#: The runs of more than one value among three ascending values, by layout.
_RUNS = ((0, 3), (0, 2), (1, 3))


def _runs(values: np.ndarray):
    """(run, rows) for each run of more than one value that some rows of the
    ascending values (m, 3) share: a run holds the values within CLUSTER_GAP
    of its first one, and the next run starts at the first value that is
    not."""
    first = values[:, 1] - values[:, 0] < CLUSTER_GAP
    layout = np.where(
        first,
        np.where(values[:, 2] - values[:, 0] < CLUSTER_GAP, 0, 1),
        np.where(values[:, 2] - values[:, 1] < CLUSTER_GAP, 2, 3),
    )
    for code, run in enumerate(_RUNS):
        rows = np.flatnonzero(layout == code)
        if len(rows):
            yield run, rows


def _within_gate(defects: np.ndarray) -> np.ndarray:
    """Is every defect of a pair at most 1e-6, at each pair of a stack?  A
    NaN defect is not."""
    return _per_point(np.abs(defects)) <= 1e-6


def angle_functions(A: np.ndarray, B: np.ndarray) -> AngleData:
    """Simultaneous eigenstructure of the commuting pairs (A, B), stacks
    (..., 3, 3), from one eigh call over the stack.

    Eigenvectors satisfy A e_i = cos(2 theta_i) e_i, B e_i = sin(2 theta_i) e_i
    with theta_i in [0, pi), ordered by ascending cos(2 theta); values of
    cos(2 theta) within CLUSTER_GAP of each other count as equal and are
    ordered by ascending sin(2 theta).  Inside each cluster of A's
    eigenvalues B is diagonalized, batched over the pairs that share a
    cluster layout.  Eigenvector signs are canonicalized.  The degeneracy
    flag is set when two (cos, sin) eigenpairs coincide within the gap
    threshold, which predicts a totally geodesic submanifold.  Each pair
    gets what it would get alone.  A pair that is not symmetric and
    commuting, or not jointly diagonalizable, within 1e-6 (a NaN entry
    included) raises ValueError; the first such pair in stack order sets
    the message.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    lead = A.shape[:-2]
    A, B = A.reshape(-1, 3, 3), B.reshape(-1, 3, 3)
    symmetric = _within_gate(
        np.stack((A - A.swapaxes(1, 2), B - B.swapaxes(1, 2), A @ B - B @ A), axis=1)
    )
    refused = np.flatnonzero(~symmetric)
    if len(refused):
        _eigenstructure(A[: refused[0]], B[: refused[0]])  # an earlier pair may fail first
        raise ValueError("angle functions need symmetric commuting A, B")
    cos2, sin2, U = _eigenstructure(A, B)
    order = np.argsort(cos2, axis=1, kind="stable")
    for (i, j), rows in _runs(np.take_along_axis(cos2, order, 1)):
        run = order[rows, i:j]
        by_sin = np.argsort(np.take_along_axis(sin2[rows], run, 1), axis=1, kind="stable")
        order[rows, i:j] = np.take_along_axis(run, by_sin, 1)
    cos2, sin2 = np.take_along_axis(cos2, order, 1), np.take_along_axis(sin2, order, 1)
    U = np.take_along_axis(U, order[:, None], 2)
    # canonical signs: the largest-magnitude entry of each eigenvector positive
    lead_entry = np.take_along_axis(U, np.abs(U).argmax(axis=1)[:, None], 1)
    U = np.where(lead_entry < 0, -U, U)
    # math.atan2, not np.arctan2, which may round differently
    cs = zip(cos2.ravel().tolist(), sin2.ravel().tolist())
    thetas = np.reshape([math.atan2(s, c) / 2 % math.pi for c, s in cs], cos2.shape)
    i, j = [0, 0, 1], [1, 2, 2]
    degenerate = (
        (np.abs(cos2[:, i] - cos2[:, j]) < DEGENERACY_GAP)
        & (np.abs(sin2[:, i] - sin2[:, j]) < DEGENERACY_GAP)
    ).any(axis=1)
    return AngleData(
        thetas.reshape(*lead, 3),
        U.swapaxes(1, 2).reshape(*lead, 3, 3),
        degenerate.reshape(lead),
        cos2.reshape(*lead, 3),
        sin2.reshape(*lead, 3),
    )


def _eigenstructure(
    A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos(2 theta), sin(2 theta) (m, 3) and the eigenvector columns U
    (m, 3, 3) of symmetric commuting pairs (m, 3, 3), unordered: A's
    eigenbasis, with B diagonalized inside each cluster of A's eigenvalues.
    Raises ValueError where B is then not diagonal within 1e-6."""
    w, U = np.linalg.eigh(A)
    for (i, j), rows in _runs(w):
        block = U[rows][:, :, i:j]
        Ub = np.linalg.eigh(block.swapaxes(1, 2) @ B[rows] @ block)[1]
        U[rows, :, i:j] = block @ Ub
    Ut = U.swapaxes(1, 2)
    cos2 = (Ut @ A @ U).diagonal(0, 1, 2).copy()
    BU = Ut @ B @ U
    sin2 = BU.diagonal(0, 1, 2).copy()
    if not _within_gate(BU - sin2[:, :, None] * np.eye(3)).all():
        raise ValueError("A and B could not be jointly diagonalized")
    return cos2, sin2, U


def angle_sum_defect(thetas: Sequence[float]) -> float:
    """Distance of theta_1 + theta_2 + theta_3 to the nearest multiple of pi."""
    s = float(sum(thetas))
    return abs(s - math.pi * round(s / math.pi))


def relation_h_omega_residual(
    h: np.ndarray, omega: np.ndarray, thetas: np.ndarray
) -> np.ndarray:
    """Residual of the frame relation linking h, omega and the angles:
    h_ij^k cos(th_j - th_k) = (eps_ijk/(2 sqrt 3) - omega_ij^k) sin(th_j - th_k)
    for j != k; the largest violation at each point of stacks h, omega
    (..., 3, 3, 3) and thetas (..., 3).  NaN stays NaN."""
    thetas = np.asarray(thetas, dtype=float)
    d = (thetas[..., :, None] - thetas[..., None, :])[..., None, :, :]  # [i, j, k]
    lhs = h * np.cos(d)
    rhs = (EPSILON / (2 * _SQRT3) - omega) * np.sin(d)
    return np.abs(lhs - rhs)[..., ~np.eye(3, dtype=bool)].max(axis=(-2, -1))


@dataclass
class AdaptedFrameData:
    """Everything the analyzer knows at one parameter point."""

    frame: np.ndarray  # (3, 6): the (alpha, beta) components of F_1, F_2, F_3
    thetas: tuple[float, float, float]
    h: np.ndarray
    omega: np.ndarray
    H: np.ndarray  # (6,): the components of the mean curvature vector
    degenerate: bool
    orientation_residual: float
    # the eigenframe checks, at non-degenerate points only
    eq_residual: float | None  # frame relation
    dtheta_residual: float | None  # E_i(theta_j) = -h_jj^i
    dtheta_max_abs: float | None  # the largest |E_i(theta_j)|


def frame_components(imm: Immersion, us: Rows) -> list[AdaptedFrameData]:
    """Adapted-frame analysis at each row of us, from one order-2 package
    and one adapted-frame pass over all of its points.

    Diagonalizes (A, B) on the orthonormalized pushforward frame, flips one
    frame vector if needed so the G tensor takes its canonical frame form
    G(E_i, E_j) = -(1/sqrt 3) sum_k eps_ij^k J E_k, and reports the cubic and
    connection components in the fixed frame.  The relation between h, omega
    and the angle derivatives is checked only at non-degenerate points; the
    built-in examples are all degenerate (hence totally geodesic), so there
    the flag is reported instead.  A row that fails the Lagrangian
    precondition raises ValueError, and so does an empty us.
    """
    return frame_pass([imm], us)[0]


def frame_pass(imms: Sequence[Immersion], us: Rows) -> list[list[AdaptedFrameData]]:
    """`frame_components` of each immersion at the rows of us, from one
    order-2 package over all of them and one adapted-frame pass.  Each
    immersion gets, bit for bit, what it gets alone.  The Lagrangian
    precondition of every immersion is checked, in turn, before any frame is
    built; a pass that cannot build a frame raises the message of the first
    immersion, in turn, that cannot."""
    pkg = _Package(imms, [us] * len(imms), 2)
    for imm, part in zip(imms, pkg.segments):
        require_lagrangian(imm.label, pkg.us[part], pkg.lagrangian_residual[part])
    frames = _adapted_frames(pkg)
    return [frames[part] for part in pkg.segments]


def _rotated(R: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Frame tables (..., 3, 3, 3) re-expressed in the frames
    F_i = sum_b R_ib E_b, with R (..., 3, 3) held constant:
    t_F = R (x) R (x) R . t."""
    return np.einsum("...ai,...bj,...kl,...ijl->...abk", R, R, R, table)


def _adapted_frames(pkg: _Package) -> list[AdaptedFrameData]:
    """The adapted-frame analysis at every point of an order >= 2 package,
    in one pass over all of them: each point gets what it would get alone."""
    ang = angle_functions(pkg.A, pkg.B)
    R = ang.coeffs.copy()

    frame = R @ pkg.E
    probe = g(np.einsum("dab,na,nb->nd", G_ARRAY, frame[:, 0], frame[:, 1]), J(frame[:, 2]))
    flip = probe > 0  # canonical form requires g(G(E1,E2), JE3) = -1/sqrt(3)
    R[flip, 2] = -R[flip, 2]
    frame[flip, 2] = -1.0 * frame[flip, 2]
    target = np.einsum("ijk,nkd->nijd", -EPSILON / _SQRT3, J(frame))
    G_frame = np.einsum("dab,nia,njb->nijd", G_ARRAY, frame, frame)
    orientation = _per_point(norm(G_frame - target))
    h, omega = _rotated(R, pkg.c), _rotated(R, pkg.omega)

    eigen = [(None, None, None)] * len(R)
    rows = np.flatnonzero(~ang.degenerate)
    if len(rows):
        checks = _eigenfield_checks(pkg, rows, R[rows], ang, h[rows], omega[rows])
        for k, values in zip(rows.tolist(), zip(*(x.tolist() for x in checks))):
            eigen[k] = values

    return [
        AdaptedFrameData(
            frame=frame[k],
            thetas=tuple(thetas),
            h=h[k],
            omega=omega[k],
            H=pkg.H[k],
            degenerate=degenerate,
            orientation_residual=residual,
            eq_residual=eigen[k][0],
            dtheta_residual=eigen[k][1],
            dtheta_max_abs=eigen[k][2],
        )
        for k, (thetas, degenerate, residual) in enumerate(
            zip(ang.thetas.tolist(), ang.degenerate.tolist(), orientation.tolist())
        )
    ]


def _eigenframe_rates(
    pkg: _Package, rows: np.ndarray, R: np.ndarray, ang: AngleData, omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Connection components omega[n, a, b, k] = g(nabla_{F_a} F_b, F_k) of
    the eigenframe fields F_a = sum_b R_ab E_b at the given package rows,
    whose R (n, 3, 3) follow the simple joint eigenbasis of (A, B) there (ang
    holds every package point), and the angle derivatives
    [n, a, j] = F_a(theta_j); omega (n, 3, 3, 3) is the rotated omega of E
    there, with R held constant.

    First-order perturbation of that eigenbasis: along F_a, with
    A' = R (F_a A) R^T and B' likewise, R moves by F_a(R) = K R with K
    antisymmetric, K_bk (lam_b - lam_k) = A'_bk and K_bk (mu_b - mu_k) = B'_bk
    for the eigenvalues lam = cos(2 theta), mu = sin(2 theta), and the
    eigenvalues move by A'_bb and B'_bb.  So omega is the rotated omega of E
    plus K.
    """
    lam, mu = ang.cos2[rows][:, None], ang.sin2[rows][:, None]  # [n, ., j]
    dirs = R @ pkg.S[rows]  # parameter directions of F_a
    Rl, Rr = R[:, None], R.swapaxes(1, 2)[:, None]
    dA = Rl @ np.einsum("nac,nbkc->nabk", dirs, pkg.dA[rows]) @ Rr
    dB = Rl @ np.einsum("nac,nbkc->nabk", dirs, pkg.dB[rows]) @ Rr
    dlam, dmu = lam.swapaxes(1, 2) - lam, mu.swapaxes(1, 2) - mu
    K = (dA * dlam[:, None] + dB * dmu[:, None]) / (dlam**2 + dmu**2 + np.eye(3))[:, None]
    omega = omega + K
    dlam_a, dmu_a = dA.diagonal(0, 2, 3), dB.diagonal(0, 2, 3)
    return omega, (lam * dmu_a - mu * dlam_a) / (2.0 * (lam**2 + mu**2))


def _eigenfield_checks(
    pkg: _Package,
    rows: np.ndarray,
    R: np.ndarray,
    ang: AngleData,
    h: np.ndarray,
    omega: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame relation and angle-derivative checks with the eigenframe fields
    at the given package rows (see _eigenframe_rates), where h and omega
    (n, 3, 3, 3) are c and omega rotated into those frames: the frame
    relation residual, the dtheta residual and the largest |F_a(theta_j)|
    at each row.  In the eigenframe h is the rotated c, since F_a(R) only
    adds tangent terms to nabla_{F_a} F_b."""
    omega, deriv = _eigenframe_rates(pkg, rows, R, ang, omega)
    eq_residual = relation_h_omega_residual(h, omega, ang.thetas[rows])
    dtheta_residual = _per_point(np.abs(deriv + h.diagonal(0, 1, 2)))
    return eq_residual, dtheta_residual, _per_point(np.abs(deriv))


def codazzi_residual(imm: Immersion, us: Rows) -> np.ndarray:
    """Largest frame-triple violation of the Codazzi equation at each row of us.

    Evaluates (del h)(X,Y,Z) - (del h)(Y,X,Z) minus
    (1/3)(g(AY,Z) JBX - g(AX,Z) JBY - g(BY,Z) JAX + g(BX,Z) JAY)
    over the orthonormalized frame, where (del h)(X,Y,Z) is the covariant
    derivative of the second fundamental form and its normal-connection term
    is expanded through the identity nabla-perp_X JY = J nabla_X Y + G(X,Y).
    """
    return _codazzi(_checked_rows(imm, us, 3))


def _codazzi(pkg: _Package) -> np.ndarray:
    """The Codazzi residual at each point of an order-3 package."""
    E, JE, c, omega, A, B = pkg.E, pkg.JE, pkg.c, pkg.omega, pkg.A, pkg.B
    # [x, k]: G(E_x, E_k) + sum_m omega_xk^m JE_m
    term = np.einsum("dab,nxa,nkb->nxkd", G_ARRAY, E, E)
    term = term + np.einsum("nxkm,nmd->nxkd", omega, JE)
    h_vec = np.einsum("nabk,nkd->nabd", c, JE)
    # (del h)(X, Y, Z) at every frame triple [x, y, z]
    del_h = (
        np.einsum("nxabk,nkd->nxabd", pkg.dc, JE)
        + np.einsum("nabk,nxkd->nxabd", c, term)
        - np.einsum("nxam,nmbd->nxabd", omega, h_vec)
        - np.einsum("nxbm,namd->nxabd", omega, h_vec)
    )
    xs, ys = [0, 0, 1], [1, 2, 2]
    lhs = del_h[:, xs, ys] - del_h[:, ys, xs]
    jA = np.einsum("nxb,nbd->nxd", A, JE)[:, :, None]
    jB = np.einsum("nxb,nbd->nxd", B, JE)[:, :, None]
    rhs = (1.0 / 3.0) * (
        jB[:, xs] * A[:, ys, :, None]
        - jB[:, ys] * A[:, xs, :, None]
        - jA[:, xs] * B[:, ys, :, None]
        + jA[:, ys] * B[:, xs, :, None]
    )
    return _per_point(norm(lhs - rhs))


# ---------------------------------------------------------------------------
# built-in examples


def _exp_point(a: np.ndarray) -> Quaternion:
    return exp_im(ImaginaryQuaternion.from_array(a))


def rotation_matrix(axis: Sequence[float], angle: float) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


#: Fixed generic rotation used by the non-Lagrangian control example.
TWIST_ROTATION = rotation_matrix((1.0, 2.0, 3.0), 0.9)

_ONE = Quaternion.one()
_DEFAULT_BOX = Box((-0.6, -0.6, -0.6), (0.6, 0.6, 0.6))


def builtin_examples() -> list[Immersion]:
    """The canonical candidates: both factors, the diagonal, and a twisted
    graph that fails the Lagrangian test (kept as a negative control)."""
    R = TWIST_ROTATION
    return [
        Immersion("factor_left", _DEFAULT_BOX, lambda u: PointS3S3(_exp_point(u), _ONE)),
        Immersion("factor_right", _DEFAULT_BOX, lambda u: PointS3S3(_ONE, _exp_point(u))),
        Immersion(
            "diagonal", _DEFAULT_BOX, lambda u: PointS3S3(_exp_point(u), _exp_point(u))
        ),
        Immersion(
            "twisted-control",
            _DEFAULT_BOX,
            lambda u: PointS3S3(_exp_point(u), _exp_point(R @ u)),
        ),
    ]


def example_by_label(label: str) -> Immersion:
    wanted = label.replace("-", "_")
    for imm in builtin_examples():
        if imm.label.replace("-", "_") == wanted:
            return imm
    raise KeyError(f"no built-in example named {label!r}")


# ---------------------------------------------------------------------------
# grid suite


class SuiteRecords(list):
    """The records of `lagrangian_suite`, with `cubic`: the grid points
    (n, 3) and the cubic forms c (n, 3, 3, 3) of its order-3 package, or
    None when the immersion failed the Lagrangian test.  A caller reads h
    there without evaluating the map again."""

    cubic: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class SuiteRows:
    """One immersion's share of a `suite_pass`: its grid points (n, 3) and
    Lagrangian residuals (n,).  Where it passes the Lagrangian test, also
    its cubic forms c (n, 3, 3, 3), the per-point residuals (n,) of the
    minimality, cubic-symmetry, ab-structure and codazzi-residual checks,
    and its adapted frames, or the message of the ValueError that refused
    them."""

    points: np.ndarray
    lagrangian_residual: np.ndarray
    c: np.ndarray | None = None
    residuals: dict[str, np.ndarray] | None = None
    frames: list[AdaptedFrameData] | None = None
    frame_error: str | None = None


def _frames_or_error(pkg: _Package) -> tuple[list[AdaptedFrameData], str | None]:
    try:
        return _adapted_frames(pkg), None
    except ValueError as exc:  # from angle_functions: the frame checks fail
        return [], str(exc)


def suite_pass(imms: Sequence[Immersion], grid: int, tol: float | None = None) -> list[SuiteRows]:
    """What `lagrangian_suite` reads, for several immersions in one pass:
    one share per immersion, for its grid x grid x grid parameter sweep.

    Each map is evaluated once on jets, and one order-3 frame package holds
    every immersion's grid in turn.  Over the rows of the immersions that
    pass the Lagrangian test (bounded by tol, else its SUITE_TOLS entry), one
    adapted-frame pass (one `angle_functions` call) and one evaluation of
    each per-point residual follow.  Each immersion gets, bit for bit, what
    it gets alone.  Where the frame pass raises, those immersions get one
    pass each, so each fails or passes its frame checks as it does alone.
    """
    bound = SUITE_TOLS["lagrangian"] if tol is None else tol
    pkg = _Package(imms, [imm.domain.grid(grid) for imm in imms], 3)
    shares = [SuiteRows(pkg.us[part], pkg.lagrangian_residual[part]) for part in pkg.segments]
    ok = [within(worst_residual(share.lagrangian_residual), bound) for share in shares]
    passing = [share for share, passed in zip(shares, ok) if passed]
    if not passing:
        return shares
    if len(passing) == len(shares):
        sub = pkg
    else:
        rows = np.arange(len(pkg.us))
        sub = pkg.take(np.concatenate([rows[part] for part, a in zip(pkg.segments, ok) if a]))
    c = sub.c
    residuals = {
        "minimality": norm(sub.H),
        "cubic-symmetry": _per_point(
            np.abs(np.stack((c - c.transpose(0, 2, 1, 3), c - c.transpose(0, 1, 3, 2)), axis=1))
        ),
        "ab-structure": _ab_structure(sub),
        "codazzi-residual": _codazzi(sub),
    }
    parts = _slices([len(share.points) for share in passing])
    frames, error = _frames_or_error(sub)
    framed = [(frames[part], None) for part in parts] if error is None else [
        _frames_or_error(sub.take(part)) for part in parts
    ]
    for share, part, (share_frames, share_error) in zip(passing, parts, framed):
        share.frames, share.frame_error = share_frames, share_error
        share.c = c[part]
        share.residuals = {name: values[part] for name, values in residuals.items()}
    return shares


def lagrangian_suite(
    imm: Immersion, grid: int = 5, tol: float | None = None, rows: SuiteRows | None = None
) -> SuiteRecords:
    """All per-immersion checks over a grid x grid x grid parameter sweep.

    The checks read the immersion's share of a `suite_pass`: rows, when a
    pass over several immersions with this grid and tol handed it on (as
    `cli.cmd_lagrangian` does), else a pass of this immersion alone.  Either
    way one order-3 frame package, from one jet evaluation of the map, and
    one adapted-frame pass feed every check.  Each check is bounded by its
    SUITE_TOLS entry, or by tol when given, and passes by `report.within`.
    If the Lagrangian test fails anywhere, the downstream checks are
    reported as skipped rather than evaluated on meaningless data.  Where
    some point is non-degenerate, the angle check also gates on the
    eigenframe relation and dtheta residuals, reports their worst values and
    the largest |E_i(theta_j)|.  Where an adapted frame cannot be built
    (`angle_functions` raises ValueError), the angle-sum and orientation
    records fail with the message in their details.  The grid's cubic forms
    are handed on as the result's `cubic`.  The records carry no time of
    their own: `cli.cmd_lagrangian` stamps the records of every immersion of
    one pass with that pass's --timings total.
    """
    bounds = {name: default if tol is None else tol for name, default in SUITE_TOLS.items()}
    if rows is None:
        [rows] = suite_pass([imm], grid, tol)
    samples = len(rows.points)
    tag = imm.label
    lag_worst = worst_residual(rows.lagrangian_residual)
    records = SuiteRecords(
        [
            CheckRecord(
                check_id=f"lagrangian[{tag}]",
                passed=within(lag_worst, bounds["lagrangian"]),
                samples=samples,
                tolerance=bounds["lagrangian"],
                max_residual=lag_worst,
            )
        ]
    )
    downstream = [name for name in SUITE_TOLS if name != "lagrangian"]
    if not records[0].passed:
        for name in downstream:
            records.append(
                CheckRecord(
                    check_id=f"{name}[{tag}]",
                    passed=True,
                    status="skip",
                    tolerance=bounds[name],
                    details={"reason": "immersion failed the Lagrangian test"},
                )
            )
        return records

    records.cubic = (rows.points, rows.c)
    worsts = {name: worst_residual(values) for name, values in rows.residuals.items()}
    worsts["angle-sum"] = worsts["orientation"] = 0.0
    eigen_worsts = {"frame_relation_worst": 0.0, "dtheta_worst": 0.0}
    dtheta_max_abs = 0.0
    degenerate_points = 0
    for fc in rows.frames:
        if fc.degenerate:
            degenerate_points += 1
        else:
            for key, value in (
                ("frame_relation_worst", fc.eq_residual),
                ("dtheta_worst", fc.dtheta_residual),
            ):
                eigen_worsts[key] = max_keep_nan(eigen_worsts[key], value)
            dtheta_max_abs = max_keep_nan(dtheta_max_abs, fc.dtheta_max_abs)
        worsts["angle-sum"] = max_keep_nan(worsts["angle-sum"], angle_sum_defect(fc.thetas))
        worsts["orientation"] = max_keep_nan(worsts["orientation"], fc.orientation_residual)
    for name in downstream:
        bound = bounds[name]
        details = {}
        passed = within(worsts[name], bound)
        if rows.frame_error is not None and name in ("angle-sum", "orientation"):
            records.append(CheckRecord(
                check_id=f"{name}[{tag}]", passed=False, samples=samples, tolerance=bound,
                details={"error": rows.frame_error},
            ))
            continue
        if name == "angle-sum":
            details = {"degenerate_points": degenerate_points, "grid_points": samples}
            if degenerate_points < samples:
                # the eigenframe residuals gate the angle check where they exist
                details.update(eigen_worsts, dtheta_max_abs=dtheta_max_abs)
                passed = passed and all(within(v, bound) for v in eigen_worsts.values())
        records.append(
            CheckRecord(
                check_id=f"{name}[{tag}]",
                passed=passed,
                samples=samples,
                tolerance=bound,
                max_residual=worsts[name],
                details=details,
            )
        )
    return records
