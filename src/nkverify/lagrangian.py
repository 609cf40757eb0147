"""Analyzer for three-dimensional immersions into S3 x S3.

Given a parametrized immersion, tests the Lagrangian condition, computes the
induced frame geometry (second fundamental form, mean curvature, the split of
the product structure P into A + JB, angle functions), fixes the frame
orientation against the G tensor, and evaluates the Codazzi-equation residual.
Every derivative comes from evaluating the map once on truncated Taylor jets
(see jet.py) for a whole batch of parameter points.  Ships the built-in
example immersions: the two sphere factors, the diagonal, and a twisted
non-Lagrangian control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .jet import Jet, size, stack
from .nkgeom import CONNECTION, G_ARRAY, G, J, P, PointS3S3, g, norm
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
    return np.max(residuals.reshape(len(residuals), -1), axis=1)


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
    """

    def __init__(self, imm: Immersion, us: Sequence[float] | np.ndarray, order: int) -> None:
        self.us = np.asarray(us, dtype=float).reshape(-1, 3)
        pq = _map_jet(imm, self.us, order)
        n = len(self.us)
        # V_a = Im(conj(p) d_a p), Im(conj(q) d_a q), a jet of order - 1
        p, dp = pq.truncate(order - 1)[:, None], pq.grad().moveaxis(-1, 1)
        V = (p[..., :, None] * dp[..., None, :]).reshape(n, 3, 2, 16) @ _CONJ_MUL
        V = V.reshape(n, 3, 6)
        self.V = V.value
        low = np.linalg.eigvalsh(g(self.V[:, :, None], self.V[:, None])).min(axis=-1)
        for u, m in zip(self.us, low):
            if not m > RANK_FLOOR:
                raise ValueError(f"{imm.label}: pushforward rank-deficient at u={u.tolist()}")
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
    thetas: tuple[float, float, float]
    coeffs: np.ndarray  # rows: eigenvector components in the input frame
    degenerate: bool
    cos2: np.ndarray
    sin2: np.ndarray


def _clusters(values: np.ndarray, gap: float = 1e-8):
    """(start, stop) of the runs of ascending values that lie within gap of
    their run's first value."""
    i = 0
    while i < len(values):
        j = i + 1
        while j < len(values) and values[j] - values[i] < gap:
            j += 1
        yield i, j
        i = j


def angle_functions(A: np.ndarray, B: np.ndarray) -> AngleData:
    """Simultaneous eigenstructure of the commuting pair (A, B).

    Eigenvectors satisfy A e_i = cos(2 theta_i) e_i, B e_i = sin(2 theta_i) e_i
    with theta_i in [0, pi), ordered by ascending cos(2 theta); values of
    cos(2 theta) within 1e-8 of each other count as equal and are ordered by
    ascending sin(2 theta).  Eigenvector signs are canonicalized.  The
    degeneracy flag is set when two (cos, sin) eigenpairs coincide within the
    gap threshold, which predicts a totally geodesic submanifold.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if (
        np.max(np.abs(A - A.T)) > 1e-6
        or np.max(np.abs(B - B.T)) > 1e-6
        or np.max(np.abs(A @ B - B @ A)) > 1e-6
    ):
        raise ValueError("angle functions need symmetric commuting A, B")
    w, U = np.linalg.eigh(A)
    for i, j in _clusters(w):  # diagonalize B inside each A-eigenvalue cluster
        if j - i > 1:
            block = U[:, i:j]
            _, Ub = np.linalg.eigh(block.T @ B @ block)
            U[:, i:j] = block @ Ub
    cos2 = np.diag(U.T @ A @ U).copy()
    sin2 = np.diag(U.T @ B @ U).copy()
    if np.max(np.abs(U.T @ B @ U - np.diag(sin2))) > 1e-6:
        raise ValueError("A and B could not be jointly diagonalized")
    order = np.argsort(cos2, kind="stable")
    for i, j in _clusters(cos2[order]):
        order[i:j] = order[i:j][np.argsort(sin2[order[i:j]], kind="stable")]
    cos2, sin2, U = cos2[order], sin2[order], U[:, order]
    for col in range(3):  # canonical signs: largest-magnitude entry positive
        lead = int(np.argmax(np.abs(U[:, col])))
        if U[lead, col] < 0:
            U[:, col] = -U[:, col]
    thetas = tuple(math.atan2(s, c) / 2 % math.pi for c, s in zip(cos2, sin2))
    degenerate = any(
        abs(cos2[i] - cos2[j]) < DEGENERACY_GAP and abs(sin2[i] - sin2[j]) < DEGENERACY_GAP
        for i in range(3)
        for j in range(i + 1, 3)
    )
    return AngleData(thetas, U.T, degenerate, cos2, sin2)


def angle_sum_defect(thetas: Sequence[float]) -> float:
    """Distance of theta_1 + theta_2 + theta_3 to the nearest multiple of pi."""
    s = float(sum(thetas))
    return abs(s - math.pi * round(s / math.pi))


def relation_h_omega_residual(
    h: np.ndarray, omega: np.ndarray, thetas: Sequence[float]
) -> float:
    """Residual of the frame relation linking h, omega and the angles:
    h_ij^k cos(th_j - th_k) = (eps_ijk/(2 sqrt 3) - omega_ij^k) sin(th_j - th_k)
    for j != k."""
    worst = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if j == k:
                    continue
                d = thetas[j] - thetas[k]
                lhs = h[i, j, k] * math.cos(d)
                rhs = (EPSILON[i, j, k] / (2 * _SQRT3) - omega[i, j, k]) * math.sin(d)
                worst = max_keep_nan(worst, abs(lhs - rhs))
    return worst


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
    """Adapted-frame analysis at each row of us, from one order-2 package.

    Diagonalizes (A, B) on the orthonormalized pushforward frame, flips one
    frame vector if needed so the G tensor takes its canonical frame form
    G(E_i, E_j) = -(1/sqrt 3) sum_k eps_ij^k J E_k, and reports the cubic and
    connection components in the fixed frame.  The relation between h, omega
    and the angle derivatives is checked only at non-degenerate points; the
    built-in examples are all degenerate (hence totally geodesic), so there
    the flag is reported instead.  A row that fails the Lagrangian
    precondition raises ValueError.
    """
    pkg = _Package(imm, us, 2)
    require_lagrangian(imm.label, pkg.us, pkg.lagrangian_residual)
    return [_adapted_frame(pkg, i) for i in range(len(pkg.us))]


def _rotated(R: np.ndarray, table: np.ndarray) -> np.ndarray:
    """A frame table re-expressed in the frame F_i = sum_b R_ib E_b, with R
    held constant: t_F = R (x) R (x) R . t."""
    return np.einsum("ai,bj,kl,ijl->abk", R, R, R, table)


def _adapted_frame(pkg: _Package, i: int) -> AdaptedFrameData:
    """The adapted-frame analysis at point i of an order >= 2 package."""
    ang = angle_functions(pkg.A[i], pkg.B[i])
    R = ang.coeffs.copy()

    frame = R @ pkg.E[i]
    probe = g(G(frame[0], frame[1]), J(frame[2]))
    if probe > 0:  # canonical form requires g(G(E1,E2), JE3) = -1/sqrt(3)
        R[2] = -R[2]
        frame[2] = -1.0 * frame[2]
    jframe = J(frame)
    target = np.einsum("ijk,kd->ijd", -EPSILON / _SQRT3, jframe)
    G_frame = np.einsum("dab,ia,jb->ijd", G_ARRAY, frame, frame)
    orientation_residual = worst_residual(norm(G_frame - target))

    eigen = (None, None, None)
    if not ang.degenerate:
        eigen = _eigenfield_checks(pkg, i, R, ang)

    return AdaptedFrameData(
        frame=frame,
        thetas=ang.thetas,
        h=_rotated(R, pkg.c[i]),
        omega=_rotated(R, pkg.omega[i]),
        H=pkg.H[i],
        degenerate=ang.degenerate,
        orientation_residual=orientation_residual,
        eq_residual=eigen[0],
        dtheta_residual=eigen[1],
        dtheta_max_abs=eigen[2],
    )


def _eigenframe_rates(
    pkg: _Package, i: int, R: np.ndarray, ang: AngleData
) -> tuple[np.ndarray, np.ndarray]:
    """Connection components omega[a, b, k] = g(nabla_{F_a} F_b, F_k) of the
    eigenframe field F_a = sum_b R_ab E_b, whose rows R follow the simple
    joint eigenbasis of (A, B), and the angle derivatives [a, j] = F_a(theta_j).

    First-order perturbation of that eigenbasis: along F_a, with
    A' = R (F_a A) R^T and B' likewise, R moves by F_a(R) = K R with K
    antisymmetric, K_bk (lam_b - lam_k) = A'_bk and K_bk (mu_b - mu_k) = B'_bk
    for the eigenvalues lam = cos(2 theta), mu = sin(2 theta), and the
    eigenvalues move by A'_bb and B'_bb.  So omega is the rotated omega of E
    plus K.
    """
    lam, mu = ang.cos2, ang.sin2
    dirs = R @ pkg.S[i]  # parameter directions of F_a
    dA = R @ np.einsum("ac,bkc->abk", dirs, pkg.dA[i]) @ R.T
    dB = R @ np.einsum("ac,bkc->abk", dirs, pkg.dB[i]) @ R.T
    dlam, dmu = lam[:, None] - lam[None, :], mu[:, None] - mu[None, :]
    K = (dA * dlam + dB * dmu) / (dlam**2 + dmu**2 + np.eye(3))
    omega = _rotated(R, pkg.omega[i]) + K
    dlam_a, dmu_a = dA.diagonal(0, 1, 2), dB.diagonal(0, 1, 2)
    return omega, (lam * dmu_a - mu * dlam_a) / (2.0 * (lam**2 + mu**2))


def _eigenfield_checks(
    pkg: _Package, i: int, R: np.ndarray, ang: AngleData
) -> tuple[float, float, float]:
    """Frame relation and angle-derivative checks with the eigenframe field
    (see _eigenframe_rates): the frame relation residual, the dtheta residual
    and the largest |F_a(theta_j)|.  In the eigenframe h is the rotated c,
    since F_a(R) only adds tangent terms to nabla_{F_a} F_b."""
    omega, deriv = _eigenframe_rates(pkg, i, R, ang)
    h = _rotated(R, pkg.c[i])
    eq_residual = relation_h_omega_residual(h, omega, ang.thetas)
    dtheta_residual = worst_residual(np.abs(deriv + h.diagonal(0, 0, 1)))
    return eq_residual, dtheta_residual, worst_residual(np.abs(deriv))


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


def lagrangian_suite(imm: Immersion, grid: int = 5, tol: float | None = None) -> SuiteRecords:
    """All per-immersion checks over a grid x grid x grid parameter sweep.

    One order-3 frame package for the whole grid, from one jet evaluation of
    the map, feeds every check.  Each check is bounded by its SUITE_TOLS entry,
    or by tol when given, and passes by `report.within`.  If the Lagrangian
    test fails anywhere, the downstream checks are reported as skipped rather
    than evaluated on meaningless data.  Where some point is non-degenerate,
    the angle check also gates on the eigenframe relation and dtheta
    residuals, reports their worst values and the largest |E_i(theta_j)|.
    Where an adapted frame cannot be built (`angle_functions` raises
    ValueError), the angle-sum and orientation records fail with the
    message in their details.  The grid's cubic forms are handed on as the
    result's `cubic`.
    """
    bounds = {name: default if tol is None else tol for name, default in SUITE_TOLS.items()}
    points = imm.domain.grid(grid)
    tag = imm.label
    pkg = _Package(imm, points, 3)
    lag_worst = worst_residual(pkg.lagrangian_residual)
    records = SuiteRecords(
        [
            CheckRecord(
                check_id=f"lagrangian[{tag}]",
                passed=within(lag_worst, bounds["lagrangian"]),
                samples=len(points),
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

    c = pkg.c
    records.cubic = (pkg.us, c)
    worsts = {
        "minimality": worst_residual(norm(pkg.H)),
        "cubic-symmetry": worst_residual(
            np.abs(np.stack((c - c.transpose(0, 2, 1, 3), c - c.transpose(0, 1, 3, 2))))
        ),
        "ab-structure": worst_residual(_ab_structure(pkg)),
        "angle-sum": 0.0,
        "orientation": 0.0,
        "codazzi-residual": worst_residual(_codazzi(pkg)),
    }
    eigen_worsts = {"frame_relation_worst": 0.0, "dtheta_worst": 0.0}
    dtheta_max_abs = 0.0
    degenerate_points = 0
    frame_error = None
    for i in range(len(points)):
        try:
            fc = _adapted_frame(pkg, i)
        except ValueError as exc:  # from angle_functions: the frame checks fail
            frame_error = str(exc)
            break
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
        if frame_error is not None and name in ("angle-sum", "orientation"):
            records.append(CheckRecord(
                check_id=f"{name}[{tag}]", passed=False, samples=len(points), tolerance=bound,
                details={"error": frame_error},
            ))
            continue
        if name == "angle-sum":
            details = {"degenerate_points": degenerate_points, "grid_points": len(points)}
            if degenerate_points < len(points):
                # the eigenframe residuals gate the angle check where they exist
                details.update(eigen_worsts, dtheta_max_abs=dtheta_max_abs)
                passed = passed and all(within(v, bound) for v in eigen_worsts.values())
        records.append(
            CheckRecord(
                check_id=f"{name}[{tag}]",
                passed=passed,
                samples=len(points),
                tolerance=bound,
                max_residual=worsts[name],
                details=details,
            )
        )
    return records
