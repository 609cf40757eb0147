"""Per-point reference for the analyzer's adapted-frame pass.

Before `lagrangian._adapted_frames` built the frames of a whole package in
one pass, the analyzer built them one grid point at a time: one
`angle_functions` call per point, the orientation probe and flip, G's frame
form, the rotated h and omega, and at non-degenerate points the eigenframe
checks.  That code lives here as the reference: the pass must give every
field of every point bit for bit.  The one change is in the two gates of
`angle_functions`, which compare NaN-safely (`not defect <= 1e-6`), so that
a pair with a NaN entry raises here as it does in the pass.  Each point's
result is a `FrameData`, whose fields are named as the entries of the
pass's record of arrays; the eigenframe residuals read 0.0 at degenerate
points, where the checks do not run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from nkverify.lagrangian import (
    DEGENERACY_GAP,
    EPSILON,
    AngleData,
)
from nkverify.nkgeom import G_ARRAY, G, J, g, norm
from nkverify.report import max_keep_nan, worst_residual

_SQRT3 = math.sqrt(3.0)


@dataclass
class FrameData:
    """Everything the analyzer knows at one parameter point."""

    frame: np.ndarray  # (3, 6): the (alpha, beta) components of F_1, F_2, F_3
    thetas: tuple[float, float, float]
    h: np.ndarray
    omega: np.ndarray
    H: np.ndarray  # (6,): the components of the mean curvature vector
    degenerate: bool
    orientation: float
    # the eigenframe checks, 0.0 at degenerate points
    frame_relation: float
    dtheta: float  # E_i(theta_j) = -h_jj^i
    dtheta_max_abs: float  # the largest |E_i(theta_j)|


def clusters(values: np.ndarray, gap: float = 1e-8):
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
    """Simultaneous eigenstructure of one commuting pair (A, B) (3, 3)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if not (
        np.max(np.abs(A - A.T)) <= 1e-6
        and np.max(np.abs(B - B.T)) <= 1e-6
        and np.max(np.abs(A @ B - B @ A)) <= 1e-6
    ):
        raise ValueError("angle functions need symmetric commuting A, B")
    w, U = np.linalg.eigh(A)
    for i, j in clusters(w):  # diagonalize B inside each A-eigenvalue cluster
        if j - i > 1:
            block = U[:, i:j]
            _, Ub = np.linalg.eigh(block.T @ B @ block)
            U[:, i:j] = block @ Ub
    cos2 = np.diag(U.T @ A @ U).copy()
    sin2 = np.diag(U.T @ B @ U).copy()
    if not np.max(np.abs(U.T @ B @ U - np.diag(sin2))) <= 1e-6:
        raise ValueError("A and B could not be jointly diagonalized")
    order = np.argsort(cos2, kind="stable")
    for i, j in clusters(cos2[order]):
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


def relation_h_omega_residual(
    h: np.ndarray, omega: np.ndarray, thetas: Sequence[float]
) -> float:
    """The frame relation's residual at one point, one index triple at a
    time."""
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


def rotated(R: np.ndarray, table: np.ndarray) -> np.ndarray:
    """One frame table re-expressed in the frame F_i = sum_b R_ib E_b."""
    return np.einsum("ai,bj,kl,ijl->abk", R, R, R, table)


def adapted_frame(pkg, i: int) -> FrameData:
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
    orientation = worst_residual(norm(G_frame - target))

    eigen = (0.0, 0.0, 0.0)
    if not ang.degenerate:
        eigen = eigenfield_checks(pkg, i, R, ang)

    return FrameData(
        frame=frame,
        thetas=ang.thetas,
        h=rotated(R, pkg.c[i]),
        omega=rotated(R, pkg.omega[i]),
        H=pkg.H[i],
        degenerate=ang.degenerate,
        orientation=orientation,
        frame_relation=eigen[0],
        dtheta=eigen[1],
        dtheta_max_abs=eigen[2],
    )


def eigenframe_rates(pkg, i: int, R: np.ndarray, ang: AngleData) -> tuple[np.ndarray, np.ndarray]:
    """The eigenframe field's connection components and angle derivatives
    at point i (see `lagrangian._eigenframe_rates`)."""
    lam, mu = ang.cos2, ang.sin2
    dirs = R @ pkg.S[i]  # parameter directions of F_a
    dA = R @ np.einsum("ac,bkc->abk", dirs, pkg.dA[i]) @ R.T
    dB = R @ np.einsum("ac,bkc->abk", dirs, pkg.dB[i]) @ R.T
    dlam, dmu = lam[:, None] - lam[None, :], mu[:, None] - mu[None, :]
    K = (dA * dlam + dB * dmu) / (dlam**2 + dmu**2 + np.eye(3))
    omega = rotated(R, pkg.omega[i]) + K
    dlam_a, dmu_a = dA.diagonal(0, 1, 2), dB.diagonal(0, 1, 2)
    return omega, (lam * dmu_a - mu * dlam_a) / (2.0 * (lam**2 + mu**2))


def eigenfield_checks(pkg, i: int, R: np.ndarray, ang: AngleData) -> tuple[float, float, float]:
    """The frame relation residual, the dtheta residual and the largest
    |F_a(theta_j)| at point i."""
    omega, deriv = eigenframe_rates(pkg, i, R, ang)
    h = rotated(R, pkg.c[i])
    eq_residual = relation_h_omega_residual(h, omega, ang.thetas)
    dtheta_residual = worst_residual(np.abs(deriv + h.diagonal(0, 0, 1)))
    return eq_residual, dtheta_residual, worst_residual(np.abs(deriv))


def adapted_frames(pkg) -> list[FrameData]:
    """The per-point analysis at every point of the package, in point order."""
    return [adapted_frame(pkg, i) for i in range(len(pkg.us))]
