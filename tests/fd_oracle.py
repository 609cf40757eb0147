"""Finite-difference oracle for the analyzer's jet frame layer.

Before the analyzer read its derivatives from one jet evaluation of the map,
it got them from nested central differences: a 7-call stencil for each
pushforward, a Richardson-extrapolated stencil of whole frames for the
frame derivatives, a stencil of eigenframes for the eigenframe path and one
more central difference of the cubic components for Codazzi's dc.  That code
lives here as an independent reference: the jets must agree with it within
its truncation error.  Only the differencing is kept here; the frame algebra
(g, J, A/B, the tables) is the analyzer's own.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from nkverify.lagrangian import (
    RANK_FLOOR,
    Immersion,
    _ab,
    _tables,
    angle_functions,
)
from nkverify.nkgeom import CONNECTION, J, PointS3S3, g, norm

#: Central-difference step of the pushforwards.
PUSHFORWARD_STEP = 1e-5
#: Step for directional derivatives of the cubic-form components.
CUBIC_DERIVATIVE_STEP = 1e-3
#: Richardson step for frame-field derivatives along curves.
FRAME_FIELD_STEP = 1e-3


def conj_mul_imag(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Im(conj(p) d) of quaternion arrays (..., 4), as Quaternion.__mul__."""
    w, x, y, z = p[..., 0], -p[..., 1], -p[..., 2], -p[..., 3]
    dw, dx, dy, dz = d[..., 0], d[..., 1], d[..., 2], d[..., 3]
    return np.stack(
        (
            w * dx + x * dw + y * dz - z * dy,
            w * dy - x * dz + y * dw + z * dx,
            w * dz + x * dy - y * dx + z * dw,
        ),
        axis=-1,
    )


def pushforwards(
    imm: Immersion, us: Sequence[float] | np.ndarray
) -> tuple[list[PointS3S3], np.ndarray]:
    """Base points and pushforward components (n, 3, 6) at the rows of us.

    An immersion with a `jacobian` attribute (u -> three tangent vectors)
    supplies its own; otherwise each row u costs 7 map calls: u, then
    u + h e_a and u - h e_a for each axis, whose central difference is
    left-translated to the identity.  Raises where the pushforward Gram
    matrix has an eigenvalue at or below RANK_FLOOR (or NaN).
    """
    us = np.asarray(us, dtype=float).reshape(-1, 3)
    jacobian = getattr(imm, "jacobian", None)
    if jacobian is not None:
        vecs = [jacobian(u) for u in us]
        bases = [v[0].base for v in vecs]
        V = np.array([[x.components() for x in v] for v in vecs])
    else:
        h = PUSHFORWARD_STEP
        bases = []
        pq = np.empty((len(us), 7, 8))  # (p, q) at u, u + h e_0, u - h e_0, ...
        for i, u in enumerate(us):
            pts = [imm.point(u)]
            for e in h * np.eye(3):
                pts += (imm.point(u + e), imm.point(u - e))
            bases.append(pts[0])
            pq[i] = [(x.p.w, x.p.x, x.p.y, x.p.z, x.q.w, x.q.x, x.q.y, x.q.z) for x in pts]
        at, dpq = pq[:, None, 0], (pq[:, 1::2] - pq[:, 2::2]) / (2 * h)
        V = np.concatenate(
            (
                conj_mul_imag(at[..., :4], dpq[..., :4]),
                conj_mul_imag(at[..., 4:], dpq[..., 4:]),
            ),
            axis=-1,
        )
    low = np.linalg.eigvalsh(g(V[:, :, None], V[:, None])).min(axis=-1)
    for u, m in zip(us, low):
        if not m > RANK_FLOOR:
            raise ValueError(f"{imm.label}: pushforward rank-deficient at u={u.tolist()}")
    return bases, V


def orthonormalize(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classical Gram-Schmidt in g of the vectors V (n, 3, 6): the frames E
    (n, 3, 6) and S (n, 3, 3), whose rows express E_a in the input vectors."""
    E = np.empty_like(V)
    S = np.zeros(V.shape[:2] + (3,))
    for a in range(3):
        w = V[:, a]
        comb = np.zeros((len(V), 3))
        comb[:, a] = 1.0
        for b in range(a):
            c = g(V[:, a], E[:, b])[:, None]
            w = w - c * E[:, b]
            comb = comb - c * S[:, b]
        n = norm(w)[:, None]
        E[:, a] = (1.0 / n) * w
        S[:, a] = comb / n
    return E, S


def frames(imm: Immersion, us: Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g-orthonormal frames E (n, 3, 6) at the rows of us, and the parameter
    directions S (n, 3, 3) pushing to them."""
    return orthonormalize(pushforwards(imm, us)[1])


def richardson(f_plus, f_minus, f_hplus, f_hminus, h: float) -> np.ndarray:
    d1 = (f_plus - f_minus) / (2.0 * h)
    d2 = (f_hplus - f_hminus) / h
    return (4.0 * d2 - d1) / 3.0


def frame_derivatives(
    us: np.ndarray,
    frames_fn: Callable[[np.ndarray], np.ndarray],
    directions: np.ndarray,
    E0: np.ndarray,
) -> np.ndarray:
    """Ambient connection derivatives nabla_{E_a} F_b (m, 3, 3, 6) of the
    frame field F = frames_fn at the m centres us, along the parameter
    directions (m, 3, 3) whose pushforwards are the E_a = E0[:, a]; F(us) is
    E0.  With w the components of F_b, nabla_X F_b = X(w) + Gamma(x, w), X(w)
    the Richardson derivative along the direction."""
    h = FRAME_FIELD_STEP
    ts = np.array((h, -h, h / 2, -h / 2))
    stencil = us[:, None, None, :] + ts[:, None] * directions[:, :, None, :]
    F = frames_fn(stencil.reshape(-1, 3)).reshape(stencil.shape[:3] + (3, 6))
    wdot = richardson(F[:, :, 0], F[:, :, 1], F[:, :, 2], F[:, :, 3], h)
    gamma = [[[CONNECTION @ e[b] @ e[a] for b in range(3)] for a in range(3)] for e in E0]
    return wdot + np.array(gamma)


def point_tables(imm: Immersion, u: Sequence[float]) -> dict[str, np.ndarray]:
    """E, S, the pushforward V, c, omega, H and dc at u by finite differences:
    dc[x] is the central difference of c along S_x."""
    u = np.asarray(u, dtype=float)
    V = pushforwards(imm, u)[1]
    E, S = orthonormalize(V)
    JE = J(E)
    nabla = frame_derivatives(u[None], lambda w: frames(imm, w)[0], S, E)
    c, omega = _tables(nabla, E, JE)
    diag = [0, 1, 2]
    normal = nabla[0, diag, diag] - np.einsum("ak,kd->ad", omega[0, diag, diag], E[0])
    step = CUBIC_DERIVATIVE_STEP
    shifts = step * S[0]
    us = np.stack((u + shifts, u - shifts), axis=1).reshape(6, 3)
    En, Sn = frames(imm, us)
    cn = _tables(frame_derivatives(us, lambda w: frames(imm, w)[0], Sn, En), En, J(En))[0]
    cn = cn.reshape(3, 2, 3, 3, 3)
    return {
        "V": V[0],
        "E": E[0],
        "S": S[0],
        "c": c[0],
        "omega": omega[0],
        "H": normal.sum(axis=0) / 3.0,
        "dc": (cn[:, 0] - cn[:, 1]) / (2 * step),
    }


def match_to_reference(coeffs: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Permute and flip eigenvector rows to follow the reference frame."""
    out = np.zeros_like(reference)
    used: set[int] = set()
    for i in range(3):
        overlaps = [
            (abs(float(np.dot(coeffs[j], reference[i]))), j)
            for j in range(3)
            if j not in used
        ]
        _, best = max(overlaps)
        used.add(best)
        row = coeffs[best]
        if float(np.dot(row, reference[i])) < 0:
            row = -row
        out[i] = row
    return out


def unwrap(thetas: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Shift each angle by a multiple of pi to land nearest its center value."""
    return thetas - math.pi * np.round((thetas - center) / math.pi)


def eigenframes(
    imm: Immersion, us: np.ndarray, reference: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenframes (m, 3, 6) and angle values (m, 3) at the rows of us, each
    continuity-matched to the reference coefficient rows."""
    E = frames(imm, us)[0]
    out, thetas = [], []
    for Ew, Aw, Bw in zip(E, *_ab(E, J(E))):
        matched = match_to_reference(angle_functions(Aw, Bw).coeffs, reference)
        cos2 = np.array([float(row @ Aw @ row) for row in matched])
        sin2 = np.array([float(row @ Bw @ row) for row in matched])
        thetas.append([math.atan2(s, c) / 2 % math.pi for c, s in zip(cos2, sin2)])
        out.append(matched @ Ew)
    return np.array(out), np.array(thetas)


def eigenframe_rates(
    imm: Immersion, u: Sequence[float], R: np.ndarray, S: np.ndarray, thetas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """The eigenframe field's connection components omega[a, b, k] and angle
    derivatives [a, j] = F_a(theta_j) at u, where F = R E and the frame's
    parameter directions are R @ S."""
    u = np.asarray(u, dtype=float)
    directions = R @ S
    frame = R @ frames(imm, u)[0][0]
    nabla = frame_derivatives(
        u[None], lambda w: eigenframes(imm, w, R)[0], directions[None], frame[None]
    )[0]
    omega = _tables(nabla, frame, J(frame))[1]
    step = CUBIC_DERIVATIVE_STEP
    shifts = step * directions
    th = eigenframes(imm, np.stack((u + shifts, u - shifts), axis=1).reshape(6, 3), R)[1]
    th = unwrap(th.reshape(3, 2, 3), np.array(thetas))
    return omega, (th[:, 0] - th[:, 1]) / (2 * step)
