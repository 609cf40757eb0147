"""The homogeneous nearly Kahler structure on S3 x S3.

Points are pairs of unit quaternions.  A tangent vector at (p, q) is stored as
the imaginary-quaternion pair (alpha, beta) standing for (p*alpha, q*beta);
in that representation the metric g, the almost complex structure J and the
product-swap tensor P are closed-form one-liners.

The (alpha, beta) components are those of a left-invariant frame, and g, J
and P are left-invariant, so derivatives have a closed form too.  The
Levi-Civita connection of a left-invariant metric follows from the Koszul
formula on the Lie algebra (Milnor 1976), with bracket
[X, Y] = (2 alpha x alpha', 2 beta x beta'): one constant array CONNECTION.
For any field W with components w, nabla_X W = X(w) + Gamma(x, w), and
G = nabla J is the constant array G_ARRAY.

Each formula has one array form: g, norm, J, P, G, embed and g_ambient take
(..., 6) component arrays (g, J and P also take jets) and act over the
leading axes at once, G and g_ambient as stacked products that round each
pair as its own product does; TangentVector.components() hands an object's
components to them.  random_samples draws a base point and a tangent pair
per sample, in that order, so a batched suite reads the same rng stream as a
per-sample loop.

Charts built from the quaternion exponential, with Christoffel symbols from
Richardson-extrapolated central differences of the chart metric, and
G_tensor, the object form of G, are kept as the independent
finite-difference reference for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jet import Jet
from .quat import ImaginaryQuaternion, Quaternion, dexp_im, exp_im, log_unit

_SQRT3 = math.sqrt(3.0)

#: Per-factor coordinate radius of a chart, inside the injectivity radius.
CHART_RADIUS = math.pi - 0.1
#: Base step for Christoffel central differences (one Richardson level on top).
CHRISTOFFEL_STEP = 1e-4
#: Base step for first derivatives of vector fields along curves.
FIELD_STEP = 1e-3
#: Two points count as the same base point within this componentwise tolerance.
BASE_TOL = 1e-9

_IM_BASIS = (
    ImaginaryQuaternion(1.0, 0.0, 0.0),
    ImaginaryQuaternion(0.0, 1.0, 0.0),
    ImaginaryQuaternion(0.0, 0.0, 1.0),
)


@dataclass(frozen=True)
class PointS3S3:
    """A point (p, q) of S3 x S3, both factors unit quaternions."""

    p: Quaternion
    q: Quaternion

    def __post_init__(self) -> None:
        for name, val in (("p", self.p), ("q", self.q)):
            n2 = val.dot(val)
            if isinstance(n2, Jet):
                # a jet of points: every coefficient of |p|^2 - 1 must vanish
                defect = float(np.max(np.abs((n2 - 1.0).c)))
                if not defect <= BASE_TOL:
                    raise ValueError(
                        f"{name} is not a unit quaternion: a coefficient of "
                        f"|{name}|^2 - 1 is {defect}"
                    )
            # val.norm(), as computed there; written so that NaN and infinite
            # norms fail the test too
            elif not abs(math.sqrt(n2) - 1.0) <= BASE_TOL:
                raise ValueError(f"{name} is not a unit quaternion: |{name}| = {val.norm()}")

    def as_array(self) -> np.ndarray:
        """The (2, 4) array of p and q."""
        return np.array([self.p.as_array(), self.q.as_array()])

    def close_to(self, other: "PointS3S3", tol: float = BASE_TOL) -> bool:
        dp = np.max(np.abs(self.p.as_array() - other.p.as_array()))
        dq = np.max(np.abs(self.q.as_array() - other.q.as_array()))
        return max(dp, dq) <= tol


@dataclass(frozen=True)
class TangentVector:
    """The tangent vector (p*alpha, q*beta) at base = (p, q)."""

    base: PointS3S3
    alpha: ImaginaryQuaternion
    beta: ImaginaryQuaternion

    @classmethod
    def from_components(cls, base: PointS3S3, comps: np.ndarray) -> "TangentVector":
        """Inverse of components(): the vector at base with (alpha, beta) = comps."""
        return cls(
            base,
            ImaginaryQuaternion.from_array(comps[:3]),
            ImaginaryQuaternion.from_array(comps[3:]),
        )

    def components(self) -> np.ndarray:
        """(alpha, beta) flattened to R^6."""
        return np.concatenate([self.alpha.as_array(), self.beta.as_array()])

    def _require_same_base(self, other: "TangentVector") -> None:
        if self.base is other.base:
            return
        if not self.base.close_to(other.base):
            raise ValueError("tangent vectors live at different base points")

    def __add__(self, other: "TangentVector") -> "TangentVector":
        self._require_same_base(other)
        return TangentVector(self.base, self.alpha + other.alpha, self.beta + other.beta)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        self._require_same_base(other)
        return TangentVector(self.base, self.alpha - other.alpha, self.beta - other.beta)

    def __neg__(self) -> "TangentVector":
        return TangentVector(self.base, -self.alpha, -self.beta)

    def scaled(self, t: float) -> "TangentVector":
        return TangentVector(self.base, self.alpha.scaled(t), self.beta.scaled(t))


def _left_invariant_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(BRACKET, METRIC, CONNECTION) in the left-invariant basis
    e_0..e_5 = (p*i, 0), (p*j, 0), (p*k, 0), (0, q*i), (0, q*j), (0, q*k).

    BRACKET[c, a, b] is the c-component of [e_a, e_b]; CONNECTION[d, a, b] is
    the d-component of nabla_{e_a} e_b, from the Koszul formula
    2 g(nabla_a e_b, e_c) = g([e_a, e_b], e_c) - g([e_b, e_c], e_a)
    + g([e_c, e_a], e_b), whose metric terms drop out because g(e_a, e_b) is
    constant.
    """
    eye = np.eye(3)
    metric = np.block(
        [[4.0 / 3.0 * eye, -2.0 / 3.0 * eye], [-2.0 / 3.0 * eye, 4.0 / 3.0 * eye]]
    )
    bracket = np.zeros((6, 6, 6))
    for off in (0, 3):
        for a in range(3):
            for b in range(3):
                bracket[off : off + 3, off + a, off + b] = 2.0 * np.cross(eye[a], eye[b])
    lowered = np.einsum("cd,dab->cab", metric, bracket)  # g([e_a, e_b], e_c)
    koszul = 0.5 * (lowered - lowered.transpose(2, 0, 1) + lowered.transpose(1, 2, 0))
    connection = np.einsum("dc,cab->dab", np.linalg.inv(metric), koszul)
    return bracket, metric, connection


BRACKET, METRIC, CONNECTION = _left_invariant_tables()
#: sqrt(3) J^T, an integer matrix: X @ _J_INTEGER is (2b - a, b - 2a).
_J_INTEGER = np.kron([[-1, -2], [2, 1]], np.eye(3))
#: J_MATRIX[c, a] is the c-component of J e_a.
J_MATRIX = _J_INTEGER.T / _SQRT3
#: G_ARRAY[d, a, b] is the d-component of
#: G(e_a, e_b) = Gamma(e_a, J e_b) - J Gamma(e_a, e_b).
G_ARRAY = np.einsum("dac,cb->dab", CONNECTION, J_MATRIX) - np.einsum(
    "dc,cab->dab", J_MATRIX, CONNECTION
)


# ---------------------------------------------------------------------------
# array forms: tangent data as (..., 6) arrays of (alpha, beta) components at
# base points given as (..., 2, 4) arrays of (p, q)

_P_MATRIX = np.roll(np.eye(6), 3, axis=0)


def g(X, Y):
    """The metric g of component arrays or jets,
    (4/3)(<a, a'> + <b, b'>) - (2/3)(<a, b'> + <a', b>), each inner product
    summed left to right."""
    xy = X * Y
    aa = xy[..., :3].sum(-1) + xy[..., 3:].sum(-1)
    cross = (X[..., :3] * Y[..., 3:]).sum(-1) + (Y[..., :3] * X[..., 3:]).sum(-1)
    return (4.0 / 3.0) * aa - (2.0 / 3.0) * cross


def norm(X: np.ndarray) -> np.ndarray:
    """The g-norm of component arrays."""
    return np.sqrt(g(X, X))


def J(X):
    """J of component arrays or jets: (2b - a, b - 2a) / sqrt(3)."""
    return (X @ _J_INTEGER) * (1.0 / _SQRT3)


def P(X):
    """P of component arrays or jets: (b, a)."""
    return X @ _P_MATRIX


def G(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G(x, y) of component arrays: G_ARRAY @ y @ x for each pair of vectors.

    Both contractions are stacked matrix-vector products over the leading
    axes, so each pair rounds as G_ARRAY @ y @ x of its own vectors does; an
    einsum sums in another order and moves the last bits of G.
    """
    return ((G_ARRAY @ y[..., None, :, None])[..., 0] @ x[..., :, None])[..., 0]


def embed(pq: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Ambient R^8 coordinates of components X (..., 6) at base points pq
    (..., 2, 4): the products p*(0, alpha) and q*(0, beta), written out per
    component as Quaternion.__mul__ computes them (the zero real part
    included)."""
    pw, px, py, pz = np.moveaxis(pq, -1, 0)
    a = X.reshape(*X.shape[:-1], 2, 3)
    ax, ay, az = np.moveaxis(a, -1, 0)
    aw = 0.0
    out = np.stack(
        [
            pw * aw - px * ax - py * ay - pz * az,
            pw * ax + px * aw + py * az - pz * ay,
            pw * ay - px * az + py * aw + pz * ax,
            pw * az + px * ay - py * ax + pz * aw,
        ],
        axis=-1,
    )
    return out.reshape(*out.shape[:-2], 8)


def g_ambient(pq: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The metric from its definition, (1/2)(<X, Y> + <JX, JY>) in ambient
    R^8, of components X, Y at base points pq.

    The 8-vector products are np.vecdot over the leading axes, which rounds
    each as np.dot of the pair does; a batched einsum or sum rounds
    differently in the last bits.
    """
    turned = np.vecdot(embed(pq, J(X)), embed(pq, J(Y)))
    return 0.5 * (np.vecdot(embed(pq, X), embed(pq, Y)) + turned)


def unit_points(raw: np.ndarray) -> np.ndarray:
    """Quaternion.normalized of every (p, q) in raw (..., 2, 4), column by
    column in its order of operations, with the unit check of PointS3S3."""
    w, x, y, z = np.moveaxis(raw, -1, 0)
    n = np.sqrt(w * w + x * x + y * y + z * z)
    if np.any(n == 0.0):
        raise ZeroDivisionError("cannot normalize the zero quaternion")
    with np.errstate(invalid="ignore"):  # a non-finite entry fails the unit check
        pq = (1.0 / n)[..., None] * raw
    w, x, y, z = np.moveaxis(pq, -1, 0)
    unit = np.sqrt(w * w + x * x + y * y + z * z)
    bad = np.argwhere(~(np.abs(unit - 1.0) <= BASE_TOL))
    if len(bad):
        name = "pq"[bad[0][-1]]
        raise ValueError(f"{name} is not a unit quaternion: |{name}| = {unit[tuple(bad[0])]}")
    return pq


def random_samples(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n samples of a base point and a tangent pair: base points (n, 2, 4)
    and tangent components X, Y (n, 6).

    The draws stay per sample, base point first, so the rng stream is the one
    a per-sample loop reads; drawing each array at once would change it.  One
    uniform draw of 12 gives the pair: the generator fills it in the order
    that two draws of 6 would.
    """
    raw = np.empty((n, 2, 4))
    XY = np.empty((n, 12))
    for k in range(n):
        raw[k] = rng.standard_normal((2, 4))
        XY[k] = rng.uniform(-1.0, 1.0, 12)
    X, Y = XY[:, :6], XY[:, 6:]
    return unit_points(raw), X, Y


class Chart:
    """Product-exponential chart centered at a base point.

    chart coordinates x in R^6 map to (p0 * exp(x1 i + x2 j + x3 k),
    q0 * exp(x4 i + x5 j + x6 k)); each factor is restricted to radius
    CHART_RADIUS.  At x = 0 the coordinate frame is the standard basis
    (p*e_i, 0), (0, q*e_i), so a tangent vector's chart components at the
    center are just its (alpha, beta) entries.

    Frames, metric components and Christoffel symbols are memoized per
    coordinate vector.  The chart itself is immutable; the caches are pure
    memoization.  The analyzer does not use charts: they are the
    finite-difference reference the closed-form connection is tested against.
    """

    def __init__(self, base: PointS3S3) -> None:
        self.base = base
        self._points: dict[bytes, PointS3S3] = {}
        self._frames: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self._grams: dict[bytes, np.ndarray] = {}
        self._gammas: dict[bytes, np.ndarray] = {}

    @staticmethod
    def _check_radius(x: np.ndarray) -> None:
        r1 = float(np.linalg.norm(x[:3]))
        r2 = float(np.linalg.norm(x[3:]))
        if r1 >= CHART_RADIUS or r2 >= CHART_RADIUS:
            raise ValueError(
                f"chart coordinates out of range: factor radii ({r1}, {r2})"
            )

    def point(self, x: np.ndarray) -> PointS3S3:
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        hit = self._points.get(key)
        if hit is not None:
            return hit
        self._check_radius(x)
        p = self.base.p * exp_im(ImaginaryQuaternion.from_array(x[:3]))
        q = self.base.q * exp_im(ImaginaryQuaternion.from_array(x[3:]))
        pt = PointS3S3(p, q)
        self._points[key] = pt
        return pt

    def coords(self, pt: PointS3S3) -> np.ndarray:
        """Inverse of point(); raises where the factor logs are out of range."""
        w1 = log_unit(self.base.p.conjugate() * pt.p)
        w2 = log_unit(self.base.q.conjugate() * pt.q)
        x = np.concatenate([w1.as_array(), w2.as_array()])
        self._check_radius(x)
        return x

    def _frame_arrays(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(alphas, betas), each 6x3: row a holds the parts of the frame f_a.

        The coordinate pushforward reduces to dexp in each factor, with the
        base-point factor cancelling: alpha_a = Im(conj(exp w) * dexp_w(e_a)).
        """
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        hit = self._frames.get(key)
        if hit is not None:
            return hit
        self._check_radius(x)
        alphas = np.zeros((6, 3))
        betas = np.zeros((6, 3))
        for half, out, col in ((x[:3], alphas, 0), (x[3:], betas, 3)):
            w = ImaginaryQuaternion.from_array(half)
            ec = exp_im(w).conjugate()
            for a in range(3):
                out[col + a] = (ec * dexp_im(w, _IM_BASIS[a])).imag.as_array()
        pair = (alphas, betas)
        self._frames[key] = pair
        return pair

    def frame(self, x: np.ndarray) -> list[TangentVector]:
        alphas, betas = self._frame_arrays(x)
        pt = self.point(np.asarray(x, dtype=float))
        return [
            TangentVector(
                pt,
                ImaginaryQuaternion.from_array(alphas[a]),
                ImaginaryQuaternion.from_array(betas[a]),
            )
            for a in range(6)
        ]

    def gram(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        hit = self._grams.get(key)
        if hit is not None:
            return hit
        A, B = self._frame_arrays(x)
        G = (4.0 / 3.0) * (A @ A.T + B @ B.T) - (2.0 / 3.0) * (A @ B.T + B @ A.T)
        self._grams[key] = G
        return G

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        """Gamma[d, a, b] at x, from central differences of gram().

        One Richardson level (steps h and h/2) knocks the truncation error
        down to O(h^4), comfortably below the 1e-5 targets downstream.
        """
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        hit = self._gammas.get(key)
        if hit is not None:
            return hit
        h = CHRISTOFFEL_STEP
        dg = np.empty((6, 6, 6))
        for a in range(6):
            e = np.zeros(6)
            e[a] = h
            d1 = (self.gram(x + e) - self.gram(x - e)) / (2.0 * h)
            d2 = (self.gram(x + e / 2.0) - self.gram(x - e / 2.0)) / h
            dg[a] = (4.0 * d2 - d1) / 3.0
        # L[a,b,c] = d_a g_cb + d_b g_ca - d_c g_ab
        L = dg.transpose(0, 2, 1) + dg.transpose(2, 0, 1) - dg.transpose(1, 2, 0)
        g_inv = np.linalg.inv(self.gram(x))
        gamma = 0.5 * np.einsum("dc,abc->dab", g_inv, L)
        self._gammas[key] = gamma
        return gamma

    def tangent_from_coords(self, x: np.ndarray, comps: np.ndarray) -> TangentVector:
        alphas, betas = self._frame_arrays(np.asarray(x, dtype=float))
        comps = np.asarray(comps, dtype=float)
        return TangentVector(
            self.point(np.asarray(x, dtype=float)),
            ImaginaryQuaternion.from_array(comps @ alphas),
            ImaginaryQuaternion.from_array(comps @ betas),
        )

    def tangent_to_coords(self, x: np.ndarray, X: TangentVector) -> np.ndarray:
        """Chart components of X at x, via a Gram solve against the frame."""
        x = np.asarray(x, dtype=float)
        alphas, betas = self._frame_arrays(x)
        a, b = X.alpha.as_array(), X.beta.as_array()
        rhs = (4.0 / 3.0) * (alphas @ a + betas @ b) - (2.0 / 3.0) * (
            alphas @ b + betas @ a
        )
        return np.linalg.solve(self.gram(x), rhs)


def _vector_derivative(
    fn: Callable[[float], np.ndarray], t0: float, h: float
) -> np.ndarray:
    """Richardson-extrapolated central difference of a vector-valued map."""
    d1 = (np.asarray(fn(t0 + h)) - np.asarray(fn(t0 - h))) / (2.0 * h)
    d2 = (np.asarray(fn(t0 + h / 2.0)) - np.asarray(fn(t0 - h / 2.0))) / h
    return (4.0 * d2 - d1) / 3.0


def covariant_derivative_along(
    chart: Chart,
    curve: Callable[[float], np.ndarray],
    field: Callable[[float], np.ndarray],
    t0: float = 0.0,
    step: float = FIELD_STEP,
) -> TangentVector:
    """Connection derivative of a field given along a curve, at t0.

    curve: t -> chart coordinates; field: t -> chart components of the field
    at curve(t).  Returns w' + Gamma(c(t0))(c', w) as a tangent vector.
    """
    x0 = np.asarray(curve(t0), dtype=float)
    w0 = np.asarray(field(t0), dtype=float)
    cdot = _vector_derivative(curve, t0, step)
    wdot = _vector_derivative(field, t0, step)
    gamma = chart.christoffel(x0)
    comps = wdot + np.einsum("dab,a,b->d", gamma, cdot, w0)
    return chart.tangent_from_coords(x0, comps)


def G_tensor(X: TangentVector, Y: TangentVector) -> TangentVector:
    """G(X, Y) = (nabla_X J) Y in closed form.

    nabla_X W = X(w) + Gamma(x, w) for a field W with (alpha, beta)
    components w.  Extend Y with constant components y; J is constant in this
    representation, so the X(w) terms cancel and
    G(X, Y) = Gamma(x, J y) - J Gamma(x, y), the contraction of G_ARRAY.
    """
    X._require_same_base(Y)
    return TangentVector.from_components(X.base, G(X.components(), Y.components()))
