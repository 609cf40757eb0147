"""Truncated Taylor polynomials (jets) in three variables, batched.

A jet of order K holds the Taylor coefficients f_alpha = d^alpha f / alpha!
of a function of t = (t_0, t_1, t_2) at t = 0, for every multi-index alpha of
total degree at most K; higher terms are dropped.  Order 3 keeps 20
coefficients.  The coefficients sit on the last axis of a numpy array, in
degree-major order (1, t_0, t_1, t_2, t_0^2, t_0 t_1, ...); the leading axes
are the jet's own shape, so one Jet is a whole array of jets -- a grid batch,
a frame, a tensor.  +, -, * act elementwise with numpy broadcasting over that
shape, and * is the truncated (Cauchy) product.  Real powers and any entire
function are composed through their Taylor series at the constant term
(Griewank and Walther, Evaluating Derivatives, ch. 13).

Jets enter a parametrized map as its argument u = u_0 + t (`Jet.variables`),
so the map's output carries all its partial derivatives up to order K at u_0,
from one evaluation.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from typing import Callable, Sequence

import numpy as np

NVARS = 3
#: Power-series terms an entire function may use at most.
_MAX_TERMS = 200


@cache
def _monomials(order: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of degree <= order, degree-major."""
    out = []
    for degree in range(order + 1):
        for combo in itertools.combinations_with_replacement(range(NVARS), degree):
            out.append(tuple(combo.count(a) for a in range(NVARS)))
    return tuple(out)


def size(order: int) -> int:
    """Number of coefficients of a jet of this order."""
    return len(_monomials(order))


@cache
def _product_tables(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (I, J) of coefficients whose product survives truncation,
    and the 0/1 matrix summing each product into its target coefficient."""
    monos = _monomials(order)
    index = {m: k for k, m in enumerate(monos)}
    left, right, target = [], [], []
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            ab = tuple(x + y for x, y in zip(a, b))
            if sum(ab) <= order:
                left.append(i)
                right.append(j)
                target.append(index[ab])
    scatter = np.zeros((len(target), len(monos)))
    scatter[np.arange(len(target)), target] = 1.0
    return np.array(left), np.array(right), scatter


@cache
def _grad_tables(order: int) -> tuple[np.ndarray, np.ndarray]:
    """For d/dt_d, d = 0, 1, 2: the source coefficient of each order - 1
    coefficient and its factor alpha_d + 1."""
    monos = _monomials(order)
    index = {m: k for k, m in enumerate(monos)}
    lower = _monomials(order - 1)
    src = np.zeros((NVARS, len(lower)), dtype=int)
    factor = np.zeros((NVARS, len(lower)))
    for d in range(NVARS):
        for k, m in enumerate(lower):
            up = tuple(x + (a == d) for a, x in enumerate(m))
            src[d, k] = index[up]
            factor[d, k] = up[d]
    return src, factor


#: Rows per BLAS call of the truncated product.  BLAS picks its kernel by the
#: operands' shape and layout, so a row's sum may round differently with the
#: rows beside it; in calls of 2 to this many rows, on pair-major memory,
#: each row gets what it gets alone.  One row is padded to two: a one-row
#: product would run a matrix-vector kernel.  The blocks also bound the
#: gathered products held at once, so those temporaries do not grow with the
#: product's rows.
_BLOCK = 256


def _summed(pairs: np.ndarray, scatter: np.ndarray) -> np.ndarray:
    """The coefficient products pairs (..., P) summed into their targets,
    (..., size), by one BLAS call on pair-major memory, which is how numpy
    lays out gathered products.  One row is padded to two."""
    flat = pairs.reshape(-1, len(scatter))
    rows = len(flat)
    if rows == 1:
        flat = np.concatenate((flat, flat))
    out = np.asfortranarray(flat) @ scatter
    return out[:rows].reshape(pairs.shape[:-1] + scatter.shape[1:])


def _product(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """The truncated product of coefficient arrays, broadcast over their
    leading axes.  Each row of the result is the same, bit for bit, however
    many rows share the call: more rows than one BLAS call takes are
    broadcast, flattened, and multiplied and summed a block of rows at a
    time."""
    if order <= 1:  # (a_0 + a' t)(b_0 + b' t) = a_0 b_0 + (a_0 b' + a' b_0) t
        out = a[..., :1] * b
        out[..., 1:] += a[..., 1:] * b[..., :1]
        return out
    left, right, scatter = _product_tables(order)
    lead = a.shape[:-1]
    if lead != b.shape[:-1]:
        lead = np.broadcast(a[..., 0], b[..., 0]).shape
    rows = math.prod(lead)
    if rows <= _BLOCK:
        return _summed(a[..., left] * b[..., right], scatter)
    a = np.broadcast_to(a, lead + a.shape[-1:]).reshape(rows, -1)
    b = np.broadcast_to(b, lead + b.shape[-1:]).reshape(rows, -1)
    out = np.empty((rows, scatter.shape[1]))
    for i in range(0, rows, _BLOCK):
        block = slice(i, i + _BLOCK)
        out[block] = _summed(a[block, left] * b[block, right], scatter)
    return out.reshape(lead + scatter.shape[1:])


def _axis(axis: int) -> int:
    """A shape axis as an axis of the coefficient array."""
    return axis - 1 if axis < 0 else axis


class Jet:
    """An array of order-`order` jets in three variables; `c` has shape
    `shape + (size(order),)`."""

    # numpy hands binary operators with an ndarray on the left to Jet
    __array_ufunc__ = None
    __slots__ = ("c", "order")

    def __init__(self, c: np.ndarray, order: int) -> None:
        self.c = c
        self.order = order

    @classmethod
    def variables(cls, us: np.ndarray, order: int) -> "Jet":
        """The parameter u = u_0 + t at the rows u_0 of us (n, 3), as a Jet
        of shape (3, n): component first, so u[a] and M @ u read as for a
        3-vector."""
        us = np.asarray(us, dtype=float).reshape(-1, NVARS)
        c = np.zeros((NVARS, len(us), size(order)))
        c[..., 0] = us.T
        if order >= 1:
            for a in range(NVARS):
                c[a, :, 1 + a] = 1.0
        return cls(c, order)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.c.shape[:-1]

    @property
    def value(self) -> np.ndarray:
        """The constant coefficients: the function's values at t = 0."""
        return self.c[..., 0]

    def __getitem__(self, idx) -> "Jet":
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet(self.c[idx + (slice(None),)], self.order)

    def reshape(self, *shape: int) -> "Jet":
        return Jet(self.c.reshape(shape + (self.c.shape[-1],)), self.order)

    def sum(self, axis: int) -> "Jet":
        return Jet(self.c.sum(axis=_axis(axis)), self.order)

    def moveaxis(self, source: int, destination: int) -> "Jet":
        return Jet(np.moveaxis(self.c, _axis(source), _axis(destination)), self.order)

    def truncate(self, order: int) -> "Jet":
        return Jet(self.c[..., : size(order)], order)

    def grad(self) -> "Jet":
        """The partial derivatives d/dt_d on a new last axis, one order lower."""
        src, factor = _grad_tables(self.order)
        return Jet(self.c[..., src] * factor, self.order - 1)

    # -- arithmetic ---------------------------------------------------------

    def _constant(self, other) -> np.ndarray:
        """other (a number or an array over the shape) as constant jets."""
        other = np.asarray(other, dtype=float)
        c = np.zeros(np.broadcast_shapes(self.shape, other.shape) + self.c.shape[-1:])
        c[..., 0] = other
        return c

    def _common(self, other: "Jet") -> tuple[np.ndarray, np.ndarray, int]:
        """Both coefficient arrays at the lower of the two orders."""
        if self.order == other.order:
            return self.c, other.c, self.order
        order = min(self.order, other.order)
        return self.truncate(order).c, other.truncate(order).c, order

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            a, b, order = self._common(other)
            return Jet(a + b, order)
        return Jet(self.c + self._constant(other), self.order)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(-self.c, self.order)

    def __sub__(self, other) -> "Jet":
        if isinstance(other, Jet):
            a, b, order = self._common(other)
            return Jet(a - b, order)
        return Jet(self.c - self._constant(other), self.order)

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if isinstance(other, Jet):
            a, b, order = self._common(other)
            return Jet(_product(a, b, order), order)
        if isinstance(other, float):
            return Jet(self.c * other, self.order)
        return Jet(self.c * np.asarray(other, dtype=float)[..., None], self.order)

    __rmul__ = __mul__

    def __matmul__(self, matrix: np.ndarray) -> "Jet":
        """self @ matrix for a constant matrix: contracts the last shape axis."""
        return Jet(np.einsum("...km,kj->...jm", self.c, matrix), self.order)

    def __rmatmul__(self, matrix: np.ndarray) -> "Jet":
        """matrix @ self for a constant matrix: contracts the second-to-last
        shape axis, as numpy does for a stack of column vectors such as the
        (3, n) parameter jet."""
        return Jet(np.einsum("jk,...knm->...jnm", matrix, self.c), self.order)

    # -- functions of one jet -----------------------------------------------

    def compose(self, taylor: Sequence[np.ndarray]) -> "Jet":
        """f(self) from taylor[k] = f^(k)(a_0) / k! at the constant terms a_0,
        k = 0 .. order: Horner's rule in the part t without constant term."""
        t = self.c.copy()
        t[..., 0] = 0.0
        out = np.zeros(np.broadcast_shapes(self.c.shape, np.shape(taylor[0]) + (1,)))
        out[..., 0] = taylor[self.order]
        for k in range(self.order - 1, -1, -1):
            # the first step multiplies by a constant: no truncated product
            out = t * out[..., :1] if k == self.order - 1 else _product(out, t, self.order)
            out[..., 0] += taylor[k]
        return Jet(out, self.order)

    def power(self, exponent: float) -> "Jet":
        """self ** exponent; the constant terms must be positive, or nonzero
        for an integer exponent."""
        a0 = self.value
        taylor, binom = [], 1.0
        for k in range(self.order + 1):
            taylor.append(binom * a0 ** (exponent - k))
            binom *= (exponent - k) / (k + 1)
        return self.compose(taylor)

    def entire(self, series: Callable[[int], float]) -> "Jet":
        """f(self) for the entire function f(x) = sum_m series(m) x^m.

        Each Taylor coefficient f^(k)(a_0) / k! is summed from the power
        series, with terms until they fall below 1e-18 at the largest |a_0|,
        so no value of a_0 (zero included) needs its own branch.
        """
        a0 = self.value
        bound = max(1.0, float(np.max(np.abs(a0))))
        rows = 1
        try:
            while rows < _MAX_TERMS and abs(series(rows)) * (2.0 * bound) ** rows > 1e-18:
                rows += 1
        except OverflowError:  # the terms outgrow a float before they fall off
            raise ValueError(f"jet series argument {bound:g} is too large to sum") from None
        taylor = (a0[..., None] ** np.arange(rows)) @ _taylor_matrix(series, rows, self.order)
        return self.compose(list(np.moveaxis(taylor, -1, 0)))


@cache
def _taylor_matrix(series: Callable[[int], float], rows: int, order: int) -> np.ndarray:
    """M[m, k] = binom(m + k, k) series(m + k), m < rows: the power series
    in a_0 of the k-th Taylor coefficient at a_0."""
    return np.array(
        [[math.comb(m + k, k) * series(m + k) for k in range(order + 1)] for m in range(rows)]
    )


def stack(jets: Sequence[Jet], axis: int = 0) -> Jet:
    """numpy.stack over the jets' shape axes, at their lowest order."""
    order = min(j.order for j in jets)
    return Jet(np.stack([j.truncate(order).c for j in jets], axis=_axis(axis)), order)
