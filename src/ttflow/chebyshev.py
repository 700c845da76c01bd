"""Chebyshev collocation grids: nodes, differentiation, quadrature, interpolation.

Nodes are Chebyshev-Gauss-Lobatto points mapped affinely to [a, b] and stored
in ascending order. Differentiation matrices use the barycentric form with the
negative-sum trick for the diagonal; quadrature weights are Clenshaw-Curtis,
exact for polynomials of degree <= n-1. Nodes, differentiation matrices and
weights are cached per (n, a, b) and returned read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainBoundsError, InvalidShapeError


@functools.lru_cache(maxsize=64)
def cheb_nodes(n: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """Ascending Chebyshev-Gauss-Lobatto nodes on [a, b]."""
    if n < 2:
        raise InvalidShapeError(f"need at least 2 nodes, got {n}")
    if not b > a:
        raise InvalidShapeError(f"empty interval [{a}, {b}]")
    k = np.arange(n)
    x = np.cos(np.pi * k / (n - 1))[::-1]
    x = (a + b) / 2 + (b - a) / 2 * x
    x.flags.writeable = False
    return x


def barycentric_weights(n: int) -> np.ndarray:
    """Barycentric weights for the CGL nodes (up to a common factor)."""
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@functools.lru_cache(maxsize=64)
def diff_matrix(n: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """First-derivative collocation matrix on the CGL nodes of [a, b]."""
    x = cheb_nodes(n, a, b)
    w = barycentric_weights(n)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    d.flags.writeable = False
    return d


@functools.lru_cache(maxsize=64)
def cc_weights(n: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """Clenshaw-Curtis quadrature weights over [a, b] (ascending node order)."""
    m = n - 1
    theta = np.pi * np.arange(m + 1) / m
    w = np.zeros(m + 1)
    ii = np.arange(1, m)
    v = np.ones(m - 1)
    if m % 2 == 0:
        w[0] = 1.0 / (m * m - 1)
        w[m] = w[0]
        for k in range(1, m // 2):
            v -= 2.0 * np.cos(2 * k * theta[ii]) / (4 * k * k - 1)
        v -= np.cos(m * theta[ii]) / (m * m - 1)
    else:
        w[0] = 1.0 / (m * m)
        w[m] = w[0]
        for k in range(1, (m - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * k * theta[ii]) / (4 * k * k - 1)
    w[ii] = 2.0 * v / m
    w = w[::-1] * (b - a) / 2.0
    w.flags.writeable = False
    return w


def _barycentric_block(n: int, a: float, b: float, pts: np.ndarray,
                       outside: str):
    """Unnormalized barycentric rows at ``pts`` and their row sums.

    Row i holds C[i, j] = w_j / (pts_i - x_j) for the CGL nodes x of [a, b];
    dividing it by its sum gives the Lagrange-basis values at pts_i (the
    second barycentric form). A point within 1e-14 of a node, relative to the
    box, gets that node's unit row. Only the two nodes bracketing a point can
    be that close, so hits are found by ``searchsorted`` rather than by a
    scan of the whole row. ``outside`` controls points beyond [a, b]: "error"
    raises, "zero" gives an all-zero row whose sum is 0.
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=np.float64))
    x = cheb_nodes(n, a, b)
    inside = (pts >= a) & (pts <= b)
    if outside == "error":
        if not inside.all():
            bad = pts[~inside][0]
            raise DomainBoundsError(f"point {bad} outside [{a}, {b}]")
    elif outside != "zero":
        raise ValueError(f"unknown outside mode {outside!r}")

    right = np.clip(np.searchsorted(x, pts), 1, n - 1)
    near = np.stack([right - 1, right])
    tol = 1e-14 * max(abs(a), abs(b), 1.0)
    which, rows = np.nonzero(np.abs(pts - x[near]) < tol)
    cols = near[which, rows]
    c = pts[:, None] - x
    c[rows, cols] = 1.0  # no zero divisor; hit rows are replaced below
    np.divide(barycentric_weights(n), c, out=c)
    c[rows] = 0.0
    c[rows, cols] = 1.0
    c[~inside] = 0.0
    return c, c.sum(axis=1)


def interp_matrix(n: int, a: float, b: float, pts: np.ndarray,
                  outside: str = "error") -> np.ndarray:
    """Rows of Lagrange-basis values at ``pts`` for the CGL grid of [a, b].

    ``outside`` controls points beyond [a, b]: "error" raises, "zero" gives an
    all-zero row (used where clamping a decayed density to 0 is intended).
    """
    c, s = _barycentric_block(n, a, b, pts, outside)
    np.divide(c, s[:, None], out=c, where=s[:, None] != 0)
    return c


@dataclass(frozen=True)
class ChebGrid:
    """Tensor-product CGL grid: ``ns[k]`` nodes per mode on the box [a, b]^d."""

    ns: tuple[int, ...]
    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if len(self.ns) < 1 or any(n < 2 for n in self.ns):
            raise InvalidShapeError(f"bad mode sizes {self.ns}")
        if not self.b > self.a:
            raise InvalidShapeError(f"empty box [{self.a}, {self.b}]")

    @classmethod
    def uniform(cls, d: int, n: int, a: float, b: float) -> "ChebGrid":
        return cls((n,) * d, a, b)

    @property
    def d(self) -> int:
        return len(self.ns)

    @property
    def mode_sizes(self) -> tuple:
        return tuple(self.ns)

    def nodes(self, k: int) -> np.ndarray:
        return cheb_nodes(self.ns[k], self.a, self.b)

    def diff1(self, k: int) -> np.ndarray:
        return diff_matrix(self.ns[k], self.a, self.b)

    def quad_weights(self, k: int) -> np.ndarray:
        return cc_weights(self.ns[k], self.a, self.b)

    def interp_rows(self, k: int, pts: np.ndarray) -> np.ndarray:
        return interp_matrix(self.ns[k], self.a, self.b, pts)

    def index_to_point(self, idx: np.ndarray) -> np.ndarray:
        """Map integer multi-indices (m, d) to node coordinates (m, d)."""
        idx = np.atleast_2d(idx)
        out = np.empty(idx.shape, dtype=np.float64)
        for k in range(self.d):
            out[:, k] = self.nodes(k)[idx[:, k]]
        return out


def value_grad_cores(tt, grid: ChebGrid) -> list:
    """Per mode, the core unfolded to n x (r s) next to its derivative:
    [G_k | D1 G_k], the right-hand side of ``interp_value_and_grad``."""
    out = []
    for k, core in enumerate(tt.cores):
        r, n, s = core.shape
        gk = core.transpose(1, 0, 2).reshape(n, r * s)
        out.append(np.concatenate([gk, grid.diff1(k) @ gk], axis=1))
    return out


def interp_value_and_grad(tt, grid: ChebGrid, x: np.ndarray, _cores=None):
    """Interpolant values and gradients at ``x`` (m, d): returns (m,), (m, d).

    Mode k contributes the factor W_k G_k per point, with W_k the
    interpolation rows at x[:, k] and G_k the core unfolded to n x (r s), and
    the derivative factor W_k (D1 G_k). Both come from one product of the
    unnormalized barycentric block C_k with [G_k | D1 G_k], each row then
    divided by C_k's row sum, so W_k itself is never formed. ``_cores`` takes
    ``value_grad_cores(tt, grid)`` from a caller that evaluates the same
    tensor many times. Prefix/suffix chain products are shared across modes.
    Points outside the box raise ``DomainBoundsError``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != grid.d:
        raise InvalidShapeError(f"points have {x.shape[1]} coords, grid is {grid.d}-d")
    if _cores is None:
        _cores = value_grad_cores(tt, grid)
    m, d = x.shape
    factors, dfactors = [], []
    for k, core in enumerate(tt.cores):
        r, n, s = core.shape
        c, sums = _barycentric_block(n, grid.a, grid.b, x[:, k], "error")
        both = c @ _cores[k]
        both /= sums[:, None]
        factors.append(both[:, :r * s].reshape(m, r, s))
        dfactors.append(both[:, r * s:].reshape(m, r, s))
    prefix = [np.ones((m, 1))]
    for t in factors:
        prefix.append(np.einsum("pr,prs->ps", prefix[-1], t))
    suffix = [np.ones((m, 1))] * (d + 1)
    for k in range(d - 1, -1, -1):
        suffix[k] = np.einsum("prs,ps->pr", factors[k], suffix[k + 1])
    vals = prefix[d][:, 0]
    grads = np.empty((m, d))
    for k in range(d):
        grads[:, k] = np.einsum("pr,prs,ps->p", prefix[k], dfactors[k], suffix[k + 1])
    return vals, grads
