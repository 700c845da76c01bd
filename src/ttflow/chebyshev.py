"""Chebyshev collocation grids: nodes, differentiation, quadrature, interpolation.

Nodes are Chebyshev-Gauss-Lobatto points mapped affinely to [a, b] and stored
in ascending order. Differentiation matrices use the barycentric form with the
negative-sum trick for the diagonal; quadrature weights are Clenshaw-Curtis,
exact for polynomials of degree <= n-1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainBoundsError, InvalidShapeError


def cheb_nodes(n: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """Ascending Chebyshev-Gauss-Lobatto nodes on [a, b]."""
    if n < 2:
        raise InvalidShapeError(f"need at least 2 nodes, got {n}")
    if not b > a:
        raise InvalidShapeError(f"empty interval [{a}, {b}]")
    k = np.arange(n)
    x = np.cos(np.pi * k / (n - 1))[::-1]
    return (a + b) / 2 + (b - a) / 2 * x


def barycentric_weights(n: int) -> np.ndarray:
    """Barycentric weights for the CGL nodes (up to a common factor)."""
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def diff_matrix(n: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """First-derivative collocation matrix on the CGL nodes of [a, b]."""
    x = cheb_nodes(n, a, b)
    w = barycentric_weights(n)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


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
    return w[::-1] * (b - a) / 2.0


def interp_matrix(n: int, a: float, b: float, pts: np.ndarray,
                  outside: str = "error") -> np.ndarray:
    """Rows of Lagrange-basis values at ``pts`` for the CGL grid of [a, b].

    ``outside`` controls points beyond [a, b]: "error" raises, "zero" gives an
    all-zero row (used where clamping a decayed density to 0 is intended).
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=np.float64))
    x = cheb_nodes(n, a, b)
    w = barycentric_weights(n)
    inside = (pts >= a) & (pts <= b)
    if outside == "error":
        if not inside.all():
            bad = pts[~inside][0]
            raise DomainBoundsError(f"point {bad} outside [{a}, {b}]")
    elif outside != "zero":
        raise ValueError(f"unknown outside mode {outside!r}")

    diff = pts[:, None] - x[None, :]
    hit = np.abs(diff) < 1e-14 * max(abs(a), abs(b), 1.0)
    np.copyto(diff, 1.0, where=hit)
    m = (w[None, :] / diff)
    s = m.sum(axis=1, keepdims=True)
    np.divide(m, s, out=m, where=s != 0)  # s underflows for far-outside points
    exact = hit.any(axis=1)
    if exact.any():
        m[exact] = 0.0
        rows, cols = np.nonzero(hit)
        m[rows, cols] = 1.0
    m[~inside] = 0.0
    return m


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
        return _nodes_cached(self.ns[k], self.a, self.b)

    def diff1(self, k: int) -> np.ndarray:
        return _diff_cached(self.ns[k], self.a, self.b)

    def quad_weights(self, k: int) -> np.ndarray:
        return _cc_cached(self.ns[k], self.a, self.b)

    def interp_rows(self, k: int, pts: np.ndarray, outside: str = "error") -> np.ndarray:
        return interp_matrix(self.ns[k], self.a, self.b, pts, outside=outside)

    def index_to_point(self, idx: np.ndarray) -> np.ndarray:
        """Map integer multi-indices (m, d) to node coordinates (m, d)."""
        idx = np.atleast_2d(idx)
        out = np.empty(idx.shape, dtype=np.float64)
        for k in range(self.d):
            out[:, k] = self.nodes(k)[idx[:, k]]
        return out


@functools.lru_cache(maxsize=64)
def _nodes_cached(n, a, b):
    x = cheb_nodes(n, a, b)
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=64)
def _diff_cached(n, a, b):
    d = diff_matrix(n, a, b)
    d.flags.writeable = False
    return d


@functools.lru_cache(maxsize=64)
def _cc_cached(n, a, b):
    w = cc_weights(n, a, b)
    w.flags.writeable = False
    return w


def _chain_factors(tt, grid: ChebGrid, x: np.ndarray, outside: str):
    """Per-mode contractions T_k[p] = W_k[p, :] . G_k for a batch of points."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != grid.d:
        raise InvalidShapeError(f"points have {x.shape[1]} coords, grid is {grid.d}-d")
    factors = []
    wmats = []
    for k, core in enumerate(tt.cores):
        wk = grid.interp_rows(k, x[:, k], outside=outside)
        r, n, s = core.shape
        t = wk @ core.transpose(1, 0, 2).reshape(n, r * s)
        factors.append(t.reshape(-1, r, s))
        wmats.append(wk)
    return x, factors, wmats


def interp_eval(tt, grid: ChebGrid, x: np.ndarray, outside: str = "error") -> np.ndarray:
    """Evaluate the TT grid interpolant at points ``x`` (m, d) -> (m,)."""
    x, factors, _ = _chain_factors(tt, grid, x, outside)
    p = factors[0][:, 0, :]
    for t in factors[1:]:
        p = np.einsum("pr,prs->ps", p, t)
    return p[:, 0]


def interp_value_and_grad(tt, grid: ChebGrid, x: np.ndarray,
                          outside: str = "error"):
    """Interpolant values and gradients at ``x``: returns (m,), (m, d).

    The gradient of mode k replaces that mode's interpolation weights with
    rows of W_k . D1; prefix/suffix chain products are shared across modes.
    """
    x, factors, wmats = _chain_factors(tt, grid, x, outside)
    m = x.shape[0]
    d = grid.d
    prefix = [np.ones((m, 1))]
    for t in factors:
        prefix.append(np.einsum("pr,prs->ps", prefix[-1], t))
    suffix = [np.ones((m, 1))] * (d + 1)
    for k in range(d - 1, -1, -1):
        suffix[k] = np.einsum("prs,ps->pr", factors[k], suffix[k + 1])
    vals = prefix[d][:, 0]
    grads = np.empty((m, d))
    for k in range(d):
        core = tt.cores[k]
        r, n, s = core.shape
        wg = wmats[k] @ grid.diff1(k)
        tg = (wg @ core.transpose(1, 0, 2).reshape(n, r * s)).reshape(m, r, s)
        grads[:, k] = np.einsum("pr,prs,ps->p", prefix[k], tg, suffix[k + 1])
    return vals, grads
