"""Chebyshev collocation grids: nodes, differentiation, quadrature, interpolation.

Nodes are Chebyshev-Gauss-Lobatto points mapped affinely to [a, b] and stored
in ascending order. Each job has one route:

- Series maps between node values: node values to Chebyshev coefficients (a
  DCT-I), those to values at CGL nodes, and to the coefficients of the
  derivative and of the antiderivative from a. They give the Clenshaw-Curtis
  weights, the sampler's CDF values at n + 1 nodes and ``chop``'s cut series,
  which the TT evaluator differentiates in the series.
- One point kernel for every evaluation off the nodes: the second barycentric
  form. The differences pts_i - x_j are the rank-2 product [pts, 1] @ [1; -x],
  rounded once like the subtraction, and the weights (+-1, +-1/2) fold exactly
  into the matrix that follows.
- Uncut node values differentiate by the barycentric matrix with the
  negative-sum diagonal, whose error follows the values near each node.

Tables are cached, read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainBoundsError, InvalidShapeError

CHOP_TOL = 1e-12  # evaluation drops Chebyshev coefficients below this share of the largest


@functools.lru_cache(maxsize=64)
def cheb_nodes(n: int, a: float, b: float) -> np.ndarray:
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


@functools.lru_cache(maxsize=16)
def diff_matrix(n: int, a: float, b: float) -> np.ndarray:
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
def cc_weights(n: int, a: float, b: float) -> np.ndarray:
    """Clenshaw-Curtis weights over [a, b] (ascending node order): the
    antiderivative from a of the interpolant's Chebyshev series, read at b,
    so the weights, the mass and the sampler's CDF share one integration map."""
    w = coeff_matrix(n).T @ antideriv_matrix(n, a, b).sum(axis=0)  # T_j(1) = 1
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=16)
def antideriv_matrix(n: int, a: float, b: float) -> np.ndarray:
    """(n+1) x n map from the Chebyshev coefficients c_0..c_{n-1} of a
    degree <= n-1 polynomial f on [a, b] to those of its antiderivative
    F(x) = int_a^x f, both in the variable s mapped to [-1, 1]: numpy's
    ``chebint`` of each unit series from s = -1, times dx/ds = (b-a)/2."""
    m = np.polynomial.chebyshev.chebint(np.eye(n), lbnd=-1, scl=(b - a) / 2.0)
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=16)
def deriv_matrix(n: int, a: float, b: float) -> np.ndarray:
    """Chebyshev coefficients of f on [a, b] to those of f' (``chebder`` of the
    identity, a zero last row); its leading k x k block differentiates k terms."""
    m = np.vstack([np.polynomial.chebyshev.chebder(np.eye(n), scl=2.0 / (b - a)), np.zeros(n)])
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=16)
def cdf_matrices(n: int, a: float, b: float) -> tuple:
    """Maps from the values of f at the n ascending CGL nodes of [a, b]: to
    the values of its CDF F(x) = int_a^x f and of f at the n + 1 CGL nodes,
    [F | f] (n x 2(n+1)), exact there as F has degree n; and to F at the n
    nodes (n x n)."""
    to_coef = coeff_matrix(n).T
    to_cdf = to_coef @ antideriv_matrix(n, a, b).T
    t = _cheb_at_nodes(n + 1, n + 1)
    at_fine = np.concatenate([to_cdf @ t.T, to_coef @ t[:, :n].T], axis=1)
    at_nodes = to_cdf @ _cheb_at_nodes(n, n + 1).T
    at_fine.flags.writeable = at_nodes.flags.writeable = False
    return at_fine, at_nodes


@functools.lru_cache(maxsize=64)  # a d2/250 trajectory's chops read 38-45 sizes
def _cheb_at_nodes(n: int, m: int) -> np.ndarray:
    """T_0..T_{m-1} at the n ascending CGL nodes, read-only: node i is
    cos(pi (n-1-i) / (n-1)) on [-1, 1], so T_j there is cos(j pi (n-1-i) / (n-1))."""
    i = np.arange(n)
    t = np.cos(np.pi * np.outer(i[::-1], np.arange(m)) / (n - 1))
    t.flags.writeable = False
    return t


@functools.lru_cache(maxsize=16)
def coeff_matrix(n: int) -> np.ndarray:
    """Values at the n ascending CGL nodes to the Chebyshev coefficients of
    their interpolant, c_0..c_{n-1} in the variable mapped to [-1, 1].

    c_k = 2/(n-1) sum'' f(x_j) T_k(x_j), the sum halving its two endpoint
    terms and c_0, c_{n-1} halved as well (a DCT-I written as a matrix).
    """
    v = np.ascontiguousarray(_cheb_at_nodes(n, n).T) * (2.0 / (n - 1))
    v[:, [0, -1]] *= 0.5
    v[[0, -1]] *= 0.5
    v.flags.writeable = False
    return v


def chop(values: np.ndarray, tol: float) -> np.ndarray:
    """Node values (n, c) to the rows c_0..c_{k-1} of their interpolant's
    Chebyshev coefficients: k >= 2 is 1 + the last degree whose coefficient
    (largest over the columns) exceeds ``tol`` of the largest."""
    coef = coeff_matrix(len(values)) @ values
    mags = np.abs(coef).max(axis=1)
    above = np.flatnonzero(mags > tol * mags.max())
    return coef[:max(int(above[-1]) + 1 if above.size else 0, 2)]


def _inverse_differences(n: int, a: float, b: float, pts: np.ndarray) -> np.ndarray:
    """C[i, j] = 1 / (pts_i - x_j) for the CGL nodes x of [a, b]: times the
    weights w_j and over its row sum, row i holds the Lagrange-basis values.

    A point within 1e-14 (b - a) of a node gets the row e_j / w_j of that
    node; only the nearer bracketing node can be that close. A point beyond
    [a, b] raises ``DomainBoundsError``.
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=np.float64))
    bad = pts[~((pts >= a) & (pts <= b))]
    if bad.size:
        raise DomainBoundsError(f"point {bad[0]} outside [{a}, {b}]")
    x = cheb_nodes(n, a, b)
    near = np.searchsorted(x[1:-1], pts) + 1  # right bracketing node
    near -= np.abs(pts - x[near - 1]) < np.abs(pts - x[near])
    rows = np.flatnonzero(np.abs(pts - x[near]) < 1e-14 * (b - a))
    cols = near[rows]
    lhs = np.empty((pts.size, 2))
    lhs[:, 0], lhs[:, 1] = pts, 1.0
    c = lhs @ np.stack([np.ones(n), -x])
    c[rows, cols] = 1.0  # no zero divisor; hit rows are replaced below
    np.divide(1.0, c, out=c)
    c[rows] = 0.0
    c[rows, cols] = 1.0 / barycentric_weights(n)[cols]
    return c


def interp_matrix(n: int, a: float, b: float, pts: np.ndarray) -> np.ndarray:
    """Rows of Lagrange-basis values at ``pts`` for the CGL grid of [a, b].

    Points beyond [a, b] raise ``DomainBoundsError``.
    """
    c = _inverse_differences(n, a, b, pts)
    c *= barycentric_weights(n)
    c /= c.sum(axis=1)[:, None]
    return c


@dataclass(frozen=True)
class ChebGrid:
    """Tensor-product CGL grid: ``ns[k]`` nodes per mode on the box [a, b]^d."""

    ns: tuple[int, ...]
    a: float
    b: float

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
        return np.column_stack([self.nodes(k)[idx[:, k]] for k in range(self.d)])


def value_grad_cores(tt, grid: ChebGrid) -> list:
    """Per mode, [w G | w G' | w] on the k nodes ``chop`` keeps: a cut core reads
    its series c and c' there, an uncut one its values and their ``diff_matrix``."""
    out = []
    for core in tt.cores:
        r, n, s = core.shape
        g = core.transpose(1, 0, 2).reshape(n, r * s)
        c = chop(g, CHOP_TOL)
        k = len(c)
        if k < n:
            dc = deriv_matrix(n, grid.a, grid.b)[:k, :k] @ c
            g = _cheb_at_nodes(k, k) @ np.hstack([c, dc, np.eye(k, 1)])  # T_0 = 1
        else:
            g = np.hstack([g, diff_matrix(n, grid.a, grid.b) @ g, np.ones((n, 1))])
        out.append(g * barycentric_weights(k)[:, None])
    return out


def interp_value_and_grad(tt, grid: ChebGrid, x: np.ndarray, _cores=None):
    """Interpolant values and gradients at ``x`` (m, d): returns (m,), (m, d).

    Each mode reads its series cut at ``CHOP_TOL`` (``value_grad_cores``): the
    factor W_k G_k per point, with W_k the interpolation rows of the k kept
    nodes at x[:, k] and G_k the cut series there, k x (r s), and the
    derivative factor W_k G_k', G_k' its derivative there. One product of the
    inverse differences C_k with [w G_k | w G_k' | w] gives both and, in its
    last column, the row sums that normalize them, so W_k is never formed.
    ``_cores`` takes ``value_grad_cores(tt, grid)`` from a caller that evaluates
    the same tensor many times. Prefix/suffix chain products are shared across
    modes. Points outside the box raise ``DomainBoundsError``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != grid.d:
        raise InvalidShapeError(f"points have {x.shape[1]} coords, grid is {grid.d}-d")
    if _cores is None:
        _cores = value_grad_cores(tt, grid)
    m, d = x.shape
    factors, dfactors = [], []
    for k, (core, vg) in enumerate(zip(tt.cores, _cores)):
        r, _, s = core.shape
        both = _inverse_differences(len(vg), grid.a, grid.b, x[:, k]) @ vg
        both /= both[:, -1:]
        factors.append(both[:, :r * s].reshape(m, r, s))
        dfactors.append(both[:, r * s:-1].reshape(m, r, s))
    prefix = [np.ones((m, 1))]
    for t in factors:
        prefix.append(np.einsum("pr,prs->ps", prefix[-1], t))
    suffix = [np.ones((m, 1))] * (d + 1)
    for k in range(d - 1, -1, -1):
        suffix[k] = np.einsum("prs,ps->pr", factors[k], suffix[k + 1])
    grads = np.column_stack([np.einsum("pr,prs,ps->p", prefix[k], dfactors[k], suffix[k + 1])
                             for k in range(d)])
    return prefix[d][:, 0], grads
