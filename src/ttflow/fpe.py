"""Exact Ornstein-Uhlenbeck stepping of dp/dt = div(x p) + lap(p) in TT format.

The transition kernel of the Ornstein-Uhlenbeck semigroup factorizes over
coordinates, so one time step is one n_k x n_k matrix per mode: a heat
propagator E, the dilation rows R that read the density at e^h x, another E,
and the mass gain e^h of the dilation, S_k = e^h E R E. Ranks never grow and
no cross-approximation is needed inside the solver.

Each heat factor lasts tanh(h)/2 rather than the textbook h/2. With that
duration the blur-dilate-blur composition reproduces the transition kernel
exactly in continuous space: blurring by exp(tau lap) commutes past the
dilation x -> exp(-h) x at the cost of the variance factor exp(-2h), and
tau (1 + exp(-2h)) = (1 - exp(-2h))/2 pins the total added variance to the
exact 1 - exp(-2h). The residual error is then purely spatial (spectral
interpolation and rounding), not O(h^2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .chebyshev import (ChebGrid, cheb_nodes, diff_matrix, interp_matrix,
                        interp_value_and_grad, value_grad_cores)
from .errors import ConfigError, InvalidShapeError, NumericalDomainError
from .tt import (TTTensor, tt_add, tt_extrema, tt_integrate, tt_mode_apply,
                 tt_round, tt_scale, tt_weighted_inner)

ROUND_TOL = 1e-10  # relative Frobenius tolerance of the per-step rounding
SCORE_FLOOR = 1e-12  # scores divide by at least this fraction of p0's peak


def _heat_propagator(n: int, a: float, b: float, tau: float) -> np.ndarray:
    """exp(tau * D2) with homogeneous Dirichlet walls.

    The raw CGL second-derivative matrix is far from normal and its
    exponential overflows; restricted to interior nodes it is a clean
    contraction (spectrum in [-pi^2/(b-a)^2 * k^2, 0)), so the boundary rows
    and columns are pinned to zero instead.
    """
    d1 = diff_matrix(n, a, b)
    d2 = (d1 @ d1)[1:-1, 1:-1]
    e = np.zeros((n, n))
    e[1:-1, 1:-1] = expm(tau * d2)
    if not np.isfinite(e).all():
        raise NumericalDomainError(f"heat propagator overflowed at tau={tau}")
    return e


def _dilation_rows(n: int, a: float, b: float, h: float) -> np.ndarray:
    """Interpolation rows at the scaled nodes e^h x of one mode; nodes pushed
    outside the box read 0 (the density is certified to have decayed there)."""
    return interp_matrix(n, a, b, np.exp(h) * cheb_nodes(n, a, b), outside="zero")


@functools.lru_cache(maxsize=32)
def _step_matrix(n: int, a: float, b: float, h: float) -> np.ndarray:
    """One exact step of length h along one mode: e^h E R E, read-only."""
    e = _heat_propagator(n, a, b, np.tanh(h) / 2.0)
    step = np.exp(h) * (e @ _dilation_rows(n, a, b, h) @ e)
    step.flags.writeable = False
    return step


@dataclass
class DensityTrajectory:
    """Normalized density snapshots p_m at times m h, m = 0..M.

    ``floor`` is ``SCORE_FLOOR`` times the peak of snapshots[0], found once:
    every snapshot's score divides by at least that value.
    """

    grid: ChebGrid
    h: float
    snapshots: list
    masses: list = field(default_factory=list)
    ranks: list = field(default_factory=list)
    floor_hits: int = 0
    floor: float = field(init=False)
    _cores: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        _, peak = tt_extrema(self.snapshots[0], np.random.default_rng(0))
        self.floor = SCORE_FLOOR * peak

    @property
    def n_steps(self) -> int:
        return len(self.snapshots) - 1

    @property
    def box(self):
        return (self.grid.a, self.grid.b)

    def score_at(self, m: int, x: np.ndarray) -> np.ndarray:
        """grad log p_m at points x of shape (n, d), floored away from 0/0."""
        if not 0 <= m <= self.n_steps:
            raise InvalidShapeError(f"snapshot {m} outside 0..{self.n_steps}")
        cores = self._cores.get(m)
        if cores is None:
            # a flow step reads snapshots 2j, 2j+1, 2j+2 in that order and the
            # next starts at 2j+2, so keeping two builds each snapshot once
            if len(self._cores) >= 2:
                del self._cores[next(iter(self._cores))]
            cores = self._cores[m] = value_grad_cores(self.snapshots[m], self.grid)
        vals, grads = interp_value_and_grad(self.snapshots[m], self.grid, x,
                                            _cores=cores)
        self.floor_hits += int((vals < self.floor).sum())
        return grads / np.maximum(vals, self.floor)[:, None]


def fpe_solve(p0: TTTensor, grid: ChebGrid, m_steps: int,
              t_max: float) -> DensityTrajectory:
    """March p0 to t_max in m_steps equal exact steps.

    Every step applies the cached step matrix of each mode, rounds to
    ``ROUND_TOL`` (which never raises a rank, so no snapshot outranks p0) and
    renormalizes to unit mass; the pre-renormalization mass and
    post-rounding ranks are recorded per step.
    """
    if m_steps < 1 or t_max <= 0:
        raise ConfigError(f"need m_steps >= 1 and t_max > 0, got {m_steps}, {t_max}")
    if p0.mode_sizes != grid.mode_sizes:
        raise InvalidShapeError(
            f"p0 mode sizes {p0.mode_sizes} do not match grid {grid.mode_sizes}")
    weights = [grid.quad_weights(k) for k in range(grid.d)]
    mass0 = tt_integrate(p0, weights)
    if not np.isfinite(mass0) or mass0 <= 0:
        raise NumericalDomainError(f"initial mass {mass0} is not positive")

    h = t_max / m_steps
    steps = [_step_matrix(n, grid.a, grid.b, h) for n in grid.ns]
    traj = DensityTrajectory(grid=grid, h=h, snapshots=[tt_scale(p0, 1.0 / mass0)])
    traj.masses.append(mass0)
    traj.ranks.append(p0.ranks)

    p = traj.snapshots[0]
    for m in range(1, m_steps + 1):
        for k, step in enumerate(steps):
            p = tt_mode_apply(p, step, k)
        p = tt_round(p, ROUND_TOL)
        mass = tt_integrate(p, weights)
        if not np.isfinite(mass) or mass <= 0:
            raise NumericalDomainError(f"mass {mass} at step {m} is not positive")
        p = tt_scale(p, 1.0 / mass)
        traj.snapshots.append(p)
        traj.masses.append(mass)
        traj.ranks.append(p.ranks)
    return traj


def density_moments(p: TTTensor, grid: ChebGrid):
    """Mean vector and covariance matrix of a normalized grid density."""
    d = grid.d
    w = [grid.quad_weights(k) for k in range(d)]
    xs = [grid.nodes(k) for k in range(d)]
    mass = tt_integrate(p, w)
    mean = np.empty(d)
    for i in range(d):
        wi = [w[k] * xs[k] if k == i else w[k] for k in range(d)]
        mean[i] = tt_integrate(p, wi) / mass
    cov = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            wij = []
            for k in range(d):
                wk = w[k].copy()
                if k == i:
                    wk = wk * xs[k]
                if k == j:
                    wk = wk * xs[k]
                wij.append(wk)
            second = tt_integrate(p, wij) / mass
            cov[i, j] = cov[j, i] = second - mean[i] * mean[j]
    return mean, cov


def rel_l2_distance(p: TTTensor, q: TTTensor, grid: ChebGrid) -> float:
    """Relative L2 distance ||p - q|| / ||q|| under the grid quadrature.

    The difference is formed as a TT and orthogonalized before its norm is
    taken, so p and q cancel entrywise rather than through pp - 2 pq + qq,
    whose rounding floor is ~1e-8 relative.
    """
    w = [grid.quad_weights(k) for k in range(grid.d)]
    qq = tt_weighted_inner(q, q, w)
    if qq <= 0:
        raise NumericalDomainError("reference density has nonpositive norm")
    diff = tt_round(tt_add(p, tt_scale(q, -1.0)), 0.0)
    return float(np.sqrt(max(tt_weighted_inner(diff, diff, w), 0.0)) / np.sqrt(qq))
