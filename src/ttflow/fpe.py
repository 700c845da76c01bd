"""Operator-splitting solver for dp/dt = div(x p) + lap(p) in TT format.

Each step composes a spectral diffusion half-step, an exact-characteristics
convection step, and another diffusion half-step. Both sub-flows act mode by
mode, so a step is a product of per-mode linear maps on the cores: ranks
never grow and no cross-approximation is needed inside the solver.

Each diffusion half-step lasts tanh(h)/2 rather than the textbook h/2. With
that duration the blur-dilate-blur composition reproduces the transition
kernel of the underlying Ornstein-Uhlenbeck semigroup exactly in continuous
space: blurring by exp(tau lap) commutes past the dilation x -> exp(-h) x at
the cost of the variance factor exp(-2h), and tau (1 + exp(-2h)) =
(1 - exp(-2h))/2 pins the total added variance to the exact 1 - exp(-2h).
The residual error is then purely spatial (spectral interpolation and
rounding), not O(h^2).
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .chebyshev import ChebGrid, interp_value_and_grad
from .errors import ConfigError, InvalidShapeError, NumericalDomainError
from .tt import (TTTensor, load_tt, save_tt, tt_extrema, tt_integrate,
                 tt_mode_apply, tt_round, tt_scale, tt_weighted_inner)


@functools.lru_cache(maxsize=32)
def _heat_propagator(n: int, a: float, b: float, tau: float) -> np.ndarray:
    """exp(tau * D2) with homogeneous Dirichlet walls.

    The raw CGL second-derivative matrix is far from normal and its
    exponential overflows; restricted to interior nodes it is a clean
    contraction (spectrum in [-pi^2/(b-a)^2 * k^2, 0)), so the boundary rows
    and columns are pinned to zero instead.
    """
    from .chebyshev import diff_matrix

    d1 = diff_matrix(n, a, b)
    d2 = (d1 @ d1)[1:-1, 1:-1]
    e = np.zeros((n, n))
    e[1:-1, 1:-1] = expm(tau * d2)
    if not np.isfinite(e).all():
        raise NumericalDomainError(f"heat propagator overflowed at tau={tau}")
    return e


def _heat_apply(p: TTTensor, grid: ChebGrid, tau: float) -> TTTensor:
    for k in range(grid.d):
        e = _heat_propagator(grid.ns[k], grid.a, grid.b, tau)
        p = tt_mode_apply(p, e, k)
    return p


def diffusion_halfstep(p: TTTensor, grid: ChebGrid, h: float) -> TTTensor:
    """Heat semigroup over duration h/2, applied along every mode."""
    if h < 0:
        raise InvalidShapeError(f"negative step {h}")
    if h == 0:
        return p
    return _heat_apply(p, grid, h / 2.0)


def convection_step(p: TTTensor, grid: ChebGrid, h: float) -> TTTensor:
    """Exact characteristics of dp/dt = div(x p): p_new(x) = e^{dh} p(e^h x).

    The scaled nodes e^h x form a tensor-product set, so evaluating the TT
    interpolant there factorizes into one interpolation matrix per mode;
    nodes pushed outside the box read 0 (the density is certified to have
    decayed there).
    """
    if h < 0:
        raise InvalidShapeError(f"negative step {h}")
    if h == 0:
        return p
    s = np.exp(h)
    for k in range(grid.d):
        rows = grid.interp_rows(k, s * grid.nodes(k), outside="zero")
        p = tt_mode_apply(p, rows, k)
    return tt_scale(p, np.exp(grid.d * h))


@dataclass
class DensityTrajectory:
    """Normalized density snapshots p_m at times m h, m = 0..M."""

    grid: ChebGrid
    h: float
    t_max: float
    snapshots: list
    masses: list = field(default_factory=list)
    ranks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    floor_hits: int = 0
    _peaks: dict = field(default_factory=dict, repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.snapshots) - 1

    @property
    def box(self):
        return (self.grid.a, self.grid.b)

    def _peak(self, m: int) -> float:
        if m not in self._peaks:
            _, hi = tt_extrema(self.snapshots[m], np.random.default_rng(m))
            self._peaks[m] = hi
        return self._peaks[m]

    def score_at(self, m: int, x: np.ndarray) -> np.ndarray:
        """grad log p_m at points x of shape (n, d), floored away from 0/0."""
        if not 0 <= m <= self.n_steps:
            raise InvalidShapeError(f"snapshot {m} outside 0..{self.n_steps}")
        vals, grads = interp_value_and_grad(self.snapshots[m], self.grid, x)
        floor = 1e-12 * self._peak(m)
        low = vals < floor
        self.floor_hits += int(low.sum())
        return grads / np.maximum(vals, floor)[:, None]

    def save(self, path) -> None:
        os.makedirs(path, exist_ok=True)
        manifest = {
            "h": self.h,
            "t_max": self.t_max,
            "m_steps": self.n_steps,
            "grid": {"ns": list(self.grid.ns), "a": self.grid.a, "b": self.grid.b},
            "masses": list(map(float, self.masses)),
            "ranks": [list(map(int, r)) for r in self.ranks],
            "warnings": list(self.warnings),
            "floor_hits": self.floor_hits,
        }
        with open(os.path.join(path, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        for m, snap in enumerate(self.snapshots):
            save_tt(snap, os.path.join(path, f"snapshot_{m:06d}.tt"))

    @classmethod
    def load(cls, path) -> "DensityTrajectory":
        with open(os.path.join(path, "manifest.json")) as fh:
            man = json.load(fh)
        grid = ChebGrid(tuple(man["grid"]["ns"]), man["grid"]["a"], man["grid"]["b"])
        snaps = [load_tt(os.path.join(path, f"snapshot_{m:06d}.tt"))
                 for m in range(man["m_steps"] + 1)]
        return cls(grid=grid, h=man["h"], t_max=man["t_max"], snapshots=snaps,
                   masses=man["masses"], ranks=[tuple(r) for r in man["ranks"]],
                   warnings=man["warnings"], floor_hits=man["floor_hits"])


def fpe_solve(p0: TTTensor, grid: ChebGrid, m_steps: int, t_max: float, *,
              round_tol: float = 1e-10, max_rank: int = 50) -> DensityTrajectory:
    """March p0 to t_max in m_steps equal splitting steps.

    Every step rounds to ``round_tol`` and renormalizes to unit mass; the
    pre-renormalization mass and post-rounding ranks are recorded per step.
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
    tau = np.tanh(h) / 2.0
    traj = DensityTrajectory(grid=grid, h=h, t_max=t_max,
                             snapshots=[tt_scale(p0, 1.0 / mass0)])
    traj.masses.append(mass0)
    traj.ranks.append(p0.ranks)

    p = traj.snapshots[0]
    for m in range(1, m_steps + 1):
        p = _heat_apply(p, grid, tau)
        p = convection_step(p, grid, h)
        p = _heat_apply(p, grid, tau)
        p = tt_round(p, round_tol, max_rank)
        if max(p.ranks) >= max_rank:
            traj.warnings.append(f"step {m}: rounding hit the rank cap {max_rank}")
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
    """Relative L2 distance ||p - q|| / ||q|| under the grid quadrature."""
    w = [grid.quad_weights(k) for k in range(grid.d)]
    pp = tt_weighted_inner(p, p, w)
    qq = tt_weighted_inner(q, q, w)
    pq = tt_weighted_inner(p, q, w)
    if qq <= 0:
        raise NumericalDomainError("reference density has nonpositive norm")
    return float(np.sqrt(max(pp - 2 * pq + qq, 0.0)) / np.sqrt(qq))
