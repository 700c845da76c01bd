"""Sampling from TT densities and probability-flow transport of the samples.

The flow ODE is dx/dt = -[x + grad log p_t(x)]. Between stored density
snapshots the integrator takes one classical RK4 step; the two midpoint
stages read the average of the bracketing snapshot scores unless the score
provider can evaluate at arbitrary times (``score_at_time``), in which case
true stage times are used.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chebyshev import ChebGrid
from .errors import InvalidShapeError, SamplingError
from .tt import TTTensor

_FINE = 2048  # refined 1-d grid for inverse-CDF sampling
_CHUNK = 2048  # samples processed per linear-algebra block


@dataclass(frozen=True)
class PointCloud:
    """n points in R^d with stable ids; pairing across clouds is by id."""

    points: np.ndarray
    ids: np.ndarray = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        ids = (np.arange(pts.shape[0]) if self.ids is None
               else np.asarray(self.ids, dtype=np.int64))
        if ids.shape != (pts.shape[0],):
            raise InvalidShapeError("ids must match the number of points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


class FlowResult(NamedTuple):
    x1: PointCloud
    states: np.ndarray  # (M+1, n, d): row m holds every point at times[m]
    times: np.ndarray
    clamped: int
    failed_ids: list


def sample_tt(p: TTTensor, grid: ChebGrid, n: int, seed: int) -> PointCloud:
    """Draw n points from a normalized TT density by sequential conditionals.

    Mode k's 1-d conditional combines trailing cores contracted with the
    quadrature weights and leading cores contracted with interpolation rows
    at the coordinates already drawn; it is sampled by inverse CDF on a
    2048-point refinement with negative interpolant values clamped to 0.
    """
    if n < 1:
        raise InvalidShapeError(f"need n >= 1, got {n}")
    if p.mode_sizes != grid.mode_sizes:
        raise InvalidShapeError(
            f"density mode sizes {p.mode_sizes} do not match grid {grid.mode_sizes}")
    d = grid.d
    rng = np.random.default_rng(seed)

    # trailing quadrature contractions: suffix[k] integrates modes k..d-1
    suffix = [None] * (d + 1)
    suffix[d] = np.ones(1)
    for k in range(d - 1, -1, -1):
        w = grid.quad_weights(k)
        suffix[k] = np.einsum("j,rjs,s->r", w, p.cores[k], suffix[k + 1])

    fine = np.linspace(grid.a, grid.b, _FINE)
    dx = fine[1] - fine[0]
    out = np.empty((n, d))
    left = np.ones((n, 1))
    for k in range(d):
        u = rng.random(n)
        refine = grid.interp_rows(k, fine)  # (_FINE, n_k)
        for lo in range(0, n, _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, n))
            vals = np.einsum("nr,rjs,s->nj", left[sl], p.cores[k], suffix[k + 1])
            dens = np.maximum(vals @ refine.T, 0.0)
            seg = 0.5 * (dens[:, 1:] + dens[:, :-1]) * dx
            cdf = np.concatenate(
                [np.zeros((dens.shape[0], 1)), np.cumsum(seg, axis=1)], axis=1)
            total = cdf[:, -1]
            if np.any(total <= 0) or not np.isfinite(total).all():
                bad = int(np.where((total <= 0) | ~np.isfinite(total))[0][0])
                raise SamplingError(
                    f"conditional density for sample {lo + bad} integrates to "
                    f"{total[bad]} at mode {k}; prefix {out[lo + bad, :k]}")
            target = u[sl] * total
            j = np.clip(np.sum(cdf <= target[:, None], axis=1) - 1, 0, _FINE - 2)
            rows = np.arange(dens.shape[0])
            gap = cdf[rows, j + 1] - cdf[rows, j]
            frac = np.where(gap > 0, (target - cdf[rows, j]) / np.maximum(gap, 1e-300), 0.5)
            out[sl, k] = fine[j] + np.clip(frac, 0.0, 1.0) * dx
        interp = grid.interp_rows(k, out[:, k])
        left = np.einsum("nr,rjs,nj->ns", left, p.cores[k], interp)
    return PointCloud(points=out)


def _stage_score(provider, m: int, t: float, x: np.ndarray) -> np.ndarray:
    if hasattr(provider, "score_at_time"):
        return provider.score_at_time(t, x)
    return 0.5 * (provider.score_at(m, x) + provider.score_at(m + 1, x))


def flow_integrate(provider, x0: PointCloud) -> FlowResult:
    """Transport x0 along dx/dt = -[x + score(t, x)], one RK4 step per snapshot.

    ``provider`` needs ``n_steps``, ``h``, ``score_at(m, x)`` and optionally
    ``score_at_time(t, x)`` and a bounding ``box``. Stage states leaving the
    box are clamped for evaluation (counted); points turning non-finite are
    flagged and reported, their endpoint set to NaN.
    """
    m_steps, h = provider.n_steps, provider.h
    box = getattr(provider, "box", None)
    n, d = x0.n, x0.d
    x = x0.points.copy()
    alive = np.ones(n, dtype=bool)
    clamped = 0
    states = np.empty((m_steps + 1, n, d))
    states[0] = x

    def eval_v(score_fn, xs):
        nonlocal clamped
        if box is not None:
            xc = np.clip(xs, box[0], box[1])
            clamped += int((xc != xs).any(axis=1).sum())
        else:
            xc = xs
        return -(xc + score_fn(xc))

    for m in range(m_steps):
        xa = x[alive]
        t_mid = (m + 0.5) * h
        k1 = eval_v(lambda z: provider.score_at(m, z), xa)
        k2 = eval_v(lambda z: _stage_score(provider, m, t_mid, z), xa + 0.5 * h * k1)
        k3 = eval_v(lambda z: _stage_score(provider, m, t_mid, z), xa + 0.5 * h * k2)
        k4 = eval_v(lambda z: provider.score_at(m + 1, z), xa + h * k3)
        xa = xa + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ok = np.isfinite(xa).all(axis=1)
        full = np.where(alive)[0]
        x[full[ok]] = xa[ok]
        x[full[~ok]] = np.nan
        alive[full[~ok]] = False
        states[m + 1] = x

    failed = [int(i) for i in x0.ids[~alive]]
    x1 = PointCloud(points=x, ids=x0.ids.copy())
    return FlowResult(x1=x1, states=states, times=np.arange(m_steps + 1) * h,
                      clamped=clamped, failed_ids=failed)


def straightness_diagnostic(states: np.ndarray, chord_floor: float = 0.0) -> np.ndarray:
    """Max perpendicular deviation from the start-end chord, per unit chord.

    ``states`` is a (M+1, n, d) path array such as ``FlowResult.states``; the
    result has one entry per path. 0 for perfectly straight (or stationary)
    paths. Chords no longer than chord_floor count as stationary: the ratio
    on a path whose whole extent is numerical noise measures nothing but
    that noise.
    """
    if states.ndim != 3 or states.shape[1] == 0:
        raise InvalidShapeError(f"need a (M+1, n, d) path array with n >= 1, "
                                f"got shape {states.shape}")
    out = np.empty(states.shape[1])
    for i in range(states.shape[1]):
        s = states[:, i, :]
        if not np.isfinite(s).all():
            out[i] = np.nan
            continue
        chord = s[-1] - s[0]
        length = np.linalg.norm(chord)
        if length <= chord_floor:
            out[i] = 0.0
            continue
        rel = s - s[0]
        along = rel @ (chord / length)
        perp = rel - along[:, None] * (chord / length)
        out[i] = np.linalg.norm(perp, axis=1).max() / length
    return out


def paths_to_csv(states: np.ndarray, times, ids, path) -> None:
    """Write a (M+1, n, d) path array as rows id,t,x_1..x_d (long format).

    Path i is labelled ``ids[i]``; rows run path by path, time by time.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t"] + [f"x_{j + 1}" for j in range(states.shape[2])])
        for i, pid in enumerate(ids):
            for t, s in zip(times, states[:, i, :]):
                writer.writerow([int(pid), repr(float(t))] + [repr(float(v)) for v in s])
