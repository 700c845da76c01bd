"""Sampling from TT densities and probability-flow transport of the samples.

The flow ODE is dx/dt = -[x + grad log p_t(x)]. The integrator takes one
classical RK4 step of size 2h per pair of snapshot intervals: step j reads
snapshot 2j for its first stage, snapshot 2j+1 for both midpoint stages and
snapshot 2j+2 for its last. Every snapshot is exact in time (see ``fpe``),
so each stage reads the score at its own time and the scheme keeps RK4's
fourth order, at one score evaluation per stage.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chebyshev import ChebGrid
from .errors import ConfigError, InvalidShapeError, SamplingError
from .tt import TTTensor

_FINE = 2048  # refined 1-d grid for inverse-CDF sampling
_CHUNK = 128  # samples per block; bounds the (block, _FINE) temporaries
_CHORD_FLOOR = 1e-6  # shorter start-end chords are transport noise, not paths


@dataclass(frozen=True)
class PointCloud:
    """n points in R^d; pairing across clouds is by row."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points",
                           np.atleast_2d(np.asarray(self.points, dtype=np.float64)))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


class FlowResult(NamedTuple):
    x1: PointCloud
    states: np.ndarray  # (M/2+1, n, d): row j holds every point at times[j]
    times: np.ndarray
    clamped: int
    failed_ids: list  # rows of x0 whose paths turned non-finite


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

    # nodal[k] (r, n_k): core k times the quadrature of modes k+1..d-1
    nodal, tail = [None] * d, np.ones(1)
    for k in range(d - 1, -1, -1):
        nodal[k] = p.cores[k] @ tail
        tail = nodal[k] @ grid.quad_weights(k)

    fine = np.linspace(grid.a, grid.b, _FINE)
    dx = fine[1] - fine[0]
    out = np.empty((n, d))
    left = np.ones((n, 1))
    for k in range(d):
        u = rng.random(n)
        refine = grid.interp_rows(k, fine)  # (_FINE, n_k)
        for lo in range(0, n, _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, n))
            vals = left[sl] @ nodal[k]
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
        left = np.einsum("nr,nrs->ns", left, np.tensordot(interp, p.cores[k], (1, 1)))
    return PointCloud(points=out)


def flow_integrate(provider, x0: PointCloud) -> FlowResult:
    """Transport x0 along dx/dt = -[x + score(t, x)], one RK4 step of size 2h
    per snapshot pair.

    ``provider`` needs an even ``n_steps``, ``h``, ``score_at(m, x)`` (the
    score at time m h) and a bounding ``box`` (lo, hi), infinite for an
    unbounded provider. Stage states leaving the box are clamped for
    evaluation (counted). States are kept at the even snapshots. Only the flow
    decides which paths count: a path whose state turns non-finite stays NaN
    from then on and is listed by row in ``failed_ids``.
    """
    m_steps, h = provider.n_steps, provider.h
    if m_steps % 2:
        raise ConfigError(f"the flow steps over snapshot pairs and needs an even "
                          f"number of steps, got {m_steps}")
    box = provider.box
    x = x0.points.copy()
    alive = np.ones(x0.n, dtype=bool)
    clamped = 0
    states = np.empty((m_steps // 2 + 1, *x.shape))
    states[0] = x

    def eval_v(m, xs):
        nonlocal clamped
        xc = np.clip(xs, box[0], box[1])
        clamped += int((xc != xs).any(axis=1).sum())
        return -(xc + provider.score_at(m, xc))

    for m in range(0, m_steps, 2):
        xa = x[alive]
        k1 = eval_v(m, xa)
        k2 = eval_v(m + 1, xa + h * k1)
        k3 = eval_v(m + 1, xa + h * k2)
        k4 = eval_v(m + 2, xa + 2 * h * k3)
        x[alive] = xa + (h / 3.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        alive &= np.isfinite(x).all(axis=1)
        x[~alive] = np.nan
        states[m // 2 + 1] = x

    return FlowResult(x1=PointCloud(points=x), states=states,
                      times=np.arange(0, m_steps + 1, 2) * h, clamped=clamped,
                      failed_ids=np.flatnonzero(~alive).tolist())


def straightness_diagnostic(states: np.ndarray) -> np.ndarray:
    """Max perpendicular deviation from the start-end chord, per unit chord.

    ``states`` is a (T, n, d) path array such as ``FlowResult.states``; the
    result has one entry per path, NaN for a path with a non-finite state.
    0 for perfectly straight (or stationary) paths. Chords no longer than
    ``_CHORD_FLOOR`` count as stationary: the ratio on a path whose whole
    extent is numerical noise measures nothing but that noise.
    """
    if states.ndim != 3 or 0 in states.shape[:2]:
        raise InvalidShapeError(f"need a (T, n, d) path array with T, n >= 1, "
                                f"got shape {states.shape}")
    ok = np.isfinite(states).all(axis=(0, 2))
    rel = np.where(ok[:, None], states, 0.0)
    rel = rel - rel[0]
    length = np.linalg.norm(rel[-1], axis=1)
    length[length <= _CHORD_FLOOR] = np.inf  # a stationary path's ratio reads 0
    unit = rel[-1] / length[:, None]
    along = np.einsum("tnd,nd->tn", rel, unit)
    bend = np.linalg.norm(rel - along[..., None] * unit, axis=2).max(axis=0) / length
    return np.where(ok, bend, np.nan)


def paths_to_csv(states: np.ndarray, times, path) -> None:
    """Write a (T, n, d) path array as rows id,t,x_1..x_d (long format).

    Path i is labelled by its row i; rows run path by path, time by time.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t"] + [f"x_{j + 1}" for j in range(states.shape[2])])
        for i in range(states.shape[1]):
            for t, s in zip(times, states[:, i, :]):
                writer.writerow([i, repr(float(t))] + [repr(float(v)) for v in s])
