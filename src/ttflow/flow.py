"""Sampling from TT densities and probability-flow transport of the samples.

The sampler draws one coordinate at a time, each from its 1-d conditional by
inverse CDF: the exact antiderivative of the conditional's raw Chebyshev
interpolant, read through the barycentric kernel (``_invert_cdf`` states the
law sampled and the stop rules).

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

from .chebyshev import ChebGrid, cdf_matrices, interp_matrix
from .errors import ConfigError, InvalidShapeError, SamplingError
from .tt import TTTensor

_RESID_TOL = 8 * np.finfo(np.float64).eps  # |F - target| stop, times the total
_BRACKET_TOL = 1e-13  # bracket-width stop, times the box width b - a
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
    at the coordinates already drawn. ``cdf_matrices`` takes its n_k node
    values to the exact CDF F of their raw interpolant f, and to f, at the
    n_k + 1 CGL nodes, and to F at the n_k nodes. ``_invert_cdf`` turns draw
    u into a root of F(x) = u * total, total the largest node CDF; its
    docstring states the law sampled and the stop rules. A total that is not
    positive and finite raises ``SamplingError``. The draws from ``seed`` are
    n uniforms per mode.
    """
    if n < 1:
        raise InvalidShapeError(f"need n >= 1, got {n}")
    if p.mode_sizes != grid.mode_sizes:
        raise InvalidShapeError(
            f"density mode sizes {p.mode_sizes} do not match grid {grid.mode_sizes}")
    d, a, b = grid.d, grid.a, grid.b
    rng = np.random.default_rng(seed)

    # nodal[k] (r, n_k): core k times the quadrature of modes k+1..d-1
    nodal, tail = [None] * d, np.ones(1)
    for k in range(d - 1, -1, -1):
        nodal[k] = p.cores[k] @ tail
        tail = nodal[k] @ grid.quad_weights(k)

    out = np.empty((n, d))
    left = np.ones((n, 1))
    for k in range(d):
        u = rng.random(n)
        to_fine, to_node_cdf = cdf_matrices(grid.ns[k], a, b)
        vals = left @ nodal[k]
        fine, cdf = vals @ to_fine, vals @ to_node_cdf
        total = cdf.max(axis=1)
        if np.any(total <= 0) or not np.isfinite(total).all():
            bad = int(np.where((total <= 0) | ~np.isfinite(total))[0][0])
            raise SamplingError(
                f"conditional density for sample {bad} integrates to "
                f"{total[bad]} at mode {k}; prefix {out[bad, :k]}")
        out[:, k] = _invert_cdf(fine, cdf, u * total, _RESID_TOL * total, grid.nodes(k), a, b)
        interp = grid.interp_rows(k, out[:, k])
        left = np.einsum("nr,nrs->ns", left, np.tensordot(interp, p.cores[k], (1, 1)))
    return PointCloud(points=out)


def _invert_cdf(fine, cdf, target, tol, nodes, a, b) -> np.ndarray:
    """Per row, a root of F(x) = target inside the first node interval whose
    CDF (row of ``cdf``, at the ascending ``nodes`` of [a, b]) reaches it.

    F may dip where the density has a negative lobe, and the first interval
    that reaches the target samples F made non-decreasing by its running
    maximum over the nodes. Row i of ``fine`` holds F and then the density
    at the m CGL nodes of [a, b]; one ``interp_matrix(m, a, b, x)`` block
    reads both at the iterates x. From the secant point, each step moves the
    bracket end on the iterate's side of the target and takes the Newton
    step if it lands strictly inside the bracket and is at most half the
    previous step, else bisects. A row stops once |F - target| <= ``tol``,
    its bracket is narrower than ``_BRACKET_TOL`` (b - a), or its bisection
    point is not strictly inside it: far from 0 one ulp of x can exceed the
    width stop. Every row stops: a Newton step on an unstopped row is at
    least ``tol`` over the largest density, so the halving rule forces a
    bisection within a bounded number of steps, and each bisection shrinks
    the bracket until no double is left strictly inside.
    """
    # node 0 holds F(a) = 0, so the bracket starts at node 1 at the latest
    right = np.maximum((cdf >= target[:, None]).argmax(axis=1), 1)
    rows = np.arange(len(target))
    lo, hi = nodes[right - 1], nodes[right]
    f_lo, f_hi = cdf[rows, right - 1], cdf[rows, right]
    m = fine.shape[1] // 2
    gap = f_hi - f_lo
    frac = np.divide(target - f_lo, gap, out=np.full_like(gap, 0.5), where=gap > 0)
    x = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)
    step = hi - lo
    out = x.copy()
    width_tol = _BRACKET_TOL * (b - a)
    while rows.size:
        w = interp_matrix(m, a, b, x)
        resid = (w * fine[:, :m]).sum(axis=1) - target  # pairwise: rounds below einsum
        dens = (w * fine[:, m:]).sum(axis=1)
        below = resid < 0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        out[rows] = x
        newton = x - np.divide(resid, dens, out=np.full_like(resid, np.inf), where=dens > 0)
        take = (newton > lo) & (newton < hi) & (np.abs(newton - x) <= 0.5 * step)
        mid = 0.5 * (lo + hi)
        nxt = np.where(take, newton, mid)
        step = np.abs(nxt - x)
        keep = (np.abs(resid) > tol) & (hi - lo >= width_tol) & (lo < mid) & (mid < hi)
        rows, fine, target, tol = rows[keep], fine[keep], target[keep], tol[keep]
        x, lo, hi, step = nxt[keep], lo[keep], hi[keep], step[keep]
    return out


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
