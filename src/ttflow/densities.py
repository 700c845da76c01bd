"""Random test densities and their certified TT grid representations.

Two families: for low dimension, uniform mixtures of quartic-exponential
components exp(-q1(x) - q2(x)) with q1 quadratic and q2 degree-4 (the
elementwise square of the centered coordinates contracted against an SPD
matrix); for higher dimension, a positive random rank-2 TT factor times a
rank-1 standard Gaussian. Every density entering the solver is normalized on
the grid and certified to be negligible on all boundary faces; a callable
density is shrunk toward the box center until the certificate passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .chebyshev import ChebGrid, cheb_nodes, cc_weights
from .cross import cross_approximate
from .errors import CertificateError, InvalidShapeError
from .tt import TTTensor, tt_extrema, tt_integrate, tt_scale
from .tt import tt_mode_apply  # noqa: F401  perfbench/spans.py traces it by this name

# quadrature resolution used for per-component normalizers; quartic
# exponentials on [-8, 8] are fully resolved well before this
_NORM_N = 72

CROSS_MAX_RANK = 30  # rank cap of the cross approximation
BOUNDARY_TOL = 1e-12  # largest boundary-face node value over the peak node value
_MAX_RESCALES = 10  # shrinks of a callable density before certification fails


@dataclass(frozen=True)
class QuarticComponent:
    """One mixture component exp(-q1 - q2), q1 quadratic, q2 quartic."""

    a1: np.ndarray
    a2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        for name in ("a1", "a2", "q1", "q2"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))
        d = self.a1.size
        if self.a2.shape != (d,) or self.q1.shape != (d, d) or self.q2.shape != (d, d):
            raise InvalidShapeError("inconsistent component parameter shapes")
        for q in (self.q1, self.q2):
            if np.abs(q - q.T).max() > 1e-12 or np.linalg.eigvalsh(q).min() <= 0:
                raise InvalidShapeError("component matrices must be symmetric positive definite")

    def exponent(self, x: np.ndarray) -> np.ndarray:
        """q1(x) + q2(x) for points of shape (m, d)."""
        # one centered block alive at a time keeps the temporaries no larger
        # than a three-operand einsum's
        c = x - self.a1
        q = ((c @ self.q1) * c).sum(axis=1)
        c = (x - self.a2) ** 2
        return q + ((c @ self.q2) * c).sum(axis=1)


@dataclass(frozen=True)
class MixtureSpec:
    """Parameter set of a quartic-exponential mixture."""

    components: tuple

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def d(self) -> int:
        return self.components[0].a1.size


def _component_normalizers(spec: MixtureSpec, box) -> np.ndarray:
    """Per-component integrals over the box by tensor-product quadrature."""
    a, b = box
    nodes = cheb_nodes(_NORM_N, a, b)
    w = cc_weights(_NORM_N, a, b)
    grids = np.meshgrid(*([nodes] * spec.d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.prod(np.stack([g.ravel() for g in
                            np.meshgrid(*([w] * spec.d), indexing="ij")]), axis=0)
    return np.array([wts @ np.exp(-c.exponent(pts)) for c in spec.components])


def mixture_callable(spec: MixtureSpec, box=(-8.0, 8.0)) -> Callable:
    """Pointwise evaluator of the normalized uniform mixture."""
    z = _component_normalizers(spec, box)
    if np.any(z <= 0) or not np.isfinite(z).all():
        raise CertificateError(f"degenerate component normalizers {z}")
    comps = spec.components
    k = spec.k

    def density(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        acc = np.zeros(x.shape[0])
        for c, zi in zip(comps, z):
            acc += np.exp(-c.exponent(x)) / zi
        return acc / k

    return density


def gen_quartic_mixture(d: int, seed: int, box=(-8.0, 8.0)):
    """Draw a random mixture for d in {2, 3}; returns (spec, density callable).

    K ~ Uniform{1..5}; centers uniform on [-2, 2]^d; Q1 = 0.5 A A^T + 0.3 I
    with A entries U(-1, 1); Q2 likewise but scaled by 0.05 so the quartic
    term shapes the tails rather than dominating.
    """
    if d not in (2, 3):
        raise InvalidShapeError(f"quartic mixtures are defined for d in {{2, 3}}, got {d}")
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    comps = []
    for _ in range(k):
        a1 = rng.uniform(-2.0, 2.0, size=d)
        a2 = rng.uniform(-2.0, 2.0, size=d)
        m1 = rng.uniform(-1.0, 1.0, size=(d, d))
        m2 = rng.uniform(-1.0, 1.0, size=(d, d))
        q1 = 0.5 * (m1 @ m1.T) + 0.3 * np.eye(d)
        q2 = 0.05 * (0.5 * (m2 @ m2.T) + 0.3 * np.eye(d))
        comps.append(QuarticComponent(a1, a2, q1, q2))
    spec = MixtureSpec(components=tuple(comps))
    return spec, mixture_callable(spec, box)


def diag_gaussian_tt(grid: ChebGrid, mean, var) -> TTTensor:
    """Rank-1 TT of a diagonal-covariance Gaussian pdf on the grid nodes."""
    d = grid.d
    mean = np.broadcast_to(np.asarray(mean, dtype=np.float64), (d,))
    var = np.broadcast_to(np.asarray(var, dtype=np.float64), (d,))
    if np.any(var <= 0):
        raise InvalidShapeError("variances must be positive")
    cores = []
    for k in range(d):
        x = grid.nodes(k)
        pdf = np.exp(-0.5 * (x - mean[k]) ** 2 / var[k]) / np.sqrt(2 * np.pi * var[k])
        cores.append(pdf.reshape(1, -1, 1))
    return TTTensor(cores)


_BUMPS_PER_MODE = 8


def gen_tt_random(grid: ChebGrid, seed: int) -> TTTensor:
    """Random positive rank-2 TT factor times the standard Gaussian, normalized.

    Each entry of the rank-2 factor's cores is a univariate function built
    from U(0,1) coefficients on a fixed basis of positive Gaussian bumps, so
    the factor is strictly positive and smooth. Smoothness matters: cores
    holding independent per-node values interpolate to polynomials whose
    log-gradients grow like the square of the grid size, which makes the
    transport ODE stiff enough to throw sampled points out of the box.
    """
    d = grid.d
    if d < 2:
        raise InvalidShapeError("need d >= 2")
    rng = np.random.default_rng(seed)
    cores = []
    for k in range(d):
        rl = 1 if k == 0 else 2
        rr = 1 if k == d - 1 else 2
        x = grid.nodes(k)
        a, b = x[0], x[-1]
        centers = np.linspace(a, b, _BUMPS_PER_MODE)
        width = (b - a) / (_BUMPS_PER_MODE - 1)
        basis = np.exp(-0.5 * ((x[:, None] - centers[None, :]) / width) ** 2)
        coef = rng.uniform(0.0, 1.0, size=(rl, rr, _BUMPS_PER_MODE))
        q_slice = np.einsum("nj,rsj->rns", basis, coef)
        pdf = np.exp(-0.5 * x ** 2) / np.sqrt(2 * np.pi)
        cores.append(q_slice * pdf.reshape(1, -1, 1))
    t = TTTensor(cores)
    mass = tt_integrate(t, [grid.quad_weights(k) for k in range(d)])
    return tt_scale(t, 1.0 / mass)


class CertifiedDensity(NamedTuple):
    tensor: TTTensor
    rescales: int
    boundary_ratio: float
    cross_info: object


def _face_abs_max(t: TTTensor, mode: int, side: int, rng) -> float:
    """Largest |value| on the boundary face where ``mode`` is pinned to ``side``."""
    idx = 0 if side == 0 else t.mode_sizes[mode] - 1
    mat = t.cores[mode][:, idx, :]
    cores = [c for j, c in enumerate(t.cores) if j != mode]
    if not cores:
        return abs(float(mat[0, 0]))
    if mode < t.d - 1:
        cores[mode] = np.einsum("ab,bnc->anc", mat, cores[mode])
    else:
        cores[-1] = np.einsum("anb,bc->anc", cores[-1], mat)
    face = TTTensor(cores)
    if face.size() <= 2 ** 20:
        full = face.full()
        return float(np.abs(full).max())
    lo, hi = tt_extrema(face, rng)
    return max(abs(lo), abs(hi))


def _normalized_ratio(t: TTTensor, weights, rng):
    """Unit-mass copy of ``t`` and its largest boundary-face value over its peak."""
    mass = tt_integrate(t, weights)
    if not np.isfinite(mass) or mass <= 0:
        raise CertificateError(f"density mass {mass} is not positive")
    t = tt_scale(t, 1.0 / mass)
    _, peak = tt_extrema(t, rng)
    if peak <= 0:
        raise CertificateError("density peak is not positive")
    worst = max(_face_abs_max(t, mode, side, rng)
                for mode in range(t.d) for side in (0, 1))
    return t, worst / peak


def normalize_and_certify(density, grid: ChebGrid, *, cross_tol: float = 1e-8,
                          seed: int = 0) -> CertifiedDensity:
    """Grid TT representation with unit integral and certified boundary decay.

    ``density`` is either a callable on points of shape (m, d) or an existing
    TTTensor on this grid. The certificate demands every boundary-face node
    value be at most ``BOUNDARY_TOL`` times the peak node value. A callable
    that fails it is shrunk by 0.8 about the box center and retried, up to
    ``_MAX_RESCALES`` times; a TT input has no values beyond the box to shrink
    from, so failing the certificate raises at once.
    """
    rng = np.random.default_rng(seed)
    weights = [grid.quad_weights(k) for k in range(grid.d)]
    if not callable(density):
        if density.mode_sizes != grid.mode_sizes:
            raise InvalidShapeError(
                f"TT mode sizes {density.mode_sizes} do not match grid {grid.mode_sizes}")
        t, ratio = _normalized_ratio(density, weights, rng)
        if ratio > BOUNDARY_TOL:
            raise CertificateError(
                f"TT input fails the boundary decay certificate "
                f"(ratio {ratio:.3e} > {BOUNDARY_TOL:.1e})")
        return CertifiedDensity(t, 0, ratio, None)

    scale = 1.0

    def f(idx):
        return density(grid.index_to_point(idx) / scale)

    for attempt in range(_MAX_RESCALES + 1):
        res = cross_approximate(f, grid.mode_sizes, tol=cross_tol,
                                max_rank=CROSS_MAX_RANK, rng=rng)
        t, ratio = _normalized_ratio(res.tensor, weights, rng)
        if ratio <= BOUNDARY_TOL:
            return CertifiedDensity(t, attempt, ratio, res)
        scale *= 0.8
    raise CertificateError(
        f"boundary decay certificate unmet after {_MAX_RESCALES} rescales "
        f"(last ratio {ratio:.3e} > {BOUNDARY_TOL:.1e})")
