"""Random test densities and their certified TT grid representations.

Two families: for low dimension, uniform mixtures of quartic-exponential
components exp(-q1(x) - q2(x)) with q1 quadratic and q2 degree-4 (the
elementwise square of the centered coordinates contracted against an SPD
matrix); for higher dimension, a positive random rank-2 TT factor times a
rank-1 standard Gaussian. Every density entering the solver is normalized on
the grid and certified to be negligible on all boundary faces; one that is
not raises ``CertificateError``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .chebyshev import ChebGrid, cheb_nodes, cc_weights
from .cross import cross_approximate
from .errors import CertificateError, InvalidShapeError
from .tt import TTTensor, tt_extrema, tt_integrate, tt_mode_apply, tt_scale

# quadrature resolution used for per-component normalizers; quartic
# exponentials on [-8, 8] are fully resolved well before this
_NORM_N = 72

BOUNDARY_TOL = 1e-12  # largest boundary-face node value over the peak node value


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

    def exponent(self, coords, out: np.ndarray) -> np.ndarray:
        """q1 + q2 at the d per-mode coordinate arrays ``coords``, which
        broadcast together (a point set's columns, or ``np.ix_`` axes), summed
        in place into ``out``; each term Q_kl c_k c_l is one broadcast."""
        c1 = [x - m for x, m in zip(coords, self.a1)]
        c2 = [(x - m) ** 2 for x, m in zip(coords, self.a2)]
        out.fill(0.0)
        for k, l in zip(*np.triu_indices(len(coords))):
            f = 1.0 if k == l else 2.0  # Q_lk joins Q_kl off the diagonal
            out += f * (self.q1[k, l] * c1[k] * c1[l] + self.q2[k, l] * c2[k] * c2[l])
        return out


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
    """Per-component integrals over the box by tensor-product quadrature: exp
    in place on one reused _NORM_N^d grid, then one CC-weight GEMV per mode."""
    axes, w = np.ix_(*[cheb_nodes(_NORM_N, *box)] * spec.d), cc_weights(_NORM_N, *box)
    e = np.empty((_NORM_N,) * spec.d)
    z = []
    for c in spec.components:
        np.exp(np.negative(c.exponent(axes, e), out=e), out=e)
        z.append(functools.reduce(np.matmul, [w] * spec.d, e))
    return np.array(z)


def mixture_callable(spec: MixtureSpec, box=(-8.0, 8.0)) -> Callable:
    """Pointwise evaluator of the normalized uniform mixture."""
    z = _component_normalizers(spec, box)
    if np.any(z <= 0) or not np.isfinite(z).all():
        raise CertificateError(f"degenerate component normalizers {z}")

    def density(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        acc, e = np.zeros(x.shape[0]), np.empty(x.shape[0])
        for c, zi in zip(spec.components, z):
            acc += np.exp(-c.exponent(x.T, e)) / zi
        return acc / spec.k

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
    """Random positive rank-2 TT factor times the standard Gaussian, unnormalized.

    ``normalize_and_certify`` gives it unit mass. Each entry of the rank-2
    factor's cores is a univariate function built from U(0,1) coefficients
    on a fixed basis of positive Gaussian bumps, so the factor is strictly
    positive and smooth. Smoothness matters: cores holding independent
    per-node values interpolate to polynomials whose log-gradients grow like
    the square of the grid size, which makes the transport ODE stiff enough
    to throw sampled points out of the box.
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
    return TTTensor(cores)


class CertifiedDensity(NamedTuple):
    tensor: TTTensor
    rescales: int  # always 0; read only by perfbench's certificate span
    boundary_ratio: float
    cross_info: object


def _face_abs_max(t: TTTensor, mode: int, side: int, rng) -> float:
    """Largest |value| on the boundary face where ``mode`` is pinned to ``side``."""
    pin = np.eye(t.mode_sizes[mode])[[0 if side == 0 else -1]]  # one-hot 1 x n row
    face = tt_mode_apply(t, pin, mode)
    if face.size() <= 2 ** 20:
        return float(np.abs(face.full()).max())
    lo, hi = tt_extrema(face, rng)
    return max(abs(lo), abs(hi))


def normalized_ratio(t: TTTensor, grid: ChebGrid, rng):
    """Unit-mass copy of ``t`` on ``grid`` and its largest boundary-face value
    over its peak: the measurement the boundary certificate judges."""
    mass = tt_integrate(t, [grid.quad_weights(k) for k in range(grid.d)])
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

    ``density`` is either a callable on points of shape (m, d), which becomes
    a TT on this grid through one ``cross_approximate`` call, or an existing
    TTTensor on this grid. Either TT then gets unit mass, and the certificate
    demands every boundary-face node value be at most ``BOUNDARY_TOL`` times
    the peak node value; a density that fails it raises ``CertificateError``.
    ``rescales`` is always 0.
    """
    rng = np.random.default_rng(seed)
    res = None
    if callable(density):
        res = cross_approximate(lambda idx: density(grid.index_to_point(idx)),
                                grid.mode_sizes, tol=cross_tol, rng=rng)
        density = res.tensor
    elif density.mode_sizes != grid.mode_sizes:
        raise InvalidShapeError(
            f"TT mode sizes {density.mode_sizes} do not match grid {grid.mode_sizes}")
    t, ratio = normalized_ratio(density, grid, rng)
    if ratio > BOUNDARY_TOL:
        raise CertificateError(f"density fails the boundary decay certificate "
                               f"(ratio {ratio:.3e} > {BOUNDARY_TOL:.1e})")
    return CertifiedDensity(t, 0, ratio, res)
