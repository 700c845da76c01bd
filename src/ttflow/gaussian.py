"""Closed-form Gaussian dynamics under the unit-diffusion restoring flow.

For an initial law N(a0, S0) evolving by dp/dt = div(x p) + lap(p), the
moments obey da/dt = -a and dS/dt = 2(I - S), so

    a(t) = exp(-t) a0,        S(t) = I + exp(-2t) (S0 - I).

Along an eigendirection of S0 with eigenvalue lam, the probability-flow map
is affine: x(t) = stretch(lam, t) x(0) + shift(lam, t) a0-component, and the
t -> infinity limit is the whitening map S0^{-1/2} (x - a0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidShapeError, NumericalDomainError


@dataclass(frozen=True)
class GaussianSpec:
    """Initial mean and covariance, validated and eigendecomposed once."""

    mean: np.ndarray
    cov: np.ndarray
    eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    eigvecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        cov = np.asarray(self.cov, dtype=np.float64)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise InvalidShapeError(
                f"mean {mean.shape} and cov {cov.shape} are inconsistent")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise NumericalDomainError("non-finite Gaussian parameters")
        if np.abs(cov - cov.T).max() > 1e-12 * max(np.abs(cov).max(), 1.0):
            raise InvalidShapeError("covariance is not symmetric")
        lam, vec = np.linalg.eigh(0.5 * (cov + cov.T))
        if lam.min() <= 0:
            raise InvalidShapeError(f"covariance not positive definite: {lam.min()}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))
        object.__setattr__(self, "eigvals", lam)
        object.__setattr__(self, "eigvecs", vec)

    @property
    def d(self) -> int:
        return self.mean.size


def moments_at(spec: GaussianSpec, t: float):
    """Mean and covariance of the evolved law at time ``t >= 0``."""
    if t < 0:
        raise InvalidShapeError(f"negative time {t}")
    d = spec.d
    mean = np.exp(-t) * spec.mean
    cov = np.eye(d) + np.exp(-2 * t) * (spec.cov - np.eye(d))
    return mean, cov


def eigen_stretch(lam, t: float):
    """Per-eigendirection linear factor of the flow map at time ``t``."""
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam <= 0):
        raise InvalidShapeError("eigenvalues must be positive")
    return np.sqrt((np.exp(-2 * t) * (lam - 1) + 1) / lam)


def eigen_shift(lam, t: float):
    """Per-eigendirection mean-offset coefficient of the flow map at time ``t``.

    -sqrt(lam) f int_0^t exp(-s) u(s)^{-3/2} ds with u(s) = exp(-2s)(lam-1) + 1
    and f = ``eigen_stretch``; the antiderivative -exp(-s)/sqrt(u(s)) of the
    integrand collapses it to exp(-t) - f.
    """
    return np.exp(-t) - eigen_stretch(lam, t)


def finite_time_map(spec: GaussianSpec, x: np.ndarray, t: float) -> np.ndarray:
    """Probability-flow transport of points ``x`` from time 0 to time ``t``."""
    lam, vec = spec.eigvals, spec.eigvecs
    f = eigen_stretch(lam, t)
    g = eigen_shift(lam, t)
    lin = (vec * f) @ vec.T
    off = (vec * g) @ vec.T @ spec.mean
    x = np.asarray(x, dtype=np.float64)
    return x @ lin.T + off


def encoder_map(spec: GaussianSpec, x: np.ndarray) -> np.ndarray:
    """Infinite-time limit of the flow: whitening x -> S0^{-1/2}(x - a0)."""
    lam, vec = spec.eigvals, spec.eigvecs
    isqrt = (vec / np.sqrt(lam)) @ vec.T
    x = np.asarray(x, dtype=np.float64)
    return (x - spec.mean) @ isqrt.T
