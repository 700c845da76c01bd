import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import sqrtm

from analytic_gaussian import AnalyticGaussianFlow
from ttflow.errors import InvalidShapeError
from ttflow.gaussian import (GaussianSpec, encoder_map, eigen_shift,
                             eigen_stretch, finite_time_map, moments_at)


def _random_spec(rng, d):
    a = rng.standard_normal(d)
    m = rng.standard_normal((d, d))
    cov = m @ m.T + 0.3 * np.eye(d)
    return GaussianSpec(a, cov)


def test_spec_validation():
    with pytest.raises(InvalidShapeError):
        GaussianSpec(np.zeros(2), np.zeros((3, 3)))
    with pytest.raises(InvalidShapeError):
        GaussianSpec(np.zeros(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(InvalidShapeError):
        GaussianSpec(np.zeros(2), np.diag([1.0, -0.1]))


def test_moments_solve_the_moment_odes():
    # independent check: a(t), S(t) must satisfy a' = -a, S' = 2(I - S)
    rng = np.random.default_rng(11)
    spec = _random_spec(rng, 3)
    eps = 1e-6
    for t in (0.1, 0.7, 2.3):
        a_m, s_m = moments_at(spec, t - eps)
        a_p, s_p = moments_at(spec, t + eps)
        a, s = moments_at(spec, t)
        assert np.allclose((a_p - a_m) / (2 * eps), -a, atol=1e-7)
        assert np.allclose((s_p - s_m) / (2 * eps), 2 * (np.eye(3) - s), atol=1e-6)
    a0, s0 = moments_at(spec, 0.0)
    assert np.allclose(a0, spec.mean) and np.allclose(s0, spec.cov)
    a_inf, s_inf = moments_at(spec, 60.0)
    assert np.abs(a_inf).max() < 1e-15
    assert np.abs(s_inf - np.eye(3)).max() < 1e-15


def test_stretch_values_and_monotonicity():
    assert abs(eigen_stretch(4.0, 10.0) - 0.5) <= 1e-8
    assert np.allclose(eigen_stretch(np.array([0.3, 1.0, 7.0]), 0.0), 1.0)
    # f(1, t) = 1 for all t; otherwise strictly monotone toward lam**-0.5
    ts = np.linspace(0.0, 8.0, 50)
    for lam in (0.2, 0.9, 1.0, 3.0, 10.0):
        vals = np.array([eigen_stretch(lam, t) for t in ts])
        if lam == 1.0:
            assert np.allclose(vals, 1.0)
        elif lam > 1.0:
            assert np.all(np.diff(vals) < 0)
        else:
            assert np.all(np.diff(vals) > 0)
        assert abs(eigen_stretch(lam, 14.0) - lam ** -0.5) < 1e-10


def test_shift_against_closed_form():
    # the defining integral, by adaptive quadrature, against the closed form
    for lam in (0.25, 0.8, 1.0, 2.0, 9.0, 40.0):
        for t in (0.0, 0.3, 1.0, 5.0, 20.0):
            integral, _ = quad(
                lambda s: np.exp(-s) * (np.exp(-2 * s) * (lam - 1) + 1) ** -1.5,
                0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
            ref = -np.sqrt(lam) * float(eigen_stretch(lam, t)) * integral
            assert abs(eigen_shift(lam, t) - ref) < 1e-10
    assert abs(eigen_shift(9.0, 20.0) + 1.0 / 3.0) <= 1e-8
    for t in (0.2, 1.5, 4.0):
        assert abs(eigen_shift(1.0, t) + (1 - np.exp(-t))) < 1e-12
    # arrays map elementwise and keep their shape
    lams = np.array([[0.5, 2.0], [4.0, 1.0]])
    assert np.array_equal(eigen_shift(lams, 1.5),
                          [[eigen_shift(v, 1.5) for v in row] for row in lams])
    with pytest.raises(InvalidShapeError):
        eigen_shift([1.0, 0.0], 1.0)


def test_map_limits_and_identity_case():
    rng = np.random.default_rng(5)
    spec = _random_spec(rng, 4)
    x = rng.standard_normal((30, 4))
    assert np.allclose(finite_time_map(spec, x, 0.0), x, atol=1e-12)
    far = finite_time_map(spec, x, 45.0)
    assert np.abs(far - encoder_map(spec, x)).max() < 1e-12
    # standard normal initial law: the flow is frozen at the identity
    std = GaussianSpec(np.zeros(3), np.eye(3))
    y = rng.standard_normal((10, 3))
    for t in (0.5, 3.0, 30.0):
        assert np.allclose(finite_time_map(std, y, t), y, atol=1e-14)
    assert np.allclose(encoder_map(std, y), y)


def test_map_pushes_law_onto_evolved_moments():
    # Monte Carlo: the time-t map applied to N(a0, S0) samples must land on
    # the law with moments_at(t) statistics
    rng = np.random.default_rng(77)
    spec = _random_spec(rng, 3)
    n = 60_000
    chol = np.linalg.cholesky(spec.cov)
    x = spec.mean + rng.standard_normal((n, 3)) @ chol.T
    for t in (0.4, 1.5):
        y = finite_time_map(spec, x, t)
        mean_t, cov_t = moments_at(spec, t)
        emp_cov = np.cov(y.T)
        assert np.abs(y.mean(axis=0) - mean_t).max() < 0.05
        assert np.abs(emp_cov - cov_t).max() < 0.08
    z = encoder_map(spec, x)
    assert np.abs(z.mean(axis=0)).max() < 0.03
    assert np.abs(np.cov(z.T) - np.eye(3)).max() < 0.04


def test_encoder_attains_the_ot_cost():
    # the whitening map is the optimal coupling: its mean squared
    # displacement equals the closed-form W2^2 to N(0, I), by the Bures
    # expression |a|^2 + tr S + d - 2 tr S^(1/2) (Monte Carlo, 3 sigma)
    rng = np.random.default_rng(19)
    spec = _random_spec(rng, 4)
    n = 200_000
    chol = np.linalg.cholesky(spec.cov)
    x = spec.mean + rng.standard_normal((n, 4)) @ chol.T
    disp = ((encoder_map(spec, x) - x) ** 2).sum(axis=1)
    se = disp.std() / np.sqrt(n)
    cost = (spec.mean @ spec.mean + np.trace(spec.cov) + spec.d
            - 2 * np.trace(sqrtm(spec.cov)).real)
    assert abs(disp.mean() - cost) < 3 * se + 1e-12


def test_analytic_flow_scores():
    spec = GaussianSpec(np.array([1.0, 0.0]), np.diag([2.0, 0.5]))
    flow = AnalyticGaussianFlow(spec, t_max=5.0, n_steps=10)
    assert flow.h == pytest.approx(0.5)
    x = np.array([[0.3, -1.2], [2.0, 0.4]])
    s0 = flow.score_at(0, x)
    expect = -(x - spec.mean) @ np.linalg.inv(spec.cov)
    assert np.allclose(s0, expect, atol=1e-14)
    # late scores approach the standard normal score -x
    s_late = AnalyticGaussianFlow(spec, t_max=40.0, n_steps=8).score_at(8, x)
    assert np.abs(s_late + x).max() < 1e-12
    mean5, cov5 = moments_at(spec, 5.0)
    assert np.allclose(flow.score_at(10, x), -(x - mean5) @ np.linalg.inv(cov5))
    with pytest.raises(InvalidShapeError):
        flow.score_at(11, x)
