import numpy as np
import pytest

from ttflow.chebyshev import ChebGrid
from ttflow.densities import diag_gaussian_tt, gen_quartic_mixture, normalize_and_certify
from ttflow.errors import InvalidShapeError, SamplingError
from ttflow.flow import (PointCloud, flow_integrate, paths_to_csv, sample_tt,
                         straightness_diagnostic)
from ttflow.fpe import fpe_solve
from ttflow.gaussian import (AnalyticGaussianFlow, GaussianSpec, encoder_map,
                             finite_time_map)
from ttflow.tt import TTTensor, tt_integrate, tt_scale


def _norm_tt(grid, mean, var):
    t = diag_gaussian_tt(grid, mean, var)
    mass = tt_integrate(t, [grid.quad_weights(k) for k in range(grid.d)])
    return tt_scale(t, 1.0 / mass)


def test_sampler_gaussian_moments():
    grid = ChebGrid.uniform(2, 96, -8.0, 8.0)
    p = _norm_tt(grid, 0.0, 1.0)
    n = 20_000
    cloud = sample_tt(p, grid, n, seed=123)
    assert cloud.n == n and cloud.d == 2
    assert np.array_equal(cloud.ids, np.arange(n))
    assert np.abs(cloud.points.mean(axis=0)).max() < 3 / np.sqrt(n)
    cov = np.cov(cloud.points.T)
    assert np.abs(np.diag(cov) - 1).max() < 0.05
    assert abs(cov[0, 1]) < 0.05


def test_sampler_uniform_ks():
    grid = ChebGrid.uniform(2, 32, -8.0, 8.0)
    p = TTTensor([np.ones((1, 32, 1)), np.ones((1, 32, 1))])
    n = 20_000
    cloud = sample_tt(p, grid, n, seed=7)
    crit = 1.628 / np.sqrt(n)  # 1% level
    for k in range(2):
        u = np.sort((cloud.points[:, k] + 8.0) / 16.0)
        ks = np.abs(u - (np.arange(1, n + 1) - 0.5) / n).max() + 0.5 / n
        assert ks < crit


def test_sampler_determinism_and_errors():
    grid = ChebGrid.uniform(3, 48, -8.0, 8.0)
    p = _norm_tt(grid, [0.5, -0.2, 0.0], [1.0, 2.0, 0.7])
    a = sample_tt(p, grid, 512, seed=99)
    b = sample_tt(p, grid, 512, seed=99)
    assert np.array_equal(a.points, b.points)
    c = sample_tt(p, grid, 512, seed=100)
    assert not np.array_equal(a.points, c.points)
    zero = TTTensor([np.zeros((1, 48, 1))] * 3)
    with pytest.raises(SamplingError):
        sample_tt(zero, grid, 4, seed=0)
    with pytest.raises(InvalidShapeError):
        sample_tt(p, grid, 0, seed=0)


def test_sampler_respects_correlations():
    # rank-2 density with strong x-y coupling: compare conditional means
    grid = ChebGrid.uniform(2, 64, -8.0, 8.0)
    left = _norm_tt(grid, [-2.0, -2.0], 0.4)
    right = _norm_tt(grid, [2.0, 2.0], 0.4)
    from ttflow.tt import tt_add

    p = tt_scale(tt_add(left, right), 0.5)
    cloud = sample_tt(p, grid, 8000, seed=5)
    x, y = cloud.points.T
    # points must live near the two diagonal bumps, not the anti-diagonal
    assert np.corrcoef(x, y)[0, 1] > 0.8
    same_sign = np.mean(np.sign(x) == np.sign(y))
    assert same_sign > 0.95


def test_flow_stationary_fixed_points():
    grid = ChebGrid.uniform(2, 96, -8.0, 8.0)
    p0 = _norm_tt(grid, 0.0, 1.0)
    traj = fpe_solve(p0, grid, m_steps=25, t_max=5.0)
    x0 = sample_tt(p0, grid, 200, seed=1)
    res = flow_integrate(traj, x0)
    assert np.abs(res.x1.points - x0.points).max() < 1e-6
    assert res.failed_ids == []
    assert np.array_equal(res.x1.ids, x0.ids)


def test_flow_mean_only_translation():
    # N(a, I): score is -(x - a e^{-t}), so dx/dt = -a e^{-t} uniformly
    grid = ChebGrid.uniform(2, 96, -8.0, 8.0)
    a0 = np.array([1.0, 0.0])
    p0 = _norm_tt(grid, a0, 1.0)
    traj = fpe_solve(p0, grid, m_steps=200, t_max=5.0)
    x0 = sample_tt(p0, grid, 100, seed=3)
    res = flow_integrate(traj, x0)
    expect = x0.points - a0 * (1 - np.exp(-5.0))
    assert np.abs(res.x1.points - expect).max() < 1e-4


def test_flow_anisotropic_gaussian_map():
    # var 4 needs a wider box: on [-8, 8] its marginal is 3e-4 of peak at the
    # walls, and the absorbing boundary distorts the score felt by tail
    # samples (max error 4e-3 there, median 8e-8, resolution-independent)
    grid = ChebGrid.uniform(2, 128, -12.0, 12.0)
    var = np.array([4.0, 1.0])
    p0 = _norm_tt(grid, 0.0, var)
    traj = fpe_solve(p0, grid, m_steps=400, t_max=5.0)
    x0 = sample_tt(p0, grid, 100, seed=11)
    res = flow_integrate(traj, x0)
    spec = GaussianSpec(np.zeros(2), np.diag(var))
    expect = finite_time_map(spec, x0.points, 5.0)
    assert np.abs(res.x1.points - expect).max() < 1e-4


def test_rk4_order_on_exact_score_provider():
    spec = GaussianSpec(np.array([1.0, -0.5]), np.diag([4.0, 0.5]))
    rng = np.random.default_rng(2)
    x0 = PointCloud(points=rng.uniform(-2, 2, size=(50, 2)))
    expect = finite_time_map(spec, x0.points, 5.0)
    errs = []
    for m_steps in (10, 20, 40):
        provider = AnalyticGaussianFlow(spec, t_max=5.0, n_steps=m_steps)
        res = flow_integrate(provider, x0)
        errs.append(np.abs(res.x1.points - expect).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders[0] >= 3.0
    assert errs[-1] < 1e-4


def test_rk4_snapshot_averaging_is_second_order():
    # without exact stage times the midpoint average limits the scheme to
    # second order; confirm the observed rate sits near 2
    grid = ChebGrid.uniform(2, 96, -8.0, 8.0)
    a0 = np.array([1.0, 0.0])
    p0 = _norm_tt(grid, a0, 1.0)
    spec = GaussianSpec(a0, np.eye(2))
    rng = np.random.default_rng(4)
    x0 = PointCloud(points=rng.uniform(-1.5, 1.5, size=(30, 2)))
    expect = finite_time_map(spec, x0.points, 5.0)
    errs = []
    for m_steps in (25, 50, 100):
        traj = fpe_solve(p0, grid, m_steps=m_steps, t_max=5.0)
        res = flow_integrate(traj, x0)
        errs.append(np.abs(res.x1.points - expect).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.7) and np.all(orders < 2.6)


def test_flow_pushforward_moments():
    grid = ChebGrid.uniform(2, 96, -8.0, 8.0)
    a0 = np.array([0.8, -0.3])
    var = np.array([2.0, 0.5])
    p0 = _norm_tt(grid, a0, var)
    traj = fpe_solve(p0, grid, m_steps=100, t_max=5.0)
    x0 = sample_tt(p0, grid, 4000, seed=21)
    res = flow_integrate(traj, x0)
    pts = res.x1.points
    n = pts.shape[0]
    mean_tol = np.linalg.norm(a0) * np.exp(-5.0) + 3 / np.sqrt(n)
    assert np.abs(pts.mean(axis=0)).max() < mean_tol
    cov = np.cov(pts.T)
    cov_tol = np.exp(-10.0) * np.abs(var - 1).max() + 0.1
    assert np.abs(cov - np.eye(2)).max() < cov_tol


def test_paths_and_straightness():
    # unit eigenvalue freezes its coordinate, so diag(4, 1) paths are
    # exactly straight; bending needs both eigenvalues away from 1
    frozen = AnalyticGaussianFlow(GaussianSpec(np.zeros(2), np.diag([4.0, 1.0])), 5.0, 50)
    x0 = PointCloud(points=np.array([[2.0, 1.5], [0.5, -1.0], [0.0, 0.0]]))
    res = flow_integrate(frozen, x0)
    assert res.states.shape == (51, 3, 2)
    assert np.array_equal(res.states[0], x0.points)
    assert np.array_equal(res.states[-1], res.x1.points)
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(5.0)
    assert np.all(np.diff(res.times) > 0)
    diag = straightness_diagnostic(res.states)
    assert diag.shape == (3,) and diag.max() < 1e-9

    bend = AnalyticGaussianFlow(GaussianSpec(np.zeros(2), np.diag([4.0, 0.25])), 5.0, 50)
    res_bend = flow_integrate(bend, x0)
    diag = straightness_diagnostic(res_bend.states)
    assert diag[0] > 1e-3 and diag[1] > 1e-3
    assert diag[2] == 0.0  # origin is a fixed point
    # isotropic case: purely radial motion, perfectly straight
    iso = AnalyticGaussianFlow(GaussianSpec(np.zeros(2), 2 * np.eye(2)), 5.0, 50)
    res_iso = flow_integrate(iso, x0)
    assert straightness_diagnostic(res_iso.states).max() < 1e-6
    with pytest.raises(InvalidShapeError):
        straightness_diagnostic(res.states[:, :0, :])


def test_translation_paths_are_straight():
    spec = GaussianSpec(np.array([1.0, 0.0]), np.eye(2))
    provider = AnalyticGaussianFlow(spec, t_max=5.0, n_steps=40)
    x0 = PointCloud(points=np.array([[0.3, 0.7], [-1.0, 2.0]]))
    res = flow_integrate(provider, x0)
    assert straightness_diagnostic(res.states).max() < 1e-6


def test_paths_csv(tmp_path):
    spec = GaussianSpec(np.zeros(2), np.eye(2))
    provider = AnalyticGaussianFlow(spec, t_max=1.0, n_steps=4)
    x0 = PointCloud(points=np.array([[0.5, -0.5]]))
    res = flow_integrate(provider, x0)
    out = tmp_path / "paths.csv"
    paths_to_csv(res.states, res.times, x0.ids, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id,t,x_1,x_2"
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    assert int(first[0]) == 0 and float(first[1]) == 0.0
    assert [float(v) for v in first[2:]] == [0.5, -0.5]
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0)
    assert [float(v) for v in last[2:]] == res.x1.points[0].tolist()
    empty = tmp_path / "empty.csv"
    paths_to_csv(np.empty((5, 0, 3)), res.times, [], empty)
    assert empty.read_text().strip() == "id,t,x_1,x_2,x_3"


def test_flow_encoder_limit_against_whitening():
    # long horizon: the flow endpoint approaches the whitening map
    spec = GaussianSpec(np.array([0.5, -0.2]), np.diag([3.0, 0.6]))
    provider = AnalyticGaussianFlow(spec, t_max=30.0, n_steps=600)
    rng = np.random.default_rng(8)
    x0 = PointCloud(points=rng.uniform(-2, 2, size=(40, 2)))
    res = flow_integrate(provider, x0)
    expect = encoder_map(spec, x0.points)
    assert np.abs(res.x1.points - expect).max() < 1e-6
