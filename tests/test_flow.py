import numpy as np
import pytest

from analytic_gaussian import AnalyticGaussianFlow
from ttflow import flow, fpe
from ttflow.chebyshev import ChebGrid
from ttflow.densities import (diag_gaussian_tt, gen_quartic_mixture, gen_tt_random,
                              normalize_and_certify)
from ttflow.errors import ConfigError, InvalidShapeError, SamplingError
from ttflow.flow import (PointCloud, flow_integrate, paths_to_csv, sample_tt,
                         straightness_diagnostic)
from ttflow.fpe import fpe_solve
from ttflow.gaussian import GaussianSpec, encoder_map, finite_time_map
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


def _trapezoid_sampler(p, grid, n, seed, fine_n=2 ** 16):
    # inverse CDF of the clamped interpolant's trapezoid rule on a fine uniform
    # grid, each conditional and leading contraction written as one einsum
    d, rng = grid.d, np.random.default_rng(seed)
    suffix = [np.ones(1)] * (d + 1)
    for k in range(d - 1, -1, -1):
        suffix[k] = np.einsum("j,rjs,s->r", grid.quad_weights(k), p.cores[k], suffix[k + 1])
    fine = np.linspace(grid.a, grid.b, fine_n)
    dx = fine[1] - fine[0]
    out, left = np.empty((n, d)), np.ones((n, 1))
    for k in range(d):
        u = rng.random(n)
        refine = grid.interp_rows(k, fine)
        for lo in range(0, n, 16):  # bounds the (16, fine_n) temporaries
            sl = slice(lo, min(lo + 16, n))
            vals = np.einsum("nr,rjs,s->nj", left[sl], p.cores[k], suffix[k + 1])
            dens = np.maximum(vals @ refine.T, 0.0)
            cdf = np.concatenate([np.zeros((dens.shape[0], 1)), np.cumsum(
                0.5 * (dens[:, 1:] + dens[:, :-1]) * dx, axis=1)], axis=1)
            target = u[sl] * cdf[:, -1]
            j = np.clip(np.sum(cdf <= target[:, None], axis=1) - 1, 0, fine_n - 2)
            rows = np.arange(dens.shape[0])
            gap = cdf[rows, j + 1] - cdf[rows, j]
            frac = np.where(gap > 0, (target - cdf[rows, j]) / np.maximum(gap, 1e-300), 0.5)
            out[sl, k] = fine[j] + np.clip(frac, 0.0, 1.0) * dx
        interp = grid.interp_rows(k, out[:, k])
        left = np.einsum("nr,rjs,nj->ns", left, p.cores[k], interp)
    return out


def _mixture_and_ttrandom(sizes):
    """Quartic mixtures (d2, d3; seed 3) and a d7 tt-random density (seed 2)
    on grids of ``sizes`` nodes per mode."""
    cases = []
    for d, n_grid in zip((2, 3), sizes):
        grid = ChebGrid.uniform(d, n_grid, -8.0, 8.0)
        cases.append((normalize_and_certify(gen_quartic_mixture(d, seed=3)[1], grid).tensor,
                      grid))
        assert max(cases[-1][0].ranks) > 1
    grid = ChebGrid.uniform(7, sizes[2], -8.0, 8.0)
    cases.append((normalize_and_certify(gen_tt_random(grid, seed=2), grid).tensor, grid))
    return cases


def test_sampler_matches_a_fine_trapezoid_reference():
    # on grids that resolve the density the interpolant is non-negative up to
    # rounding, so its exact CDF and a 2^16-point trapezoid sample one law.
    # Measured: 3.4e-8 (d2/96), 1.9e-7 (d3/100), 3.2e-7 (d7/50); a 2,048-point
    # trapezoid sampler reads 3.6e-5, 6.2e-5 and 4.0e-5 on the same cases
    for p, grid in _mixture_and_ttrandom((96, 100, 50)):
        got = sample_tt(p, grid, 200, seed=6).points
        assert np.abs(got - _trapezoid_sampler(p, grid, 200, 6)).max() <= 2e-6, grid.d


def _node_cdf(p, grid, prefix, k):
    """Per row of the drawn coordinates ``prefix`` (m, k): the Chebyshev series
    of mode k's conditional CDF (numpy's ``chebint``, columns by row) and its
    values at the mode's nodes (m, n_k)."""
    suffix = np.ones(1)
    for j in range(grid.d - 1, k, -1):
        suffix = np.einsum("j,rjs,s->r", grid.quad_weights(j), p.cores[j], suffix)
    left = np.ones((len(prefix), 1))
    for j in range(k):
        left = np.einsum("nr,rjs,nj->ns", left, p.cores[j], grid.interp_rows(j, prefix[:, j]))
    vals = np.einsum("nr,rjs,s->nj", left, p.cores[k], suffix)
    a, b = grid.a, grid.b
    s = (2.0 * grid.nodes(k) - (a + b)) / (b - a)
    cheb = np.polynomial.chebyshev
    series = cheb.chebint(cheb.chebfit(s, vals.T, len(s) - 1), lbnd=-1, scl=(b - a) / 2)
    return series, cheb.chebval(s, series)


def test_sampler_takes_the_first_node_interval_reaching_the_target():
    # under-resolved grids: the raw interpolants have negative lobes (their
    # node CDFs dip by 5e-4 to 0.9 of the total), and a sample is a root of
    # F = u * total in the first node interval whose CDF reaches u * total,
    # where total is the largest node CDF
    for p, grid in _mixture_and_ttrandom((40, 24, 16)):
        a, b = grid.a, grid.b
        x = sample_tt(p, grid, 200, seed=6).points
        assert np.array_equal(x, sample_tt(p, grid, 200, seed=6).points)
        assert ((a <= x) & (x <= b)).all()
        rng, dip = np.random.default_rng(6), 0.0
        for k in range(grid.d):
            series, cdf = _node_cdf(p, grid, x[:, :k], k)
            total = cdf.max(axis=1)
            dip = max(dip, ((np.maximum.accumulate(cdf, axis=1) - cdf).max(axis=1) / total).max())
            target = rng.random(len(x)) * total
            hi = np.maximum((cdf >= target[:, None]).argmax(axis=1), 1)
            nodes, slack = grid.nodes(k), 1e-12 * (b - a)
            assert (nodes[hi - 1] - slack <= x[:, k]).all() and (x[:, k] <= nodes[hi] + slack).all()
            at_x = np.polynomial.chebyshev.chebval((2.0 * x[:, k] - (a + b)) / (b - a), series,
                                                   tensor=False)
            assert (np.abs(at_x - target) <= 1e-13 * total).all(), (grid.d, k)
        assert dip > 1e-4, grid.d


def test_sampler_stops_on_an_offset_narrow_box():
    # on [1000, 1001] one ulp of x (1.1e-13) exceeds the 1e-13 (b - a) width
    # stop, while F moves by about 4e-13 of the total per ulp near the mode:
    # a row must stop once no double lies strictly inside its bracket
    grid = ChebGrid.uniform(2, 48, 1000.0, 1001.0)
    p = _norm_tt(grid, 1000.5, 0.01)
    x = sample_tt(p, grid, 300, seed=3).points
    rng = np.random.default_rng(3)
    for k in range(2):
        series, cdf = _node_cdf(p, grid, x[:, :k], k)
        total = cdf.max(axis=1)
        target = rng.random(len(x)) * total
        hi = np.maximum((cdf >= target[:, None]).argmax(axis=1), 1)
        nodes = grid.nodes(k)
        assert (nodes[hi - 1] <= x[:, k]).all() and (x[:, k] <= nodes[hi]).all()
        at_x = np.polynomial.chebyshev.chebval(2.0 * x[:, k] - 2001.0, series, tensor=False)
        assert (np.abs(at_x - target) <= 1e-11 * total).all(), k


def test_cdf_inversion_bisects_where_newton_cannot_step():
    # F = (s + 1)(2 s + 6) rises from 0 to 16 over [-8, 8] (x = 8 s); read at
    # the 5 CGL nodes with a zero density block, no Newton step is defined,
    # and bisection alone must stop every row at the root
    a, b = -8.0, 8.0
    s = np.cos(np.pi * np.arange(5) / 4)[::-1]
    fine = np.zeros((5, 10))
    fine[:, :5] = (s + 1) * (2 * s + 6)
    target = np.array([0.0, 1e-9, 3.0, 7.77, 16.0])
    x = flow._invert_cdf(fine, np.tile([0.0, 16.0], (5, 1)), target,
                         np.full(5, 8 * np.finfo(float).eps * 16.0), np.array([a, b]), a, b)
    root = 8.0 * (np.sqrt(16.0 + 8.0 * target) - 8.0) / 4.0
    assert np.abs(x - root).max() <= 1e-13 * (b - a)


def test_sampler_reads_each_cdf_at_one_more_node_than_its_mode(monkeypatch):
    # every Newton iterate reads F and the density through the barycentric
    # kernel on the n_k + 1 CGL nodes of its mode, the degree of F plus one
    grid = ChebGrid((24, 31), -8.0, 8.0)
    p = _norm_tt(grid, [0.5, 0.0], [1.5, 0.8])
    sizes = []
    real = flow.interp_matrix

    def counting(n, a, b, pts):
        sizes.append(n)
        return real(n, a, b, pts)

    monkeypatch.setattr(flow, "interp_matrix", counting)
    sample_tt(p, grid, 50, seed=4)
    assert set(sizes) == {25, 32} and sizes[0] == 25 and sizes[-1] == 32


def test_flow_requires_provider_box():
    # the clamping box is read by name; a provider without one is an error,
    # not a silently unclamped flow
    class NoBox:
        n_steps, h = 2, 0.1

        def score_at(self, m, x):
            return -x

    with pytest.raises(AttributeError):
        flow_integrate(NoBox(), PointCloud(points=np.zeros((3, 2))))


def test_flow_stationary_fixed_points():
    grid = ChebGrid.uniform(2, 96, -8.0, 8.0)
    p0 = _norm_tt(grid, 0.0, 1.0)
    traj = fpe_solve(p0, grid, m_steps=24, t_max=5.0)
    x0 = sample_tt(p0, grid, 200, seed=1)
    res = flow_integrate(traj, x0)
    assert np.abs(res.x1.points - x0.points).max() < 1e-6
    assert res.failed_ids == []


def test_flow_reports_a_failed_path_by_row():
    # N(0, I) is stationary (score -x), except that one point's score turns
    # NaN from snapshot 4 on
    bad_row, bad_x = 3, np.array([2.5, -1.5])

    class Stationary:
        n_steps, h, box = 8, 0.1, (-8.0, 8.0)

        def score_at(self, m, x):
            s = -x
            if m >= 4:
                s[np.all(x == bad_x, axis=1)] = np.nan
            return s

    pts = np.random.default_rng(2).standard_normal((6, 2))
    pts[bad_row] = bad_x
    res = flow_integrate(Stationary(), PointCloud(points=pts))
    assert res.failed_ids == [bad_row]
    # step j reads snapshots 2j..2j+2 and writes state j+1, so step 1 is the
    # first to read snapshot 4 and state 2 the first to hold NaN
    assert np.array_equal(res.states[:2, bad_row], [bad_x, bad_x])
    assert np.isnan(res.states[2:, bad_row]).all()
    assert np.isnan(res.x1.points[bad_row]).all()
    others = np.arange(6) != bad_row
    assert np.isfinite(res.states[:, others]).all()
    assert np.array_equal(res.x1.points[others], pts[others])


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
    for m_steps in (20, 40, 80):  # RK4 steps of 2h: 0.5, 0.25, 0.125
        provider = AnalyticGaussianFlow(spec, t_max=5.0, n_steps=m_steps)
        res = flow_integrate(provider, x0)
        errs.append(np.abs(res.x1.points - expect).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders[0] >= 3.0
    assert errs[-1] < 1e-4


def test_stride2_rk4_time_order_on_fpe_snapshots():
    # the midpoint stages read the odd snapshot, which is exact in time, so
    # the flow keeps RK4's order on solved snapshots; +-12 walls keep the
    # spatial error (wall truncation) below the time error at every M
    grid = ChebGrid.uniform(2, 96, -12.0, 12.0)
    a0, var = np.array([1.0, 0.0]), np.array([2.0, 0.5])
    p0 = _norm_tt(grid, a0, var)
    spec = GaussianSpec(a0, np.diag(var))
    rng = np.random.default_rng(4)
    x0 = PointCloud(points=rng.uniform(-1.5, 1.5, size=(30, 2)))
    expect = finite_time_map(spec, x0.points, 5.0)
    errs = []
    for m_steps in (32, 64, 128):
        traj = fpe_solve(p0, grid, m_steps=m_steps, t_max=5.0)
        res = flow_integrate(traj, x0)
        errs.append(np.abs(res.x1.points - expect).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 3.4), (errs, orders)


def test_flow_builds_each_snapshot_once(monkeypatch):
    grid = ChebGrid.uniform(2, 24, -8.0, 8.0)
    p0 = _norm_tt(grid, [0.5, 0.0], [1.5, 0.8])
    traj = fpe_solve(p0, grid, m_steps=10, t_max=2.0)
    built = []
    real = fpe.value_grad_cores

    def counting(tt, grid):
        built.append(next(m for m, p in enumerate(traj.snapshots) if p is tt))
        return real(tt, grid)

    monkeypatch.setattr(fpe, "value_grad_cores", counting)
    flow_integrate(traj, sample_tt(p0, grid, 20, seed=2))
    assert built == list(range(11))


def test_flow_rejects_odd_step_count():
    spec = GaussianSpec(np.zeros(2), np.eye(2))
    x0 = PointCloud(points=np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        flow_integrate(AnalyticGaussianFlow(spec, t_max=1.0, n_steps=5), x0)


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
    assert res.states.shape == (26, 3, 2)  # the even snapshots of 50
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
    # a path with a non-finite state reads NaN and leaves the others as they were
    failed = res_bend.states.copy()
    failed[-1, 0, 1], failed[3, 2, 0] = np.nan, np.inf
    got = straightness_diagnostic(failed)
    assert np.isnan(got[[0, 2]]).all() and got[1] == diag[1]
    for empty in (res.states[:, :0, :], res.states[:0], res.states[0]):
        with pytest.raises(InvalidShapeError):
            straightness_diagnostic(empty)


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
    paths_to_csv(res.states, res.times, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id,t,x_1,x_2"
    assert len(lines) == 1 + 3  # t = 0, 0.5, 1
    first = lines[1].split(",")
    assert int(first[0]) == 0 and float(first[1]) == 0.0
    assert [float(v) for v in first[2:]] == [0.5, -0.5]
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0)
    assert [float(v) for v in last[2:]] == res.x1.points[0].tolist()
    empty = tmp_path / "empty.csv"
    paths_to_csv(np.empty((3, 0, 3)), res.times, empty)
    assert empty.read_text().strip() == "id,t,x_1,x_2,x_3"


def test_flow_encoder_limit_against_whitening():
    # long horizon: the flow endpoint approaches the whitening map
    spec = GaussianSpec(np.array([0.5, -0.2]), np.diag([3.0, 0.6]))
    provider = AnalyticGaussianFlow(spec, t_max=30.0, n_steps=1200)
    rng = np.random.default_rng(8)
    x0 = PointCloud(points=rng.uniform(-2, 2, size=(40, 2)))
    res = flow_integrate(provider, x0)
    expect = encoder_map(spec, x0.points)
    assert np.abs(res.x1.points - expect).max() < 1e-6
