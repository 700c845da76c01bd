import numpy as np
import pytest

from ttflow.chebyshev import ChebGrid, interp_eval
from ttflow.cross import cross_approximate
from ttflow.densities import diag_gaussian_tt, gen_quartic_mixture, normalize_and_certify
from ttflow.errors import ConfigError, InvalidShapeError
from ttflow.fpe import (DensityTrajectory, convection_step, density_moments,
                        diffusion_halfstep, fpe_solve, rel_l2_distance)
from ttflow.tt import tt_extrema, tt_integrate, tt_scale


def _norm_tt(grid, mean, var):
    t = diag_gaussian_tt(grid, mean, var)
    mass = tt_integrate(t, [grid.quad_weights(k) for k in range(grid.d)])
    return tt_scale(t, 1.0 / mass)


def test_diffusion_identity_and_rank():
    grid = ChebGrid.uniform(2, 48, -8.0, 8.0)
    p = diag_gaussian_tt(grid, 0.0, 1.0)
    assert diffusion_halfstep(p, grid, 0.0) is p
    out = diffusion_halfstep(p, grid, 0.1)
    assert out.ranks == p.ranks


def test_diffusion_matches_heat_kernel():
    # unit-coefficient Laplacian: variance grows by 2*tau
    grid = ChebGrid((128,), -8.0, 8.0)
    p = diag_gaussian_tt(grid, 0.0, 1.0)
    out = diffusion_halfstep(p, grid, 0.2)  # diffusion time 0.1
    ref = diag_gaussian_tt(grid, 0.0, 1.2)
    assert rel_l2_distance(out, ref, grid) < 1e-6


def test_convection_matches_characteristics():
    grid = ChebGrid((128,), -8.0, 8.0)
    sigma2 = 1.5
    p = diag_gaussian_tt(grid, 0.0, sigma2)
    h = 0.3
    out = convection_step(p, grid, h)
    ref = diag_gaussian_tt(grid, 0.0, sigma2 * np.exp(-2 * h))
    assert rel_l2_distance(out, ref, grid) < 1e-10
    assert convection_step(p, grid, 0.0) is p
    # divergence form conserves mass
    w = [grid.quad_weights(0)]
    assert abs(tt_integrate(out, w) - tt_integrate(p, w)) <= 1e-8


def test_convection_agrees_with_cross_realization():
    # the per-mode interpolation route must reproduce what a cross
    # approximation of the scaled-evaluation black box converges to
    grid = ChebGrid.uniform(2, 48, -8.0, 8.0)
    p = _norm_tt(grid, [1.0, -0.5], [2.0, 0.8])
    h = 0.1
    direct = convection_step(p, grid, h)

    scale = np.exp(h)
    gain = np.exp(grid.d * h)

    def f(idx):
        return gain * interp_eval(p, grid, scale * grid.index_to_point(idx),
                                  outside="zero")

    res = cross_approximate(f, grid.mode_sizes, tol=1e-10, max_rank=10,
                            rng=np.random.default_rng(0))
    assert res.converged
    err = rel_l2_distance(res.tensor, direct, grid)
    assert err < 1e-9


def test_stationary_standard_normal():
    grid = ChebGrid.uniform(2, 64, -8.0, 8.0)
    p0 = _norm_tt(grid, 0.0, 1.0)
    traj = fpe_solve(p0, grid, m_steps=25, t_max=5.0)
    ref = traj.snapshots[0]
    for m in range(traj.n_steps + 1):
        assert rel_l2_distance(traj.snapshots[m], ref, grid) < 1e-5


def test_mass_is_conserved_before_renormalization():
    # mass invariant applies to boundary-certified densities
    grid = ChebGrid.uniform(2, 64, -8.0, 8.0)
    _, f = gen_quartic_mixture(2, seed=17)
    certified = normalize_and_certify(f, grid).tensor
    for p0 in (certified, _norm_tt(grid, 0.0, 1.0), _norm_tt(grid, [0.5, 0.0], [1.2, 0.8])):
        traj = fpe_solve(p0, grid, m_steps=40, t_max=5.0)
        drifts = np.abs(np.array(traj.masses[1:]) - 1.0)
        assert drifts.max() <= 1e-6


def test_uncertified_wide_gaussian_mass_loss_is_bounded_and_decays():
    # var 2 centered at (1,0) has wall values ~5e-6 of peak, so the absorbing
    # walls eat ~1e-6 of true near-wall mass on the first step; the loss must
    # stay at that scale and shrink as the density contracts
    grid = ChebGrid.uniform(2, 64, -8.0, 8.0)
    p0 = _norm_tt(grid, [1.0, 0.0], [2.0, 0.5])
    traj = fpe_solve(p0, grid, m_steps=40, t_max=5.0)
    drifts = np.abs(np.array(traj.masses[1:]) - 1.0)
    assert drifts.max() <= 2e-6
    assert drifts.max() == drifts[0]
    assert drifts[5] < 1e-9


def test_mean_relaxation_spec_case():
    # N((1,0), I) at t=1 must be N((1,0)e^{-1}, I)
    grid = ChebGrid.uniform(2, 128, -8.0, 8.0)
    p0 = _norm_tt(grid, [1.0, 0.0], 1.0)
    traj = fpe_solve(p0, grid, m_steps=25, t_max=5.0)
    m = 5  # t = 1
    ref = _norm_tt(grid, [np.exp(-1.0), 0.0], 1.0)
    assert rel_l2_distance(traj.snapshots[m], ref, grid) < 1e-5


def test_gaussian_moment_tracking():
    grid = ChebGrid.uniform(2, 96, -8.0, 8.0)
    a0 = np.array([1.0, -0.5])
    var0 = np.array([2.0, 0.5])
    p0 = _norm_tt(grid, a0, var0)
    traj = fpe_solve(p0, grid, m_steps=20, t_max=5.0)
    for m in (0, 1, 4, 10, 20):
        t = m * traj.h
        mean, cov = density_moments(traj.snapshots[m], grid)
        assert np.abs(mean - a0 * np.exp(-t)).max() < 1e-4
        expect_var = 1 + np.exp(-2 * t) * (var0 - 1)
        assert np.abs(np.diag(cov) - expect_var).max() < 1e-4
        assert abs(cov[0, 1]) < 1e-4


def test_exact_kernel_splitting_has_no_time_step_error():
    # tanh(h)/2 half-steps reproduce the OU kernel, so 8 steps of h = 1/8
    # already match the closed form to spatial accuracy (no O(h^2) term)
    grid = ChebGrid((96,), -8.0, 8.0)
    p0 = _norm_tt(grid, 0.0, 2.0)
    ref = _norm_tt(grid, 0.0, 1 + np.exp(-2.0) * (2.0 - 1))
    exact = fpe_solve(p0, grid, m_steps=8, t_max=1.0)
    assert rel_l2_distance(exact.snapshots[-1], ref, grid) < 1e-7


def test_mixture_solve_positivity_and_relaxation():
    _, f = gen_quartic_mixture(2, seed=17)
    grid = ChebGrid.uniform(2, 64, -8.0, 8.0)
    res = normalize_and_certify(f, grid)
    traj = fpe_solve(res.tensor, grid, m_steps=20, t_max=5.0)
    rng = np.random.default_rng(0)
    for m in (0, 5, 10, 20):
        lo, hi = tt_extrema(traj.snapshots[m], rng)
        assert lo >= -1e-8 * hi
    # relaxation toward N(0,I): monotone decay, endpoint at the e^{-t_max}
    # scale set by the surviving mean offset
    target = _norm_tt(grid, 0.0, 1.0)
    dists = [rel_l2_distance(traj.snapshots[m], target, grid)
             for m in range(traj.n_steps + 1)]
    assert dists[-1] < 1e-2
    assert np.all(np.diff(dists) < 0)


def test_score_of_gaussian_snapshots():
    grid = ChebGrid.uniform(2, 96, -8.0, 8.0)
    p0 = _norm_tt(grid, [1.0, 0.0], 1.0)
    traj = fpe_solve(p0, grid, m_steps=10, t_max=5.0)
    rng = np.random.default_rng(4)
    x = rng.uniform(-2.5, 2.5, size=(40, 2))
    s0 = traj.score_at(0, x)
    assert np.abs(s0 + (x - np.array([1.0, 0.0]))).max() < 1e-4
    s_end = traj.score_at(traj.n_steps, x)
    assert np.abs(s_end + (x - np.array([np.exp(-5.0), 0.0]))).max() < 1e-4


def test_score_matches_log_density_differences():
    _, f = gen_quartic_mixture(2, seed=29)
    grid = ChebGrid.uniform(2, 96, -8.0, 8.0)
    res = normalize_and_certify(f, grid)
    traj = DensityTrajectory(grid=grid, h=1.0, t_max=1.0,
                             snapshots=[res.tensor, res.tensor])
    rng = np.random.default_rng(9)
    x = rng.uniform(-2.0, 2.0, size=(10, 2))
    got = traj.score_at(0, x)
    eps = 1e-5
    for j in range(2):
        shift = np.zeros(2)
        shift[j] = eps
        lp = np.log(interp_eval(res.tensor, grid, x + shift))
        lm = np.log(interp_eval(res.tensor, grid, x - shift))
        fd = (lp - lm) / (2 * eps)
        assert np.abs(got[:, j] - fd).max() < 1e-5


def test_score_floor_counts_hits():
    # pin one grid column of the density to exactly zero; scores queried on
    # that column divide by the floor instead of 0 and are counted
    from ttflow.tt import TTTensor

    grid = ChebGrid.uniform(2, 32, -8.0, 8.0)
    v0 = np.exp(-0.5 * grid.nodes(0) ** 2)
    v0[10] = 0.0
    v1 = np.exp(-0.5 * grid.nodes(1) ** 2)
    p = TTTensor([v0.reshape(1, -1, 1), v1.reshape(1, -1, 1)])
    traj = DensityTrajectory(grid=grid, h=1.0, t_max=1.0, snapshots=[p, p])
    x0 = grid.nodes(0)[10]
    pts = np.array([[x0, grid.nodes(1)[12]], [x0, grid.nodes(1)[20]]])
    out = traj.score_at(0, pts)
    assert np.isfinite(out).all()
    assert traj.floor_hits == 2
    traj.score_at(0, np.array([[0.1, 0.2]]))
    assert traj.floor_hits == 2


def test_trajectory_save_load_roundtrip(tmp_path):
    grid = ChebGrid.uniform(2, 48, -8.0, 8.0)
    p0 = _norm_tt(grid, [0.5, 0.0], [1.5, 0.7])
    traj = fpe_solve(p0, grid, m_steps=4, t_max=1.0)
    out = tmp_path / "traj"
    traj.save(out)
    back = DensityTrajectory.load(out)
    assert back.h == traj.h and back.n_steps == traj.n_steps
    assert back.masses == pytest.approx(traj.masses)
    for a, b in zip(traj.snapshots, back.snapshots):
        assert all(np.array_equal(ca, cb) for ca, cb in zip(a.cores, b.cores))


def test_solver_validation():
    grid = ChebGrid.uniform(2, 32, -8.0, 8.0)
    p0 = _norm_tt(grid, 0.0, 1.0)
    with pytest.raises(ConfigError):
        fpe_solve(p0, grid, m_steps=0, t_max=1.0)
    other = ChebGrid.uniform(2, 16, -8.0, 8.0)
    with pytest.raises(InvalidShapeError):
        fpe_solve(p0, other, m_steps=4, t_max=1.0)
