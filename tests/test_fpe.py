import numpy as np
import pytest
from scipy.fft import dct
from test_chebyshev import _explicit_value_and_grad

from ttflow import chebyshev, fpe
from ttflow.chebyshev import CHOP_TOL, ChebGrid, interp_matrix, interp_value_and_grad
from ttflow.cross import cross_approximate
from ttflow.densities import (diag_gaussian_tt, gen_quartic_mixture, gen_tt_random,
                              normalize_and_certify)
from ttflow.errors import ConfigError, InvalidShapeError
from ttflow.flow import flow_integrate, sample_tt
from ttflow.fpe import (SCORE_FLOOR, DensityTrajectory, _dilation_rows,
                        _heat_propagator, _step_matrix,
                        density_moments, fpe_solve, rel_l2_distance)
from ttflow.tt import tt_extrema, tt_from_dense, tt_integrate, tt_mode_apply, tt_scale


def _norm_tt(grid, mean, var):
    t = diag_gaussian_tt(grid, mean, var)
    mass = tt_integrate(t, [grid.quad_weights(k) for k in range(grid.d)])
    return tt_scale(t, 1.0 / mass)


def _per_mode(p, grid, factor, *args):
    """Apply ``factor(n_k, a, b, *args)`` along every mode of p."""
    for k in range(grid.d):
        p = tt_mode_apply(p, factor(grid.ns[k], grid.a, grid.b, *args), k)
    return p


def _dilate(p, grid, h):
    """Exact characteristics of dp/dt = div(x p): p_new(x) = e^{dh} p(e^h x)."""
    return tt_scale(_per_mode(p, grid, _dilation_rows, h), np.exp(grid.d * h))


def test_diffusion_keeps_ranks():
    grid = ChebGrid.uniform(2, 48, -8.0, 8.0)
    p = diag_gaussian_tt(grid, 0.0, 1.0)
    out = _per_mode(p, grid, _heat_propagator, 0.05)
    assert out.ranks == p.ranks


def test_diffusion_matches_heat_kernel():
    # unit-coefficient Laplacian: variance grows by 2*tau
    grid = ChebGrid((128,), -8.0, 8.0)
    p = diag_gaussian_tt(grid, 0.0, 1.0)
    out = _per_mode(p, grid, _heat_propagator, 0.1)
    ref = diag_gaussian_tt(grid, 0.0, 1.2)
    assert rel_l2_distance(out, ref, grid) < 1e-6


def test_convection_matches_characteristics():
    grid = ChebGrid((128,), -8.0, 8.0)
    sigma2 = 1.5
    p = diag_gaussian_tt(grid, 0.0, sigma2)
    h = 0.3
    out = _dilate(p, grid, h)
    ref = diag_gaussian_tt(grid, 0.0, sigma2 * np.exp(-2 * h))
    # the interpolation error here is 1.13e-10 (dense quadrature)
    assert rel_l2_distance(out, ref, grid) < 2e-10
    # the dilation rows are exactly the rows interpolated at the scaled nodes,
    # and all zero at the nodes pushed past a wall
    pts = np.exp(h) * grid.nodes(0)
    inside = (pts >= -8.0) & (pts <= 8.0)
    assert not inside.all()
    got = _dilation_rows(128, -8.0, 8.0, h)
    assert np.array_equal(got[inside], interp_matrix(128, -8.0, 8.0, pts[inside]))
    assert np.all(got[~inside] == 0.0)
    # divergence form conserves mass
    w = [grid.quad_weights(0)]
    assert abs(tt_integrate(out, w) - tt_integrate(p, w)) <= 1e-8


def test_convection_agrees_with_cross_realization():
    # the per-mode interpolation route must reproduce what a cross
    # approximation of the scaled-evaluation black box converges to
    grid = ChebGrid.uniform(2, 48, -8.0, 8.0)
    p = _norm_tt(grid, [1.0, -0.5], [2.0, 0.8])
    h = 0.1
    direct = _dilate(p, grid, h)

    scale = np.exp(h)
    gain = np.exp(grid.d * h)

    def f(idx):
        # the interpolant at the scaled nodes, 0 beyond the box
        x = scale * grid.index_to_point(idx)
        v = np.ones((x.shape[0], 1))
        for k, core in enumerate(p.cores):
            inside = (x[:, k] >= grid.a) & (x[:, k] <= grid.b)
            w = np.zeros((x.shape[0], grid.ns[k]))
            w[inside] = interp_matrix(grid.ns[k], grid.a, grid.b, x[inside, k])
            v = np.einsum("pr,pj,rjs->ps", v, w, core)
        return gain * v[:, 0]

    res = cross_approximate(f, grid.mode_sizes, tol=1e-10,
                            rng=np.random.default_rng(0))
    assert res.converged
    err = rel_l2_distance(res.tensor, direct, grid)
    assert err < 1e-9


def test_step_matrix_is_the_cached_heat_dilate_heat_composition():
    n, a, b, h = 40, -8.0, 8.0, 0.2
    step = _step_matrix(n, a, b, h)
    heat = _heat_propagator(n, a, b, np.tanh(h) / 2.0)
    assert np.array_equal(step, np.exp(h) * (heat @ _dilation_rows(n, a, b, h) @ heat))
    assert not step.flags.writeable
    assert _step_matrix(n, a, b, h) is step


def test_solve_applies_one_matrix_per_mode_per_step(monkeypatch):
    import ttflow.fpe as fpe

    calls = []

    def counting(t, m, k):
        calls.append(k)
        return tt_mode_apply(t, m, k)

    monkeypatch.setattr(fpe, "tt_mode_apply", counting)
    grid = ChebGrid.uniform(3, 16, -8.0, 8.0)
    fpe_solve(_norm_tt(grid, 0.0, 1.0), grid, m_steps=5, t_max=1.0)
    assert calls == [0, 1, 2] * 5


def test_snapshot_ranks_never_grow():
    # exact per-mode steps keep ranks and rounding never raises one, so no
    # snapshot outranks its predecessor
    seed = next(s for s in range(100) if gen_quartic_mixture(2, s)[0].k == 5)
    _, f = gen_quartic_mixture(2, seed)
    grid = ChebGrid.uniform(2, 48, -8.0, 8.0)
    traj = fpe_solve(normalize_and_certify(f, grid).tensor, grid, m_steps=12,
                     t_max=5.0)
    assert max(traj.ranks[0]) > 1
    for prev, cur in zip(traj.ranks, traj.ranks[1:]):
        assert all(c <= q for c, q in zip(cur, prev))


def test_rel_l2_distance_resolves_tiny_differences():
    # pp - 2pq + qq would floor near 1e-8; the rounded difference does not
    grid = ChebGrid.uniform(2, 64, -8.0, 8.0)
    p = _norm_tt(grid, [0.5, -0.3], [1.2, 0.8])
    for e in (1e-6, 1e-9, 1e-12):
        assert abs(rel_l2_distance(tt_scale(p, 1 + e), p, grid) - e) <= 1e-3 * e


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


def test_moments_of_a_correlated_gaussian():
    # a full-rank TT of a correlated law: the off-diagonal moment mixes modes
    grid = ChebGrid.uniform(2, 64, -10.0, 10.0)
    mean = np.array([0.5, -0.3])
    cov = np.array([[1.0, 0.6], [0.6, 1.5]])
    x = np.stack(np.meshgrid(grid.nodes(0), grid.nodes(1), indexing="ij"), axis=-1) - mean
    dense = np.exp(-0.5 * np.einsum("...i,ij,...j->...", x, np.linalg.inv(cov), x))
    got_mean, got_cov = density_moments(tt_from_dense(dense), grid)
    assert np.abs(got_mean - mean).max() < 1e-10
    assert np.abs(got_cov - cov).max() < 1e-10


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
    traj = DensityTrajectory(grid=grid, h=1.0, snapshots=[res.tensor, res.tensor])
    rng = np.random.default_rng(9)
    x = rng.uniform(-2.0, 2.0, size=(10, 2))
    got = traj.score_at(0, x)
    eps = 1e-5
    for j in range(2):
        shift = np.zeros(2)
        shift[j] = eps
        lp = np.log(interp_value_and_grad(res.tensor, grid, x + shift)[0])
        lm = np.log(interp_value_and_grad(res.tensor, grid, x - shift)[0])
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
    big = tt_scale(p, 4.0)
    traj = DensityTrajectory(grid=grid, h=1.0, snapshots=[p, big])
    x0 = grid.nodes(0)[10]
    pts = np.array([[x0, grid.nodes(1)[12]], [x0, grid.nodes(1)[20]]])
    out = traj.score_at(0, pts)
    assert np.isfinite(out).all()
    assert traj.floor_hits == 2
    traj.score_at(0, np.array([[0.1, 0.2]]))
    assert traj.floor_hits == 2
    # the 4x snapshot is floored at p0's value too, so its score on the zero
    # column is 4x snapshot 0's there, not equal to it. Mode 1 is even, so
    # its top Chebyshev coefficient is exactly zero and the chop cuts it to
    # 31 terms. Mode 0 keeps all 32 on its node values, so the zeroed node
    # reads exactly 0
    out_big = traj.score_at(1, pts)
    assert traj.floor_hits == 4
    assert traj._cached[0] == 1 and traj.score_nodes[1] == (32, 31)
    vals, grads = interp_value_and_grad(big, grid, pts)
    assert np.all(vals == 0.0) and np.abs(grads[:, 0]).min() > 0
    np.testing.assert_allclose(out_big, grads / traj.floor, rtol=1e-14)
    np.testing.assert_allclose(out_big, 4.0 * out, rtol=1e-14)


def test_score_floor_peak_is_searched_once_per_trajectory(monkeypatch):
    calls = []

    def counting(t, rng):
        calls.append(tt_extrema(t, rng))
        return calls[-1]

    monkeypatch.setattr(fpe, "tt_extrema", counting)
    grid = ChebGrid.uniform(2, 48, -8.0, 8.0)
    p0 = _norm_tt(grid, [0.5, -0.3], 1.2)
    traj = fpe_solve(p0, grid, m_steps=8, t_max=2.0)
    res = flow_integrate(traj, sample_tt(p0, grid, 20, seed=3))
    assert res.failed_ids == []
    assert len(calls) == 1
    assert traj.floor == SCORE_FLOOR * calls[0][1]


@pytest.fixture(scope="module")
def mixture_flow():
    """A d2 mixture trajectory on 160 nodes, flowed from 200 of its samples."""
    _, f = gen_quartic_mixture(2, seed=29)
    grid = ChebGrid.uniform(2, 160, -8.0, 8.0)
    p0 = normalize_and_certify(f, grid).tensor
    traj = fpe_solve(p0, grid, m_steps=16, t_max=5.0)
    return traj, flow_integrate(traj, sample_tt(p0, grid, 200, seed=1))


def _full_grid_score(traj, m, x):
    # explicit uncut rows: the full grid's interpolation rows W_k and W_k D1
    vals, grads = _explicit_value_and_grad(traj.snapshots[m], traj.grid, x)
    return grads / np.maximum(vals, traj.floor)[:, None]


def test_chopped_score_matches_full_grid_score(mixture_flow):
    # at the flow's own states the chopped snapshots' scores stay within
    # 1e-9 of the largest full-grid score (measured 1e-10 and below)
    traj, res = mixture_flow
    for j, x in enumerate(res.states[:-1]):
        full = _full_grid_score(traj, 2 * j, x)
        err = np.abs(traj.score_at(2 * j, x) - full).max()
        assert err <= 1e-9 * np.abs(full).max(), (j, err)


def test_cut_scores_build_no_differentiation_matrix(mixture_flow, monkeypatch):
    # each cut series is differentiated through the leading block of one
    # derivative table per grid, so the many cut sizes of a trajectory build
    # no node-space differentiation matrix; only an uncut mode reads the
    # grid's own
    calls = []
    real = chebyshev.diff_matrix

    def counting(*args):
        calls.append(args)
        return real(*args)

    traj, _ = mixture_flow
    fresh = DensityTrajectory(grid=traj.grid, h=traj.h, snapshots=traj.snapshots)
    x0 = sample_tt(traj.snapshots[0], traj.grid, 50, seed=2)
    monkeypatch.setattr(chebyshev, "diff_matrix", counting)
    assert flow_integrate(fresh, x0).failed_ids == []
    assert {args[0] for args in calls} <= set(traj.grid.ns)
    assert len(set().union(*fresh.score_nodes.values())) > 10  # 15 here


def test_late_snapshots_keep_at_most_half_the_nodes(mixture_flow):
    # the diffusion has smoothed the density by t = 5; a score read on the
    # full grid again would keep 160 nodes per mode here
    traj, _ = mixture_flow
    assert all(n <= 80 for n in traj.score_nodes[traj.n_steps])
    assert max(traj.score_nodes[0]) > 80


def test_chop_keeps_the_last_coefficient_above_tolerance(mixture_flow):
    # reference coefficients from a DCT-I of the reversed (descending) nodes;
    # the cut keeps 1 + the last degree above tolerance, at least 2
    traj, _ = mixture_flow
    for m in (0, 1, 8, traj.n_steps):
        for core, kept in zip(traj.snapshots[m].cores, traj.score_nodes[m]):
            r, n, s = core.shape
            vals = core.transpose(1, 0, 2).reshape(n, r * s)[::-1]
            coef = dct(vals, type=1, axis=0) / (n - 1)
            coef[[0, -1]] /= 2
            mags = np.abs(coef).max(axis=1)
            last = np.flatnonzero(mags > CHOP_TOL * mags.max())[-1] + 1
            assert kept == max(last, 2), (m, kept, last)


def test_undecayed_snapshot_keeps_the_full_grid():
    # a tt-random density on 12 nodes is nowhere near resolved, so no mode is
    # chopped and the score is the full-grid interpolant's, to roundoff
    grid = ChebGrid.uniform(3, 12, -8.0, 8.0)
    traj = fpe_solve(gen_tt_random(grid, 5), grid, m_steps=4, t_max=1.0)
    x = np.random.default_rng(2).uniform(-3.0, 3.0, size=(20, 3))
    for m in range(traj.n_steps + 1):
        got = traj.score_at(m, x)
        assert traj.score_nodes[m] == grid.ns
        full = _full_grid_score(traj, m, x)
        assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max(), m


def test_solver_validation():
    grid = ChebGrid.uniform(2, 32, -8.0, 8.0)
    p0 = _norm_tt(grid, 0.0, 1.0)
    with pytest.raises(ConfigError):
        fpe_solve(p0, grid, m_steps=0, t_max=1.0)
    other = ChebGrid.uniform(2, 16, -8.0, 8.0)
    with pytest.raises(InvalidShapeError):
        fpe_solve(p0, other, m_steps=4, t_max=1.0)
