import numpy as np
import pytest

from ttflow.chebyshev import (ChebGrid, _cheb_at_nodes, antideriv_matrix,
                              barycentric_weights, cc_weights, cdf_matrices,
                              cheb_nodes, chop, coeff_matrix, deriv_matrix,
                              diff_matrix, interp_matrix, interp_value_and_grad,
                              value_grad_cores)
from ttflow.errors import DomainBoundsError, InvalidShapeError
from ttflow.fpe import DensityTrajectory, fpe_solve
from ttflow.tt import TTTensor, tt_from_dense, tt_integrate, tt_scale


def test_nodes_ascending_and_endpoints():
    for n in (2, 5, 33, 128):
        x = cheb_nodes(n, -8.0, 8.0)
        assert len(x) == n
        assert np.all(np.diff(x) > 0)
        assert x[0] == pytest.approx(-8.0, abs=1e-14)
        assert x[-1] == pytest.approx(8.0, abs=1e-14)


def test_nodes_validation():
    with pytest.raises(InvalidShapeError):
        cheb_nodes(1, -1.0, 1.0)
    with pytest.raises(InvalidShapeError):
        cheb_nodes(8, 2.0, 2.0)


def test_differentiation_exact_on_polynomials():
    rng = np.random.default_rng(7)
    for n in (8, 16, 32):
        a, b = -3.0, 5.0
        x = cheb_nodes(n, a, b)
        d1 = diff_matrix(n, a, b)
        d2 = d1 @ d1
        for _ in range(20):
            deg = int(rng.integers(0, n - 1))
            c = rng.standard_normal(deg + 1)
            p = np.polynomial.Polynomial(c)
            scale = max(np.abs(p(x)).max(), 1.0)
            assert np.abs(d1 @ p(x) - p.deriv()(x)).max() <= 1e-9 * scale
            assert np.abs(d2 @ p(x) - p.deriv(2)(x)).max() <= 1e-7 * scale
        # the leading k x k block of the series map differentiates any k-term
        # series, as numpy's chebder does; the score reads every cut this way
        for k in (2, n // 2, n):
            c = rng.standard_normal(k)
            want = np.polynomial.chebyshev.chebder(c, scl=2.0 / (b - a))
            got = deriv_matrix(n, a, b)[:k, :k] @ c
            assert got[-1] == 0.0
            assert np.abs(got[:-1] - want).max() <= 1e-14 * np.abs(want).max()


def test_series_derivative_matches_diff_matrix():
    # node values to the series, its derivative by deriv_matrix and back to
    # the nodes against the barycentric diff_matrix, within 1e-14 n of the
    # largest entry (measured 7.2e-13 of it at n = 250 on +-12)
    for n in (8, 64, 128, 250):
        for a, b in ((-8.0, 8.0), (-12.0, 12.0)):
            ref = diff_matrix(n, a, b)
            series = _cheb_at_nodes(n, n) @ deriv_matrix(n, a, b) @ coeff_matrix(n)
            err = np.abs(series - ref).max()
            assert err <= 1e-14 * n * np.abs(ref).max(), (n, a, err)


def test_quadrature_weights_on_five_nodes():
    assert np.allclose(cc_weights(5, -1.0, 1.0), np.array([1, 8, 12, 8, 1]) / 15, rtol=0, atol=1e-15)


def test_quadrature_exact_on_polynomials():
    a, b = -8.0, 8.0
    for n in range(2, 66):
        w = cc_weights(n, a, b)
        x = cheb_nodes(n, a, b)
        assert w.sum() == pytest.approx(b - a, rel=1e-13)
        assert np.all(w > 0)
        for k in range(n):
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            scale = max(abs(exact), (b - a) * max(abs(a), abs(b)) ** k)
            assert w @ x**k == pytest.approx(exact, abs=1e-12 * scale)


def test_quadrature_spectral_on_gaussian():
    w = cc_weights(96, -8.0, 8.0)
    x = cheb_nodes(96, -8.0, 8.0)
    v = np.exp(-(x**2) / 2) / np.sqrt(2 * np.pi)
    assert w @ v == pytest.approx(1.0, abs=1e-12)


def test_antiderivative_exact_at_nodes_on_polynomials():
    # F = int_a^x p for random p of degree <= n-1, against numpy's closed form
    rng = np.random.default_rng(11)
    for n in (2, 3, 8, 33, 64, 100):
        for a, b in ((-8.0, 8.0), (-3.0, 5.0)):
            x = cheb_nodes(n, a, b)
            s = (2.0 * x - (a + b)) / (b - a)
            for _ in range(5):
                deg = int(rng.integers(0, n))
                p = np.polynomial.Polynomial(rng.standard_normal(deg + 1), domain=[a, b])
                big_c = antideriv_matrix(n, a, b) @ (coeff_matrix(n) @ p(x))
                exact = p.integ(lbnd=a)(x)
                got = np.polynomial.chebyshev.chebval(s, big_c)
                assert np.abs(got - exact).max() <= 1e-13 * max(np.abs(exact).max(), 1.0)


def test_antiderivative_matrix_is_read_only():
    # cc_weights reads this cached map at b, so a write would corrupt both
    m = antideriv_matrix(12, -8.0, 8.0)
    assert m.shape == (13, 12) and not m.flags.writeable
    assert antideriv_matrix(12, -8.0, 8.0) is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_cdf_matrices_match_the_series_on_polynomials():
    # node values of p to [F | p] at the n + 1 CGL nodes and to F at the n
    # nodes, against numpy's closed form in the mapped variable s at the exact
    # CGL positions, so the offset box does not round the reference
    rng = np.random.default_rng(12)
    for n in (2, 3, 17, 50, 250):
        s_n, s_m = (np.cos(np.pi * np.arange(k) / (k - 1))[::-1] for k in (n, n + 1))
        p = np.polynomial.Polynomial(rng.standard_normal(n))
        for a, b in ((-8.0, 8.0), (1000.0, 1001.0)):
            at_fine, at_nodes = cdf_matrices(n, a, b)
            assert at_fine.shape == (n, 2 * n + 2) and at_nodes.shape == (n, n)
            assert not at_fine.flags.writeable and not at_nodes.flags.writeable
            big_f = p.integ(lbnd=-1) * ((b - a) / 2)  # int_a^x p = (b - a)/2 int_-1^s p
            scale = max(np.abs(p(s_n)).max(), 1.0) * (b - a)
            assert np.abs(p(s_n) @ at_nodes - big_f(s_n)).max() <= 1e-13 * scale
            fine = p(s_n) @ at_fine
            assert np.abs(fine[:n + 1] - big_f(s_m)).max() <= 1e-12 * scale
            assert np.abs(fine[n + 1:] - p(s_m)).max() <= 1e-12 * scale


def _cheb_poly(rng, deg, a, b):
    return np.polynomial.Chebyshev(rng.standard_normal(deg + 1), domain=[a, b])


def test_chop_reads_the_cut_series_at_its_own_nodes():
    # a degree-9 polynomial on 40 nodes keeps its 10 coefficients, and one of
    # degree 38 its 39: a cut to n - 1 is a cut. A constant still keeps 2
    rng = np.random.default_rng(13)
    for a, b in ((-8.0, 8.0), (-3.0, 5.0)):
        for deg in (9, 38):
            p = _cheb_poly(rng, deg, a, b)
            got = chop(p(cheb_nodes(40, a, b))[:, None], 1e-12)
            assert got.shape == (deg + 1, 1)
            assert np.abs(got[:, 0] - p.coef).max() <= 1e-13 * np.abs(p.coef).max()
    const = chop(np.full((40, 1), 3.0), 1e-12)
    assert const.shape == (2, 1) and np.abs(const[:, 0] - [3.0, 0.0]).max() <= 1e-14


def test_chop_cuts_columns_to_the_longer_series():
    rng = np.random.default_rng(14)
    p, q = _cheb_poly(rng, 5, -8.0, 8.0), _cheb_poly(rng, 12, -8.0, 8.0)
    x = cheb_nodes(40, -8.0, 8.0)
    got = chop(np.column_stack([p(x), q(x)]), 1e-12)
    want = np.column_stack([np.pad(p.coef, (0, 7)), q.coef])
    assert got.shape == (13, 2)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_node_table_is_cached_and_read_only():
    # value_grad_cores reads every cut series and its derivative through these
    # tables, so a write would corrupt them
    for table in (lambda: _cheb_at_nodes(10, 10), lambda: deriv_matrix(10, -8.0, 8.0)):
        t = table()
        assert table() is t and not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 1.0


def test_interp_matrix_identity_at_nodes():
    x = cheb_nodes(17, -2.0, 2.0)
    m = interp_matrix(17, -2.0, 2.0, x)
    assert np.abs(m - np.eye(17)).max() <= 1e-13


def test_interp_matrix_spectral_accuracy():
    n, a, b = 96, -8.0, 8.0
    f = lambda t: np.exp(np.sin(t)) / (1 + t**2 / 16)
    m = interp_matrix(n, a, b, np.linspace(a, b, 301))
    vals = m @ f(cheb_nodes(n, a, b))
    assert np.abs(vals - f(np.linspace(a, b, 301))).max() <= 1e-11


def test_interp_matrix_outside_modes():
    for pts in ([1.5], [-1.0 - 1e-15], [0.25, 1.5], [1.5, 0.25, -0.5]):
        with pytest.raises(DomainBoundsError):
            interp_matrix(9, -1.0, 1.0, np.array(pts))


def _reference_interp_matrix(n, a, b, pts):
    # textbook barycentric rows with a full m x n hit scan: the reference
    # that the bracketing-node hit search must match bit for bit
    pts = np.atleast_1d(np.asarray(pts, dtype=np.float64))
    x = cheb_nodes(n, a, b)
    w = barycentric_weights(n)
    inside = (pts >= a) & (pts <= b)
    if not inside.all():
        raise DomainBoundsError("outside")
    diff = pts[:, None] - x[None, :]
    hit = np.abs(diff) < 1e-14 * (b - a)
    np.copyto(diff, 1.0, where=hit)
    m = (w[None, :] / diff)
    s = m.sum(axis=1, keepdims=True)
    np.divide(m, s, out=m, where=s != 0)
    exact = hit.any(axis=1)
    if exact.any():
        m[exact] = 0.0
        rows, cols = np.nonzero(hit)
        m[rows, cols] = 1.0
    return m


def test_offset_box_snaps_only_within_its_width():
    # the snap radius scales with b - a, not with |a| or |b|: on [1000, 1001]
    # a point 5e-12 from a node lies outside it and reads x - a exactly
    n, a, b = 49, 1000.0, 1001.0
    x = cheb_nodes(n, a, b)
    for gap in (5e-12, 1.2e-13):
        p = x[20] + gap
        assert abs(interp_matrix(n, a, b, [p])[0] @ (x - a) - (p - a)) <= 1e-15, gap


def _point_sets(n, a, b, rng):
    """Random points, the CGL nodes, both ends and points within 1e-15 of a
    node (all inside [a, b]), plus points beyond it."""
    x = cheb_nodes(n, a, b)
    near = np.concatenate([x[1:] - 1e-15, x[:-1] + 1e-15, x[1:-1] + 4e-15 * b])
    return {"random": rng.uniform(a, b, 200), "nodes": x,
            "ends": np.array([a, b, b, a]), "near": near,
            "outside": np.concatenate([rng.uniform(a, b, 20),
                                       [a - 1e-15, b + 1e-15, b + 1.0, 10 * a, 1e300]])}


def test_interp_matrix_matches_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    for n, a, b in ((2, -1.0, 1.0), (9, -2.0, 2.0), (50, -8.0, 8.0), (250, -8.0, 8.0)):
        for name, pts in _point_sets(n, a, b, rng).items():
            if name == "outside":
                with pytest.raises(DomainBoundsError):
                    interp_matrix(n, a, b, pts)
                continue
            got = interp_matrix(n, a, b, pts)
            assert np.array_equal(got, _reference_interp_matrix(n, a, b, pts)), (n, name)


def _explicit_value_and_grad(t, grid, x):
    # values from W_k G_k and gradients from the row products W_k D1, chained
    # mode by mode without sharing prefixes
    m, d = x.shape
    vf, gf = [], []
    for k, core in enumerate(t.cores):
        w = interp_matrix(grid.ns[k], grid.a, grid.b, x[:, k])
        vf.append(np.einsum("pj,rjs->prs", w, core))
        gf.append(np.einsum("pj,rjs->prs", w @ grid.diff1(k), core))

    def chain(fs):
        out = np.ones((m, 1))
        for f in fs:
            out = np.einsum("pr,prs->ps", out, f)
        return out[:, 0]

    grads = [chain(vf[:k] + [gf[k]] + vf[k + 1:]) for k in range(d)]
    return chain(vf), np.column_stack(grads)


def test_fused_evaluator_matches_explicit_rows():
    grid = ChebGrid.uniform(3, 20, -4.0, 4.0)
    f = lambda x, y, z: np.exp(-(x**2 + y**2 + z**2) / 5) * (2 + np.sin(x * y - z))
    t = _smooth_tt(grid, f, tol=1e-12)
    assert min(t.ranks[1:-1]) > 1
    rng = np.random.default_rng(23)
    for name, pts in _point_sets(20, -4.0, 4.0, rng).items():
        if name == "outside":  # the evaluator rejects these
            continue
        x = np.column_stack([rng.permutation(pts) for _ in range(3)])
        vals, grads = interp_value_and_grad(t, grid, x)
        ref_vals, ref_grads = _explicit_value_and_grad(t, grid, x)
        assert np.abs(vals - ref_vals).max() <= 1e-13 * np.abs(ref_vals).max(), name
        assert np.abs(grads - ref_grads).max() <= 1e-13 * np.abs(ref_grads).max(), name


def test_score_cache_matches_fresh_evaluation():
    # snapshot derivative cores are cached across calls; any call order must
    # give exactly what a fresh trajectory gives, bit for bit. Mode 1 here is
    # even in y, so its top Chebyshev coefficient is exactly zero and the
    # chop cuts it to 23 terms; mode 0 keeps all 24
    grid = ChebGrid.uniform(2, 24, -6.0, 6.0)
    f = lambda x, y: np.exp(-(x**2 + y**2) / 3) * (1.5 + np.sin(x) * np.cos(y))
    p0 = _smooth_tt(grid, f, tol=1e-12)
    p0 = tt_scale(p0, 1.0 / tt_integrate(p0, [grid.quad_weights(k) for k in range(2)]))
    traj = fpe_solve(p0, grid, m_steps=6, t_max=1.0)
    x = np.random.default_rng(31).uniform(-3.0, 3.0, size=(30, 2))
    for m in (0, 1, 1, 0, 2, 6, 3, 3, 5, 4, 6):
        got = traj.score_at(m, x)
        fresh = DensityTrajectory(grid=grid, h=traj.h, snapshots=traj.snapshots)
        assert np.array_equal(got, fresh.score_at(m, x)), m
        vals, grads = interp_value_and_grad(traj.snapshots[m], grid, x)
        assert np.array_equal(got, grads / vals[:, None]), m
        held, cores = traj._cached
        assert held == m and traj.score_nodes[m] == (24, 23)
        for c, ref in zip(cores, value_grad_cores(traj.snapshots[m], grid)):
            assert np.array_equal(c, ref), m
    assert traj.floor_hits == 0


def _smooth_tt(grid, f, tol=0.0):
    pts = np.meshgrid(*[grid.nodes(k) for k in range(grid.d)], indexing="ij")
    return tt_from_dense(f(*pts), tol=tol)


def test_interp_eval_matches_grid_values():
    grid = ChebGrid.uniform(2, 20, -8.0, 8.0)
    f = lambda x, y: np.exp(-(x**2 + 0.5 * y**2) / 8) * (1 + 0.1 * x * y)
    t = _smooth_tt(grid, f)
    xg, yg = np.meshgrid(grid.nodes(0), grid.nodes(1), indexing="ij")
    pts = np.column_stack([xg.ravel(), yg.ravel()])
    vals = interp_value_and_grad(t, grid, pts)[0]
    assert np.abs(vals - f(pts[:, 0], pts[:, 1])).max() <= 1e-12


def test_interp_eval_spectral_between_nodes():
    grid = ChebGrid.uniform(2, 40, -8.0, 8.0)
    f = lambda x, y: np.exp(-(x**2 + y**2) / 6) * np.cos(x / 2 + y / 3)
    t = _smooth_tt(grid, f)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-8, 8, size=(200, 2))
    vals = interp_value_and_grad(t, grid, pts)[0]
    assert np.abs(vals - f(pts[:, 0], pts[:, 1])).max() <= 1e-9


def test_interp_grad_matches_finite_differences():
    grid = ChebGrid.uniform(3, 28, -4.0, 4.0)
    f = lambda x, y, z: np.exp(-(x**2 + y**2 + z**2) / 4) * (1 + 0.2 * np.sin(x * y))
    t = _smooth_tt(grid, f)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3, 3, size=(50, 3))
    vals, grads = interp_value_and_grad(t, grid, pts)
    eps = 1e-5
    for k in range(3):
        shift = np.zeros(3)
        shift[k] = eps
        fd = (interp_value_and_grad(t, grid, pts + shift)[0]
              - interp_value_and_grad(t, grid, pts - shift)[0]) / (2 * eps)
        assert np.abs(grads[:, k] - fd).max() <= 1e-5


def test_interp_grad_exact_on_rank_3_polynomial():
    # degree < n in every mode, so the interpolant is the polynomial itself;
    # ranks 3 and 3 make any mix-up of the core's rank indices visible
    grid = ChebGrid.uniform(3, 12, -2.0, 2.0)
    f = lambda x, y, z: x * y**2 + y * z**3 + x**2 * z
    t = _smooth_tt(grid, f, tol=1e-12)
    assert t.ranks == (1, 3, 3, 1)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.9, 1.9, size=(40, 3))
    x, y, z = pts.T
    vals, grads = interp_value_and_grad(t, grid, pts)
    assert np.abs(vals - f(x, y, z)).max() <= 1e-10
    exact = np.column_stack([y**2 + 2 * x * z, 2 * x * y + z**3, 3 * y * z**2 + x**2])
    assert np.abs(grads - exact).max() <= 1e-10


def test_degree_9_polynomial_reads_10_nodes_per_mode():
    # every core entry is a degree-9 polynomial, so the evaluator cuts each
    # mode's 40 nodes to the 10 its series needs and still reads the
    # polynomial and its gradient
    grid = ChebGrid.uniform(3, 40, -2.0, 2.0)
    rng = np.random.default_rng(41)
    ranks = (1, 2, 3, 1)
    polys = [[[np.polynomial.Polynomial(rng.standard_normal(10)) for _ in range(ranks[k + 1])]
              for _ in range(ranks[k])] for k in range(3)]

    def entries(k, pts, deriv=0):  # (r, len(pts), s), laid out like a core
        rows = [[p.deriv(deriv)(pts) for p in row] for row in polys[k]]
        return np.array(rows).transpose(0, 2, 1)

    t = TTTensor([entries(k, grid.nodes(k)) for k in range(3)])
    assert [len(c) for c in value_grad_cores(t, grid)] == [10, 10, 10]
    x = rng.uniform(-2.0, 2.0, size=(60, 3))

    def chain(derived):
        out = np.ones((len(x), 1))
        for k in range(3):
            out = np.einsum("pr,rps->ps", out, entries(k, x[:, k], int(k == derived)))
        return out[:, 0]

    vals, grads = interp_value_and_grad(t, grid, x)
    exact, exact_grads = chain(None), np.column_stack([chain(k) for k in range(3)])
    assert np.abs(vals - exact).max() <= 1e-12 * np.abs(exact).max()
    assert np.abs(grads - exact_grads).max() <= 1e-12 * np.abs(exact_grads).max()


def test_interp_eval_rejects_outside_points():
    grid = ChebGrid.uniform(2, 10, -1.0, 1.0)
    t = _smooth_tt(grid, lambda x, y: x + y)
    with pytest.raises(DomainBoundsError):
        interp_value_and_grad(t, grid, np.array([[0.0, 2.0]]))


def test_grid_index_to_point():
    grid = ChebGrid((5, 9), -2.0, 2.0)
    idx = np.array([[0, 0], [4, 8], [2, 3]])
    pts = grid.index_to_point(idx)
    assert pts[0] == pytest.approx([-2.0, -2.0])
    assert pts[1] == pytest.approx([2.0, 2.0])
    assert pts[2, 0] == pytest.approx(grid.nodes(0)[2])
    assert pts[2, 1] == pytest.approx(grid.nodes(1)[3])
