import tracemalloc

import numpy as np
import pytest

from ttflow import densities
from ttflow.chebyshev import ChebGrid, cc_weights, cheb_nodes, interp_value_and_grad
from ttflow.densities import (CertifiedDensity, MixtureSpec, QuarticComponent,
                              diag_gaussian_tt, gen_quartic_mixture,
                              gen_tt_random, mixture_callable,
                              normalize_and_certify)
from ttflow.errors import CertificateError, InvalidShapeError
from ttflow.tt import TTTensor, tt_eval, tt_extrema, tt_integrate


def _mass(t, grid):
    return tt_integrate(t, [grid.quad_weights(k) for k in range(grid.d)])


def test_component_validation():
    with pytest.raises(InvalidShapeError):
        QuarticComponent(np.zeros(2), np.zeros(2), np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(InvalidShapeError):
        QuarticComponent(np.zeros(2), np.zeros(3), np.eye(2), np.eye(2))


def test_mixture_formula_against_direct_evaluation():
    # recompute one component from scratch at random points
    spec, f = gen_quartic_mixture(2, seed=123)
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 3, size=(50, 2))
    direct = np.zeros(50)
    for c in spec.components:
        c1 = x - c.a1
        c2 = (x - c.a2) ** 2
        q = (c1[:, None, :] @ c.q1 @ c1[:, :, None]).ravel() \
            + (c2[:, None, :] @ c.q2 @ c2[:, :, None]).ravel()
        # normalizer by brute-force trapezoid on a fine grid
        g = np.linspace(-8, 8, 1201)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        d1 = pts - c.a1
        d2 = (pts - c.a2) ** 2
        qq = (d1[:, None, :] @ c.q1 @ d1[:, :, None]).ravel() \
            + (d2[:, None, :] @ c.q2 @ d2[:, :, None]).ravel()
        z = np.trapezoid(np.trapezoid(np.exp(-qq).reshape(1201, 1201), g), g)
        direct += np.exp(-q) / z
    direct /= spec.k
    assert np.allclose(f(x), direct, rtol=1e-6)


@pytest.mark.parametrize("d", [2, 3])
def test_exponent_matches_einsum_form(d):
    spec, _ = gen_quartic_mixture(d, seed=40 + d)
    x = np.random.default_rng(d).uniform(-8, 8, size=(500, d))
    for c in spec.components:
        c1, c2 = x - c.a1, (x - c.a2) ** 2
        ref = (np.einsum("md,de,me->m", c1, c.q1, c1)
               + np.einsum("md,de,me->m", c2, c.q2, c2))
        assert np.abs(c.exponent(x) - ref).max() <= 1e-14 * np.abs(ref).max()


def _point_list_normalizers(spec, box):
    # every quadrature point of the 72^d grid as one row, with its product weight
    nodes, w = cheb_nodes(72, *box), cc_weights(72, *box)
    pts = np.stack([g.ravel() for g in np.meshgrid(*[nodes] * spec.d, indexing="ij")],
                   axis=1)
    wts = np.prod(np.stack([g.ravel() for g in np.meshgrid(*[w] * spec.d, indexing="ij")]),
                  axis=0)
    return np.array([wts @ np.exp(-c.exponent(pts)) for c in spec.components])


@pytest.mark.parametrize("d", [2, 3])
def test_normalizers_match_point_list_quadrature(d):
    for seed in range(1, 9):
        spec, _ = gen_quartic_mixture(d, seed=seed)
        z = densities._component_normalizers(spec, (-8.0, 8.0))
        ref = _point_list_normalizers(spec, (-8.0, 8.0))
        assert np.abs(z / ref - 1.0).max() <= 1e-14, seed


def test_normalizers_hold_one_grid_at_a_time():
    # one 72^3 grid of floats is 3.0 MB; a 72^3 point list with its
    # per-point temporaries is about 45 MB
    spec, _ = gen_quartic_mixture(3, seed=5)
    assert spec.k > 1
    densities._component_normalizers(spec, (-8.0, 8.0))  # fill the node caches
    tracemalloc.start()
    try:
        densities._component_normalizers(spec, (-8.0, 8.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 72 ** 3 * 8


def test_mixture_positivity_and_determinism():
    spec_a, f = gen_quartic_mixture(3, seed=7)
    spec_b, _ = gen_quartic_mixture(3, seed=7)
    assert spec_a.k == spec_b.k
    for ca, cb in zip(spec_a.components, spec_b.components):
        assert np.array_equal(ca.a1, cb.a1) and np.array_equal(ca.q2, cb.q2)
    rng = np.random.default_rng(1)
    vals = f(rng.uniform(-8, 8, size=(1000, 3)))
    assert np.all(vals > 0)
    with pytest.raises(InvalidShapeError):
        gen_quartic_mixture(4, seed=0)


def test_mixture_component_permutation_symmetry():
    spec, f = gen_quartic_mixture(2, seed=21)
    if spec.k == 1:
        spec, f = gen_quartic_mixture(2, seed=22)
    assert spec.k > 1
    perm = MixtureSpec(components=spec.components[::-1])
    g = mixture_callable(perm)
    rng = np.random.default_rng(2)
    x = rng.uniform(-4, 4, size=(200, 2))
    fx, gx = f(x), g(x)
    assert np.abs(fx - gx).max() <= 1e-14 * np.abs(fx).max()


def test_symmetric_single_component_is_even():
    comp = QuarticComponent(np.zeros(2), np.zeros(2), np.eye(2), 1e-3 * np.eye(2))
    spec = MixtureSpec(components=(comp,))
    f = mixture_callable(spec)
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, size=(100, 2))
    assert np.allclose(f(x), f(-x), rtol=1e-13)


def test_diag_gaussian_tt_values_and_mass():
    grid = ChebGrid.uniform(2, 64, -8.0, 8.0)
    t = diag_gaussian_tt(grid, mean=[1.0, 0.0], var=[2.0, 0.5])
    assert t.ranks == (1, 1, 1)
    x0, x1 = grid.nodes(0), grid.nodes(1)
    expect = (np.exp(-0.5 * (x0[:, None] - 1.0) ** 2 / 2.0) / np.sqrt(4 * np.pi)
              * np.exp(-0.5 * x1[None, :] ** 2 / 0.5) / np.sqrt(np.pi))
    assert np.allclose(t.full(), expect, atol=1e-15)
    # quadrature is spectrally exact; the deficit is the true tail mass
    # beyond the box (about 4e-7 at 4.95 sigma)
    assert abs(_mass(t, grid) - 1.0) < 1e-6


def test_tt_random_density_properties():
    grid = ChebGrid.uniform(5, 40, -8.0, 8.0)
    t = gen_tt_random(grid, seed=11)
    assert all(r <= 2 for r in t.ranks)
    # the certificate is the one normalizer
    assert abs(_mass(normalize_and_certify(t, grid).tensor, grid) - 1.0) < 1e-10
    rng = np.random.default_rng(0)
    idx = np.stack([rng.integers(0, 40, size=500) for _ in range(5)], axis=1)
    assert np.all(tt_eval(t, idx) >= 0)
    t2 = gen_tt_random(grid, seed=11)
    assert np.array_equal(t.cores[2], t2.cores[2])


def test_certify_standard_gaussian_no_rescale():
    grid = ChebGrid.uniform(2, 64, -8.0, 8.0)
    res = normalize_and_certify(diag_gaussian_tt(grid, 0.0, 1.0), grid)
    assert isinstance(res, CertifiedDensity)
    assert res.rescales == 0
    assert res.boundary_ratio <= 1e-12
    assert abs(_mass(res.tensor, grid) - 1.0) < 1e-10


# the one message of a failed certificate. A sigma = 4 Gaussian on [-8, 8]
# reads about exp(-2) of its peak node value on the walls (no node sits at
# the center of an even grid), far above the 1e-12 bar
_WIDE_FAILS = (r"^density fails the boundary decay certificate "
               r"\(ratio 1\.35\de-01 > 1\.0e-12\)$")


def test_certify_wide_callable_raises_after_one_cross(monkeypatch):
    # the callable is crossed once, then fails as a TT input does
    grid = ChebGrid.uniform(2, 64, -8.0, 8.0)
    real, calls = densities.cross_approximate, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(densities, "cross_approximate", counted)
    with pytest.raises(CertificateError, match=_WIDE_FAILS):
        normalize_and_certify(lambda x: np.exp(-(x ** 2).sum(axis=1) / 32.0), grid)
    assert len(calls) == 1


def test_certify_wide_tt_input_raises():
    # the same wide Gaussian as a TT fails with the same message
    grid = ChebGrid.uniform(2, 64, -8.0, 8.0)
    with pytest.raises(CertificateError, match=_WIDE_FAILS):
        normalize_and_certify(diag_gaussian_tt(grid, 0.0, 16.0), grid)


@pytest.mark.parametrize("d, n", [(2, 250), (3, 48)])
def test_certify_quartic_mixture_family(d, n):
    # the generator's own draws pass the wall test on the default box with
    # no help: 20 seeds per dimension, at the d2 preset grid and a coarse d3 one
    grid = ChebGrid.uniform(d, n, -8.0, 8.0)
    for seed in range(20):
        res = normalize_and_certify(gen_quartic_mixture(d, seed)[1], grid, seed=seed)
        assert res.boundary_ratio <= 1e-12, seed


def test_certify_mixture_callable():
    spec, f = gen_quartic_mixture(2, seed=5)
    grid = ChebGrid.uniform(2, 96, -8.0, 8.0)
    res = normalize_and_certify(f, grid, cross_tol=1e-8)
    assert abs(_mass(res.tensor, grid) - 1.0) < 1e-10
    assert res.boundary_ratio <= 1e-12
    assert res.cross_info.converged
    # held-out pointwise agreement with the callable, normalized by its own
    # quadrature mass on the grid
    xg, yg = np.meshgrid(grid.nodes(0), grid.nodes(1), indexing="ij")
    on_grid = f(np.column_stack([xg.ravel(), yg.ravel()])).reshape(xg.shape)
    mass = grid.quad_weights(0) @ on_grid @ grid.quad_weights(1)
    rng = np.random.default_rng(8)
    x = rng.uniform(-4, 4, size=(300, 2))
    approx = interp_value_and_grad(res.tensor, grid, x)[0]
    exact = f(x) / mass
    scale = np.abs(exact).max()
    assert np.abs(approx - exact).max() <= 1e-7 * scale


def test_certify_rejects_zero_density():
    grid = ChebGrid.uniform(2, 32, -8.0, 8.0)
    with pytest.raises(CertificateError):
        normalize_and_certify(lambda x: np.zeros(x.shape[0]), grid)



def test_face_abs_max_matches_brute_force(monkeypatch):
    def check(t, mode, side, want, rel):
        got = densities._face_abs_max(t, mode, side, np.random.default_rng(0))
        assert got == pytest.approx(want, rel=rel), (t.mode_sizes, mode, side)

    # signed TTs with internal ranks 3, small enough to compare with the
    # dense array's faces
    rng = np.random.default_rng(1)
    for sizes in [(7,), (5, 6), (4, 5, 6)]:
        ranks = (1,) + (3,) * (len(sizes) - 1) + (1,)
        t = TTTensor([rng.standard_normal((ranks[k], n, ranks[k + 1]))
                      for k, n in enumerate(sizes)])
        dense = t.full()
        for mode in range(t.d):
            for side, idx in ((0, 0), (1, -1)):
                check(t, mode, side, np.abs(np.take(dense, idx, axis=mode)).max(), 1e-14)

    # each face of a 12^7 tensor has 12^6 > 2^20 entries, so it goes to
    # tt_extrema; on a positive rank-1 tensor the alternating search is
    # exact, and the face maximum is the pinned value times the other
    # modes' maxima
    vecs = [rng.uniform(0.1, 1.0, size=12) for _ in range(7)]
    t = TTTensor([v.reshape(1, -1, 1) for v in vecs])
    searched = []

    def spy(face, gen):
        searched.append(face.size())
        return tt_extrema(face, gen)

    monkeypatch.setattr(densities, "tt_extrema", spy)
    for mode in range(7):
        rest = np.prod([v.max() for j, v in enumerate(vecs) if j != mode])
        for side, idx in ((0, 0), (1, -1)):
            check(t, mode, side, vecs[mode][idx] * rest, 1e-13)
    assert searched == [12 ** 6] * 14
