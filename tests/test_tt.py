import numpy as np
import pytest

from ttflow.errors import InvalidShapeError, NumericalDomainError
from ttflow.tt import (TTTensor, tt_add, tt_eval, tt_extrema, tt_from_dense,
                       tt_hadamard, tt_integrate, tt_mode_apply, tt_round,
                       tt_scale, tt_weighted_inner)


def _random_dense(rng, d):
    sizes = rng.integers(2, 11, size=d)
    return rng.standard_normal(tuple(sizes))


def test_roundtrip_exact_for_random_tensors():
    rng = np.random.default_rng(0)
    for i in range(100):
        a = _random_dense(rng, int(rng.integers(2, 4)))
        t = tt_from_dense(a, tol=0.0)
        err = np.linalg.norm(t.full() - a) / max(np.linalg.norm(a), 1e-300)
        assert err <= 1e-12, f"instance {i}: err {err}"


def test_from_dense_respects_tolerance():
    rng = np.random.default_rng(1)
    for tol in (1e-3, 1e-6, 1e-10):
        # low-rank signal plus small noise
        u = rng.standard_normal((12, 3))
        v = rng.standard_normal((3, 11))
        w = rng.standard_normal((11, 3, 10))
        a = np.einsum("ir,rj->ij", u, v)[:, :, None] * np.ones(10)
        a = a + 1e-8 * rng.standard_normal(a.shape)
        t = tt_from_dense(a, tol=tol)
        assert np.linalg.norm(t.full() - a) <= tol * np.linalg.norm(a) + 1e-13
    del w


def test_round_error_bound_and_rank_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = _random_dense(rng, 3)
        b = rng.standard_normal(a.shape) * 1e-6
        t = tt_add(tt_from_dense(a), tt_from_dense(b))
        for tol in (1e-8, 1e-4):
            r = tt_round(t, tol)
            assert all(x <= y for x, y in zip(r.ranks, t.ranks))
            err = np.linalg.norm(r.full() - t.full())
            assert err <= tol * np.linalg.norm(t.full()) + 1e-13


def test_round_recovers_low_rank():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((8, 2))
    v = rng.standard_normal((2, 9))
    a = u @ v
    t = tt_from_dense(a[:, :, None] * np.ones(7), tol=1e-13)
    assert t.ranks == (1, 2, 1, 1)
    doubled = tt_add(t, t)
    r = tt_round(doubled, 1e-12)
    assert r.ranks == (1, 2, 1, 1)
    assert np.linalg.norm(r.full() - 2 * t.full()) <= 1e-10


def test_algebra_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(2, 4))
        a = _random_dense(rng, d)
        b = rng.standard_normal(a.shape)
        ta, tb = tt_from_dense(a), tt_from_dense(b)
        sa = np.linalg.norm(a) + np.linalg.norm(b)
        assert np.abs(tt_add(ta, tb).full() - (a + b)).max() <= 1e-12 * sa
        assert np.abs(tt_hadamard(ta, tb).full() - a * b).max() <= 1e-11 * sa**2
        assert np.abs(tt_scale(ta, -2.5).full() + 2.5 * a).max() <= 1e-12 * sa


def test_mode_apply_matches_dense_and_composes():
    rng = np.random.default_rng(6)
    a = _random_dense(rng, 3)
    t = tt_from_dense(a)
    k = 1
    n = a.shape[k]
    m1 = rng.standard_normal((n, n))
    m2 = rng.standard_normal((4, n))
    ref = np.einsum("ij,ajc->aic", m1, a)
    assert np.abs(tt_mode_apply(t, m1, k).full() - ref).max() <= 1e-11 * np.abs(ref).max()
    lhs = tt_mode_apply(tt_mode_apply(t, m1, k), m2, k)
    rhs = tt_mode_apply(t, m2 @ m1, k)
    assert np.abs(lhs.full() - rhs.full()).max() <= 1e-10 * max(np.abs(rhs.full()).max(), 1)


def test_eval_matches_dense():
    rng = np.random.default_rng(7)
    a = _random_dense(rng, 3)
    t = tt_from_dense(a)
    idx = np.stack([rng.integers(0, s, size=50) for s in a.shape], axis=1)
    vals = tt_eval(t, idx)
    ref = a[idx[:, 0], idx[:, 1], idx[:, 2]]
    assert np.abs(vals - ref).max() <= 1e-12 * max(np.abs(a).max(), 1)


def test_integrate_matches_dense_and_is_linear():
    rng = np.random.default_rng(8)
    a = _random_dense(rng, 3)
    b = rng.standard_normal(a.shape)
    ta, tb = tt_from_dense(a), tt_from_dense(b)
    ws = [rng.uniform(0.1, 1.0, size=s) for s in a.shape]
    ref = np.einsum("abc,a,b,c->", a, *ws)
    assert tt_integrate(ta, ws) == pytest.approx(ref, rel=1e-12, abs=1e-12)
    lin = tt_integrate(tt_add(tt_scale(ta, 2.0), tb), ws)
    assert lin == pytest.approx(2 * tt_integrate(ta, ws) + tt_integrate(tb, ws),
                                rel=1e-11, abs=1e-11)


def test_extrema_estimate_on_separable_tensor():
    xs = np.linspace(-2, 2, 17)
    g = np.exp(-(xs**2))
    a = g[:, None, None] * g[None, :, None] * g[None, None, :]
    t = tt_from_dense(a)
    lo, hi = tt_extrema(t, np.random.default_rng(0))
    assert hi == pytest.approx(a.max(), rel=1e-12)
    assert lo <= a.min() + 1e-12


def test_constructor_validation():
    with pytest.raises(InvalidShapeError):
        TTTensor([np.ones((2, 3, 1))])           # bad left boundary rank
    with pytest.raises(InvalidShapeError):
        TTTensor([np.ones((1, 3, 2)), np.ones((3, 3, 1))])  # rank mismatch
    with pytest.raises(NumericalDomainError):
        TTTensor([np.array([[[np.nan]]])])
    t = TTTensor([np.ones((1, 3, 2)), np.ones((2, 4, 1))])
    assert t.mode_sizes == (3, 4)
    assert t.ranks == (1, 2, 1)
    with pytest.raises(ValueError):
        t.cores[0][0, 0, 0] = 5.0                # cores are read-only


def test_full_guards_size():
    t = TTTensor([np.ones((1, 400, 1)), np.ones((1, 400, 1)),
                  np.ones((1, 400, 1))])  # 6.4e7 entries, above 2**24
    with pytest.raises(InvalidShapeError):
        t.full()


def test_weighted_inner_matches_dense():
    rng = np.random.default_rng(31)
    a = tt_from_dense(rng.standard_normal((5, 6, 4)), tol=0.0)
    b = tt_from_dense(rng.standard_normal((5, 6, 4)), tol=0.0)
    weights = [rng.uniform(0.1, 1.0, size=n) for n in (5, 6, 4)]
    dense = a.full() * b.full()
    for w, ax in zip(weights, range(3)):
        dense = np.moveaxis(np.moveaxis(dense, ax, -1) * w, -1, ax)
    expect = dense.sum()
    got = tt_weighted_inner(a, b, weights)
    assert abs(got - expect) < 1e-12 * abs(expect)
    # consistency with integrate via an all-ones second factor
    ones = TTTensor([np.ones((1, n, 1)) for n in (5, 6, 4)])
    assert abs(tt_weighted_inner(a, ones, weights)
               - tt_integrate(a, [w for w in weights])) < 1e-12


def _random_tt(rng, sizes, rank):
    ranks = [1] + [rank] * (len(sizes) - 1) + [1]
    return TTTensor([rng.standard_normal((ranks[k], n, ranks[k + 1]))
                     for k, n in enumerate(sizes)])


@pytest.mark.parametrize("sizes,rank", [((128, 128), 2), ((100, 100, 100), 30),
                                        ((50,) * 7, 2)])
def test_weighted_inner_matches_einsum_reference(sizes, rank):
    # the fixed contraction order against the per-mode einsum it replaced
    rng = np.random.default_rng(len(sizes) * 100 + rank)
    a, b = _random_tt(rng, sizes, rank), _random_tt(rng, sizes, rank)
    weights = [rng.uniform(0.0, 1.0, size=n) for n in sizes]
    v = np.ones((1, 1))
    for k, w in enumerate(weights):
        v = np.einsum("rR,rns,RnS,n->sS", v, a.cores[k], b.cores[k], w,
                      optimize=True)
    expect = v[0, 0]
    assert abs(tt_weighted_inner(a, b, weights) - expect) <= 1e-13 * abs(expect)
