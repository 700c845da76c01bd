import numpy as np
import pytest

from ttflow.chebyshev import ChebGrid
from ttflow.cross import cross_approximate, maxvol
from ttflow.errors import NumericalDomainError
from ttflow.tt import TTTensor, tt_eval, tt_from_dense


def test_maxvol_selects_dominant_rows():
    rng = np.random.default_rng(0)
    a = np.vstack([0.01 * rng.standard_normal((40, 4)), np.eye(4) * 5.0])
    rows = maxvol(np.linalg.qr(a)[0])
    assert set(rows) == {40, 41, 42, 43}


def test_cross_recovers_low_rank_tensor():
    rng = np.random.default_rng(1)
    dense = (np.einsum("i,j,k->ijk", rng.uniform(1, 2, 11), rng.uniform(1, 2, 9),
                       rng.uniform(1, 2, 10))
             + np.einsum("i,j,k->ijk", np.sin(np.arange(11)), np.cos(np.arange(9)),
                         rng.uniform(0.5, 1, 10)))
    ref = tt_from_dense(dense, tol=1e-13)

    def f(idx):
        return dense[idx[:, 0], idx[:, 1], idx[:, 2]]

    res = cross_approximate(f, dense.shape, tol=1e-11, max_rank=10,
                            rng=np.random.default_rng(2))
    assert res.converged
    assert not res.rank_capped
    assert res.val_error <= 1e-11
    assert max(res.tensor.ranks) <= max(ref.ranks) + 2
    err = np.linalg.norm(res.tensor.full() - dense) / np.linalg.norm(dense)
    assert err <= 1e-9


def test_cross_on_smooth_density_grid():
    # two-bump quartic-exponent mixture sampled on a 3-d grid
    grid = ChebGrid.uniform(3, 31, -8.0, 8.0)

    def density(x):
        q1 = ((x - 1.0) ** 2).sum(axis=1)
        q2 = ((x + 1.5) ** 4).sum(axis=1)
        return np.exp(-0.7 * q1) + 0.5 * np.exp(-0.05 * q2)

    def f(idx):
        return density(grid.index_to_point(idx))

    res = cross_approximate(f, grid.ns, tol=1e-8, max_rank=30,
                            rng=np.random.default_rng(3))
    assert res.converged
    assert res.val_error <= 1e-8
    # independent check on fresh random points
    rng = np.random.default_rng(4)
    idx = np.stack([rng.integers(0, n, size=2000) for n in grid.ns], axis=1)
    ref = f(idx)
    err = np.linalg.norm(tt_eval(res.tensor, idx) - ref) / np.linalg.norm(ref)
    assert err <= 1e-7


def test_cross_rank_cap_flag():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((12, 12, 12))  # full-rank noise

    def f(idx):
        return dense[idx[:, 0], idx[:, 1], idx[:, 2]]

    res = cross_approximate(f, dense.shape, tol=1e-10, max_rank=3,
                            rng=np.random.default_rng(6), max_sweeps=8)
    assert not res.converged
    assert res.rank_capped
    assert res.max_rank_reached <= 3


def test_cross_rejects_non_finite_values():
    def f(idx):
        vals = np.ones(idx.shape[0])
        vals[(idx[:, 0] == 2) & (idx[:, 1] == 3)] = np.nan
        return vals

    with pytest.raises(NumericalDomainError) as exc:
        cross_approximate(f, (6, 6), tol=1e-8, rng=np.random.default_rng(8),
                          validation_size=2000)
    assert exc.value.index == (2, 3)


def test_cross_deterministic_given_seed():
    dense = np.fromfunction(lambda i, j, k: np.sin(i + 1) * np.cos(j) + 0.1 * k,
                            (8, 9, 7))

    def f(idx):
        return dense[idx[:, 0], idx[:, 1], idx[:, 2]]

    r1 = cross_approximate(f, dense.shape, tol=1e-12, rng=np.random.default_rng(9))
    r2 = cross_approximate(f, dense.shape, tol=1e-12, rng=np.random.default_rng(9))
    assert r1.sweeps == r2.sweeps
    for c1, c2 in zip(r1.tensor.cores, r2.tensor.cores):
        assert c1.tobytes() == c2.tobytes()


def test_cross_interpolates_exact_values_at_pivots():
    # the returned tensor reproduces true values at validation accuracy even
    # when the target is only approximately low-rank
    rng = np.random.default_rng(10)
    base = np.einsum("i,j->ij", rng.uniform(1, 2, 30), rng.uniform(1, 2, 25))
    dense = base + 1e-3 * np.sin(np.add.outer(np.arange(30), np.arange(25.0)))

    def f(idx):
        return dense[idx[:, 0], idx[:, 1]]

    res = cross_approximate(f, dense.shape, tol=1e-9, max_rank=12,
                            rng=np.random.default_rng(11))
    assert res.converged
    assert np.abs(res.tensor.full() - dense).max() <= 1e-8 * np.abs(dense).max()
