import numpy as np
import pytest

from ttflow import cross
from ttflow.chebyshev import ChebGrid
from ttflow.cross import cross_approximate, maxvol
from ttflow.errors import InvalidShapeError, NumericalDomainError
from ttflow.tt import tt_eval, tt_from_dense, tt_scale


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

    res = cross_approximate(f, dense.shape, tol=1e-11, rng=np.random.default_rng(2))
    assert res.converged
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

    res = cross_approximate(f, grid.ns, tol=1e-8, rng=np.random.default_rng(3))
    assert res.converged
    assert res.val_error <= 1e-8
    # independent check on fresh random points
    rng = np.random.default_rng(4)
    idx = np.stack([rng.integers(0, n, size=2000) for n in grid.ns], axis=1)
    ref = f(idx)
    err = np.linalg.norm(tt_eval(res.tensor, idx) - ref) / np.linalg.norm(ref)
    assert err <= 1e-7


def test_cross_rank_cap_flag(monkeypatch):
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((12, 12, 12))  # full-rank noise

    def f(idx):
        return dense[idx[:, 0], idx[:, 1], idx[:, 2]]

    monkeypatch.setattr(cross, "_MAX_SWEEPS", 8)
    monkeypatch.setattr(cross, "_MAX_RANK", 3)
    res = cross_approximate(f, dense.shape, tol=1e-10, rng=np.random.default_rng(6))
    assert not res.converged
    assert max(res.tensor.ranks) <= 3
    # ranks 2 -> 3 take two sweeps; a third at the cap misses the best held-out
    # error, so the loop stops before the budget
    assert res.sweeps < 8


def test_cross_doubles_ranks_up_to_the_cap(monkeypatch):
    # the (x1 + x2 + x3)^4 term couples the modes: rank 29 at tol 1e-8
    grid = ChebGrid.uniform(3, 31, -8.0, 8.0)

    def f(idx):
        x = grid.index_to_point(idx)
        return (np.exp(-0.7 * ((x - 1.0) ** 2).sum(axis=1))
                + 0.5 * np.exp(-0.05 * (x.sum(axis=1) + 1.5) ** 4 / 9
                               - 0.1 * (x ** 2).sum(axis=1)))

    asked = {}
    draw = cross._random_rows

    def recording_rows(rng, sizes, count, existing=None):
        asked.setdefault(len(sizes), []).append(count)
        return draw(rng, sizes, count, existing)

    monkeypatch.setattr(cross, "_random_rows", recording_rows)
    res = cross_approximate(f, grid.ns, tol=1e-8, rng=np.random.default_rng(3))
    assert res.converged and max(res.tensor.ranks) > 8
    for counts in asked.values():
        assert counts[0] == cross._START_RANK
        assert all(c == min(2 * p, cross._MAX_RANK) for p, c in zip(counts, counts[1:]))
        assert counts[-1] == cross._MAX_RANK


def _rank_5_target():
    # a sum of five separable products: TT ranks 5, where doubling asks for 8
    rng = np.random.default_rng(13)
    factors = [rng.uniform(0.5, 2.0, (5, n)) for n in (20, 18, 16)]
    dense = np.einsum("ri,rj,rk->ijk", *factors)
    return dense, lambda idx: dense[idx[:, 0], idx[:, 1], idx[:, 2]]


def test_cross_rounds_an_overshoot_to_the_exact_rank():
    dense, f = _rank_5_target()
    res = cross_approximate(f, dense.shape, tol=1e-10, rng=np.random.default_rng(14))
    assert res.converged and res.tensor.ranks == (1, 5, 5, 1)
    rng = np.random.default_rng(15)
    idx = np.stack([rng.integers(0, n, size=2000) for n in dense.shape], axis=1)
    ref = f(idx)
    assert np.linalg.norm(tt_eval(res.tensor, idx) - ref) / np.linalg.norm(ref) <= 1e-9


def test_cross_keeps_the_sweep_when_rounding_misses_the_tolerance(monkeypatch):
    # a rounding that costs the held-out tolerance is dropped, not returned
    dense, f = _rank_5_target()
    monkeypatch.setattr(cross, "tt_round", lambda t, tol: tt_scale(t, 1.0 + 1e-6))
    res = cross_approximate(f, dense.shape, tol=1e-10, rng=np.random.default_rng(14))
    assert res.converged and res.val_error <= 1e-10
    assert res.tensor.ranks == (1, 8, 8, 1)  # the sweep's own ranks


def test_cross_sweeps_at_the_cap_while_the_error_falls(monkeypatch):
    # a correlated Gaussian needs rank 15 at tol 1e-8; capped at 4, the
    # held-out error falls at the second sweep at the cap and rises at the third
    grid = ChebGrid.uniform(3, 31, -8.0, 8.0)

    def f(idx):
        x = grid.index_to_point(idx)
        return np.exp(-0.5 * (x ** 2).sum(axis=1)
                      - 0.4 * (x[:, 0] * x[:, 1] + x[:, 1] * x[:, 2]))

    scored = []  # (internal ranks, held-out error) per tt_eval call
    evaluate = cross.tt_eval

    def recording_eval(t, idx):
        approx = evaluate(t, idx)
        ref = f(idx)
        scored.append((t.ranks[1:-1], np.linalg.norm(approx - ref) / np.linalg.norm(ref)))
        return approx

    monkeypatch.setattr(cross, "tt_eval", recording_eval)
    monkeypatch.setattr(cross, "_MAX_RANK", 4)
    res = cross_approximate(f, grid.ns, tol=1e-8, rng=np.random.default_rng(3))
    sweeps = scored[:-1]  # the last call scores the rounded result
    assert not res.converged and res.sweeps == len(sweeps) == 4
    assert [r for r, _ in sweeps] == [(2, 2), (4, 4), (4, 4), (4, 4)]
    errs = [e for _, e in sweeps]
    assert errs[2] < errs[1] and errs[3] > errs[2]
    assert abs(res.val_error - errs[2]) <= 1e-6 * errs[2]


def test_cross_one_mode_takes_one_sweep():
    vals = np.array([0.5, 1.0, 2.0, 4.0, 3.0, 1.5, 0.25])

    res = cross_approximate(lambda idx: vals[idx[:, 0]], vals.shape, tol=1e-12,
                            rng=np.random.default_rng(0))
    assert res.converged and res.sweeps == 1 and res.val_error == 0.0
    assert np.array_equal(res.tensor.full(), vals)


def test_cross_rejects_non_finite_values(monkeypatch):
    def f(idx):
        vals = np.ones(idx.shape[0])
        vals[(idx[:, 0] == 2) & (idx[:, 1] == 3)] = np.nan
        return vals

    monkeypatch.setattr(cross, "_VALIDATION_SIZE", 2000)
    with pytest.raises(NumericalDomainError) as exc:
        cross_approximate(f, (6, 6), tol=1e-8, rng=np.random.default_rng(8))
    assert exc.value.index == (2, 3)


def test_cross_evaluates_each_index_once():
    # a smooth 3-d target needs several sweeps, each revisiting earlier fibers
    dense = np.fromfunction(lambda i, j, k: np.exp(-0.1 * (i - 5) ** 2 - 0.05 * (j - 4) ** 2
                                                   - 0.02 * (i - k) ** 2), (12, 10, 11))
    seen = []

    def f(idx):
        seen.append(np.ravel_multi_index(tuple(idx.T), dense.shape))
        return dense[idx[:, 0], idx[:, 1], idx[:, 2]]

    res = cross_approximate(f, dense.shape, tol=1e-10, rng=np.random.default_rng(12))
    assert res.sweeps > 1 and len(seen) > 1
    flat = np.concatenate(seen)
    assert np.unique(flat).size == flat.size
    assert res.n_evals == flat.size
    err = np.linalg.norm(res.tensor.full() - dense) / np.linalg.norm(dense)
    assert err <= 1e-8


def test_cross_evals_bounded_by_grid_size(monkeypatch):
    # 2000 validation draws and every sweep land on only 36 distinct nodes
    dense = np.fromfunction(lambda i, j: 1.0 / (1.0 + i + j), (6, 6))

    def f(idx):
        return dense[idx[:, 0], idx[:, 1]]

    monkeypatch.setattr(cross, "_VALIDATION_SIZE", 2000)
    res = cross_approximate(f, (6, 6), tol=1e-8, rng=np.random.default_rng(8))
    assert 0 < res.n_evals <= 36


def test_cross_rejects_a_grid_above_the_node_ceiling():
    calls = []

    def f(idx):
        calls.append(idx)
        return np.ones(idx.shape[0])

    side = 2 ** 14  # 2**28 nodes, twice the ceiling
    assert side * side > cross._MAX_NODES
    with pytest.raises(InvalidShapeError, match="nodes"):
        cross_approximate(f, (side, side), tol=1e-8, rng=np.random.default_rng(0))
    assert calls == []


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

    res = cross_approximate(f, dense.shape, tol=1e-9, rng=np.random.default_rng(11))
    assert res.converged
    assert np.abs(res.tensor.full() - dense).max() <= 1e-8 * np.abs(dense).max()
