import itertools

import numpy as np
import pytest

from ttflow.errors import DegenerateCostError, InvalidShapeError
from ttflow.transport import compare, ot_assignment, paired_cost


def _brute_force_cost(x, y):
    n = x.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        c = ((x - y[list(perm)]) ** 2).sum() / n
        best = min(best, c)
    return best


def test_assignment_matches_brute_force():
    # 200 random instances, exhaustive permutation oracle
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        x = rng.standard_normal((n, d))
        y = rng.standard_normal((n, d))
        perm, cost = ot_assignment(x, y)
        assert sorted(perm) == list(range(n))
        oracle = _brute_force_cost(x, y)
        assert abs(cost - oracle) <= 1e-12 * max(1.0, oracle)
        # the reported permutation must realize the reported cost
        realized = ((x - y[perm]) ** 2).sum() / n
        assert abs(realized - cost) <= 1e-12


def test_cost_symmetry_and_translation_invariance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal((40, 3))
    _, cxy = ot_assignment(x, y)
    _, cyx = ot_assignment(y, x)
    assert cxy == pytest.approx(cyx, rel=1e-12)
    c = rng.standard_normal(3)
    _, shifted = ot_assignment(x + c, y + c)
    assert shifted == pytest.approx(cxy, rel=1e-12)


def test_paired_cost_dominates_exact_cost():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.standard_normal((30, 2))
        y = rng.standard_normal((30, 2))
        _, cost = ot_assignment(x, y)
        assert paired_cost(x, y) >= cost - 1e-12


def test_monotone_pairing_is_optimal():
    # an increasing affine image in 1-d is coupled optimally by identity,
    # so the relative gap must sit at float-noise level
    rng = np.random.default_rng(3)
    x = np.sort(rng.standard_normal(120))[:, None]
    y = 2.0 * x + 0.7
    rep = compare(x, y)
    assert abs(rep.epsilon_rel) <= 1e-12
    assert rep.epsilon_rel >= -1e-12
    assert rep.identity_fraction == 1.0
    assert rep.n == 120


def test_degenerate_costs():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    rep = compare(x, x.copy())
    assert rep.cost_ot == 0.0 and rep.epsilon_rel == 0.0
    # zero exact cost, positive pairing cost: gap undefined
    with pytest.raises(DegenerateCostError):
        compare(x, x[::-1].copy())


def test_nonfinite_entries_are_rejected():
    # the flow decides which paths count (its ``failed_ids``); a non-finite
    # entry that reaches the comparison is the caller's error, never a NaN
    # cost or scipy's ValueError
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 2))
    y = x + 0.01 * rng.standard_normal((10, 2))
    for bad in (np.nan, np.inf, -np.inf):
        for side in (0, 1):
            clouds = [x.copy(), y.copy()]
            clouds[side][4, side] = bad
            for fn in (compare, ot_assignment, paired_cost):
                with pytest.raises(InvalidShapeError, match="finite"):
                    fn(*clouds)
    assert compare(x, y).n == 10


def test_shape_validation():
    with pytest.raises(InvalidShapeError):
        ot_assignment(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(InvalidShapeError):
        paired_cost(np.zeros(3), np.zeros(3))
