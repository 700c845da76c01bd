"""Empirical optimal-transport cost versus the paired (encoder) cost.

Both costs are mean squared displacement over n coupled points. The exact
cost solves the assignment problem on the squared-distance matrix; the
paired cost keeps the i-th source with the i-th target. Their relative gap
is the headline diagnostic: it vanishes exactly when the pairing is itself
an optimal coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import DegenerateCostError, InvalidShapeError


def _check_cloud_pair(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape != y.shape or x.shape[0] < 1:
        raise InvalidShapeError(
            f"need matching (n, d) clouds, got {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidShapeError("clouds must be finite; drop failed paths first")
    return x, y


def ot_assignment(x: np.ndarray, y: np.ndarray):
    """Exact optimal assignment between equal-size clouds.

    Returns ``(perm, cost)`` where ``perm[i]`` is the target index coupled to
    source ``i`` and ``cost`` is the mean squared displacement under that
    coupling.
    """
    x, y = _check_cloud_pair(x, y)
    sq = cdist(x, y, "sqeuclidean")
    rows, cols = linear_sum_assignment(sq)
    perm = np.empty(x.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm, float(sq[rows, cols].mean())


def paired_cost(x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared displacement of the identity pairing x_i -> y_i."""
    x, y = _check_cloud_pair(x, y)
    return float(((x - y) ** 2).sum(axis=1).mean())


@dataclass
class TransportReport:
    """Comparison of the identity pairing against the exact assignment."""

    n: int
    cost_ot: float
    cost_encoder: float
    epsilon_rel: float
    assignment: list
    identity_fraction: float


def compare(x: np.ndarray, y: np.ndarray) -> TransportReport:
    """Build a :class:`TransportReport` for finite sources ``x`` paired with
    ``y`` (drop the flow's ``failed_ids`` first: a non-finite entry raises).
    A zero exact cost with a positive paired cost has an undefined relative
    gap and raises ``DegenerateCostError``.
    """
    x, y = _check_cloud_pair(x, y)
    perm, cost_ot = ot_assignment(x, y)
    cost_enc = paired_cost(x, y)

    if cost_ot == 0.0:
        if cost_enc > 0.0:
            raise DegenerateCostError(
                "exact transport cost is zero but pairing cost is "
                f"{cost_enc}; relative gap undefined")
        eps = 0.0
    else:
        eps = (cost_enc - cost_ot) / cost_ot

    return TransportReport(
        n=int(x.shape[0]),
        cost_ot=cost_ot,
        cost_encoder=cost_enc,
        epsilon_rel=float(eps),
        assignment=[int(v) for v in perm],
        identity_fraction=float(np.mean(perm == np.arange(x.shape[0]))),
    )
