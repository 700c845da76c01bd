"""Closed-form Gaussian score provider for the flow tests.

The flow-order tests drive ``flow_integrate`` with exact scores, so that only
its time stepping is measured. No pipeline code uses this provider.
"""

import numpy as np

from ttflow.errors import InvalidShapeError
from ttflow.gaussian import GaussianSpec, moments_at


class AnalyticGaussianFlow:
    """Score provider backed by the closed-form Gaussian law.

    Mirrors the interface of a solved density trajectory (``n_steps``, ``h``,
    ``score_at``): snapshot m is the exact law at time m h, so the flow's
    stages read exact scores and only its time stepping is measured.
    """

    box = (-np.inf, np.inf)

    def __init__(self, spec: GaussianSpec, t_max: float, n_steps: int):
        if t_max <= 0 or n_steps < 1:
            raise InvalidShapeError("need t_max > 0 and n_steps >= 1")
        self.spec = spec
        self.t_max = float(t_max)
        self.n_steps = int(n_steps)
        self.h = self.t_max / self.n_steps

    def score_at(self, m: int, x: np.ndarray) -> np.ndarray:
        if not 0 <= m <= self.n_steps:
            raise InvalidShapeError(f"snapshot {m} outside 0..{self.n_steps}")
        mean, cov = moments_at(self.spec, m * self.h)
        prec = np.linalg.inv(cov)
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return -(x - mean) @ prec.T
