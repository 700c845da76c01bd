"""Cross approximation: build a TT tensor by sampling a black-box function.

The function is queried on structured fiber sets chosen by alternating
maxvol pivoting. Ranks start small and double after each sweep that misses the
target error on a held-out random index set, up to a rank cap; at the cap the
sweeps go on while that error falls. The result is rounded once at 1% of the
target, so a doubling that overshoots keeps only the ranks the target needs.
The black box maps an (m, d) integer index array to m values and must be
deterministic: within one call of ``cross_approximate`` each distinct index is
evaluated once, and repeats are answered from flag and value tables over the
flat grid index: 9 bytes a node, paged in as indices are first seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidShapeError, NumericalDomainError
from .tt import TTTensor, tt_eval, tt_round

_VALIDATION_SIZE = 1000  # held-out random indices scoring each sweep
_START_RANK = 2  # internal ranks of the first sweep
_MAX_RANK = 30  # internal ranks never grow past this
_MAX_SWEEPS = 60  # sweeps before giving up on the tolerance
_MAXVOL_TOL = 1.05  # maxvol stops once no coefficient exceeds this
_MAXVOL_ITERS = 100  # row swaps per maxvol call
_MAX_NODES = 2 ** 27  # larger grids are refused: their tables could take 1.2 GB


def maxvol(a: np.ndarray) -> np.ndarray:
    """Indices of ``r`` quasi-dominant rows of a tall (m, r) matrix."""
    m, r = a.shape
    if m < r:
        raise InvalidShapeError(f"maxvol needs m >= r, got {a.shape}")
    if m == r:
        return np.arange(r)
    # pivoted QR of a.T: the greedy largest-norm rows, with deflation
    rows = scipy.linalg.qr(a.T, mode="r", pivoting=True)[1][:r]
    try:
        c = np.linalg.solve(a[rows].T, a.T).T
    except np.linalg.LinAlgError:
        c = np.linalg.lstsq(a[rows].T, a.T, rcond=None)[0].T
    for _ in range(_MAXVOL_ITERS):
        i, j = np.unravel_index(np.argmax(np.abs(c)), c.shape)
        if abs(c[i, j]) <= _MAXVOL_TOL:
            break
        rows[j] = i
        ej = np.zeros(r)
        ej[j] = 1.0
        c -= np.outer(c[:, j], (c[i, :] - ej) / c[i, j])
    return rows


@dataclass
class CrossResult:
    tensor: TTTensor
    converged: bool
    val_error: float
    n_evals: int  # distinct indices sent to the black box, each evaluated once
    sweeps: int


def _checked_eval(f, idx: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(idx), dtype=np.float64)
    if vals.shape != (idx.shape[0],):
        raise InvalidShapeError(
            f"black box returned shape {vals.shape} for {idx.shape[0]} indices")
    bad = ~np.isfinite(vals)
    if bad.any():
        where = idx[int(np.argmax(bad))]
        raise NumericalDomainError(
            f"black box produced a non-finite value at index {tuple(where)}",
            index=tuple(int(i) for i in where))
    return vals


def _combine(left: np.ndarray, n: int, right: np.ndarray) -> np.ndarray:
    """All multi-indices L x {0..n-1} x R, with the right block fastest."""
    nl, nr = left.shape[0], right.shape[0]
    out = np.empty((nl * n * nr, left.shape[1] + 1 + right.shape[1]), dtype=np.int64)
    out[:, :left.shape[1]] = np.repeat(left, n * nr, axis=0)
    out[:, left.shape[1]] = np.repeat(np.tile(np.arange(n), nl), nr)
    out[:, left.shape[1] + 1:] = np.tile(right, (nl * n, 1))
    return out


def _random_rows(rng, sizes, count, existing=None) -> np.ndarray:
    """``count`` distinct random multi-indices over the grid prod(sizes)."""
    rows = [] if existing is None else [tuple(int(v) for v in r) for r in existing]
    total = math.prod(int(n) for n in sizes)
    for _ in range(60 * count + 200):
        if len(rows) >= count:
            break
        cand = tuple(int(rng.integers(0, n)) for n in sizes)
        if cand not in rows or len(rows) >= total:
            rows.append(cand)
    return np.array(rows[:count], dtype=np.int64)


def cross_approximate(f, mode_sizes, tol: float,
                      rng: np.random.Generator) -> CrossResult:
    """Approximate ``f`` on the index grid by a TT tensor.

    Stops once the relative l2 error on ``_VALIDATION_SIZE`` held-out random
    indices is <= tol. Otherwise it doubles every internal rank, up to
    ``_MAX_RANK``, and resweeps; once every rank is at its cap it resweeps only
    while the held-out error keeps falling, and never past ``_MAX_SWEEPS``
    sweeps. The converged sweep, or else the best one, is rounded once by
    ``tt_round`` at 1% of tol; the rounded tensor is returned unless its
    held-out error exceeds both tol and the sweep's own. ``val_error`` and
    ``converged`` describe the tensor returned.
    """
    sizes = tuple(int(n) for n in mode_sizes)
    d = len(sizes)
    if d < 1 or any(n < 1 for n in sizes) or math.prod(sizes) > _MAX_NODES:
        raise InvalidShapeError(f"mode sizes {sizes} must be positive, with at most "
                                f"{_MAX_NODES} nodes in all")
    evals = 0
    seen = np.zeros(math.prod(sizes), dtype=bool)  # untouched pages stay unmapped
    table = np.zeros(seen.size)

    def call(idx):
        nonlocal evals
        flat = np.ravel_multi_index(tuple(idx.T), sizes)
        miss = ~seen[flat]
        if miss.any():
            new, first = np.unique(flat[miss], return_index=True)
            table[new] = _checked_eval(f, idx[miss][first])
            seen[new] = True
            evals += new.size
        return table[flat]

    val_idx = np.stack([rng.integers(0, n, size=_VALIDATION_SIZE) for n in sizes],
                       axis=1)
    val_ref = call(val_idx)
    val_scale = np.linalg.norm(val_ref)

    def held_out_error(t):
        approx = tt_eval(t, val_idx)
        return (np.linalg.norm(approx - val_ref) / val_scale
                if val_scale > 0 else float(np.linalg.norm(approx)))

    def result(t, err):
        # the held-out error weighs the tails more than the Frobenius norm
        # that tt_round bounds, so keep the rounding only if it holds the mark
        rounded = tt_round(t, 0.01 * tol)
        rounded_err = held_out_error(rounded)
        if rounded_err <= max(tol, err):
            t, err = rounded, rounded_err
        return CrossResult(t, bool(err <= tol), float(err), evals, sweep)

    caps = [1] + [min(_MAX_RANK, math.prod(sizes[:k]), math.prod(sizes[k:]))
                  for k in range(1, d)] + [1]

    right = [None] * (d + 1)
    right[d] = np.zeros((1, 0), dtype=np.int64)
    for k in range(d - 1, 0, -1):
        right[k] = _random_rows(rng, sizes[k:], min(_START_RANK, caps[k]))

    best = None
    sweep = 0
    while sweep < _MAX_SWEEPS:
        sweep += 1
        left = [None] * (d + 1)
        left[0] = np.zeros((1, 0), dtype=np.int64)
        cores = [None] * d
        # left-to-right: reselect nested left sets
        for k in range(d - 1):
            combo = _combine(left[k], sizes[k], right[k + 1])
            fv = call(combo)
            rl = left[k].shape[0]
            rr = right[k + 1].shape[0]
            q, _ = np.linalg.qr(fv.reshape(rl * sizes[k], rr))
            piv = maxvol(q)
            left[k + 1] = combo.reshape(rl * sizes[k], rr, d)[piv, 0, :k + 1]
        # right-to-left: reselect nested right sets, build cores
        for k in range(d - 1, 0, -1):
            combo = _combine(left[k], sizes[k], right[k + 1])
            fv = call(combo)
            rl = left[k].shape[0]
            rr = right[k + 1].shape[0]
            mat = fv.reshape(rl, sizes[k] * rr)
            q, _ = np.linalg.qr(mat.T)
            piv = maxvol(q)
            try:
                core = np.linalg.solve(q[piv].T, q.T)
            except np.linalg.LinAlgError:
                core = np.linalg.lstsq(q[piv].T, q.T, rcond=None)[0]
            cores[k] = core.reshape(q.shape[1], sizes[k], rr)
            right[k] = combo.reshape(rl, sizes[k] * rr, d)[0][piv][:, k:]
        combo = _combine(left[0], sizes[0], right[1])
        cores[0] = call(combo).reshape(1, sizes[0], right[1].shape[0])

        try:
            t = TTTensor(cores, copy=False)
            val_err = held_out_error(t)
        except NumericalDomainError:
            val_err = np.inf
        if val_err <= tol:
            return result(t, val_err)
        falling = np.isfinite(val_err) and (best is None or val_err < best[1])
        if falling:
            best = (t, val_err)
        if not falling and all(right[k].shape[0] >= caps[k] for k in range(1, d)):
            break
        for k in range(1, d):
            want = min(2 * right[k].shape[0], caps[k])
            if want > right[k].shape[0]:
                right[k] = _random_rows(rng, sizes[k:], want, existing=right[k])

    if best is None:
        raise NumericalDomainError("cross approximation produced no usable sweep")
    return result(*best)
