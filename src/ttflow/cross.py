"""Cross approximation: build a TT tensor by sampling a black-box function.

The function is queried on structured fiber sets chosen by alternating
maxvol pivoting; ranks start small and grow one at a time until the relative
error on a held-out random index set drops below the target or a rank cap is
hit. The black box maps an (m, d) integer index array to m values and must be
deterministic: within one call of ``cross_approximate`` each distinct index is
evaluated once, and repeats are answered from the values already seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShapeError, NumericalDomainError
from .tt import TTTensor, tt_eval

_VALIDATION_SIZE = 1000  # held-out random indices scoring each sweep
_START_RANK = 2  # internal ranks of the first sweep
_MAX_SWEEPS = 60  # sweeps before giving up on the tolerance
_MAXVOL_TOL = 1.05  # maxvol stops once no coefficient exceeds this
_MAXVOL_ITERS = 100  # row swaps per maxvol call


def _greedy_rows(a: np.ndarray, r: int) -> np.ndarray:
    """Greedy volume-style row seed: pick r rows by norm with deflation."""
    b = np.array(a)
    rows = np.empty(r, dtype=np.int64)
    for i in range(r):
        norms = np.einsum("ij,ij->i", b, b)
        pick = int(np.argmax(norms))
        rows[i] = pick
        v = b[pick]
        nv = np.linalg.norm(v)
        if nv > 0:
            v = v / nv
            b -= np.outer(b @ v, v)
        b[pick] = 0.0
    return rows


def maxvol(a: np.ndarray) -> np.ndarray:
    """Indices of ``r`` quasi-dominant rows of a tall (m, r) matrix."""
    m, r = a.shape
    if m < r:
        raise InvalidShapeError(f"maxvol needs m >= r, got {a.shape}")
    if m == r:
        return np.arange(r)
    rows = _greedy_rows(a, r)
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
    have = set()
    rows = []
    if existing is not None:
        for r in np.asarray(existing):
            have.add(tuple(int(v) for v in r))
            rows.append(np.asarray(r, dtype=np.int64))
    total = math.prod(int(n) for n in sizes)
    attempts = 0
    while len(rows) < count and attempts < 60 * count + 200:
        cand = tuple(int(rng.integers(0, n)) for n in sizes)
        if cand not in have or len(have) >= total:
            have.add(cand)
            rows.append(np.array(cand, dtype=np.int64))
        attempts += 1
    return np.stack(rows[:count])


def cross_approximate(f, mode_sizes, tol: float, max_rank: int = 30,
                      rng=None) -> CrossResult:
    """Approximate ``f`` on the index grid by a TT tensor.

    Stops once the relative l2 error on ``_VALIDATION_SIZE`` held-out random
    indices is <= tol; otherwise bumps every internal rank by one and resweeps
    until every rank reaches ``max_rank`` or ``_MAX_SWEEPS`` sweeps have run.
    Without convergence it returns the best sweep, ``converged`` false.
    """
    sizes = tuple(int(n) for n in mode_sizes)
    d = len(sizes)
    if d < 1 or any(n < 1 for n in sizes):
        raise InvalidShapeError(f"bad mode sizes {sizes}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    evals = 0
    # values seen so far, keyed by flat grid index (so the grid must have
    # fewer than 2**63 nodes) and sorted by key
    keys = np.empty(0, dtype=np.int64)
    vals = np.empty(0)

    def call(idx):
        nonlocal evals, keys, vals
        flat = np.ravel_multi_index(tuple(idx.T), sizes)
        pos = np.searchsorted(keys, flat)
        hit = pos < keys.size
        hit[hit] = keys[pos[hit]] == flat[hit]
        out = np.empty(flat.size)
        out[hit] = vals[pos[hit]]
        if not hit.all():
            miss = ~hit
            new, first, inverse = np.unique(flat[miss], return_index=True,
                                            return_inverse=True)
            fresh = _checked_eval(f, idx[miss][first])
            evals += new.size
            out[miss] = fresh[inverse]
            at = np.searchsorted(keys, new)
            keys, vals = np.insert(keys, at, new), np.insert(vals, at, fresh)
        return out

    val_idx = np.stack([rng.integers(0, n, size=_VALIDATION_SIZE) for n in sizes],
                       axis=1)
    val_ref = call(val_idx)
    val_scale = np.linalg.norm(val_ref)

    caps = [1] + [min(max_rank, math.prod(sizes[:k]), math.prod(sizes[k:]))
                  for k in range(1, d)] + [1]

    right = [None] * (d + 1)
    right[d] = np.zeros((1, 0), dtype=np.int64)
    for k in range(d - 1, 0, -1):
        right[k] = _random_rows(rng, sizes[k:], min(_START_RANK, caps[k]))

    best = None
    val_err = np.inf
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
            approx = tt_eval(t, val_idx)
            val_err = (np.linalg.norm(approx - val_ref) / val_scale
                       if val_scale > 0 else float(np.linalg.norm(approx)))
        except NumericalDomainError:
            val_err = np.inf
        if np.isfinite(val_err) and (best is None or val_err < best[1]):
            best = (t, val_err)
        if val_err <= tol:
            return CrossResult(t, True, float(val_err), evals, sweep)
        if all(right[k].shape[0] >= caps[k] for k in range(1, d)):
            break
        for k in range(1, d):
            want = min(right[k].shape[0] + 1, caps[k])
            if want > right[k].shape[0]:
                right[k] = _random_rows(rng, sizes[k:], want, existing=right[k])

    if best is None:
        raise NumericalDomainError("cross approximation produced no usable sweep")
    t, val_err = best
    return CrossResult(t, False, float(val_err), evals, sweep)
