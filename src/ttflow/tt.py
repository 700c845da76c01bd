"""Tensor-train containers and algebra.

A tensor with modes n_1 x ... x n_d is held as d cores G_k of shape
(R_{k-1}, n_k, R_k) with R_0 = R_d = 1; entry (i_1, ..., i_d) is the chained
product G_1[:, i_1, :] ... G_d[:, i_d, :]. Cores are float64 and read-only
after construction.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidShapeError, NumericalDomainError

_EXTREMA_PROBES = 4096  # random entries probed by tt_extrema
_EXTREMA_SWEEPS = 3  # alternating refinement sweeps of tt_extrema
_FULL_MAX_SIZE = 2**24  # largest tensor TTTensor.full reconstructs


class TTTensor:
    __slots__ = ("cores",)

    def __init__(self, cores, copy: bool = True):
        cs = []
        prev = 1
        for k, c in enumerate(cores):
            c = np.asarray(c, dtype=np.float64)
            if c.ndim != 3:
                raise InvalidShapeError(f"core {k} has {c.ndim} axes, want 3")
            if c.shape[0] != prev:
                raise InvalidShapeError(
                    f"core {k} left rank {c.shape[0]} != previous right rank {prev}")
            if c.shape[1] < 1:
                raise InvalidShapeError(f"core {k} has empty mode")
            if not np.isfinite(c).all():
                raise NumericalDomainError(f"core {k} contains non-finite entries")
            prev = c.shape[2]
            if copy:
                c = c.copy()
            c.flags.writeable = False
            cs.append(c)
        if not cs:
            raise InvalidShapeError("need at least one core")
        if cs[0].shape[0] != 1 or prev != 1:
            raise InvalidShapeError("boundary ranks must be 1")
        self.cores = tuple(cs)

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def mode_sizes(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[2] for c in self.cores)

    def size(self) -> int:
        return int(np.prod([float(n) for n in self.mode_sizes]))

    def full(self) -> np.ndarray:
        """Dense reconstruction; refuses tensors above ``_FULL_MAX_SIZE`` entries."""
        if self.size() > _FULL_MAX_SIZE:
            raise InvalidShapeError(f"dense tensor would have {self.size()} entries")
        out = self.cores[0]
        for c in self.cores[1:]:
            out = np.tensordot(out, c, axes=([out.ndim - 1], [0]))
        return out[0, ..., 0]

    def __repr__(self):
        return f"TTTensor(sizes={self.mode_sizes}, ranks={self.ranks})"


def _chop(sv: np.ndarray, budget: float) -> int:
    """Smallest kept rank with discarded tail below ``budget`` in Frobenius."""
    r = len(sv)
    if budget > 0:
        tails = np.concatenate([np.sqrt(np.cumsum(sv[::-1] ** 2))[::-1], [0.0]])
        r = int(np.searchsorted(-tails, -budget))
    return min(max(r, 1), len(sv))


def tt_from_dense(a: np.ndarray, tol: float = 0.0) -> TTTensor:
    """TT-SVD of a dense array with relative Frobenius accuracy ``tol``.

    The truncation budget is split as tol * |A|_F / sqrt(d - 1) per unfolding.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 1:
        raise InvalidShapeError("scalar input")
    if not np.isfinite(a).all():
        raise NumericalDomainError("input contains non-finite entries")
    d = a.ndim
    sizes = a.shape
    budget = tol * np.linalg.norm(a) / np.sqrt(max(d - 1, 1))
    cores = []
    r = 1
    m = a.reshape(r * sizes[0], -1)
    for k in range(d - 1):
        u, sv, vt = np.linalg.svd(m, full_matrices=False)
        rk = _chop(sv, budget)
        cores.append(u[:, :rk].reshape(r, sizes[k], rk))
        m = (sv[:rk, None] * vt[:rk]).reshape(rk * sizes[k + 1], -1)
        r = rk
    cores.append(m.reshape(r, sizes[d - 1], 1))
    return TTTensor(cores, copy=False)


def tt_round(t: TTTensor, tol: float) -> TTTensor:
    """Re-truncate to relative accuracy ``tol``; never increases any rank."""
    d = t.d
    if d == 1:
        return t
    cores = [c for c in t.cores]
    # right-to-left orthogonalization
    for k in range(d - 1, 0, -1):
        r, n, s = cores[k].shape
        q, rr = np.linalg.qr(cores[k].reshape(r, n * s).T)
        rq = q.shape[1]
        cores[k] = q.T.reshape(rq, n, s)
        cores[k - 1] = np.tensordot(cores[k - 1], rr.T, axes=([2], [0]))
    budget = tol * np.linalg.norm(cores[0]) / np.sqrt(d - 1)
    # left-to-right truncated SVD
    for k in range(d - 1):
        r, n, s = cores[k].shape
        u, sv, vt = np.linalg.svd(cores[k].reshape(r * n, s), full_matrices=False)
        rk = min(_chop(sv, budget), t.ranks[k + 1])
        cores[k] = u[:, :rk].reshape(r, n, rk)
        cores[k + 1] = np.tensordot(sv[:rk, None] * vt[:rk], cores[k + 1],
                                    axes=([1], [0]))
    return TTTensor(cores, copy=False)


def tt_scale(t: TTTensor, alpha: float) -> TTTensor:
    cores = [t.cores[0] * float(alpha)] + [c for c in t.cores[1:]]
    return TTTensor(cores, copy=False)


def tt_add(a: TTTensor, b: TTTensor) -> TTTensor:
    """Exact sum; ranks add blockwise. Every core is block-diagonal, then the
    first sums its two left rows and the last its two right columns."""
    if a.mode_sizes != b.mode_sizes:
        raise InvalidShapeError(f"mode sizes differ: {a.mode_sizes} vs {b.mode_sizes}")
    cores = []
    for ca, cb in zip(a.cores, b.cores):
        ra, n, sa = ca.shape
        rb, _, sb = cb.shape
        c = np.zeros((ra + rb, n, sa + sb))
        c[:ra, :, :sa] = ca
        c[ra:, :, sa:] = cb
        cores.append(c)
    cores[0] = cores[0].sum(axis=0, keepdims=True)
    cores[-1] = cores[-1].sum(axis=2, keepdims=True)
    return TTTensor(cores, copy=False)


def tt_hadamard(a: TTTensor, b: TTTensor) -> TTTensor:
    """Elementwise product; ranks multiply."""
    if a.mode_sizes != b.mode_sizes:
        raise InvalidShapeError(f"mode sizes differ: {a.mode_sizes} vs {b.mode_sizes}")
    cores = []
    for ca, cb in zip(a.cores, b.cores):
        ra, n, sa = ca.shape
        rb, _, sb = cb.shape
        c = np.einsum("rns,RnS->rRnsS", ca, cb)
        cores.append(c.reshape(ra * rb, n, sa * sb))
    return TTTensor(cores, copy=False)


def tt_mode_apply(t: TTTensor, m: np.ndarray, k: int) -> TTTensor:
    """Apply matrix ``m`` along mode ``k``: new[.., i, ..] = sum_j m[i, j] old[.., j, ..]."""
    m = np.asarray(m, dtype=np.float64)
    core = t.cores[k]
    if m.ndim != 2 or m.shape[1] != core.shape[1]:
        raise InvalidShapeError(f"matrix {m.shape} does not fit mode size {core.shape[1]}")
    r, n, s = core.shape
    new = (m @ core.transpose(1, 0, 2).reshape(n, r * s)).reshape(m.shape[0], r, s)
    cores = list(t.cores)
    cores[k] = new.transpose(1, 0, 2)
    return TTTensor(cores, copy=False)


def tt_eval(t: TTTensor, idx: np.ndarray) -> np.ndarray:
    """Entries at integer multi-indices: (m, d) -> (m,)."""
    idx = np.atleast_2d(np.asarray(idx, dtype=np.int64))
    if idx.shape[1] != t.d:
        raise InvalidShapeError(f"indices have {idx.shape[1]} modes, tensor has {t.d}")
    p = t.cores[0][0, idx[:, 0], :]
    for k in range(1, t.d):
        sl = t.cores[k][:, idx[:, k], :]
        p = np.einsum("pr,rps->ps", p, sl)
    return p[:, 0]


def tt_integrate(t: TTTensor, weights) -> float:
    """Full contraction against per-mode weight vectors."""
    if len(weights) != t.d:
        raise InvalidShapeError(f"{len(weights)} weight vectors for {t.d} modes")
    v = np.ones((1, 1))
    for k, w in enumerate(weights):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (t.cores[k].shape[1],):
            raise InvalidShapeError(f"weight {k} has shape {w.shape}")
        v = v @ np.einsum("j,rjs->rs", w, t.cores[k])
    return float(v[0, 0])


def tt_weighted_inner(a: TTTensor, b: TTTensor, weights) -> float:
    """Weighted inner product sum_i w_i a_i b_i without forming the product.

    ``weights`` holds one nonnegative vector per mode (separable weight).
    Memory stays at rank(a) x rank(b) per interface, unlike a Hadamard route.
    """
    if a.mode_sizes != b.mode_sizes or len(weights) != a.d:
        raise InvalidShapeError("mismatched shapes in weighted inner product")
    v = np.ones((1, 1))
    for k, w in enumerate(weights):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (a.mode_sizes[k],):
            raise InvalidShapeError(f"weight {k} has shape {w.shape}")
        # fixed order: v against a, the weight, then b; no per-call path
        # search, which would cost more than the contraction at low ranks
        left = np.tensordot(v, a.cores[k], axes=(0, 0)) * w[None, :, None]
        v = np.tensordot(left, b.cores[k], axes=([0, 1], [0, 1]))
    return float(v[0, 0])


def tt_extrema(t: TTTensor, rng: np.random.Generator):
    """Estimated (min, max) entry via random probing plus alternating refinement."""
    sizes = t.mode_sizes
    idx = np.stack([rng.integers(0, n, size=_EXTREMA_PROBES) for n in sizes], axis=1)
    vals = tt_eval(t, idx)
    best = {"min": idx[np.argmin(vals)].copy(), "max": idx[np.argmax(vals)].copy()}
    out = {}
    for mode, start in best.items():
        cur = start.copy()
        sign = -1.0 if mode == "min" else 1.0
        for _ in range(_EXTREMA_SWEEPS):
            for k in range(t.d):
                pre = np.ones(1)
                for j in range(k):
                    pre = pre @ t.cores[j][:, cur[j], :]
                suf = np.ones(1)
                for j in range(t.d - 1, k, -1):
                    suf = t.cores[j][:, cur[j], :] @ suf
                fiber = np.einsum("r,rjs,s->j", pre, t.cores[k], suf)
                cur[k] = int(np.argmax(sign * fiber))
        out[mode] = float(tt_eval(t, cur[None, :])[0])
    return min(out["min"], vals.min()), max(out["max"], vals.max())

