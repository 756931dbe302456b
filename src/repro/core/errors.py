"""Exact sketch-quality metrics used across tests and benchmarks.

Two standard ways of scoring a sketch ``B`` of data ``A``:

- **covariance error** ``||A^T A - B^T B||_2`` — the quantity Frequent
  Directions bounds by ``||A||_F^2 / l`` (often reported relative to
  ``||A||_F^2``);
- **projection error** ``||A - A V_k V_k^T||_F^2`` where ``V_k`` spans
  the top-``k`` sketch directions — the reconstruction error the
  monitoring pipeline actually cares about, often reported relative to
  the optimal rank-``k`` error ``||A - A_k||_F^2``.

These are *exact* (they touch all of ``A``) and therefore test/bench
only; the streaming code path uses the estimators in
:mod:`repro.linalg.norms`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.linalg.svd import thin_svd

__all__ = [
    "covariance_error",
    "relative_covariance_error",
    "projection_error",
    "sketch_rank",
]


def covariance_error(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm ``||A^T A - B^T B||_2``.

    For ``d <= 1024`` the ``d x d`` difference is formed and solved
    densely (exact).  For larger ``d`` (where forming ``A^T A`` alone
    would dominate every benchmark) the difference is applied as a
    matrix-free operator ``v -> A^T(Av) - B^T(Bv)`` — four thin products
    per iteration instead of an ``O(n d^2 + d^3)`` dense solve — and
    block subspace iteration runs on it: a block of 4 seeded vectors, at
    most 60 iterations, stopping once the top Ritz value moves by less
    than ``1e-5`` of itself.  That value (the largest ``|eigenvalue|``
    of the block's Rayleigh-Ritz matrix) is an estimate from below of
    ``||A^T A - B^T B||_2``; when the 60-iteration cap is hit first, it
    is returned unconverged.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    d = a.shape[1]
    if d <= 1024:
        diff = a.T @ a - b.T @ b
        # Symmetric: spectral norm is the largest |eigenvalue|.
        w = scipy.linalg.eigh(diff, eigvals_only=True, check_finite=False)
        return float(np.max(np.abs(w)))

    def matmat(v: np.ndarray) -> np.ndarray:
        return a.T @ (a @ v) - b.T @ (b @ v)

    # Block power iteration (subspace iteration with a small block):
    # robust, bounded cost, and for a symmetric operator converges to
    # the largest-magnitude eigenvalue — the spectral norm.  ARPACK can
    # stall on the tightly clustered spectra FD differences produce.
    gen = np.random.default_rng(0)
    block = 4
    v = gen.standard_normal((d, block))
    v, _ = np.linalg.qr(v)
    prev = 0.0
    for _ in range(60):
        w = matmat(v)
        # Rayleigh-Ritz on the block for the dominant eigenvalue.
        h = v.T @ w
        evals = np.linalg.eigvalsh((h + h.T) / 2.0)
        top = float(np.max(np.abs(evals)))
        v, _ = np.linalg.qr(w)
        if prev > 0 and abs(top - prev) <= 1e-5 * top:
            prev = top
            break
        prev = top
    return prev


def relative_covariance_error(a: np.ndarray, b: np.ndarray) -> float:
    """``||A^T A - B^T B||_2 / ||A||_F^2`` — the FD bound is ``1/l``."""
    denom = float(np.sum(a * a))
    if denom == 0.0:
        return 0.0
    return covariance_error(a, b) / denom


def projection_error(
    a: np.ndarray,
    b: np.ndarray,
    k: int | None = None,
    relative: bool = True,
) -> float:
    """Energy of ``A`` outside the top-``k`` sketch directions.

    Parameters
    ----------
    a:
        ``n x d`` data matrix.
    b:
        Sketch matrix whose row space supplies the projection basis.
    k:
        Number of leading sketch directions to project onto (defaults
        to the sketch's numerical rank).
    relative:
        Divide by the optimal rank-``k`` residual ``||A - A_k||_F^2``
        (the standard FD evaluation; 1.0 is optimal).  When the optimal
        residual is zero the absolute residual is returned.

    Returns
    -------
    float
        Relative (or absolute) squared-Frobenius projection residual.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _, sb, vtb = thin_svd(b)
    rank = int(np.sum(sb > (sb[0] * 1e-12 if sb.size and sb[0] > 0 else 0)))
    if rank == 0:
        res = float(np.sum(a * a))
        if not relative:
            return res
        return np.inf if res > 0 else 1.0
    if k is None:
        k = rank
    k = min(k, rank)
    v = vtb[:k].T
    proj = a - (a @ v) @ v.T
    res = float(np.sum(proj * proj))
    if not relative:
        return res
    _, sa, _ = thin_svd(a)
    opt = float(np.sum(sa[k:] ** 2))
    if opt <= res * 1e-15 or opt == 0.0:
        return res if res > 0 else 1.0
    return res / opt


def sketch_rank(b: np.ndarray, rtol: float = 1e-12) -> int:
    """Numerical rank of a sketch (count of non-negligible directions)."""
    b = np.asarray(b, dtype=np.float64)
    if b.size == 0:
        return 0
    s = scipy.linalg.svdvals(b, check_finite=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > s[0] * rtol))
