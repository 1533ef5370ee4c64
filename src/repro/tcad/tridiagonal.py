"""Stacked tridiagonal solve shared by the 1-D Poisson and dd1d solvers."""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded


def stacked_tridiagonal_solve(lower: np.ndarray, diag: np.ndarray,
                              upper: np.ndarray,
                              rhs: np.ndarray) -> np.ndarray:
    """Solve ``k`` independent tridiagonal systems in one LAPACK call.

    Inputs are ``(k, n)`` blocks: ``diag[s, i]`` is ``A_s[i, i]``,
    ``upper[s, i]`` is ``A_s[i, i+1]`` (``upper[:, -1]`` unused, must
    be 0) and ``lower[s, i]`` is ``A_s[i, i-1]`` (``lower[:, 0]``
    unused, must be 0).  Stacking the systems along the diagonal keeps
    the compound matrix tridiagonal — the cross-block couplings are the
    unused zero entries — so one banded factorisation of size ``k*n``
    does exactly the per-block elimination, with a Python/LAPACK call
    count independent of ``k``.  The zero couplings never trigger a
    pivot and contribute exact zeros, so each block's solution is
    bit-identical to solving that block on its own.
    """
    k, n = diag.shape
    up = upper.reshape(k * n)
    lo = lower.reshape(k * n)
    ab = np.zeros((3, k * n))
    ab[0, 1:] = up[:-1]
    ab[1, :] = diag.reshape(k * n)
    ab[2, :-1] = lo[1:]
    return solve_banded((1, 1), ab, rhs.reshape(k * n)).reshape(k, n)
