"""Least-squares solvers for the upper Hessenberg projection problem.

GMRES updates its solution by solving ``min_y || beta e_1 - H y ||`` with H
the ``(j+1) x j`` upper Hessenberg matrix.  :class:`GivensHessenbergSolver`
maintains the QR factorization of H incrementally with Givens rotations —
one rotation per new column, ``~3(m+1)^2`` flops per cycle exactly as the
paper counts — and exposes the running residual norm for free.

:func:`hessenberg_lstsq` is the one-shot variant CA-GMRES uses after
assembling the recovered Hessenberg matrix of a whole block.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GivensHessenbergSolver", "hessenberg_lstsq"]


class GivensHessenbergSolver:
    """Incremental Givens-rotation solver for GMRES's least squares.

    Parameters
    ----------
    m
        Maximum number of columns (the restart parameter).
    beta
        Norm of the initial residual; the right-hand side is ``beta e_1``.
    """

    def __init__(self, m: int, beta: float):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = int(m)
        self._r = np.zeros((m, m), dtype=np.float64)  # triangular factor
        self._g = np.zeros(m + 1, dtype=np.float64)  # rotated rhs
        self._g[0] = float(beta)
        # Python floats, not numpy scalars: the replay loop in append_column
        # is the same IEEE arithmetic without numpy's per-operation overhead.
        self._cos: list[float] = []
        self._sin: list[float] = []
        self.size = 0

    def append_column(self, h: np.ndarray) -> float:
        """Add Hessenberg column ``j`` (length ``j+2``); returns |residual|.

        ``h[:j+1]`` are the projection coefficients, ``h[j+1]`` the
        subdiagonal entry.
        """
        j = self.size
        if j >= self.m:
            raise RuntimeError("solver is full; restart required")
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (j + 2,):
            raise ValueError(f"expected column of length {j + 2}, got {h.shape}")
        col = h.tolist()
        b = col.pop()
        # Apply the existing rotations to the new column.
        for i, (c, s) in enumerate(zip(self._cos, self._sin)):
            temp = c * col[i] + s * col[i + 1]
            col[i + 1] = -s * col[i] + c * col[i + 1]
            col[i] = temp
        # New rotation to annihilate the subdiagonal entry h[j+1]
        # (np.hypot: math.hypot may round differently).
        a = col[j]
        r = float(np.hypot(a, b))
        if r == 0.0:
            c, s = 1.0, 0.0
        else:
            c, s = a / r, b / r
        self._cos.append(c)
        self._sin.append(s)
        col[j] = r
        self._r[: j + 1, j] = col
        # Rotate the right-hand side.
        g_j = self._g[j]
        self._g[j] = c * g_j
        self._g[j + 1] = -s * g_j
        self.size += 1
        return abs(float(self._g[self.size]))

    @property
    def residual_norm(self) -> float:
        """Current least-squares residual norm (exact, no extra work)."""
        return abs(float(self._g[self.size]))

    def solve(self) -> np.ndarray:
        """Back-substitute for the current minimizer ``y`` (length size)."""
        j = self.size
        if j == 0:
            return np.empty(0, dtype=np.float64)
        r = self._r[:j, :j]
        y = np.zeros(j, dtype=np.float64)
        for i in range(j - 1, -1, -1):
            y[i] = (self._g[i] - r[i, i + 1 :] @ y[i + 1 :]) / r[i, i]
        return y


def hessenberg_lstsq(H: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Solve ``min_y || beta e_1 - H y ||`` for a ``(t+1) x t`` Hessenberg H.

    Returns ``(y, residual_norm)``.  Used by CA-GMRES on the recovered
    Hessenberg matrix after each block.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1] + 1:
        raise ValueError(f"H must be (t+1) x t, got {H.shape}")
    t = H.shape[1]
    solver = GivensHessenbergSolver(t, beta)
    for j in range(t):
        solver.append_column(H[: j + 2, j])
    return solver.solve(), solver.residual_norm
