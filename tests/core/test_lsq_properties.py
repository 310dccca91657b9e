"""Property-based tests (hypothesis) for least squares and balancing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.balance import balance_matrix
from repro.core.lsq import GivensHessenbergSolver, hessenberg_lstsq
from repro.sparse.csr import csr_from_dense

from ..conftest import assert_same_bits


@st.composite
def hessenberg_problems(draw):
    t = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    H = np.triu(rng.standard_normal((t + 1, t)), k=-1)
    # Keep it comfortably full rank.
    H[:t, :t] += np.diag(np.sign(np.diag(H[:t, :t]) + 0.5) * (3.0 + np.arange(t)))
    beta = float(draw(st.floats(0.1, 100.0)))
    return H, beta


@settings(max_examples=50, deadline=None)
@given(hessenberg_problems())
def test_hessenberg_lstsq_matches_numpy(problem):
    H, beta = problem
    t = H.shape[1]
    y, res = hessenberg_lstsq(H, beta)
    rhs = np.zeros(t + 1)
    rhs[0] = beta
    y_ref, *_ = np.linalg.lstsq(H, rhs, rcond=None)
    np.testing.assert_allclose(y, y_ref, atol=1e-8, rtol=1e-6)
    assert res == pytest.approx(np.linalg.norm(rhs - H @ y_ref), abs=1e-8)


@settings(max_examples=50, deadline=None)
@given(hessenberg_problems())
def test_incremental_equals_batch(problem):
    """Feeding columns one at a time == solving the full problem."""
    H, beta = problem
    t = H.shape[1]
    solver = GivensHessenbergSolver(t, beta)
    for j in range(t):
        solver.append_column(H[: j + 2, j])
    y_inc = solver.solve()
    y_batch, _ = hessenberg_lstsq(H, beta)
    np.testing.assert_allclose(y_inc, y_batch, atol=1e-10, rtol=1e-8)


@settings(max_examples=50, deadline=None)
@given(hessenberg_problems())
def test_residual_estimates_monotone(problem):
    """The Givens residual never increases as columns are added."""
    H, beta = problem
    t = H.shape[1]
    solver = GivensHessenbergSolver(t, beta)
    last = beta
    for j in range(t):
        est = solver.append_column(H[: j + 2, j])
        assert est <= last + 1e-9 * beta
        last = est


@st.composite
def square_matrices(draw):
    n = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n))
    dense += np.diag(np.sign(np.diag(dense)) * n)
    # Optionally apply brutal row scaling.
    if draw(st.booleans()):
        dense *= np.geomspace(1.0, 1e8, n)[:, None]
    return dense


@settings(max_examples=50, deadline=None)
@given(square_matrices(), st.integers(0, 2**31 - 1))
def test_balance_preserves_solutions(dense, seed):
    """Solving the balanced system and unscaling == solving the original."""
    A = csr_from_dense(dense)
    bal = balance_matrix(A)
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(dense.shape[0])
    b = dense @ x_true
    y = np.linalg.solve(bal.matrix.to_dense(), bal.scale_rhs(b))
    x = bal.unscale_solution(y)
    np.testing.assert_allclose(x, x_true, rtol=1e-5, atol=1e-7)


@settings(max_examples=50, deadline=None)
@given(square_matrices())
def test_balance_column_norms_unit(dense):
    A = csr_from_dense(dense)
    bal = balance_matrix(A)
    norms = bal.matrix.col_norms()
    nonzero = norms > 0
    np.testing.assert_allclose(norms[nonzero], 1.0, atol=1e-12)


class NumpyScalarGivens:
    """Reference: the rotation loop on numpy scalars that
    ``GivensHessenbergSolver.append_column`` ran before it moved to Python
    floats.  The solver must keep matching it bit for bit."""

    def __init__(self, m, beta):
        self.r = np.zeros((m, m))
        self.g = np.zeros(m + 1)
        self.g[0] = float(beta)
        self.cos = np.zeros(m)
        self.sin = np.zeros(m)
        self.size = 0

    def append_column(self, h):
        j = self.size
        col = h[: j + 1].copy()
        for i in range(j):
            c, s = self.cos[i], self.sin[i]
            temp = c * col[i] + s * col[i + 1]
            col[i + 1] = -s * col[i] + c * col[i + 1]
            col[i] = temp
        a, b = col[j], h[j + 1]
        r = np.hypot(a, b)
        if r == 0.0:
            c, s = 1.0, 0.0
        else:
            c, s = a / r, b / r
        self.cos[j], self.sin[j] = c, s
        col[j] = r
        self.r[: j + 1, j] = col
        g_j = self.g[j]
        self.g[j] = c * g_j
        self.g[j + 1] = -s * g_j
        self.size += 1
        return abs(float(self.g[self.size]))

    def solve(self):
        j = self.size
        r = self.r[:j, :j]
        y = np.zeros(j)
        for i in range(j - 1, -1, -1):
            y[i] = (self.g[i] - r[i, i + 1 :] @ y[i + 1 :]) / r[i, i]
        return y


@st.composite
def hessenberg_columns(draw):
    """Up to 180 columns (dielfilter's m) of widely scaled entries, with
    zero subdiagonals (the ``r == 0`` branch once the column is zero too)
    and whole zero columns."""
    m = draw(st.integers(1, 180))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = np.triu(rng.standard_normal((m + 1, m)), k=-1)
    H *= 10.0 ** rng.integers(-6, 7, (m + 1, m))
    sub = np.arange(m)
    H[sub + 1, sub] *= rng.random(m) >= 0.2
    H[:, rng.random(m) < 0.1] = 0.0
    beta = draw(st.floats(1e-3, 1e3))
    return H, beta


@settings(max_examples=40, deadline=None)
@given(hessenberg_columns())
def test_givens_bit_identical_to_numpy_scalar_loop(problem):
    H, beta = problem
    m = H.shape[1]
    solver = GivensHessenbergSolver(m, beta)
    ref = NumpyScalarGivens(m, beta)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(m):
            h = H[: j + 2, j]
            assert_same_bits(solver.append_column(h), ref.append_column(h))
            assert_same_bits(solver.residual_norm, abs(float(ref.g[j + 1])))
        assert_same_bits(solver.solve(), ref.solve())
