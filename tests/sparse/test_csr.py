"""Tests for the CSR matrix."""

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix, ReduceatCsr, csr_from_dense, eye_csr

from ..conftest import assert_same_bits, csr_prefix_problems, csr_prefix_reduceat


def random_csr(n_rows, n_cols, nnz, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    vals = rng.standard_normal(nnz)
    return CooMatrix((n_rows, n_cols), rows, cols, vals).to_csr()


class TestConstruction:
    def test_eye(self):
        np.testing.assert_array_equal(eye_csr(3).to_dense(), np.eye(3))

    def test_eye_scaled(self):
        np.testing.assert_array_equal(eye_csr(2, 5.0).to_dense(), 5.0 * np.eye(2))

    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((6, 4))
        dense[rng.random((6, 4)) < 0.5] = 0.0
        np.testing.assert_array_equal(csr_from_dense(dense).to_dense(), dense)

    def test_from_dense_tolerance(self):
        dense = np.array([[1e-12, 1.0], [0.0, 2.0]])
        assert csr_from_dense(dense, tol=1e-10).nnz == 2

    def test_rejects_bad_indptr_length(self):
        with pytest.raises(ValueError, match="indptr"):
            CsrMatrix((2, 2), [0, 1], [0], [1.0])

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CsrMatrix((3, 3), [0, 2, 1, 2], [0, 1], [1.0, 2.0])

    def test_rejects_indptr_nnz_mismatch(self):
        with pytest.raises(ValueError, match="end at nnz"):
            CsrMatrix((2, 2), [0, 1, 3], [0, 1], [1.0, 2.0])

    def test_rejects_col_out_of_range(self):
        with pytest.raises(ValueError, match="column index"):
            CsrMatrix((2, 2), [0, 1, 2], [0, 2], [1.0, 2.0])

    def test_rejects_negative_col_index(self):
        # A negative index would silently wrap in matvec's fancy indexing
        # (selecting the *last* column) instead of failing construction.
        with pytest.raises(ValueError, match="indices.*negative"):
            CsrMatrix((2, 2), [0, 1, 2], [0, -1], [1.0, 2.0])

    def test_rejects_negative_indptr_start(self):
        with pytest.raises(ValueError, match="indptr.*negative"):
            CsrMatrix((2, 2), [-1, 1, 2], [0, 1], [1.0, 2.0])

    def test_extract_rows_rejects_negative(self):
        A = random_csr(4, 4, 8)
        with pytest.raises(ValueError, match="row_ids.*negative"):
            A.extract_rows([1, -2])

    def test_permute_rejects_negative(self):
        A = random_csr(3, 3, 5)
        with pytest.raises(ValueError, match="perm.*negative"):
            A.permute([0, -1, 2])

    def test_permute_rejects_out_of_range(self):
        A = random_csr(3, 3, 5)
        with pytest.raises(ValueError, match="perm entries"):
            A.permute([0, 3, 2])


class TestMatvec:
    def test_against_dense(self):
        A = random_csr(8, 6, 30)
        x = np.random.default_rng(2).standard_normal(6)
        np.testing.assert_allclose(A.matvec(x), A.to_dense() @ x, atol=1e-14)

    def test_empty_rows_give_zero(self):
        A = CooMatrix((3, 3), [0], [0], [5.0]).to_csr()
        y = A.matvec(np.ones(3))
        np.testing.assert_array_equal(y, [5.0, 0.0, 0.0])

    def test_out_parameter(self):
        A = eye_csr(3, 2.0)
        out = np.full(3, 99.0)
        y = A.matvec(np.ones(3), out=out)
        assert y is out
        np.testing.assert_array_equal(out, [2.0, 2.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            eye_csr(3).matvec(np.ones(4))

    def test_empty_matrix(self):
        A = CooMatrix((3, 3)).to_csr()
        np.testing.assert_array_equal(A.matvec(np.ones(3)), np.zeros(3))

    def test_matvec_rows_prefix(self):
        A = random_csr(10, 10, 40, seed=3)
        x = np.random.default_rng(4).standard_normal(10)
        full = A.matvec(x)
        out = np.zeros(10)
        A.matvec_rows(x, 6, out)
        np.testing.assert_allclose(out[:6], full[:6], atol=1e-14)

    def test_matvec_rows_out_of_range(self):
        A = eye_csr(3)
        with pytest.raises(ValueError):
            A.matvec_rows(np.ones(3), 4, np.zeros(4))

    def test_rmatvec_against_dense(self):
        A = random_csr(8, 6, 30, seed=5)
        y = np.random.default_rng(6).standard_normal(8)
        np.testing.assert_allclose(A.rmatvec(y), A.to_dense().T @ y, atol=1e-14)


class TestStructuralOps:
    def test_extract_rows(self):
        A = random_csr(9, 5, 25, seed=7)
        rows = np.array([4, 1, 7])
        sub = A.extract_rows(rows)
        np.testing.assert_array_equal(sub.to_dense(), A.to_dense()[rows])

    def test_extract_rows_empty_selection(self):
        A = random_csr(5, 5, 10)
        sub = A.extract_rows(np.array([], dtype=np.int64))
        assert sub.shape == (0, 5)

    def test_extract_rows_with_empty_rows(self):
        A = CooMatrix((4, 4), [0, 3], [1, 2], [1.0, 2.0]).to_csr()
        sub = A.extract_rows(np.array([1, 3]))
        np.testing.assert_array_equal(
            sub.to_dense(), [[0, 0, 0, 0], [0, 0, 2.0, 0]]
        )

    def test_extract_rows_out_of_range(self):
        with pytest.raises(ValueError):
            eye_csr(3).extract_rows(np.array([3]))

    def test_transpose(self):
        A = random_csr(7, 4, 15, seed=8)
        np.testing.assert_array_equal(A.transpose().to_dense(), A.to_dense().T)

    def test_transpose_twice_identity(self):
        A = random_csr(6, 6, 18, seed=9)
        np.testing.assert_array_equal(
            A.transpose().transpose().to_dense(), A.to_dense()
        )

    def test_permute(self):
        A = random_csr(6, 6, 20, seed=10)
        perm = np.array([3, 0, 5, 1, 4, 2])
        P = A.permute(perm)
        np.testing.assert_array_equal(P.to_dense(), A.to_dense()[np.ix_(perm, perm)])

    def test_permute_requires_square(self):
        A = random_csr(3, 4, 5)
        with pytest.raises(ValueError, match="square"):
            A.permute(np.arange(3))

    def test_permute_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            eye_csr(3).permute(np.arange(2))

    def test_sort_indices(self):
        A = CsrMatrix((1, 4), [0, 3], [3, 0, 2], [1.0, 2.0, 3.0])
        S = A.sort_indices()
        np.testing.assert_array_equal(S.indices, [0, 2, 3])
        np.testing.assert_array_equal(S.to_dense(), A.to_dense())

    def test_diagonal(self):
        A = csr_from_dense(np.array([[1.0, 2.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(A.diagonal(), [1.0, 0.0])

    def test_add_scaled_identity(self):
        A = random_csr(5, 5, 12, seed=11)
        B = A.add_scaled_identity(2.5)
        np.testing.assert_allclose(B.to_dense(), A.to_dense() + 2.5 * np.eye(5))

    def test_copy_is_deep(self):
        A = eye_csr(3)
        B = A.copy()
        B.data[0] = 99.0
        assert A.data[0] == 1.0


class TestScalingAndNorms:
    def test_scale_rows(self):
        A = random_csr(4, 4, 10, seed=12)
        s = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(
            A.scale_rows(s).to_dense(), np.diag(s) @ A.to_dense()
        )

    def test_scale_cols(self):
        A = random_csr(4, 4, 10, seed=13)
        s = np.array([1.0, 0.5, 2.0, 3.0])
        np.testing.assert_allclose(
            A.scale_cols(s).to_dense(), A.to_dense() @ np.diag(s)
        )

    def test_scale_rows_wrong_length(self):
        with pytest.raises(ValueError):
            eye_csr(3).scale_rows(np.ones(2))

    @pytest.mark.parametrize("ord", [1.0, 2.0, np.inf])
    def test_row_norms(self, ord):
        A = random_csr(5, 6, 15, seed=14)
        dense = A.to_dense()
        expected = np.linalg.norm(dense, ord=ord, axis=1)
        # row_norms only sees stored entries; with random duplicates summed
        # the dense comparison is exact.
        np.testing.assert_allclose(A.row_norms(ord), expected, atol=1e-14)

    @pytest.mark.parametrize("ord", [1.0, 2.0, np.inf])
    def test_col_norms(self, ord):
        A = random_csr(5, 6, 15, seed=15)
        dense = A.to_dense()
        expected = np.linalg.norm(dense, ord=ord, axis=0)
        np.testing.assert_allclose(A.col_norms(ord), expected, atol=1e-14)

    def test_row_norms_bad_order(self):
        with pytest.raises(ValueError):
            eye_csr(2).row_norms(3.0)


def check_every_prefix(indptr, indices, data, x):
    """The operator equals gather + reduceat for every prefix length and
    leaves the rows past the prefix untouched."""
    op = ReduceatCsr(indptr, indices, data, x.size)
    n_rows = indptr.size - 1
    for n in range(n_rows + 1):
        out = np.full(n_rows + 1, 7.0)
        with np.errstate(invalid="ignore", over="ignore"):
            op.matvec_prefix(x, out, n)
        assert_same_bits(out[:n], csr_prefix_reduceat(indptr, indices, data, x, n))
        assert np.all(out[n:] == 7.0)


@settings(max_examples=150, deadline=None)
@given(csr_prefix_problems())
# All-(-0.0) rows of the lengths whose sign rules differ (single product,
# numpy's start value, accumulators); NaN, +-inf and -0.0 in x.
@example(
    (
        np.array([0, 0, 1, 3, 12, 142]),
        np.zeros(142, dtype=np.int64),
        np.full(142, -0.0),
        np.array([2.0]),
    )
)
@example(
    (
        np.array([0, 1, 3, 12, 142]),
        np.tile(np.arange(4), 36)[:142],
        np.linspace(-3.0, 5.0, 142),
        np.array([np.nan, -0.0, np.inf, -np.inf]),
    )
)
def test_reduceat_csr_bit_identical_to_reduceat(problem):
    check_every_prefix(*problem)


def test_reduceat_csr_every_row_length():
    """Rows of every length 0..300, values over 17 decades."""
    rng = np.random.default_rng(4)
    indptr = np.concatenate([[0], np.cumsum(rng.permutation(301))])
    nnz = int(indptr[-1])
    indices = rng.integers(0, 50, nnz)
    data = rng.standard_normal(nnz) * 10.0 ** rng.integers(-8, 9, nnz)
    check_every_prefix(indptr, indices, data, rng.standard_normal(50))


class TestReduceatCsrLayout:
    def test_single_copy_of_the_entries(self):
        """The re-laid arrays hold every stored entry once, under the
        unchanged row pointer."""
        A = random_csr(40, 30, 900, seed=2)
        op = ReduceatCsr(A.indptr, A.indices, A.data, A.n_cols)
        assert op.indptr is A.indptr
        assert op.indices.size == op.data.size == A.nnz
        assert sorted(zip(op.indices.tolist(), op.data.tolist())) == sorted(
            zip(A.indices.tolist(), A.data.tolist())
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="column index"):
            ReduceatCsr([0, 1], [3], [1.0], 3)
        with pytest.raises(ValueError, match="indptr"):
            ReduceatCsr([0, 2], [0], [1.0], 1)
        op = ReduceatCsr([0, 1], [0], [1.0], 1)
        with pytest.raises(ValueError, match="n_rows"):
            op.matvec_prefix(np.ones(1), np.zeros(2), 2)
        with pytest.raises(ValueError, match="too short"):
            op.matvec_prefix(np.ones(0), np.zeros(1), 1)
        with pytest.raises(ValueError, match="too short"):
            op.matvec_prefix(np.ones(1), np.zeros(0), 1)
