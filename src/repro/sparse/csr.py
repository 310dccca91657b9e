"""Compressed sparse row (CSR) matrix.

CSR is the CPU-side format of the paper (Fig. 3 caption) and the format every
structural operation in this library works on: row extraction for the matrix
powers kernel, symmetric permutation for reordering, row/column scaling for
matrix balancing, and the reference SpMV.

All kernels are vectorized NumPy or scipy's compiled CSR product; the only
Python-level loops are over rows in operations that are inherently sequential
(none in the hot paths).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from .._validation import as_float64_array, as_index_array

__all__ = ["CsrMatrix", "ReduceatCsr", "csr_from_dense", "eye_csr", "row_sums"]

#: numpy's pairwise sum: 8 strided accumulators, halves above 128 terms.
_UNROLL = 8
_BLOCK = 128
#: The value numpy's pairwise sum of fewer than 8 terms starts from (-0.0
#: on numpy 2.x); a two-term segment of -0.0s reduces to exactly it.
_PAIRWISE_START = float(np.add.reduceat(np.array([-0.0, -0.0]), [0])[0])


def row_sums(products: np.ndarray, indptr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Segmented sum: ``out[i] = sum(products[indptr[i]:indptr[i+1]])``.

    ``out`` has ``indptr.size - 1`` entries; empty rows get 0.0.  Each row is
    summed by ``np.add.reduceat`` (reduceat needs segment starts strictly
    inside the array, so empty rows are masked out).  This is the CSR row
    reduction of the host SpMV; the device prefix SpMV (:class:`ReduceatCsr`)
    reproduces its rounding bit for bit.
    """
    out[:] = 0.0
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if nonempty.size:
        out[nonempty] = np.add.reduceat(products, indptr[:-1][nonempty])
    return out


def _pointer(lengths: np.ndarray) -> np.ndarray:
    """Row pointer (leading 0, running sum) of consecutive segments."""
    ptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


class ReduceatCsr:
    """CSR product over leading rows that rounds exactly like :func:`row_sums`.

    ``np.add.reduceat`` sums a row of products ``p0..pn`` as
    ``p0 + P(p1..pn)``.  numpy's pairwise sum ``P`` adds fewer than 8 terms
    left to right from :data:`_PAIRWISE_START`; for 8 to 128 terms it keeps
    8 strided accumulators ``r_k = p_{1+k} + p_{9+k} + ...`` over the first
    ``n - n%8`` terms, combines them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
    and adds the last ``n%8`` terms left to right; above 128 it recurses on
    halves.  scipy's compiled ``csr_matvec`` adds a row's products left to
    right onto ``y[i]``, so over a re-laid slot order it makes the same
    floating-point operations in the same order:

    * an *accumulator* section, 8 sub-rows per row of 8 to 128 terms, sub-row
      ``k`` holding slots ``1+k, 9+k, ...`` and summed from -0.0 (which adds
      exactly); numpy then applies the 8-way combine elementwise;
    * a *tail* section, one sub-row per row: its last ``n%8`` slots, then
      slot 0, summed onto the combined value (rows under 8 terms onto the
      start value, a single product onto -0.0, empty rows onto 0.0);
    * rows of more than 128 terms stay in slot order and are summed by
      :func:`row_sums` itself.

    Every section lists rows in order, so the leading ``n`` rows are leading
    sub-rows of each; their counts are kept per ``n`` once used (MPK asks
    for ``s`` prefixes).  ``indptr`` stays the row pointer of the given
    layout; ``indices``/``data`` hold each stored entry once, in the
    re-laid order.
    """

    def __init__(self, indptr, indices, data, n_cols: int):
        self.indptr = as_index_array(indptr, "indptr")
        indices = as_index_array(indices, "indices")
        data = np.asarray(data, dtype=np.float64)
        self.n_cols = int(n_cols)
        if not self.indptr.size or self.indptr[0] != 0 or self.indptr[-1] != data.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if indices.shape != data.shape:
            raise ValueError("indices and data must have equal length")
        if indices.size and indices.max() >= self.n_cols:
            raise ValueError("column index out of range")
        counts = np.diff(self.indptr)
        long = counts > _BLOCK + 1
        terms = counts - 1
        head = np.where(long | (terms < _UNROLL), 0, terms - terms % _UNROLL)
        self._acc_rows = np.flatnonzero(head)
        self._long_rows = np.flatnonzero(long)
        # Tails start from numpy's start value, except empty rows (0.0, as
        # in row_sums) and single products (-0.0, which adds exactly).
        start = np.where(counts > 1, _PAIRWISE_START, -0.0)
        start[counts == 0] = 0.0
        self._start_rows = np.flatnonzero(np.signbit(start) != np.signbit(_PAIRWISE_START))
        self._start_vals = start[self._start_rows]
        # n -> how many rows of each kind lie among the leading n rows.
        self._prefix: dict[int, tuple[int, int, int]] = {}

        # order[p] = the slot stored at position p of the re-laid arrays.
        order = np.empty(data.size, dtype=np.int64)
        starts = self.indptr[:-1]
        # Accumulator sub-row k of a row with head = 8q holds its slots
        # 1+k, 9+k, ..., 1+k+8(q-1): slots 1..head as a (q, 8) block,
        # transposed.  Rows are placed a group of equal q at a time.
        q = head[self._acc_rows] // _UNROLL
        self._acc_ptr = _pointer(np.repeat(q, _UNROLL))
        for width in np.unique(q):
            pick = np.flatnonzero(q == width)
            block = 1 + np.arange(_UNROLL)[:, None] + _UNROLL * np.arange(width)
            dst = self._acc_ptr[_UNROLL * pick][:, None] + np.arange(block.size)
            order[dst] = starts[self._acc_rows[pick]][:, None] + block.ravel()
        # Tail of a row: slots head+1 .. count-1, then slot 0.
        tail_len = np.where(long, 0, counts - head)
        lo = self._acc_ptr[-1]
        self._tail_ptr = lo + _pointer(tail_len)
        hi = self._tail_ptr[-1]
        order[lo:hi] = np.arange(lo, hi) + np.repeat(
            starts + head + 1 - self._tail_ptr[:-1], tail_len
        )
        order[self._tail_ptr[1:][tail_len > 0] - 1] = starts[tail_len > 0]
        # Long rows in their own slot order.
        lengths = counts[self._long_rows]
        self._long_ptr = hi + _pointer(lengths)
        order[hi:] = np.arange(hi, data.size) + np.repeat(
            starts[self._long_rows] - self._long_ptr[:-1], lengths
        )
        self.indices = indices[order]
        self.data = data[order]

    def matvec_prefix(self, x: np.ndarray, out: np.ndarray, n_rows: int) -> np.ndarray:
        """``out[:n_rows] = (A @ x)[:n_rows]``, bit-identical to
        ``row_sums(data * x[indices], indptr)`` over the same rows.

        ``x`` and ``out`` are float64 vectors; only the leading ``n_rows``
        entries of ``out`` are written.
        """
        if not 0 <= n_rows < self.indptr.size:
            raise ValueError(f"n_rows out of range: {n_rows}")
        if x.shape != (x.size,) or x.size < self.n_cols or out.size < n_rows:
            raise ValueError("x or out too short for this operator")
        counts = self._prefix.get(n_rows)
        if counts is None:
            rows = (self._acc_rows, self._start_rows, self._long_rows)
            counts = tuple(int(np.searchsorted(r, n_rows)) for r in rows)
            self._prefix[n_rows] = counts
        n_acc, n_start, n_long = counts
        acc = np.full(_UNROLL * n_acc, -0.0)
        _sparsetools.csr_matvec(
            acc.size, x.size, self._acc_ptr, self.indices, self.data, x, acc
        )
        pairs = acc[0::2] + acc[1::2]
        quads = pairs[0::2] + pairs[1::2]
        y = out[:n_rows]
        y.fill(_PAIRWISE_START)
        y[self._start_rows[:n_start]] = self._start_vals[:n_start]
        y[self._acc_rows[:n_acc]] = quads[0::2] + quads[1::2]
        _sparsetools.csr_matvec(
            n_rows, x.size, self._tail_ptr, self.indices, self.data, x, y
        )
        if n_long:
            ptr = self._long_ptr[: n_long + 1]
            lo, hi = ptr[0], ptr[-1]
            y[self._long_rows[:n_long]] = row_sums(
                self.data[lo:hi] * x[self.indices[lo:hi]], ptr - lo, np.empty(n_long)
            )
        return out


class CsrMatrix:
    """Sparse matrix in compressed sparse row format.

    Parameters
    ----------
    shape
        ``(n_rows, n_cols)``.
    indptr
        Row pointer array of length ``n_rows + 1``; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices
        Column indices, not required to be sorted within a row unless
        stated by the producing routine (``CooMatrix.to_csr`` sorts them).
    data
        Nonzero values, parallel to ``indices``.
    """

    def __init__(self, shape, indptr, indices, data):
        n_rows, n_cols = int(shape[0]), int(shape[1])
        self.shape = (n_rows, n_cols)
        self.indptr = as_index_array(indptr, "indptr")
        self.indices = as_index_array(indices, "indices")
        self.data = as_float64_array(data, "data")
        if self.indptr.shape != (n_rows + 1,):
            raise ValueError(
                f"indptr must have length n_rows+1={n_rows + 1}, got {self.indptr.size}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have equal length")
        # Negative indices are rejected by as_index_array above; they would
        # otherwise silently wrap around via fancy indexing in
        # matvec/scale_cols, producing wrong results instead of an error.
        if self.indices.size and self.indices.max() >= n_cols:
            raise ValueError("column index out of range")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.size)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def row_nnz(self) -> np.ndarray:
        """Number of stored entries in each row (length ``n_rows``)."""
        return np.diff(self.indptr)

    def copy(self) -> "CsrMatrix":
        """Deep copy."""
        return CsrMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data.copy()
        )

    # ------------------------------------------------------------------
    # Numerical kernels
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sparse matrix-vector product ``y = A @ x``.

        Implemented with the segmented sum :func:`row_sums` so the whole
        product is a handful of vectorized operations.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.n_cols:
            raise ValueError(
                f"dimension mismatch: matrix has {self.n_cols} columns, x has {x.shape[0]}"
            )
        if out is None:
            out = np.empty(self.n_rows, dtype=np.float64)
        return row_sums(self.data * x[self.indices], self.indptr, out)

    def matvec_rows(self, x: np.ndarray, n_active_rows: int, out: np.ndarray) -> np.ndarray:
        """SpMV restricted to the leading ``n_active_rows`` rows.

        Used by the matrix powers kernel, whose per-step working set is a
        prefix of the level-ordered extended local matrix.  ``out`` must have
        length >= ``n_active_rows``; only that prefix is written.
        """
        if n_active_rows < 0 or n_active_rows > self.n_rows:
            raise ValueError(f"n_active_rows out of range: {n_active_rows}")
        end = self.indptr[n_active_rows]
        row_sums(
            self.data[:end] * x[self.indices[:end]],
            self.indptr[: n_active_rows + 1],
            out[:n_active_rows],
        )
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Transpose product ``x = A.T @ y`` (scatter-add formulation)."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape[0] != self.n_rows:
            raise ValueError("dimension mismatch in rmatvec")
        out = np.zeros(self.n_cols, dtype=np.float64)
        if self.nnz == 0:
            return out
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        np.add.at(out, self.indices, self.data * y[row_ids])
        return out

    def to_dense(self) -> np.ndarray:
        """Return the dense equivalent."""
        out = np.zeros(self.shape, dtype=np.float64)
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        out[row_ids, self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal (zeros where absent)."""
        n = min(self.shape)
        diag = np.zeros(n, dtype=np.float64)
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        mask = row_ids == self.indices
        diag_rows = row_ids[mask]
        keep = diag_rows < n
        diag[diag_rows[keep]] = self.data[mask][keep]
        return diag

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def extract_rows(self, row_ids) -> "CsrMatrix":
        """Return the submatrix ``A(rows, :)`` in the given row order.

        This is the paper's :math:`A(\\mathbf{i}, :)` operation used to build
        local and boundary submatrices for MPK.
        """
        row_ids = as_index_array(row_ids, "row_ids")
        if row_ids.size and row_ids.max() >= self.n_rows:
            raise ValueError("row index out of range")
        counts = np.diff(self.indptr)[row_ids]
        new_indptr = np.zeros(row_ids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=new_indptr[1:])
        total = int(new_indptr[-1])
        new_indices = np.empty(total, dtype=np.int64)
        new_data = np.empty(total, dtype=np.float64)
        # Gather each selected row's slice.  Build a single index vector:
        # for row r with slice [a, b), we need positions a..b-1.
        starts = self.indptr[row_ids]
        if total:
            offsets = np.arange(total) - np.repeat(new_indptr[:-1], counts)
            src = np.repeat(starts, counts) + offsets
            new_indices[:] = self.indices[src]
            new_data[:] = self.data[src]
        return CsrMatrix((row_ids.size, self.n_cols), new_indptr, new_indices, new_data)

    def transpose(self) -> "CsrMatrix":
        """Return ``A.T`` as a new CSR matrix (column indices sorted)."""
        n_rows, n_cols = self.shape
        indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.add.at(indptr, self.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        row_ids = np.repeat(np.arange(n_rows), np.diff(self.indptr))
        order = np.argsort(self.indices, kind="stable")
        return CsrMatrix(
            (n_cols, n_rows), indptr, row_ids[order], self.data[order]
        )

    def permute(self, perm) -> "CsrMatrix":
        """Symmetric permutation ``A(perm, perm)`` for a square matrix.

        ``perm[k]`` is the original index of the row/column placed at
        position ``k`` (i.e. "new order lists old ids"), matching the output
        convention of :func:`repro.order.rcm`.
        """
        perm = as_index_array(perm, "perm")
        if self.n_rows != self.n_cols:
            raise ValueError("permute requires a square matrix")
        if perm.size != self.n_rows:
            raise ValueError("perm has wrong length")
        if perm.size and perm.max() >= self.n_rows:
            raise ValueError("perm entries must be in [0, n_rows)")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        rows_perm = self.extract_rows(perm)
        new_indices = inv[rows_perm.indices]
        # Keep column indices sorted within each row for determinism.
        result = CsrMatrix(self.shape, rows_perm.indptr, new_indices, rows_perm.data)
        return result.sort_indices()

    def sort_indices(self) -> "CsrMatrix":
        """Return a copy with column indices sorted within each row."""
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        order = np.lexsort((self.indices, row_ids))
        return CsrMatrix(
            self.shape, self.indptr.copy(), self.indices[order], self.data[order]
        )

    def scale_rows(self, scale: np.ndarray) -> "CsrMatrix":
        """Return ``diag(scale) @ A``."""
        scale = as_float64_array(scale, "scale")
        if scale.shape != (self.n_rows,):
            raise ValueError("scale has wrong length")
        row_ids = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        return CsrMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data * scale[row_ids]
        )

    def scale_cols(self, scale: np.ndarray) -> "CsrMatrix":
        """Return ``A @ diag(scale)``."""
        scale = as_float64_array(scale, "scale")
        if scale.shape != (self.n_cols,):
            raise ValueError("scale has wrong length")
        return CsrMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data * scale[self.indices]
        )

    def row_norms(self, ord: float = 2.0) -> np.ndarray:
        """Per-row vector norms of the stored values."""
        out = np.zeros(self.n_rows, dtype=np.float64)
        nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
        if not nonempty.size:
            return out
        if ord == 2.0:
            sums = np.add.reduceat(self.data**2, self.indptr[:-1][nonempty])
            out[nonempty] = np.sqrt(sums)
        elif ord == 1.0:
            out[nonempty] = np.add.reduceat(np.abs(self.data), self.indptr[:-1][nonempty])
        elif ord == np.inf:
            out[nonempty] = np.maximum.reduceat(np.abs(self.data), self.indptr[:-1][nonempty])
        else:
            raise ValueError(f"unsupported norm order {ord!r}")
        return out

    def col_norms(self, ord: float = 2.0) -> np.ndarray:
        """Per-column vector norms of the stored values."""
        out = np.zeros(self.n_cols, dtype=np.float64)
        if self.nnz == 0:
            return out
        if ord == 2.0:
            np.add.at(out, self.indices, self.data**2)
            np.sqrt(out, out=out)
        elif ord == 1.0:
            np.add.at(out, self.indices, np.abs(self.data))
        elif ord == np.inf:
            np.maximum.at(out, self.indices, np.abs(self.data))
        else:
            raise ValueError(f"unsupported norm order {ord!r}")
        return out

    def add_scaled_identity(self, alpha: float) -> "CsrMatrix":
        """Return ``A + alpha * I`` for a square matrix.

        Implemented through COO so that rows lacking a stored diagonal gain
        one; used by shifted generators and the Newton-basis tests.
        """
        from .coo import CooMatrix

        if self.n_rows != self.n_cols:
            raise ValueError("add_scaled_identity requires a square matrix")
        n = self.n_rows
        row_ids = np.repeat(np.arange(n), np.diff(self.indptr))
        rows = np.concatenate([row_ids, np.arange(n)])
        cols = np.concatenate([self.indices, np.arange(n)])
        data = np.concatenate([self.data, np.full(n, float(alpha))])
        return CooMatrix(self.shape, rows, cols, data).to_csr()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"


def csr_from_dense(dense: np.ndarray, tol: float = 0.0) -> CsrMatrix:
    """Build a :class:`CsrMatrix` from a dense array.

    Entries with ``abs(value) <= tol`` are dropped.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("dense must be 2-D")
    mask = np.abs(dense) > tol
    rows, cols = np.nonzero(mask)
    indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CsrMatrix(dense.shape, indptr, cols.astype(np.int64), dense[mask])


def eye_csr(n: int, value: float = 1.0) -> CsrMatrix:
    """Return ``value * I`` of order ``n`` in CSR format."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return CsrMatrix(
        (n, n),
        np.arange(n + 1, dtype=np.int64),
        np.arange(n, dtype=np.int64),
        np.full(n, float(value)),
    )
