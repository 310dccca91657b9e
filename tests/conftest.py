"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.dist.multivector import DistMultiVector
from repro.gpu.context import MultiGpuContext
from repro.order.partition import Partition, block_row_partition


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=[1, 2, 3], ids=["1gpu", "2gpu", "3gpu"])
def ctx(request):
    """A context for each GPU count the paper evaluates."""
    return MultiGpuContext(request.param)


@pytest.fixture
def ctx1():
    return MultiGpuContext(1)


@pytest.fixture
def ctx2():
    return MultiGpuContext(2)


@pytest.fixture
def ctx3():
    return MultiGpuContext(3)


def make_dist_multivector(
    ctx: MultiGpuContext, dense: np.ndarray, partition: Partition | None = None
) -> tuple[DistMultiVector, Partition]:
    """Distribute a dense n x k array as a multivector."""
    n, k = dense.shape
    if partition is None:
        partition = block_row_partition(n, ctx.n_gpus)
    mv = DistMultiVector(ctx, partition, k)
    for d in range(ctx.n_gpus):
        mv.local[d].data[...] = dense[partition.rows_of(d)]
    return mv, partition


def gather_multivector(mv: DistMultiVector) -> np.ndarray:
    """Host copy of a distributed multivector (test-side, uncosted)."""
    out = np.empty((mv.n_rows, mv.n_cols))
    for d in range(mv.ctx.n_gpus):
        out[mv.partition.rows_of(d)] = mv.local[d].data
    return out


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Bit-for-bit equality: identical NaN mask, identical bits elsewhere."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(
        actual[~nan].view(np.int64), expected[~nan].view(np.int64)
    )


def ell_column_loop(values: np.ndarray, col_idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reference ELLPACK product: one padded column at a time from 0.0.

    The loop ``repro.gpu.blas.spmv_ell`` and ``EllpackMatrix.matvec`` ran
    before they moved to the slot-order compiled product; both must keep
    matching it bit for bit.
    """
    out = np.zeros(values.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(values.shape[1]):
            out += values[:, j] * x[col_idx[:, j]]
    return out


#: x entries that stress the padding terms ``0.0 * x[i]``.
SPECIAL_X = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308)


def csr_prefix_reduceat(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, x: np.ndarray, n_rows: int
) -> np.ndarray:
    """Reference MPK step product over the leading ``n_rows`` rows: gather
    the products, sum each row with ``np.add.reduceat``, empty rows 0.0.

    The computation ``repro.gpu.blas.spmv_csr_prefix`` ran before it moved
    to :class:`repro.sparse.csr.ReduceatCsr`; the operator must keep
    matching it bit for bit.
    """
    end = indptr[n_rows]
    with np.errstate(invalid="ignore", over="ignore"):
        products = data[:end] * x[indices[:end]]
    out = np.zeros(n_rows)
    nonempty = np.flatnonzero(np.diff(indptr[: n_rows + 1]) > 0)
    if nonempty.size:
        with np.errstate(invalid="ignore", over="ignore"):
            out[nonempty] = np.add.reduceat(products, indptr[:n_rows][nonempty])
    return out


#: Row lengths at the edges of numpy's pairwise sum, which reduceat runs
#: over every product after a row's first: 8 accumulators from 8 terms,
#: halves above 128.
PAIRWISE_EDGES = (0, 1, 2, 8, 9, 10, 16, 17, 128, 129, 130, 131, 257, 300)


@st.composite
def csr_prefix_problems(draw):
    """``(indptr, indices, data, x)``: a CSR matrix and a vector.

    Row lengths mix :data:`PAIRWISE_EDGES` with any length up to 300; data
    spans 17 decades (so a different summation order shows in the bits);
    ``data`` and ``x`` mix in NaN, +-inf, -0.0 and extremes, and some rows
    store only -0.0.
    """
    lengths = draw(
        st.lists(
            st.one_of(st.sampled_from(PAIRWISE_EDGES), st.integers(0, 300)), max_size=10
        )
    )
    n_cols = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = rng.integers(0, n_cols, nnz)
    data = rng.standard_normal(nnz) * 10.0 ** rng.integers(-8, 9, nnz)
    x = rng.standard_normal(n_cols) * 10.0 ** rng.integers(-8, 9, n_cols)
    for arr in (data, x):
        specials = draw(st.lists(st.sampled_from(SPECIAL_X), max_size=min(arr.size, 4)))
        arr[rng.permutation(arr.size)[: len(specials)]] = specials
    for i in draw(st.sets(st.integers(0, 9), max_size=2)):
        if i < len(lengths):
            data[indptr[i] : indptr[i + 1]] = -0.0
    return indptr, indices, data, x


@st.composite
def ell_problems(draw):
    """``(values, col_idx, x)``: padded ELLPACK arrays and a vector.

    Rows have 0..width real entries (so all-padding rows occur); a padded
    slot holds 0.0 and points at the row's own index or repeats one of the
    row's real columns; ``x`` mixes in NaN, +-inf, -0.0 and extremes.
    """
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 12))
    width = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n_rows, width)) * 10.0 ** rng.integers(
        -8, 9, (n_rows, width)
    )
    col_idx = rng.integers(0, n_cols, (n_rows, width))
    lengths = rng.integers(0, width + 1, n_rows)
    for i in range(n_rows):
        values[i, lengths[i]:] = 0.0
        for k in range(lengths[i], width):
            repeat = lengths[i] and rng.random() < 0.5
            col_idx[i, k] = col_idx[i, 0] if repeat else min(i, n_cols - 1)
    x = rng.standard_normal(n_cols) * 10.0 ** rng.integers(-8, 9, n_cols)
    specials = draw(st.lists(st.sampled_from(SPECIAL_X), max_size=n_cols))
    x[rng.permutation(n_cols)[: len(specials)]] = specials
    return values, col_idx, x
