"""Standard restarted GMRES(m) on multiple (simulated) GPUs — Fig. 1.

Per iteration: one distributed SpMV (with halo exchange) and one
orthogonalization of the new vector against the basis (MGS or CGS, the
configurations of the paper's Fig. 3 / Fig. 14 GMRES rows).  The small
Hessenberg least-squares problem is solved on the CPU with incremental
Givens rotations.

This is the baseline every CA-GMRES speedup in the paper is measured
against; :func:`run_gmres_cycle` is also reused by CA-GMRES for its first
(shift-seeding) restart cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dist.matrix import DistributedMatrix
from ..dist.multivector import DistMultiVector, DistVector
from ..gpu import blas
from ..gpu.context import MultiGpuContext
from ..orth.single import orthogonalize_vector
from ..sparse.csr import CsrMatrix
from .convergence import ConvergenceHistory, SolveResult
from .lsq import GivensHessenbergSolver
from .resilience import guard_finite
from .restart import RestartedSolve

__all__ = ["gmres", "GmresRun", "run_gmres_cycle", "CycleInfo"]


@dataclass
class CycleInfo:
    """Outcome of one restart cycle."""

    beta: float  # initial residual norm of the cycle
    iterations: int  # basis vectors generated (columns of H)
    hessenberg: np.ndarray  # (iterations+1) x iterations
    estimate: float  # final least-squares residual estimate


def compute_residual(
    ctx: MultiGpuContext,
    dmat: DistributedMatrix,
    x: DistVector,
    b: DistVector,
    V: DistMultiVector,
) -> float:
    """``V[:, 0] := b - A x``; returns ``||r||_2`` (not yet normalized)."""
    dmat.spmv(x, 0, V, 0)
    r_parts = V.column(0)
    for rp, bp in zip(r_parts, b.parts()):
        blas.scal(-1.0, rp)
        blas.axpy(1.0, bp, rp)
    partials = [blas.nrm2(rp) for rp in r_parts]
    return float(np.sqrt(ctx.allreduce_sum(partials)[0]))


def normalize_first_column(ctx: MultiGpuContext, V: DistMultiVector, beta: float) -> None:
    """``V[:, 0] /= beta`` (broadcast the scale as the paper's code does)."""
    if beta == 0.0:
        raise ZeroDivisionError("cannot normalize a zero residual")
    for bcast, rp in zip(ctx.broadcast(np.array([beta])), V.column(0)):
        blas.scal(1.0 / float(bcast.data[0]), rp)


def update_solution(
    ctx: MultiGpuContext,
    V: DistMultiVector,
    x: DistVector,
    y: np.ndarray,
) -> None:
    """``x += V[:, :len(y)] @ y`` with one broadcast + one GEMV per device."""
    t = y.size
    if t == 0:
        return
    for bcast, (panel, xp) in zip(
        ctx.broadcast(-np.asarray(y, dtype=np.float64)),
        zip(V.panel(0, t), x.parts()),
    ):
        blas.gemv_n_update(panel, bcast, xp)  # x -= V @ (-y)


def run_gmres_cycle(
    ctx: MultiGpuContext,
    dmat: DistributedMatrix,
    V: DistMultiVector,
    x: DistVector,
    b: DistVector,
    m: int,
    abs_tol: float,
    orth_method: str = "cgs",
    gemv_variant: str = "magma",
    history: ConvergenceHistory | None = None,
    iteration_offset: int = 0,
) -> CycleInfo:
    """One GMRES(m) restart cycle (residual through solution update).

    Returns the cycle's Hessenberg matrix so callers (CA-GMRES) can extract
    Ritz values for Newton shifts.
    """
    with ctx.region("spmv"):
        beta = compute_residual(ctx, dmat, x, b, V)
    guard_finite(ctx, beta, "cycle residual norm")
    if beta == 0.0:
        return CycleInfo(beta=0.0, iterations=0, hessenberg=np.zeros((1, 0)), estimate=0.0)
    with ctx.region("orth"):
        normalize_first_column(ctx, V, beta)
    solver = GivensHessenbergSolver(m, beta)
    H = np.zeros((m + 1, m), dtype=np.float64)
    j_used = 0
    estimate = beta
    for j in range(m):
        with ctx.region("spmv"):
            dmat.spmv(V, j, V, j + 1)
        with ctx.region("orth"):
            h = orthogonalize_vector(
                ctx,
                V.panel(0, j + 1),
                V.column(j + 1),
                method=orth_method,
                gemv_variant=gemv_variant,
            )
        guard_finite(ctx, h, "Hessenberg column")
        H[: j + 2, j] = h
        with ctx.region("lsq"):
            ctx.host.charge_small_dense("lstsq_hessenberg", j + 1)
            estimate = solver.append_column(h)
        j_used = j + 1
        if history is not None:
            history.record_estimate(iteration_offset + j_used, estimate)
        if estimate <= abs_tol:
            break
    with ctx.region("update"):
        y = solver.solve()
        ctx.host.charge_small_dense("trsv", j_used)
        update_solution(ctx, V, x, y)
    return CycleInfo(
        beta=beta,
        iterations=j_used,
        hessenberg=H[: j_used + 1, :j_used],
        estimate=estimate,
    )


class GmresRun(RestartedSolve):
    """One restarted-GMRES(m) solve; see :class:`~repro.core.restart.RestartedSolve`.

    :func:`gmres` is ``GmresRun(...).result()``.

    Parameters
    ----------
    orth_method
        ``"cgs"`` (BLAS-2, the paper's fast configuration) or ``"mgs"``.
    gemv_variant
        Tall-skinny DGEMV implementation for CGS (``"magma"``/``"cublas"``).
    **options
        The shared solve options of
        :class:`~repro.core.restart.RestartedSolve` (``ctx``, ``n_gpus``,
        ``partition``, ``m``, ``tol``, ``max_restarts``, ``balance``,
        ``x0``, ``preconditioner``, ``degrade``, ``deadline``, ``plan``,
        ``on_cycle``).
    """

    name = "gmres"

    def __init__(self, matrix, b, *, orth_method="cgs", gemv_variant="magma", **options):
        self.orth_method = orth_method
        self.gemv_variant = gemv_variant
        super().__init__(matrix, b, **options)

    def _cycle(self):
        st = self.st
        info = run_gmres_cycle(
            self.ctx, st.dmat, st.V, st.x, st.b, self.m, self.abs_tol,
            orth_method=self.orth_method, gemv_variant=self.gemv_variant,
            history=self.history, iteration_offset=self.iterations,
        )
        return info.iterations

    # The benchmark tracer wraps these through this class's own __dict__.
    step = RestartedSolve.step
    result = RestartedSolve.result


def gmres(matrix: CsrMatrix, b: np.ndarray, **options) -> SolveResult:
    """Solve ``A x = b`` with restarted GMRES(m) on simulated GPUs.

    ``options`` are those of :class:`GmresRun`.  Returns the solution in
    the original variables plus timings/counters/history.
    """
    return GmresRun(matrix, b, **options).result()
