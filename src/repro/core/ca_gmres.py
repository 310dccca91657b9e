"""Communication-Avoiding GMRES — CA-GMRES(s, m), Fig. 2 of the paper.

Each restart cycle generates the ``m+1``-vector basis in blocks of ``s``:

1. **MPK** produces ``s`` new candidate vectors from the last orthonormal
   basis vector with a single communication phase (monomial or Newton
   basis with Leja-ordered shifts);
2. **BOrth** projects the candidates against the previous basis (block CGS
   or MGS);
3. **TSQR** orthonormalizes the panel (MGS / CGS / CholQR / SVQR / CAQR,
   optionally twice — the paper's "2x" configurations).

Hessenberg recovery
-------------------
Let block ``c`` start at orthonormal column ``j``.  MPK's output satisfies
the Krylov relation ``A [q_j, w_1 … w_{s-1}] = [q_j, w_1 … w_s] B_c`` with
``B_c`` the change-of-basis matrix, and orthogonalization expresses the raw
vectors in the Q basis: ``w_i = Q C[:, i] + Q_new R[:, i]``.  Collecting the
coefficient columns ``E_c = [e_j | cycle-R̲ columns]``, the cycle satisfies

    A Q S = Q G,   with  S = [… E_c[:, 0:s_c] …],  G = [… E_c B_c …],

so ``H̲ = G S_m^{-1}`` is the (t+1) x t upper Hessenberg matrix of the
cycle (S_m is upper triangular with TSQR's positive diagonal).  The
least-squares problem ``min_z ||β e_1 - H̲ z||`` is then solved exactly as
in standard GMRES, and ``x += Q_{1:t} z``.

Breakdowns: CholQR fails (Cholesky of a numerically indefinite Gram matrix)
when the MPK basis is too ill-conditioned; by default the affected block
falls back to unconditionally stable CAQR and the event is counted
(``SolveResult.breakdowns``), which is the adaptive behavior the paper lists
as future work.  ``on_breakdown="raise"`` reproduces the paper's hard
failure mode instead.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..gpu import blas
from ..mpk.matrix_powers import MatrixPowersKernel
from ..mpk.shifts import ShiftOp, monomial_shift_ops, newton_shift_ops
from ..orth.borth import borth
from ..orth.errors import (
    CholeskyBreakdown,
    elementwise_error,
    factorization_error,
    orthogonality_error,
)
from ..orth.tsqr import tsqr
from ..sparse.csr import CsrMatrix
from .basis import build_change_of_basis, ritz_values
from .convergence import SolveResult
from .gmres import (
    compute_residual,
    normalize_first_column,
    run_gmres_cycle,
    update_solution,
)
from .lsq import hessenberg_lstsq
from .resilience import MAX_PANEL_RETRIES, RECOVERABLE_FAULTS, guard_finite
from .restart import RestartedSolve

__all__ = ["ca_gmres", "CaGmresRun", "mpk_block_lengths"]


def mpk_block_lengths(s: int, m: int) -> tuple[int, ...]:
    """Block lengths MPK runs in one CA-GMRES(s, m) cycle: full blocks of
    ``s`` and, when ``s`` does not divide ``m``, the final partial block."""
    return tuple(sorted({s, m % s} - {0}))


class CaGmresRun(RestartedSolve):
    """One CA-GMRES(s, m) solve; see :class:`~repro.core.restart.RestartedSolve`.

    :func:`ca_gmres` is ``CaGmresRun(...).result()``.  With a structural
    ``plan`` the MPK dependency closures and exchange index sets are reused
    as well, and rebuilt through the plan cache after a repartition.

    Parameters
    ----------
    s
        Basis vectors generated per communication phase (1 <= s <= m).
    m
        Restart length (default 60).
    basis
        ``"newton"`` (Leja-ordered Ritz shifts; the first restart runs
        standard GMRES to obtain them, per Section IV-A) or ``"monomial"``.
    tsqr_method, tsqr_variant
        Intra-block factorization (``cholqr``/``svqr``/``cgs``/``mgs``/
        ``caqr``) and its device-kernel variant.
    borth_method
        Inter-block projection (``"cgs"`` — the paper's choice — or
        ``"mgs"``).
    reorth
        Orthogonalization passes (2 = the paper's "2x" rows).
    use_mpk
        Generate candidates with the matrix powers kernel; ``False`` uses
        ``s`` plain SpMVs (what Fig. 15 falls back to when MPK is slower).
    on_breakdown
        ``"fallback"`` (retry the failing block's TSQR with CAQR) or
        ``"raise"``.
    collect_tsqr_errors
        Record per-TSQR orthogonality / factorization / element-wise errors
        (Fig. 13) into ``result.details["tsqr_errors"]``.
    adaptive_s
        The adaptive step-size scheme the paper lists as future work
        (Section VII, their ref. [23]): monitor the conditioning of each
        block's R factor; halve the working ``s`` when the basis degrades
        (diag-ratio > 1e10) and grow it back toward the requested ``s``
        while the basis stays healthy.  The chosen block lengths are
        recorded in ``result.details["s_history"]``.
    max_panel_retries
        With fault resilience enabled (see
        :class:`~repro.gpu.context.MultiGpuContext`), how many times one
        poisoned block is regenerated (MPK rerun + re-orthogonalization)
        before escalating to a restart-cycle redo.
    **options
        The shared solve options of
        :class:`~repro.core.restart.RestartedSolve`.
    """

    name = "ca_gmres"

    def __init__(
        self,
        matrix: CsrMatrix,
        b: np.ndarray,
        *,
        s: int = 15,
        m: int = 60,
        basis: str = "newton",
        tsqr_method: str = "cholqr",
        tsqr_variant: str | None = None,
        borth_method: str = "cgs",
        reorth: int = 1,
        use_mpk: bool = True,
        on_breakdown: str = "fallback",
        collect_tsqr_errors: bool = False,
        adaptive_s: bool = False,
        max_panel_retries: int = MAX_PANEL_RETRIES,
        **options,
    ):
        if not 1 <= s <= m:
            raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")
        if basis not in ("newton", "monomial"):
            raise ValueError(f"unknown basis {basis!r}")
        if on_breakdown not in ("fallback", "raise"):
            raise ValueError(f"unknown on_breakdown {on_breakdown!r}")
        self.s = int(s)
        self.basis = basis
        self.tsqr_method = tsqr_method
        self.tsqr_variant = tsqr_variant
        self.borth_method = borth_method
        self.reorth = reorth
        self.use_mpk = use_mpk
        self.on_breakdown = on_breakdown
        self.collect_tsqr_errors = collect_tsqr_errors
        self.max_panel_retries = max_panel_retries
        self.mpk_lengths = mpk_block_lengths(self.s, int(m)) if use_mpk else ()
        self.shifts: np.ndarray | None = None
        # Block length -> (shift ops, change-of-basis matrix); both depend
        # only on the shifts, which are fixed before the first CA cycle.
        self._block_basis: dict[int, tuple[list[ShiftOp], np.ndarray]] = {}
        self.tsqr_errors: list[dict] = []
        self.adapt_state = {"s_eff": s, "history": []} if adaptive_s else None
        super().__init__(matrix, b, m=m, **options)

    # ------------------------------------------------------------------
    def _distribute(self, partition, plan) -> None:
        # ``st.mpk`` maps block length -> kernel; it is the plan's (shared,
        # persistent) dict on warm runs.  MPK plans are partition-specific,
        # so a repartition rebuilds them too.
        super()._distribute(partition, plan)
        self.st.mpk = plan.mpk if plan is not None else {}
        for length in self.mpk_lengths:
            self._get_mpk(length)

    def _get_mpk(self, length: int) -> MatrixPowersKernel:
        """Matrix powers kernel for one block length (cached per partition)."""
        mpk = self.st.mpk
        if length not in mpk:
            mpk[length] = MatrixPowersKernel(
                self.ctx, self.A_solve, self.st.partition, length
            )
        return mpk[length]

    def _seeding(self) -> bool:
        """True while the Newton basis still needs its shift-seeding cycle."""
        return self.basis == "newton" and self.shifts is None

    def _cycle(self):
        if not self._seeding():
            return self._ca_cycle()
        # Shift-seeding cycle: standard GMRES, Ritz values from its H.
        st = self.st
        return run_gmres_cycle(
            self.ctx, st.dmat, st.V, st.x, st.b, self.m, self.abs_tol,
            history=self.history, iteration_offset=self.iterations,
        )

    def _tally(self, outcome) -> tuple[int, int]:
        if not self._seeding():
            return outcome
        # Charged once per completed seeding cycle, outside any redo.
        if outcome.iterations > 0:
            square = outcome.hessenberg[: outcome.iterations, : outcome.iterations]
            self.ctx.host.charge_small_dense("eig", outcome.iterations)
            self.shifts = ritz_values(square)
        else:
            self.shifts = np.empty(0, dtype=np.complex128)
        return outcome.iterations, 0

    def _details(self) -> dict:
        details: dict = {}
        if self.collect_tsqr_errors:
            details["tsqr_errors"] = self.tsqr_errors
        if self.adapt_state is not None:
            details["s_history"] = self.adapt_state["history"]
        return details

    def _ca_cycle(self) -> tuple[int, int]:
        """One CA-GMRES restart cycle; returns (iterations, breakdowns)."""
        ctx, st, s, m = self.ctx, self.st, self.s, self.m
        V, adapt_state = st.V, self.adapt_state
        with ctx.region("spmv"):
            beta = compute_residual(ctx, st.dmat, st.x, st.b, V)
        guard_finite(ctx, beta, "cycle residual norm")
        if beta == 0.0:
            return 0, 0
        with ctx.region("borth"):
            normalize_first_column(ctx, V, beta)

        n_cols = m + 1
        R_bar = np.zeros((n_cols, n_cols), dtype=np.float64)
        R_bar[0, 0] = 1.0
        S_full = np.zeros((n_cols, m), dtype=np.float64)
        G_full = np.zeros((n_cols, m), dtype=np.float64)
        breakdowns = 0
        j = 0
        t = 1  # orthonormal columns available
        while j < m:
            s_block = adapt_state["s_eff"] if adapt_state is not None else s
            s_cur = min(s_block, m - j)
            if s_cur not in self._block_basis:
                ops = _block_shift_ops(self.basis, self.shifts, s_cur)
                self._block_basis[s_cur] = ops, build_change_of_basis(ops)
            ops, B_c = self._block_basis[s_cur]
            # Candidate generation + orthogonalization, as one recoverable
            # unit: a fault detected anywhere in the block (corrupted MPK
            # exchange, poisoned kernel output caught by the BOrth/TSQR
            # guards) regenerates the candidates from the still-clean
            # V[:, :j+1] and re-orthogonalizes — the "panel retry" layer.
            panel_attempts = 0
            while True:
                try:
                    if self.use_mpk:
                        with ctx.region("mpk"):
                            self._get_mpk(s_cur).run(V, j, ops)
                    else:
                        with ctx.region("spmv"):
                            _spmv_block(ctx, st.dmat, V, j, ops)
                    C, R, block_breakdowns = self._orthogonalize(V, j, s_cur)
                    break
                except RECOVERABLE_FAULTS:
                    if panel_attempts >= self.max_panel_retries:
                        raise  # escalate to the cycle-redo layer
                    panel_attempts += 1
                    ctx.faults.note_recovery(
                        "panel-retry", time=ctx.current_time(),
                        block_start=j, attempt=panel_attempts,
                    )
            breakdowns += block_breakdowns
            if adapt_state is not None:
                _adapt_block_length(adapt_state, R, s, s_cur, block_breakdowns)
            R_bar[: j + 1, j + 1 : j + s_cur + 1] = C
            R_bar[j + 1 : j + s_cur + 1, j + 1 : j + s_cur + 1] = R
            # --- Hessenberg recovery for this block --------------------
            E = np.zeros((n_cols, s_cur + 1), dtype=np.float64)
            E[j, 0] = 1.0
            E[:, 1:] = R_bar[:, j + 1 : j + s_cur + 1]
            S_full[:, j : j + s_cur] = E[:, :s_cur]
            G_full[:, j : j + s_cur] = E @ B_c
            j += s_cur
            t = j + 1
            # --- residual estimate (host small-dense work) --------------
            with ctx.region("lsq"):
                ctx.host.charge_small_dense("lstsq_hessenberg", t)
                H_t = _recover_hessenberg(S_full, G_full, t)
                _, estimate = hessenberg_lstsq(H_t, beta)
            self.history.record_estimate(self.iterations + j, estimate)
            if estimate <= self.abs_tol:
                break
        # --- solution update -------------------------------------------
        with ctx.region("update"):
            H_t = _recover_hessenberg(S_full, G_full, t)
            z, _ = hessenberg_lstsq(H_t, beta)
            ctx.host.charge_small_dense("trsv", t - 1)
            update_solution(ctx, V, st.x, z)
        return j, breakdowns

    def _orthogonalize(self, V, j, s_cur):
        """BOrth + TSQR (with reorthogonalization) on block [j+1, j+s_cur+1).

        Returns (C, R, breakdowns) with ``W_raw = Q_prev C + Q_new R``.
        """
        ctx = self.ctx
        v_panels = V.panel(j + 1, j + s_cur + 1)
        q_panels = V.panel(0, j + 1)
        C_total = np.zeros((j + 1, s_cur), dtype=np.float64)
        R_total = np.eye(s_cur, dtype=np.float64)
        breakdowns = 0
        check = ctx.resilience_enabled
        for _ in range(max(self.reorth, 1)):
            with ctx.region("borth"):
                C_pass = borth(ctx, q_panels, v_panels, method=self.borth_method)
            guard_finite(ctx, C_pass, "BOrth coefficients")
            if self.collect_tsqr_errors:
                pre = _gather_panel(V, j + 1, j + s_cur + 1)
            with ctx.region("tsqr"):
                try:
                    R_pass = tsqr(
                        ctx, v_panels, method=self.tsqr_method,
                        variant=self.tsqr_variant, check_finite=check,
                    )
                except CholeskyBreakdown:
                    if self.on_breakdown == "raise":
                        raise
                    breakdowns += 1
                    R_pass = tsqr(ctx, v_panels, method="caqr", check_finite=check)
            if self.collect_tsqr_errors:
                post = _gather_panel(V, j + 1, j + s_cur + 1)
                self.tsqr_errors.append(
                    {
                        "restart": self.restarts,
                        "block_start": j,
                        "orthogonality": orthogonality_error(post),
                        "factorization": factorization_error(pre, post, R_pass),
                        "elementwise": elementwise_error(pre, post, R_pass),
                    }
                )
            C_total = C_total + C_pass @ R_total
            R_total = R_pass @ R_total
        return C_total, np.triu(R_total), breakdowns

    # The benchmark tracer wraps these through this class's own __dict__.
    step = RestartedSolve.step
    result = RestartedSolve.result
def ca_gmres(matrix: CsrMatrix, b: np.ndarray, **options) -> SolveResult:
    """Solve ``A x = b`` with CA-GMRES(s, m) on simulated GPUs.

    ``options`` are those of :class:`CaGmresRun`.
    """
    return CaGmresRun(matrix, b, **options).result()


def _adapt_block_length(adapt_state, R, s_max, s_used, block_breakdowns) -> None:
    """Adjust the working block length from the block's R conditioning.

    The ratio of extreme R diagonals is a cheap lower bound on kappa of the
    projected basis: above 1e10 (or after a breakdown) the next block is
    halved; below 1e4 it grows by 50% back toward the requested ``s``.
    """
    diag = np.abs(np.diag(R))
    ratio = float(diag.max() / max(diag.min(), 1e-300)) if diag.size else 1.0
    s_eff = adapt_state["s_eff"]
    if block_breakdowns or ratio > 1e10:
        s_eff = max(2, s_used // 2)
    elif ratio < 1e4:
        s_eff = min(s_max, max(s_eff, int(np.ceil(1.5 * s_used))))
    adapt_state["s_eff"] = s_eff
    adapt_state["history"].append({"s_used": s_used, "diag_ratio": ratio})


def _block_shift_ops(basis: str, shifts, s_cur: int) -> list[ShiftOp]:
    if basis == "monomial" or shifts is None or len(shifts) == 0:
        return monomial_shift_ops(s_cur)
    return newton_shift_ops(shifts, s_cur)


def _spmv_block(ctx, dmat, V, j, ops: list[ShiftOp]) -> None:
    """Generate a block with plain SpMVs + shift updates (MPK disabled)."""
    for k, op in enumerate(ops, start=1):
        dmat.spmv(V, j + k - 1, V, j + k)
        new = V.column(j + k)
        cur = V.column(j + k - 1)
        if op.kind in ("real", "complex_first", "complex_second"):
            for cn, cc in zip(new, cur):
                blas.axpy(-op.re, cc, cn)
        if op.kind == "complex_second":
            prev = V.column(j + k - 2)
            for cn, cp in zip(new, prev):
                blas.axpy(op.im**2, cp, cn)


def _gather_panel(V, j0, j1) -> np.ndarray:
    """Uncosted host copy of a panel (diagnostics only)."""
    out = np.empty((V.n_rows, j1 - j0), dtype=np.float64)
    for d in range(V.ctx.n_gpus):
        rows = V.partition.rows_of(d)
        out[rows] = V.local[d].data[:, j0:j1]
    return out


def _recover_hessenberg(S_full, G_full, t: int) -> np.ndarray:
    """``H̲ = G S_m^{-1}`` for the first ``t`` orthonormal columns."""
    S_m = S_full[: t - 1, : t - 1]
    G = G_full[:t, : t - 1]
    # Right-division by the upper-triangular S_m.
    H = scipy.linalg.solve_triangular(
        S_m.T, G.T, lower=True, check_finite=False
    ).T
    return H
