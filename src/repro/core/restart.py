"""The restart loop shared by GMRES, CA-GMRES and pipelined GMRES.

The three solvers differ only inside one restart cycle (Fig. 1 vs Fig. 2
of the paper, and footnote 5's pipelined schedule).  Everything around the
cycle lives here, once: input checks, the structural set-up (``plan=`` or
``partition=``, preconditioner fold, balancing, ``x0`` mapping), the
distributed solver state and its degraded-mode rebuild, the initial
residual, and the restart loop itself — deadline, cycle marks,
checkpoint/redo through :func:`~repro.core.resilience.run_cycle_resilient`,
``on_cycle``, the true residual at every restart boundary, convergence —
plus the final :class:`~repro.core.convergence.SolveResult`.

A method subclasses :class:`RestartedSolve` and supplies :meth:`_cycle`
(one restart cycle on ``self.st``) and, when its cycle reports more than
an iteration count, :meth:`_tally`.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..dist.matrix import DistributedMatrix
from ..dist.multivector import DistMultiVector, DistVector
from ..gpu.context import MultiGpuContext
from ..order.partition import Partition, block_row_partition
from ..sparse.csr import CsrMatrix
from .balance import balance_matrix
from .convergence import ConvergenceHistory, SolveResult
from .degrade import DegradationManager, DegradePolicy
from .resilience import guard_finite, run_cycle_resilient

__all__ = ["RestartedSolve", "checked_true_residual", "gathered_solution"]


def gathered_solution(x: DistVector) -> np.ndarray:
    """Read the distributed solution without charging transfers (diagnostic)."""
    out = np.empty(x.n_rows, dtype=np.float64)
    for d in range(x.ctx.n_gpus):
        out[x.partition.rows_of(d)] = x.parts()[d].data
    return out


def checked_true_residual(ctx, A_solve, b_solve, x) -> float:
    """True residual norm at a restart boundary (uncosted diagnostic).

    With resilience enabled, a non-finite value — a poisoned solution
    update — raises for the cycle-redo machinery.
    """
    true_res = float(np.linalg.norm(b_solve - A_solve.matvec(gathered_solution(x))))
    guard_finite(ctx, true_res, "true residual")
    return true_res


class RestartedSolve:
    """One restarted Krylov solve as a resumable object.

    :meth:`result` runs the restart loop to the end and returns the
    (cached) :class:`~repro.core.convergence.SolveResult`; :meth:`step`
    advances it by exactly one restart cycle.  A prebuilt structural
    ``plan`` (see :class:`repro.serve.plan.StructuralPlan`) lets repeated
    solves against the same matrix skip the per-solve structural set-up;
    numerics are unaffected, so a plan-driven solve is bit-identical to a
    cold one.

    Parameters
    ----------
    matrix
        Square CSR matrix.
    b
        Right-hand side (host array).
    ctx
        Execution context; built with ``n_gpus`` devices when omitted.
    partition
        Row distribution; equal block rows when omitted.
    m
        Restart length.
    tol
        Relative residual tolerance (the paper's four-orders-of-magnitude
        criterion is ``1e-4``).
    max_restarts
        Cycle limit.
    balance
        Apply the paper's row-then-column norm balancing first.
    x0
        Initial guess (zero when omitted).
    preconditioner
        Optional right preconditioner with ``fold(A)`` / ``recover(y)``
        methods (see :mod:`repro.precond`); the solver iterates on the
        folded operator ``A M^{-1}`` and maps the solution back.  Folding
        it into the operator up front leaves MPK/BOrth/TSQR unchanged —
        the CA-compatible preconditioning route.
    degrade
        Optional :class:`~repro.core.degrade.DegradePolicy`: a device
        dropout mid-solve is absorbed by repartitioning over the
        survivors (rebuilding the distributed state, MPK plans included)
        and resuming instead of aborting (see :mod:`repro.core.degrade`).
    deadline
        Optional simulated-time budget in seconds; the solve stops at the
        first restart boundary past it (``details["degradation"]``
        records the trip).
    plan
        Optional prebuilt :class:`repro.serve.plan.StructuralPlan` for this
        matrix/context: ordering, partition, distributed matrix, MPK
        dependency closure and halo index sets are reused instead of
        recomputed.  Mutually exclusive with ``partition``; ``balance``
        and ``preconditioner`` are taken from the plan.
    on_cycle
        Optional per-cycle callback ``on_cycle(index, start, end)``
        invoked after every completed restart cycle (including a Newton
        shift-seeding cycle) with the cycle index and its simulated
        start/end times — the hook behind the
        ``repro_solver_cycle_seconds`` metric (see
        :func:`repro.metrics.collect.cycle_observer`).  Not called for a
        cycle aborted by an unrecoverable fault.
    """

    #: Solver name used in input-check messages.
    name = "solver"
    #: MPK block lengths a degraded-mode plan derivation prebuilds.
    mpk_lengths: tuple[int, ...] = ()

    def __init__(
        self,
        matrix: CsrMatrix,
        b: np.ndarray,
        ctx: MultiGpuContext | None = None,
        n_gpus: int = 1,
        partition: Partition | None = None,
        m: int = 30,
        tol: float = 1e-4,
        max_restarts: int = 500,
        balance: bool = True,
        x0: np.ndarray | None = None,
        preconditioner=None,
        degrade: DegradePolicy | None = None,
        deadline: float | None = None,
        plan=None,
        on_cycle=None,
    ):
        if matrix.n_rows != matrix.n_cols:
            raise ValueError(f"{self.name} requires a square matrix")
        n = matrix.n_rows
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},), got {b.shape}")
        if b.size and not np.all(np.isfinite(b)):
            raise ValueError("b contains non-finite entries")
        if not 1 <= m <= n:
            raise ValueError(f"restart length m={m} out of range [1, {n}]")
        if ctx is None:
            ctx = MultiGpuContext(n_gpus)
        elif ctx.inactive_devices:
            # A previous degraded solve left the roster shrunken; restore the
            # full device set (and pristine fault state) before partitioning.
            ctx.reset_clocks()
        self.ctx = ctx
        self.plan = plan
        self.m = int(m)
        self.max_restarts = int(max_restarts)

        if plan is not None:
            if partition is not None:
                raise ValueError("pass either plan= or partition=, not both")
            if plan.V.n_cols != m + 1:
                raise ValueError(
                    f"plan was built for m={plan.V.n_cols - 1}, solve requested m={m}"
                )
            partition = plan.partition
            if partition.n_parts != ctx.n_gpus:
                raise ValueError("plan partition does not match the active roster")
            preconditioner = plan.preconditioner
            bal = plan.bal
            A_solve = plan.operator
        else:
            if partition is None:
                partition = block_row_partition(n, ctx.n_gpus)
            A_pre = preconditioner.fold(matrix) if preconditioner is not None else matrix
            bal = balance_matrix(A_pre) if balance else None
            A_solve = bal.matrix if bal is not None else A_pre
        b_solve = bal.scale_rhs(b) if bal is not None else b
        self.preconditioner = preconditioner
        self.bal = bal
        self.A_solve = A_solve
        self.b_solve = b_solve

        # Mutable solver state: the cycle and the degraded-mode rebuild both
        # go through it, so a repartition swaps every distributed object at
        # once and replayed cycles pick up the rebuilt versions.
        self.st = st = SimpleNamespace()
        self._distribute(partition, plan)
        st.x = DistVector(ctx, partition)
        st.b = DistVector.from_host(ctx, partition, b_solve)
        if x0 is not None:
            if preconditioner is not None:
                raise ValueError("x0 with a preconditioner is not supported")
            start = (x0 / bal.col_scale) if bal is not None else x0
            st.x.set_from_host(np.asarray(start, dtype=np.float64))
        ctx.reset_clocks()
        ctx.counters.reset()

        self.degrader = None
        if degrade is not None or deadline is not None:
            self.degrader = DegradationManager(
                ctx, A_solve, self._rebuild, policy=degrade, deadline=deadline
            )

        self.history = ConvergenceHistory()
        r0 = b_solve - A_solve.matvec(gathered_solution(st.x))
        self.history.initial_residual = float(np.linalg.norm(r0))
        self.restarts = 0
        self.iterations = 0
        self.breakdowns = 0
        self.on_cycle = on_cycle
        self.unrecovered: list[dict] = []
        self.abs_tol = tol * self.history.initial_residual
        # Already at (numerical) convergence: a relative criterion on a zero
        # residual would be meaningless.
        floor = 100.0 * np.finfo(np.float64).eps * float(np.linalg.norm(b_solve))
        self.converged = self.finished = bool(self.history.initial_residual <= floor)
        self._result: SolveResult | None = None

    # ------------------------------------------------------------------
    def _distribute(self, partition, plan) -> None:
        """Point ``st`` at the distributed operator and basis for
        ``partition``: the plan's when given, freshly built otherwise."""
        st = self.st
        st.partition = partition
        if plan is not None:
            st.dmat, st.V = plan.dmat, plan.V
        else:
            st.dmat = DistributedMatrix(self.ctx, self.A_solve, partition)
            st.V = DistMultiVector(self.ctx, partition, self.m + 1)

    def _rebuild(self, new_partition, x_host):
        """Degraded-mode rebuild of the distributed state over survivors.

        With a structural plan attached, the rebuild is routed through the
        plan cache (the dead roster's entries are invalidated; the survivor
        roster's entries are built or reused).
        """
        ctx, st = self.ctx, self.st
        sub = None
        if self.plan is not None:
            sub = self.plan.derive(new_partition, mpk_lengths=self.mpk_lengths)
        self._distribute(new_partition, sub)
        st.b = DistVector.from_host(ctx, new_partition, self.b_solve)
        st.x = DistVector.from_host(ctx, new_partition, x_host)
        return st.x

    def _cycle(self):
        """Run one restart cycle on ``self.st`` (may raise for a redo)."""
        raise NotImplementedError

    def _tally(self, outcome) -> tuple[int, int]:
        """``(iterations, breakdowns)`` of a completed cycle's outcome."""
        return outcome, 0

    def _checked_cycle(self):
        # True residual at the restart boundary (uncosted diagnostic).
        outcome = self._cycle()
        return outcome, checked_true_residual(
            self.ctx, self.A_solve, self.b_solve, self.st.x
        )

    def step(self) -> bool:
        """Advance by one restart cycle; False once the solve is finished."""
        if self.finished:
            return False
        ctx = self.ctx
        if self.restarts >= self.max_restarts or (
            self.degrader is not None and self.degrader.deadline_reached()
        ):
            self.finished = True
            return False
        ctx.mark_cycle()
        cycle_start = ctx.current_time()
        checked, aborted = run_cycle_resilient(
            ctx, self._checked_cycle, self.st.x, self.history, self.unrecovered,
            degrader=self.degrader,
        )
        if aborted:
            self.finished = True
            return False
        outcome, true_res = checked
        iterations, breakdowns = self._tally(outcome)
        self.restarts += 1
        self.iterations += iterations
        self.breakdowns += breakdowns
        if self.on_cycle is not None:
            self.on_cycle(self.restarts - 1, cycle_start, ctx.current_time())
        self.history.record_true(self.iterations, true_res)
        self.converged = self.finished = true_res <= self.abs_tol
        return not self.finished

    def _details(self) -> dict:
        """Method-specific ``SolveResult.details`` entries."""
        return {}

    def result(self) -> SolveResult:
        """Run any remaining cycles and return the (cached) final result."""
        while self.step():
            pass
        if self._result is None:
            self._result = self._finish()
        return self._result

    def _finish(self) -> SolveResult:
        ctx = self.ctx
        x_host = gathered_solution(self.st.x)
        if self.bal is not None:
            x_host = self.bal.unscale_solution(x_host)
        if self.preconditioner is not None:
            x_host = self.preconditioner.recover(x_host)
        details = self._details()
        details["profile"] = ctx.trace.profile()
        if ctx.faults.has_activity() or self.unrecovered:
            details["faults"] = ctx.faults.report(self.unrecovered)
        if self.degrader is not None:
            details["degradation"] = self.degrader.report()
        return SolveResult(
            x=x_host,
            converged=self.converged,
            n_restarts=self.restarts,
            n_iterations=self.iterations,
            history=self.history,
            timers=dict(ctx.timers),
            counters=ctx.counters.snapshot(),
            breakdowns=self.breakdowns,
            details=details,
        )
