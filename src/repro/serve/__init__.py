"""Solver serving: structural-plan caching and batched multi-RHS solves.

The paper's CA-GMRES spends significant *host* time before the first
iteration: reordering, k-way partitioning, the MPK dependency closure
(δ^(d,1:s) per device), the staged-exchange index sets, and the autotuner's
variant decisions.  All of that is a pure function of the matrix sparsity
*pattern* and the solver configuration — not of the right-hand side — so a
service answering repeated solves against the same operator should compute
it once.

:class:`~repro.serve.session.SolverSession` does exactly that: the first
``solve(b)`` builds a :class:`~repro.serve.plan.StructuralPlan` keyed by a
structural :func:`~repro.serve.fingerprint.fingerprint` (sparsity-pattern
hash + ordering + basis lengths + device roster) and every later solve —
including after ``ctx.reset_clocks()`` or a mid-solve repartition — reuses
it.  Warm solves are bit-identical to cold ones; only host wall-clock time
changes (structural setup is uncosted in the simulated timeline).

``solve_many`` answers several right-hand sides over one plan, one
sequential solve each; every result is exactly what ``solve`` returns.
"""

from .fingerprint import fingerprint, pattern_hash
from .plan import PlanCache, StructuralPlan
from .session import SolverSession

__all__ = [
    "SolverSession",
    "StructuralPlan",
    "PlanCache",
    "fingerprint",
    "pattern_hash",
]
