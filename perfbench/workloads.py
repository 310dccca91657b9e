"""The benchmark's three workloads.

Each workload generates its matrices and right-hand sides from the run's
seed and drives the program only through its public API
(:class:`repro.serve.SolverSession`, :class:`repro.serve.PlanCache`,
:class:`repro.gpu.context.MultiGpuContext`).  A workload has three parts:

* ``__init__(seed)`` generates the matrices (untimed);
* :meth:`setup` hands them to the program and builds every session's plan
  (timed as ``setup_s``);
* :meth:`request` makes the inputs of request ``i`` (untimed), and
  :meth:`serve` sends it to the program (timed as the request's latency).

Request ``i`` depends only on ``(seed, i)``, so a traced pass can replay the
exact requests of an untraced pass.  A run of ``seconds`` sends exactly
``requests(workload, seconds)`` requests: about ``seconds`` of request time
at the reference speed (see ``measure.py``), and the same requests, hence
the same answers and the same failures, on every run with the same seed.

Fault plans and metrics registries stay off and no preconditioner is set,
so ``repro.faults``, ``repro.metrics``, ``repro.precond`` and
``repro.harness`` do no work on these workloads' path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from repro import matrices
from repro.gpu.context import MultiGpuContext
from repro.matrices.suite import PAPER_SUITE
from repro.serve import PlanCache, SolverSession
from repro.sparse.csr import CsrMatrix

#: CA-GMRES options shared by every workload: 2x CholQR, Newton basis.
CA_OPTIONS = dict(basis="newton", tsqr_method="cholqr", reorth=2)


@dataclass
class Operator:
    """A matrix as the caller holds it, plus its scipy copy for the oracle."""

    name: str
    matrix: CsrMatrix
    scipy: scipy.sparse.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        A = self.matrix
        self.scipy = scipy.sparse.csr_matrix(
            (A.data.copy(), A.indices.copy(), A.indptr.copy()), shape=A.shape
        )


@dataclass
class Request:
    """One client request: one or more right-hand sides for one operator."""

    index: int
    label: str  # "<matrix>/<solver>"
    solver: str  # "ca" or "gmres"
    operator: Operator
    bs: list
    tol: float
    batch: bool = False


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def g3_circuit(nx: int, seed: int) -> CsrMatrix:
    """The ``g3_circuit`` analog under a seeded node numbering.

    The circuit itself is the generator's default one; only its netlist
    order changes with the seed.  So partitions, halos and simulated times
    differ between seeds while the numerical difficulty stays the same.
    """
    A = matrices.g3_circuit(nx=nx)
    return A.permute(_rng(seed, 0).permutation(A.n_rows))


def requests(workload, seconds: float) -> int:
    """Requests in a run of ``seconds``; never fewer than the prefix."""
    return max(workload.prefix, round(workload.rate * seconds))


def _solver_options(solver: str, m: int, s: int) -> dict:
    if solver == "ca":
        return dict(solver="ca", m=m, s=s, **CA_OPTIONS)
    return dict(solver="gmres", m=m)


def _prebuild(session: SolverSession) -> None:
    """Build the session's plan, MPK closures included, before any solve."""
    plan = session.plan
    if session.solver == "ca":
        plan.ensure_mpk(sorted({session.s, session.m % session.s} - {0}))


class _SessionWorkload:
    """Requests cycle over a fixed list of (matrix, solver) sessions."""

    #: Every ``batch_every``-th request is a batch of ``batch_size`` RHSs.
    batch_every = 0
    batch_size = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.configs: list[dict] = []  # one per session kind
        self.sessions: list[SolverSession] = []

    def setup(self) -> None:
        self.sessions = []
        for cfg in self.configs:
            session = SolverSession(cfg["operator"].matrix, **cfg["options"])
            _prebuild(session)
            self.sessions.append(session)

    def caches(self) -> list[PlanCache]:
        return [s.cache for s in self.sessions]

    def context(self, req: Request) -> MultiGpuContext:
        return self.sessions[req.index % len(self.sessions)].ctx

    def request(self, i: int) -> Request:
        cfg = self.configs[i % len(self.configs)]
        op = cfg["operator"]
        batch = self.batch_every > 0 and i % self.batch_every == self.batch_every - 1
        rng = _rng(self.seed, 1, i)
        count = self.batch_size if batch else 1
        bs = [rng.standard_normal(op.matrix.n_rows) for _ in range(count)]
        return Request(
            index=i, label=cfg["label"], solver=cfg["options"]["solver"],
            operator=op, bs=bs, tol=cfg["options"]["tol"], batch=batch,
        )

    def serve(self, req: Request) -> list:
        session = self.sessions[req.index % len(self.sessions)]
        if req.batch:
            return session.solve_many(req.bs)
        return [session.solve(req.bs[0])]


class ServeWarm(_SessionWorkload):
    """Short fixed-work requests against cached plans on the Fig 14 analogs.

    Each matrix is reduced in ``n`` and keeps the paper's ``m``, ``s`` and
    ordering.  One CA-GMRES and one GMRES session per matrix, 3 simulated
    GPUs, plans built in set-up.  Every request runs exactly ``cycles``
    restart cycles (the tolerance is out of reach); every 11th request is a
    batch of 4 through ``solve_many``.
    """

    name = "serve-warm"
    n_gpus = 3
    cycles = 2
    batch_every = 11
    #: Requests whose results define the simulated metrics.
    prefix = 28
    #: Requests per second of request time at the reference speed.
    rate = 2.0
    sizes = {
        "cant": dict(nx=40, ny=9, nz=9),
        "g3_circuit": dict(nx=200),
        "dielfilter": dict(nx=6, ny=6, nz=6),
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        for name, size in self.sizes.items():
            if name == "g3_circuit":
                op = Operator(name, g3_circuit(seed=seed, **size))
            else:
                op = Operator(name, getattr(matrices, name)(**size))
            info = PAPER_SUITE[name]
            for solver in ("ca", "gmres"):
                options = _solver_options(solver, info.gmres_m, info.ca_s)
                options.update(
                    n_gpus=self.n_gpus, ordering=info.ordering,
                    tol=1e-14, max_restarts=self.cycles,
                )
                self.configs.append(
                    dict(label=f"{name}/{solver}", operator=op, options=options)
                )


class LongSolve(_SessionWorkload):
    """Tight-tolerance solves with short restarts on small matrices.

    GMRES(10) and CA-GMRES(10, s=10) on the ``g3_circuit`` analog and a 2D
    Poisson stencil, 2 simulated GPUs, tol 1e-10: each request takes tens to
    100+ restart cycles.
    """

    name = "long-solve"
    n_gpus = 2
    tol = 1e-10
    m = 10
    s = 10
    max_restarts = 1000
    prefix = 24
    rate = 2.8

    def __init__(self, seed: int):
        super().__init__(seed)
        ops = [
            (Operator("g3_circuit", g3_circuit(32, seed)), "kway"),
            (Operator("poisson2d", matrices.poisson2d(32)), "natural"),
        ]
        for op, ordering in ops:
            for solver in ("ca", "gmres"):
                options = _solver_options(solver, self.m, self.s)
                options.update(
                    n_gpus=self.n_gpus, ordering=ordering,
                    tol=self.tol, max_restarts=self.max_restarts,
                )
                self.configs.append(
                    dict(label=f"{op.name}/{solver}", operator=op, options=options)
                )


def shifted(A: CsrMatrix, sigma: float) -> CsrMatrix:
    """``A + sigma * diag(A)``: same pattern, new values."""
    rows = np.repeat(np.arange(A.n_rows), np.diff(A.indptr))
    data = A.data.copy()
    on_diag = rows == A.indices
    data[on_diag] *= 1.0 + sigma
    return CsrMatrix(A.shape, A.indptr.copy(), A.indices.copy(), data)


class ShiftSweep:
    """A sweep of operators with one pattern and changing values.

    ``A_k = A + sigma_k * diag(A)`` on the ``g3_circuit`` analog, as in
    implicit time stepping.  Every request brings a new operator and gets a
    new session (CA-GMRES for even requests, GMRES for odd ones).  All
    sessions share one context and one plan cache, the documented way to
    pool plans; set-up builds the plans of the unshifted operator.  Each
    request is solved to tol 1e-6.
    """

    name = "shift-sweep"
    n_gpus = 3
    tol = 1e-6
    max_restarts = 200
    prefix = 12
    rate = 3.8
    solvers = ("ca", "gmres")

    def __init__(self, seed: int):
        self.seed = seed
        info = PAPER_SUITE["g3_circuit"]
        self.base = Operator("g3_circuit", g3_circuit(64, seed))
        self.options = {}
        for solver in self.solvers:
            options = _solver_options(solver, info.gmres_m, info.ca_s)
            options.update(
                ordering=info.ordering, tol=self.tol, max_restarts=self.max_restarts
            )
            self.options[solver] = options
        self.ctx = None
        self.cache = None

    def setup(self) -> None:
        self.ctx = MultiGpuContext(self.n_gpus)
        self.cache = PlanCache()
        for solver in self.solvers:
            _prebuild(self._session(self.base.matrix, solver))

    def _session(self, matrix: CsrMatrix, solver: str) -> SolverSession:
        return SolverSession(
            matrix, ctx=self.ctx, cache=self.cache, **self.options[solver]
        )

    def caches(self) -> list[PlanCache]:
        return [self.cache]

    def context(self, req: Request) -> MultiGpuContext:
        return self.ctx

    def request(self, i: int) -> Request:
        rng = _rng(self.seed, 2, i)
        sigma = float(rng.uniform(0.05, 1.0))
        op = Operator("g3_circuit", shifted(self.base.matrix, sigma))
        solver = self.solvers[i % len(self.solvers)]
        return Request(
            index=i, label=f"g3_circuit/{solver}", solver=solver, operator=op,
            bs=[rng.standard_normal(op.matrix.n_rows)], tol=self.tol,
        )

    def serve(self, req: Request) -> list:
        session = self._session(req.operator.matrix, req.solver)
        return [session.solve(req.bs[0])]


WORKLOADS = {w.name: w for w in (ServeWarm, LongSolve, ShiftSweep)}
