"""Span tracer installed from outside the program.

:class:`Tracer` replaces the public entry points of each ``repro`` layer
with thin wrappers that record one span per call: name, start, end, the
enclosing span (parent) and the request it served.  Nothing under
``src/`` knows about it.

Functions are also re-bound wherever another module imported them by name
(``from ..orth.tsqr import tsqr`` in ``repro.core.ca_gmres``), so every call
path goes through a wrapper.  Spans are kept in memory in flat arrays and
written once, by :meth:`Tracer.write`, when the benchmark ends.  A layer's
self time is its span's duration minus the time covered by its child spans,
accumulated as each span closes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

#: layer -> entry points, each ``"module:attribute"`` or ``"module:Class.method"``.
ENTRY_POINTS = {
    "gpu.blas.spmv": [
        "repro.gpu.blas:spmv_csr_prefix",
        "repro.gpu.blas:spmv_ell",
    ],
    "gpu.blas.dense": [
        f"repro.gpu.blas:{name}"
        for name in (
            "dot", "nrm2", "axpy", "scal", "copy_into", "gemv_t",
            "gemv_n_update", "gemm_tn", "gemm_nn_update", "gemm_nn",
            "ger_update", "trsm_right", "qr_panel",
        )
    ],
    "gpu.charge_kernel": [
        "repro.gpu.device:Device.charge_kernel",
        "repro.gpu.device:Host.charge_kernel",
    ],
    "gpu.trace.profile": ["repro.gpu.trace:TraceRecorder.profile"],
    "gpu.transfer": [
        "repro.gpu.context:MultiGpuContext.h2d",
        "repro.gpu.context:MultiGpuContext.d2h",
        "repro.gpu.context:MultiGpuContext.allreduce_sum",
    ],
    "perf.gpu_time": ["repro.perf.model:PerformanceModel.gpu_time"],
    "mpk.run": ["repro.mpk.matrix_powers:MatrixPowersKernel.run"],
    "mpk.build": ["repro.mpk.matrix_powers:MatrixPowersKernel.__init__"],
    "orth.borth": ["repro.orth.borth:borth"],
    "orth.tsqr": ["repro.orth.tsqr:tsqr"],
    "dist.spmv": ["repro.dist.matrix:DistributedMatrix.spmv"],
    "dist.exchange": ["repro.dist.exchange:StagedExchange.exchange"],
    "dist.build": ["repro.dist.matrix:DistributedMatrix.__init__"],
    "core.step": [
        "repro.core.ca_gmres:CaGmresRun.step",
        "repro.core.gmres:GmresRun.step",
    ],
    "core.result": [
        "repro.core.ca_gmres:CaGmresRun.result",
        "repro.core.gmres:GmresRun.result",
    ],
    "core.lsq": [
        "repro.core.lsq:hessenberg_lstsq",
        "repro.core.lsq:GivensHessenbergSolver.append_column",
        "repro.core.lsq:GivensHessenbergSolver.solve",
    ],
    "core.balance": ["repro.core.balance:balance_matrix"],
    "serve.session": ["repro.serve.session:SolverSession.__init__"],
    "serve.solve": ["repro.serve.session:SolverSession.solve"],
    "serve.solve_many": ["repro.serve.session:SolverSession.solve_many"],
    "serve.pattern_hash": ["repro.serve.fingerprint:pattern_hash"],
    "serve.host_plan": ["repro.serve.plan:PlanCache.host_plan"],
    "serve.structural_plan": ["repro.serve.plan:PlanCache.structural_plan"],
    "order.partition": [
        "repro.order.kway:kway_partition",
        "repro.order.rcm:rcm",
        "repro.order.partition:block_row_partition",
    ],
}

#: The benchmark's own root span around each request or set-up.
ROOT = "bench.request"


class Tracer:
    """Collects spans and per-layer ``calls`` / ``self_s`` totals.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.  :meth:`span` opens a root span for
    one request; ``request`` ids tag every span opened beneath it.
    """

    def __init__(self):
        self.layers = [ROOT, *ENTRY_POINTS]
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        # One row per closed span.
        self.span_id = array("i")
        self.span_layer = array("i")
        self.span_request = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [layer, start, child_s, span_id]
        self._next_id = 0
        self.request = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------
    def _enter(self, layer: int) -> list:
        frame = [layer, time.perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        layer, start, child_s, span_id = frame
        duration = end - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child_s
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        self.span_id.append(span_id)
        self.span_layer.append(layer)
        self.span_request.append(self.request)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)

    @contextlib.contextmanager
    def span(self, request: int):
        """Root span for one request (``-1`` marks set-up)."""
        self.request = request
        frame = self._enter(0)
        try:
            yield
        finally:
            self._exit(frame)
            self.request = -1

    def _wrap(self, fn, layer: int):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    # -- installation ------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        module_functions = {}  # id(original) -> wrapper, for re-binding
        for layer, targets in ENTRY_POINTS.items():
            lid = self._layer_id[layer]
            for target in targets:
                mod_name, _, attr = target.partition(":")
                owner = importlib.import_module(mod_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                wrapper = self._wrap(original, lid)
                self._set(owner, name, wrapper)
                if not path:
                    module_functions[id(original)] = (original, wrapper)
        # Names bound at import time elsewhere in the package.
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for name, value in list(vars(module).items()):
                hit = module_functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, name, hit[1])
        return self

    def __exit__(self, *exc) -> bool:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        return False

    # -- results -----------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float]]:
        """``layer -> (calls, self seconds)``."""
        return {
            name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.layers)
        }

    def reset_totals(self) -> None:
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)

    def write(self, path) -> None:
        """Write every span to ``path`` as a compressed ``.npz``."""
        import numpy as np

        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            id=np.frombuffer(self.span_id, dtype=np.int32),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
