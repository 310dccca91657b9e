"""The performance model facade used by the simulated runtime.

:class:`PerformanceModel` binds a :class:`~repro.perf.machine.MachineSpec` to
the kernel cost table and answers three questions:

* how long does GPU kernel X with shape S take (``gpu_time``),
* how long does the threaded-host version take (``cpu_time``),
* how long does moving N bytes across PCIe take (``transfer_time``),

plus small-dense host LAPACK costs (Cholesky/QR/SVD/eig of the s x s Gram
and Hessenberg matrices), which the paper runs on the CPU.

The runtime charges every kernel through the memoized lookups
(:meth:`~PerformanceModel.gpu_cost`, :meth:`~PerformanceModel.cpu_cost`,
:meth:`~PerformanceModel.small_dense_cost`): a model computes each
``(op, variant, shape)`` cost once and returns the stored entry on every
later charge.  This is exact because the machine spec is a frozen
dataclass fixed at construction and :data:`~repro.perf.kernels.KERNEL_TABLE`
is never mutated.  The key space is bounded by the distinct kernel shapes a
solve plan issues, so the memo needs no eviction.
"""

from __future__ import annotations

from .kernels import kernel_flops_bytes, kernel_time
from .machine import MachineSpec, keeneland_node

__all__ = ["PerformanceModel"]


class PerformanceModel:
    """Cost oracle for one machine.

    Parameters
    ----------
    machine
        Machine description; defaults to the paper's Keeneland node.
    """

    def __init__(self, machine: MachineSpec | None = None):
        self._machine = machine if machine is not None else keeneland_node()
        # Memoized charges, keyed on (op, variant, *sorted shape items).
        self._gpu_costs: dict[tuple, tuple[float, float, str]] = {}
        self._cpu_costs: dict[tuple, tuple[float, float, str]] = {}
        self._small_dense_costs: dict[tuple, tuple[float, str]] = {}

    @property
    def machine(self) -> MachineSpec:
        """The machine this model prices (read-only: the memo depends on it)."""
        return self._machine

    # ------------------------------------------------------------------
    # Device kernels
    # ------------------------------------------------------------------
    def gpu_time(self, op: str, variant: str, **shape) -> float:
        """Modeled time of one GPU kernel (seconds)."""
        gpu = self.machine.gpu
        return kernel_time(
            op,
            variant,
            peak_flops=gpu.peak_gflops * 1e9,
            bandwidth=gpu.mem_bandwidth,
            overhead=gpu.kernel_overhead,
            **shape,
        )

    def cpu_time(self, op: str, variant: str = "mkl", **shape) -> float:
        """Modeled time of one threaded host kernel (seconds)."""
        cpu = self.machine.cpu
        return kernel_time(
            op,
            variant,
            peak_flops=cpu.peak_gflops * 1e9,
            bandwidth=cpu.mem_bandwidth,
            overhead=cpu.small_op_overhead,
            **shape,
        )

    def gpu_cost(self, op: str, variant: str, shape: dict) -> tuple[float, float, str]:
        """Memoized ``(seconds, flops, "op/variant")`` of one GPU kernel."""
        return self._kernel_cost(self._gpu_costs, self.gpu_time, op, variant, shape)

    def cpu_cost(self, op: str, variant: str, shape: dict) -> tuple[float, float, str]:
        """Memoized ``(seconds, flops, "op/variant")`` of one host kernel."""
        return self._kernel_cost(self._cpu_costs, self.cpu_time, op, variant, shape)

    @staticmethod
    def _kernel_cost(costs: dict, time, op: str, variant: str, shape: dict):
        key = (op, variant, *sorted(shape.items()))
        cost = costs.get(key)
        if cost is None:
            # float(): one stored type whether the shape came as int or np.int64.
            cost = costs[key] = (
                float(time(op, variant, **shape)),
                kernel_flops_bytes(op, variant, **shape)[0],
                f"{op}/{variant}",
            )
        return cost

    # ------------------------------------------------------------------
    # Host small-dense LAPACK (s x s / (m+1) x m problems)
    # ------------------------------------------------------------------
    def host_small_dense(self, op: str, k: int) -> float:
        """Cost of a small k x k dense factorization on the host.

        Small problems are latency-dominated; the flop term uses a modest
        sequential rate (~8 Gflop/s) because threaded LAPACK does not scale
        at these sizes.
        """
        flops = {
            "chol": k**3 / 3.0,
            "qr": 4.0 * k**3 / 3.0,
            "svd": 20.0 * k**3,
            "eig": 25.0 * k**3,
            "lstsq_hessenberg": 3.0 * k**2,  # Givens on an upper Hessenberg
            "trsv": k**2,
        }.get(op)
        if flops is None:
            raise KeyError(f"unknown host small-dense op {op!r}")
        return self.machine.cpu.small_op_overhead + flops / 8.0e9

    def small_dense_cost(self, op: str, k: int) -> tuple[float, str]:
        """Memoized ``(seconds, "op/lapack")`` of one small dense factorization."""
        key = (op, k)
        cost = self._small_dense_costs.get(key)
        if cost is None:
            cost = self._small_dense_costs[key] = (
                float(self.host_small_dense(op, k)),
                f"{op}/lapack",
            )
        return cost

    # ------------------------------------------------------------------
    # PCIe
    # ------------------------------------------------------------------
    def transfer_time(self, nbytes: float) -> float:
        """Latency + bandwidth cost of one host<->device message."""
        return self.machine.pcie.message_time(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PerformanceModel({self.machine.name!r})"
