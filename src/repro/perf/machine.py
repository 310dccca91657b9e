"""Machine description of the paper's testbed.

One compute node of the Keeneland system (Georgia Tech): two eight-core Intel
Sandy Bridge Xeon E5 CPUs and three NVIDIA Tesla M2090 GPUs.  Numbers below
are public vendor/STREAM figures for those parts:

* M2090 (Fermi GF110): 665 Gflop/s double-precision peak, 177 GB/s raw
  memory bandwidth, ~120 GB/s sustained with ECC enabled; kernel launch
  overhead ~7 microseconds on Fermi-era CUDA.
* Xeon E5 (Sandy Bridge) 2.6 GHz, 8 DP flops/cycle/core x 16 cores ≈
  333 Gflop/s node peak; ~60 GB/s sustained node STREAM bandwidth.
* PCIe gen 2 x16: ~6 GB/s sustained per direction, ~10-15 microseconds
  end-to-end latency for a small pinned transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GpuSpec",
    "CpuSpec",
    "PcieSpec",
    "MachineSpec",
    "keeneland_node",
    "cpu_reference_node",
]


@dataclass(frozen=True)
class GpuSpec:
    """One GPU: peak double-precision rate and sustained memory bandwidth."""

    name: str
    peak_gflops: float  # double-precision peak, Gflop/s
    mem_bandwidth: float  # sustained device memory bandwidth, bytes/s
    kernel_overhead: float  # per-kernel-launch overhead, seconds
    memory_bytes: int  # device memory capacity, bytes

    def __post_init__(self):
        if min(self.peak_gflops, self.mem_bandwidth, self.memory_bytes) <= 0:
            raise ValueError("GPU spec rates must be positive")
        if self.kernel_overhead < 0:
            raise ValueError("kernel_overhead must be non-negative")


@dataclass(frozen=True)
class CpuSpec:
    """The host multicore: aggregate peak and sustained bandwidth."""

    name: str
    cores: int
    peak_gflops: float
    mem_bandwidth: float  # bytes/s
    small_op_overhead: float  # fixed cost of a threaded small BLAS/LAPACK call

    def __post_init__(self):
        if self.cores <= 0 or min(self.peak_gflops, self.mem_bandwidth) <= 0:
            raise ValueError("CPU spec must be positive")


@dataclass(frozen=True)
class PcieSpec:
    """Host-device interconnect: per-message latency and bandwidth."""

    latency: float  # seconds per message
    bandwidth: float  # bytes/s per direction
    shared_bus: bool = True  # transfers from different GPUs serialize

    def __post_init__(self):
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("PCIe spec must be positive")

    def message_time(self, nbytes: float) -> float:
        """Cost of one message of ``nbytes`` in isolation: latency + size / bandwidth."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class MachineSpec:
    """A complete compute node: host CPU + ``n_gpus`` identical GPUs + bus."""

    name: str
    cpu: CpuSpec
    gpu: GpuSpec
    pcie: PcieSpec
    n_gpus: int

    def __post_init__(self):
        if self.n_gpus < 0:
            raise ValueError("n_gpus must be non-negative")


def keeneland_node(n_gpus: int = 3) -> MachineSpec:
    """The paper's testbed: 2x8-core Sandy Bridge + up to 3 NVIDIA M2090."""
    if not 0 <= n_gpus <= 3:
        raise ValueError("a Keeneland node has at most 3 GPUs")
    return MachineSpec(
        name="keeneland-kids-node",
        cpu=CpuSpec(
            name="2x Xeon E5 (Sandy Bridge, 8 cores each)",
            cores=16,
            peak_gflops=333.0,
            mem_bandwidth=60.0e9,
            small_op_overhead=2.0e-6,
        ),
        gpu=GpuSpec(
            name="NVIDIA Tesla M2090 (Fermi)",
            peak_gflops=665.0,
            mem_bandwidth=120.0e9,
            kernel_overhead=7.0e-6,
            memory_bytes=6 * 1024**3,
        ),
        pcie=PcieSpec(latency=12.0e-6, bandwidth=5.8e9, shared_bus=True),
        n_gpus=n_gpus,
    )


def cpu_reference_node() -> MachineSpec:
    """The CPU-only reference of Fig. 3: the solver runs on one "device"
    whose rates are the 16-core host's (threaded MKL) and whose
    "interconnect" is shared memory (no latency, memory-speed bandwidth).

    Use with ``MultiGpuContext(1, machine=cpu_reference_node())`` to time
    the MKL-based CPU GMRES the paper compares against.
    """
    base = keeneland_node(1)
    return MachineSpec(
        name="cpu-reference-16-core-snb",
        cpu=base.cpu,
        gpu=GpuSpec(
            name="host-as-device (threaded MKL)",
            peak_gflops=base.cpu.peak_gflops,
            mem_bandwidth=base.cpu.mem_bandwidth,
            kernel_overhead=base.cpu.small_op_overhead,
            memory_bytes=64 * 1024**3,
        ),
        pcie=PcieSpec(latency=1e-7, bandwidth=base.cpu.mem_bandwidth, shared_bus=False),
        n_gpus=1,
    )
