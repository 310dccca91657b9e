"""The kernel-cost memo: memoized charges equal fresh cost-model evaluations.

``Device.charge_kernel``, ``Host.charge_kernel`` and
``Host.charge_small_dense`` look their cost up in the context's
:class:`~repro.perf.model.PerformanceModel` memo.  These tests pin that every
charge — first or repeated, under any keyword order, on any machine, with or
without an injected stall — moves the clocks and counters by exactly what
the cost model computes from scratch.
"""

import pytest

from repro.faults import FaultEvent, FaultPlan
from repro.gpu.context import MultiGpuContext
from repro.perf.kernels import KERNEL_TABLE, kernel_flops_bytes, kernel_time
from repro.perf.machine import cpu_reference_node, keeneland_node

#: Shape keywords per op, each swept over small, odd and large sizes.
SHAPES = {
    "dot": [{"n": n} for n in (1, 37, 1000, 250_000)],
    "axpy": [{"n": n} for n in (1, 37, 1000, 250_000)],
    "scal": [{"n": n} for n in (1, 37, 1000, 250_000)],
    "copy": [{"n": n} for n in (0, 37, 1000, 250_000)],
    "gemv_t": [{"n": n, "k": k} for n in (64, 50_000) for k in (1, 7, 30)],
    "gemv_n": [{"n": n, "k": k} for n in (64, 50_000) for k in (1, 7, 30)],
    "trsm": [{"n": n, "k": k} for n in (64, 50_000) for k in (1, 7, 30)],
    "qr_panel": [{"n": n, "k": k} for n in (64, 50_000) for k in (1, 7, 30)],
    "gemm_tn": [
        {"n": n, "k": k, "j": j} for n in (64, 50_000) for k in (1, 5, 30) for j in (1, 30)
    ],
    "gemm_nn": [
        {"n": n, "k": k, "j": j} for n in (64, 50_000) for k in (1, 5, 30) for j in (1, 30)
    ],
    "spmv": [{"nnz": nnz, "n_rows": r} for nnz, r in ((0, 1), (500, 100), (5_000_000, 10**6))],
}


def _entries():
    for (op, variant) in KERNEL_TABLE:
        for shape in SHAPES[op]:
            yield op, variant, shape


@pytest.mark.parametrize("machine", [keeneland_node(), cpu_reference_node()], ids=["m2090", "cpu"])
def test_device_charges_equal_fresh_model(machine):
    ctx = MultiGpuContext(1, machine=machine)
    dev = ctx.devices[0]
    gpu = machine.gpu
    clock, flops, launches = 0.0, 0.0, 0
    for op, variant, shape in _entries():
        expected = kernel_time(
            op, variant, gpu.peak_gflops * 1e9, gpu.mem_bandwidth, gpu.kernel_overhead, **shape
        )
        expected_flops = kernel_flops_bytes(op, variant, **shape)[0]
        for _ in range(3):  # first charge fills the memo, the rest hit it
            assert dev.charge_kernel(op, variant, **shape) == expected
            clock += expected
            flops += expected_flops
            launches += 1
            assert dev.clock == clock
            assert ctx.counters.device_flops == flops
    assert ctx.counters.kernel_launches == launches
    # Cost-model evaluations: one per distinct (op, variant, shape).
    assert len(ctx.perf._gpu_costs) == launches // 3


def test_host_charges_equal_fresh_model():
    ctx = MultiGpuContext(1)
    cpu = ctx.machine.cpu
    clock, flops = 0.0, 0.0
    for op, variant, shape in _entries():
        expected = kernel_time(
            op, variant, cpu.peak_gflops * 1e9, cpu.mem_bandwidth, cpu.small_op_overhead, **shape
        )
        for _ in range(2):
            assert ctx.host.charge_kernel(op, variant, **shape) == expected
            clock += expected
            flops += kernel_flops_bytes(op, variant, **shape)[0]
            assert ctx.host.clock == clock
            assert ctx.counters.host_flops == flops
    for op in ("chol", "qr", "svd", "eig", "lstsq_hessenberg", "trsv"):
        for k in (1, 4, 31):
            expected = ctx.perf.host_small_dense(op, k)
            for _ in range(2):
                assert ctx.host.charge_small_dense(op, k) == expected
                clock += expected
                assert ctx.host.clock == clock
    assert ctx.counters.kernel_counts["chol/lapack"] == 6


def test_keyword_order_does_not_matter():
    ctx = MultiGpuContext(1)
    dev = ctx.devices[0]
    a = dev.charge_kernel("gemm_tn", "batched", n=5000, k=7, j=3)
    b = dev.charge_kernel("gemm_tn", "batched", j=3, k=7, n=5000)
    c = dev.charge_kernel("gemm_tn", "batched", k=7, n=5000, j=3)
    assert a == b == c
    assert len(ctx.perf._gpu_costs) == 1
    assert ctx.counters.kernel_counts == {"gemm_tn/batched": 3}
    # Different values are different keys.
    assert dev.charge_kernel("gemm_tn", "batched", n=6000, k=7, j=3) != a
    assert len(ctx.perf._gpu_costs) == 2


def test_contexts_on_different_machines_never_share_entries():
    shape = {"n": 100_000, "k": 30}
    machines = [keeneland_node(1), cpu_reference_node()]
    fresh = []
    for machine in machines:
        gpu = machine.gpu
        fresh.append(
            kernel_time("gemv_t", "magma", gpu.peak_gflops * 1e9, gpu.mem_bandwidth,
                        gpu.kernel_overhead, **shape)
        )
    assert fresh[0] != fresh[1]
    # Either charge order gives each context its own machine's cost.
    for order in ([0, 1], [1, 0]):
        ctxs = {i: MultiGpuContext(1, machine=machines[i]) for i in order}
        for i in order:
            for _ in range(2):
                assert ctxs[i].devices[0].charge_kernel("gemv_t", "magma", **shape) == fresh[i]
        assert ctxs[0].perf._gpu_costs is not ctxs[1].perf._gpu_costs


def test_machine_is_read_only():
    ctx = MultiGpuContext(1)
    with pytest.raises(AttributeError):
        ctx.perf.machine = cpu_reference_node()


def _stalled_run(clear_memo: bool):
    """A fixed kernel sequence under a scripted stall plan.

    With ``clear_memo`` the memo is emptied before every charge, so each
    charge is a fresh cost-model evaluation.
    """
    plan = FaultPlan.scripted(
        [
            FaultEvent("gpu0", "stall", trigger=1, factor=4.0),
            FaultEvent("gpu1", "stall", trigger=3, factor=2.5),
            FaultEvent("host", "stall", trigger=2, factor=8.0),
        ]
    )
    ctx = MultiGpuContext(2, fault_plan=plan)
    for step in range(4):
        for dev in ctx.devices:
            for op, variant, shape in (
                ("gemv_t", "magma", {"n": 4000, "k": 8}),
                ("spmv", "ellpack", {"nnz": 20_000, "n_rows": 4000}),
                ("dot", "cublas", {"n": 4000}),
            ):
                if clear_memo:
                    ctx.perf._gpu_costs.clear()
                dev.charge_kernel(op, variant, **shape)
        if clear_memo:
            ctx.perf._cpu_costs.clear()
            ctx.perf._small_dense_costs.clear()
        ctx.host.charge_kernel("axpy", "mkl", n=8000)
        ctx.host.charge_small_dense("chol", 8 + step % 2)
    return ctx


def test_scripted_stall_timeline_matches_fresh_computation():
    memo = _stalled_run(clear_memo=False)
    fresh = _stalled_run(clear_memo=True)

    def timeline(ctx):
        return [(e.name, e.lane, e.kind, e.start, e.duration) for e in ctx.trace.events]

    assert timeline(memo) == timeline(fresh)
    assert [d.clock for d in memo.all_devices] == [d.clock for d in fresh.all_devices]
    assert memo.host.clock == fresh.host.clock
    assert memo.counters.snapshot() == fresh.counters.snapshot()
    assert len(memo.faults.injected) == 3
    # A stall extends only the charge it hits: the memo keeps the base cost.
    gpu0 = [e for e in memo.trace.events if e.lane == "gpu0" and e.name == "spmv/ellpack"]
    base = memo.perf.gpu_time("spmv", "ellpack", nnz=20_000, n_rows=4000)
    assert gpu0[0].duration == base + base * 3.0
    assert all(e.duration == base for e in gpu0[1:])
