"""Measurement loop, correctness oracle and metrics.

One closed-loop client on one thread: each request is sent as soon as the
previous one has been answered and checked.  Latency is the wall time of
the call into the program; input generation, the oracle and the speed
probe run outside it.

Host times are reported at a reference machine speed.  A short fixed probe
(:class:`Probe`, no ``repro`` code) runs after every request; each host time
is multiplied by ``(PROBE_REF_MS / median probe time) ** PROBE_EXPONENT``
for its run.  On a shared machine whose speed drifts between runs this
removes most of the drift; the raw values are in the ``detail`` line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer
from workloads import WORKLOADS, requests

#: Set-ups per run (at least ``SETUP_REPEATS`` and at least
#: ``SETUP_SECONDS`` of set-up time); ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
#: Requests beyond the overall tail percentile reported in ``detail``.
TAIL_BEYOND = 10
#: Probe time that defines the reference machine speed (Xeon VM, 2 vCPUs).
PROBE_REF_MS = 2.0
#: Host times grow as about this power of the probe time when the machine
#: slows down: log-log slopes of 0.65-0.78 over four sets of 8-10 runs on
#: the reference machine (the probe slows down more than the program).
PROBE_EXPONENT = 0.7
REGIONS = ("mpk", "spmv", "borth", "tsqr", "orth", "lsq", "update")


# -- correctness oracle ------------------------------------------------------
def oracle(req, results, error) -> list[tuple[bool, str, float]]:
    """Check every answer of one request on the host with scipy.

    Uses the caller's own matrix, independent of ``repro``'s kernels.
    Returns ``(ok, reason, caller relative residual)`` per right-hand side.
    """
    if error is not None:
        return [(False, f"raised {error}", math.nan)] * len(req.bs)
    checks = []
    for b, res in zip(req.bs, results):
        x = np.asarray(res.x)
        if x.shape != b.shape or not np.all(np.isfinite(x)):
            checks.append((False, "non-finite or misshapen x", math.nan))
            continue
        rel = float(np.linalg.norm(b - req.operator.scipy @ x) / np.linalg.norm(b))
        if res.converged and not rel <= req.tol:
            checks.append((False, "converged but caller residual > tol", rel))
        elif not res.converged and not rel < 1.0:  # x0 = 0 has residual 1
            checks.append((False, "no better than x0 at restart budget", rel))
        else:
            checks.append((True, "", rel))
    return checks


def fingerprint(results, error) -> str:
    """Digest of everything a request returned, bit for bit."""
    if error is not None:
        return f"error:{error}"
    h = hashlib.sha256()
    for res in results:
        h.update(np.ascontiguousarray(res.x).tobytes())
        h.update(
            repr(
                (
                    res.converged, res.n_restarts, res.n_iterations, res.breakdowns,
                    sorted(res.timers.items()), sorted(res.counters.items()),
                    [c["duration"] for c in res.profile["cycles"]],
                )
            ).encode()
        )
    return h.hexdigest()


class Probe:
    """A short fixed pure-Python loop, timed between requests.

    Its median over a run says how fast the machine ran during that run.
    Of the probes tried (this loop, a numpy gather + ``reduceat``, many
    small numpy calls) it tracked the program's speed best between runs.
    """

    def __init__(self):
        self.samples: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        self.samples.append(time.perf_counter() - t0)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that converts this run's host times to reference speed."""
        return (PROBE_REF_MS / self.median_ms()) ** PROBE_EXPONENT


# -- one pass of requests ----------------------------------------------------
@dataclass
class Record:
    index: int
    label: str
    solver: str
    batch: bool
    n_rhs: int
    latency: float
    error: str | None
    checks: list
    digest: str
    kernel_launches: int = 0
    trace_events: int = 0
    breakdowns: int = 0
    results: list | None = field(default=None, repr=False)

    @property
    def failed(self) -> int:
        return sum(not ok for ok, _, _ in self.checks)


def serve_one(wl, i: int, keep: bool, tracer: Tracer | None = None) -> Record:
    req = wl.request(i)
    error = None
    results = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            results = wl.serve(req)
        else:
            with tracer.span(i):
                results = wl.serve(req)
    except Exception as exc:  # a failed request is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    rec = Record(
        index=i, label=req.label, solver=req.solver, batch=req.batch,
        n_rhs=len(req.bs), latency=latency, error=error,
        checks=oracle(req, results, error), digest=fingerprint(results, error),
    )
    if results:
        # A batch's timers and counters describe the whole batch.
        rec.kernel_launches = int(results[0].counters["kernel_launches"])
        rec.trace_events = len(wl.context(req).trace.events)
        rec.breakdowns = sum(int(r.breakdowns) for r in results)
        if keep:
            rec.results = results
    return rec


def run_pass(wl, probe: Probe, count: int, tracer=None) -> list[Record]:
    """Serve requests ``0, 1, ..., count - 1``.  The first ``wl.prefix``
    keep their results, which define the simulated metrics."""
    records = []
    for i in range(count):
        records.append(serve_one(wl, i, keep=i < wl.prefix, tracer=tracer))
        probe()
    return records


def repeat_mismatches(wl, records) -> list[int]:
    """Serve again the first single request of each label and the first
    batch; list those whose answers differ."""
    first = {}
    for rec in records:
        first.setdefault("batch" if rec.batch else rec.label, rec)
    return [
        rec.index
        for rec in first.values()
        if serve_one(wl, rec.index, keep=False).digest != rec.digest
    ]


# -- metrics -----------------------------------------------------------------
def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _prefix_singles(records, solver=None):
    """Single-RHS requests of the prefix with their results (a batch's
    timers describe the whole batch, so batches are left out)."""
    for rec in records:
        if rec.results and not rec.batch and (solver is None or rec.solver == solver):
            yield rec, rec.results[0]


def _full_cycles(res) -> list:
    """Restart cycles after the first, which for Newton CA-GMRES is a plain
    GMRES cycle that seeds the shifts, without a last cycle cut short by
    convergence."""
    cycles = res.profile["cycles"][1:]
    return cycles[:-1] if res.converged else cycles


def sim_metrics(records) -> dict:
    """Simulated-clock metrics from the fixed request prefix."""
    per_restart: dict[tuple[str, str], list[float]] = {}
    for rec, res in _prefix_singles(records):
        cycles = _full_cycles(res)
        if cycles:
            key = (rec.label.split("/")[0], rec.solver)
            per_restart.setdefault(key, []).append(
                sum(c["duration"] for c in cycles) / len(cycles)
            )
    means = {key: statistics.fmean(v) for key, v in per_restart.items()}
    mats = sorted({mat for mat, _ in means})
    ca = [means[(m, "ca")] for m in mats if (m, "ca") in means]
    speedups = [
        means[(m, "gmres")] / means[(m, "ca")]
        for m in mats
        if (m, "ca") in means and (m, "gmres") in means
    ]
    if not ca or not speedups:
        raise RuntimeError("the request prefix gave no full restart cycles")
    singles = [res for _, res in _prefix_singles(records)]
    correct = [
        res for rec, res in _prefix_singles(records) if res.converged and rec.checks[0][0]
    ]
    return {
        "sim_ms_per_restart": 1e3 * geomean(ca),
        "sim_speedup": geomean(speedups),
        "sim_ms_per_request": 1e3 * geomean(r.total_time for r in singles),
        "iterations_per_request": statistics.fmean(r.n_iterations for r in singles),
        "sim_ms_to_solution": (
            1e3 * statistics.median(r.total_time for r in correct) if correct else None
        ),
        "iterations_to_solution": (
            statistics.median(r.n_iterations for r in correct) if correct else None
        ),
    }


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latency_metrics(records) -> dict:
    """Median and tail latency in ms of single-RHS requests.

    Batches (about 4x a single request) are measured by throughput and
    ``batch_rhs_per_s`` instead.  Request kinds (matrix, solver) take
    different times, so a median over all requests would sit on the
    boundary between two kinds and jump between them; ``p50`` is the
    geometric mean of each kind's median, weighted by the kind's share of
    requests, and ``tail`` the same mean of each kind's 90th percentile.
    The highest percentile over all single requests with at least
    ``TAIL_BEYOND`` requests beyond it (``tail_overall``) is one order
    statistic of the slowest kind and moved by 0.12-0.21 (quartile spread)
    across seeds on ``long-solve``, against about 0.05 for ``tail``.
    """
    singles = [rec for rec in records if not rec.batch]
    lat = sorted(1e3 * rec.latency for rec in singles)
    n = len(lat)
    k = max(n - TAIL_BEYOND - 1, 0)
    by_kind: dict[str, list[float]] = {}
    for rec in singles:
        by_kind.setdefault(rec.label, []).append(1e3 * rec.latency)

    def kind_mean(stat) -> float:
        return math.exp(sum(len(v) * math.log(stat(v)) for v in by_kind.values()) / n)

    return {
        "p50": kind_mean(statistics.median),
        "tail": kind_mean(_p90),
        "tail_overall": lat[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_beyond": n - k - 1,
        "requests": len(records),
        "p50_by_kind": {key: statistics.median(v) for key, v in sorted(by_kind.items())},
        "p90_by_kind": {key: _p90(v) for key, v in sorted(by_kind.items())},
    }


def sim_layer_metrics(records) -> dict:
    """Simulated per-layer split of the prefix's CA-GMRES requests."""
    regions = {r: [] for r in REGIONS}
    pcie_msgs, pcie_bytes, busy, launches, gflop, brk = [], [], [], [], [], []
    for _, res in _prefix_singles(records, solver="ca"):
        cycles = _full_cycles(res)
        if cycles:
            for r in REGIONS:
                regions[r].append(
                    sum(c["regions"].get(r, 0.0) for c in cycles) / len(cycles)
                )
        c = res.counters
        restarts = max(res.n_restarts, 1)
        pcie_msgs.append((c["h2d_messages"] + c["d2h_messages"]) / restarts)
        pcie_bytes.append((c["h2d_bytes"] + c["d2h_bytes"]) / restarts)
        busy.append(res.profile["bus"]["busy_time"] / res.profile["total_time"])
        launches.append(c["kernel_launches"] / restarts)
        gflop.append(c["device_flops"] / 1e9 / restarts)
        brk.append(res.breakdowns)
    sim = sim_metrics(records)
    out = {
        f"sim.{r}_ms_per_restart": (1e3 * statistics.fmean(v) if v else 0.0, "ms")
        for r, v in regions.items()
    }
    out.update(
        {
            "sim.pcie_messages_per_restart": (statistics.fmean(pcie_msgs), "count"),
            "sim.pcie_bytes_per_restart": (statistics.fmean(pcie_bytes), "B"),
            "sim.pcie_busy_share": (statistics.fmean(busy), "ratio"),
            "sim.kernel_launches_per_restart": (statistics.fmean(launches), "count"),
            "sim.device_gflop_per_restart": (statistics.fmean(gflop), "GFLOP"),
            "sim.tsqr_breakdowns": (statistics.fmean(brk), "count"),
            "core.iterations_per_request": (sim["iterations_per_request"], "count"),
        }
    )
    return out


def cache_lookups(wl) -> tuple[int, int]:
    """``(hits, misses)`` summed over the workload's distinct plan caches."""
    hits = misses = 0
    for cache in {id(c): c for c in wl.caches()}.values():
        s = cache.stats
        hits += s["host_hits"] + s["plan_hits"]
        misses += s["host_misses"] + s["plan_misses"]
    return hits, misses


def _summary(records) -> dict:
    attempted = sum(r.n_rhs for r in records)
    failed = sum(r.failed for r in records)
    reasons: dict[str, int] = {}
    for rec in records:
        for ok, why, _ in rec.checks:
            if not ok:
                key = f"{rec.label}: {why}"
                reasons[key] = reasons.get(key, 0) + 1
    return {"attempted": attempted, "failed": failed, "failures": reasons}


def environment() -> dict:
    """Versions and CPU count, recorded with every run."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# -- entry points --------------------------------------------------------------
def measure(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced run: every end-to-end metric."""
    env = environment()
    wl = WORKLOADS[name](seed)
    setups = []
    # The machine's speed at set-up time, which can differ from its speed
    # during the requests.
    setup_probe = Probe()
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        # The replaced sessions hold reference cycles: free them now, so
        # that repeated set-ups do not show in peak_rss_mb.
        gc.collect()
        setup_probe()
    probe = Probe()
    records = run_pass(wl, probe, requests(wl, seconds))
    mismatches = repeat_mismatches(wl, records)
    timed = sum(r.latency for r in records)
    summary = _summary(records)
    lat = latency_metrics(records)
    sim = sim_metrics(records)
    batch = [r for r in records if r.batch]
    raw = {
        "setup_s": statistics.median(setups),
        "throughput_rhs_per_s": summary["attempted"] / timed,
        "goodput_rhs_per_s": (summary["attempted"] - summary["failed"]) / timed,
        "batch_rhs_per_s": (
            sum(r.n_rhs for r in batch) / sum(r.latency for r in batch) if batch else None
        ),
        "latency_p50_ms": lat["p50"],
        "latency_tail_ms": lat["tail"],
        "latency_tail_overall_ms": lat["tail_overall"],
    }
    scale = probe.scale()
    metrics = {
        "setup_s": (raw["setup_s"] * setup_probe.scale(), "s"),
        "throughput_rhs_per_s": (raw["throughput_rhs_per_s"] / scale, "rhs/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * scale, "ms"),
        "latency_tail_ms": (raw["latency_tail_ms"] * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_ms_per_restart": (sim["sim_ms_per_restart"], "ms"),
        "sim_speedup": (sim["sim_speedup"], "ratio"),
        "sim_ms_per_request": (sim["sim_ms_per_request"], "ms"),
    }
    detail = {
        "workload": name,
        "seed": seed,
        "env": env,
        "probe_ms": probe.median_ms(),
        "setup_probe_ms": setup_probe.median_ms(),
        "reference_scale": scale,
        "raw": raw,
        "setup_runs_s": setups,
        "timed_wall_s": timed,
        "requests": lat["requests"],
        "tail_percentile": lat["tail_percentile"],
        "tail_beyond": lat["tail_beyond"],
        "latency_p50_by_kind_ms": lat["p50_by_kind"],
        "latency_p90_by_kind_ms": lat["p90_by_kind"],
        "fail_frac": summary["failed"] / summary["attempted"],
        "failures": summary["failures"],
        **{k: v for k, v in sim.items() if k not in metrics},
        "repeat_mismatches": mismatches,
    }
    result = {
        "correct": not mismatches,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    return result, detail


def measure_traced(name: str, seed: int, seconds: float, out_dir: Path) -> tuple[dict, dict]:
    """Traced run: per-layer metrics and the tracing overhead.

    An untraced pass serves the requests of a run half as long; a traced
    pass then replays exactly the same requests, and every answer and
    simulated number must match the untraced pass bit for bit.
    """
    env = environment()
    wl = WORKLOADS[name](seed)
    wl.setup()
    plain_probe = Probe()
    plain = run_pass(wl, plain_probe, requests(wl, seconds / 2))
    tracer = Tracer()
    traced_probe = Probe()
    with tracer:
        with tracer.span(-1):
            wl.setup()
        setup_totals = tracer.totals()
        tracer.reset_totals()
        hits0, misses0 = cache_lookups(wl)
        traced = run_pass(wl, traced_probe, len(plain), tracer=tracer)
        hits1, misses1 = cache_lookups(wl)
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}.npz")

    mismatches = [a.index for a, b in zip(plain, traced) if a.digest != b.digest]
    totals = tracer.totals()
    rhs = sum(r.n_rhs for r in traced)
    plain_wall = sum(r.latency for r in plain)
    traced_wall = sum(r.latency for r in traced)
    scale = traced_probe.scale()

    def self_s(layer):
        return (totals[layer][1] * scale / rhs, "s/rhs")

    def calls(layer):
        return (totals[layer][0] / rhs, "1/rhs")

    tsqr_calls = totals["orth.tsqr"][0]
    lookups = (hits1 - hits0) + (misses1 - misses0)
    metrics = {
        "gpu.blas.spmv.self_s": self_s("gpu.blas.spmv"),
        "gpu.blas.dense.self_s": self_s("gpu.blas.dense"),
        "gpu.charge_kernel.self_s": self_s("gpu.charge_kernel"),
        "gpu.charge_kernel.calls": calls("gpu.charge_kernel"),
        "gpu.trace.profile.self_s": self_s("gpu.trace.profile"),
        "gpu.trace.events": (sum(r.trace_events for r in traced) / rhs, "1/rhs"),
        "gpu.transfer.self_s": self_s("gpu.transfer"),
        "gpu.host_us_per_kernel": (
            1e6 * plain_wall * plain_probe.scale() / sum(r.kernel_launches for r in plain),
            "us",
        ),
        "perf.gpu_time.self_s": self_s("perf.gpu_time"),
        "perf.gpu_time.calls": calls("perf.gpu_time"),
        "mpk.run.self_s": self_s("mpk.run"),
        "mpk.run.calls": calls("mpk.run"),
        "mpk.build.self_s": self_s("mpk.build"),
        "orth.borth.self_s": self_s("orth.borth"),
        "orth.tsqr.self_s": self_s("orth.tsqr"),
        "orth.tsqr.calls": calls("orth.tsqr"),
        "orth.cholqr_ok_ratio": (
            1.0 - sum(r.breakdowns for r in traced) / tsqr_calls if tsqr_calls else 1.0,
            "ratio",
        ),
        "dist.spmv.self_s": self_s("dist.spmv"),
        "dist.exchange.self_s": self_s("dist.exchange"),
        "dist.build.self_s": self_s("dist.build"),
        "core.step.self_s": self_s("core.step"),
        "core.step.calls": calls("core.step"),
        "core.result.self_s": self_s("core.result"),
        "core.lsq.self_s": self_s("core.lsq"),
        "core.balance.self_s": self_s("core.balance"),
        "serve.session.self_s": self_s("serve.session"),
        "serve.solve.self_s": self_s("serve.solve"),
        "serve.solve_many.self_s": self_s("serve.solve_many"),
        "serve.pattern_hash.self_s": self_s("serve.pattern_hash"),
        "serve.pattern_hash.calls": calls("serve.pattern_hash"),
        "serve.host_plan.self_s": self_s("serve.host_plan"),
        "serve.structural_plan.self_s": self_s("serve.structural_plan"),
        "serve.plan_hit_ratio": ((hits1 - hits0) / lookups if lookups else 1.0, "ratio"),
        "serve.plan_builds": ((misses1 - misses0) / rhs, "1/rhs"),
        "order.partition.self_s": self_s("order.partition"),
        "unattributed.self_s": self_s("bench.request"),
    }
    for layer in (
        "order.partition", "core.balance", "serve.host_plan", "dist.build", "mpk.build"
    ):
        metrics[f"setup.{layer}.self_s"] = (setup_totals[layer][1] * scale, "s")
    metrics["trace.overhead_ratio"] = (
        (traced_wall * traced_probe.scale()) / (plain_wall * plain_probe.scale()),
        "ratio",
    )
    metrics["trace.spans_per_rhs"] = (len(tracer.span_id) / rhs, "1/rhs")
    metrics["host.probe_ms"] = (traced_probe.median_ms(), "ms")
    metrics.update(sim_layer_metrics(plain))

    summary = _summary(traced)
    detail = {
        "workload": name,
        "seed": seed,
        "env": env,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "probe_ms": {"untraced": plain_probe.median_ms(), "traced": traced_probe.median_ms()},
        "requests": len(traced),
        "spans": len(tracer.span_id),
        "fail_frac": summary["failed"] / summary["attempted"],
        "failures": summary["failures"],
        "trace_mismatches": mismatches,
    }
    result = {
        "correct": not mismatches,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    return result, detail


def report(result: dict, detail: dict, out=sys.stdout) -> None:
    """Human-readable lines, then the detail object, then the result line."""
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:40s} {value:16.6g} {unit}", file=out)
    print("detail " + json.dumps(detail, sort_keys=True, default=str), file=out)
    final = dict(result)
    final["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(final), file=out, flush=True)
