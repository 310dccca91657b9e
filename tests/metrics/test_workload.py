"""Workload determinism: the tentpole's bit-identity guarantee.

The deterministic (wall-clock-excluded) snapshot of the metrics workload
must be byte-identical across reruns for every supported configuration —
that is what makes the exported metrics diffable artifacts and what the
CLI's ``--check`` mode asserts in CI.
"""

import json

import pytest

from repro.metrics import deterministic_snapshot, to_prometheus
from repro.metrics.workload import run_workload


def _run(n_gpus, basis):
    registry, doc = run_workload(n_gpus=n_gpus, suite="tiny", basis=basis)
    snap = json.dumps(deterministic_snapshot(registry), sort_keys=True)
    text = to_prometheus(registry, include_wall_clock=False)
    return snap, text, json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("n_gpus", [1, 2, 3])
@pytest.mark.parametrize("basis", ["monomial", "newton"])
def test_workload_rerun_bit_identical(n_gpus, basis):
    a = _run(n_gpus, basis)
    b = _run(n_gpus, basis)
    assert a == b


def test_workload_document_shape():
    _, doc = run_workload(suite="tiny")
    assert doc["benchmark"] == "fig14_quick_sim"
    assert {c["solver"] for c in doc["cases"]} == {"gmres", "ca_gmres"}
    for case in doc["cases"]:
        assert case["sim_time_ms"] > 0.0
        assert case["iterations"] > 0


def test_workload_populates_all_layers():
    registry, _ = run_workload(suite="tiny")
    names = {f.name for f in registry.families()}
    expected = {
        "repro_lane_busy_seconds_total",  # runtime / trace
        "repro_kernel_launches_total",  # counters bridge
        "repro_solver_cycle_seconds",  # per-cycle hook
        "repro_solves_total",  # convergence
        "repro_serve_request_seconds",  # serving latency (wall clock)
        "repro_plan_cache_requests_total",  # plan cache
    }
    assert expected <= names


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_workload(suite="nope")
