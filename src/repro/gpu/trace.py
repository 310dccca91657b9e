"""Structured event trace for the simulated machine.

The paper's analysis (Figs. 11-15) is a per-kernel breakdown of where
CA-GMRES time goes — SpMV/MPK vs BOrth vs TSQR vs PCIe.  A coarse
``dict[str, float]`` of region totals cannot reproduce those tables (and
double-counts when regions nest, since each region charges the full
wall-clock delta).  :class:`TraceRecorder` replaces it with a structured
event log:

* every **kernel** charge (device or host) with its lane, start time and
  modeled duration;
* every **h2d/d2h transfer** as a PCIe **bus-occupancy interval** (the
  shared-bus serialization of Section IV is directly visible as back-to-back
  intervals in the ``pcie`` lane);
* every **region** enter/exit, properly nested: each region records both its
  *inclusive* wall-clock span and its *exclusive* time (inclusive minus the
  spans of nested child regions), so nested regions no longer double-count;
* **cycle marks** placed by the solvers at restart-cycle boundaries.

Three consumers sit on top of the log:

* :meth:`TraceRecorder.exclusive_totals` — the legacy ``ctx.timers`` view
  (identical to the old accumulation for non-nested regions), tallied as
  regions close;
* :meth:`TraceRecorder.profile` — per-kernel / per-region / per-transfer /
  per-restart-cycle aggregates, attached to ``SolveResult.details["profile"]``,
  computed in a single pass over the log (linear in the event count, not
  in cycles x events);
* :meth:`TraceRecorder.to_chrome_trace` — Chrome ``trace_event``-format JSON
  (one lane per device + host + PCIe bus + a region lane) that opens in
  ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = ["TraceEvent", "TraceRecorder"]

#: Lane name used for region (phase) span events in exported traces.
REGION_LANE = "regions"

#: Lane name used for PCIe bus-occupancy intervals.
PCIE_LANE = "pcie"

#: Lane name used for injected/detected/recovered fault events (see
#: :mod:`repro.faults`): ``kind`` is ``"fault"`` | ``"detect"`` |
#: ``"recover"``, so Chrome/Perfetto exports show faults in timeline
#: context next to the kernels and transfers they hit.  Degraded-mode
#: events (:mod:`repro.core.degrade`) share the lane with ``kind``
#: ``"degraded"`` | ``"repartition"`` | ``"deadline-exceeded"``.
FAULT_LANE = "faults"


@dataclass
class TraceEvent:
    """One interval on the simulated timeline.

    Attributes
    ----------
    name
        Event label (``"gemm_tn/cublas"``, ``"h2d"``, region name, ...).
    lane
        Timeline lane: ``"gpu0"``..``"gpuN"``, ``"host"``, ``"pcie"``, or
        ``"regions"``.
    kind
        ``"kernel"`` | ``"h2d"`` | ``"d2h"`` | ``"region"``.
    start, duration
        Simulated seconds.
    args
        Extra attributes (device id, byte counts, kernel shape, inclusive /
        exclusive region times, nesting depth, ...).
    """

    name: str
    lane: str
    kind: str
    start: float
    duration: float
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class TraceRecorder:
    """Append-only event log with region nesting and cycle marks.

    Recording is O(1) per event: a dataclass append.  Exclusive region
    times are tallied as regions close (:meth:`exclusive_totals`); every
    other aggregate comes from one pass over the log in event order, so
    :meth:`profile` costs O(events) whatever the number of restart cycles.
    The raw events stay in :attr:`events` for the exporters
    (:meth:`to_chrome_trace`, the ``trace`` CLI, the fault lane).
    ``enabled = False`` turns every record call into a no-op while keeping
    the exclusive-time region bookkeeping (so ``ctx.timers`` stays correct
    either way).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        self.cycle_marks: list[float] = []
        # Region stack entries: [name, start_time, child_inclusive_time].
        self._region_stack: list[list] = []
        self._exclusive: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        name: str,
        lane: str,
        kind: str,
        start: float,
        duration: float,
        **args,
    ) -> None:
        """Append one interval event (no-op when disabled)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(name, lane, kind, start, duration, args))

    def region_enter(self, name: str, t: float) -> None:
        """Open a (possibly nested) region at simulated time ``t``."""
        self._region_stack.append([name, t, 0.0])

    def region_exit(self, name: str, t: float) -> float:
        """Close the innermost region; returns its *exclusive* time.

        Raises ``ValueError`` on improperly nested enter/exit pairs.
        """
        if not self._region_stack:
            raise ValueError(f"region_exit({name!r}) with no open region")
        top_name, start, child_time = self._region_stack.pop()
        if top_name != name:
            raise ValueError(
                f"region_exit({name!r}) does not match open region {top_name!r}"
            )
        inclusive = t - start
        exclusive = inclusive - child_time
        if self._region_stack:
            self._region_stack[-1][2] += inclusive
        self._exclusive[name] = self._exclusive.get(name, 0.0) + exclusive
        if self.enabled:
            self.events.append(
                TraceEvent(
                    name,
                    REGION_LANE,
                    "region",
                    start,
                    inclusive,
                    {
                        "inclusive": inclusive,
                        "exclusive": exclusive,
                        "depth": len(self._region_stack),
                        # Nested inside an ancestor of the same name: such a
                        # span's inclusive time is already covered by it.
                        "self_nested": any(
                            fr[0] == name for fr in self._region_stack
                        ),
                    },
                )
            )
        return exclusive

    @property
    def region_depth(self) -> int:
        """Number of currently open regions."""
        return len(self._region_stack)

    def mark_cycle(self, t: float) -> None:
        """Mark a restart-cycle boundary at simulated time ``t``."""
        self.cycle_marks.append(float(t))

    def reset(self) -> None:
        """Drop all events, marks, and region state."""
        self.events.clear()
        self.cycle_marks.clear()
        self._region_stack.clear()
        self._exclusive.clear()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def exclusive_totals(self) -> dict[str, float]:
        """Per-region exclusive seconds — the ``ctx.timers`` view.

        For non-nested regions this equals the legacy wall-clock-delta
        accumulation; for nested regions the parent is charged only for the
        time not covered by its children.
        """
        return dict(self._exclusive)

    def _fold(self) -> dict:
        """Every aggregate of the event log, from one pass in event order.

        Sums accumulate in event order, so each float is the same as from a
        dedicated loop per aggregate.  Depth-0 regions are kept as
        ``(start, name, inclusive)`` for the cycle breakdown.
        """
        kernels: dict[str, dict] = {}
        regions: dict[str, dict] = {}
        transfers = {
            "h2d": {"count": 0, "bytes": 0, "time": 0.0},
            "d2h": {"count": 0, "bytes": 0, "time": 0.0},
        }
        busy: dict[str, float] = {}
        top: list[tuple] = []
        end = None
        for e in self.events:
            start, duration, kind = e.start, e.duration, e.kind
            t = start + duration
            if end is None or t > end:
                end = t
            if kind == "kernel":
                lane = e.lane
                entry = kernels.get(e.name)
                if entry is None:
                    entry = kernels[e.name] = {"count": 0, "time": 0.0, "by_lane": {}}
                entry["count"] += 1
                entry["time"] += duration
                by_lane = entry["by_lane"]
                by_lane[lane] = by_lane.get(lane, 0.0) + duration
                busy[lane] = busy.get(lane, 0.0) + duration
            elif kind == "region":
                args = e.args
                entry = regions.get(e.name)
                if entry is None:
                    entry = regions[e.name] = {"count": 0, "inclusive": 0.0, "exclusive": 0.0}
                entry["count"] += 1
                if not args.get("self_nested", False):
                    entry["inclusive"] += args["inclusive"]
                entry["exclusive"] += args["exclusive"]
                if args.get("depth", 0) == 0:
                    top.append((start, e.name, args["inclusive"]))
            elif kind in transfers:
                entry = transfers[kind]
                entry["count"] += 1
                entry["bytes"] += e.args.get("bytes", 0)
                entry["time"] += duration
                if e.lane == PCIE_LANE:
                    busy[PCIE_LANE] = busy.get(PCIE_LANE, 0.0) + duration
        return {
            "end": 0.0 if end is None else end,
            "kernels": kernels,
            "regions": regions,
            "transfers": transfers,
            "busy": busy,
            "top": top,
        }

    def end_time(self) -> float:
        """Latest event end (0.0 on an empty trace)."""
        return self._fold()["end"]

    def lane_busy_totals(self) -> dict[str, float]:
        """Busy seconds per lane: kernel time for device/host lanes, bus
        occupancy (h2d/d2h intervals) for the PCIe lane.

        Together with :meth:`end_time` this yields per-device utilization:
        ``busy[lane] / end_time()`` is the fraction of the run the lane had
        work in flight.
        """
        return self._fold()["busy"]

    def kernel_totals(self) -> dict[str, dict]:
        """Per-kernel aggregates: count, total seconds, per-lane seconds."""
        return self._fold()["kernels"]

    def region_totals(self) -> dict[str, dict]:
        """Per-region aggregates.

        ``inclusive`` skips spans nested inside a same-named ancestor (their
        time is already covered, so recursive/self-nested regions are not
        counted twice); ``exclusive`` matches :meth:`exclusive_totals`.
        """
        return self._fold()["regions"]

    def transfer_totals(self) -> dict[str, dict]:
        """h2d/d2h aggregates: message count, bytes, bus seconds."""
        return self._fold()["transfers"]

    def _windows(self, end: float) -> list[tuple[float, float]]:
        """Cycle windows from the marks, the last one closing at ``end``."""
        if not self.cycle_marks:
            return []
        bounds = list(self.cycle_marks) + [max(end, self.cycle_marks[-1])]
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    def cycle_windows(self) -> list[tuple[float, float]]:
        """Restart-cycle windows ``[(start, end), ...]`` from the marks."""
        return self._windows(self.end_time())

    def profile(self) -> dict:
        """Aggregate metrics for ``SolveResult.details["profile"]``.

        Keys: ``total_time`` (latest event end), ``regions`` (per-region
        inclusive/exclusive/count), ``kernels`` (per-kernel count/time/lane
        split), ``transfers`` (h2d/d2h count/bytes/bus-time), ``bus``
        (occupancy summary), and ``cycles`` (per-restart-cycle duration and
        top-level region breakdown).

        One pass over the events, plus a sort of the depth-0 regions by
        start: a window ``[start, end)`` takes the regions whose start lies
        in it, found by bisection, summed in event order.
        """
        fold = self._fold()
        top = fold["top"]
        order = sorted(range(len(top)), key=lambda i: top[i][0])
        starts = [top[i][0] for i in order]
        cycles = []
        for start, end in self._windows(fold["end"]):
            regions: dict[str, float] = {}
            lo, hi = bisect_left(starts, start), bisect_left(starts, end)
            for i in sorted(order[lo:hi]):
                _, name, inclusive = top[i]
                regions[name] = regions.get(name, 0.0) + inclusive
            cycles.append(
                {"start": start, "end": end, "duration": end - start, "regions": regions}
            )
        transfers = fold["transfers"]
        return {
            "total_time": fold["end"],
            "regions": fold["regions"],
            "kernels": fold["kernels"],
            "transfers": transfers,
            "bus": {
                "busy_time": transfers["h2d"]["time"] + transfers["d2h"]["time"],
                "messages": transfers["h2d"]["count"] + transfers["d2h"]["count"],
            },
            "cycles": cycles,
        }

    # ------------------------------------------------------------------
    # Chrome trace_event export
    # ------------------------------------------------------------------
    def lanes(self) -> list[str]:
        """Stable lane ordering: host, gpu0..gpuN, pcie, regions[, faults].

        The fault lane only appears when fault events were recorded, so
        fault-free traces are unchanged.
        """
        seen = {e.lane for e in self.events}
        gpus = sorted(lane for lane in seen if lane.startswith("gpu"))
        ordered = ["host"] + gpus + [PCIE_LANE, REGION_LANE]
        if FAULT_LANE in seen:
            ordered.append(FAULT_LANE)
        # Keep any unexpected lanes (future backends) at the end.
        ordered += sorted(seen - set(ordered))
        return ordered

    def fault_events(self) -> list[TraceEvent]:
        """All events in the fault lane (injections, detections, recoveries)."""
        return [e for e in self.events if e.lane == FAULT_LANE]

    def to_chrome_trace(self) -> dict:
        """The trace as a Chrome ``trace_event`` JSON object.

        Durations are exported in microseconds (the format's unit).  Every
        lane becomes one ``tid`` under a single ``pid`` so Perfetto shows
        one track per device, the host, the PCIe bus, and the region stack.
        """
        lane_ids = {lane: i for i, lane in enumerate(self.lanes())}
        trace_events: list[dict] = [
            {
                "ph": "M",
                "pid": 0,
                "name": "process_name",
                "args": {"name": "simulated node"},
            }
        ]
        for lane, tid in lane_ids.items():
            trace_events.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": lane},
                }
            )
            trace_events.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "name": "thread_sort_index",
                    "args": {"sort_index": tid},
                }
            )
        for e in self.events:
            trace_events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": lane_ids[e.lane],
                    "name": e.name,
                    "cat": e.kind,
                    "ts": e.start * 1e6,
                    "dur": e.duration * 1e6,
                    "args": dict(e.args),
                }
            )
        for i, t in enumerate(self.cycle_marks):
            trace_events.append(
                {
                    "ph": "i",
                    "pid": 0,
                    "tid": lane_ids[REGION_LANE],
                    "name": f"cycle {i}",
                    "cat": "cycle",
                    "ts": t * 1e6,
                    "s": "p",
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        """Serialize :meth:`to_chrome_trace` to ``path`` as JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceRecorder(events={len(self.events)}, "
            f"cycles={len(self.cycle_marks)}, enabled={self.enabled})"
        )
