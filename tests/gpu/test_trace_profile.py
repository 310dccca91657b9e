"""The single-pass trace aggregation against the per-window reference.

``TraceRecorder.profile()`` walks the event log once.  The reference below
is the straightforward aggregation it replaced: one scan per aggregate and
one scan of every event per restart-cycle window, O(cycles x events).  The
property requires exact equality (``==`` and ``repr``, so float bits and
dict key order both match) on random traces built through the recorder's
own API.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.trace import PCIE_LANE, TraceRecorder


# ----------------------------------------------------------------------
# Reference: one scan per aggregate, one scan of the log per cycle window.
# ----------------------------------------------------------------------
def ref_end_time(tr):
    return max((e.end for e in tr.events), default=0.0)


def ref_lane_busy_totals(tr):
    busy = {}
    for e in tr.events:
        if e.kind == "kernel" or (e.lane == PCIE_LANE and e.kind in ("h2d", "d2h")):
            busy[e.lane] = busy.get(e.lane, 0.0) + e.duration
    return busy


def ref_kernel_totals(tr):
    out = {}
    for e in tr.events:
        if e.kind != "kernel":
            continue
        entry = out.setdefault(e.name, {"count": 0, "time": 0.0, "by_lane": {}})
        entry["count"] += 1
        entry["time"] += e.duration
        entry["by_lane"][e.lane] = entry["by_lane"].get(e.lane, 0.0) + e.duration
    return out


def ref_region_totals(tr):
    out = {}
    for e in tr.events:
        if e.kind != "region":
            continue
        entry = out.setdefault(e.name, {"count": 0, "inclusive": 0.0, "exclusive": 0.0})
        entry["count"] += 1
        if not e.args.get("self_nested", False):
            entry["inclusive"] += e.args["inclusive"]
        entry["exclusive"] += e.args["exclusive"]
    return out


def ref_transfer_totals(tr):
    out = {
        "h2d": {"count": 0, "bytes": 0, "time": 0.0},
        "d2h": {"count": 0, "bytes": 0, "time": 0.0},
    }
    for e in tr.events:
        if e.kind not in out:
            continue
        entry = out[e.kind]
        entry["count"] += 1
        entry["bytes"] += e.args.get("bytes", 0)
        entry["time"] += e.duration
    return out


def ref_cycle_windows(tr):
    if not tr.cycle_marks:
        return []
    bounds = list(tr.cycle_marks) + [max(ref_end_time(tr), tr.cycle_marks[-1])]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def ref_profile(tr):
    transfers = ref_transfer_totals(tr)
    cycles = []
    for start, end in ref_cycle_windows(tr):
        regions = {}
        for e in tr.events:
            if e.kind == "region" and e.args.get("depth", 0) == 0 and start <= e.start < end:
                regions[e.name] = regions.get(e.name, 0.0) + e.args["inclusive"]
        cycles.append({"start": start, "end": end, "duration": end - start, "regions": regions})
    return {
        "total_time": ref_end_time(tr),
        "regions": ref_region_totals(tr),
        "kernels": ref_kernel_totals(tr),
        "transfers": transfers,
        "bus": {
            "busy_time": transfers["h2d"]["time"] + transfers["d2h"]["time"],
            "messages": transfers["h2d"]["count"] + transfers["d2h"]["count"],
        },
        "cycles": cycles,
    }


# ----------------------------------------------------------------------
# Random traces through the recorder API.
# ----------------------------------------------------------------------
#: Durations that do not add up exactly in binary, so summation order shows.
DURATIONS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1e-7, 7.3e-6, 1.0 / 3.0, 2.5])
REGIONS = st.sampled_from(["mpk", "borth", "tsqr", "lsq"])

OPS = st.one_of(
    st.tuples(st.just("kernel"), st.sampled_from(["gpu0", "gpu1", "host"]),
              st.sampled_from(["dot/cublas", "spmv/ellpack", "axpy/mkl"]), DURATIONS),
    # Transfers off the PCIe lane count as transfers but not as bus time.
    st.tuples(st.just("xfer"), st.sampled_from(["h2d", "d2h"]),
              st.sampled_from([PCIE_LANE, PCIE_LANE, "gpu0"]),
              st.integers(0, 4096), DURATIONS),
    st.tuples(st.just("fault"), DURATIONS),
    st.tuples(st.just("enter"), REGIONS),
    st.tuples(st.just("exit"), DURATIONS),
    # A clock moving back (a device dropped from the roster can lower the
    # wall clock) makes a later region start before an earlier one.
    st.tuples(st.just("advance"), st.one_of(DURATIONS, st.just(-0.7))),
    # Offsets below zero mark earlier than the clock; repeats give duplicate
    # marks.
    st.tuples(st.just("mark"), st.sampled_from([0.0, 0.0, -0.3, 0.1, 1.0 / 3.0])),
    st.tuples(st.just("reset")),
)


def build_trace(enabled, ops):
    tr = TraceRecorder(enabled=enabled)
    t = 0.0
    open_regions = []
    for op in ops:
        kind = op[0]
        if kind == "kernel":
            _, lane, name, dur = op
            tr.record(name, lane, "kernel", t, dur, op=name)
            t += dur
        elif kind == "xfer":
            _, direction, lane, nbytes, dur = op
            tr.record(f"{direction} gpu0", lane, direction, t, dur, bytes=nbytes)
            t += dur
        elif kind == "fault":
            tr.record("stall", "faults", "fault", t, op[1])
        elif kind == "enter":
            tr.region_enter(op[1], t)
            open_regions.append(op[1])
        elif kind == "exit" and open_regions:
            # A zero duration closes a zero-width region (possibly at the
            # trace's end time).
            t += op[1]
            tr.region_exit(open_regions.pop(), t)
        elif kind == "advance":
            t += op[1]
        elif kind == "mark":
            tr.mark_cycle(t + op[1])
        elif kind == "reset":
            tr.reset()
            open_regions.clear()
    return tr


@settings(max_examples=300, deadline=None)
@given(enabled=st.booleans(), ops=st.lists(OPS, max_size=60))
def test_single_pass_matches_reference(enabled, ops):
    tr = build_trace(enabled, ops)
    pairs = [
        (tr.profile(), ref_profile(tr)),
        (tr.kernel_totals(), ref_kernel_totals(tr)),
        (tr.region_totals(), ref_region_totals(tr)),
        (tr.transfer_totals(), ref_transfer_totals(tr)),
        (tr.lane_busy_totals(), ref_lane_busy_totals(tr)),
        (tr.end_time(), ref_end_time(tr)),
        (tr.cycle_windows(), ref_cycle_windows(tr)),
    ]
    for got, want in pairs:
        assert got == want
        assert repr(got) == repr(want)


def test_reference_covers_the_edge_cases():
    """A hand-built trace with every case the property is meant to reach."""
    ops = [
        ("enter", "lsq"), ("exit", 0.1),  # region before the first mark
        ("mark", 0.0), ("mark", 0.0),  # duplicate marks: an empty window
        ("enter", "mpk"), ("enter", "mpk"),  # self-nested region
        ("kernel", "gpu0", "spmv/ellpack", 0.3), ("exit", 0.0), ("exit", 0.1),
        ("xfer", "h2d", PCIE_LANE, 800, 0.2), ("fault", 0.0),
        ("mark", -0.3),  # a mark earlier than the previous one
        ("enter", "borth"), ("kernel", "gpu1", "dot/cublas", 0.1), ("exit", 0.2),
        ("enter", "tsqr"), ("exit", 0.0),  # zero-width region at the end time
    ]
    tr = build_trace(True, ops)
    profile = tr.profile()
    assert repr(profile) == repr(ref_profile(tr))
    assert [c["regions"] for c in profile["cycles"]] == [
        {}, {"mpk": 0.4}, {"borth": 0.30000000000000004}
    ]
    assert profile["regions"]["mpk"]["count"] == 2
    tsqr = tr.events[-1]
    assert (tsqr.name, tsqr.duration, tsqr.start) == ("tsqr", 0.0, profile["total_time"])


def test_regions_recorded_out_of_start_order():
    """A clock that moves back puts later-recorded regions in an earlier
    window; each window still sums its regions in event order."""
    ops = [
        ("mark", 0.0), ("enter", "mpk"), ("exit", 1.0),
        ("mark", 0.0), ("enter", "borth"), ("exit", 1.0),
        ("advance", -1.4), ("enter", "lsq"), ("exit", 0.1),
        ("advance", -0.4), ("enter", "tsqr"), ("exit", 0.1),
        ("enter", "mpk"), ("exit", 0.1),
    ]
    tr = build_trace(True, ops)
    profile = tr.profile()
    assert repr(profile) == repr(ref_profile(tr))
    first, second = (c["regions"] for c in profile["cycles"])
    assert list(first) == ["mpk", "lsq", "tsqr"]
    assert list(second) == ["borth"]


class CountingList(list):
    """A list that counts the elements handed out by iteration."""

    walked = 0

    def __iter__(self):
        for item in super().__iter__():
            self.walked += 1
            yield item


def cycled_trace(cycles):
    """Solver-shaped trace: per cycle, top-level regions with kernels and
    transfers inside, one mark at each cycle start."""
    tr = TraceRecorder()
    t = 0.0
    for _ in range(cycles):
        tr.mark_cycle(t)
        for region in ("mpk", "borth", "tsqr"):
            tr.region_enter(region, t)
            for lane in ("gpu0", "gpu1"):
                tr.record("spmv/ellpack", lane, "kernel", t, 1e-5)
                tr.record(f"d2h {lane}", PCIE_LANE, "d2h", t, 2e-6, bytes=64)
                t += 1e-5
            tr.region_exit(region, t)
    return tr


def test_profile_walks_each_event_once():
    for cycles in (10, 200):
        tr = cycled_trace(cycles)
        tr.events = CountingList(tr.events)
        expected = ref_profile(tr)
        reference_walk = tr.events.walked
        tr.events.walked = 0
        assert tr.profile() == expected
        assert tr.events.walked <= len(tr.events)
        # The reference rescans the log once per cycle window.
        assert reference_walk > cycles * len(tr.events)
