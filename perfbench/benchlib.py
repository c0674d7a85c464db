"""Pure logic of the benchmark: metric names, reference seconds, spans,
output checks and aggregation.  Imports neither ``repro`` nor numpy, so the
self-tests run without the simulator.
"""
from __future__ import annotations

import re
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: End-to-end metrics, reported with ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("sim_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goal_bytes", "bytes"),
)

#: Per-layer metrics, reported with ``--trace 1``.  A layer a workload does
#: not enter reports 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("schedgen.s", "s"),
    ("cluster.merge_s", "s"),
    ("goal.encode_s", "s"),
    ("goal.decode_s", "s"),
    ("goal.validate_s", "s"),
    ("goal.ops", "count"),
    ("scheduler.init_s", "s"),
    ("topology.build_s", "s"),
    ("routing.table_build_s", "s"),
    ("routing.cache_hits", "count"),
    ("routing.cache_misses", "count"),
    ("routing.cache_evictions", "count"),
    ("routing.hit_ratio", "ratio"),
    ("scheduler.start_s", "s"),
    ("scheduler.finish_s", "s"),
    ("loggops.loop_s", "s"),
    ("loggops.events", "count"),
    ("loggops.events_per_s", "1/s"),
    ("packet.loop_s", "s"),
    ("packet.events", "count"),
    ("packet.events_per_s", "1/s"),
    ("packet.sent", "count"),
    ("packet.delivered", "count"),
    ("packet.dropped", "count"),
    ("packet.trimmed", "count"),
    ("packet.retransmissions", "count"),
    ("packet.ecn_marked", "count"),
    ("packet.max_queue_bytes", "bytes"),
    ("packet.delivery_ratio", "ratio"),
    ("sharded.run_s", "s"),
    ("sharded.windows", "count"),
    ("sharded.driver_cpu_s", "s"),
    ("sharded.worker_cpu_s", "s"),
    ("sharded.busy_ratio", "ratio"),
    ("sim.finish_ns", "ns"),
    ("sim.ops_completed", "count"),
    ("bench.calib_s", "s"),
    ("bench.import_s", "s"),
    ("bench.trace_overhead", "ratio"),
)

#: Host-time metrics converted to reference seconds.  ``bench.calib_s`` is
#: the raw kernel time: it is what shows machine drift.
REFERENCE_TIMED = frozenset(
    name for name, unit in PER_LAYER if unit == "s" and name != "bench.calib_s"
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def reference_seconds(wall_s: float, calib_s: float, calib_ref_s: float) -> float:
    """Wall seconds scaled to the reference machine.

    A process whose calibration kernel took ``calib_s`` runs at
    ``calib_ref_s / calib_s`` times the reference machine's speed, so its
    wall time maps to ``wall_s * calib_ref_s / calib_s`` reference seconds.
    """
    if calib_s <= 0 or calib_ref_s <= 0:
        raise ValueError("calibration times must be positive")
    return wall_s * calib_ref_s / calib_s


class Spans:
    """Nested timing spans kept in memory; a disabled recorder records nothing.

    Each record is ``(name, start_s, end_s, parent)`` where ``parent`` is the
    index of the enclosing record or -1.  Spans close in LIFO order, so a
    record's children are appended before it.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.records: List[Tuple[str, float, float, int]] = []
        self._clock = clock
        self._open: List[int] = []

    def span(self, name: str):
        """Context manager timing one call into a layer."""
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        index = len(self.records)
        parent = self._open[-1] if self._open else -1
        self.records.append((name, self._clock(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            start = self.records[index][1]
            self.records[index] = (name, start, self._clock(), parent)

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child_time = [0.0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.records):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {"name": n, "start_s": s, "end_s": e, "parent": p}
            for n, s, e, p in self.records
        ]


def check_sample(sample: Dict[str, object]) -> List[str]:
    """Output checks of one workload process; an empty list means it passed.

    Every sample checks the GOAL binary round trip.  Samples that simulated
    also check op completion, the packet ledger (trims counted: under NDP a
    trimmed packet is neither delivered nor dropped) and the delivered bytes.
    """
    failures = []
    if not sample.get("roundtrip_ok"):
        failures.append("decode_goal(encode_goal(s)) does not reproduce s")
    result = sample.get("result")
    if sample.get("kind") == "setup":
        return failures
    if result is None:
        return failures + ["no simulation result"]
    if result["ops_completed"] != sample["goal_ops"]:
        failures.append(
            f"ops_completed {result['ops_completed']} != {sample['goal_ops']} GOAL ops"
        )
    st = result["stats"]
    accounted = (
        st["packets_delivered"]
        + st["packets_dropped"]
        + st["packets_trimmed"]
        + st["packets_lost_to_faults"]
        + st["packets_blackholed"]
    )
    if st["packets_sent"] != accounted:
        failures.append(
            f"packet ledger: sent {st['packets_sent']} != {accounted} accounted"
        )
    if st["bytes_delivered"] != sample["send_bytes"]:
        failures.append(
            f"bytes_delivered {st['bytes_delivered']} != {sample['send_bytes']} sent"
        )
    return failures


def mismatched(values: Sequence[object]) -> List[int]:
    """Indices whose value differs from the most common one."""
    if not values:
        return []
    majority = Counter(values).most_common(1)[0][0]
    return [i for i, v in enumerate(values) if v != majority]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def layer_metrics(
    raw: Dict[str, float], calib_s: float, calib_ref_s: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced process: times in reference seconds,
    derived rates and ratios filled in."""
    out = {name: raw.get(name, 0) for name, _ in PER_LAYER}
    for name in REFERENCE_TIMED:
        out[name] = reference_seconds(float(out[name]), calib_s, calib_ref_s)
    out["bench.calib_s"] = calib_s
    lookups = out["routing.cache_hits"] + out["routing.cache_misses"]
    out["routing.hit_ratio"] = out["routing.cache_hits"] / lookups if lookups else 0.0
    if out["packet.sent"]:
        out["packet.delivery_ratio"] = out["packet.delivered"] / out["packet.sent"]
    if out["loggops.loop_s"]:
        out["loggops.events_per_s"] = out["loggops.events"] / out["loggops.loop_s"]
    # a sharded run's packet loop is only visible as the whole run_sharded call
    packet_busy = out["packet.loop_s"] or out["sharded.run_s"]
    if packet_busy:
        out["packet.events_per_s"] = out["packet.events"] / packet_busy
    return out


def metric_block(values: Dict[str, float], declared) -> Dict[str, Dict[str, object]]:
    """``{"name": {"value": v, "unit": u}}`` for every declared metric."""
    return {name: {"value": values[name], "unit": unit} for name, unit in declared}


def parse_last_json_line(text: str) -> Optional[str]:
    """The last non-empty line of a worker's stdout (its JSON record)."""
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else None
