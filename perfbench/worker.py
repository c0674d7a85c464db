"""One benchmark sample in a fresh interpreter.

Usage: ``python3 perfbench/worker.py <workload> <seed> <setup|full|traced>``
from the repository root with ``src`` on ``PYTHONPATH``.  Prints one JSON
record on its last stdout line.  Its times are wall seconds minus the time
spent in calibration passes; ``run.py`` converts them to reference seconds
with the mean calibration pass of the same phase (``setup_pass_s``,
``sim_pass_s``; ``calib_s`` for the per-layer spans).

* ``setup``: set-up only (``import repro`` .. constructed ``GoalScheduler``).
* ``full``: set-up, then ``GoalScheduler.run()``.
* ``traced``: set-up and simulation split into per-layer spans, then the
  workload's route tables rebuilt on a fresh topology.

The calibration probe (``calib.SpeedProbe``) starts before ``import repro``
and samples machine speed throughout the process.
"""
from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import resource
import sys
import time

import calib
from benchlib import Spans
from workloads import MODULES, WORKLOADS


def _same_schedule(a, b) -> bool:
    if a.name != b.name or a.num_ranks != b.num_ranks:
        return False
    return all(
        ra.rank == rb.rank and ra.ops == rb.ops and ra.preds == rb.preds
        for ra, rb in zip(a.ranks, b.ranks)
    )


def _send_pairs(schedule):
    from repro.goal import OpType

    return sorted(
        {
            (rank.rank, op.peer)
            for rank in schedule.ranks
            for op in rank.ops
            if op.kind is OpType.SEND and op.peer != rank.rank
        }
    )


def _fingerprint(result) -> str:
    doc = {
        "finish_ns": result.finish_time_ns,
        "rank_finish_ns": list(result.rank_finish_times_ns),
        "ops_completed": result.ops_completed,
        "stats": dataclasses.asdict(result.stats),
        "jobs": {
            str(job): [s.messages_delivered, s.bytes_delivered]
            for job, s in result.job_stats.items()
        },
        "groups": {str(k): v for k, v in result.group_finish_times_ns.items()},
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _simulate_traced(scheduler, schedule, config, op_groups, spans, layer, probe):
    """``GoalScheduler.run()`` split at its public steps; returns the result."""
    if config.shards > 1:
        from repro.network.packet.sharded import run_sharded

        windows: list = []
        first_pass = len(probe.passes)
        cpu0 = time.process_time()
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = probe.clock()
        with spans.span("sharded.run_s"):
            result, events = run_sharded(
                schedule, config, op_groups=op_groups, window_log=windows
            )
        wall = probe.clock() - t0
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        worker_cpu = (kids1.ru_utime - kids0.ru_utime) + (kids1.ru_stime - kids0.ru_stime)
        probe_cpu = sum(probe.passes[first_pass:])
        layer["sharded.windows"] = len(windows)
        layer["sharded.driver_cpu_s"] = time.process_time() - cpu0 - probe_cpu
        layer["sharded.worker_cpu_s"] = worker_cpu
        layer["sharded.busy_ratio"] = worker_cpu / (config.shards * wall)
        layer["packet.events"] = events
        return result
    loop = "loggops" if scheduler.backend.name == "lgs" else "packet"
    t0 = time.perf_counter()
    with spans.span("scheduler.start_s"):
        scheduler.start()
    with spans.span(f"{loop}.loop_s"):
        scheduler.backend.run(scheduler.completion_callback())
    with spans.span("scheduler.finish_s"):
        result = scheduler.finish(time.perf_counter() - t0)
    layer[f"{loop}.events"] = scheduler.events_executed
    return result


def _rebuild_route_tables(config, num_hosts, pairs, spans) -> None:
    """Route tables of every distinct send pair on a fresh, empty topology."""
    from repro.network.topology import build_topology

    with spans.span("routing.table_build_s"):
        with spans.span("topology.build_s"):
            topology = build_topology(config, num_hosts)
        topology.set_route_cache_budget(config.route_cache_entries)
        topology.use_synthesis = config.route_synthesis
        for src, dst in pairs:
            topology.route_table(src, dst)


def sample(name: str, seed: int, kind: str) -> dict:
    probe = calib.SpeedProbe()
    probe.start()
    try:
        return _measure(name, seed, kind, probe)
    finally:
        probe.stop()


def _measure(name: str, seed: int, kind: str, probe) -> dict:
    traced = kind == "traced"
    spans = Spans(enabled=traced, clock=probe.clock)
    record: dict = {"kind": kind}

    first_pass = len(probe.passes)
    t0 = probe.clock()
    with spans.span("bench.import_s"):
        for module in MODULES:
            importlib.import_module(module)
    from repro.goal import decode_goal, encode_goal, validate_schedule
    from repro.scheduler import GoalScheduler

    work = WORKLOADS[name](seed, spans)
    with spans.span("goal.encode_s"):
        blob = encode_goal(work.schedule)
    with spans.span("goal.decode_s"):
        schedule = decode_goal(blob)
    with spans.span("goal.validate_s"):
        validate_schedule(schedule)
    with spans.span("scheduler.init_s"):
        scheduler = GoalScheduler(
            schedule,
            backend=work.backend,
            config=work.config,
            validate=False,
            op_groups=work.op_groups,
        )
    record["setup_wall"] = probe.clock() - t0
    record["setup_pass_s"] = probe.mean_pass_s(first_pass)

    record["roundtrip_ok"] = _same_schedule(work.schedule, schedule)
    record["goal_bytes"] = len(blob)
    record["goal_ops"] = schedule.num_ops()
    record["send_bytes"] = schedule.total_bytes()

    if kind != "setup":
        layer: dict = {}
        first_pass = len(probe.passes)
        t0 = probe.clock()
        if traced:
            result = _simulate_traced(
                scheduler, schedule, work.config, work.op_groups, spans, layer, probe
            )
        else:
            result = scheduler.run()
        record["sim_wall"] = probe.clock() - t0
        record["sim_pass_s"] = probe.mean_pass_s(first_pass)
        stats = result.stats
        record["result"] = {
            "ops_completed": result.ops_completed,
            "finish_ns": result.finish_time_ns,
            "stats": dataclasses.asdict(stats),
        }
        record["fingerprint"] = _fingerprint(result)
        if traced:
            _rebuild_route_tables(
                work.config, schedule.num_ranks, _send_pairs(schedule), spans
            )
            layer.update(
                {
                    "goal.ops": record["goal_ops"],
                    "routing.cache_hits": stats.route_cache_hits,
                    "routing.cache_misses": stats.route_cache_misses,
                    "routing.cache_evictions": stats.route_cache_evictions,
                    "packet.sent": stats.packets_sent,
                    "packet.delivered": stats.packets_delivered,
                    "packet.dropped": stats.packets_dropped,
                    "packet.trimmed": stats.packets_trimmed,
                    "packet.retransmissions": stats.retransmissions,
                    "packet.ecn_marked": stats.packets_ecn_marked,
                    "packet.max_queue_bytes": stats.max_queue_bytes,
                    "sim.finish_ns": result.finish_time_ns,
                    "sim.ops_completed": result.ops_completed,
                }
            )
            layer.update(spans.self_times())
            record["layer"] = layer
            record["spans"] = spans.to_json()
    record["calib_s"] = probe.mean_pass_s()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["rss_kb"] = own + workers
    return record


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS or argv[2] not in ("setup", "full", "traced"):
        print(
            f"usage: worker.py <{'|'.join(WORKLOADS)}> <seed> <setup|full|traced>",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(sample(argv[0], int(argv[1]), argv[2])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
