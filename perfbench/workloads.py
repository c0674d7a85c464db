"""The benchmark's workloads: GOAL generation plus the simulation config.

Each builder takes the run's seed, which is the only source of randomness:
it seeds the trace generators and ``SimulationConfig.seed`` (ECMP picks,
packet-level jitter).  Placement is the deterministic ``fragmented``
strategy.  Builders record a ``schedgen.s`` span around trace/app -> GOAL and
a ``cluster.merge_s`` span around the co-tenant merge; spans are named
after the per-layer metric they feed.

Importing this module imports nothing from ``repro``; the worker times the
imports as part of set-up.
"""
from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

#: Modules the workloads use; the worker imports them inside the set-up timer.
MODULES = (
    "repro",
    "repro.apps.ai",
    "repro.cluster",
    "repro.collectives",
    "repro.goal",
    "repro.network.config",
    "repro.network.packet.sharded",
    "repro.network.topology",
    "repro.schedgen",
    "repro.scheduler",
    "repro.tracers.storage",
)

#: Ranks of the recursive-doubling allreduce: 11 rounds over 2048 hosts give
#: 22,528 distinct host pairs, each used once.
ALLREDUCE_RANKS = 2048
ALLREDUCE_BYTES = 4096
#: Storage requests in the Direct Drive trace.  At this size the seed moves
#: the packet count by about 1% (seeds 1-6: 35.6k-36.2k packets sent).
STORAGE_OPS = 1500


class Workload(NamedTuple):
    schedule: object
    backend: str
    config: object
    op_groups: Optional[List[List[int]]]


def llm_dp_htsim(seed: int, spans) -> Workload:
    """Llama-7B-shaped data-parallel training (the paper's Fig. 8 workload)."""
    from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b
    from repro.network.config import SimulationConfig
    from repro.schedgen import nccl_trace_to_goal

    with spans.span("schedgen.s"):
        par = ParallelismConfig(tp=1, pp=1, dp=16, microbatches=2, global_batch=32)
        report = LlmTrainer(
            llama_7b().scaled(0.05), par, gpus_per_node=4, iterations=2, seed=seed
        ).trace()
        schedule = nccl_trace_to_goal(report, gpus_per_node=4)
    config = SimulationConfig(topology="fat_tree", nodes_per_tor=4, seed=seed)
    return Workload(schedule, "htsim", config, None)


def _allreduce(spans):
    from repro.collectives import build_collective_schedule

    with spans.span("schedgen.s"):
        return build_collective_schedule(
            "allreduce", "recursive_doubling", ALLREDUCE_RANKS, ALLREDUCE_BYTES
        )


def _allreduce_config(seed: int, **kwargs):
    from repro.network.config import SimulationConfig

    # 64 ToRs x 32 hosts; per-message records off, as at datacenter scale
    return SimulationConfig(
        topology="fat_tree",
        nodes_per_tor=32,
        seed=seed,
        collect_message_records=False,
        **kwargs,
    )


def allreduce_rd_lgs(seed: int, spans) -> Workload:
    """2048-rank recursive-doubling allreduce on topology-aware LogGOPS."""
    from repro.network.config import LogGOPSParams

    schedule = _allreduce(spans)
    config = _allreduce_config(
        seed, loggops=LogGOPSParams.ai_cluster(), loggops_use_topology=True
    )
    return Workload(schedule, "lgs", config, None)


def allreduce_rd_htsim_sh2(seed: int, spans) -> Workload:
    """The same allreduce on the two-shard packet engine."""
    return Workload(_allreduce(spans), "htsim", _allreduce_config(seed, shards=2), None)


def storage_ai_cotenant_htsim(seed: int, spans) -> Workload:
    """Direct Drive storage trace sharing an 8:1 fat tree with a ring allreduce."""
    from repro.cluster import ClusterJob, build_cotenant_schedule
    from repro.collectives import build_collective_schedule
    from repro.network.config import SimulationConfig
    from repro.schedgen import storage_trace_to_goal
    from repro.tracers.storage import FinancialWorkloadGenerator

    with spans.span("schedgen.s"):
        trace = FinancialWorkloadGenerator(seed=seed).generate(STORAGE_OPS)
        storage = storage_trace_to_goal(trace)
        ai = build_collective_schedule("allreduce", "ring", 16, 1 << 21)
    with spans.span("cluster.merge_s"):
        plan = build_cotenant_schedule(
            [ClusterJob(storage, name="storage"), ClusterJob(ai, name="ai")],
            cluster_nodes=40,
            strategy="fragmented",
            group_size=8,
        )
    # 32 KiB port buffers make the allreduce's bursts overflow the
    # oversubscribed uplinks, so NDP trims and retransmits
    config = SimulationConfig(
        topology="fat_tree",
        nodes_per_tor=8,
        oversubscription=8.0,
        cc_algorithm="ndp",
        buffer_size=1 << 15,
        job_tag_stride=plan.tag_stride,
        seed=seed,
    )
    return Workload(plan.schedule, "htsim", config, plan.op_groups)


WORKLOADS: Dict[str, Callable[[int, object], Workload]] = {
    "llm_dp_htsim": llm_dp_htsim,
    "allreduce_rd_lgs": allreduce_rd_lgs,
    "storage_ai_cotenant_htsim": storage_ai_cotenant_htsim,
    "allreduce_rd_htsim_sh2": allreduce_rd_htsim_sh2,
}
