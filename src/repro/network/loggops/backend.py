"""Message-level network backend based on the LogGOPS model.

This backend reproduces the LogGOPSim substrate the paper builds on: every
message is charged analytically with the LogGOPS parameters

* ``o`` — CPU overhead at sender and receiver (plus ``O`` per byte),
* ``g`` — NIC gap between consecutive messages at an endpoint,
* ``G`` — gap per byte (inverse bandwidth),
* ``L`` — wire latency,
* ``S`` — eager/rendezvous threshold.

Endpoint NICs are modelled as serial resources, so incast at a receiver
serialises at rate ``1/G``; the network core itself is contention-free,
which is exactly the approximation whose limits the paper's §6.2 explores
(the packet backend removes it).

Timing of an eager message (``size <= S``)::

    cpu_start  = max(ready, cpu_free[rank, stream])
    cpu_end    = cpu_start + o + size*O        (send op completes locally here)
    inj_start  = max(cpu_end, send_nic_free[rank])
    send_nic_free[rank] = inj_start + g + size*G
    recv_start = max(inj_start + L, recv_nic_free[dst])
    arrival    = recv_start + size*G
    recv_nic_free[dst] = arrival + g

The matching receive completes after an additional ``o`` charged on its own
compute stream, no earlier than both its posting time and the arrival.

Rendezvous messages (``size > S``) additionally wait for the matching
receive to be posted and pay one extra ``L`` for the handshake before the
transfer starts; the send op completes at message arrival rather than
locally.

Hot path
--------
``LogGOPSBackend.run`` is the plain :meth:`EventQueue.run` loop.  Sends,
receive posts and calc completions are pushed straight onto the event heap
as a method plus a tuple payload instead of a closure per message, and the
per-message CPU cost short-circuits to the integer ``o`` when ``O == 0``.

Topology-aware latency
----------------------
When :meth:`SimulationConfig.loggops_topology_enabled` is true (the default
for the path-diverse ``torus`` and ``slimfly`` topologies), the flat ``L``
is replaced per message by the propagation latency of the route the
configured :class:`~repro.network.routing.RoutingStrategy` selects — a
hop-count/diameter model — and the rendezvous handshake likewise pays the
minimal-path latency.  The backend feeds the strategy cumulative bytes
routed over each link as its load signal, so adaptive routing steers around
links that earlier messages loaded even though this backend has no queues.
"""
from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.network.backend import (
    CompletionCallback,
    JobStats,
    MessageRecord,
    NetworkBackend,
    NetworkStats,
    assemble_job_stats,
)
from repro.network.config import SimulationConfig
from repro.network.events import EventQueue
from repro.network.faults import LINK_DOWN, SWITCH_DRAIN, NetworkPartitionError
from repro.network.host import HostCompute
from repro.network.matching import MessageMatcher
from repro.network.routing import create_routing
from repro.network.topology import build_topology


class _PendingRecv:
    """Bookkeeping for a posted receive waiting for its message."""

    __slots__ = ("op_id", "rank", "stream", "post_time", "size")

    def __init__(self, op_id: int, rank: int, stream: int, post_time: int, size: int) -> None:
        self.op_id = op_id
        self.rank = rank
        self.stream = stream
        self.post_time = post_time
        self.size = size


class _Arrival:
    """Bookkeeping for a message that arrived before its receive was posted."""

    __slots__ = ("arrival_time", "size")

    def __init__(self, arrival_time: int, size: int) -> None:
        self.arrival_time = arrival_time
        self.size = size


class _PendingRendezvous:
    """A rendezvous send waiting for its matching receive to be posted."""

    __slots__ = ("op_id", "rank", "dst", "tag", "stream", "size", "sender_ready", "post_time")

    def __init__(
        self, op_id: int, rank: int, dst: int, tag: int, stream: int, size: int, sender_ready: int, post_time: int
    ) -> None:
        self.op_id = op_id
        self.rank = rank
        self.dst = dst
        self.tag = tag
        self.stream = stream
        self.size = size
        self.sender_ready = sender_ready
        self.post_time = post_time


class LogGOPSBackend(NetworkBackend):
    """LogGOPS message-level simulator implementing the unified backend API."""

    name = "lgs"

    def __init__(self) -> None:
        self._configured = False

    # ------------------------------------------------------------------ setup
    def setup(self, num_ranks: int, config: SimulationConfig) -> None:
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.num_ranks = num_ranks
        self.config = config
        self.params = config.loggops
        self.events = EventQueue()
        self.host = HostCompute()
        self.matcher = MessageMatcher()
        self._send_nic_free: List[int] = [0] * num_ranks
        self._recv_nic_free: List[int] = [0] * num_ranks
        # CPU cost fast path: with O == 0 the per-message cost is just o
        self._o_int = int(round(self.params.o))
        # topology-aware wire latency (hop-count model); see module docstring
        self.topology = None
        self.routing = None
        self._link_bytes: Optional[np.ndarray] = None
        if config.loggops_topology_enabled():
            self.topology = build_topology(config, num_ranks)
            self.topology.set_route_cache_budget(config.route_cache_entries)
            self.topology.use_synthesis = config.route_synthesis
            self.routing = create_routing(
                config.routing, self.topology, np.random.default_rng(config.seed)
            )
            # cumulative bytes routed per link, indexed by link id — the
            # load signal handed to the routing strategy as an array view
            self._link_bytes = np.zeros(len(self.topology.links), dtype=np.int64)
        # fault injection (see repro.network.faults): faults degrade this
        # backend through a capacity factor gamma — the surviving fraction of
        # fabric bandwidth over the switch-to-switch links (or all links on
        # switchless topologies) — which inflates the per-byte serialisation
        # term of every transfer by 1/gamma.  In topology-aware mode the
        # same failed-link state also filters per-message route selection.
        # A topology is built here even in flat-L mode, purely to resolve
        # link references and account capacity; it never affects latency.
        self._faults = config.faults
        self._faults_enabled = bool(self._faults)
        self._gamma = 1.0
        if self._faults_enabled:
            fault_topo = self.topology
            if fault_topo is None:
                fault_topo = build_topology(config, num_ranks)
                fault_topo.set_route_cache_budget(config.route_cache_entries)
                fault_topo.use_synthesis = config.route_synthesis
            self._fault_topology = fault_topo
            domain = [
                link.link_id
                for link in fault_topo.links
                if not (fault_topo.is_host(link.src) or fault_topo.is_host(link.dst))
            ] or [link.link_id for link in fault_topo.links]
            self._fault_domain = domain
            # healthy capacity is captured before degradations are applied,
            # so a derated link counts as lost capacity
            self._domain_total_bw = sum(
                fault_topo.links[i].bandwidth for i in domain
            )
            for link_id, factor in self._faults.static_degradations(fault_topo).items():
                fault_topo.degrade_link(link_id, factor)
            static = self._faults.static_failed_ids(fault_topo)
            if static:
                fault_topo.fail_links(static)
            self._recompute_gamma()
            for time_ns, kind, ids in self._faults.resolved_events(fault_topo):
                self.events.schedule(time_ns, self._apply_fault, (kind, ids))
        # control-plane convergence (see repro.network.control_plane): under
        # "oracle" gamma steps instantaneously at each fault event (the
        # legacy behaviour, bit-identical).  Under "dv"/"ls" the analytic
        # counterpart of stale-table forwarding is a capacity-derate *ramp*:
        # gamma starts below its post-convergence value at the event (down:
        # the stale fraction of traffic is wasted into the failed region;
        # up: the restored capacity is invisible to stale switches) and
        # steps toward the true value as each learn-time group of switches
        # converges.  Created after static failures so views boot converged.
        self._cp = None
        self._gamma_gen = 0
        self.convergence_events: List = []
        if config.control_plane != "oracle" and self._faults_enabled:
            from repro.network.control_plane import create_control_plane

            self._cp = create_control_plane(
                config.control_plane,
                self._fault_topology,
                propagation_delay_ns=config.cp_propagation_ns,
                processing_delay_ns=config.cp_processing_ns,
            )
        # multi-job attribution (observational only; see SimulationConfig).
        # Per-link attribution needs routed paths, so it is collected only in
        # topology-aware mode; message counts are collected in either mode.
        self._job_stride = config.job_tag_stride
        self._job_msgs: Dict[int, List[int]] = {}
        self._job_link_bytes: Dict[int, np.ndarray] = {}
        # channel -> list of rendezvous sends awaiting a receive (FIFO)
        self._pending_rndv: Dict[Tuple[int, int, int], List[_PendingRendezvous]] = {}
        # channel -> list of receive post times available for rendezvous matching
        self._rndv_recv_posts: Dict[Tuple[int, int, int], List[_PendingRecv]] = {}
        self.stats = NetworkStats()
        self.records: List[MessageRecord] = []
        self.rank_finish: List[int] = [0] * num_ranks
        self._on_complete: Optional[CompletionCallback] = None
        self._configured = True

    def _require_setup(self) -> None:
        if not self._configured:
            raise RuntimeError("backend used before setup() was called")

    # ----------------------------------------------------------------- issuing
    def issue_calc(self, rank: int, stream: int, duration_ns: int, op_id: int, ready_time: int) -> None:
        # inlined HostCompute.reserve — one call frame and one tuple less on
        # the single hottest path of calc-dominated workloads
        if duration_ns < 0:
            raise ValueError("duration must be non-negative")
        host = self.host
        free = host._free_at
        key = (rank, stream)
        start = free.get(key, 0)
        if start < ready_time:
            start = ready_time
        end = start + duration_ns
        free[key] = end
        if duration_ns:
            busy = host.busy_ns
            busy[rank] = busy.get(rank, 0) + duration_ns
        # inlined EventQueue.schedule (end >= ready_time >= now by
        # construction, so the past-check cannot fire)
        events = self.events
        heapq.heappush(events._heap, (end, 0, events._seq, self._complete_op, (rank, op_id)))
        events._seq += 1

    def issue_send(
        self, rank: int, dst: int, size: int, tag: int, stream: int, op_id: int, ready_time: int
    ) -> None:
        events = self.events
        heapq.heappush(
            events._heap,
            (ready_time, 0, events._seq, self._start_send, (rank, dst, size, tag, stream, op_id)),
        )
        events._seq += 1

    def issue_recv(
        self, rank: int, src: int, size: int, tag: int, stream: int, op_id: int, ready_time: int
    ) -> None:
        events = self.events
        heapq.heappush(
            events._heap,
            (ready_time, 0, events._seq, self._post_recv, (rank, src, size, tag, stream, op_id)),
        )
        events._seq += 1

    # ------------------------------------------------------------------ faults
    def _recompute_gamma(self) -> None:
        """Refresh the surviving-capacity factor after a fault-state change."""
        topo = self._fault_topology
        failed = topo._failed_links
        alive_bw = sum(
            topo.links[i].bandwidth for i in self._fault_domain if i not in failed
        )
        gamma = alive_bw / self._domain_total_bw if self._domain_total_bw else 0.0
        if gamma <= 0.0:
            raise NetworkPartitionError(
                "fault schedule removed all fabric capacity: every "
                f"link of the capacity domain ({len(self._fault_domain)} links) "
                "is down"
            )
        self._gamma = gamma

    def _apply_fault(self, time: int, payload: Tuple[str, List[int]]) -> None:
        """Apply one timed fault event: flip link state, refresh gamma.

        In topology-aware mode the failed-link state is shared with the
        routing strategy, so subsequent messages also route around the
        failure (or raise the partition error when no route survives).
        """
        kind, ids = payload
        topo = self._fault_topology
        gamma_old = self._gamma
        if kind in (LINK_DOWN, SWITCH_DRAIN):
            topo.fail_links(ids)
        else:
            topo.restore_links(ids)
        self._recompute_gamma()
        cp = self._cp
        if cp is None:
            return
        # convergent control plane: ramp gamma to its new truth across the
        # event's learn-time groups instead of stepping instantaneously
        gamma_new = self._gamma
        record, learn = cp.originate(time, kind, ids)
        self.convergence_events.append(record)
        if kind in (LINK_DOWN, SWITCH_DRAIN):
            # during convergence, the stale share of traffic is injected
            # toward the failed region and wasted, so effective capacity
            # dips *below* the degraded steady state before recovering
            start = gamma_new * (gamma_new / gamma_old)
        else:
            # restored capacity is invisible to stale switches
            start = gamma_old
        self._gamma = start
        self._gamma_gen += 1
        gen = self._gamma_gen
        if not learn:
            self._gamma = gamma_new
            return
        counts: Dict[int, int] = {}
        for t in learn.values():
            counts[t] = counts.get(t, 0) + 1
        total = len(learn)
        cum = 0
        for t in sorted(counts):
            group = tuple(sw for sw, lt in learn.items() if lt == t)
            cum += counts[t]
            # the final step lands exactly on gamma_new (no float residue)
            target = (
                gamma_new if cum == total else start + (gamma_new - start) * cum / total
            )
            self.events.schedule(
                t, self._cp_gamma_step, (target, gen, kind, tuple(ids), group)
            )

    def _cp_gamma_step(self, time: int, payload) -> None:
        """One learn-time group converges: views absorb the event, gamma steps.

        Steps carry the generation of the fault event that scheduled them; a
        later event supersedes the ramp (new generation), so stale steps are
        dropped instead of clobbering the newer ramp.
        """
        target, gen, kind, ids, switches = payload
        self._cp.apply(switches, kind, ids)
        if gen == self._gamma_gen:
            self._gamma = target

    # --------------------------------------------------------------- internals
    def _cpu_cost(self, size: int) -> int:
        p = self.params
        if p.O == 0.0:
            return self._o_int
        return int(round(p.o + size * p.O))

    def _start_send(self, time: int, payload: Any) -> None:
        rank, dst, size, tag, stream, op_id = payload
        p = self.params
        cpu_start, cpu_end = self.host.reserve(rank, stream, time, self._cpu_cost(size))

        if size <= p.S or p.S == 0:
            # Eager protocol: transfer proceeds regardless of the receive.
            arrival = self._transfer(rank, dst, size, cpu_end, tag)
            self.events.schedule(cpu_end, self._complete_op, (rank, op_id))
            self.events.schedule(arrival, self._on_arrival, (rank, dst, size, tag, cpu_start))
        else:
            # Rendezvous: wait for the matching receive before transferring.
            channel = (rank, dst, tag)
            waiting = self._rndv_recv_posts.get(channel)
            if waiting:
                recv = waiting.pop(0)
                if not waiting:
                    del self._rndv_recv_posts[channel]
                self._start_rendezvous_transfer(
                    op_id, rank, dst, size, tag, stream, cpu_end, cpu_start, recv
                )
            else:
                self._pending_rndv.setdefault(channel, []).append(
                    _PendingRendezvous(op_id, rank, dst, tag, stream, size, cpu_end, cpu_start)
                )

    def _wire_latency(self, src: int, dst: int, size: int, tag: int = 0) -> int:
        """Wire latency for one message: flat ``L``, or the routed path's
        propagation delay when topology-aware latency is enabled."""
        if self.routing is None:
            return self.params.L
        loads = self._link_bytes
        route = self.routing.select_route(src, dst, size, loads)
        for link in route:
            loads[link] += size
        if self._job_stride:
            jlb = self._job_link_bytes
            job = tag // self._job_stride
            arr = jlb.get(job)
            if arr is None:
                arr = jlb[job] = np.zeros(len(self.topology.links), dtype=np.int64)
            for link in route:
                arr[link] += size
        return self.topology.route_latency(route)

    def _transfer(self, src: int, dst: int, size: int, sender_ready: int, tag: int = 0) -> int:
        """Charge NIC resources for one message and return its arrival time.

        Under an active fault schedule the per-byte serialisation is
        inflated by the degraded-capacity factor (``G / gamma``); with the
        fabric fully up (``gamma == 1``) the arithmetic is exactly the
        healthy expression.
        """
        p = self.params
        if self._gamma != 1.0:
            wire_bytes_ns = int(round(size * p.G / self._gamma))
        else:
            wire_bytes_ns = int(round(size * p.G))
        inj_start = max(sender_ready, self._send_nic_free[src])
        self._send_nic_free[src] = inj_start + p.g + wire_bytes_ns
        recv_start = max(inj_start + self._wire_latency(src, dst, size, tag), self._recv_nic_free[dst])
        arrival = recv_start + wire_bytes_ns
        self._recv_nic_free[dst] = arrival + p.g
        return arrival

    def _on_arrival(self, time: int, payload: Tuple[int, int, int, int, int]) -> None:
        """An eager message fully arrived; record it and run matching."""
        src, dst, size, tag, post_time = payload
        stats = self.stats
        stats.messages_delivered += 1
        stats.bytes_delivered += size
        if self._job_stride:
            per_job = self._job_msgs.setdefault(tag // self._job_stride, [0, 0])
            per_job[0] += 1
            per_job[1] += size
        if self.config.collect_message_records:
            self.records.append(MessageRecord(src, dst, size, tag, post_time, time))
        matched = self.matcher.post_arrival(src, dst, tag, _Arrival(time, size))
        if matched is not None:
            self._complete_recv(matched, time)

    def _post_recv(self, time: int, payload: Any) -> None:
        rank, src, size, tag, stream, op_id = payload
        p = self.params
        recv = _PendingRecv(op_id, rank, stream, time, size)

        if size > p.S and p.S != 0:
            # Rendezvous path: the receive may unblock a waiting send.
            channel = (src, rank, tag)
            pending = self._pending_rndv.get(channel)
            if pending:
                send = pending.pop(0)
                if not pending:
                    del self._pending_rndv[channel]
                self._start_rendezvous_transfer(
                    send.op_id, send.rank, send.dst, send.size, send.tag, send.stream,
                    send.sender_ready, send.post_time, recv,
                )
                return
            self._rndv_recv_posts.setdefault(channel, []).append(recv)
            return

        matched = self.matcher.post_recv(src, rank, tag, recv)
        if matched is not None:
            self._complete_recv(recv, matched.arrival_time)

    def _start_rendezvous_transfer(
        self,
        send_op_id: int,
        src: int,
        dst: int,
        size: int,
        tag: int,
        send_stream: int,
        sender_ready: int,
        sender_post_time: int,
        recv: _PendingRecv,
    ) -> None:
        """Run the rendezvous handshake and transfer once both sides are ready."""
        # the handshake control message pays the topology's minimal path
        # latency in topology-aware mode, the flat L otherwise (consistent
        # with the data transfer's _wire_latency)
        topo = self.topology
        if topo is not None:
            handshake_latency = topo.route_latency(topo.alive_table(dst, src).candidates[0])
        else:
            handshake_latency = self.params.L
        handshake_done = max(sender_ready, recv.post_time + handshake_latency)
        arrival = self._transfer(src, dst, size, handshake_done, tag)
        self.stats.messages_delivered += 1
        self.stats.bytes_delivered += size
        if self._job_stride:
            per_job = self._job_msgs.setdefault(tag // self._job_stride, [0, 0])
            per_job[0] += 1
            per_job[1] += size
        if self.config.collect_message_records:
            self.records.append(MessageRecord(src, dst, size, tag, sender_post_time, arrival))
        # The send op completes when the transfer completes (sender blocks).
        self.events.schedule(arrival, self._complete_op, (src, send_op_id))
        self._complete_recv(recv, arrival)

    def _complete_recv(self, recv: _PendingRecv, arrival_time: int) -> None:
        """Charge the receiver-side overhead and report the recv op complete."""
        earliest = max(arrival_time, recv.post_time)
        _, end = self.host.reserve(recv.rank, recv.stream, earliest, self._cpu_cost(recv.size))
        self.events.schedule(end, self._complete_op, (recv.rank, recv.op_id))

    def _complete_op(self, time: int, payload: Any) -> None:
        rank, op_id = payload
        if time > self.rank_finish[rank]:
            self.rank_finish[rank] = time
        on_complete = self._on_complete
        if on_complete is not None:
            on_complete(time, rank, op_id)

    # -------------------------------------------------------------------- run
    def run(self, on_complete: CompletionCallback) -> int:
        self._require_setup()
        self._on_complete = on_complete
        return self.events.run()

    def now(self) -> int:
        self._require_setup()
        return self.events.now

    def collect_stats(self) -> NetworkStats:
        self._require_setup()
        if self.convergence_events:
            self.stats.time_to_recover_ns = max(
                r.time_to_recover_ns for r in self.convergence_events
            )
        topo = self.topology
        if topo is None:
            topo = getattr(self, "_fault_topology", None)
        if topo is not None:
            cache = topo.route_cache_stats()
            self.stats.route_cache_hits = cache["hits"]
            self.stats.route_cache_misses = cache["misses"]
            self.stats.route_cache_evictions = cache["evictions"]
        return self.stats

    def convergence_report(self) -> List:
        """Per-fault-event :class:`~repro.network.control_plane.ConvergenceRecord` list.

        Empty under ``control_plane="oracle"`` and whenever no timed fault
        event fired (mirrors the packet backend's report).
        """
        self._require_setup()
        return self.convergence_events

    def collect_message_records(self) -> List[MessageRecord]:
        self._require_setup()
        return self.records

    def per_job_stats(self) -> Dict[int, JobStats]:
        self._require_setup()
        if not self._job_stride:
            return {}
        links = self.topology.links if self.topology is not None else []
        return assemble_job_stats(self._job_msgs, self._job_link_bytes, links)

    # ---------------------------------------------------------------- queries
    def link_loads(self) -> Dict[str, int]:
        """Cumulative bytes routed over each link (topology-aware mode only)."""
        if self.topology is None:
            return {}
        return {
            self.topology.links[link].name: int(load)
            for link, load in enumerate(self._link_bytes)
            if load
        }

    def unmatched_state(self) -> Dict[str, int]:
        """Diagnostics about unmatched communication at the end of a run.

        A correct schedule drains everything; non-zero counts indicate a
        deadlocked or mismatched GOAL program.
        """
        return {
            "pending_recvs": self.matcher.pending_recv_count(),
            "unexpected_messages": self.matcher.pending_arrival_count(),
            "pending_rendezvous_sends": sum(len(v) for v in self._pending_rndv.values()),
            "pending_rendezvous_recvs": sum(len(v) for v in self._rndv_recv_posts.values()),
        }
