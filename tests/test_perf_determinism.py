"""Determinism of the performance engines.

The hot-path engines are required to be *exact*: for a fixed seed they
reproduce, bit for bit, the simulated results of the reference engines
they replaced.  The reference engines (per-message route derivation with
scalar UGAL costs, and one LogGOPS event per send with a scalar eager
recurrence) no longer exist, so their results live on as golden
fingerprints in ``tests/golden/perf_determinism.json``: finish time,
per-rank finish times, a sha256 over the message records, messages and
bytes delivered, and drop/trim/ECN/retransmission/max-queue counters.
Every case below must match its golden entry exactly.

The arithmetic burst link engine (``packet_batching``) still has its
legacy event-per-transmission counterpart, so packet cases additionally
run both settings live and compare them against the same golden entry.

The parallel sweep engine gets the same treatment: worker processes must
return entries identical to the serial engine.

The golden file holds ``{name: _run_case(name) for name in CASES}`` as
JSON.  Only a deliberate change of the simulated model may regenerate it,
and that change says so in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.network.config import LogGOPSParams, SimulationConfig
from repro.scheduler import simulate
from repro.schedgen import all_to_all, incast, permutation, ring_allreduce_microbenchmark

GOLDEN_PATH = Path(__file__).with_name("golden") / "perf_determinism.json"

ROUTINGS = ("minimal", "valiant", "adaptive")
SENDER_CCS = ("mprdma", "dctcp", "swift", "fixed")
PATH_DIVERSE = {
    "torus": {"topology": "torus", "torus_dims": (4, 4), "torus_hosts_per_node": 1},
    "slimfly": {"topology": "slimfly", "slimfly_q": 5, "slimfly_hosts_per_router": 1},
}

#: case name -> (schedule factory, backend, SimulationConfig keyword arguments)
CASES = {
    **{
        f"htsim-alltoall-{routing}": (
            lambda: all_to_all(8, 1 << 14),
            "htsim",
            {"nodes_per_tor": 4, "routing": routing, "seed": 3},
        )
        for routing in ROUTINGS
    },
    # small buffers force drops and ECN marks
    **{
        f"htsim-incast-{cc}": (
            lambda: incast(12, 1 << 19),
            "htsim",
            {"nodes_per_tor": 4, "buffer_size": 1 << 16, "cc_algorithm": cc},
        )
        for cc in SENDER_CCS
    },
    "htsim-incast-ndp": (
        lambda: incast(12, 1 << 19),
        "htsim",
        {"nodes_per_tor": 4, "buffer_size": 1 << 16, "cc_algorithm": "ndp"},
    ),
    **{
        f"htsim-adaptive-{name}": (
            lambda: permutation(16, 1 << 16, seed=5),
            "htsim",
            {"routing": "adaptive", **extra},
        )
        for name, extra in PATH_DIVERSE.items()
    },
    "lgs-eager-flat": (lambda: all_to_all(16, 1 << 16), "lgs", {}),
    "lgs-rendezvous": (
        lambda: all_to_all(16, 1 << 16),
        "lgs",
        {"loggops": LogGOPSParams.hpc_cluster()},
    ),
    # every sender shares the destination: coupled max-chains
    "lgs-incast": (lambda: incast(16, 1 << 18), "lgs", {}),
    **{
        f"lgs-torus-{routing}": (
            lambda: all_to_all(8, 1 << 14),
            "lgs",
            {"topology": "torus", "torus_dims": (2, 2), "torus_hosts_per_node": 2, "routing": routing},
        )
        for routing in ROUTINGS
    },
    "lgs-ring-allreduce": (lambda: ring_allreduce_microbenchmark(8, 1 << 20), "lgs", {}),
}


def _fingerprint(schedule, backend, config):
    result = simulate(schedule, backend=backend, config=config, validate=False)
    stats = result.stats
    records = repr([tuple(r) for r in result.message_records]).encode()
    return {
        "finish": result.finish_time_ns,
        "rank_finish": list(result.rank_finish_times_ns),
        "records_sha256": hashlib.sha256(records).hexdigest(),
        "messages": stats.messages_delivered,
        "bytes": stats.bytes_delivered,
        "drops": stats.packets_dropped,
        "trims": stats.packets_trimmed,
        "ecn": stats.packets_ecn_marked,
        "retransmissions": stats.retransmissions,
        "max_queue": stats.max_queue_bytes,
    }


def _run_case(name, **overrides):
    make_schedule, backend, kwargs = CASES[name]
    return _fingerprint(make_schedule(), backend, SimulationConfig(**kwargs, **overrides))


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def _assert_exact(name):
    """Run case ``name`` and compare it with its golden fingerprint.

    Packet cases run with the burst link engine on and off; both must
    match the golden entry.  Returns the fingerprint.
    """
    golden = _golden()[name]
    _, backend, _ = CASES[name]
    fingerprint = _run_case(name)
    assert fingerprint == golden
    if backend == "htsim":
        assert _run_case(name, packet_batching=False) == golden
    return fingerprint


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


class TestPacketBackendExactness:
    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_alltoall_all_routings(self, routing):
        _assert_exact(f"htsim-alltoall-{routing}")

    @pytest.mark.parametrize("cc", SENDER_CCS)
    def test_contended_incast_with_drops_and_ecn(self, cc):
        results = _assert_exact(f"htsim-incast-{cc}")
        assert results["drops"] > 0 or results["ecn"] > 0  # regime sanity

    def test_ndp_trimming_and_pull_pacing(self):
        results = _assert_exact("htsim-incast-ndp")
        assert results["trims"] > 0  # trimming regime actually exercised

    @pytest.mark.parametrize("topology", sorted(PATH_DIVERSE))
    def test_adaptive_on_path_diverse_topologies(self, topology):
        _assert_exact(f"htsim-adaptive-{topology}")

    def test_same_seed_same_results_repeated(self):
        config = SimulationConfig(nodes_per_tor=4, routing="adaptive", seed=11)
        a = _fingerprint(all_to_all(8, 1 << 15), "htsim", config)
        b = _fingerprint(all_to_all(8, 1 << 15), "htsim", config)
        assert a == b


class TestLogGOPSExactness:
    def test_eager_flat_latency(self):
        _assert_exact("lgs-eager-flat")

    def test_rendezvous_protocol(self):
        _assert_exact("lgs-rendezvous")

    def test_coupled_incast(self):
        _assert_exact("lgs-incast")

    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_topology_aware_latency(self, routing):
        _assert_exact(f"lgs-torus-{routing}")

    def test_ring_allreduce(self):
        _assert_exact("lgs-ring-allreduce")


def _sweep_key(entry):
    """Every SweepEntry field except host wall-clock (which is not simulated)."""
    d = dict(entry.__dict__)
    d.pop("wall_clock_s")
    return d


class TestParallelSweep:
    def test_parallel_equals_serial(self):
        from repro.sweep import default_topology_configs, topology_routing_sweep

        schedule = all_to_all(8, 1 << 13)
        configs = default_topology_configs(8)
        serial = topology_routing_sweep(
            schedule, configs, routings=("minimal", "adaptive"), backend="htsim"
        )
        parallel = topology_routing_sweep(
            schedule, configs, routings=("minimal", "adaptive"), backend="htsim", parallel=2
        )
        assert [_sweep_key(e) for e in serial] == [_sweep_key(e) for e in parallel]

    def test_parallel_lgs_sweep(self):
        from repro.sweep import default_topology_configs, topology_routing_sweep

        schedule = all_to_all(8, 1 << 13)
        configs = default_topology_configs(8)
        serial = topology_routing_sweep(schedule, configs, routings=("minimal",), backend="lgs")
        parallel = topology_routing_sweep(
            schedule, configs, routings=("minimal",), backend="lgs", parallel=3
        )
        assert [_sweep_key(e) for e in serial] == [_sweep_key(e) for e in parallel]


class TestPullPacing:
    """The cumulative byte-time pull pacer (sub-ns precision satellite)."""

    def _emission_times(self, bandwidth, pulls=50):
        """Drive a packet backend's pull pacer directly and record emissions."""
        from repro.network.packet.backend import PacketBackend

        backend = PacketBackend()
        backend.setup(
            4,
            SimulationConfig(
                nodes_per_tor=4, cc_algorithm="ndp", link_bandwidth=bandwidth
            ),
        )
        times = []
        backend._send_control = lambda flow, kind, seq, route, now: times.append(now)

        class _FakeFlow:
            dst = 0
            ack_route = (0,)

        for _ in range(pulls):
            backend._request_pull(_FakeFlow(), 0)
        backend.events.run()
        return times

    def test_long_run_rate_is_exact(self):
        # mtu=4096 at 25 B/ns: exact spacing is 163.84 ns; the legacy
        # per-gap formula emitted every 164 ns, drifting 8 ns over 50 pulls
        times = self._emission_times(bandwidth=25.0)
        assert times[0] == 0
        assert times[-1] == round(49 * 4096 / 25.0)  # == 8028, not 49*164 == 8036

    def test_sub_ns_gaps_not_clamped(self):
        # at 8192 B/ns an MTU takes 0.5 ns; the legacy formula clamped the
        # gap to 1 ns and halved the pull rate
        times = self._emission_times(bandwidth=8192.0)
        assert times[-1] == round(49 * 4096 / 8192.0)  # 24.5 -> 24 (half-even)
        # several pulls share a nanosecond instead of being spread out
        assert len(set(times)) < len(times)

    def test_monotone_emissions(self):
        times = self._emission_times(bandwidth=25.0)
        assert all(b >= a for a, b in zip(times, times[1:]))

