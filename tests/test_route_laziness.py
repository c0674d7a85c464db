"""Route tables build their numpy views only when a strategy reads them.

A :class:`RouteTable` holds the pair's candidate tuples; its ``hops``,
``latency``, ``links_flat`` and ``offsets`` views are built on first read.
Only adaptive routing (and the fault/view filters feeding it) reads them,
so minimal-routing runs must leave every cached table's views unbuilt.

The latency queries that used to read the views (``min_path_latency`` and
``alive_table(...).latency[0]``) and the routes adaptive routing picks are
pinned here: the reference values are plain link-latency sums, and the
adaptive picks are pinned by digests recorded before the views became lazy.

This file runs in the CI flake-guard job under two PYTHONHASHSEEDs.
"""
import hashlib

import numpy as np
import pytest

from repro.network.config import SimulationConfig
from repro.network.faults import NetworkPartitionError
from repro.network.loggops.backend import LogGOPSBackend
from repro.network.packet.backend import PacketBackend
from repro.network.routing import AdaptiveRouting
from repro.network.topology import build_topology
from repro.network.topology.base import RouteTable
from repro.schedgen import all_to_all
from repro.scheduler import GoalScheduler

TOPOLOGIES = {
    "fat_tree": (SimulationConfig(topology="fat_tree", nodes_per_tor=4), 16),
    "dragonfly": (
        SimulationConfig(
            topology="dragonfly",
            dragonfly_groups=4,
            dragonfly_routers_per_group=2,
            dragonfly_nodes_per_router=2,
        ),
        16,
    ),
    "torus": (SimulationConfig(topology="torus", torus_dims=(4, 4)), 16),
    "slimfly": (SimulationConfig(topology="slimfly"), 20),
}

#: sha256 of the routes AdaptiveRouting picked (see _adaptive_picks) with
#: eagerly built route tables; lazy views must not change a single pick.
ADAPTIVE_DIGESTS = {
    "fat_tree": "36810540cc29db00c320db9ebc1f4c4e30cc1905d8d668b3bb657696486ed4d9",
    "dragonfly": "09914c66081488f5a6642a92e284e8eba6b16172db81f53887c6abafd5a822df",
    "torus": "de04ec5f816af4551c5f994427a03f6942520469726fb2c1a29341c0a1d588a6",
    "slimfly": "3cffe619c146de345adb5e709ae53003c7ce471bdfa73406e31c8223355d43ab",
}


def _topology(name):
    config, hosts = TOPOLOGIES[name]
    return build_topology(config, hosts)


def _pairs(topo):
    n = topo.num_hosts
    return [(s, d) for s in range(n) for d in range(n) if s != d]


def _cached_tables(topo):
    return list(topo._route_tables._data.values()) + list(topo._alive_tables._data.values())


def _views_built(table: RouteTable) -> bool:
    return table._views is not None


def _latency_sum(topo, route):
    return sum(topo.links[link].latency for link in route)


def _adaptive_picks(topo):
    """Digest of adaptive picks: idle, under random loads, and with faults."""
    strategy = AdaptiveRouting(topo, np.random.default_rng(7))
    loads = np.random.default_rng(11).integers(0, 1 << 16, size=len(topo.links))
    picks = [strategy.select_route(s, d, 0, None) for s, d in _pairs(topo)]
    for s, d in _pairs(topo):
        route = strategy.select_route(s, d, 4096, loads)
        loads[list(route)] += 4096
        picks.append(route)
    topo.fail_links([len(topo.links) - 1, len(topo.links) // 2])
    for s, d in _pairs(topo):
        try:
            picks.append(strategy.select_route(s, d, 4096, loads))
        except NetworkPartitionError:
            picks.append(None)
    return hashlib.sha256(repr(picks).encode()).hexdigest()


# ------------------------------------------------------------------ tables
def test_views_are_built_on_first_read_and_kept():
    topo = _topology("fat_tree")
    table = topo.route_table(0, 12)
    assert not _views_built(table)
    hops = table.hops
    assert _views_built(table)
    assert table.hops is hops
    assert hops.tolist() == [len(r) for r in table.candidates]
    assert table.latency.tolist() == [_latency_sum(topo, r) for r in table.candidates]
    flat = [link for r in table.candidates for link in r]
    assert table.links_flat.tolist() == flat
    assert table.offsets.tolist() == [0] + np.cumsum(hops).tolist()


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_min_path_latency_is_first_candidate_sum_without_views(name):
    topo = _topology(name)
    for s, d in _pairs(topo):
        expected = _latency_sum(topo, topo.routes(s, d)[0])
        assert topo.min_path_latency(s, d) == expected
    assert not any(_views_built(t) for t in _cached_tables(topo))


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_alive_table_latency_matches_first_surviving_candidate(name):
    topo = _topology(name)
    topo.fail_links([len(topo.links) - 1, len(topo.links) // 2])
    failed = topo.failed_links
    for s, d in _pairs(topo):
        alive = [r for r in topo.routes(s, d) if not failed.intersection(r)]
        if not alive:
            with pytest.raises(NetworkPartitionError):
                topo.alive_table(s, d)
            continue
        table = topo.alive_table(s, d)
        assert list(table.candidates) == alive
        assert int(table.latency[0]) == _latency_sum(topo, alive[0])


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_adaptive_picks_unchanged(name):
    assert _adaptive_picks(_topology(name)) == ADAPTIVE_DIGESTS[name]


# ------------------------------------------------------------------ backends
def _run(backend, routing):
    config = SimulationConfig(topology="torus", torus_dims=(2, 4), routing=routing, seed=5)
    GoalScheduler(all_to_all(8, 1 << 12), backend=backend, config=config).run()
    return backend.topology


@pytest.mark.parametrize("backend_cls", [PacketBackend, LogGOPSBackend])
def test_minimal_run_leaves_views_unbuilt(backend_cls):
    topo = _run(backend_cls(), "minimal")
    tables = _cached_tables(topo)
    assert tables, "the run never consulted a route table"
    assert not any(_views_built(t) for t in tables)


@pytest.mark.parametrize("backend_cls", [PacketBackend, LogGOPSBackend])
def test_adaptive_run_builds_views(backend_cls):
    topo = _run(backend_cls(), "adaptive")
    assert any(_views_built(t) for t in _cached_tables(topo))
