"""Machine-speed calibration: a fixed kernel sampled during the measurement.

Host times are divided by this kernel's time, measured in the same process,
so that a machine (or a moment on a shared machine) that runs everything
slower does not read as a slower simulator.  The kernel's instruction mix
follows the simulator's event loops: a ``heapq`` event queue of small
``__slots__`` objects, dict lookups keyed by tuples, integer arithmetic and
a little numpy.

A shared 2-vCPU VM changes speed by up to 2x within a second, so timing the
kernel once before and once after the workload does not describe the speed
the workload ran at.  :class:`SpeedProbe` instead runs a short kernel pass
every ``PROBE_INTERVAL_S`` of wall time throughout the measured interval and
reports the mean CPU time of the passes that fell in each phase.

This module imports only the standard library and numpy, never ``repro``,
so no change to the simulator can move the calibration.
"""
from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import List

import numpy as np

#: Events in one probe pass (about 1 ms on a 2-vCPU x86-64 VM).
PROBE_EVENTS = 200
#: Wall seconds between probe passes (about 5% of the measured time).
PROBE_INTERVAL_S = 0.02


class _Event:
    __slots__ = ("time", "seq", "node", "size")

    def __init__(self, time: int, seq: int, node: int, size: int) -> None:
        self.time = time
        self.seq = seq
        self.node = node
        self.size = size

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def kernel(events: int) -> int:
    """Run a fixed discrete-event workload and return its checksum."""
    nodes = 64
    queue: List[_Event] = []
    links: dict = {}
    load = np.zeros(nodes, dtype=np.int64)
    state = 12345
    seq = 0
    for node in range(nodes):
        heapq.heappush(queue, _Event(node, seq, node, 4096))
        seq += 1
    checksum = 0
    for step in range(events):
        ev = heapq.heappop(queue)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        dst = state % nodes
        key = (ev.node, dst)
        links[key] = links.get(key, 0) + ev.size
        checksum = (checksum + ev.time + links[key]) & 0xFFFFFFFF
        if step % 64 == 0:
            load[dst] += int(load.sum() % 7) + ev.size
        heapq.heappush(queue, _Event(ev.time + 1 + (state & 1023), seq, dst, ev.size))
        seq += 1
    return checksum ^ int(load.sum())


class SpeedProbe:
    """Runs a ``PROBE_EVENTS`` kernel pass every ``PROBE_INTERVAL_S`` while started.

    ``passes`` holds the CPU seconds of each pass; ``clock()`` is wall time
    minus the wall time spent in passes, so intervals read on it exclude
    the probe's own cost.  Python runs the handler in the main thread
    between bytecodes, so passes land inside whatever pure-Python work is
    being measured.
    """

    def __init__(self) -> None:
        self.passes: List[float] = []
        self._spent = 0.0
        self._previous_handler = signal.SIG_DFL

    def _on_alarm(self, signum, frame) -> None:
        # a collection of the workload's garbage must not land in a pass
        collecting = gc.isenabled()
        gc.disable()
        wall = time.perf_counter()
        cpu = time.thread_time()
        kernel(PROBE_EVENTS)
        self.passes.append(time.thread_time() - cpu)
        self._spent += time.perf_counter() - wall
        if collecting:
            gc.enable()

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def mean_pass_s(self, first: int = 0) -> float:
        """Mean CPU seconds of the passes since index ``first`` (all passes if
        none fell there)."""
        window = self.passes[first:] or self.passes
        if not window:
            raise RuntimeError("the speed probe took no samples")
        return statistics.fmean(window)
