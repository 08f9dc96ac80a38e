"""How fast this CPU runs Python right now, from a fixed reference load.

On a shared host a core's speed changes from moment to moment: the
same code can run 1.7x faster while a neighbour's sibling thread is
idle, and these phases last from a fraction of a second to several
seconds, independently per core.  Raw events/s then measure the host
more than the code.  The benchmark therefore runs a small, frozen
discrete-event loop (heap scheduler, message objects, dict updates,
random draws -- the same kinds of work the simulator does) on the
*same core*, right next to each measured slice, and reports
throughput and latency scaled to a nominal host on which this loop
runs at :data:`NOMINAL_RATE` events per second.

The reference loop is part of the benchmark, never of ``repro``, so a
change to the program cannot move it.

Run as a script it samples one core in the background::

    python3 perfbench/calib.py <cpu> <interval_s>

printing ``<perf_counter> <rate>`` lines until it is interrupted.
"""

from __future__ import annotations

import heapq
import os
import random
import sys
import time

#: reference-loop events per second on the nominal host.
NOMINAL_RATE = 400_000.0


class _Message:
    __slots__ = ("src", "kind", "stamp")

    def __init__(self, src: str, kind: str, stamp: int) -> None:
        self.src = src
        self.kind = kind
        self.stamp = stamp


class _Node:
    def __init__(self, name: str, net: "_Net") -> None:
        self.name = name
        self.net = net
        self.clock = 0
        self.seen: dict = {}

    def receive(self, message: _Message) -> None:
        self.clock = max(self.clock, message.stamp) + 1
        self.seen[message.kind] = self.seen.get(message.kind, 0) + 1
        if message.kind == "ack":
            self.net.send(self.name, self.net.pick(), "req", self.clock)
        else:
            self.net.send(self.name, message.src, "ack", self.clock)


class _Net:
    def __init__(self, n_nodes: int, seed: int) -> None:
        self.rng = random.Random(seed)
        self.heap: list = []
        self.seq = 0
        self.now = 0.0
        self.nodes = {f"n-{i}": _Node(f"n-{i}", self)
                      for i in range(n_nodes)}
        self.names = list(self.nodes)
        self.sent: dict = {}

    def pick(self) -> str:
        return self.rng.choice(self.names)

    def send(self, src: str, dst: str, kind: str, stamp: int) -> None:
        self.sent[src, kind] = self.sent.get((src, kind), 0) + 1
        self.seq += 1
        heapq.heappush(self.heap, (
            self.now + self.rng.expovariate(1.0), self.seq,
            self.nodes[dst].receive, _Message(src, kind, stamp),
        ))

    def run(self, n_events: int) -> None:
        heap = self.heap
        for _ in range(n_events):
            when, _seq, receive, message = heapq.heappop(heap)
            self.now = when
            receive(message)


class Calibrator:
    """Measures the current core's speed with the reference loop."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._net = _Net(24, seed=7)
        for _ in range(40):
            self._net.send(self._net.pick(), self._net.pick(), "req", 0)

    def speed(self, n_events: int = 400) -> float:
        """Current speed relative to the nominal host (1.0 = nominal).

        400 events take about a millisecond.
        """
        started = self._clock()
        self._net.run(n_events)
        elapsed = self._clock() - started
        return n_events / elapsed / NOMINAL_RATE


def mean_speed(samples, start: float, end: float) -> float:
    """Mean speed of the ``(perf_counter, speed)`` samples taken in
    ``[start, end]``, else of the one nearest to it (1.0 if none)."""
    inside = [speed for stamp, speed in samples if start <= stamp <= end]
    if inside:
        return sum(inside) / len(inside)
    if not samples:
        return 1.0
    middle = (start + end) / 2
    return min(samples, key=lambda sample: abs(sample[0] - middle))[1]


def read_samples(lines):
    """Parse the ``<perf_counter> <speed>`` lines the sampler prints
    (a line cut short by the sampler's interruption is skipped)."""
    samples = []
    for line in lines:
        try:
            stamp, speed = map(float, line.split())
        except ValueError:
            continue
        samples.append((stamp, speed))
    return samples


def _sample(cpu: int, interval: float) -> None:
    os.sched_setaffinity(0, {cpu})
    # CPU time, not wall time: this process shares its core with the
    # measured one, and waiting for the core is not slowness.
    calibrator = Calibrator(time.thread_time)
    try:
        while True:
            time.sleep(interval)
            print(f"{time.perf_counter()} {calibrator.speed()}", flush=True)
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    _sample(int(sys.argv[1]), float(sys.argv[2]))
