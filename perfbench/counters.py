"""Per-layer counters read from public simulator state after a run,
and the percentile the benchmark reports timings with.

Every reader tolerates the API it reads having been removed: a counter
whose source is gone is left out of the result rather than failing the
run, so a later change that deletes, say, the event pool keeps the
benchmark working (``test_counters.py`` checks this).
"""

from __future__ import annotations

import gc
import math
import time
from typing import Dict, List, Optional

#: the monitor whose deadline misses are reported, not failed: under
#: the saturated L2 load a queued request can wait past its 200-unit
#: watchdog deadline without any safety property breaking (README).
LIVENESS = "liveness"


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def pool_reuse_ratio(scheduler) -> Optional[float]:
    """Reused / (reused + created) for the event free list, or ``None``
    when the scheduler has no pool (or no ``pool_stats`` at all)."""
    stats = getattr(scheduler, "pool_stats", None)
    if callable(stats):
        stats = stats()
    if not isinstance(stats, dict):
        return None
    reused = stats.get("reused", 0)
    acquired = reused + stats.get("created", 0)
    return reused / acquired if acquired else 0.0


def sim_counters(sim, pending_max: Optional[int] = None) -> Dict[str, float]:
    """Scheduler, network and fault counters of one finished run."""
    report = sim.metrics.report(sim.cost_model)
    totals = report["totals"]
    out: Dict[str, float] = {
        "sim.events": sim.scheduler.events_processed,
        "net.fixed_msgs": totals.get("fixed", 0),
        "net.wireless_msgs": totals.get("wireless", 0),
        "net.searches": totals.get("search", 0),
        "net.cost": report.get("cost_total", 0.0),
        "faults.retransmits": report.get("faults", {}).get(
            "rel.retransmit", 0),
    }
    if pending_max is not None:
        out["sim.pending_max"] = pending_max
    reuse = pool_reuse_ratio(sim.scheduler)
    if reuse is not None:
        out["pool.event_reuse_ratio"] = reuse
    return out


class GcWatch:
    """Count cyclic-GC collections and their pause time in this process."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._started

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def metrics(self) -> Dict[str, float]:
        return {"gc.collections": self.collections,
                "gc.pause_s": self.pause_s}
