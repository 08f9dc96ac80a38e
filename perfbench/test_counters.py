"""Checks of the benchmark's own counter and fold logic.

Run with ``python3 -m pytest perfbench`` (the repository's test suite
does not collect this directory) or ``python3 perfbench/test_counters.py``.
"""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from counters import pool_reuse_ratio, sim_counters  # noqa: E402
from layers import LayerMap, fold  # noqa: E402
import run as bench  # noqa: E402


class _Metrics:
    def report(self, model):
        return {"totals": {"fixed": 3, "wireless": 2, "search": 1},
                "cost_total": 9.0}


class _SchedulerWithoutPool:
    """A scheduler as it will look once the event pool is deleted."""

    events_processed = 42


def _sim(scheduler):
    return types.SimpleNamespace(scheduler=scheduler, metrics=_Metrics(),
                                 cost_model=None)


def test_pool_ratio_absent_without_pool_stats():
    assert pool_reuse_ratio(_SchedulerWithoutPool()) is None


def test_sim_counters_survive_a_scheduler_without_pool_stats():
    counters = sim_counters(_sim(_SchedulerWithoutPool()), pending_max=7)
    assert "pool.event_reuse_ratio" not in counters
    assert counters["sim.events"] == 42
    assert counters["net.fixed_msgs"] == 3
    assert counters["sim.pending_max"] == 7


def test_pool_ratio_from_property_or_method():
    stats = {"created": 1, "reused": 3}
    as_property = types.SimpleNamespace(pool_stats=stats)
    as_method = types.SimpleNamespace(pool_stats=lambda: stats)
    assert pool_reuse_ratio(as_property) == 0.75
    assert pool_reuse_ratio(as_method) == 0.75


def test_absent_pool_ratio_is_not_a_failure():
    args = types.SimpleNamespace(workload="l2_mobility")
    run = types.SimpleNamespace(args=args, errors=[])
    run.fail = run.errors.append
    measured = {"sim.events": 1, "sim.self_s": 0.5}
    metrics = bench.complete(measured, True, run)
    assert run.errors == []
    assert "pool.event_reuse_ratio" not in metrics
    assert metrics["sim.self_s"] == {"value": 0.5, "unit": "s"}
    assert metrics["monitor.violations"]["value"] == 0


def test_fold_charges_builtins_to_the_calling_layer(tmp_path):
    src = tmp_path / "src"
    sched = str(src / "repro" / "sim" / "scheduler.py")
    mutex = str(src / "repro" / "mutex" / "l2.py")
    run_fn = (sched, 1, "run")
    grant = (mutex, 5, "grant")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    stats = {
        run_fn: (1, 1, 0.5, 2.0, {}),
        grant: (10, 10, 0.25, 0.25, {run_fn: (10, 10, 0.25, 0.25)}),
        heappop: (20, 20, 0.125, 0.125, {run_fn: (20, 20, 0.125, 0.125)}),
    }
    folded = fold(stats, LayerMap(src))
    assert folded["self_s"] == {"sim": 0.625, "mutex": 0.25}
    assert folded["calls"] == {"mutex": 10}


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
