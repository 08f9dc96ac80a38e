"""Drain-cadence equivalence: the monitor pipeline's correctness gate.

There is one exact monitor pipeline; its only choice is how often the
ledger drains.  Quantum drains (``monitor_mode="batched"``, the
default) must give exactly what draining after every row
(``monitor_mode="event"``) gives (ROADMAP item 3): the same violations
with the same attribution, the same monitor reports, the same health
gauge series.  These tests pin that equivalence on the canonical
loaded-system workload and on the certified chaos pack across the
certification seeds (7/19/42).
"""

from __future__ import annotations

import pytest

from repro.monitor import MonitorHub, default_monitors
from repro.perf.scenarios import monitored_l2_run
from repro.scenario import builtin_registry, run_scenario
from repro.trace.events import TraceEvent
from test_monitor_verdicts_golden import (
    SEEDS,
    golden_section,
    pack_entry,
    serialize,
)


def _scrub(report):
    """Drop the only field allowed to differ between modes."""
    report = dict(report)
    report.pop("wall_time_s", None)
    return report


class TestCanonicalEquivalence:
    def test_loaded_system_reports_match(self):
        event = monitored_l2_run("event")
        batched = monitored_l2_run("batched")
        assert event.monitor_hub.report() == batched.monitor_hub.report()
        assert event.scheduler.events_processed == \
            batched.scheduler.events_processed

    def test_loaded_system_health_series_match(self):
        """Sample times and every exact counter are identical; only
        the instantaneous ground-truth gauges (scheduler depth, cell
        load) are read at the quantum drain instead of at the emitting
        row, a staleness bounded by the drain quantum
        (docs/observability.md)."""
        from repro.monitor.health import HealthMonitor

        event = monitored_l2_run("event")
        batched = monitored_l2_run("batched")
        h_event = event.monitor_hub.monitor(HealthMonitor).samples
        h_batched = batched.monitor_hub.monitor(HealthMonitor).samples
        assert len(h_event) == len(h_batched)
        drain_time_gauges = {
            "pending_events", "events_processed", "mss_load",
        }
        for sample_e, sample_b in zip(h_event, h_batched):
            exact_e = {k: v for k, v in sample_e.items()
                       if k not in drain_time_gauges}
            exact_b = {k: v for k, v in sample_b.items()
                       if k not in drain_time_gauges}
            assert exact_e == exact_b

    def test_violation_attribution_matches(self):
        """Induced violations carry identical time/scope/detail in
        both modes (the batched replay must not re-time or re-order
        the offending events)."""

        def feed(hub):
            hub.scheduler = type("S", (), {"now": 0.0})()
            # Out-of-order FIFO parents on an MSS-MSS channel.
            for i, (parent, t) in enumerate([(5, 1.0), (3, 2.0)]):
                hub.scheduler.now = t
                hub.emit("recv", scope="test", src="mss-0",
                         dst="mss-1", parent=parent, kind="l2.request")
            hub.finalize()
            return [str(v) for m in hub.monitors for v in m.violations]

        per_row = feed(MonitorHub(None, default_monitors(), mode="event"))
        batched = feed(MonitorHub(None, default_monitors()))
        assert per_row == batched
        assert per_row  # the scenario above must actually violate

    def test_trace_ids_match(self):
        """Event ids allocated under quantum drains line up with
        drain-every-row mode (senders stamp them into
        message.trace_id)."""
        event = monitored_l2_run("event")
        batched = monitored_l2_run("batched")
        assert event.monitor_hub._next_id == batched.monitor_hub._next_id


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_pack_equivalence(seed):
    """Every certified chaos scenario produces an identical report
    (monitors, health series, costs, messages) under both drain
    cadences, for each certification seed, and the default cadence
    reproduces the pinned verdicts byte for byte."""
    golden = golden_section("pack")[str(seed)]
    registry = builtin_registry()
    assert sorted(registry.names()) == sorted(golden)
    for name in sorted(registry.names()):
        spec = registry.get(name)
        event = run_scenario(spec, seed=seed, monitor_mode="event")
        batched = run_scenario(spec, seed=seed)
        assert _scrub(event.report) == _scrub(batched.report), (
            f"{name} seed={seed} diverges between monitor modes"
        )
        assert event.events == batched.events
        assert serialize(pack_entry(batched)) == serialize(golden[name]), (
            f"{name} seed={seed} differs from the golden verdicts"
        )


def test_record_mode_keeps_full_trace():
    """record=True (tracing) captures every event under both drain
    cadences, in emission order, so exports stay byte-identical."""
    hub_e = MonitorHub(None, default_monitors(), record=True, mode="event")
    hub_b = MonitorHub(None, default_monitors(), record=True)
    for hub in (hub_e, hub_b):
        hub.scheduler = type("S", (), {"now": 0.0})()
        for i in range(5):
            hub.scheduler.now = float(i)
            hub.emit("send.fixed", scope="t", src="mss-0", dst="mss-1",
                     kind="l2.request")
        hub.drain_batches()
    assert len(hub_e.events) == len(hub_b.events) == 5
    for a, b in zip(hub_e.events, hub_b.events):
        assert isinstance(a, TraceEvent) and isinstance(b, TraceEvent)
        assert (a.id, a.time, a.etype) == (b.id, b.time, b.etype)
