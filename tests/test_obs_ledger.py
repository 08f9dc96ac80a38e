"""Unit tests for the monitor ledger mechanics (repro.obs.ledger).

The hot-path half of the exact monitor pipeline: appender closures
handed out by :meth:`MonitorHub.call_site_batch`, the shared append
segment, drain triggers (segment fill / explicit / every row), and the
counters the ``/invariants`` endpoint reports.  Equivalence of the two
drain cadences is covered separately in test_obs_equivalence.py.
"""

from __future__ import annotations

from repro.monitor import MonitorHub, default_monitors
from repro.obs.ledger import (
    HEALTH_RECV,
    HEALTH_SEND,
    LIVENESS_TICK,
    LIVENESS_WIRELESS_UP,
    health_code,
    liveness_code,
)


class FakeScheduler:
    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.pending_count = 0


def make_hub(**kwargs):
    kwargs.setdefault("record", False)
    hub = MonitorHub(None, default_monitors(), **kwargs)
    hub.scheduler = FakeScheduler()
    return hub


class TestEtypeCodes:
    def test_health_codes(self):
        assert health_code("send.fixed") == HEALTH_SEND
        assert health_code("send.wireless_up") == HEALTH_SEND
        assert health_code("recv") == HEALTH_RECV
        assert health_code("mh.join") == 0

    def test_liveness_codes(self):
        assert liveness_code("send.fixed") == LIVENESS_TICK
        assert liveness_code("send.wireless_up") == LIVENESS_WIRELESS_UP
        assert liveness_code("recv") == LIVENESS_TICK


class TestCallSiteBatch:
    def test_event_mode_appender_drains_every_row(self):
        hub = make_hub(mode="event")
        append = hub.call_site_batch("recv")
        for i in range(3):
            append("s", "mss-0", "mss-1", kind="l2.request", parent=None)
            assert not hub._ledger
            assert hub.drains == i + 1
        assert hub.rows_dispatched == 3

    def test_record_mode_hands_out_no_appender(self):
        # With record=True every event must become a TraceEvent, so
        # sites fall back to emit() and the generic replay.
        hub = make_hub(record=True)
        assert hub.call_site_batch("recv") is None

    def test_appender_returns_monotone_ids(self):
        hub = make_hub()
        append = hub.call_site_batch("recv")
        ids = [append("s", "mss-0", "mss-1", kind="l2.request",
                      parent=None) for _ in range(4)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 4

    def test_rows_share_one_ledger_in_emission_order(self):
        hub = make_hub()
        recv = hub.call_site_batch("recv")
        handoff = hub.call_site_batch("mss.handoff")
        recv("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        handoff("s", "mss-1", "mss-2")
        recv("s", "mss-1", "mss-0", kind="l2.grant", parent=None)
        ledger = hub._ledger
        assert len(ledger) == 3
        ids = [row if isinstance(row, float) else row[0]
               for row in ledger]
        assert ids == sorted(ids)

    def test_drain_replays_and_clears_in_place(self):
        hub = make_hub()
        append = hub.call_site_batch("recv")
        ledger = hub._ledger
        for i in range(10):
            hub.scheduler.now = float(i)
            append("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        assert hub.drain_batches() == 10
        assert hub.drains == 1
        assert hub.rows_dispatched == 10
        # Cleared in place: appenders keep their binding to the list.
        assert hub._ledger is ledger and not ledger
        append("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        assert len(ledger) == 1

    def test_segment_fill_triggers_drain(self):
        hub = make_hub()
        hub._segment_cap = 64
        append = hub.call_site_batch("recv")
        for i in range(64):
            append("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        assert hub.drains == 1
        assert hub.rows_dispatched == 64
        assert not hub._ledger

    def test_certified_until_tracks_drain_clock(self):
        hub = make_hub()
        append = hub.call_site_batch("recv")
        hub.scheduler.now = 12.5
        append("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        assert hub.certified_until == 0.0
        hub.scheduler.now = 40.0
        hub.drain_batches()
        assert hub.certified_until == 40.0

    def test_finalize_drains_pending_rows(self):
        hub = make_hub()
        append = hub.call_site_batch("recv")
        append("s", "mss-0", "mss-1", kind="l2.request", parent=None)
        hub.finalize()
        assert not hub._ledger
        assert hub.rows_dispatched == 1


class TestPlainSendFastRows:
    def test_plain_ticking_send_appends_compact_row(self):
        """Sends that only feed the wildcard monitors land as bare
        timestamps (the dense consume loop folds them into the health
        counters), while gated kinds keep the full row."""
        hub = make_hub()
        append = hub.call_site_batch("send.fixed")
        hub.scheduler.now = 3.0
        append("s", "mss-0", "mss-1", kind="l2.request")
        hub.scheduler.now = 4.0
        append("s", "mss-0", "mss-1", kind="l2.token")
        kinds = [type(row).__name__ for row in hub._ledger]
        assert kinds == ["float", "tuple"]

    def test_compact_rows_still_count_and_tick(self):
        from repro.monitor.health import HealthMonitor
        from repro.monitor.liveness import LivenessMonitor

        hub = make_hub()
        append = hub.call_site_batch("send.fixed")
        for i in range(5):
            hub.scheduler.now = float(i)
            append("s", "mss-0", "mss-1", kind="l2.request")
        hub.drain_batches()
        health = hub.monitor(HealthMonitor)
        liveness = hub.monitor(LivenessMonitor)
        assert health._sends == 5
        assert liveness._last_event_time == 4.0
