"""Unit tests for the generic Lamport mutual exclusion substrate.

These tests run the substrate over a synchronous in-memory transport
(no simulator), exercising the algorithm logic in isolation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.errors import ProtocolError
from repro.mutex.lamport_core import LamportMutexNode, MutexTransport


class LoopbackNet:
    """A FIFO message bus connecting Lamport nodes directly."""

    def __init__(self):
        self.nodes: Dict[str, LamportMutexNode] = {}
        self.queue = deque()
        self.delivered = 0

    def send(self, src, dst, kind, payload):
        self.queue.append((dst, kind, payload))

    def pump(self):
        while self.queue:
            dst, kind, payload = self.queue.popleft()
            node = self.nodes[dst]
            if kind.endswith(".request"):
                node.on_request(payload)
            elif kind.endswith(".reply"):
                node.on_reply(payload)
            elif kind.endswith(".release"):
                node.on_release(payload)
            self.delivered += 1


class LoopbackTransport(MutexTransport):
    def __init__(self, net: LoopbackNet, node_id: str, all_ids: List[str]):
        self.net = net
        self.node_id = node_id
        self.all_ids = all_ids

    def peers(self):
        return [n for n in self.all_ids if n != self.node_id]

    def send(self, dst, kind, payload):
        self.net.send(self.node_id, dst, kind, payload)


def build(n: int):
    net = LoopbackNet()
    ids = [f"n{i}" for i in range(n)]
    grants: List[str] = []
    for node_id in ids:
        node = LamportMutexNode(
            node_id=node_id,
            transport=LoopbackTransport(net, node_id, ids),
            kind_prefix="lam",
            on_granted=lambda tag, nid=node_id: grants.append(nid),
        )
        net.nodes[node_id] = node
    return net, ids, grants


def test_single_request_granted_after_replies():
    net, ids, grants = build(3)
    net.nodes["n0"].request("t")
    assert grants == []  # needs replies first
    net.pump()
    assert grants == ["n0"]


def test_held_request_blocks_others():
    net, ids, grants = build(3)
    net.nodes["n0"].request("a")
    net.pump()
    net.nodes["n1"].request("b")
    net.pump()
    assert grants == ["n0"]  # n1 waits for n0's release
    net.nodes["n0"].release("a")
    net.pump()
    assert grants == ["n0", "n1"]


def test_grants_follow_timestamp_order():
    net, ids, grants = build(4)
    # All request before any message is delivered: timestamps tie on
    # counter and break by node id.
    for node_id in reversed(ids):
        net.nodes[node_id].request("t")
    net.pump()
    order = []
    # Release in grant order until all four have been served.
    while len(order) < 4:
        assert grants[len(order):], "no progress"
        current = grants[len(order)]
        order.append(current)
        net.nodes[current].release("t")
        net.pump()
    assert order == sorted(ids)


def test_message_count_is_three_n_minus_one():
    net, ids, grants = build(5)
    net.nodes["n2"].request("t")
    net.pump()
    net.nodes["n2"].release("t")
    net.pump()
    # request x4, reply x4, release x4.
    assert net.delivered == 3 * (len(ids) - 1)


def test_multiple_tags_from_one_node_serialize():
    net, ids, grants = build(3)
    net.nodes["n0"].request("first")
    net.nodes["n0"].request("second")
    net.pump()
    node = net.nodes["n0"]
    assert node.held_tags() == ["first"]
    assert node.pending_tags() == ["second"]
    node.release("first")
    net.pump()
    assert node.held_tags() == ["second"]


def test_duplicate_tag_rejected():
    net, ids, grants = build(2)
    net.nodes["n0"].request("t")
    with pytest.raises(ProtocolError):
        net.nodes["n0"].request("t")


def test_release_without_hold_rejected():
    net, ids, grants = build(2)
    with pytest.raises(ProtocolError):
        net.nodes["n0"].release("t")


def test_abort_pending_request_unblocks_peers():
    net, ids, grants = build(3)
    net.nodes["n0"].request("a")   # earliest timestamp
    net.nodes["n1"].request("b")
    net.pump()
    assert grants == ["n0"]
    # n0 aborts while holding: equivalent to release.
    net.nodes["n0"].abort("a")
    net.pump()
    assert grants == ["n0", "n1"]


def test_abort_of_unknown_tag_is_noop():
    net, ids, grants = build(2)
    net.nodes["n0"].abort("nothing")
    assert grants == []


def test_queue_drains_after_releases():
    net, ids, grants = build(3)
    net.nodes["n0"].request("t")
    net.pump()
    net.nodes["n0"].release("t")
    net.pump()
    for node in net.nodes.values():
        assert node.queue_size == 0


@settings(deadline=None, max_examples=40)
@given(
    requests=st.lists(
        st.integers(min_value=0, max_value=4), min_size=1, max_size=12
    )
)
def test_property_safety_and_liveness_under_any_request_order(requests):
    """Any interleaving of requests is granted one at a time and every
    request is eventually granted (with immediate release)."""
    net, ids, grants = build(5)
    active = {nid: False for nid in ids}
    expected = 0
    for req in requests:
        node_id = ids[req]
        if active[node_id]:
            continue
        active[node_id] = True
        expected += 1
        net.nodes[node_id].request("t")
        net.pump()
    # Serve until everything granted: at every point at most one holder.
    served = 0
    while served < expected:
        assert len(grants) > served, "liveness violated"
        holder = grants[served]
        holders_now = [
            nid for nid in ids if net.nodes[nid].held_tags()
        ]
        assert holders_now == [holder]
        net.nodes[holder].release("t")
        active[holder] = False
        served += 1
        net.pump()
    assert len(grants) == expected


def test_stale_heap_rows_stay_bounded_behind_a_held_head():
    """A held head pins every stale row beneath it; a peer that keeps
    requesting and aborting (L2's disconnected-MH path) must not grow
    the heap without bound."""
    net, ids, grants = build(3)
    holder = net.nodes["n0"]
    holder.request("held")
    net.pump()
    assert holder.held_tags() == ["held"]
    # A live request queued behind the head must survive every rebuild.
    net.nodes["n2"].request("waiting")
    net.pump()
    for _ in range(1000):
        net.nodes["n1"].request("x")
        net.pump()
        net.nodes["n1"].abort("x")
        net.pump()
        for node in net.nodes.values():
            assert len(node._heap) <= (
                2 * node.queue_size + node._COMPACT_MIN
            )
    assert grants == ["n0"]
    holder.release("held")
    net.pump()
    assert grants == ["n0", "n2"]
    net.nodes["n2"].release("waiting")
    net.pump()
    assert all(node.queue_size == 0 for node in net.nodes.values())


class ScanNode(LamportMutexNode):
    """Reference node: finds the queue head with a full ``min()`` scan
    over the queue dict on every check."""

    def _check_grants(self):
        while True:
            if not self._queue:
                return
            origin, tag = min(self._queue, key=self._queue.__getitem__)
            if origin != self.node_id or tag not in self._pending:
                return
            ts = self._pending[tag]
            for peer in self.transport.peers():
                seen = self._last_seen.get(peer)
                if seen is None or not seen > ts:
                    return
            del self._pending[tag]
            self._held[tag] = ts
            self.on_granted(tag)


class EagerCompactNode(LamportMutexNode):
    """The production node with no compaction floor, so the property
    test also exercises heap rebuilds on its small queues."""

    _COMPACT_MIN = 0


class ChannelNet:
    """Per-channel FIFO links; the caller picks which channel delivers."""

    def __init__(self, node_cls, n: int):
        self.ids = [f"n{i}" for i in range(n)]
        self.channels = {
            (a, b): deque() for a in self.ids for b in self.ids if a != b
        }
        self.grants: List[tuple] = []
        self.nodes: Dict[str, LamportMutexNode] = {}
        for node_id in self.ids:
            self.nodes[node_id] = node_cls(
                node_id=node_id,
                transport=ChannelTransport(self, node_id),
                kind_prefix="lam",
                on_granted=lambda tag, nid=node_id: self.grants.append(
                    (nid, tag)
                ),
            )

    def deliver(self, src: str, dst: str) -> None:
        channel = self.channels[(src, dst)]
        if not channel:
            return
        kind, payload = channel.popleft()
        node = self.nodes[dst]
        if kind.endswith(".request"):
            node.on_request(payload)
        elif kind.endswith(".reply"):
            node.on_reply(payload)
        else:
            node.on_release(payload)

    def assert_heaps_cover_queues(self) -> None:
        """Every queued request has a live row in its node's heap."""
        for node in self.nodes.values():
            live = {
                (origin, tag)
                for ts, origin, tag in node._heap
                if node._queue.get((origin, tag)) == ts
            }
            assert live == set(node._queue)

    def state(self):
        return (
            list(self.grants),
            {
                nid: (node.queue_size, node.pending_tags(), node.held_tags())
                for nid, node in self.nodes.items()
            },
            {key: list(channel) for key, channel in self.channels.items()},
        )


class ChannelTransport(MutexTransport):
    def __init__(self, net: ChannelNet, node_id: str):
        self.net = net
        self.node_id = node_id
        self._peers = tuple(n for n in net.ids if n != node_id)

    def peers(self):
        return self._peers

    def send(self, dst, kind, payload):
        self.net.channels[(self.node_id, dst)].append((kind, payload))


TAGS = ("a", "b", "c")
# Repeats weight the draw: mostly requests, deliveries and releases,
# so most sequences reach grants between the rarer crash-path calls.
OPS = (
    ("request",) * 3 + ("deliver",) * 8 + ("release",) * 2
    + ("abort", "forget_origin", "reset_volatile", "reannounce_to")
)


def apply_op(net: ChannelNet, op: str, i: int, j: int) -> None:
    ids = net.ids
    node_id = ids[i % len(ids)]
    other = ids[j % len(ids)]
    node = net.nodes[node_id]
    if op == "request":
        tag = TAGS[j % len(TAGS)]
        if tag not in node.pending_tags() and tag not in node.held_tags():
            node.request(tag)
    elif op == "deliver":
        # The (i, j)-th busy channel, so a delivery always makes progress.
        busy = [key for key, channel in net.channels.items() if channel]
        if busy:
            net.deliver(*busy[(4 * i + j) % len(busy)])
    elif op == "release":
        held = node.held_tags()
        if held:
            node.release(held[j % len(held)])
    elif op == "abort":
        node.abort(TAGS[j % len(TAGS)])
    elif op == "forget_origin":
        if other != node_id:
            node.forget_origin(other)
    elif op == "reset_volatile":
        node.reset_volatile()
    elif op == "reannounce_to":
        if other != node_id:
            node.reannounce_to(other)


@seed(1994)
@settings(deadline=None, max_examples=300)
@given(
    node_cls=st.sampled_from([LamportMutexNode, EagerCompactNode]),
    n=st.integers(min_value=3, max_value=4),
    ops=st.lists(
        st.tuples(
            st.sampled_from(OPS),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=10,
        max_size=120,
    ),
)
def test_property_heap_head_matches_min_scan(node_cls, n, ops):
    """Any sequence of operations grants the same tags in the same
    order, with the same queue sizes and messages, as a node that
    rescans the whole queue for its head."""
    heap_net = ChannelNet(node_cls, n)
    scan_net = ChannelNet(ScanNode, n)
    for op, i, j in ops:
        apply_op(heap_net, op, i, j)
        apply_op(scan_net, op, i, j)
        assert heap_net.state() == scan_net.state()
        heap_net.assert_heaps_cover_queues()
    # Drain every channel, releasing as grants arrive, so queued
    # requests get their turn too.
    for _ in range(4 * n * len(TAGS)):
        for src in heap_net.ids:
            for dst in heap_net.ids:
                while heap_net.channels.get((src, dst)):
                    heap_net.deliver(src, dst)
                    scan_net.deliver(src, dst)
        for node_id in heap_net.ids:
            for tag in heap_net.nodes[node_id].held_tags():
                heap_net.nodes[node_id].release(tag)
                scan_net.nodes[node_id].release(tag)
        assert heap_net.state() == scan_net.state()
        heap_net.assert_heaps_cover_queues()
