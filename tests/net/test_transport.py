"""Tests for the datagram transport."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.net.packet import LinkStateMessage, RecommendationMessage
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.net.transport import DatagramTransport
from repro.overlay import wire
from repro.overlay.stats import BandwidthRecorder


def make_setup(n=3, rtt=100.0, loss=None, failures=None, with_bw=True):
    rtt_m = np.full((n, n), rtt)
    np.fill_diagonal(rtt_m, 0.0)
    topo = Topology(rtt_m, loss=loss, failures=failures)
    sim = Simulator()
    bw = BandwidthRecorder(n) if with_bw else None
    transport = DatagramTransport(sim, topo, np.random.default_rng(1), bw)
    return sim, topo, transport, bw


def ls_msg(origin, n):
    return LinkStateMessage(
        origin=origin,
        latency_ms=np.full(n, 50.0),
        alive=np.ones(n, dtype=bool),
        loss=np.zeros(n),
    )


class TestEndpoints:
    """Service endpoints co-located at a host node (in-band membership)."""

    def test_endpoint_traffic_uses_host_links(self):
        sim, topo, transport, bw = make_setup(rtt=100.0)
        got = []
        transport.register(2, lambda msg, src: got.append((sim.now, src)))
        transport.register_endpoint(3, host=0, handler=lambda m, s: None)
        transport.send(3, 2, ls_msg(3, 3))
        sim.run()
        # Delivered after the host<->node one-way delay, from address 3.
        assert got == [(0.050, 3)]
        # Bytes are accounted against the host node, not the address.
        assert bw.bytes_per_node(directions=("out",))[0] > 0

    def test_endpoint_receives_at_its_address(self):
        sim, topo, transport, _ = make_setup()
        got = []
        transport.register_endpoint(3, host=1, handler=lambda m, s: got.append(s))
        transport.send(0, 3, ls_msg(0, 3))
        sim.run()
        assert got == [0]

    def test_endpoint_to_its_own_host_is_lossless(self):
        loss = np.full((3, 3), 1.0)
        np.fill_diagonal(loss, 0.0)
        sim, topo, transport, _ = make_setup(loss=loss)
        got = []
        transport.register(0, lambda msg, src: got.append(src))
        transport.register_endpoint(3, host=0, handler=lambda m, s: None)
        assert transport.send(3, 0, ls_msg(3, 3))  # same machine: no wire
        sim.run()
        assert got == [3]

    def test_endpoint_can_reregister_after_outage(self):
        sim, topo, transport, _ = make_setup()
        got = []
        transport.register_endpoint(3, host=0, handler=lambda m, s: got.append(s))
        transport.unregister(3)
        transport.send(1, 3, ls_msg(1, 3))
        sim.run()
        assert got == []  # dropped during the outage window
        transport.register(3, lambda m, s: got.append(s))
        transport.send(1, 3, ls_msg(1, 3))
        sim.run()
        assert got == [1]

    def test_bad_host_rejected(self):
        sim, topo, transport, _ = make_setup()
        with pytest.raises(SimulationError):
            transport.register_endpoint(9, host=7, handler=lambda m, s: None)

    def test_colliding_address_rejected(self):
        sim, topo, transport, _ = make_setup()
        transport.register(1, lambda m, s: None)
        with pytest.raises(SimulationError):
            transport.register_endpoint(1, host=0, handler=lambda m, s: None)


class TestDelivery:
    def test_message_arrives_after_one_way_delay(self):
        sim, topo, transport, _ = make_setup(rtt=100.0)
        got = []
        transport.register(1, lambda msg, src: got.append((sim.now, src)))
        transport.send(0, 1, ls_msg(0, 3))
        sim.run()
        assert got == [(0.050, 0)]

    def test_self_send_is_synchronous(self):
        sim, topo, transport, bw = make_setup()
        got = []
        transport.register(0, lambda msg, src: got.append(src))
        transport.send(0, 0, ls_msg(0, 3))
        assert got == [0]
        # no bytes accounted for local delivery
        assert bw.bytes_per_node().sum() == 0

    def test_unregistered_destination_drops(self):
        sim, topo, transport, _ = make_setup()
        assert transport.send(0, 2, ls_msg(0, 3))
        sim.run()
        assert transport.dropped_count == 1

    def test_duplicate_registration_rejected(self):
        _, _, transport, _ = make_setup()
        transport.register(0, lambda m, s: None)
        with pytest.raises(SimulationError):
            transport.register(0, lambda m, s: None)

    def test_unregister_stops_delivery(self):
        sim, topo, transport, _ = make_setup()
        got = []
        transport.register(1, lambda msg, src: got.append(src))
        transport.send(0, 1, ls_msg(0, 3))
        transport.unregister(1)
        sim.run()
        assert got == []


class TestLoss:
    def test_total_loss_drops_everything(self):
        n = 3
        loss = np.ones((n, n))
        np.fill_diagonal(loss, 0.0)
        sim, topo, transport, _ = make_setup(loss=loss)
        got = []
        transport.register(1, lambda msg, src: got.append(src))
        for _ in range(20):
            transport.send(0, 1, ls_msg(0, n))
        sim.run()
        assert got == []
        assert transport.dropped_count == 20

    def test_loss_rate_statistical(self):
        n = 3
        loss = np.full((n, n), 0.4)
        np.fill_diagonal(loss, 0.0)
        sim, topo, transport, _ = make_setup(loss=loss)
        got = []
        transport.register(1, lambda msg, src: got.append(src))
        for _ in range(2000):
            transport.send(0, 1, ls_msg(0, n))
        sim.run()
        assert 0.52 < len(got) / 2000 < 0.68


class TestCoalescedDelivery:
    """Same-arrival datagrams share one delivery event (PR 4).

    Loss is still drawn per message at send time and handlers still run
    once per message in send order, so protocol behavior and RNG streams
    are untouched — only the event-queue footprint shrinks.
    """

    def test_same_tick_same_pair_shares_one_event(self):
        sim, topo, transport, _ = make_setup()
        got = []
        transport.register(1, lambda msg, src: got.append((sim.now, msg)))
        a = ls_msg(0, 3)
        b = RecommendationMessage(origin=0, dsts=np.array([1]), hops=np.array([2]))
        transport.send(0, 1, a)
        transport.send(0, 1, b)
        assert transport.coalesced_count == 1
        assert sim.pending() == 1  # one heap entry for two datagrams
        sim.run()
        assert [m for _, m in got] == [a, b]  # send order preserved
        assert got[0][0] == got[1][0] == 0.050
        assert transport.delivered_count == 2

    def test_distinct_arrivals_not_coalesced(self):
        rtt_m = np.array(
            [[0.0, 100.0, 80.0], [100.0, 0.0, 60.0], [80.0, 60.0, 0.0]]
        )
        topo = Topology(rtt_m)
        sim = Simulator()
        transport = DatagramTransport(sim, topo, np.random.default_rng(1))
        transport.register(1, lambda m, s: None)
        transport.send(0, 1, ls_msg(0, 3))
        transport.send(2, 1, ls_msg(2, 3))
        assert transport.coalesced_count == 0
        assert sim.pending() == 2

    def test_unregister_mid_batch_drops_rest(self):
        sim, topo, transport, _ = make_setup()
        got = []

        def handler(msg, src):
            got.append(msg)
            transport.unregister(1)

        transport.register(1, handler)
        a, b = ls_msg(0, 3), ls_msg(0, 3)
        transport.send(0, 1, a)
        transport.send(0, 1, b)
        sim.run()
        assert got == [a]
        assert transport.dropped_count == 1

    def test_bandwidth_counted_per_message(self):
        sim, topo, transport, bw = make_setup()
        transport.register(1, lambda m, s: None)
        a = ls_msg(0, 3)
        b = RecommendationMessage(origin=0, dsts=np.array([1]), hops=np.array([2]))
        transport.send(0, 1, a)
        transport.send(0, 1, b)
        sim.run()
        assert (
            bw.bytes_per_node(directions=("in",))[1]
            == a.wire_size() + b.wire_size()
        )


class TestAccounting:
    def test_out_bytes_counted_even_for_lost_messages(self):
        n = 3
        loss = np.ones((n, n))
        np.fill_diagonal(loss, 0.0)
        sim, topo, transport, bw = make_setup(loss=loss)
        transport.register(1, lambda m, s: None)
        msg = ls_msg(0, n)
        transport.send(0, 1, msg)
        sim.run()
        assert bw.bytes_per_node(directions=("out",))[0] == msg.wire_size()
        assert bw.bytes_per_node(directions=("in",))[1] == 0

    def test_in_bytes_counted_on_delivery(self):
        sim, topo, transport, bw = make_setup()
        transport.register(1, lambda m, s: None)
        msg = ls_msg(0, 3)
        transport.send(0, 1, msg)
        sim.run()
        assert bw.bytes_per_node(directions=("in",))[1] == msg.wire_size()

    def test_wire_sizes_match_paper_formulas(self):
        n = 100
        msg = ls_msg(0, n)
        assert msg.wire_size() == wire.HEADER_BYTES + 3 * n
        rec = RecommendationMessage(origin=0, dsts=np.full(20, 1), hops=np.full(20, 2))
        assert rec.wire_size() == wire.HEADER_BYTES + 4 * 20

    def test_kind_separation(self):
        sim, topo, transport, bw = make_setup()
        transport.register(1, lambda m, s: None)
        transport.send(0, 1, ls_msg(0, 3))
        transport.send(0, 1, RecommendationMessage(origin=0, dsts=np.array([1]), hops=np.array([2])))
        sim.run()
        ls_bytes = bw.bytes_per_node(kinds=("ls",))
        rec_bytes = bw.bytes_per_node(kinds=("rec",))
        assert ls_bytes[0] > 0 and rec_bytes[0] > 0
        assert ls_bytes[0] != rec_bytes[0]
