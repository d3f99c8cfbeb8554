"""Tests for packets and links."""

import pytest

from repro.des import Simulator
from repro.net import Host, Link, Network, Packet, PacketKind


def two_hosts():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    link = net.connect(a, b, bandwidth_bps=1e6, delay_s=0.01, queue_packets=2)
    return net, a, b, link


class TestPacket:
    def test_defaults(self):
        p = Packet(src="a", dst="b")
        assert p.kind is PacketKind.DATA
        assert p.ttl == 64
        assert p.hops == []

    def test_unique_ids(self):
        assert Packet(src="a", dst="b").packet_id != Packet(src="a", dst="b").packet_id

    def test_record_hop_spends_ttl(self):
        p = Packet(src="a", dst="b", ttl=3)
        p.record_hop("r1")
        assert p.hops == ["r1"]
        assert p.ttl == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", size_bytes=0)
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", ttl=0)

    def test_is_routing(self):
        assert Packet(src="a", dst="*", kind=PacketKind.ROUTING_UPDATE).is_routing
        assert not Packet(src="a", dst="b").is_routing


class TestLinkDelivery:
    def test_packet_arrives_after_tx_plus_prop(self):
        net, a, b, link = two_hosts()
        got = []
        b.register_handler(PacketKind.DATA, lambda p: got.append(net.sim.now))
        packet = Packet(src="a", dst="b", size_bytes=1000)
        a.send(packet)
        net.run(until=1.0)
        # 8000 bits / 1e6 bps = 8 ms tx + 10 ms prop = 18 ms.
        assert got == [pytest.approx(0.018)]

    def test_serialization_is_one_at_a_time(self):
        net, a, b, link = two_hosts()
        got = []
        b.register_handler(PacketKind.DATA, lambda p: got.append(net.sim.now))
        for _ in range(2):
            a.send(Packet(src="a", dst="b", size_bytes=1000))
        net.run(until=1.0)
        assert got[0] == pytest.approx(0.018)
        assert got[1] == pytest.approx(0.026)  # second waits 8 ms behind the first

    def test_fifo_order_preserved(self):
        net, a, b, link = two_hosts()
        got = []
        b.register_handler(PacketKind.DATA, lambda p: got.append(p.payload["n"]))
        # Queue capacity is 2; at most one transmitting + 2 queued arrive.
        for n in range(3):
            a.send(Packet(src="a", dst="b", size_bytes=100, payload={"n": n}))
        net.run(until=1.0)
        assert got == sorted(got)

    def test_queue_overflow_drops_tail(self):
        net, a, b, link = two_hosts()
        got = []
        b.register_handler(PacketKind.DATA, lambda p: got.append(p.payload["n"]))
        accepted = [
            a.send(Packet(src="a", dst="b", size_bytes=1000, payload={"n": n}))
            for n in range(6)
        ]
        net.run(until=1.0)
        # 1 in flight + 2 queued survive; the rest are tail-dropped.
        assert got == [0, 1, 2]
        assert accepted == [True, True, True, False, False, False]
        assert link.stats_toward(b).packets_dropped == 3
        assert link.stats_toward(a).packets_dropped == 0

    def test_full_duplex_no_interference(self):
        net, a, b, link = two_hosts()
        got_a, got_b = [], []
        a.register_handler(PacketKind.DATA, lambda p: got_a.append(net.sim.now))
        b.register_handler(PacketKind.DATA, lambda p: got_b.append(net.sim.now))
        a.send(Packet(src="a", dst="b", size_bytes=1000))
        b.send(Packet(src="b", dst="a", size_bytes=1000))
        net.run(until=1.0)
        assert got_a == [pytest.approx(0.018)]
        assert got_b == [pytest.approx(0.018)]

    def test_down_link_drops(self):
        net, a, b, link = two_hosts()
        got = []
        b.register_handler(PacketKind.DATA, lambda p: got.append(p))
        link.set_up(False)
        assert a.send(Packet(src="a", dst="b")) is False
        net.run(until=1.0)
        assert got == []

    def test_link_restore_allows_traffic(self):
        net, a, b, link = two_hosts()
        got = []
        b.register_handler(PacketKind.DATA, lambda p: got.append(p))
        link.set_up(False)
        link.set_up(True)
        a.send(Packet(src="a", dst="b"))
        net.run(until=1.0)
        assert len(got) == 1

    def test_stats_count_bytes(self):
        net, a, b, link = two_hosts()
        a.send(Packet(src="a", dst="b", size_bytes=700))
        net.run(until=1.0)
        stats = link.stats_toward(b)
        assert stats.packets_sent == 1
        assert stats.bytes_sent == 700

    def test_other_end(self):
        net, a, b, link = two_hosts()
        assert link.other_end(a) is b
        assert link.other_end(b) is a
        stranger = Host(Simulator(), "x")
        with pytest.raises(ValueError):
            link.other_end(stranger)

    def test_invalid_link_parameters(self):
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        with pytest.raises(ValueError):
            net.connect(a, b, bandwidth_bps=0)
        with pytest.raises(ValueError):
            net.connect(a, b, delay_s=-1)
        with pytest.raises(ValueError):
            net.connect(a, b, queue_packets=0)
