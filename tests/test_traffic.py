"""Tests for traffic generators."""

import pytest

from repro.net import Network, PacketKind
from repro.traffic import (
    LOSS_RTT,
    AudioSession,
    PingClient,
    PingResponder,
    VBRVideoSession,
)


def simple_path(**router_kwargs):
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    r = net.add_router("r", **router_kwargs)
    net.connect(a, r, delay_s=0.005)
    net.connect(r, b, delay_s=0.005)
    net.install_static_routes()
    return net, a, b, r


class TestPing:
    def test_clean_path_no_losses(self):
        net, a, b, r = simple_path()
        PingResponder(b)
        client = PingClient(a, "b", count=20, interval=0.5, timeout=1.0)
        net.run(until=30.0)
        assert client.complete
        assert client.losses == 0
        assert all(rtt > 0.019 for rtt in client.rtts)  # >= 2x RTT floor

    def test_rtt_reflects_path_delay(self):
        net, a, b, r = simple_path()
        PingResponder(b)
        client = PingClient(a, "b", count=5, interval=0.5, timeout=1.0)
        net.run(until=10.0)
        # 4 x 5 ms propagation plus serialization/forwarding overheads.
        for rtt in client.rtts:
            assert 0.020 <= rtt <= 0.030

    def test_busy_router_produces_losses(self):
        net, a, b, r = simple_path(blocking_updates=True)
        PingResponder(b)
        client = PingClient(a, "b", count=20, interval=0.5, timeout=1.0)
        net.sim.schedule_at(2.0, lambda: r.occupy_for(2.2))
        net.run(until=30.0)
        assert client.losses >= 4
        assert client.loss_burst_lengths()
        assert max(client.loss_burst_lengths()) >= 4

    def test_loss_rate_and_burst_helpers(self):
        net, a, b, r = simple_path()
        PingResponder(b)
        client = PingClient(a, "b", count=4, interval=0.5, timeout=1.0)
        net.run(until=10.0)
        client.rtts[1] = LOSS_RTT
        client.rtts[2] = LOSS_RTT
        assert client.losses == 2
        assert client.loss_rate == pytest.approx(0.5)
        assert client.loss_burst_lengths() == [2]

    def test_validation(self):
        net, a, b, r = simple_path()
        with pytest.raises(ValueError):
            PingClient(a, "b", count=0)
        with pytest.raises(ValueError):
            PingClient(a, "b", interval=0.0)


class TestAudio:
    def test_clean_delivery(self):
        net, a, b, r = simple_path()
        session = AudioSession(a, b, packet_interval=0.02, duration=2.0)
        net.run(until=5.0)
        assert session.packets_sent == 100
        assert session.packets_received == 100
        assert session.loss_rate == 0.0

    def test_busy_router_creates_outage(self):
        net, a, b, r = simple_path(blocking_updates=True)
        session = AudioSession(a, b, packet_interval=0.02, duration=4.0)
        net.sim.schedule_at(1.0, lambda: r.occupy_for(1.0))
        net.run(until=10.0)
        times, delivered = session.delivery_record()
        lost_times = [t for t, ok in zip(times, delivered) if not ok]
        assert lost_times, "expected an outage"
        assert min(lost_times) >= 0.9
        assert max(lost_times) <= 2.1
        assert session.loss_rate == pytest.approx(0.25, abs=0.05)

    def test_random_blips(self):
        net, a, b, r = simple_path()
        session = AudioSession(
            a, b, packet_interval=0.02, duration=20.0,
            random_loss_probability=0.01, seed=9,
        )
        net.run(until=30.0)
        assert 0 < session.packets_sent - session.packets_received < 40

    def test_validation(self):
        net, a, b, r = simple_path()
        with pytest.raises(ValueError):
            AudioSession(a, b, packet_interval=0.0)
        with pytest.raises(ValueError):
            AudioSession(a, b, random_loss_probability=2.0)


class TestVideo:
    def test_frames_fragment_and_reassemble(self):
        net, a, b, r = simple_path()
        session = VBRVideoSession(a, b, fps=10, duration=1.0,
                                  mean_frame_bytes=2500, mtu_bytes=1000, seed=2)
        net.run(until=5.0)
        assert session.frames_sent == 10
        assert session.complete_frames() == 10
        assert session.packets_sent > session.frames_sent  # fragmentation happened

    def test_losses_damage_frames(self):
        net, a, b, r = simple_path(blocking_updates=True)
        session = VBRVideoSession(a, b, fps=10, duration=2.0, seed=3)
        net.sim.schedule_at(0.95, lambda: r.occupy_for(0.3))
        net.run(until=5.0)
        assert session.frame_completion_rate() < 1.0
        damaged = session.damaged_frame_times()
        assert damaged
        assert all(0.8 <= t <= 1.4 for t in damaged)

    def test_validation(self):
        net, a, b, r = simple_path()
        with pytest.raises(ValueError):
            VBRVideoSession(a, b, fps=0)
