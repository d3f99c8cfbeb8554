"""Tests for the distance-vector protocol machinery."""

import pytest

from repro.net import Network, Packet, PacketKind
from repro.protocols import (
    DECNET_DNA4,
    EGP,
    HELLO,
    IGRP,
    PRESETS,
    RIP,
    DistanceVectorAgent,
    ProtocolSpec,
)


def router_chain(n=3, spec=None, jitter=0.0, synthetic_routes=0, start_offsets=None):
    spec = (spec or RIP).with_jitter(jitter)
    net = Network()
    routers = [net.add_router(f"r{i}") for i in range(n)]
    for a, b in zip(routers, routers[1:]):
        net.connect(a, b, delay_s=0.001)
    agents = []
    for i, router in enumerate(routers):
        offset = None if start_offsets is None else start_offsets[i]
        agents.append(
            DistanceVectorAgent(
                router, spec, seed=100 + i,
                synthetic_routes=synthetic_routes, start_offset=offset,
            )
        )
    return net, routers, agents


class TestPresets:
    def test_paper_periods(self):
        assert RIP.period == 30.0
        assert IGRP.period == 90.0
        assert DECNET_DNA4.period == 120.0
        assert EGP.period == 180.0

    def test_all_presets_have_positive_route_cost(self):
        for spec in PRESETS.values():
            assert spec.per_route_cost >= 0

    def test_with_jitter_copies(self):
        jittery = RIP.with_jitter(15.0)
        assert jittery.jitter == 15.0
        assert RIP.jitter == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProtocolSpec(name="x", period=0.0)
        with pytest.raises(ValueError):
            ProtocolSpec(name="x", period=30.0, jitter=31.0)
        with pytest.raises(ValueError):
            ProtocolSpec(name="x", period=30.0, infinity=1)

    def test_timer_policy_band(self):
        policy = RIP.with_jitter(5.0).timer_policy()
        assert policy.tp == 30.0
        assert policy.tr == 5.0


class TestConvergence:
    def test_chain_learns_all_destinations(self):
        net, routers, agents = router_chain(n=4)
        net.run(until=200.0)
        for agent in agents:
            for other in routers:
                assert agent.reachable(other.name), (
                    f"{agent.router.name} cannot reach {other.name}"
                )

    def test_metrics_are_hop_counts(self):
        net, routers, agents = router_chain(n=4)
        net.run(until=200.0)
        assert agents[0].table["r1"].metric == 1
        assert agents[0].table["r2"].metric == 2
        assert agents[0].table["r3"].metric == 3

    def test_forwarding_tables_follow_routing(self):
        net, routers, agents = router_chain(n=3)
        net.run(until=200.0)
        # r0's route to r2 must leave via its only link, next hop r1.
        assert "r2" in routers[0].forwarding_table
        channel, next_hop = routers[0].forwarding_table["r2"]
        assert channel.other_end(routers[0]) is routers[1]
        assert next_hop == "r1"

    def test_synthetic_routes_advertised(self):
        net, routers, agents = router_chain(n=2, synthetic_routes=5)
        net.run(until=100.0)
        assert agents[1].reachable("r0:net3")

    def test_updates_counted(self):
        net, routers, agents = router_chain(n=2)
        net.run(until=100.0)
        assert agents[0].updates_sent >= 3
        assert agents[0].updates_received >= 3


class TestLinkFailure:
    def test_failure_poisons_routes(self):
        net, routers, agents = router_chain(n=3)
        net.run(until=100.0)
        assert agents[0].reachable("r2")
        link_r1_r2 = routers[1].links[-1]
        link_r1_r2.set_up(False)
        net.run(until=200.0)
        assert not agents[0].reachable("r2")

    def test_triggered_update_spreads_bad_news_fast(self):
        net, routers, agents = router_chain(n=3)
        net.run(until=100.0)
        link_r1_r2 = routers[1].links[-1]
        link_r1_r2.set_up(False)
        before = agents[1].triggered_sent
        net.run(until=110.0)  # well under a full period later
        assert agents[1].triggered_sent > before
        assert not agents[0].reachable("r2")

    def test_recovery_relearns_routes(self):
        net, routers, agents = router_chain(n=3)
        net.run(until=100.0)
        link_r1_r2 = routers[1].links[-1]
        link_r1_r2.set_up(False)
        net.run(until=200.0)
        link_r1_r2.set_up(True)
        net.run(until=400.0)
        assert agents[0].reachable("r2")


class TestBusyCoupling:
    def test_updates_occupy_router(self):
        net, routers, agents = router_chain(n=2, synthetic_routes=300,
                                            start_offsets=[1.0, 50.0])
        net.run(until=1.5)
        # r0 just sent a ~302-route update: it is busy for ~0.3 s.
        assert routers[0].update_busy_until > 1.0
        assert routers[0].update_busy_until - 1.0 >= 0.25

    def test_timer_resets_after_busy_in_paper_mode(self):
        net, routers, agents = router_chain(n=2, synthetic_routes=300,
                                            start_offsets=[1.0, 50.0])
        net.run(until=40.0)
        resets = agents[0].timer_reset_times
        assert resets, "timer never reset"
        # The first reset must come after the busy window, not at expiry.
        assert resets[0] >= 1.0 + 300 * RIP.per_route_cost

    def test_on_expiry_mode_resets_at_expiry(self):
        spec = ProtocolSpec(name="x", period=30.0, reset_mode="on_expiry")
        net = Network()
        r0 = net.add_router("r0")
        r1 = net.add_router("r1")
        net.connect(r0, r1)
        agent = DistanceVectorAgent(r0, spec, synthetic_routes=300, start_offset=1.0)
        DistanceVectorAgent(r1, spec, start_offset=50.0)
        net.run(until=5.0)
        assert agent.timer_reset_times[0] == pytest.approx(1.0)

    def test_synchronized_start_stays_synchronized_without_jitter(self):
        # All routers fire at t=5; with zero jitter and mutual coupling
        # they keep firing together.
        net, routers, agents = router_chain(
            n=3, synthetic_routes=50, start_offsets=[5.0, 5.0, 5.0]
        )
        net.run(until=305.0)
        last_resets = [agent.timer_reset_times[-1] for agent in agents]
        spread = max(last_resets) - min(last_resets)
        assert spread < 2.0  # still bunched after ~10 periods


class TestAgentValidation:
    def test_negative_synthetic_routes_rejected(self):
        net = Network()
        router = net.add_router("r")
        with pytest.raises(ValueError):
            DistanceVectorAgent(router, RIP, synthetic_routes=-1)

    def test_route_count_includes_self_and_neighbors(self):
        net, routers, agents = router_chain(n=2, synthetic_routes=4)
        # self + neighbor + 4 synthetic
        assert agents[0].route_count() == 6
