"""DV routing on the live substrate: churn, poisoning, storms, ties.

This suite locks down the behaviours fig18 depends on when it observes
synchronization on *actual* routing traffic: convergence across link
up/down churn, the split-horizon / poison-reverse defences against
count-to-infinity, the INFINITY=16 unreachability rule, coalescing of
triggered-update storms, DV running over a shared LAN with its
traffic and tail drops counted, and the deterministic BFS
tie-breaking of static routes (neighbour expansion in node-name
order).
"""

import pytest

from repro.net import Network, Packet, PacketKind
from repro.protocols import RIP, DistanceVectorAgent, ProtocolSpec


def build_chain(n=3, spec=None, start=5.0):
    """r0 - r1 - ... - r(n-1) over point-to-point links, zero jitter."""
    spec = spec if spec is not None else RIP.with_jitter(0.0)
    net = Network()
    routers = [net.add_router(f"r{i}") for i in range(n)]
    for a, b in zip(routers, routers[1:]):
        net.connect(a, b, delay_s=0.001)
    agents = [
        DistanceVectorAgent(r, spec, seed=100 + i, start_offset=start + i)
        for i, r in enumerate(routers)
    ]
    return net, routers, agents


def routing_packet(src, routes):
    return Packet(
        src=src,
        dst="*",
        kind=PacketKind.ROUTING_UPDATE,
        size_bytes=64,
        created_at=0.0,
        payload={"routes": routes},
    )


class TestChurnConvergence:
    def test_down_then_up_reconverges_with_correct_metrics(self):
        net, routers, agents = build_chain(n=4)
        net.run(until=150.0)
        assert agents[0].table["r3"].metric == 3
        middle = routers[1].links[-1]  # r1 <-> r2
        middle.set_up(False)
        net.run(until=400.0)
        assert not agents[0].reachable("r2")
        assert not agents[0].reachable("r3")
        assert not agents[3].reachable("r0")
        middle.set_up(True)
        net.run(until=700.0)
        for agent in agents:
            for router in routers:
                assert agent.reachable(router.name)
        assert agents[0].table["r3"].metric == 3
        assert agents[3].table["r0"].metric == 3

    def test_repeated_flaps_end_converged(self):
        net, routers, agents = build_chain(n=3)
        net.run(until=100.0)
        link = routers[1].links[-1]
        for k in range(3):
            link.set_up(False)
            net.run(until=net.sim.now + 80.0)
            assert not agents[0].reachable("r2")
            link.set_up(True)
            net.run(until=net.sim.now + 150.0)
            assert agents[0].reachable("r2"), f"flap {k}: never relearned"
        assert agents[0].table["r2"].metric == 2


class TestCountToInfinity:
    """r0 - r1 - r2 - r3 chain; the r2-r3 link fails.

    The scenario is the RFC's worst case for counting: periodic
    updates only (triggered updates off — the poison would win every
    race), and r0 a fast talker whose stale ``r3 @ 3`` rumour reaches
    r1 long before r1's next periodic update.  A destination two hops
    away is essential — a *direct* neighbour's route is ``local`` and
    immune to rumours, so a 3-chain can never count regardless of
    split horizon.
    """

    def _metric_trace(self, split_horizon, poison_reverse=False):
        def spec(name, period):
            return ProtocolSpec(
                name=name, period=period, split_horizon=split_horizon,
                poison_reverse=poison_reverse, triggered_updates=False,
                timeout_periods=1000.0,
            )

        specs = [spec("fast", 1.5)] + [spec("slow", 9.0)] * 3
        net = Network()
        routers = [net.add_router(f"r{i}") for i in range(4)]
        for a, b in zip(routers, routers[1:]):
            net.connect(a, b, delay_s=0.001)
        agents = [
            DistanceVectorAgent(r, specs[i], seed=100 + i, start_offset=5.0 + i)
            for i, r in enumerate(routers)
        ]
        net.run(until=60.0)
        assert agents[0].table["r3"].metric == 3
        seen = set()

        def sample():
            entry = agents[0].table.get("r3")
            if entry is not None:
                seen.add(entry.metric)
            net.sim.schedule(0.25, sample)

        net.sim.schedule_at(60.0, sample)
        routers[2].links[-1].set_up(False)
        net.run(until=400.0)
        return agents, seen

    def test_split_horizon_suppresses_counting(self):
        agents, seen = self._metric_trace(split_horizon=True)
        assert not agents[0].reachable("r3")
        # Metric jumps 3 -> infinity; no intermediate rumour values.
        assert seen <= {3, agents[0].spec.infinity}

    def test_poison_reverse_suppresses_counting(self):
        agents, seen = self._metric_trace(split_horizon=True, poison_reverse=True)
        assert not agents[0].reachable("r3")
        assert seen <= {3, agents[0].spec.infinity}

    def test_without_split_horizon_the_chain_counts_up(self):
        agents, seen = self._metric_trace(split_horizon=False)
        # The route dies eventually (metrics cap at infinity)...
        assert not agents[0].reachable("r3")
        # ...but only after counting through intermediate rumours.
        infinity = agents[0].spec.infinity
        assert any(3 < metric < infinity for metric in seen)

    def test_poison_reverse_advertises_infinity_instead_of_omitting(self):
        plain = ProtocolSpec(name="sh", period=30.0)
        poisoned = ProtocolSpec(name="pr", period=30.0, poison_reverse=True)
        for spec, expect_poison in ((plain, False), (poisoned, True)):
            net = Network()
            r0 = net.add_router("r0")
            net.add_router("r1")
            link = net.connect("r0", "r1")
            agent = DistanceVectorAgent(r0, spec, seed=1, start_offset=1.0)
            agent.handle_update(routing_packet("r1", [("far", 3)]), link)
            advertised = dict(agent._routes_for_channel(link))
            if expect_poison:
                assert advertised["far"] == spec.infinity
            else:
                assert "far" not in advertised
            # Local routes are never split-horizoned away.
            assert advertised["r0"] == 0


class TestInfinitySemantics:
    def _lone_pair(self, spec=None):
        net = Network()
        r0 = net.add_router("r0")
        net.add_router("r1")
        link = net.connect("r0", "r1")
        agent = DistanceVectorAgent(
            r0, spec if spec is not None else RIP.with_jitter(0.0),
            seed=1, start_offset=1000.0,
        )
        return net, r0, link, agent

    def test_metric_at_infinity_is_never_installed(self):
        net, r0, link, agent = self._lone_pair()
        agent.handle_update(routing_packet("r1", [("far", 15)]), link)
        # 15 + 1 == INFINITY: the destination is unreachable via r1.
        assert "far" not in agent.table
        assert not agent.reachable("far")
        assert "far" not in r0.forwarding_table

    def test_metric_below_infinity_installs_then_poisons(self):
        net, r0, link, agent = self._lone_pair()
        agent.handle_update(routing_packet("r1", [("near", 14)]), link)
        assert agent.table["near"].metric == 15
        assert agent.reachable("near")
        assert r0.forwarding_table["near"][1] == "r1"
        # The current next hop withdrawing the route poisons it.
        agent.handle_update(routing_packet("r1", [("near", 15)]), link)
        assert agent.table["near"].metric == agent.spec.infinity
        assert not agent.reachable("near")
        assert "near" not in r0.forwarding_table

    def test_rip_default_infinity_is_sixteen(self):
        assert RIP.infinity == 16


class TestTriggeredUpdateStorms:
    def test_rapid_flaps_coalesce_into_few_triggered_updates(self):
        net, routers, agents = build_chain(n=3)
        net.run(until=100.0)
        before = [agent.triggered_sent for agent in agents]
        link = routers[1].links[-1]
        toggles = 12
        for k in range(toggles):
            net.sim.schedule_at(100.0 + 0.01 * (k + 1), link.set_up, k % 2 == 1)
        net.run(until=108.0)
        deltas = [agent.triggered_sent - b for agent, b in zip(agents, before)]
        # 12 state changes inside one coalescing window produce at most
        # a couple of triggered updates per router, not one each.
        assert sum(deltas) >= 1
        assert all(delta <= 3 for delta in deltas)

    def test_triggered_updates_can_be_disabled(self):
        spec = ProtocolSpec(name="quiet", period=30.0, triggered_updates=False)
        net, routers, agents = build_chain(n=3, spec=spec)
        net.run(until=100.0)
        routers[1].links[-1].set_up(False)
        net.run(until=130.0)
        assert all(agent.triggered_sent == 0 for agent in agents)
        # Bad news still travels, one periodic cycle at a time.
        net.run(until=300.0)
        assert not agents[0].reachable("r2")


class TestLanSegment:
    def _lan_network(self, n=4, spec=None):
        net = Network()
        routers = [net.add_router(f"r{i}") for i in range(n)]
        lan = net.add_lan("ether", stations=[r.name for r in routers])
        agents = [
            DistanceVectorAgent(
                r, spec if spec is not None else RIP.with_jitter(0.0),
                seed=100 + i, start_offset=2.0 + i,
            )
            for i, r in enumerate(routers)
        ]
        return net, routers, lan, agents

    def test_lan_routers_learn_each_other_in_one_hop(self):
        net, routers, lan, agents = self._lan_network()
        net.run(until=120.0)
        for agent in agents:
            for router in routers:
                assert agent.reachable(router.name)
                if router is not agent.router:
                    assert agent.table[router.name].metric == 1

    def test_lan_counts_routing_traffic(self):
        net, routers, lan, agents = self._lan_network()
        net.run(until=120.0)
        assert all(router.stats.delivered_updates > 0 for router in routers)
        assert lan.stats.packets_sent > 0
        assert lan.stats.bytes_sent > 0
        assert lan.stats.packets_dropped == 0

    def test_congested_segment_counts_tail_drops(self):
        # Six synchronized senders share a one-frame transmit queue:
        # every round, most updates tail-drop (the Figure 1/3 raw
        # material), so fewer updates arrive than on a roomy segment.
        def run(queue_packets):
            net = Network()
            routers = [net.add_router(f"r{i}") for i in range(6)]
            lan = net.add_lan(
                "thin", stations=[r.name for r in routers],
                queue_packets=queue_packets,
            )
            for i, r in enumerate(routers):
                DistanceVectorAgent(
                    r, RIP.with_jitter(0.0), seed=100 + i, start_offset=2.0
                )
            net.run(until=40.0)
            return lan, sum(r.stats.delivered_updates for r in routers)

        thin, thin_updates = run(queue_packets=1)
        roomy, roomy_updates = run(queue_packets=64)
        assert thin.stats.packets_dropped > 0, (
            "synchronized updates through a 1-frame queue must drop"
        )
        assert roomy.stats.packets_dropped == 0
        assert thin_updates < roomy_updates

    def test_segment_failure_poisons_lan_routes(self):
        net, routers, lan, agents = self._lan_network()
        net.run(until=60.0)
        assert agents[0].reachable("r3")
        lan.set_up(False)
        net.run(until=300.0)
        assert not agents[0].reachable("r3")


class TestStaticRouteTies:
    """Regression for the BFS tie-break fix.

    LAN station lists record attachment order, so two networks with
    identical topology but different construction history used to
    expand BFS neighbours in different orders and could pick different
    (equal-cost) first hops.  Neighbour expansion is now sorted by
    node name, making the choice a property of the topology alone.
    """

    def _diamond_over_lan(self, attach_order):
        # src sits on a LAN with gateways ga/gb; both reach dst in one
        # more hop, so src's route to dst is an exact two-path tie.
        net = Network()
        src = net.add_router("src")
        ga = net.add_router("ga")
        gb = net.add_router("gb")
        dst = net.add_router("dst")
        net.add_lan("shared", stations=attach_order)
        net.connect("ga", "dst")
        net.connect("gb", "dst")
        net.install_static_routes()
        return net, src

    def test_first_hop_is_independent_of_lan_attachment_order(self):
        orders = (
            ["src", "ga", "gb"],
            ["gb", "ga", "src"],
            ["ga", "src", "gb"],
        )
        hops = []
        for order in orders:
            net, src = self._diamond_over_lan(order)
            channel, next_hop = src.forwarding_table["dst"]
            hops.append(next_hop)
        assert hops == ["ga", "ga", "ga"]  # name order, not history

    def test_full_tables_match_across_assembly_orders(self):
        net1, _ = self._diamond_over_lan(["src", "ga", "gb"])
        net2, _ = self._diamond_over_lan(["gb", "src", "ga"])

        def table_names(net):
            return {
                name: {dst: hop for dst, (_, hop) in node.forwarding_table.items()}
                for name, node in net.nodes.items()
                if hasattr(node, "forwarding_table")
            }

        assert table_names(net1) == table_names(net2)

    def test_path_between_uses_name_order_on_ties(self):
        net, _ = self._diamond_over_lan(["gb", "ga", "src"])
        assert net.path_between("src", "dst") == ["src", "ga", "dst"]
