"""Property and fuzz tests for the topology-aware coupling layer.

The structural guarantees, each checked over generated cases
(``tests/_gen.py``):

* the generalized kernel, given a real complete coupling, reproduces
  its ``coupling=None`` shortcut byte for byte (this is the analytic
  clique-collapse argument of DESIGN.md §13, executed);
* graph generation is a pure function of (spec, n) — same seed, same
  graph, different seed, usually different graph;
* rings: the diameter grows monotonically with n while clique
  diameter stays 1;
* no-sync smoke: a star's leaves only couple through the hub and a
  tree's leaves only through their parents, so with a tiny Tc no
  full-network cascade ever forms;
* disconnected graphs can never fully synchronize, and no cascade
  ever spans two components (verified from the tracker's reset
  stream, not just the end state);
* time-varying (switching) schedules are deterministic per seed and
  differ from their static phases;
* :class:`~repro.parallel.job.SimulationJob` keeps pre-topology cache
  keys byte-stable while keying non-clique couplings canonically.
"""

import pytest

from repro.core import CascadeModel, RouterTimingParameters
from repro.core.batch import BatchCascade
from repro.parallel.job import SimulationJob, batch_group_key
from repro.topo import (
    KINDS,
    Coupling,
    TopologySpec,
    adjacency,
    components,
    diameter,
    ensure_spec,
    mean_degree,
    parse_topology,
    tree_size,
)
from repro.topo.spec import _er_generator

from tests._gen import CaseGen


def _trace(model):
    tracker = model.tracker
    return (
        model.now,
        model.total_cascades,
        tracker.total_resets,
        dict(tracker.first_time_at_least),
        dict(tracker.first_time_at_most),
        list(tracker.round_times),
        list(tracker.round_largest),
        model._batch.rng_states(0),
    )


class TestSpecAndParsing:
    def test_canonical_round_trips(self):
        for text in (
            "clique",
            "ring",
            "star",
            "tree(b=3)",
            "erdos_renyi(p=0.25,seed=7)",
            "switching(ring|star,period=60.0)",
        ):
            spec = parse_topology(text)
            assert parse_topology(spec.canonical()) == spec

    def test_whitespace_and_defaults(self):
        assert parse_topology(" tree( b = 2 ) ") == parse_topology("tree(b=2)")
        assert parse_topology("tree") == parse_topology("tree(b=2)")
        assert parse_topology("erdos_renyi").p == 0.5

    def test_parse_errors(self):
        for bad in (
            "",
            "mesh",
            "tree(b=0)",
            "erdos_renyi(p=1.5)",
            "erdos_renyi(q=0.5)",
            "switching(ring)",
            "switching(ring|star,period=0)",
            "switching(ring|star,period=nan)",
            "switching(ring|switching(star|ring,period=5),period=5)",
            "ring(",
            "tree(b=two)",
        ):
            with pytest.raises(ValueError):
                parse_topology(bad)

    def test_ensure_spec_accepts_both_forms(self):
        spec = parse_topology("ring")
        assert ensure_spec(spec) is spec
        assert ensure_spec("ring") == spec

    def test_graph_generation_is_deterministic(self):
        def reference(spec, n):
            # One LehmerGenerator.random() draw per pair, lexicographic.
            draws = _er_generator(spec.seed, n)
            nbrs = [set() for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    if draws.random() < spec.p:
                        nbrs[u].add(v)
                        nbrs[v].add(u)
            return tuple(frozenset(x) for x in nbrs)

        gen = CaseGen(11)
        for _ in range(20):
            p = round(gen.uniform(0.1, 0.9), 3)
            seed = gen.randint(1, 500)
            n = gen.randint(2, 24)
            spec = parse_topology(f"erdos_renyi(p={p},seed={seed})")
            assert adjacency(spec, n) == adjacency(spec, n) == reference(spec, n)
        for seed, n, p in ((1, 96, 0.12), (7, 128, 0.12), (2**40, 40, 0.3),
                           (3, 1, 0.5), (5, 30, 0.0), (5, 30, 1.0)):
            spec = parse_topology(f"erdos_renyi(p={p},seed={seed})")
            assert adjacency(spec, n) == reference(spec, n)
        a = adjacency(parse_topology("erdos_renyi(p=0.5,seed=1)"), 12)
        b = adjacency(parse_topology("erdos_renyi(p=0.5,seed=2)"), 12)
        assert a != b

    def test_tree_size(self):
        assert [tree_size(2, d) for d in range(4)] == [1, 3, 7, 15]


class TestAdjacencyShape:
    """The compiled kernel's join test scans the joiner's own CSR row,
    while ``advance_coupled`` asks each cascade member's row.  The two
    agree only on undirected graphs, so every generated graph, and
    every phase of a switching schedule, must be symmetric and
    loop-free."""

    def test_every_phase_is_symmetric_and_loop_free(self):
        gen = CaseGen(5)
        specs = [
            "clique",
            "ring",
            "star",
            "tree(b=1)",
            "tree(b=2)",
            "tree(b=3)",
            "switching(ring|star|tree(b=2),period=30.0)",
            "switching(clique|erdos_renyi(p=0.3,seed=2),period=5.0)",
        ] + [
            f"erdos_renyi(p={round(gen.uniform(0.05, 0.95), 3)},"
            f"seed={gen.randint(1, 99)})"
            for _ in range(6)
        ]
        kinds = set()
        for text in specs:
            spec = parse_topology(text)
            kinds.add(spec.kind)
            for n in (1, 2, 3, 5, 12, 33):
                phases = Coupling(spec, n).phases
                assert len(phases) == (len(spec.phases) if spec.time_varying else 1)
                for adj in phases:
                    assert len(adj) == n
                    for u, nbrs in enumerate(adj):
                        assert u not in nbrs, (text, n, u)
                        for v in nbrs:
                            assert 0 <= v < n and u in adj[v], (text, n, u, v)
        assert kinds == set(KINDS)


class TestGraphMetrics:
    def test_ring_diameter_monotone_in_n(self):
        spec = parse_topology("ring")
        diameters = [diameter(adjacency(spec, n)) for n in range(3, 16)]
        assert diameters == sorted(diameters)
        assert diameters[0] == 1  # a 3-ring is complete
        assert diameters[-1] == 7
        clique = parse_topology("clique")
        assert all(
            diameter(adjacency(clique, n)) == 1 for n in range(2, 16)
        )

    def test_star_and_tree_diameters(self):
        star = parse_topology("star")
        assert diameter(adjacency(star, 8)) == 2
        tree = parse_topology("tree(b=2)")
        assert diameter(adjacency(tree, 7)) == 4  # leaf -> root -> leaf

    def test_disconnected_diameter_is_none(self):
        adj = adjacency(parse_topology("erdos_renyi(p=0.0)"), 5)
        assert diameter(adj) is None
        assert len(components(adj)) == 5

    def test_mean_degree(self):
        assert mean_degree(adjacency(parse_topology("ring"), 10)) == 2.0
        assert mean_degree(adjacency(parse_topology("clique"), 10)) == 9.0


class TestKernelCliqueCollapse:
    def test_forced_kernel_on_complete_graph_matches_fast_path(self):
        """The adjacency test on a clique IS the paper's rule: a real
        complete coupling equals the ``coupling=None`` shortcut."""
        gen = CaseGen(23)
        for _ in range(6):
            n = gen.randint(2, 10)
            tc = round(gen.uniform(0.05, 1.5), 3)
            tr = round(gen.uniform(0.0, 3.0), 3)
            seed = gen.randint(1, 10_000)
            params = RouterTimingParameters(n, 20.0, tc, tr)
            forced = CascadeModel(params, seed=seed, keep_cluster_history=True)
            forced._coupling = Coupling("clique", n)  # force the adjacency test
            baseline = CascadeModel(
                params, seed=seed, keep_cluster_history=True
            )
            horizon = 40.0 * (20.0 + tc)
            forced.run(horizon)
            baseline.run(horizon)
            assert _trace(forced) == _trace(baseline), (n, tc, tr, seed)

    def test_forced_kernel_respects_stop_conditions(self):
        params = RouterTimingParameters(6, 20.0, 0.5, 0.4)
        forced = CascadeModel(params, seed=3)
        forced._coupling = Coupling("clique", 6)
        baseline = CascadeModel(params, seed=3)
        horizon = 1e6
        assert forced.run(horizon, stop_on_full_sync=True) == baseline.run(
            horizon, stop_on_full_sync=True
        )
        assert forced.synchronization_time == baseline.synchronization_time


class TestNoSyncSmoke:
    def test_star_leaves_do_not_sync_with_tiny_tc(self):
        # Tc far below the lock threshold: cascades stay local, the
        # full network never resets together.
        params = RouterTimingParameters(8, 20.0, 0.01, 2.0)
        model = CascadeModel(params, seed=1, topology="star")
        model.run(4e4)
        assert model.synchronization_time is None

    def test_tree_leaves_do_not_sync_with_tiny_tc(self):
        params = RouterTimingParameters(7, 20.0, 0.01, 2.0)
        model = CascadeModel(params, seed=1, topology="tree(b=2)")
        model.run(4e4)
        assert model.synchronization_time is None


class TestDisconnected:
    def test_components_never_co_synchronize(self):
        gen = CaseGen(31)
        for _ in range(5):
            n = gen.randint(4, 12)
            seed = gen.randint(1, 9999)
            spec = parse_topology("erdos_renyi(p=0.12,seed=5)")
            comps = components(adjacency(spec, n))
            if len(comps) < 2:
                continue
            comp_of = {}
            for index, comp in enumerate(comps):
                for node in comp:
                    comp_of[node] = index
            model = CascadeModel(
                RouterTimingParameters(n, 20.0, 1.0, 2.0),
                seed=seed,
                topology=spec,
            )
            # A cascade's members all reset at its close time, so the
            # resets at one time are one cascade's members.
            resets = {}
            record = model.tracker.record_reset

            def recording(time, node, _record=record):
                resets.setdefault(time, []).append(node)
                _record(time, node)

            model.tracker.record_reset = recording
            model.run(5000.0)
            assert model.synchronization_time is None
            assert resets, "expected cascades"
            for group in resets.values():
                assert len({comp_of[node] for node in group}) == 1, (
                    "a cascade spanned two components"
                )

    def test_isolated_nodes_only_solo_cascades(self):
        params = RouterTimingParameters(6, 20.0, 1.0, 2.0)
        model = CascadeModel(params, seed=2, topology="erdos_renyi(p=0.0)")
        model.run(3000.0)
        assert max(model.tracker.round_largest, default=1) == 1


class TestSwitching:
    def test_switching_deterministic_per_seed(self):
        params = RouterTimingParameters(7, 20.0, 0.5, 2.0)
        runs = [
            CascadeModel(
                params, seed=9, topology="switching(ring|star,period=45.0)"
            )
            for _ in range(2)
        ]
        for model in runs:
            model.run(4000.0)
        assert _trace(runs[0]) == _trace(runs[1])

    def test_switching_differs_from_static_phase(self):
        params = RouterTimingParameters(7, 20.0, 0.5, 2.0)
        switching = CascadeModel(
            params, seed=9, topology="switching(ring|star,period=45.0)"
        )
        ring = CascadeModel(params, seed=9, topology="ring")
        switching.run(4000.0)
        ring.run(4000.0)
        assert _trace(switching) != _trace(ring)

    def test_schedule_phase_boundaries(self):
        coupling = Coupling("switching(ring|star,period=10.0)", 6)
        ring_adj = adjacency(parse_topology("ring"), 6)
        star_adj = adjacency(parse_topology("star"), 6)
        assert coupling.adjacency_at(0.0) == ring_adj
        assert coupling.adjacency_at(9.999) == ring_adj
        assert coupling.adjacency_at(10.0) == star_adj
        assert coupling.adjacency_at(20.0) == ring_adj

    def test_all_complete_phases_dispatch_to_fast_path(self):
        spec = parse_topology("switching(clique|clique,period=10.0)")
        assert Coupling(spec, 9).is_complete
        params = RouterTimingParameters(9, 20.0, 0.3, 1.0)
        a = CascadeModel(params, seed=4, topology=spec)
        b = CascadeModel(params, seed=4)
        a.run(2000.0)
        b.run(2000.0)
        assert _trace(a) == _trace(b)


class TestJobIntegration:
    def test_clique_cache_key_is_unchanged(self):
        job = SimulationJob(6, 20.0, 0.5, 2.0, 3, 1000.0)
        assert "topology" not in job.to_dict()
        explicit = SimulationJob(6, 20.0, 0.5, 2.0, 3, 1000.0, topology="clique")
        assert explicit.cache_key() == job.cache_key()

    def test_topology_normalizes_and_keys(self):
        job = SimulationJob(
            6, 20.0, 0.5, 2.0, 3, 1000.0, topology=" tree( b = 2 ) "
        )
        assert job.topology == "tree(b=2)"
        assert job.to_dict()["topology"] == "tree(b=2)"
        assert SimulationJob.from_dict(job.to_dict()) == job
        assert job.cache_key() != SimulationJob(
            6, 20.0, 0.5, 2.0, 3, 1000.0
        ).cache_key()

    def test_group_key_separates_topologies(self):
        a = SimulationJob(6, 20.0, 0.5, 2.0, 1, 1000.0, engine="batch")
        b = SimulationJob(
            6, 20.0, 0.5, 2.0, 2, 1000.0, engine="batch", topology="ring"
        )
        assert batch_group_key(a) != batch_group_key(b)

    def test_des_rejects_sparse_topology(self):
        with pytest.raises(ValueError, match="des"):
            SimulationJob(
                6, 20.0, 0.5, 2.0, 1, 1000.0, engine="des", topology="ring"
            )
        # ...but allows couplings that generate a complete graph.
        SimulationJob(
            3, 20.0, 0.5, 2.0, 1, 1000.0, engine="des", topology="ring"
        )

    def test_invalid_topology_rejected(self):
        with pytest.raises(ValueError):
            SimulationJob(6, 20.0, 0.5, 2.0, 1, 1000.0, topology="mesh")


class TestBatchTopologyViews:
    def test_member_views_match_cascade_model(self):
        """Batch members on a sparse coupling report what CascadeModel
        reports.  The views are tracker-backed on the python backend
        only; the compiled backend unpacks its C state into them."""
        params = RouterTimingParameters(6, 20.0, 0.5, 2.0)
        batch = BatchCascade(params, [1, 2], topology="ring")
        batch.run(2000.0)
        solo = CascadeModel(params, seed=2, topology="ring")
        solo.run(2000.0)
        member = batch.members[1]
        assert member.first_time_at_least == dict(
            solo.tracker.first_time_at_least
        )
        assert member.synchronization_time == solo.synchronization_time
        assert member.total_resets == solo.tracker.total_resets

    def test_spec_object_and_string_agree(self):
        params = RouterTimingParameters(6, 20.0, 0.5, 2.0)
        spec = TopologySpec(kind="ring")
        a = CascadeModel(params, seed=5, topology=spec)
        b = CascadeModel(params, seed=5, topology="ring")
        a.run(1500.0)
        b.run(1500.0)
        assert _trace(a) == _trace(b)
