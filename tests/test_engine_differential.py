"""Cross-engine differential matrix: des == cascade == batch, byte for byte.

Three entirely different programs claim to produce the *same
floating-point trajectory* from the same seed: the discrete-event
queue, the cascade-rule heap (run by ``CascadeModel`` and, per member,
by the batch python backend), and the compiled C kernel.  This module is
the single place that claim is enforced — a parametrized grid over
(N, Tp, Tc, Tr) x initial phases x censoring, comparing first-passage
times, cluster histories, round series, and the *consumed positions of
every RNG stream* with ``==``, never ``approx``.

The ad-hoc pairwise DES/cascade checks that used to live in
``test_core_fastsim.py`` are superseded by this matrix.
"""

import os

import pytest

from repro.core import (
    BatchCascade,
    CascadeModel,
    ModelConfig,
    PeriodicMessagesModel,
    RouterTimingParameters,
)
from repro.core.batch import compiled_backend_available
from repro.rng import RandomSource

from tests._gen import CaseGen, model_cases

# The compiled backend joins the matrix automatically wherever it can
# build (numpy plus a system C compiler); CI exports
# REPRO_EXPECT_COMPILED=1, which keeps the compiled column even when the
# kernel cannot build, so every row that runs it fails loudly instead
# of the matrix silently shrinking.
HAVE_COMPILED = compiled_backend_available()
EXPECT_COMPILED = os.environ.get("REPRO_EXPECT_COMPILED", "").strip() == "1"
#: The batch backends every matrix row runs through.
BACKENDS = ["python"] + (["compiled"] if HAVE_COMPILED or EXPECT_COMPILED else [])

#: (n_nodes, tp, tc, tr) — paper parameters plus corners: no jitter,
#: jitter past the Tc/2 lock threshold, and jitter wider than Tc.
GRID = [
    (5, 20.0, 0.11, 0.1),
    (8, 20.0, 0.3, 1.0),
    (3, 10.0, 0.05, 0.0),
    (6, 20.0, 0.5, 2.0),
    (20, 121.0, 0.11, 0.1),
]
PHASE_MODES = ["unsynchronized", "synchronized", "explicit"]
CENSORING = [False, True]


def _phases(mode, n, tp):
    """Resolve a phase mode to what the engine constructors accept."""
    if mode != "explicit":
        return mode
    gen = CaseGen(n)  # deterministic per-(n) explicit phases
    return [gen.uniform(0.0, tp) for _ in range(n)]


def _horizon(tp, tc):
    return 30.0 * (tp + tc)


def _stop_flags(phases, censor):
    """Censoring on = stop at the matching terminal cluster state."""
    if not censor:
        return {}
    if phases == "synchronized":
        return {"stop_on_full_unsync": True}
    return {"stop_on_full_sync": True}


def _trace(tracker, end, rng_states, phase_state):
    """Canonical comparison record for one engine run."""
    return {
        "end": end,
        "total_resets": tracker.total_resets,
        "first_at_least": dict(tracker.first_time_at_least),
        "first_at_most": dict(tracker.first_time_at_most),
        "round_times": list(tracker.round_times),
        "round_largest": list(tracker.round_largest),
        "groups": [(g.time, g.size) for g in tracker.groups],
        "sync_time": tracker.synchronization_time,
        "breakup_time": tracker.breakup_time,
        "rng_states": rng_states,
        "phase_state": phase_state,
    }


def run_des(params, seed, horizon, phases, stops):
    model = PeriodicMessagesModel(
        ModelConfig.from_parameters(params, seed=seed, keep_cluster_history=True),
        initial_phases=phases,
    )
    end = model.run(until=horizon, **stops)
    return _trace(
        model.tracker,
        end,
        [router.rng._gen.state for router in model.routers],
        model._phase_rng._gen.state,
    )


def run_cascade(params, seed, horizon, phases, stops):
    model = CascadeModel(
        params, seed=seed, initial_phases=phases, keep_cluster_history=True
    )
    end = model.run(until=horizon, **stops)
    # CascadeModel does not retain its phase stream after __init__;
    # the batch kernel's phase_rng_state is checked against DES.
    return _trace(
        model.tracker, end, model._batch.rng_states(0), None
    )


def run_batch(params, seed, horizon, phases, stops, backend):
    batch = BatchCascade(
        params,
        [seed],
        initial_phases=phases,
        keep_cluster_history=True,
        backend=backend,
    )
    ends = batch.run(until=horizon, **stops)
    return _trace(
        batch.members[0], ends[0], batch.rng_states(0), batch.phase_rng_state(0)
    )


def assert_matrix_identical(params, seed, horizon, phases, stops):
    """Run every engine and compare the full traces with ``==``."""
    des = run_des(params, seed, horizon, phases, stops)
    cascade = run_cascade(params, seed, horizon, phases, stops)
    rows = {"cascade": cascade}
    for backend in BACKENDS:
        rows[f"batch-{backend}"] = run_batch(
            params, seed, horizon, phases, stops, backend
        )
    for name, row in rows.items():
        for field in des:
            if field == "phase_state" and name == "cascade":
                continue
            assert row[field] == des[field], (
                f"{name} differs from des on {field!r} "
                f"(params={params}, seed={seed}, phases={phases}, stops={stops})"
            )
    return des


@pytest.mark.parametrize("censor", CENSORING)
@pytest.mark.parametrize("mode", PHASE_MODES)
@pytest.mark.parametrize("n,tp,tc,tr", GRID)
def test_engine_matrix(n, tp, tc, tr, mode, censor):
    params = RouterTimingParameters(n_nodes=n, tp=tp, tc=tc, tr=tr)
    phases = _phases(mode, n, tp)
    for seed in (1, 7):
        assert_matrix_identical(
            params, seed, _horizon(tp, tc), phases, _stop_flags(phases, censor)
        )


def test_engine_matrix_fuzz():
    """Seeded fuzz over the parameter space (see tests/_gen.py)."""
    for n, tc, tr, seed, phases in model_cases(seed=2026, count=15):
        params = RouterTimingParameters(n_nodes=n, tp=20.0, tc=tc, tr=tr)
        assert_matrix_identical(params, seed, _horizon(20.0, tc), phases, {})


def test_batch_members_match_singletons():
    """A multi-member batch equals per-seed singleton batches."""
    params = RouterTimingParameters(n_nodes=6, tp=20.0, tc=0.11, tr=0.3)
    seeds = [1, 2, 3, 9, 40]
    pooled = BatchCascade(params, seeds, keep_cluster_history=True)
    pooled.run(until=2000.0)
    for k, seed in enumerate(seeds):
        solo = BatchCascade(params, [seed], keep_cluster_history=True)
        solo.run(until=2000.0)
        assert pooled.members[k].first_time_at_least == (
            solo.members[0].first_time_at_least
        )
        assert pooled.members[k].round_times == solo.members[0].round_times
        assert pooled.rng_states(k) == solo.rng_states(0)


def test_batch_backends_identical_mid_run():
    """Backends agree not just at the end but across resumed horizons."""
    if not HAVE_COMPILED:
        pytest.skip("compiled backend unavailable")
    params = RouterTimingParameters(n_nodes=8, tp=20.0, tc=0.3, tr=1.0)
    py = BatchCascade(params, [5, 6], backend="python")
    compiled = BatchCascade(params, [5, 6], backend="compiled")
    for horizon in (500.0, 1500.0, 4000.0):
        ends = py.run(until=horizon)
        assert compiled.run(until=horizon) == ends
        for k in range(2):
            assert py.rng_states(k) == compiled.rng_states(k)
            assert py.members[k].round_times == compiled.members[k].round_times


# -- the compiled kernel's pending ring -------------------------------
#
# The C kernel keeps the pending expiries in a ring sorted by
# ``(expiry, node)``: a join pops its head, a redraw walks back from
# its tail, and the ring is rebuilt from the expiries before every
# call.  These rows aim at that ring: re-entries with cascades open,
# exact ties, redraws that land among the pending expiries, and (in
# the resume test below) resumed horizons on the dense path.

#: The Fig-10 (up) and Fig-11 (down) points to 1e5 s with cluster
#: history.  The group series outgrows the compiled backend's 64-slot
#: group buffer many times over, and the kernel returns
#: ``STATUS_GROUPS_FULL`` just before a close, with that cascade still
#: open (all 20 members once synchronized).
FIG10_ROWS = [(0.1, "unsynchronized"), (0.3, "synchronized")]


@pytest.mark.parametrize("censor", CENSORING)
@pytest.mark.parametrize("tr,phases", FIG10_ROWS)
def test_fig10_long_horizon_rows_reenter_with_cascades_open(tr, phases, censor):
    params = RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=tr)
    for seed in (1, 2):
        des = assert_matrix_identical(
            params, seed, 1e5, phases, _stop_flags(phases, censor)
        )
        assert len(des["round_times"]) > 64
        assert len(des["groups"]) > 64


#: Exact ties: with Tr = 0 every member of a cascade redraws the same
#: expiry, so the node id orders them; synchronized starts and explicit
#: phases with repeated values tie from time zero.  Each row outgrows
#: the 64-slot group buffer, so ties also meet the ring's rebuild.
TIE_ROWS = [
    (6, 20.0, 0.3, 0.0, "synchronized"),
    (8, 20.0, 0.3, 0.0, "unsynchronized"),
    (12, 20.0, 0.11, 0.0,
     [0.0, 0.0, 5.0, 5.0, 2.5, 0.0, 19.0, 5.0, 2.5, 2.5, 0.0, 19.0]),
    (7, 20.0, 0.5, 0.5, [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0]),
]

#: Wide jitter: Tr = Tp/2 and Tr = Tp.  At Tr = Tp the interval's low
#: end is 0, so a redraw can land at (or next to) the close time, ahead
#: of most pending expiries, and the ring's walk from the tail is long.
WIDE_ROWS = [
    (6, 20.0, 0.3, 10.0, "unsynchronized"),
    (6, 20.0, 0.3, 20.0, "synchronized"),
    (20, 121.0, 0.11, 60.5, "unsynchronized"),
    (20, 121.0, 0.11, 121.0, "synchronized"),
]


@pytest.mark.parametrize("n,tp,tc,tr,phases", TIE_ROWS + WIDE_ROWS)
def test_ring_tie_and_wide_jitter_rows(n, tp, tc, tr, phases):
    params = RouterTimingParameters(n_nodes=n, tp=tp, tc=tc, tr=tr)
    horizon = 100.0 * tp
    for seed in (1, 7):
        des = assert_matrix_identical(params, seed, horizon, phases, {})
        assert len(des["round_times"]) > 64
        reference = run_cascade_topo(params, seed, horizon, phases, {}, "ring")
        for backend in BACKENDS:
            row = run_batch_topo(
                params, seed, horizon, phases, {}, backend, "ring"
            )
            assert _drop_phase(row) == _drop_phase(reference), (backend, seed)


def run_cascade_topo(params, seed, horizon, phases, stops, topology):
    model = CascadeModel(
        params, seed=seed, initial_phases=phases,
        keep_cluster_history=True, topology=topology,
    )
    end = model.run(until=horizon, **stops)
    return _trace(
        model.tracker, end, model._batch.rng_states(0), None
    )


def run_batch_topo(params, seed, horizon, phases, stops, backend, topology):
    batch = BatchCascade(
        params,
        [seed],
        initial_phases=phases,
        keep_cluster_history=True,
        backend=backend,
        topology=topology,
    )
    ends = batch.run(until=horizon, **stops)
    return _trace(
        batch.members[0], ends[0], batch.rng_states(0), batch.phase_rng_state(0)
    )


def _drop_phase(row):
    """Trace minus ``phase_state`` (cascade retains no phase stream)."""
    return {key: value for key, value in row.items() if key != "phase_state"}


#: Couplings whose generated graph is complete for the GRID sizes —
#: these must be byte-identical to the untouched engines, consumed-RNG
#: positions included (the cache-key-preservation guarantee).
COMPLETE_TOPOLOGIES = ["clique", "erdos_renyi(p=1.0)", "switching(clique|clique,period=40.0)"]

#: Non-complete couplings: no des reference exists, so the axis checks
#: cascade == batch across every backend instead.
SPARSE_TOPOLOGIES = ["ring", "star", "tree(b=2)", "erdos_renyi(p=0.45,seed=3)",
                     "switching(ring|star,period=45.0)"]


@pytest.mark.parametrize("topology", COMPLETE_TOPOLOGIES)
@pytest.mark.parametrize("mode", PHASE_MODES)
@pytest.mark.parametrize("n,tp,tc,tr", GRID[:3])
def test_complete_topology_is_byte_identical_to_clique_engines(
    n, tp, tc, tr, mode, topology
):
    """A complete coupling must not perturb the existing engines at all:
    every row equals the DES, the independent engine."""
    params = RouterTimingParameters(n_nodes=n, tp=tp, tc=tc, tr=tr)
    phases = _phases(mode, n, tp)
    horizon = _horizon(tp, tc)
    for seed in (1, 7):
        des = run_des(params, seed, horizon, phases, {})
        topo = run_cascade_topo(params, seed, horizon, phases, {}, topology)
        assert _drop_phase(topo) == _drop_phase(des)
        for backend in BACKENDS:
            row = run_batch_topo(
                params, seed, horizon, phases, {}, backend, topology
            )
            assert row == des, backend


@pytest.mark.parametrize("censor", CENSORING)
@pytest.mark.parametrize("topology", SPARSE_TOPOLOGIES)
def test_sparse_topology_cascade_equals_batch(topology, censor):
    """On non-clique graphs cascade and every batch backend agree with ==."""
    for n, tp, tc, tr in [(6, 20.0, 0.5, 2.0), (8, 20.0, 0.3, 1.0)]:
        params = RouterTimingParameters(n_nodes=n, tp=tp, tc=tc, tr=tr)
        horizon = _horizon(tp, tc)
        for mode in ("unsynchronized", "synchronized"):
            stops = _stop_flags(mode, censor)
            for seed in (1, 7):
                reference = run_cascade_topo(
                    params, seed, horizon, mode, stops, topology
                )
                for backend in BACKENDS:
                    row = run_batch_topo(
                        params, seed, horizon, mode, stops, backend, topology
                    )
                    assert _drop_phase(row) == _drop_phase(reference), (
                        backend, seed, mode,
                    )


def test_sparse_topology_fuzz():
    """Seeded fuzz: cascade == batch on generated sparse couplings."""
    gen = CaseGen(777)
    for n, tc, tr, seed, phases in model_cases(seed=404, count=8):
        if n < 4:
            continue
        topology = gen.choice(
            ["ring", "tree(b=2)", f"erdos_renyi(p=0.5,seed={gen.randint(1, 9)})"]
        )
        params = RouterTimingParameters(n_nodes=n, tp=20.0, tc=tc, tr=tr)
        horizon = _horizon(20.0, tc)
        reference = run_cascade_topo(params, seed, horizon, phases, {}, topology)
        for backend in BACKENDS:
            row = run_batch_topo(
                params, seed, horizon, phases, {}, backend, topology
            )
            assert _drop_phase(row) == _drop_phase(reference), (topology, backend)


#: fig16-sized sparse rows at the fig16 point (Tp=20, Tc=2, Tr=1).  The
#: horizons grow each group series past the compiled backend's initial
#: 64-slot buffer, so its grow-and-replay return runs with cascades open.
FIG16_ROWS = [("tree(b=2)", 20, 3000.0), ("erdos_renyi(p=0.12,seed=1)", 96, 16000.0)]


@pytest.mark.parametrize("topology,n,horizon", FIG16_ROWS)
def test_fig16_sized_sparse_topology_rows(topology, n, horizon):
    params = RouterTimingParameters(n_nodes=n, tp=20.0, tc=2.0, tr=1.0)
    for seed in (1, 7):
        reference = run_cascade_topo(
            params, seed, horizon, "unsynchronized", {}, topology
        )
        assert len(reference["round_times"]) > 64
        for backend in BACKENDS:
            row = run_batch_topo(
                params, seed, horizon, "unsynchronized", {}, backend, topology
            )
            assert _drop_phase(row) == _drop_phase(reference), (backend, seed)


def test_sparse_topology_tolerance_merged_closes():
    """Closes of separate cascades within the reset tolerance merge into
    one group timed by its first reset, and a later close is measured
    against that first time, not the latest merged one."""
    params = RouterTimingParameters(n_nodes=3, tp=20.0, tc=0.5, tr=1.0)
    phases = [0.0, 5e-8, 1.2e-7]  # three cascades: no edges
    reference = run_cascade_topo(
        params, 1, 100.0, phases, {}, "erdos_renyi(p=0.0)"
    )
    assert reference["groups"][:2] == [(0.5, 2), (0.5 + 1.2e-7, 1)]
    for backend in BACKENDS:
        row = run_batch_topo(
            params, 1, 100.0, phases, {}, backend, "erdos_renyi(p=0.0)"
        )
        assert _drop_phase(row) == _drop_phase(reference), backend


def _pending(batch):
    """Member 0's pending ``(expiry_time, node)`` pairs, sorted."""
    if batch._cstate is not None:
        return sorted((float(e), i) for i, e in enumerate(batch._cstate[0].expiry))
    return sorted(batch._heaps[0])


def test_exact_tie_closes_resolve_in_creation_order():
    """Two cascades closing at the same instant close in creation
    order, and a stop after the first leaves the second open.

    With no edges, nodes 1 and 2 (both expiring at 5.0) open separate
    cascades that both close at 5.1.  Node 1's opened first, so it
    closes first; that close completes a window of three lone resets
    and the unsync stop fires before node 2's cascade closes: node 2's
    stream is untouched and its expiry is still pending."""
    params = RouterTimingParameters(n_nodes=3, tp=4.0, tc=0.1, tr=0.0)
    phases = [0.0, 5.0, 5.0]
    topology = "erdos_renyi(p=0.0)"
    stops = {"stop_on_full_unsync": True}
    master = RandomSource(seed=1)  # CascadeModel's stream derivation
    streams = [master.spawn(i) for i in range(3)]
    untouched = [rng._gen.state for rng in streams]
    streams[1].uniform(4.0, 4.0)
    one_draw = streams[1]._gen.state

    model = CascadeModel(params, seed=1, initial_phases=phases, topology=topology)
    assert model.run(100.0, **stops) == 5.0 + 0.1
    states = model._batch.rng_states(0)
    assert states[1] == one_draw
    assert states[2] == untouched[2]
    assert (5.0, 2) in model._batch._heaps[0]
    for backend in BACKENDS:
        batch = BatchCascade(
            params, [1], initial_phases=phases, backend=backend, topology=topology
        )
        assert batch.run(100.0, **stops) == [5.0 + 0.1], backend
        assert batch.rng_states(0) == states, backend
        assert (5.0, 2) in _pending(batch), backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_sparse_topology_scalar_loop_runs_only_on_python_backend(monkeypatch, backend):
    """The compiled backend runs sparse couplings in C: the scalar
    :func:`repro.topo.advance_coupled` is never reached there."""
    import repro.topo

    def refuse(*args, **kwargs):
        raise AssertionError("scalar advance_coupled reached")

    monkeypatch.setattr(repro.topo, "advance_coupled", refuse)
    params = RouterTimingParameters(n_nodes=8, tp=20.0, tc=0.3, tr=1.0)
    batch = BatchCascade(params, [1, 2], topology="ring", backend=backend)
    if backend == "python":
        with pytest.raises(AssertionError, match="scalar advance_coupled"):
            batch.run(until=500.0)
    else:
        batch.run(until=500.0)
        assert all(member.total_resets > 0 for member in batch.members)


def test_sparse_topology_tiny_switching_period_matches_cascade_model():
    """A switching period so small that ``int(t / period)`` is past
    int64 still picks the phase Python's integers pick: the quotient is
    a whole number there, and the kernel takes its remainder exactly."""
    params = RouterTimingParameters(n_nodes=8, tp=20.0, tc=0.3, tr=1.0)
    for period in ("1e-300", "3e-30"):
        topology = f"switching(ring|star|tree(b=2),period={period})"
        reference = run_cascade_topo(
            params, 5, 2000.0, "synchronized", {}, topology
        )
        for backend in BACKENDS:
            row = run_batch_topo(
                params, 5, 2000.0, "synchronized", {}, backend, topology
            )
            assert _drop_phase(row) == _drop_phase(reference), (period, backend)


def test_sparse_topology_infinite_phase_index_overflows_on_every_backend():
    """``t / period`` overflowing to infinity raises OverflowError on
    every engine, as ``int(inf)`` does in ``Coupling.adjacency_at``."""
    params = RouterTimingParameters(n_nodes=8, tp=20.0, tc=0.3, tr=1.0)
    topology = "switching(ring|star,period=1e-320)"
    with pytest.raises(OverflowError):
        CascadeModel(params, seed=1, topology=topology).run(until=500.0)
    for backend in BACKENDS:
        batch = BatchCascade(params, [1], topology=topology, backend=backend)
        with pytest.raises(OverflowError):
            batch.run(until=500.0)


@pytest.mark.parametrize("topology", ["clique", "ring", "switching(ring|star,period=45.0)"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_topology_nan_horizon_advances_nothing(backend, topology):
    """``run(until=nan)`` returns without advancing, on every backend
    as in CascadeModel (no comparison with NaN holds), and a later
    finite horizon runs from the untouched state."""
    params = RouterTimingParameters(n_nodes=8, tp=20.0, tc=0.3, tr=1.0)
    batch = BatchCascade(
        params, [1, 2], topology=topology, keep_cluster_history=True,
        backend=backend,
    )
    assert batch.run(until=float("nan")) == [0.0, 0.0]
    assert [m.total_resets for m in batch.members] == [0, 0]
    ends = batch.run(until=900.0)
    for k, seed in enumerate([1, 2]):
        model = CascadeModel(
            params, seed=seed, keep_cluster_history=True, topology=topology
        )
        model_ends = [model.run(until=h) for h in (float("nan"), 900.0)]
        reference = _trace(
            model.tracker, model_ends, model._batch.rng_states(0),
            None,
        )
        row = _trace(
            batch.members[k], [0.0, ends[k]], batch.rng_states(k), None
        )
        assert row == reference, (backend, seed)


@pytest.mark.parametrize("engine", ["des", "cascade", "batch"])
def test_nan_horizon_advances_nothing_on_every_engine(engine):
    """The library helpers still take a NaN horizon, and it runs
    nothing on any engine (no time is ``<= nan``), so the run is
    censored; a finite horizon then agrees across engines."""
    from repro.core.sweeps import time_to_synchronize

    params = RouterTimingParameters(6, 20.0, 0.3, 0.1)
    assert time_to_synchronize(params, float("nan"), seed=2, engine=engine) is None
    assert time_to_synchronize(params, 2000.0, seed=2, engine=engine) == (
        time_to_synchronize(params, 2000.0, seed=2, engine="cascade")
    )


def test_des_nan_horizon_then_finite_horizon_matches_a_single_run():
    config = ModelConfig.from_parameters(
        RouterTimingParameters(6, 20.0, 0.3, 0.1), seed=2
    )
    paused = PeriodicMessagesModel(config)
    paused.run(until=float("nan"))
    assert paused.sim.now == 0.0 and paused.tracker.total_resets == 0
    paused.run(until=900.0)
    single = PeriodicMessagesModel(config)
    single.run(until=900.0)
    assert paused.tracker.round_times == single.tracker.round_times
    assert paused.tracker.first_time_at_least == single.tracker.first_time_at_least


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0, 0.0])
def test_topology_job_rejects_non_finite_horizon(horizon):
    """Jobs and campaigns refuse a horizon that is not a positive
    finite number before any engine sees it."""
    from repro.campaign.spec import CampaignSpec
    from repro.parallel.job import SimulationJob

    with pytest.raises(ValueError, match="horizon"):
        SimulationJob(
            n_nodes=8, tp=20.0, tc=0.3, tr=1.0, seed=1, horizon=horizon,
            engine="batch", topology="ring",
        )
    with pytest.raises(ValueError, match="horizon"):
        CampaignSpec(
            name="nan", n_nodes=[8], tp=[20.0], tc=[0.3], tr=[1.0],
            seed_count=1, horizon=horizon, engine="batch", topology="ring",
        )


#: One horizon of the resume plan carries a stop flag that fires for
#: both seeds; a stop only pauses a member, so the later horizons pick
#: up where it stopped.
RESUME_PLAN = [(300.0, {}), (900.0, {"stop_on_full_unsync": True}), (2400.0, {})]


@pytest.mark.parametrize(
    "topology", ["clique", "ring", "switching(ring|star,period=45.0)"]
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_topology_batch_resume_matches_single_run(backend, topology):
    """Batches resume across horizons and stops: each member equals
    CascadeModel run through the same plan (and the DES, on the dense
    path), and the single-call run on the quantities a pause cannot
    change."""
    params = RouterTimingParameters(n_nodes=7, tp=20.0, tc=0.5, tr=2.0)
    seeds = [3, 4]
    split = BatchCascade(
        params, seeds, topology=topology, keep_cluster_history=True,
        backend=backend,
    )
    whole = BatchCascade(
        params, seeds, topology=topology, keep_cluster_history=True,
        backend=backend,
    )
    ends = [split.run(until=h, **stops) for h, stops in RESUME_PLAN]
    whole.run(until=2400.0)
    for k, seed in enumerate(seeds):
        model = CascadeModel(
            params, seed=seed, keep_cluster_history=True, topology=topology
        )
        model_ends = [model.run(until=h, **stops) for h, stops in RESUME_PLAN]
        assert model_ends[1] < 900.0  # the stop fired
        reference = _trace(
            model.tracker, model_ends, model._batch.rng_states(0),
            None,
        )
        row = _trace(
            split.members[k], [e[k] for e in ends], split.rng_states(k), None
        )
        assert row == reference, (backend, seed)
        if topology == "clique":
            des = PeriodicMessagesModel(
                ModelConfig.from_parameters(
                    params, seed=seed, keep_cluster_history=True
                ),
            )
            des_ends = [des.run(until=h, **stops) for h, stops in RESUME_PLAN]
            assert _trace(
                des.tracker, des_ends, [r.rng._gen.state for r in des.routers],
                None,
            ) == reference, seed
        assert split.rng_states(k) == whole.rng_states(k)
        assert split.members[k].round_times == whole.members[k].round_times
        assert split.members[k].first_time_at_least == (
            whole.members[k].first_time_at_least
        )


def test_compiled_backend_present_when_required():
    """CI with a compiler must actually test the compiled path.

    REPRO_EXPECT_COMPILED=1 turns "backend could not be resolved"
    from a silent matrix shrink into a hard failure.
    """
    if not EXPECT_COMPILED:
        pytest.skip("REPRO_EXPECT_COMPILED not set")
    assert HAVE_COMPILED, "REPRO_EXPECT_COMPILED=1 but the C kernel could not be resolved"


#: Seeds that ``_validate_seed`` folds: zero, negatives, the modulus
#: and its neighbours, and values far past it.  Jobs do not validate
#: seeds, so any of these can arrive from a request body, the CLI or a
#: campaign spec.
EDGE_SEEDS = [0, -5, 2**31 - 2, 2**31 - 1, 2**31, 10**20, -(2**40)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_edge_seed_stream_derivation_replays_spawn(backend):
    """BatchCascade's inline ``spawn()`` replay, the one stream
    derivation of the cascade engines, equals ``RandomSource``'s at
    folding seeds: each member's router streams (``spawn(i)``), its
    phase stream (``spawn(n + 1)``, after the phase draws) and its
    initial expiries, read from the state the backend runs on."""
    params = RouterTimingParameters(n_nodes=5, tp=20.0, tc=0.3, tr=1.0)
    n = params.n_nodes
    batch = BatchCascade(params, EDGE_SEEDS, backend=backend)
    # Every phase is positive, so a zero horizon builds the backend's
    # state and advances nothing.
    assert batch.run(until=0.0) == [0.0] * len(EDGE_SEEDS)
    for k, seed in enumerate(EDGE_SEEDS):
        master = RandomSource(seed=seed)
        streams = [master.spawn(i) for i in range(n)]
        phase_rng = master.spawn(n + 1)
        phases = [phase_rng.uniform(0.0, params.tp) for _ in range(n)]
        assert batch.rng_states(k) == [r._gen.state for r in streams], seed
        assert batch.phase_rng_state(k) == phase_rng._gen.state, seed
        if backend == "python":
            expiries = [t for t, _node in sorted(batch._heaps[k], key=lambda e: e[1])]
        else:
            expiries = batch._cstate[k].expiry.tolist()
        assert expiries == phases, seed


#: (params, horizon) per coupling: the Fig-10 point on the clique and
#: the fig16 point on a ring.
ORACLE_CASES = {
    "clique": (RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=0.1), 2e4),
    "ring": (RouterTimingParameters(n_nodes=10, tp=20.0, tc=2.0, tr=1.0), 1e4),
}


@pytest.mark.parametrize("topology", sorted(ORACLE_CASES))
def test_cascade_oracle_independent_of_compiled_kernel(monkeypatch, topology):
    """``run_job(engine="cascade")`` and ``CascadeModel`` never reach
    the C kernel: with every compiled entry point made to raise they
    still finish, with the batch engine's answers from before the
    patch.  The benchmark's gates check the C kernel against the
    cascade engine, which must therefore stay the Python loop."""
    from dataclasses import replace

    from repro.core import _batch_kernel
    from repro.parallel.job import SimulationJob, run_job

    if EXPECT_COMPILED:
        assert HAVE_COMPILED
    params, horizon = ORACLE_CASES[topology]
    jobs = [
        SimulationJob.from_params(
            params, seed=seed, horizon=horizon, direction=direction,
            engine="batch", topology=topology,
        )
        for seed in (1, 2)
        for direction in ("up", "down")
    ]
    expected = [run_job(job) for job in jobs]  # on C wherever it builds

    def forbidden(*args, **kwargs):
        raise AssertionError("the compiled kernel ran")

    monkeypatch.setattr(_batch_kernel, "advance", forbidden)
    monkeypatch.setattr(_batch_kernel, "resolve_compiled", forbidden)
    if HAVE_COMPILED:  # the patch bites: the batch engine now fails
        with pytest.raises(AssertionError, match="compiled kernel ran"):
            run_job(jobs[0])
    for job, want in zip(jobs, expected):
        assert run_job(replace(job, engine="cascade")) == want, job
        up = job.direction == "up"
        model = CascadeModel(
            params, seed=job.seed, topology=topology,
            initial_phases="unsynchronized" if up else "synchronized",
        )
        model.run(job.horizon, stop_on_full_sync=up, stop_on_full_unsync=not up)
        tracker = model.tracker
        got = tracker.first_time_at_least if up else tracker.first_time_at_most
        assert got == want.first_passages, job


def test_round_buffer_cap_regrows_within_one_call():
    """A horizon of more than :data:`~repro.core.batch.ROUNDS_CAP_MAX`
    rounds starts the compiled round buffer at the cap, so a single
    run fills it and regrows mid-call."""
    from repro.core.batch import ROUNDS_CAP_MAX

    params = RouterTimingParameters(n_nodes=3, tp=1.0, tc=0.3, tr=0.2)
    horizon = 1.5 * ROUNDS_CAP_MAX * (params.tp + params.tr + params.tc)
    des = assert_matrix_identical(params, 5, horizon, "unsynchronized", {})
    assert len(des["round_times"]) > ROUNDS_CAP_MAX
