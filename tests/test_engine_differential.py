"""Cross-engine differential matrix: des == cascade == batch, byte for byte.

Three (four, counting both batch backends) entirely different programs
claim to produce the *same floating-point trajectory* from the same
seed: the discrete-event queue, the cascade-rule heap, the pure-Python
struct-of-arrays kernel, and its compiled C port.  This module is
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

from tests._gen import CaseGen, model_cases

# The compiled backend joins the matrix automatically wherever it can
# build (numpy plus a system C compiler); the tier-1 CI job exports
# REPRO_EXPECT_COMPILED=1 so "could not build" fails loudly there
# instead of silently shrinking the matrix.
HAVE_COMPILED = compiled_backend_available()
#: The batch backends every matrix row runs through.
BACKENDS = ["python"] + (["compiled"] if HAVE_COMPILED else [])
EXPECT_COMPILED = os.environ.get("REPRO_EXPECT_COMPILED", "").strip() == "1"

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
        model.tracker, end, [rng._gen.state for rng in model._rngs], None
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


def run_cascade_topo(params, seed, horizon, phases, stops, topology):
    model = CascadeModel(
        params, seed=seed, initial_phases=phases,
        keep_cluster_history=True, topology=topology,
    )
    end = model.run(until=horizon, **stops)
    return _trace(
        model.tracker, end, [rng._gen.state for rng in model._rngs], None
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
    """A complete coupling must not perturb the existing engines at all."""
    params = RouterTimingParameters(n_nodes=n, tp=tp, tc=tc, tr=tr)
    phases = _phases(mode, n, tp)
    horizon = _horizon(tp, tc)
    for seed in (1, 7):
        baseline = run_cascade(params, seed, horizon, phases, {})
        topo = run_cascade_topo(params, seed, horizon, phases, {}, topology)
        assert topo == baseline
        batch_baseline = run_batch(params, seed, horizon, phases, {}, "python")
        for backend in BACKENDS:
            row = run_batch_topo(
                params, seed, horizon, phases, {}, backend, topology
            )
            assert row == batch_baseline, backend


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


def test_topology_batch_resume_matches_single_run():
    """Topology batches resume across horizons like the clique kernel."""
    params = RouterTimingParameters(n_nodes=7, tp=20.0, tc=0.5, tr=2.0)
    split = BatchCascade(params, [3, 4], topology="ring", keep_cluster_history=True)
    whole = BatchCascade(params, [3, 4], topology="ring", keep_cluster_history=True)
    for horizon in (300.0, 900.0, 2400.0):
        split.run(until=horizon)
    whole.run(until=2400.0)
    for k in range(2):
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
