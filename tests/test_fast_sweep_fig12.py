"""A fig12-style sweep at batch-kernel scale, end to end.

The acceptance scenario for the compiled batch kernel: a Tr sweep
at the paper's Figure 12 parameter point with an ensemble size that
was impractical event-by-event, driven through the full production
path — ``sweep_tr`` -> ``ParallelRunner`` -> batch kernel, with the
result cache and ``checkpoint=True`` armed — and byte-identical to the
serial cascade engine at every spot-checked grid point.
"""

from pathlib import Path

import pytest

from repro.core import RouterTimingParameters
from repro.core.batch import default_backend
from repro.core.sweeps import sweep_tr, time_to_synchronize
from repro.parallel import CheckpointJournal, ParallelRunner, ResultCache, SimulationJob

CHECKPOINTS = Path("results", "checkpoints")

#: Figure 12's parameter point (fig12.PAPER_PARAMS), sweep-ready.
PARAMS = RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=0.1)
TC = PARAMS.tc
HORIZON = 1.0e5
TR_VALUES = [0.5 * TC, 0.9 * TC, 1.5 * TC]
SEEDS = tuple(range(1, 26))  # 3 points x 25 seeds = 75 simulations


@pytest.mark.skipif(
    default_backend() != "compiled", reason="fig12 scale needs the compiled kernel"
)
def test_fig12_sweep_completes_through_runner_cache_checkpoint(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    results = sweep_tr(
        PARAMS,
        TR_VALUES,
        HORIZON,
        direction="synchronize",
        seeds=SEEDS,
        engine="batch",
        cache=cache,
        checkpoint=True,
    )
    assert len(results) == len(TR_VALUES) * len(SEEDS)
    # The journal was written as the grid ran and dropped at the end.
    assert CHECKPOINTS.is_dir() and not list(CHECKPOINTS.glob("*.jsonl"))
    by_key = {(round(r.parameter, 6), r.seed): r for r in results}
    assert len(by_key) == len(results)

    # Spot checks: the batch grid is byte-identical to the serial
    # cascade engine at arbitrary (tr, seed) grid points.
    for tr, seed in [(TR_VALUES[0], 1), (TR_VALUES[1], 13), (TR_VALUES[2], 25)]:
        serial = time_to_synchronize(
            PARAMS.with_tr(tr), horizon=HORIZON, seed=seed, engine="cascade"
        )
        assert by_key[(round(tr, 6), seed)].time == serial

    # The cache now holds the full grid: a re-sweep executes nothing.
    warm = sweep_tr(
        PARAMS,
        TR_VALUES,
        HORIZON,
        direction="synchronize",
        seeds=SEEDS,
        engine="batch",
        cache=cache,
    )
    assert [(r.parameter, r.seed, r.time) for r in warm] == [
        (r.parameter, r.seed, r.time) for r in results
    ]
    assert cache.hits >= len(results)


@pytest.mark.skipif(
    default_backend() != "compiled", reason="fig12 scale needs the compiled kernel"
)
def test_fig12_sweep_resumes_from_checkpoint(tmp_path, monkeypatch):
    # The same grid through the same runner path, interrupted halfway:
    # the grid's journal holds the first half, which the resumed run
    # serves as "resumed" while executing only the remainder.
    monkeypatch.chdir(tmp_path)
    specs = [
        SimulationJob.from_params(
            PARAMS.with_tr(tr), seed=seed, horizon=HORIZON,
            direction="up", engine="batch",
        )
        for tr in TR_VALUES
        for seed in SEEDS
    ]
    half = len(specs) // 2
    partial = ParallelRunner().run(specs[:half])
    journal = CheckpointJournal.for_specs(specs)
    journal.record(zip(specs[:half], partial))
    journal.close()

    resumed = ParallelRunner(checkpoint=True)
    complete = resumed.run(specs)
    assert resumed.stats.resumed == half
    assert resumed.stats.executed == len(specs) - half
    assert complete[:half] == partial
    assert not journal.path.exists()
