"""The batched struct-of-arrays kernel: backends, grouping, resume.

Bit-identity with the serial engines lives in
``test_engine_differential.py``; this module covers the batch layer's
own machinery — backend selection and forcing, the C kernel's build
cache and fallback, constructor validation, the ``run_batch`` grouping
contract, the runner's transparent regrouping (serial and pooled), and
the per-job fallback when a whole group fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core._batch_kernel as kernel_mod
import repro.core.batch as batch_mod
import repro.obs as obs_mod
from repro.core import BatchCascade, RouterTimingParameters
from repro.core.batch import compiled_backend_available, default_backend
from repro.core.sweeps import time_to_break_up, time_to_synchronize
from repro.parallel import (
    ParallelRunner,
    SimulationJob,
    batch_group_key,
    run_batch,
    run_job,
)

PARAMS = RouterTimingParameters(n_nodes=6, tp=20.0, tc=0.11, tr=0.3)


def jobs_for(seeds, engine="batch", direction="up", horizon=2000.0, tr=0.3):
    params = RouterTimingParameters(n_nodes=6, tp=20.0, tc=0.11, tr=tr)
    return [
        SimulationJob.from_params(
            params, seed=s, horizon=horizon, direction=direction, engine=engine
        )
        for s in seeds
    ]


class TestConstruction:
    def test_backend_constant_is_coherent(self):
        assert batch_mod.BACKENDS == ("python", "compiled")
        # The platform decides: compiled iff the C kernel resolves.
        expected = "compiled" if compiled_backend_available() else "python"
        assert default_backend() == expected
        assert BatchCascade(PARAMS, [1]).backend == expected

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown batch backend"):
            BatchCascade(PARAMS, [1], backend="fortran")
        with pytest.raises(ValueError, match="unknown batch backend"):
            BatchCascade(PARAMS, [1], backend="numpy")

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds must be non-empty"):
            BatchCascade(PARAMS, [])

    def test_phase_validation_matches_cascade(self):
        with pytest.raises(ValueError, match="expected 6 phases, got 1"):
            BatchCascade(PARAMS, [1], initial_phases=[0.0])
        with pytest.raises(ValueError, match="must be non-negative"):
            BatchCascade(PARAMS, [1], initial_phases=[0.0, 1.0, -2.0, 3.0, 4.0, 5.0])


class TestRunBatch:
    def test_matches_run_job_per_seed(self):
        jobs = jobs_for([1, 2, 3, 11])
        grouped = run_batch(jobs)
        singles = [run_job(job) for job in jobs]
        assert [r.first_passages for r in grouped] == [
            r.first_passages for r in singles
        ]

    def test_backend_forcing_is_identical(self):
        jobs = jobs_for([5, 6, 7], direction="down", tr=1.2)
        python = run_batch(jobs, backend="python")
        assert [r.first_passages for r in python] == [
            r.first_passages for r in run_batch(jobs)
        ]
        if compiled_backend_available():
            compiled = run_batch(jobs, backend="compiled")
            assert [r.first_passages for r in compiled] == [
                r.first_passages for r in python
            ]

    def test_rejects_non_batch_engines(self):
        with pytest.raises(ValueError, match="requires engine='batch'"):
            run_batch(jobs_for([1], engine="cascade"))

    def test_rejects_mixed_parameter_points(self):
        mixed = jobs_for([1]) + jobs_for([2], horizon=5000.0)
        with pytest.raises(ValueError, match="sharing one parameter point"):
            run_batch(mixed)

    def test_empty_group_is_empty(self):
        assert run_batch([]) == []

    def test_group_key_excludes_the_seed(self):
        a, b = jobs_for([1, 99])
        assert batch_group_key(a) == batch_group_key(b)
        (c,) = jobs_for([1], horizon=5000.0)
        assert batch_group_key(a) != batch_group_key(c)


class TestRunnerIntegration:
    def test_serial_runner_groups_batch_jobs(self):
        jobs = jobs_for([1, 2, 3, 4])
        cascade = ParallelRunner(jobs=1, cache=None).run(
            jobs_for([1, 2, 3, 4], engine="cascade")
        )
        batched = ParallelRunner(jobs=1, cache=None).run(jobs)
        assert [r.first_passages for r in batched] == [
            r.first_passages for r in cascade
        ]

    def test_pooled_runner_groups_batch_jobs(self):
        jobs = jobs_for([1, 2, 3, 4, 5, 6])
        serial = ParallelRunner(jobs=1, cache=None).run(jobs)
        pooled = ParallelRunner(jobs=2, cache=None).run(jobs)
        assert [r.first_passages for r in pooled] == [
            r.first_passages for r in serial
        ]

    def test_mixed_parameter_points_regroup_correctly(self):
        jobs = (
            jobs_for([1, 2])
            + jobs_for([1, 2], horizon=5000.0)
            + jobs_for([3], direction="down", tr=1.2)
            + jobs_for([9], engine="cascade")
        )
        got = ParallelRunner(jobs=1, cache=None).run(jobs)
        expected = [run_job(job) for job in jobs]
        assert [r.first_passages for r in got] == [
            r.first_passages for r in expected
        ]

    def test_group_failure_falls_back_to_per_job(self, monkeypatch):
        import repro.parallel.runner as runner_mod

        def boom(jobs, backend=None):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(runner_mod, "run_batch", boom)
        jobs = jobs_for([1, 2, 3])
        runner = ParallelRunner(jobs=1, cache=None)
        results = runner.run(jobs)
        assert [r.first_passages for r in results] == [
            r.first_passages for r in [run_job(job) for job in jobs]
        ]

    def test_cache_round_trip(self, tmp_path):
        from repro.parallel import ResultCache

        cache = ResultCache(tmp_path / "cache")
        jobs = jobs_for([1, 2, 3])
        runner = ParallelRunner(jobs=1, cache=cache)
        first = runner.run(jobs)
        assert runner.stats.executed == 3
        warm = ParallelRunner(jobs=1, cache=cache)
        second = warm.run(jobs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == 3
        assert [r.first_passages for r in second] == [
            r.first_passages for r in first
        ]


class TestResume:
    def test_resumed_horizons_match_one_shot(self):
        one_shot = BatchCascade(PARAMS, [1, 2], keep_cluster_history=True)
        one_shot.run(until=4000.0)
        stepped = BatchCascade(PARAMS, [1, 2], keep_cluster_history=True)
        for horizon in (1000.0, 2500.0, 4000.0):
            stepped.run(until=horizon)
        for k in range(2):
            assert (
                one_shot.members[k].round_times == stepped.members[k].round_times
            )
            assert one_shot.members[k].total_resets == (
                stepped.members[k].total_resets
            )
            assert one_shot.rng_states(k) == stepped.rng_states(k)


class TestSweepFastPath:
    def test_single_seed_sweep_helpers_accept_batch(self):
        sync_batch = time_to_synchronize(
            PARAMS, horizon=50_000.0, seed=3, engine="batch"
        )
        sync_cascade = time_to_synchronize(
            PARAMS, horizon=50_000.0, seed=3, engine="cascade"
        )
        assert sync_batch == sync_cascade
        loose = PARAMS.with_tr(1.5)
        break_batch = time_to_break_up(
            loose, horizon=50_000.0, seed=3, engine="batch"
        )
        break_cascade = time_to_break_up(
            loose, horizon=50_000.0, seed=3, engine="cascade"
        )
        assert break_batch == break_cascade


def _no_compiler_path(tmp_path):
    """A PATH with no cc, gcc or clang on it."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    return str(bin_dir)


def _unavailable_events():
    return [
        e for e in obs_mod.obs().events.events if e.name == "batch.compiled_unavailable"
    ]


class TestCompiledResolution:
    """The C kernel's build cache, its rebuild and its loud fallback."""

    @pytest.fixture
    def fresh(self, monkeypatch, tmp_path):
        """An empty kernel cache, an unresolved kernel, a sinkless obs."""
        if kernel_mod._np is None:
            pytest.skip("the compiled backend needs numpy")
        cache = tmp_path / "ckernel"
        cache.mkdir()
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(cache))
        monkeypatch.setattr(kernel_mod, "_RESOLVED", "unset")
        # Sinkless: warning events surface through warnings.warn.
        monkeypatch.setattr(obs_mod, "_GLOBAL", obs_mod.Obs())
        return cache

    def test_import_runs_no_compiler(self):
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import repro.core.batch, repro.parallel, repro.core._batch_kernel as k; "
            "assert k._RESOLVED == 'unset', k._RESOLVED"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", probe], check=True, env=env)

    def test_junk_cached_library_is_rebuilt(self, fresh):
        if not (shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")):
            pytest.skip("no C compiler on PATH")
        lib_path = Path(kernel_mod._lib_path())
        assert lib_path.parent == fresh
        lib_path.write_bytes(b"0123456789")
        resolved = kernel_mod.resolve_compiled()
        assert resolved is not None and resolved[0] == "c"
        assert lib_path.stat().st_size > 10  # the rebuild replaced the junk
        assert default_backend() == "compiled"

    def test_tag_covers_flags_and_machine(self, fresh, monkeypatch):
        paths = {kernel_mod._lib_path()}
        monkeypatch.setattr(kernel_mod, "_CFLAGS", kernel_mod._CFLAGS + ("-g",))
        paths.add(kernel_mod._lib_path())
        monkeypatch.setattr(kernel_mod.platform, "machine", lambda: "pdp11")
        paths.add(kernel_mod._lib_path())
        assert len(paths) == 3

    def test_numpy_free_host_resolves_python_quietly(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "_np", None)
        monkeypatch.setattr(kernel_mod, "_RESOLVED", "unset")
        monkeypatch.setattr(obs_mod, "_GLOBAL", obs_mod.Obs())
        assert default_backend() == "python"
        assert not _unavailable_events()

    def test_no_compiler_falls_back_to_python_with_warning(
        self, fresh, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("PATH", _no_compiler_path(tmp_path))
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            assert default_backend() == "python"
        assert default_backend() == "python"  # cached: no second warning
        assert len(_unavailable_events()) == 1
        assert not any(fresh.iterdir())  # nothing was cached
        with pytest.raises(RuntimeError, match="C kernel is unavailable"):
            BatchCascade(PARAMS, [1], backend="compiled")
        # The python backend still runs.
        BatchCascade(PARAMS, [1]).run(until=100.0)

    def test_compiler_error_carries_stderr(self, fresh, monkeypatch, tmp_path):
        bin_dir = Path(_no_compiler_path(tmp_path))
        fake = bin_dir / "cc"
        fake.write_text("#!/bin/sh\necho 'kernel.c:1: error: broken toolchain' >&2\nexit 1\n")
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        with pytest.warns(RuntimeWarning, match="broken toolchain"):
            assert kernel_mod.resolve_compiled() is None
        (event,) = _unavailable_events()
        assert event.level == obs_mod.WARNING
        assert "broken toolchain" in event.fields["reason"]
