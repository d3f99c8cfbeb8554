"""Tests for the SimulationJob spec and the run_job executor."""

import dataclasses
import pickle

import pytest

from repro.core import RouterTimingParameters
from repro.core.sweeps import time_to_break_up, time_to_synchronize
from repro.parallel import JobResult, SimulationJob, run_job, validate_engine

FAST = RouterTimingParameters(n_nodes=5, tp=20.0, tc=0.3, tr=0.1)


class TestSimulationJob:
    def test_round_trips_through_dict(self):
        job = SimulationJob.from_params(
            FAST, seed=7, horizon=5000.0, direction="down", engine="des"
        )
        assert SimulationJob.from_dict(job.to_dict()) == job
        assert job.params == FAST

    def test_is_hashable(self):
        a = SimulationJob.from_params(FAST, seed=1, horizon=100.0)
        b = SimulationJob.from_params(FAST, seed=1, horizon=100.0)
        assert len({a, b}) == 1

    def test_cache_key_is_stable_and_content_sensitive(self):
        job = SimulationJob.from_params(FAST, seed=1, horizon=100.0)
        same = SimulationJob.from_params(FAST, seed=1, horizon=100.0)
        assert job.cache_key() == same.cache_key()
        # Every field participates in the key.
        variants = [
            SimulationJob.from_params(FAST, seed=2, horizon=100.0),
            SimulationJob.from_params(FAST, seed=1, horizon=200.0),
            SimulationJob.from_params(FAST, seed=1, horizon=100.0, direction="down"),
            SimulationJob.from_params(FAST, seed=1, horizon=100.0, engine="des"),
            SimulationJob.from_params(FAST.with_tr(0.2), seed=1, horizon=100.0),
            SimulationJob.from_params(FAST.with_nodes(6), seed=1, horizon=100.0),
        ]
        keys = {job.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == 1 + len(variants)

    def test_validation(self):
        with pytest.raises(ValueError, match="engine"):
            SimulationJob.from_params(FAST, seed=1, horizon=100.0, engine="warp")
        with pytest.raises(ValueError, match="direction"):
            SimulationJob.from_params(FAST, seed=1, horizon=100.0, direction="side")
        with pytest.raises(ValueError, match="horizon"):
            SimulationJob.from_params(FAST, seed=1, horizon=0.0)
        with pytest.raises(ValueError):
            validate_engine("warp")
        assert validate_engine("cascade") == "cascade"


class TestCacheKeyMemo:
    """``cache_key`` is memoized on the instance; it must never show."""

    @staticmethod
    def fresh(seed=1):
        return SimulationJob.from_params(FAST, seed=seed, horizon=100.0)

    def test_replaced_job_is_keyed_like_a_fresh_one(self):
        job = self.fresh()
        job.cache_key()
        assert dataclasses.replace(job).cache_key() == self.fresh().cache_key()
        moved = dataclasses.replace(job, seed=2)
        assert moved.cache_key() == self.fresh(seed=2).cache_key()
        assert moved.cache_key() != job.cache_key()

    def test_pickled_job_keeps_the_fresh_key(self):
        keyed, plain = self.fresh(), self.fresh()
        keyed.cache_key()
        for job in (keyed, plain):
            clone = pickle.loads(pickle.dumps(job))
            assert clone.cache_key() == self.fresh().cache_key()

    def test_dict_round_trip_keeps_the_fresh_key(self):
        job = self.fresh()
        job.cache_key()
        again = SimulationJob.from_dict(job.to_dict())
        assert again.cache_key() == self.fresh().cache_key()

    def test_equality_hash_and_repr_ignore_the_memo(self):
        keyed, plain = self.fresh(), self.fresh()
        keyed.cache_key()
        assert keyed == plain
        assert hash(keyed) == hash(plain)
        assert repr(keyed) == repr(plain)
        assert keyed.to_dict() == plain.to_dict()

    def test_memo_follows_the_model_version(self, monkeypatch):
        job = self.fresh()
        old = job.cache_key()
        shipped = pickle.dumps(job)
        monkeypatch.setattr("repro.parallel.job.MODEL_VERSION", "fj93-model-TEST")
        assert job.cache_key() != old
        assert job.cache_key() == self.fresh().cache_key()
        assert pickle.loads(shipped).cache_key() == job.cache_key()


class TestJobResult:
    def test_round_trips_with_integer_sizes(self):
        result = JobResult(first_passages={1: 0.5, 5: 123.25})
        restored = JobResult.from_dict(result.to_dict())
        assert restored == result
        assert all(isinstance(k, int) for k in restored.first_passages)

    def test_terminal_time_by_direction(self):
        up = SimulationJob.from_params(FAST, seed=1, horizon=100.0, direction="up")
        down = SimulationJob.from_params(FAST, seed=1, horizon=100.0, direction="down")
        result = JobResult(first_passages={1: 2.0, 5: 90.0})
        assert result.terminal_time(up) == 90.0
        assert result.terminal_time(down) == 2.0
        assert JobResult(first_passages={}).terminal_time(up) is None


class TestRunJob:
    def test_matches_serial_helpers_both_engines(self):
        for engine in ("cascade", "des"):
            up = run_job(
                SimulationJob.from_params(
                    FAST, seed=3, horizon=20000.0, direction="up", engine=engine
                )
            )
            assert up.first_passages[FAST.n_nodes] == time_to_synchronize(
                FAST, 20000.0, seed=3, engine=engine
            )
        strong = FAST.with_tr(2.0)
        down = run_job(
            SimulationJob.from_params(
                strong, seed=3, horizon=50000.0, direction="down"
            )
        )
        assert down.first_passages[1] == time_to_break_up(strong, 50000.0, seed=3)

    def test_engines_agree_bit_for_bit(self):
        for seed in (1, 2, 3):
            jobs = [
                SimulationJob.from_params(
                    FAST, seed=seed, horizon=20000.0, engine=engine
                )
                for engine in ("cascade", "des")
            ]
            cascade, des = (run_job(job) for job in jobs)
            assert cascade == des

    def test_censoring_is_absence(self):
        calm = FAST.with_tr(5.0)  # heavy jitter: no sync in a tiny horizon
        result = run_job(
            SimulationJob.from_params(calm, seed=1, horizon=100.0, direction="up")
        )
        assert calm.n_nodes not in result.first_passages
