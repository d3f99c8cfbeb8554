"""Tests for the content-addressed on-disk result cache."""

import json
import os
import time

import pytest

from repro.core import RouterTimingParameters
from repro.parallel import FaultPlan, JobResult, ResultCache, SimulationJob
from repro.parallel import cache as cache_module
from repro.parallel.job import MODEL_VERSION

FAST = RouterTimingParameters(n_nodes=5, tp=20.0, tc=0.3, tr=0.1)


@pytest.fixture
def job():
    return SimulationJob.from_params(FAST, seed=1, horizon=1000.0)


@pytest.fixture
def result():
    return JobResult(first_passages={1: 0.25, 2: 31.5, 5: 812.0625})


class TestHitMiss:
    def test_empty_cache_misses(self, tmp_path, job):
        cache = ResultCache(tmp_path)
        assert cache.get(job) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 0

    def test_put_then_get_hits_exactly(self, tmp_path, job, result):
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        assert len(cache) == 1
        restored = cache.get(job)
        assert restored == result
        assert (cache.hits, cache.misses) == (1, 0)
        # Floats survive the JSON round trip bit for bit.
        assert restored.first_passages[5] == 812.0625

    def test_different_job_misses(self, tmp_path, job, result):
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        other = SimulationJob.from_params(FAST, seed=2, horizon=1000.0)
        assert cache.get(other) is None

    def test_persistence_across_instances(self, tmp_path, job, result):
        ResultCache(tmp_path).put(job, result)
        assert ResultCache(tmp_path).get(job) == result


class TestInvalidation:
    def test_model_version_bump_invalidates(self, tmp_path, job, result, monkeypatch):
        cache = ResultCache(tmp_path)
        path = cache.put(job, result)
        # A new model version changes every cache key, so entries
        # computed under the old version are never looked up again.
        monkeypatch.setattr(cache_module, "MODEL_VERSION", "fj93-model-TEST")
        monkeypatch.setattr("repro.parallel.job.MODEL_VERSION", "fj93-model-TEST")
        assert cache.path_for(job) != path
        assert cache.get(job) is None

    def test_stale_version_in_file_is_rejected(self, tmp_path, job, result):
        # Even if a file lands on the right path (hand-copied, renamed),
        # a model_version mismatch inside it is treated as a miss.
        cache = ResultCache(tmp_path)
        path = cache.put(job, result)
        payload = json.loads(path.read_text())
        payload["model_version"] = "something-older"
        path.write_text(json.dumps(payload))
        assert cache.get(job) is None

    def test_corrupt_file_is_a_miss(self, tmp_path, job, result):
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        cache.path_for(job).write_text("{not json")
        assert cache.get(job) is None

    def test_spec_mismatch_is_a_miss(self, tmp_path, job, result):
        cache = ResultCache(tmp_path)
        path = cache.put(job, result)
        payload = json.loads(path.read_text())
        payload["job"]["seed"] = 999  # tampered entry
        path.write_text(json.dumps(payload))
        assert cache.get(job) is None


class TestEntryFormat:
    def payload(self, job, result):
        return {
            "model_version": MODEL_VERSION,
            "job": job.to_dict(),
            "result": result.to_dict(),
        }

    def test_entry_is_compact_sorted_json_of_the_payload(
        self, tmp_path, job, result
    ):
        text = ResultCache(tmp_path).put(job, result).read_text()
        assert json.loads(text) == self.payload(job, result)
        assert text == json.dumps(
            self.payload(job, result), sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_legacy_indented_entry_is_a_quarantined_miss(self, tmp_path, job, result):
        # The format older versions wrote (sorted keys, indent=1) is not
        # what put writes: verify flags it, get misses and quarantines it.
        cache = ResultCache(tmp_path)
        path = cache.path_for(job)
        path.write_text(
            json.dumps(self.payload(job, result), sort_keys=True, indent=1) + "\n"
        )
        report = cache.verify()
        assert (report["entries"], report["valid"]) == (1, 0)
        assert list(report["corrupt"]) == [path.name]
        assert cache.get(job) is None
        assert (cache.hits, cache.quarantined) == (0, 1)
        assert not path.exists()
        cache.put(job, result)  # recomputed, in the one layout
        assert cache.get(job) == result

    def test_root_is_created_on_first_put_only(
        self, tmp_path, job, result, monkeypatch
    ):
        made = []
        real_mkdir = cache_module.Path.mkdir

        def counting_mkdir(path, *args, **kwargs):
            made.append(path)
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(cache_module.Path, "mkdir", counting_mkdir)
        root = tmp_path / "fresh" / "root"
        cache = ResultCache(root)
        assert cache.put(job, result) is not None
        assert made[0] == root  # (parents=True recurses for the rest)
        made.clear()
        cache.put(SimulationJob.from_params(FAST, seed=2, horizon=1000.0), result)
        assert made == []
        assert cache.get(job) == result and cache.write_errors == 0


class TestMaintenance:
    def test_clear_removes_everything(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        for seed in (1, 2, 3):
            cache.put(
                SimulationJob.from_params(FAST, seed=seed, horizon=1000.0), result
            )
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_clear_on_missing_directory(self, tmp_path):
        assert ResultCache(tmp_path / "nowhere").clear() == 0

    def test_put_is_atomic_no_tmp_left_behind(self, tmp_path, job, result):
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        assert not list(tmp_path.glob("*.tmp"))

    def test_tmp_names_are_pid_and_write_unique(
        self, tmp_path, job, result, monkeypatch
    ):
        # Two writers sharing a cache dir must never collide on the
        # same temp name (the PR-1 bug: a fixed '<key>.json.tmp').
        seen = []
        real_replace = os.replace

        def spying_replace(src, dst):
            seen.append(os.path.basename(src))
            return real_replace(src, dst)

        monkeypatch.setattr(cache_module.os, "replace", spying_replace)
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        cache.put(job, result)
        assert len(seen) == 2 and seen[0] != seen[1]
        assert all(f".{os.getpid()}." in name for name in seen)


class TestBestEffortWrites:
    def test_oserror_warns_and_counts_instead_of_raising(
        self, tmp_path, job, result
    ):
        cache = ResultCache(
            tmp_path, faults=FaultPlan.of(FaultPlan.cache_write_error())
        )
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            assert cache.put(job, result) is None
        assert cache.write_errors == 1
        assert len(cache) == 0

    @pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0,
        reason="root ignores directory write permissions",
    )
    def test_readonly_directory_degrades_gracefully(self, tmp_path, job, result):
        root = tmp_path / "ro"
        root.mkdir()
        os.chmod(root, 0o555)
        try:
            cache = ResultCache(root)
            with pytest.warns(RuntimeWarning, match="cache write failed"):
                assert cache.put(job, result) is None
            assert cache.write_errors == 1
        finally:
            os.chmod(root, 0o755)


class TestQuarantine:
    def test_corrupt_entry_moved_aside_on_get(self, tmp_path, job, result):
        cache = ResultCache(tmp_path)
        path = cache.put(job, result)
        path.write_text("{torn", encoding="ascii")
        assert cache.get(job) is None
        assert cache.quarantined == 1
        assert not path.exists()
        (corpse,) = tmp_path.glob("*.corrupt")
        assert corpse.name == path.name + ".corrupt"
        assert corpse.read_text() == "{torn"  # evidence preserved

    def test_version_mismatch_also_quarantines(self, tmp_path, job, result):
        cache = ResultCache(tmp_path)
        path = cache.put(job, result)
        payload = json.loads(path.read_text())
        payload["model_version"] = "fj93-model-0"
        path.write_text(json.dumps(payload))
        assert cache.get(job) is None
        assert cache.quarantined == 1

    def test_quarantined_path_is_rewritable(self, tmp_path, job, result):
        cache = ResultCache(tmp_path)
        cache.put(job, result).write_text("junk")
        assert cache.get(job) is None  # quarantines
        cache.put(job, result)  # path is free again
        assert cache.get(job) == result


class TestVerifyRepair:
    def seed_cache(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        jobs = [
            SimulationJob.from_params(FAST, seed=seed, horizon=1000.0)
            for seed in (1, 2, 3)
        ]
        paths = [cache.put(job, result) for job in jobs]
        return cache, jobs, paths

    def test_verify_reports_without_mutating(self, tmp_path, result):
        cache, _jobs, paths = self.seed_cache(tmp_path, result)
        paths[0].write_text("{torn")
        stale = tmp_path / "dead-writer.12345.0.tmp"
        stale.write_text("half")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = tmp_path / "live-writer.999.0.tmp"
        fresh.write_text("half")
        report = cache.verify()
        assert report["entries"] == 3
        assert report["valid"] == 2
        assert list(report["corrupt"]) == [paths[0].name]
        assert report["stale_tmp"] == [stale.name]  # fresh tmp untouched
        assert report["quarantined"] == 0
        assert paths[0].exists()  # verify never mutates

    def test_repair_quarantines_and_sweeps(self, tmp_path, result):
        cache, jobs, paths = self.seed_cache(tmp_path, result)
        paths[0].write_text("{torn")
        stale = tmp_path / "dead-writer.12345.0.tmp"
        stale.write_text("half")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        done = cache.repair()
        assert done["quarantined"] == [paths[0].name]
        assert done["removed_tmp"] == [stale.name]
        assert not stale.exists()
        assert not paths[0].exists()
        assert len(list(tmp_path.glob("*.corrupt"))) == 1
        # The two healthy entries survived intact.
        assert cache.get(jobs[1]) == result
        after = cache.verify()
        assert after["valid"] == 2 and not after["corrupt"]
        assert after["quarantined"] == 1

    def test_verify_on_missing_directory(self, tmp_path):
        report = ResultCache(tmp_path / "nowhere").verify()
        assert report == {
            "entries": 0, "valid": 0, "corrupt": {},
            "stale_tmp": [], "quarantined": 0,
            "claims": {"records": 0, "tombstones": 0, "beats": 0},
        }

    def test_clear_removes_debris_too(self, tmp_path, job, result):
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        (tmp_path / "x.json.corrupt").write_text("junk")
        (tmp_path / "y.0.0.tmp").write_text("junk")
        assert cache.clear() == 1  # entries only in the count
        assert not any(tmp_path.iterdir())


def jobs_for(seeds):
    return [SimulationJob.from_params(FAST, seed=s, horizon=1000.0) for s in seeds]


def results_for(seeds):
    return [
        JobResult(first_passages={1: 0.25 * s, 2: 31.5 + s, 5: 812.0625 / s})
        for s in seeds
    ]


class TestPacks:
    """Multi-entry commits: one pack file per ``put_many`` call."""

    def test_multi_entry_commit_round_trips(self, tmp_path):
        jobs, results = jobs_for((1, 2, 3)), results_for((1, 2, 3))
        cache = ResultCache(tmp_path)
        assert cache.put_many(zip(jobs, results)) == 3
        (pack,) = (tmp_path / "packs").iterdir()
        assert pack.name == f"{jobs[0].cache_key()}.pack"
        assert not list(tmp_path.glob("*.json"))
        lines = pack.read_text().splitlines()
        assert len(lines) == 3
        for job, result, line in zip(jobs, results, lines):
            payload = json.loads(line)
            assert payload == {
                "cache_key": job.cache_key(),
                "job": job.to_dict(),
                "model_version": MODEL_VERSION,
                "result": result.to_dict(),
            }
            assert line == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        for reader in (cache, ResultCache(tmp_path)):
            assert [reader.get(job) for job in jobs] == results
            assert all(job in reader for job in jobs)
        assert cache.hits == 3 and cache.misses == 0
        # Floats survive bit for bit.
        assert cache.get(jobs[2]).first_passages[5] == 812.0625 / 3

    def test_single_pair_commit_writes_todays_entry_file(self, tmp_path, job, result):
        cache = ResultCache(tmp_path)
        assert cache.put_many([(job, result)]) == 1
        assert not (tmp_path / "packs").exists()
        alone = ResultCache(tmp_path / "alone")
        alone.put(job, result)
        assert cache.path_for(job).read_bytes() == alone.path_for(job).read_bytes()

    @pytest.fixture
    def synced(self, monkeypatch):
        """Inodes of everything fsynced, in call order."""
        inodes = []
        real = cache_module.os.fsync

        def recording_fsync(fd):
            inodes.append(os.fstat(fd).st_ino)
            return real(fd)

        monkeypatch.setattr(cache_module.os, "fsync", recording_fsync)
        return inodes

    def test_put_many_fsyncs_file_then_directory_in_both_layouts(
        self, tmp_path, synced
    ):
        jobs, results = jobs_for((1, 2, 3, 4)), results_for((1, 2, 3, 4))
        tmp_path.joinpath("cache").mkdir()
        cache = ResultCache(tmp_path / "cache")

        def ino(path):
            return os.stat(path).st_ino

        assert cache.put_many([(jobs[0], results[0])]) == 1
        assert synced == [ino(cache.path_for(jobs[0])), ino(cache.root)]
        synced.clear()
        # The first pack also makes packs/, whose entry is the root's.
        assert cache.put_many(zip(jobs[1:3], results[1:3])) == 2
        pack = cache.root / "packs" / f"{jobs[1].cache_key()}.pack"
        assert synced == [ino(pack), ino(pack.parent), ino(cache.root)]
        synced.clear()
        assert cache.put_many(zip(jobs[2:], results[2:])) == 2
        pack = cache.root / "packs" / f"{jobs[2].cache_key()}.pack"
        assert synced == [ino(pack), ino(pack.parent)]

    def test_put_fsyncs_nothing(self, tmp_path, job, result, synced):
        cache = ResultCache(tmp_path / "cache")
        cache.put(job, result)
        cache.put(jobs_for((2,))[0], result)
        assert synced == [] and len(cache) == 2

    def test_repeated_key_is_stored_once(self, tmp_path, job, result):
        cache = ResultCache(tmp_path)
        other = jobs_for((2,))[0]
        assert cache.put_many([(job, result), (other, result), (job, result)]) == 2
        assert len(cache) == 2

    def test_pack_written_by_another_instance_after_a_miss_is_found(self, tmp_path):
        jobs, results = jobs_for((1, 2, 3, 4)), results_for((1, 2, 3, 4))
        reader = ResultCache(tmp_path)
        assert reader.get(jobs[0]) is None  # no packs/ yet
        ResultCache(tmp_path).put_many(zip(jobs[:2], results[:2]))
        assert reader.get(jobs[0]) == results[0]
        # packs/ exists and was just scanned: a second pack landing at
        # once (same file-system timestamp tick) is found too.
        assert reader.get(jobs[2]) is None
        ResultCache(tmp_path).put_many(zip(jobs[2:], results[2:]))
        assert reader.get(jobs[2]) == results[2]
        assert jobs[3] in reader
        assert (reader.hits, reader.misses) == (2, 2)

    def test_packs_and_legacy_entry_files_read_side_by_side(self, tmp_path):
        jobs, results = jobs_for((1, 2, 3, 4)), results_for((1, 2, 3, 4))
        cache = ResultCache(tmp_path)
        cache.put_many(zip(jobs[:2], results[:2]))
        cache.put(jobs[2], results[2])
        # A one-entry durable commit from another instance.
        ResultCache(tmp_path).put_many([(jobs[3], results[3])])
        assert cache.path_for(jobs[3]).is_file()
        for reader in (cache, ResultCache(tmp_path)):
            assert [reader.get(job) for job in jobs] == results
            assert reader.quarantined == 0
        report = cache.verify()
        assert (report["entries"], report["valid"], report["corrupt"]) == (4, 4, {})

    def test_truncated_pack_line_quarantines_the_pack(self, tmp_path):
        jobs, results = jobs_for((1, 2, 3)), results_for((1, 2, 3))
        cache = ResultCache(tmp_path)
        cache.put_many(zip(jobs, results))
        (pack,) = (tmp_path / "packs").glob("*.pack")
        lines = pack.read_text().splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 3] + "\n"
        pack.write_text("".join(lines))
        for reader in (ResultCache(tmp_path), cache):
            assert reader.get(jobs[0]) == results[0]  # its line is sound
        reader = ResultCache(tmp_path)
        assert reader.get(jobs[1]) is None  # a miss, not an error
        assert reader.quarantined == 1
        assert not pack.exists()
        (corpse,) = (tmp_path / "packs").glob("*.corrupt")
        assert corpse.name == pack.name + ".corrupt"
        # The pack's other entries went with it: misses, recomputed.
        assert cache.get(jobs[0]) is None and cache.get(jobs[2]) is None
        assert cache.put_many(zip(jobs, results)) == 3
        assert [cache.get(job) for job in jobs] == results
        assert cache.verify()["quarantined"] == 1

    def test_version_mismatch_in_a_pack_line_quarantines_the_pack(self, tmp_path):
        jobs, results = jobs_for((1, 2)), results_for((1, 2))
        cache = ResultCache(tmp_path)
        cache.put_many(zip(jobs, results))
        (pack,) = (tmp_path / "packs").glob("*.pack")
        pack.write_text(pack.read_text().replace(MODEL_VERSION, "fj93-model-0"))
        assert cache.get(jobs[1]) is None
        assert cache.quarantined == 1
        assert cache.get(jobs[0]) is None
        assert len(cache) == 0

    def test_faults_act_per_entry_on_a_multi_entry_commit(self, tmp_path):
        jobs, results = jobs_for((1, 2, 3, 4)), results_for((1, 2, 3, 4))
        cache = ResultCache(
            tmp_path,
            faults=FaultPlan.of(
                FaultPlan.cache_write_error(seeds=(2,)),
                FaultPlan.cache_corrupt(seeds=(3,)),
            ),
        )
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            assert cache.put_many(zip(jobs, results)) == 3
        assert cache.write_errors == 1
        report = cache.verify()
        assert (report["entries"], report["valid"]) == (3, 2)
        (label,) = report["corrupt"]
        assert label.startswith("packs/") and label.endswith(":2")
        assert cache.get(jobs[1]) is None  # never written
        assert cache.quarantined == 0
        assert cache.get(jobs[0]) == results[0]
        assert cache.get(jobs[2]) is None  # torn: the pack goes aside
        assert cache.quarantined == 1
        assert cache.get(jobs[3]) is None

    def test_oserror_on_the_pack_loses_the_commit_quietly(self, tmp_path):
        jobs, results = jobs_for((1, 2, 3)), results_for((1, 2, 3))
        cache = ResultCache(tmp_path, faults=FaultPlan.of(FaultPlan.cache_write_error()))
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            assert cache.put_many(zip(jobs, results)) == 0
        assert cache.write_errors == 3
        assert len(cache) == 0 and not list(tmp_path.glob("*.tmp"))

    def test_len_verify_repair_clear_count_packed_entries(self, tmp_path):
        jobs, results = jobs_for(range(1, 7)), results_for(range(1, 7))
        cache = ResultCache(tmp_path)
        cache.put_many(zip(jobs[:3], results[:3]))
        cache.put_many(zip(jobs[3:5], results[3:5]))
        cache.put(jobs[5], results[5])
        assert len(cache) == 6
        report = cache.verify()
        assert (report["entries"], report["valid"], report["corrupt"]) == (6, 6, {})
        # Tear one line of the second pack.
        pack = tmp_path / "packs" / f"{jobs[3].cache_key()}.pack"
        first, second = pack.read_text().splitlines(keepends=True)
        pack.write_text(first + second[:40] + "\n")
        report = cache.verify()
        assert (report["entries"], report["valid"]) == (6, 5)
        assert list(report["corrupt"]) == [f"packs/{pack.name}:2"]
        assert pack.exists()  # verify never mutates
        done = cache.repair()
        assert done["quarantined"] == [f"packs/{pack.name}"]
        assert not pack.exists()
        after = cache.verify()
        assert (after["entries"], after["valid"], after["quarantined"]) == (4, 4, 1)
        assert cache.get(jobs[3]) is None and cache.get(jobs[0]) == results[0]
        assert len(cache) == 4
        assert cache.clear() == 4
        assert len(cache) == 0 and not any(tmp_path.iterdir())
        assert cache.get(jobs[0]) is None

    def test_replaced_pack_is_reindexed(self, tmp_path):
        # A later commit with the same first key replaces a pack under
        # another instance's index: lookups re-index, never misread.
        jobs, results = jobs_for((1, 2, 3)), results_for((1, 2, 3))
        reader = ResultCache(tmp_path)
        ResultCache(tmp_path).put_many(zip(jobs, results))
        assert reader.get(jobs[2]) == results[2]
        ResultCache(tmp_path).put_many([(jobs[0], results[0]), (jobs[2], results[2])])
        assert reader.get(jobs[2]) == results[2]
        assert reader.get(jobs[1]) is None
        assert reader.quarantined == 0


class TestBytePath:
    """``get`` checks the entry's prefix as bytes and parses only the
    result member; every defect is still a miss plus a quarantine, on
    a ``<key>.json`` and on a pack line alike."""

    #: A result and a non-canonical spelling of its member: reversed
    #: sizes, exponents, and an upper-case ``E``.
    RESULT = JobResult(first_passages={1: 0.5, 2: 33.5, 5: 406.25})
    ODD_MEMBER = b'{"first_passages":{"5":4.0625e2,"2":3.35E1,"1":5e-1}}'

    def plant(self, tmp_path, layout, mutate, result=None):
        """Commit jobs 1 and 2 (one file for job 2, or one pack of
        both), then rewrite job 2's entry bytes through ``mutate``."""
        jobs = jobs_for((1, 2))
        results = [results_for((1,))[0], result or self.RESULT]
        cache = ResultCache(tmp_path)
        if layout == "file":
            path = cache.put(jobs[1], results[1])
            path.write_bytes(mutate(path.read_bytes()))
        else:
            cache.put_many(zip(jobs, results))
            (path,) = (tmp_path / "packs").glob("*.pack")
            first, second = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(first + mutate(second))
        return jobs, results, path

    def assert_defect(self, tmp_path, jobs, path):
        # verify flags exactly the entry get then quarantines.
        report = ResultCache(tmp_path).verify()
        label = path.name if path.suffix == ".json" else f"packs/{path.name}:2"
        assert list(report["corrupt"]) == [label]
        assert report["valid"] == report["entries"] - 1
        for reader in (ResultCache(tmp_path), ResultCache(tmp_path)):
            assert reader.get(jobs[1]) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert ResultCache(tmp_path).get(jobs[1]) is None  # stays a miss

    @staticmethod
    def member_swap(member):
        def mutate(data):
            cut = data.index(b'"result":') + len(b'"result":')
            return data[:cut] + member + b"}\n"

        return mutate

    @pytest.mark.parametrize("layout", ["file", "pack"])
    @pytest.mark.parametrize(
        "member",
        [
            b'{"first_passages":{,"1":0.5}}',  # not JSON
            b'{"first_passages":{"1":0.5}',  # unbalanced
            b'{"first_passages":[0.5]}',  # JSON, wrong shape
            b'{"first_passages":{"one":0.5}}',  # JSON, bad size
            b'{"first_passages":{"1":0.5}} {}',  # trailing data
            b'{"first_passages":{"1":"x"}}',  # JSON, bad time
            b' {"first_passages":{"1":0.5}}',  # JSON, but spaced
        ],
        ids=["syntax", "unbalanced", "shape", "size", "trailing", "time", "spaced"],
    )
    def test_garbled_result_member_behind_a_valid_prefix(
        self, tmp_path, layout, member
    ):
        jobs, _, path = self.plant(tmp_path, layout, self.member_swap(member))
        # The prefix up to the result member is untouched.
        assert f'"job":{jobs[1].canonical_json()},'.encode() in path.read_bytes()
        self.assert_defect(tmp_path, jobs, path)

    @pytest.mark.parametrize("layout", ["file", "pack"])
    def test_wrong_model_version(self, tmp_path, layout):
        jobs, _, path = self.plant(
            tmp_path,
            layout,
            lambda data: data.replace(MODEL_VERSION.encode(), b"fj93-model-0"),
        )
        self.assert_defect(tmp_path, jobs, path)

    @pytest.mark.parametrize("layout", ["file", "pack"])
    def test_spec_mismatch(self, tmp_path, layout):
        jobs, _, path = self.plant(
            tmp_path, layout, lambda data: data.replace(b'"seed":2,', b'"seed":9,')
        )
        assert b'"seed":9,' in path.read_bytes()
        self.assert_defect(tmp_path, jobs, path)

    @pytest.mark.parametrize("layout", ["file", "pack"])
    @pytest.mark.parametrize("cut", [1, 3, 20])
    def test_torn_tail(self, tmp_path, layout, cut):
        # cut=1 drops only the final newline; in a pack, job 2's line
        # is the last one.
        jobs, _, path = self.plant(tmp_path, layout, lambda data: data[:-cut])
        self.assert_defect(tmp_path, jobs, path)

    @pytest.mark.parametrize("layout", ["file", "pack"])
    def test_non_canonical_member_behind_a_valid_prefix_reads(self, tmp_path, layout):
        # Valid JSON is a hit whatever its spelling; the serve splice
        # re-encodes it (tests/test_serve_payload.py).
        jobs, results, _ = self.plant(
            tmp_path, layout, self.member_swap(self.ODD_MEMBER)
        )
        reader = ResultCache(tmp_path)
        assert reader.get(jobs[1]) == results[1]
        assert (reader.hits, reader.quarantined) == (1, 0)

    @staticmethod
    def other_layout(data, spaced):
        """The same entry as valid JSON with every key order reversed
        (a pack line keeps its key first, so the index finds it)."""
        payload = json.loads(data)
        passages = payload["result"]["first_passages"]
        payload["result"] = {"first_passages": dict(reversed(passages.items()))}
        head = {"cache_key": payload.pop("cache_key")} if "cache_key" in payload else {}
        reordered = {**head, **dict(reversed(payload.items()))}
        separators = None if spaced else (",", ":")
        return (json.dumps(reordered, separators=separators) + "\n").encode()

    @pytest.mark.parametrize(
        "layout,spaced", [("file", True), ("file", False), ("pack", False)]
    )
    def test_other_layout_is_a_quarantined_miss(
        self, tmp_path, layout, spaced
    ):
        # Equal JSON in another key order or spacing is not what put
        # writes: one check for get and verify, no whole-entry parse.
        jobs, _, path = self.plant(
            tmp_path, layout, lambda data: self.other_layout(data, spaced)
        )
        entry = path.read_bytes().splitlines()[-1]
        assert f'"job":{jobs[1].canonical_json()},'.encode() not in entry
        self.assert_defect(tmp_path, jobs, path)
