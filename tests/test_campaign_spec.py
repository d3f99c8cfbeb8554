"""Unit tests for CampaignSpec: validation, expansion, serialization.

The spec is the campaign's identity: everything downstream — shard
maps, journals, reports — keys off its canonical dict and the
``campaign_id`` hash, so these tests pin the expansion order, the
round-trips, and the id's stability under re-parsing.
"""

import pytest

from repro.campaign import CampaignSpec, load_spec
from repro.campaign.spec import tomllib
from repro.core import RouterTimingParameters


def spec(**overrides):
    base = dict(
        name="study",
        n_nodes=(5, 10),
        tp=121.0,
        tc=0.11,
        tr=(0.055, 0.165),
        seed_count=3,
        horizon=2000.0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestValidation:
    def test_scalars_normalize_to_tuples(self):
        s = spec()
        assert s.tp == (121.0,)
        assert s.tc == (0.11,)
        assert s.n_nodes == (5, 10)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(name=""),
            dict(name="bad name"),
            dict(n_nodes=()),
            dict(n_nodes=(5, 5)),
            dict(n_nodes=0),
            dict(tp=0.0),
            dict(tc=-0.1),
            dict(tr=-0.1),
            dict(tr="0.1"),
            dict(seed_count=0),
            dict(horizon=0.0),
            dict(direction="sideways"),
            dict(engine="warp"),
        ],
    )
    def test_bad_fields_rejected(self, overrides):
        with pytest.raises(ValueError):
            spec(**overrides)

    def test_cross_axis_constraint_checked_on_extreme_pairing(self):
        # tr=200 > tp=121 is invalid for RouterTimingParameters even
        # though every per-axis check passes.
        with pytest.raises(ValueError):
            spec(tr=(0.055, 200.0))

    def test_des_rejects_sparse_topology(self):
        with pytest.raises(ValueError, match="engine 'des'.*n=6") as error:
            spec(engine="des", topology="ring", n_nodes=(3, 6))
        # The same check, worded once, guards SimulationJob.
        from repro.parallel.job import SimulationJob

        with pytest.raises(ValueError) as job_error:
            SimulationJob(6, 121.0, 0.11, 0.055, 1, 2000.0, engine="des",
                          topology="ring")
        assert str(job_error.value) == str(error.value)
        # A ring on 3 nodes is complete, and other engines take any graph.
        spec(engine="des", topology="ring", n_nodes=3)
        spec(engine="cascade", topology="ring")

    def test_dotted_and_dashed_names_allowed(self):
        assert spec(name="fig12-tr.v2").name == "fig12-tr.v2"


class TestSizeAndExpansion:
    def test_counts(self):
        s = spec()
        assert s.point_count == 2 * 1 * 1 * 2
        assert s.total_jobs == 4 * 3
        assert list(s.seeds) == [1, 2, 3]

    def test_seed_start_shifts_the_range(self):
        assert list(spec(seed_start=7).seeds) == [7, 8, 9]

    def test_jobs_expand_in_canonical_order_seeds_innermost(self):
        s = spec()
        jobs = list(s.jobs())
        assert len(jobs) == s.total_jobs
        # First block: first grid point (n=5, tr=0.055), seeds 1..3.
        assert [(j.n_nodes, j.tr, j.seed) for j in jobs[:4]] == [
            (5, 0.055, 1),
            (5, 0.055, 2),
            (5, 0.055, 3),
            (5, 0.165, 1),
        ]
        # n_nodes is the slowest axis.
        assert [j.n_nodes for j in jobs] == [5] * 6 + [10] * 6

    def test_points_match_jobs_for_point(self):
        s = spec()
        points = list(s.points())
        assert len(points) == s.point_count
        assert all(isinstance(p, RouterTimingParameters) for p in points)
        flattened = [j for p in points for j in s.jobs_for_point(p)]
        assert [j.cache_key() for j in flattened] == [
            j.cache_key() for j in s.jobs()
        ]

    def test_expansion_is_lazy(self):
        # A grid far too large to materialize still answers size
        # questions and yields its first job instantly.
        s = spec(seed_count=10**6)
        assert s.total_jobs == 4 * 10**6
        first = next(iter(s.jobs()))
        assert first.seed == 1

    def test_job_settings_carried_through(self):
        s = spec(direction="down", engine="des", horizon=777.0)
        job = next(iter(s.jobs()))
        assert (job.direction, job.engine, job.horizon) == ("down", "des", 777.0)


class TestIdentity:
    def test_campaign_id_is_stable_across_reparsing(self):
        s = spec()
        assert s.campaign_id() == CampaignSpec.from_json(s.to_json()).campaign_id()
        assert len(s.campaign_id()) == 16

    def test_campaign_id_distinguishes_specs(self):
        assert spec().campaign_id() != spec(seed_count=4).campaign_id()
        assert spec().campaign_id() != spec(engine="des").campaign_id()

    def test_scalar_and_singleton_sequence_agree(self):
        assert spec(tp=121.0).campaign_id() == spec(tp=[121.0]).campaign_id()


class TestSerialization:
    def test_json_round_trip(self):
        s = spec()
        assert CampaignSpec.from_json(s.to_json()) == s

    def test_from_json_rejects_junk(self):
        with pytest.raises(ValueError):
            CampaignSpec.from_json("{not json")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(flavor="mint"),
            lambda d: d.pop("horizon"),
            lambda d: d.pop("name"),
        ],
    )
    def test_from_dict_rejects_unknown_and_missing_fields(self, mutate):
        data = spec().to_dict()
        mutate(data)
        with pytest.raises(ValueError):
            CampaignSpec.from_dict(data)

    def test_save_and_load_json(self, tmp_path):
        s = spec()
        path = s.save(tmp_path / "study.json")
        assert load_spec(path) == s

    def test_toml_writes_everywhere(self, tmp_path):
        text = spec().to_toml()
        assert text.startswith("[campaign]")
        assert 'name = "study"' in text

    @pytest.mark.skipif(tomllib is None, reason="TOML reading needs 3.11+")
    def test_toml_round_trip(self, tmp_path):
        s = spec()
        path = s.save(tmp_path / "study.toml")
        loaded = load_spec(path)
        assert loaded == s
        assert loaded.campaign_id() == s.campaign_id()

    @pytest.mark.skipif(tomllib is None, reason="TOML reading needs 3.11+")
    def test_from_toml_rejects_junk(self):
        with pytest.raises(ValueError):
            CampaignSpec.from_toml("= not toml =")
