"""Dispatcher tests: local pool, serve fan-out, and cross-dispatcher
byte-identity — including the Fig-12-scale acceptance run.

The contract: ``Dispatcher.run(specs)`` returns results in spec order,
byte-identical across implementations.  ``ServeDispatcher`` must also
survive a dead endpoint (fail fast, re-queue to survivors) and reject
malformed or mismatched responses instead of caching them.
"""

import json
import socket

import pytest

from repro.campaign import (
    CampaignSpec,
    DispatchError,
    LocalDispatcher,
    ServeDispatcher,
    build_report,
    parse_endpoints,
    report_json,
    run_campaign,
)
from repro.core import RouterTimingParameters
from repro.core.batch import default_backend
from repro.core.sweeps import sweep_tr
from repro.parallel import ResultCache, SimulationJob
from repro.parallel.job import MODEL_VERSION, run_job
from repro.serve import BackgroundServer, ServeConfig
from repro.serve.client import ApiResponse


def spec(**overrides):
    base = dict(
        name="dispatch-study",
        n_nodes=6,
        tp=20.0,
        tc=0.3,
        tr=(0.05, 0.1),
        seed_count=4,
        horizon=20000.0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def free_port():
    """A port nothing listens on (bound briefly, then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def server_config(tmp_path, **overrides):
    defaults = dict(port=0, cache_root=str(tmp_path / "server-cache"))
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestParseEndpoints:
    def test_single_and_multiple(self):
        assert parse_endpoints("127.0.0.1:8793") == (("127.0.0.1", 8793),)
        assert parse_endpoints("a:1, b:2 ,c:3") == (
            ("a", 1), ("b", 2), ("c", 3),
        )

    def test_bare_port_defaults_to_loopback(self):
        assert parse_endpoints(":8793") == (("127.0.0.1", 8793),)

    @pytest.mark.parametrize("text", ["", ",", "host", "host:", "host:x"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_endpoints(text)


class TestLocalDispatcher:
    def test_results_match_direct_execution_in_order(self):
        jobs = list(spec().jobs())[:5]
        with LocalDispatcher() as dispatcher:
            results = dispatcher.run(jobs)
        assert [r.to_dict() for r in results] == [
            run_job(j).to_dict() for j in jobs
        ]

    def test_describe_names_the_pool(self):
        assert LocalDispatcher(jobs=3).describe() == "local(jobs=3)"


class TestServeDispatcherValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(endpoints=()),
            dict(max_inflight=0),
            dict(batch_size=0),
            dict(timeout=0),
            dict(connect_timeout=0),
            dict(retries=-1),
            dict(max_chunk_attempts=0),
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeDispatcher(**kwargs)

    def test_chunk_attempts_default_scales_with_endpoints(self):
        dispatcher = ServeDispatcher(endpoints=(("a", 1), ("b", 2)))
        assert dispatcher.max_chunk_attempts == 4

    def test_empty_batch_is_a_no_op(self):
        assert ServeDispatcher().run([]) == []

    def test_describe_lists_endpoints(self):
        d = ServeDispatcher(endpoints=(("h1", 1), ("h2", 2)))
        assert d.describe() == "serve(h1:1,h2:2)"


class TestParseSweepResponse:
    """Unit coverage for response verification (no sockets needed)."""

    def chunk(self):
        return list(spec().jobs())[:2]

    def response(self, items, status=200):
        body = json.dumps({"results": items}).encode()
        return ApiResponse(status=status, headers={}, body=body)

    def good_items(self, chunk):
        return [
            {
                "key": job.cache_key(),
                "model_version": MODEL_VERSION,
                "job": job.to_dict(),
                "result": run_job(job).to_dict(),
            }
            for job in chunk
        ]

    def test_valid_response_parses_in_order(self):
        chunk = self.chunk()
        outcomes = ServeDispatcher()._parse_sweep(
            chunk, self.response(self.good_items(chunk))
        )
        assert [r.to_dict() for r in outcomes] == [
            run_job(j).to_dict() for j in chunk
        ]

    def test_non_200_rejected(self):
        with pytest.raises(DispatchError, match="500"):
            ServeDispatcher()._parse_sweep(
                self.chunk(), self.response([], status=500)
            )

    def test_wrong_result_count_rejected(self):
        chunk = self.chunk()
        with pytest.raises(DispatchError, match="1 result"):
            ServeDispatcher()._parse_sweep(
                chunk, self.response(self.good_items(chunk)[:1])
            )

    def test_key_mismatch_rejected(self):
        chunk = self.chunk()
        items = self.good_items(chunk)
        items[0]["key"] = "0" * 64  # a different model version's answer
        with pytest.raises(DispatchError, match="does not match"):
            ServeDispatcher()._parse_sweep(chunk, self.response(items))

    def test_junk_body_rejected(self):
        response = ApiResponse(status=200, headers={}, body=b"not json")
        with pytest.raises(DispatchError, match="not valid"):
            ServeDispatcher()._parse_sweep(self.chunk(), response)


class TestServeDispatcherAgainstRealServer:
    def test_byte_identical_to_local_dispatcher(self, tmp_path):
        s = spec()
        local_cache = ResultCache(tmp_path / "local-cache")
        run_campaign(
            s,
            dispatcher=LocalDispatcher(),
            cache=local_cache,
            checkpoint_root=tmp_path / "ckpt-local",
        )
        serve_cache = ResultCache(tmp_path / "serve-cache")
        with BackgroundServer(server_config(tmp_path)) as bg:
            dispatcher = ServeDispatcher(
                endpoints=((bg.host, bg.port),),
                batch_size=3,
                connect_timeout=5.0,
                timeout=60.0,
            )
            summary = run_campaign(
                s,
                dispatcher=dispatcher,
                cache=serve_cache,
                checkpoint_root=tmp_path / "ckpt-serve",
            )
        assert summary.complete is True
        assert summary.executed == s.total_jobs
        assert dispatcher.requests > 0
        assert report_json(build_report(s, serve_cache)) == report_json(
            build_report(s, local_cache)
        )
        # The cache *files* are byte-identical too — both dispatchers
        # commit the same canonical serialization, in the same chunks.
        def files(cache):
            return {
                path.relative_to(cache.root): path.read_bytes()
                for path in sorted(cache.root.rglob("*"))
                if path.is_file()
            }

        assert files(serve_cache) == files(local_cache)
        assert len(serve_cache) == s.total_jobs

    def test_dead_endpoint_fails_fast_and_work_reroutes(self, tmp_path):
        s = spec(seed_count=2)
        dead = ("127.0.0.1", free_port())
        cache = ResultCache(tmp_path / "cache")
        with BackgroundServer(server_config(tmp_path)) as bg:
            dispatcher = ServeDispatcher(
                endpoints=(dead, (bg.host, bg.port)),
                batch_size=2,
                connect_timeout=2.0,
                timeout=60.0,
            )
            summary = run_campaign(
                s,
                dispatcher=dispatcher,
                cache=cache,
                checkpoint_root=tmp_path / "ckpt",
            )
        assert summary.complete is True
        assert dead in dispatcher.dead_endpoints
        assert len(cache) == s.total_jobs

    def test_every_endpoint_dead_surfaces_an_error(self, tmp_path):
        dispatcher = ServeDispatcher(
            endpoints=(("127.0.0.1", free_port()),),
            connect_timeout=1.0,
            max_chunk_attempts=2,
        )
        jobs = list(spec(seed_count=1).jobs())
        with pytest.raises((OSError, DispatchError)):
            dispatcher.run(jobs)
        assert dispatcher.dead_endpoints


#: Figure 12's parameter point, campaign-spelled: 3 Tr values x 25
#: seeds at N=20 — the scale test_fast_sweep_fig12 runs through
#: sweep_tr, here driven through both dispatchers.
FIG12 = RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=0.1)
FIG12_TR = (0.5 * FIG12.tc, 0.9 * FIG12.tc, 1.5 * FIG12.tc)
FIG12_HORIZON = 1.0e5


@pytest.mark.skipif(
    default_backend() != "compiled", reason="fig12 scale needs the compiled kernel"
)
def test_fig12_scale_campaign_matches_local_and_sweep_drivers(tmp_path):
    """The PR's acceptance criterion: a Fig-12-scale grid run via
    ``run_campaign`` with a ServeDispatcher against a 2-worker fleet
    is byte-identical to the LocalDispatcher run and agrees with the
    pre-existing ``sweep_tr`` driver at every grid point."""
    from repro.serve import ServeClient, SupervisedServer
    import time

    s = CampaignSpec(
        name="fig12-tr",
        n_nodes=FIG12.n_nodes,
        tp=FIG12.tp,
        tc=FIG12.tc,
        tr=FIG12_TR,
        seed_count=25,
        horizon=FIG12_HORIZON,
        engine="batch",
    )
    assert s.total_jobs == 75

    local_cache = ResultCache(tmp_path / "local-cache")
    local = run_campaign(
        s,
        dispatcher=LocalDispatcher(),
        cache=local_cache,
        checkpoint_root=tmp_path / "ckpt-local",
    )
    assert local.complete and local.executed == 75

    fleet = SupervisedServer(
        ServeConfig(
            port=0,
            workers=2,
            cache_root=str(tmp_path / "fleet-cache"),
            claim_ttl=2.0,
            restart_backoff=0.05,
        )
    ).start()
    serve_cache = ResultCache(tmp_path / "serve-cache")
    try:
        deadline = time.monotonic() + 30.0
        while True:
            try:
                with ServeClient(fleet.host, fleet.port, timeout=5.0) as probe:
                    if probe.healthz().status == 200:
                        break
            except OSError:
                pass  # lint: allow-swallow — workers still booting
            if time.monotonic() >= deadline:
                raise TimeoutError("fleet never became healthy")
            time.sleep(0.05)
        dispatcher = ServeDispatcher(
            endpoints=((fleet.host, fleet.port),),
            max_inflight=2,
            batch_size=8,
            connect_timeout=5.0,
            timeout=120.0,
        )
        served = run_campaign(
            s,
            dispatcher=dispatcher,
            cache=serve_cache,
            checkpoint_root=tmp_path / "ckpt-serve",
        )
    finally:
        fleet.stop()
    assert served.complete and served.executed == 75

    # Byte-identity across dispatchers, report and cache entries both.
    local_report = build_report(s, local_cache)
    assert report_json(build_report(s, serve_cache)) == report_json(local_report)

    # Agreement with the pre-existing sweep driver, point by point.
    sweep_results = sweep_tr(
        FIG12,
        list(FIG12_TR),
        FIG12_HORIZON,
        direction="synchronize",
        seeds=tuple(range(1, 26)),
        engine="batch",
    )
    by_point = {
        (round(r.parameter, 9), r.seed): r.time for r in sweep_results
    }
    for row in local_report["rows"]:
        for seed, terminal in zip(s.seeds, row["terminal_times"]):
            assert by_point[(round(row["tr"], 9), seed)] == terminal
