"""``simulation_payload`` is a splice; the old encoder is its oracle.

The payload is built from the job's and the result's canonical text
instead of re-encoding a dict.  Every case here checks it byte for
byte against ``canonical_json`` of the dict the server used to encode
— cold results straight from ``run_job``, warm ones read back through
the result cache (the byte path that parses only the result member),
and synthetic first-passage maps with censoring and extreme exponents.
"""

import json
import random

import pytest

from repro.parallel import JobResult, ResultCache, SimulationJob, run_job
from repro.parallel.job import MODEL_VERSION
from repro.serve import simulation_payload
from repro.serve.http import canonical_json

TOPOLOGIES = (
    "clique",
    "ring",
    "star",
    "tree(b=2)",
    "erdos_renyi(p=0.4,seed=3)",
    "switching(ring|star,period=60)",
)


def oracle(job, result):
    """The encoder ``simulation_payload`` used before it was a splice."""
    return canonical_json(
        {
            "key": job.cache_key(),
            "model_version": MODEL_VERSION,
            "job": job.to_dict(),
            "result": result.to_dict(),
        }
    )


def job_cases():
    """Both directions on every engine; every topology off the DES."""
    for direction in ("up", "down"):
        for engine in ("des", "cascade", "batch"):
            for topology in TOPOLOGIES if engine != "des" else ("clique",):
                yield SimulationJob(
                    n_nodes=5,
                    tp=20.0,
                    tc=0.3,
                    tr=0.1,
                    seed=7,
                    horizon=3000.0,
                    direction=direction,
                    engine=engine,
                    topology=topology,
                )


def random_results(count, seed=20260):
    """First-passage maps over many magnitudes, empty ones included."""
    rng = random.Random(seed)
    for _ in range(count):
        sizes = rng.sample(range(1, 40), rng.randint(0, 12))
        yield JobResult(
            first_passages={
                size: rng.choice(
                    (
                        rng.uniform(0.0, 5e4),
                        rng.random() * 10.0 ** rng.randint(-320, 308),
                        float(rng.randint(0, 10**6)),
                    )
                )
                for size in sizes
            }
        )


@pytest.mark.parametrize(
    "job", list(job_cases()), ids=lambda j: f"{j.engine}-{j.direction}-{j.topology}"
)
def test_cold_and_warm_payloads_equal_the_old_encoder(tmp_path, job):
    result = run_job(job)
    assert simulation_payload(job, result) == oracle(job, result)
    cache = ResultCache(tmp_path)
    cache.put(job, result)
    warm = ResultCache(tmp_path).get(job)
    assert warm == result
    assert simulation_payload(job, warm) == oracle(job, result)


@pytest.mark.parametrize(
    "first_passages",
    [
        {},  # censored before any size was reached
        {1: 0.0, 2: 1e-05, 3: 2.5e-300, 4: 5e-324},
        {2: 1e16, 10: 1.7976931348623157e308, 5: 123456789012345.67},
        {1: 0.1, 12: 0.2, 3: 0.30000000000000004},
    ],
    ids=["censored", "tiny-exponents", "huge-exponents", "unsorted-sizes"],
)
def test_edge_first_passages(tmp_path, first_passages):
    job = SimulationJob(
        n_nodes=20, tp=121.0, tc=0.11, tr=0.1, seed=3, horizon=1e6,
        topology="switching(ring|star,period=60)",
    )
    result = JobResult(first_passages=first_passages)
    assert simulation_payload(job, result) == oracle(job, result)
    cache = ResultCache(tmp_path)
    cache.put(job, result)
    warm = ResultCache(tmp_path).get(job)
    assert simulation_payload(job, warm) == oracle(job, result)


def test_random_results_through_files_and_packs(tmp_path):
    jobs = [
        SimulationJob(
            n_nodes=40, tp=121.0, tc=0.11, tr=0.1, seed=seed, horizon=1e6,
            direction=("up", "down")[seed % 2], engine="batch",
            topology=TOPOLOGIES[seed % len(TOPOLOGIES)],
        )
        for seed in range(1, 121)
    ]
    results = list(random_results(len(jobs)))
    cache = ResultCache(tmp_path)
    for job, result in zip(jobs[:60], results[:60]):
        cache.put(job, result)  # one <key>.json each
    assert cache.put_many(zip(jobs[60:], results[60:])) == 60  # one pack
    reader = ResultCache(tmp_path)
    for job, result in zip(jobs, results):
        expected = oracle(job, result)
        assert simulation_payload(job, result) == expected
        assert simulation_payload(job, reader.get(job)) == expected
    assert (reader.hits, reader.quarantined) == (len(jobs), 0)


#: A result and a non-canonical spelling of its member: reversed
#: sizes, exponents, an upper-case ``E``.
ODD = JobResult(first_passages={1: 0.5, 2: 33.5, 5: 406.25})
ODD_MEMBER = '{"first_passages":{"5":4.0625e2,"2":3.35E1,"1":5e-1}}'


def small_job(seed):
    return SimulationJob(n_nodes=5, tp=20.0, tc=0.3, tr=0.1, seed=seed, horizon=1e3)


def odd_entries(job):
    """Valid entries for ``job`` and ``ODD`` that ``put`` never writes,
    by name: ``(layout, text)``."""
    version = json.dumps(MODEL_VERSION)
    job_text = job.canonical_json()
    sound = f'"job":{job_text},"model_version":{version},"result":{ODD_MEMBER}}}\n'
    reordered = f'"result":{ODD_MEMBER},"model_version":{version},"job":{job_text}}}\n'
    spaced = {"result": json.loads(ODD_MEMBER), "model_version": MODEL_VERSION,
              "job": job.to_dict()}
    head = f'{{"cache_key":"{job.cache_key()}",'
    return {
        "odd-member-file": ("file", "{" + sound),
        "odd-member-pack": ("pack", head + sound),
        "reordered-file": ("file", "{" + reordered),
        "reordered-pack": ("pack", head + reordered),
        "spaced-file": ("file", json.dumps(spaced) + "\n"),
    }


@pytest.mark.parametrize("case", list(odd_entries(small_job(2))))
def test_entries_in_other_spellings_are_never_spliced_verbatim(tmp_path, case):
    job = small_job(2)
    layout, text = odd_entries(job)[case]
    cache = ResultCache(tmp_path)
    if layout == "file":
        tmp_path.mkdir(exist_ok=True)
        cache.path_for(job).write_text(text)
    else:
        # A real pack of two other jobs, with this line appended.
        cache.put_many([(small_job(1), ODD), (small_job(3), ODD)])
        (pack,) = (tmp_path / "packs").glob("*.pack")
        pack.write_text(pack.read_text() + text)
    reader = ResultCache(tmp_path)
    if not case.startswith("odd-member"):
        # Not the bytes put writes ahead of the result member: a miss
        # and a quarantine, never a hit (the cache has one check).
        assert (reader.get(job), reader.quarantined) == (None, 1)
        return
    assert (reader.get(job), reader.quarantined) == (ODD, 0)
    payload = simulation_payload(job, reader.get(job))
    assert payload == oracle(job, ODD)
    assert ODD_MEMBER.encode() not in payload
