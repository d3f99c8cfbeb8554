"""The two ensemble workloads: ``fig10-dense`` and ``fig16-sparse``.

Both run in one process, one job at a time (``jobs=1``), as rounds:
one round is one ensemble request a user would make, and its wall
time is the request latency.  Inputs derive from the ``--seed``
argument only; every round draws fresh simulation seeds.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import replace

from common import CORRUPT_ENV


def _seed_base(seed: int) -> int:
    return 1 + (seed % 10_000) * 100_000


def _corrupt(first_passages: dict) -> dict:
    if os.environ.get(CORRUPT_ENV) and first_passages:
        size = max(first_passages)
        return {**first_passages, size: first_passages[size] + 1e-9}
    return first_passages


class Fig10Dense:
    """The Fig-10 point (N=20, Tp=121, Tc=0.11, Tr=0.1, up) and the
    Fig-11 point (Tr=0.3, down) on the dense batch kernel.

    A round runs ``GROUP`` fresh seeds at each point through one
    ``ParallelRunner(jobs=1)`` call with no cache, on the batch
    engine's default backend.
    """

    POINTS = (
        {"n_nodes": 20, "tp": 121.0, "tc": 0.11, "tr": 0.1, "direction": "up"},
        {"n_nodes": 20, "tp": 121.0, "tc": 0.11, "tr": 0.3, "direction": "down"},
    )
    GROUP = 32
    HORIZON = 1e5
    GATE_SAMPLES = 3  # members per point re-run on the cascade engine

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        # A uniform sample of (job, result) per point for the gate, kept
        # at a fixed size so memory does not grow with the rounds run.
        self._rng = random.Random(f"fig10-gate-{seed}")
        self.sample: dict[float, list] = {point["tr"]: [] for point in self.POINTS}
        self.seen = dict.fromkeys(self.sample, 0)

    def setup(self) -> dict:
        from repro.core.batch import compiled_backend_available, default_backend
        from repro.parallel import ParallelRunner, SimulationJob

        self._runner_cls = ParallelRunner
        self._job_cls = SimulationJob
        return {"backend": default_backend(), "compiled_available": compiled_backend_available()}

    def jobs_for(self, rnd: int) -> list:
        base = _seed_base(self.seed) + rnd * self.GROUP
        return [
            self._job_cls(
                seed=base + k, horizon=self.HORIZON, engine="batch", **point
            )
            for point in self.POINTS
            for k in range(self.GROUP)
        ]

    def round(self, rnd: int) -> tuple[int, int]:
        """One ensemble request; returns (jobs attempted, jobs failed)."""
        specs = self.jobs_for(rnd)
        runner = self._runner_cls(jobs=1, on_error="censor")
        results = runner.run(specs)
        for job, result in zip(specs, results):
            self.keep(job, result)
        return len(specs), runner.stats.failed + runner.stats.timed_out

    def keep(self, job, result) -> None:
        """Reservoir sampling of ``GATE_SAMPLES`` members per point."""
        pool = self.sample[job.tr]
        self.seen[job.tr] += 1
        if len(pool) < self.GATE_SAMPLES:
            pool.append((job, result))
        else:
            slot = self._rng.randrange(self.seen[job.tr])
            if slot < self.GATE_SAMPLES:
                pool[slot] = (job, result)

    def gate(self) -> tuple[bool, int, dict]:
        """Sampled members must equal the cascade engine on the same seeds."""
        from repro.parallel.job import run_job

        mismatched = []
        checked = 0
        for pool in self.sample.values():
            for job, result in pool:
                reference = run_job(replace(job, engine="cascade")).first_passages
                checked += 1
                if _corrupt(reference) != result.first_passages:
                    mismatched.append(job.seed)
        return not mismatched, len(mismatched), {
            "checked": checked, "mismatched_seeds": mismatched,
            "oracle": "CascadeModel on the same seeds",
        }


class Fig16Sparse:
    """Ring, binary-tree and Erdos-Renyi campaigns at the fig16 base
    point (Tp=20, Tc=2, Tr=1) on the batch engine.

    A round runs one ``run_campaign`` per family into a fresh result
    cache and checkpoint root, through ``LocalDispatcher(jobs=1)``,
    and ends each with ``build_report``.  Sparse members run through
    the scalar graph kernel, so the dense kernel does no work here.
    The family sizes keep each family's share of the time under half
    (rings cost far more per router than trees).  Jobs are sized so
    that simulation, not the result files every job writes, is most of
    the cost: creating files costs kernel time that rises and falls
    with what the file system was doing minutes before.
    """

    FAMILIES = (  # (topology, router counts, seeds per count)
        ("ring", (10, 12), 6),
        ("tree(b=2)", (14, 16, 20), 5),
        ("erdos_renyi(p=0.12)", (96, 128), 6),
    )
    HORIZON = 10000.0
    BASE = {"tp": 20.0, "tc": 2.0, "tr": 1.0}

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.reports: dict[int, list[str]] = {}  # round -> report digests

    def setup(self) -> dict:
        from repro import campaign
        from repro.campaign import report as campaign_report
        from repro.core.batch import compiled_backend_available, default_backend
        from repro.parallel import ResultCache

        self._campaign = campaign
        self._report = campaign_report
        self._cache_cls = ResultCache
        return {"backend": default_backend(), "compiled_available": compiled_backend_available()}

    def specs_for(self, rnd: int) -> list:
        base = _seed_base(self.seed)
        return [
            self._campaign.CampaignSpec(
                name=f"fig16-{index}", n_nodes=sizes, seed_start=base + rnd * seeds,
                seed_count=seeds, horizon=self.HORIZON, engine="batch",
                topology=family, **self.BASE,
            )
            for index, (family, sizes, seeds) in enumerate(self.FAMILIES)
        ]

    def _run_round(self, rnd: int, tag: str) -> tuple[int, int, list[str], list]:
        attempted = failed = 0
        digests = []
        caches = []
        for index, spec in enumerate(self.specs_for(rnd)):
            root = os.path.join(self.workdir, f"{tag}{rnd}", str(index))
            cache = self._cache_cls(os.path.join(root, "cache"))
            summary = self._campaign.run_campaign(
                spec,
                dispatcher=self._campaign.LocalDispatcher(jobs=1),
                cache=cache,
                checkpoint_root=os.path.join(root, "checkpoints"),
            )
            report = self._report.build_report(spec, cache)
            data = self._campaign.report_json(report).encode()
            digests.append(hashlib.sha256(data).hexdigest())
            attempted += summary.total
            failed += summary.total - summary.executed
            if not report["complete"]:
                failed += report["missing"]
            caches.append((spec, cache))
        return attempted, failed, digests, caches

    def round(self, rnd: int) -> tuple[int, int]:
        attempted, failed, digests, _ = self._run_round(rnd, "r")
        self.reports[rnd] = digests
        return attempted, failed

    def gate(self) -> tuple[bool, int, dict]:
        """Re-run one round into fresh directories: its reports must be
        byte-identical; sampled jobs must equal the cascade engine."""
        from repro.parallel.job import run_job

        rng = random.Random(f"fig16-gate-{self.seed}")
        rnd = rng.choice(sorted(self.reports))
        _, _, digests, caches = self._run_round(rnd, "gate")
        report_ok = digests == self.reports[rnd]
        mismatched = []
        for spec, cache in caches:
            job = rng.choice(list(spec.jobs()))
            result = cache.get(job)
            reference = run_job(replace(job, engine="cascade")).first_passages
            if result is None or _corrupt(reference) != result.first_passages:
                mismatched.append(f"{job.topology}/n={job.n_nodes}/seed={job.seed}")
        failures = len(mismatched) + (0 if report_ok else 1)
        return failures == 0, failures, {
            "replayed_round": rnd, "reports_identical": report_ok,
            "checked_jobs": len(caches), "mismatched_jobs": mismatched,
            "oracle": "CascadeModel on the same seeds",
        }
