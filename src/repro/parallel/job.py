"""Simulation job specs and the pure function that executes them.

A :class:`SimulationJob` captures everything that determines a
first-passage simulation's outcome — the (N, Tp, Tc, Tr) tuple, the
seed, the horizon, the direction, and which engine runs it.  Because
the spec is frozen, hashable, and serializes to a canonical dict, it
doubles as the key of the on-disk result cache and as the unit of work
shipped to pool workers.

:func:`run_job` is deliberately a module-level pure function:
``ProcessPoolExecutor`` can pickle it, and running the same job twice
— in this process, in a worker, or in a different session reading the
cache — yields the same :class:`JobResult` bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

from ..core.batch import BatchCascade
from ..core.engines import ENGINES, check_engine_topology, resolve_engine
from ..core.fastsim import CascadeModel
from ..core.model import ModelConfig, PeriodicMessagesModel
from ..core.parameters import RouterTimingParameters

__all__ = [
    "ENGINES",
    "MODEL_VERSION",
    "JobResult",
    "SimulationJob",
    "batch_group_key",
    "kernel_groups",
    "run_batch",
    "run_job",
    "run_jobs",
    "run_jobs_observed",
]

#: Bump whenever a change alters simulation trajectories (RNG streams,
#: model semantics, tracker behaviour).  The tag is folded into every
#: cache key, so stale entries from older model versions simply miss.
MODEL_VERSION = "fj93-model-1"

_DIRECTIONS = ("up", "down")

#: The canonical encoder (compact, sorted keys) and the cache key's
#: (sorted keys, json's default separators).  Shared instances:
#: ``json.dumps`` with options builds an encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_KEY_ENCODER = json.JSONEncoder(sort_keys=True)


@functools.lru_cache(maxsize=256)
def _canonical_topology(topology) -> str:
    """A topology string's canonical form, parsed once per string.

    Specs are frozen values, so the memo can never go stale; a string
    that fails to parse raises on every call (errors are not cached).
    """
    from ..topo import ensure_spec

    return ensure_spec(topology).canonical()


@dataclass(frozen=True)
class SimulationJob:
    """Spec of one first-passage simulation.

    Attributes
    ----------
    n_nodes, tp, tc, tr:
        The model's timing parameters (flattened so the spec is a
        single frozen dataclass).
    seed:
        Master RNG seed; per-router streams derive from it.
    horizon:
        Simulation horizon in seconds.
    direction:
        ``"up"`` — unsynchronized start, record first times each
        cluster size is reached (Figure 10); ``"down"`` — synchronized
        start, record first times the per-round largest cluster falls
        to each size (Figure 11).
    engine:
        ``"des"``, ``"cascade"``, or ``"batch"`` (see
        :mod:`repro.core.engines`).  Batch jobs stay one-seed specs —
        the cache key, checkpoints, and dedup all keep working — and
        the executors regroup them into shared kernels at run time.
    topology:
        Coupling graph in :func:`repro.topo.parse_topology` grammar,
        normalized to canonical form at construction.  ``"clique"``
        (the default) is the paper's fully-coupled model and is
        *omitted* from :meth:`to_dict`, so every pre-topology cache
        key, checkpoint, and journal entry stays valid verbatim.  The
        DES engine only models the fully-coupled case, so non-clique
        topologies require ``"cascade"`` or ``"batch"``.
    """

    n_nodes: int
    tp: float
    tc: float
    tr: float
    seed: int
    horizon: float
    direction: str = "up"
    engine: str = "cascade"
    topology: str = "clique"

    def __post_init__(self) -> None:
        # Delegate parameter validation to the canonical dataclass.
        RouterTimingParameters(self.n_nodes, self.tp, self.tc, self.tr)
        if not math.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError("horizon must be positive and finite")
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}; known: {', '.join(_DIRECTIONS)}"
            )
        resolve_engine(self.engine)
        object.__setattr__(self, "topology", _canonical_topology(self.topology))
        check_engine_topology(self.engine, self.topology, (self.n_nodes,))

    @classmethod
    def from_params(
        cls,
        params: RouterTimingParameters,
        seed: int,
        horizon: float,
        direction: str = "up",
        engine: str = "cascade",
        topology: str = "clique",
    ) -> "SimulationJob":
        """Build a job from a parameter tuple plus run settings."""
        return cls(
            n_nodes=params.n_nodes,
            tp=params.tp,
            tc=params.tc,
            tr=params.tr,
            seed=seed,
            horizon=horizon,
            direction=direction,
            engine=engine,
            topology=topology,
        )

    @property
    def params(self) -> RouterTimingParameters:
        """The job's timing parameters as the canonical dataclass."""
        return RouterTimingParameters(self.n_nodes, self.tp, self.tc, self.tr)

    def to_dict(self) -> dict:
        """Canonical plain-dict form (stable across sessions).

        The ``topology`` key appears only when non-default: a clique
        job serializes exactly as it did before topologies existed,
        so its cache key (and every cached result) is unchanged.
        """
        data = {
            "n_nodes": self.n_nodes,
            "tp": self.tp,
            "tc": self.tc,
            "tr": self.tr,
            "seed": self.seed,
            "horizon": self.horizon,
            "direction": self.direction,
            "engine": self.engine,
        }
        if self.topology != "clique":
            data["topology"] = self.topology
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationJob":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)

    def canonical_json(self) -> str:
        """:meth:`to_dict` as compact sorted-key JSON, the form cache
        entries, journal lines and serve payloads splice in.

        Memoized on the instance like :meth:`cache_key` (the memo is
        not a field), so a job is encoded once however many records
        carry it.
        """
        text = self.__dict__.get("_json_memo")
        if text is None:
            text = _CANONICAL.encode(self.to_dict())
            object.__setattr__(self, "_json_memo", text)
        return text

    def cache_key(self) -> str:
        """Content hash of the spec plus the model version tag.

        ``json.dumps`` with sorted keys is a canonical encoding, and
        Python's float repr round-trips exactly, so equal jobs hash
        equal across processes and sessions.

        The digest is memoized on the instance together with the
        version it was computed under, so a job is hashed once however
        many layers ask, and a ``MODEL_VERSION`` change still re-keys
        it.  The memo is not a field: equality, hashing, ``repr`` and
        :func:`dataclasses.replace` ignore it.
        """
        memo = self.__dict__.get("_key_memo")
        if memo is not None and memo[0] == MODEL_VERSION:
            return memo[1]
        payload = _KEY_ENCODER.encode(
            {"job": self.to_dict(), "model_version": MODEL_VERSION}
        )
        key = hashlib.sha256(payload.encode("ascii")).hexdigest()
        object.__setattr__(self, "_key_memo", (MODEL_VERSION, key))
        return key


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job: the first-passage time per cluster size.

    ``first_passages`` maps cluster size -> first time (seconds) that
    size was reached (direction "up") or first time the per-round
    largest cluster dropped to it (direction "down").  Sizes the run
    never reached within the horizon are absent — censoring is
    represented by absence, exactly as in the serial code paths.
    """

    first_passages: dict[int, float]

    def terminal_time(self, job: SimulationJob) -> float | None:
        """The job's headline quantity, or None if censored.

        Full synchronization (size N) for direction "up"; full
        break-up (size 1) for direction "down".
        """
        target = job.n_nodes if job.direction == "up" else 1
        return self.first_passages.get(target)

    def to_dict(self) -> dict:
        """JSON-ready form (JSON object keys must be strings)."""
        return {
            "first_passages": {
                str(size): time for size, time in sorted(self.first_passages.items())
            }
        }

    def canonical_json(self) -> str:
        """:meth:`to_dict` as compact sorted-key JSON, encoded once.

        Cache entries and journal lines splice this text in, so a
        result's floats are encoded once however many records carry
        it.  Memoized on the instance like
        :meth:`SimulationJob.cache_key` (the memo is not a field); a
        result is never mutated after it is built.
        """
        text = self.__dict__.get("_json_memo")
        if text is None:
            text = _CANONICAL.encode(self.to_dict())
            object.__setattr__(self, "_json_memo", text)
        return text

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        """Inverse of :meth:`to_dict` (restores integer sizes)."""
        return cls(
            first_passages={
                int(size): float(time)
                for size, time in data["first_passages"].items()
            }
        )


def run_job(
    job: SimulationJob, faults=None, attempt: int = 0
) -> JobResult:
    """Execute one job and return its first-passage record.

    Pure: the result depends only on the job spec.  Both engines use
    the same per-seed RNG stream derivation, so the choice of engine
    does not change the trajectory for the pure periodic model.

    ``faults`` is an optional
    :class:`~repro.parallel.faults.FaultPlan` consulted *before*
    execution — the explicit chaos-injection hook (it can raise,
    sleep, or kill a pool worker, but never alter a result);
    ``attempt`` tells the plan which retry this is.  Both default to
    the production no-op.
    """
    if faults is not None:
        faults.on_job(job, attempt)
    up = job.direction == "up"
    phases = "unsynchronized" if up else "synchronized"
    topology = None if job.topology == "clique" else job.topology
    if job.engine == "cascade":
        model = CascadeModel(
            job.params, seed=job.seed, initial_phases=phases, topology=topology
        )
        model.run(
            until=job.horizon,
            stop_on_full_sync=up,
            stop_on_full_unsync=not up,
        )
        tracker = model.tracker
    elif job.engine == "des":
        config = ModelConfig.from_parameters(
            job.params, seed=job.seed, keep_cluster_history=False
        )
        des = PeriodicMessagesModel(config, initial_phases=phases)
        des.run(
            until=job.horizon,
            stop_on_full_sync=up,
            stop_on_full_unsync=not up,
        )
        tracker = des.tracker
    elif job.engine == "batch":
        # A batch of one: bit-identical to the grouped kernel because
        # members are independent (tests/test_engine_differential.py).
        return run_batch([job])[0]
    else:  # pragma: no cover - __post_init__ rejects unknown engines
        raise ValueError(f"unknown engine {job.engine!r}")
    mapping = tracker.first_time_at_least if up else tracker.first_time_at_most
    return JobResult(first_passages=dict(mapping))


def batch_group_key(job: SimulationJob) -> tuple:
    """Everything but the seed: jobs agreeing here share one kernel."""
    return (
        job.n_nodes,
        job.tp,
        job.tc,
        job.tr,
        job.horizon,
        job.direction,
        job.topology,
    )


def run_batch(
    jobs: Sequence[SimulationJob],
    backend: str | None = None,
) -> list[JobResult]:
    """Execute a group of same-parameter jobs through one batch kernel.

    Every job must use ``engine="batch"`` and agree on
    :func:`batch_group_key`; only the seeds differ.  Results come back
    in job order and are bit-identical to running each job alone —
    the jobs stay individually cacheable and checkpointable.
    ``backend`` forces the kernel ("python"/"compiled"); None uses
    :func:`repro.core.batch.default_backend`.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    first = jobs[0]
    for job in jobs:
        if job.engine != "batch":
            raise ValueError(f"run_batch() requires engine='batch', got {job.engine!r}")
        if batch_group_key(job) != batch_group_key(first):
            raise ValueError("run_batch() requires jobs sharing one parameter point")
    up = first.direction == "up"
    batch = BatchCascade(
        first.params,
        seeds=[job.seed for job in jobs],
        initial_phases="unsynchronized" if up else "synchronized",
        backend=backend,
        topology=None if first.topology == "clique" else first.topology,
    )
    batch.run(
        until=first.horizon,
        stop_on_full_sync=up,
        stop_on_full_unsync=not up,
    )
    return [
        JobResult(
            first_passages=dict(
                member.first_time_at_least if up else member.first_time_at_most
            )
        )
        for member in batch.members
    ]


def kernel_groups(
    jobs: Sequence[SimulationJob], faults=None
) -> tuple[list[int], list[list[int]]]:
    """Split job positions into jobs run alone and shared-kernel groups.

    Batch-engine jobs share one kernel per :func:`batch_group_key`,
    unless a fault plan is armed: the plan must see the same per-job
    hook sequence on every engine, so chaos runs go job by job
    through :func:`run_job`.  Both lists keep input order.
    """
    singles: list[int] = []
    groups: dict[tuple, list[int]] = {}
    for i, job in enumerate(jobs):
        if job.engine == "batch" and faults is None:
            groups.setdefault(batch_group_key(job), []).append(i)
        else:
            singles.append(i)
    return singles, list(groups.values())


def run_jobs(
    jobs: Sequence[SimulationJob], faults=None, attempt: int = 0
) -> list[JobResult]:
    """Execute a chunk of jobs (the pool worker entry point).

    Batch-engine jobs in the chunk are regrouped by parameter point
    (:func:`kernel_groups`) and advanced through shared kernels — this
    is the "batch within a worker" half of the fan-out; the runner's
    chunking is the other.  Results always come back in input order.

    The fault plan (picklable, stateless) travels to the worker with
    the chunk, so injected worker-side failures are as deterministic
    as the simulations themselves.  This is :func:`run_jobs_observed`
    with tracing off, results only.
    """
    return run_jobs_observed(jobs, faults, attempt, trace=False)[0]


def run_jobs_observed(
    jobs: Sequence[SimulationJob],
    faults=None,
    attempt: int = 0,
    trace: bool = True,
    profile: bool = False,
) -> tuple[list[JobResult], list, list[dict]]:
    """The observed pool entry point: results plus span/profile payloads.

    Used instead of :func:`run_jobs` when the parent's obs runtime is
    on.  The worker runs the chunk under a *local* tracer (workers
    never share the parent's global runtime), wraps each job in a
    ``job.run`` span, and returns ``(results, spans, profile_rows)``
    — the spans and rows are picklable records the parent ingests, so
    a pooled run yields one coherent multi-process trace.  The results
    list is computed by the identical :func:`run_job` calls, keeping
    the byte-identity guarantee trivially intact.
    """
    from ..obs.spans import Tracer

    tracer = Tracer(enabled=trace)
    profile_rows: list[dict] = []
    jobs = list(jobs)
    slots: list[JobResult | None] = [None] * len(jobs)

    def key(job: SimulationJob) -> str:
        return job.cache_key()[:12] if trace else ""

    def execute() -> None:
        with tracer.span("worker.chunk", jobs=len(jobs), attempt=attempt):
            singles, groups = kernel_groups(jobs, faults)
            for i in singles:
                job = jobs[i]
                with tracer.span(
                    "job.run",
                    key=key(job),
                    seed=job.seed,
                    engine=job.engine,
                    direction=job.direction,
                    n_nodes=job.n_nodes,
                    attempt=attempt,
                ):
                    slots[i] = run_job(job, faults, attempt)
            for indices in groups:
                members = [jobs[i] for i in indices]
                with tracer.span(
                    "batch.run",
                    key=key(members[0]),
                    members=len(members),
                    engine="batch",
                    direction=members[0].direction,
                    n_nodes=members[0].n_nodes,
                    attempt=attempt,
                ):
                    for i, result in zip(indices, run_batch(members)):
                        slots[i] = result

    if profile:
        from ..obs.profile import profiled

        with profiled(profile_rows):
            execute()
    else:
        execute()
    return slots, tracer.drain(), profile_rows
