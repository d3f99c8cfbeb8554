"""Multi-seed ensembles of the Periodic Messages model.

The paper's Figures 10 and 11 average twenty simulations; its Figure
12 marks single runs.  This module packages that workflow: run one
configuration over many seeds, collect first-passage times (to
synchronization, to break-up, or to arbitrary cluster sizes), and
summarize them honestly — runs that never reach the target within the
horizon are reported as censored rather than silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

from .parameters import RouterTimingParameters

__all__ = ["EnsembleResult", "FirstPassageEnsemble"]


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregate of one first-passage quantity across seeds.

    Attributes
    ----------
    times:
        The observed first-passage times, one per completed run.
    censored:
        Number of runs in which the event did not occur within the
        horizon (their true times exceed it).
    horizon:
        The common simulation horizon.
    """

    times: tuple[float, ...]
    censored: int
    horizon: float

    @property
    def runs(self) -> int:
        """Total runs, completed plus censored."""
        return len(self.times) + self.censored

    @property
    def completion_rate(self) -> float:
        """Fraction of runs in which the event occurred."""
        return len(self.times) / self.runs if self.runs else 0.0

    @property
    def mean(self) -> float:
        """Mean over completed runs (NaN when none completed)."""
        if not self.times:
            return math.nan
        return sum(self.times) / len(self.times)

    @property
    def mean_lower_bound(self) -> float:
        """A censoring-aware lower bound on the true mean.

        Counts every censored run at the horizon — the smallest value
        its unobserved time could have.
        """
        if not self.runs:
            return math.nan
        total = sum(self.times) + self.censored * self.horizon
        return total / self.runs

    def half_width(self) -> float:
        """Normal-approximation 95% half-width over completed runs."""
        n = len(self.times)
        if n < 2:
            return math.nan
        mean = self.mean
        var = sum((t - mean) ** 2 for t in self.times) / (n - 1)
        return 1.96 * math.sqrt(var / n)


@dataclass
class FirstPassageEnsemble:
    """Runs one configuration over many seeds.

    Parameters
    ----------
    params:
        Timing parameters for every run.
    horizon:
        Per-run simulation horizon in seconds.
    seeds:
        The seeds; one independent model per seed.
    direction:
        ``"up"`` — start unsynchronized, record times to reach each
        cluster size (Figure 10); ``"down"`` — start synchronized,
        record times for the per-round largest cluster to fall to each
        size (Figure 11).
    engine:
        ``"cascade"`` (default, ~8x faster; bit-for-bit equivalent to
        the DES for the pure periodic model), ``"batch"`` (one
        kernel over the ensemble: same trajectories bit for bit, seeds
        sharing a parameter point advance through one kernel per
        worker), or ``"des"`` — the escape hatch for configurations
        the cascade rule cannot express.
    jobs:
        Worker processes for the runs; ``1`` executes in-process.
    cache:
        Optional :class:`~repro.parallel.ResultCache`; completed seeds
        are never recomputed.
    checkpoint:
        Resume support: ``True`` journals completed seeds under
        ``results/checkpoints/`` (content-addressed run id) so a
        killed ensemble resumes where it stopped; also accepts an
        explicit path or :class:`~repro.parallel.CheckpointJournal`.
        The journal is deleted once the ensemble completes cleanly.
    on_error:
        ``"raise"`` (default) surfaces the first seed failure after
        completed seeds are committed; ``"censor"`` degrades failed
        seeds to censored observations so partial results are
        harvestable (inspect :attr:`report` for which).
    timeout, retries:
        Per-seed deadline (seconds) and retry budget, passed to the
        :class:`~repro.parallel.ParallelRunner`.
    topology:
        Coupling graph for every run (grammar of
        :func:`repro.topo.parse_topology`); the default clique is the
        paper's fully-coupled model and keeps historical cache keys.
    """

    params: RouterTimingParameters
    horizon: float
    seeds: Sequence[int] = tuple(range(1, 21))
    direction: Literal["up", "down"] = "up"
    engine: str = "cascade"
    jobs: int = 1
    cache: object | None = None
    checkpoint: object | None = None
    on_error: Literal["raise", "censor"] = "raise"
    timeout: float | None = None
    retries: int = 1
    topology: str = "clique"
    report: object | None = field(default=None, init=False)
    _passages: list[dict[int, float]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        from .engines import resolve_engine

        if not math.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError("horizon must be positive and finite")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.direction not in ("up", "down"):
            raise ValueError(f"unknown direction {self.direction!r}")
        resolve_engine(self.engine)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def run(self) -> "FirstPassageEnsemble":
        """Execute every run (idempotent: re-running clears old data)."""
        from ..obs import obs
        from ..parallel import ParallelRunner, SimulationJob, resolve_checkpoint

        specs = [
            SimulationJob.from_params(
                self.params,
                seed=seed,
                horizon=self.horizon,
                direction=self.direction,
                engine=self.engine,
                topology=self.topology,
            )
            for seed in self.seeds
        ]
        journal = resolve_checkpoint(self.checkpoint, specs)
        runner = ParallelRunner(
            jobs=self.jobs,
            cache=self.cache,
            checkpoint=journal,
            on_error=self.on_error,
            timeout=self.timeout,
            retries=self.retries,
        )
        try:
            with obs().span(
                "ensemble.run",
                n_nodes=self.params.n_nodes,
                seeds=len(list(self.seeds)),
                direction=self.direction,
                engine=self.engine,
                jobs=self.jobs,
            ):
                self._passages = [
                    dict(result.first_passages) for result in runner.run(specs)
                ]
        finally:
            self.report = runner.report
            if journal is not None:
                # A clean, complete batch needs no resume marker; any
                # censored/failed seed keeps the journal for a retry.
                if runner.report.fully_accounted(len(specs)) and (
                    runner.report.incomplete == 0
                ):
                    journal.complete()
                else:
                    journal.close()
        return self

    def result_for(self, size: int) -> EnsembleResult:
        """Aggregate first-passage times to one cluster size."""
        if not self._passages:
            raise RuntimeError("call run() first")
        if not 1 <= size <= self.params.n_nodes:
            raise ValueError(f"size must be in [1, {self.params.n_nodes}]")
        times = [fp[size] for fp in self._passages if size in fp]
        censored = len(self._passages) - len(times)
        return EnsembleResult(tuple(times), censored, self.horizon)

    def curve(self) -> list[tuple[int, EnsembleResult]]:
        """(size, aggregate) for every cluster size — a Figure 10/11 curve."""
        return [
            (size, self.result_for(size))
            for size in range(1, self.params.n_nodes + 1)
        ]

    def terminal_result(self) -> EnsembleResult:
        """The headline quantity: full sync (up) or full break-up (down)."""
        target = self.params.n_nodes if self.direction == "up" else 1
        return self.result_for(target)
