"""The observability overhead benchmark (``python -m repro bench --obs``).

Runs the 20-seed Figure 10 first-passage ensemble (N=20, Tp=121 s,
Tc=0.11 s, Tr=0.1 s, cascade engine, ``jobs=1``) twice per repeat:
once with the obs runtime disabled (the production default) and once
with tracing and metrics enabled.  The two must produce identical
first-passage results (checked on every run: instrumentation is
inert), and the median wall-clock delta is the measured cost of
observability.

The snapshot is written as JSON — ``BENCH_obs.json`` at the repo root
by convention — and the acceptance budget is **overhead < 5%**.  Runs
alternate off/on so thermal or load drift hits both configurations
equally rather than biasing one side.
"""

from __future__ import annotations

import os
import statistics
from typing import Sequence

from . import configure, obs, reset
from .clock import perf_counter

__all__ = ["OVERHEAD_BUDGET_PERCENT", "format_obs_table", "run_obs_benchmark"]

#: The acceptance ceiling for enabled-vs-disabled overhead.
OVERHEAD_BUDGET_PERCENT = 5.0

#: The Figure 10 parameter point (see experiments/fig10.py).
BENCH_PARAMS = {"n_nodes": 20, "tp": 121.0, "tc": 0.11, "tr": 0.1}

#: Default horizon: long enough that most of the 20 seeds reach full
#: synchronization (mean sync time is ~2e5 s at Tr = 0.1).
DEFAULT_HORIZON = 2e5


def run_obs_benchmark(
    horizon: float = DEFAULT_HORIZON,
    seeds: Sequence[int] = tuple(range(1, 21)),
    repeats: int = 3,
    output: str | os.PathLike | None = None,
) -> dict:
    """Measure obs-on vs obs-off wall-clock on the Fig-10 ensemble.

    Parameters
    ----------
    horizon, seeds:
        Workload scale; defaults reproduce the canonical snapshot
        (20 seeds, 2e5 s).
    repeats:
        Off/on pairs to run; the snapshot reports medians.
    output:
        If given, the snapshot JSON is written there.
    """
    from ..parallel.job import SimulationJob
    from ..parallel.runner import ParallelRunner

    specs = [
        SimulationJob(
            seed=seed, horizon=horizon, direction="up", engine="cascade",
            **BENCH_PARAMS,
        )
        for seed in seeds
    ]

    def one_run(enabled: bool):
        if enabled:
            configure(enabled=True)
        else:
            reset()
        runner = ParallelRunner(jobs=1)
        start = perf_counter()
        results = runner.run(specs)
        elapsed = perf_counter() - start
        spans = len(obs().tracer)
        return elapsed, results, spans

    off_times: list[float] = []
    on_times: list[float] = []
    span_count = 0
    identical = True
    try:
        baseline = None
        for _ in range(repeats):
            elapsed, results, _spans = one_run(enabled=False)
            off_times.append(elapsed)
            if baseline is None:
                baseline = results
            identical = identical and results == baseline
            elapsed, results, span_count = one_run(enabled=True)
            on_times.append(elapsed)
            identical = identical and results == baseline
    finally:
        reset()

    median_off = statistics.median(off_times)
    median_on = statistics.median(on_times)
    overhead = (
        (median_on - median_off) / median_off * 100.0 if median_off > 0 else 0.0
    )
    payload = {
        "params": dict(BENCH_PARAMS),
        "horizon_seconds": horizon,
        "n_seeds": len(list(seeds)),
        "repeats": repeats,
        "timings_seconds": {
            "obs_disabled_median": round(median_off, 4),
            "obs_enabled_median": round(median_on, 4),
            "obs_disabled_all": [round(t, 4) for t in off_times],
            "obs_enabled_all": [round(t, 4) for t in on_times],
        },
        "overhead_percent": round(overhead, 2),
        "overhead_budget_percent": OVERHEAD_BUDGET_PERCENT,
        "within_budget": overhead < OVERHEAD_BUDGET_PERCENT,
        "results_identical_with_obs": identical,
        "spans_per_run": span_count,
    }
    from ..benchio import bench_envelope, write_bench_json

    snapshot = bench_envelope("fig10_ensemble_obs_overhead", payload)
    if output is not None:
        write_bench_json(output, snapshot)
    return snapshot


def format_obs_table(snapshot: dict) -> str:
    """Render the snapshot as the CLI's overhead table."""
    timings = snapshot["timings_seconds"]
    lines = [
        f"obs overhead: fig10 ensemble, {snapshot['n_seeds']} seeds, "
        f"horizon {snapshot['horizon_seconds']:g} s, "
        f"{snapshot['repeats']} repeat(s)",
        f"  obs disabled (median): {timings['obs_disabled_median']:.3f} s",
        f"  obs enabled  (median): {timings['obs_enabled_median']:.3f} s "
        f"({snapshot['spans_per_run']} spans/run)",
        f"  overhead: {snapshot['overhead_percent']:+.2f}% "
        f"(budget {snapshot['overhead_budget_percent']:g}%) -> "
        + ("within budget" if snapshot["within_budget"] else "OVER BUDGET"),
        "results identical with obs on/off: "
        + ("yes" if snapshot["results_identical_with_obs"] else "NO"),
    ]
    return "\n".join(lines)
