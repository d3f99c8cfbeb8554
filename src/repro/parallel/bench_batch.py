"""The batch-kernel performance snapshot (``python -m repro bench --batch``).

Runs the Figure 10 parameter point (N=20, Tp=121 s, Tc=0.11 s,
Tr=0.1 s, horizon 2e5 s) as a 100-member ensemble — the regime the
batch kernel exists for; the paper's own figure averages 20 of these
members — through every execution configuration:

* ``cascade_jobs1``   — the serial cascade engine, the PR-1 baseline.
* ``batch_python``    — the batch kernel, pure-Python scalar path
  (the portable floor; no numpy required).
* ``batch_compiled``  — the scalar kernel as the bundled C module;
  reported when it resolves.
* ``batch_jobsN``     — batch jobs over the process pool, pickle
  transport, on the default backend (``compiled`` wherever it
  resolves).
* ``batch_jobsN_shm`` — the same pool with shared-memory result
  slabs (:mod:`repro.parallel.shm`).

Timing discipline: the serial baseline and the backend rows are
measured **interleaved** over ``reps`` rounds and the per-row minimum
is reported — on a shared box the minimum of interleaved rounds is
the honest estimate of each configuration's cost, because background
load inflates all rows in the same rounds instead of whichever row
ran last.  The C kernel's own build cost — a cold compile into an
empty cache and a load from the cache — is measured once and
recorded beside the rows; it is set-up cost, not part of any row.

All rows must produce identical first-passage times (checked on every
bench run), so the table is a pure wall-clock comparison.  The
snapshot is written as JSON — ``BENCH_batch.json`` at the repo root
by convention — so the acceptance numbers (compiled ≥ 10x over
serial cascade; pure Python no worse than 10% under it) stay diffable
across commits.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Sequence

from ..benchio import bench_envelope, write_bench_json
from ..core import BatchCascade
from ..core.batch import compiled_backend_available, default_backend
from .bench import BENCH_PARAMS, DEFAULT_HORIZON
from .job import JobResult, SimulationJob
from .runner import ParallelRunner
from .shm import shm_available

__all__ = ["format_batch_table", "run_batch_benchmark"]

#: Acceptance thresholds, evaluated on every run and stored in the
#: snapshot: the compiled kernel must clear 10x over the serial
#: cascade; the pure-python kernel must stay within 10% of it.
COMPILED_SPEEDUP_TARGET = 10.0
PYTHON_SPEEDUP_TARGET = 0.9


def _specs(
    horizon: float, seeds: Sequence[int], engine: str
) -> list[SimulationJob]:
    return [
        SimulationJob(
            seed=seed, horizon=horizon, direction="up", engine=engine, **BENCH_PARAMS
        )
        for seed in seeds
    ]


def _run_backend(specs: list[SimulationJob], backend: str) -> list[JobResult]:
    """One kernel pass over the ensemble."""
    first = specs[0]
    batch = BatchCascade(
        first.params,
        seeds=[spec.seed for spec in specs],
        initial_phases="unsynchronized",
        backend=backend,
    )
    batch.run(until=first.horizon, stop_on_full_sync=True)
    return [
        JobResult(first_passages=dict(member.first_time_at_least))
        for member in batch.members
    ]


def _c_build_seconds() -> dict[str, float]:
    """The C kernel's cold build and cached load, in a scratch cache."""
    from ..core import _batch_kernel

    with tempfile.TemporaryDirectory() as cache:
        lib_path = os.path.join(cache, "batch_kernel.so")
        start = time.perf_counter()
        _batch_kernel._build(lib_path)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        _batch_kernel._load(lib_path)
        cached = time.perf_counter() - start
    return {"cold_build": round(cold, 4), "cached_load": round(cached, 4)}


def run_batch_benchmark(
    jobs: int | None = None,
    horizon: float = DEFAULT_HORIZON,
    seeds: Sequence[int] = tuple(range(1, 101)),
    output: str | os.PathLike | None = None,
    reps: int = 3,
) -> dict:
    """Run the batch-vs-serial configurations; return/write the snapshot.

    Parameters
    ----------
    jobs:
        Pool width for the pooled rows; defaults to CPU count.
    horizon, seeds:
        The ensemble's run settings (defaults reproduce the canonical
        snapshot: the Fig-10 point, 100 members, 2e5 s).
    output:
        If given, the snapshot JSON is written there.
    reps:
        Interleaved measurement rounds per row; each row reports its
        minimum (see module docstring).
    """
    jobs = jobs or os.cpu_count() or 1
    reps = max(1, reps)
    seeds = list(seeds)
    batch_specs = _specs(horizon, seeds, "batch")
    cascade_specs = _specs(horizon, seeds, "cascade")

    backends = ["python"]
    have_compiled = compiled_backend_available()
    if have_compiled:
        backends.append("compiled")

    timings: dict[str, float] = {}
    results: dict[str, list[JobResult]] = {}

    def record(name: str, elapsed: float, outcome) -> None:
        if name not in timings or elapsed < timings[name]:
            timings[name] = elapsed
            results[name] = outcome

    # Interleaved rounds: baseline and kernel rows alternate within
    # each rep so shared-box load inflates them together.
    for _rep in range(reps):
        start = time.perf_counter()
        serial = ParallelRunner(jobs=1).run(cascade_specs)
        record("cascade_jobs1", time.perf_counter() - start, serial)
        for backend in backends:
            start = time.perf_counter()
            outcome = _run_backend(batch_specs, backend)
            record(f"batch_{backend}", time.perf_counter() - start, outcome)

    # Pooled rows ride once (they wrap the same kernels; their point
    # is transport overhead, not kernel speed).
    pooled_runner = ParallelRunner(jobs=jobs)
    start = time.perf_counter()
    pooled = pooled_runner.run(batch_specs)
    record("batch_jobsN", time.perf_counter() - start, pooled)

    have_shm = shm_available()
    if have_shm:
        shm_runner = ParallelRunner(jobs=jobs, transport="shm")
        start = time.perf_counter()
        shipped = shm_runner.run(batch_specs)
        record("batch_jobsN_shm", time.perf_counter() - start, shipped)

    reference = results["cascade_jobs1"]
    identical = all(row == reference for row in results.values())
    baseline = timings["cascade_jobs1"]
    speedups = {
        name: round(baseline / t, 2) if t > 0 else float("inf")
        for name, t in timings.items()
    }
    payload = {
        "params": dict(BENCH_PARAMS),
        "horizon_seconds": horizon,
        "n_seeds": len(seeds),
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "reps": reps,
        # The backend the pooled rows ran on; the kernel rows name
        # their backend explicitly.
        "default_backend": default_backend(),
        "compiled_available": have_compiled,
        "shm_available": have_shm,
        "timings_seconds": {name: round(t, 4) for name, t in timings.items()},
        "speedup_vs_serial_cascade": speedups,
        # One-off set-up cost of the compiled backend (None without it).
        "c_build_seconds": _c_build_seconds() if have_compiled else None,
        "results_identical_across_configs": identical,
        # The acceptance thresholds, evaluated on this box.
        "acceptance": {
            "compiled_speedup_target": COMPILED_SPEEDUP_TARGET,
            "compiled_speedup_met": (
                speedups["batch_compiled"] >= COMPILED_SPEEDUP_TARGET
                if "batch_compiled" in speedups
                else None
            ),
            "python_within_10pct_target": PYTHON_SPEEDUP_TARGET,
            "python_within_10pct_met": (
                speedups["batch_python"] >= PYTHON_SPEEDUP_TARGET
            ),
        },
        "run_report_pooled": pooled_runner.report.counts(),
    }
    snapshot = bench_envelope("fig10_batch_kernel", payload)
    if output is not None:
        write_bench_json(output, snapshot)
    return snapshot


def format_batch_table(snapshot: dict) -> str:
    """Render a batch snapshot as the CLI's speedup table."""
    rows = [("configuration", "wall-clock (s)", "speedup vs serial cascade")]
    labels = {
        "cascade_jobs1": "cascade engine, jobs=1 (baseline)",
        "batch_python": "batch kernel, python backend",
        "batch_compiled": "batch kernel, compiled backend",
        "batch_jobsN": f"batch kernel over pool, jobs={snapshot['jobs']}",
        "batch_jobsN_shm": (
            f"batch kernel over pool + shm slabs, jobs={snapshot['jobs']}"
        ),
    }
    for name, seconds in snapshot["timings_seconds"].items():
        rows.append(
            (
                labels.get(name, name),
                f"{seconds:.3f}",
                f"{snapshot['speedup_vs_serial_cascade'][name]:.2f}x",
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(3)]
    lines = [
        f"fig10 ensemble: {snapshot['n_seeds']} members, horizon "
        f"{snapshot['horizon_seconds']:g} s, {snapshot['cpu_count']} CPU(s), "
        f"min of {snapshot['reps']} interleaved round(s), default backend "
        f"{snapshot['default_backend']}"
    ]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    build = snapshot.get("c_build_seconds")
    if build:
        lines.append(
            f"C kernel build: {build['cold_build']:.3f} s cold, "
            f"{build['cached_load'] * 1000:.1f} ms from cache (set-up, not in any row)"
        )
    else:
        lines.append("compiled backend: not resolvable (row skipped)")
    lines.append(
        "results identical across configurations: "
        + ("yes" if snapshot["results_identical_across_configs"] else "NO")
    )
    return "\n".join(lines)
