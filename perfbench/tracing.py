"""The traced run: in-memory spans around each layer's public entry points.

The benchmark does not change the program to trace it.  Instead
:func:`install` replaces each layer's public entry points (class
methods and module attributes) with wrappers that record one span per
call, plus the per-layer counts the report needs, and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, thread, start, end, parent]``; ``parent`` is the
enclosing span on the same thread (or None).  A layer's self time is
its spans' durations minus the time covered by their child spans.
Spans stay in memory until :func:`write_artifact` writes them out
when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from collections import defaultdict

from common import OUT_DIR, now

#: Every per-layer metric the traced run reports, with its unit.  The
#: ``_s`` durations are self times summed over the traced part of the run.
LAYER_METRICS = {
    "batch.run_s": "s",
    "batch.members": "count",
    "batch.boundary_scan_s": "s",
    "batch.cascade_resolution_s": "s",
    "batch.rng_refill_s": "s",
    "batch.synced_frac": "ratio",
    "cascade.run_s": "s",
    "cascade.runs": "count",
    "topo.advance_coupled_s": "s",
    "topo.advance_coupled_calls": "count",
    "runner.run_s": "s",
    "runner.executed": "count",
    "runner.cache_hits": "count",
    "runner.failed": "count",
    "cache.get_s": "s",
    "cache.hit_frac": "ratio",
    "cache.put_s": "s",
    "journal.record_s": "s",
    "journal.records": "count",
    "claims.acquire_s": "s",
    "claims.peer_hits": "count",
    "campaign.iter_shard_s": "s",
    "campaign.dispatch_s": "s",
    "campaign.report_s": "s",
    "http.read_request_s": "s",
    "http.render_response_s": "s",
    "admission.admit_s": "s",
    "admission.shed": "count",
    "coalesce.leaders": "count",
    "coalesce.followers": "count",
    "server.request_s": "s",
    "predict.resolve_s": "s",
    "predict.surrogate_frac": "ratio",
    "loadgen.late_ms": "ms",
    "loadgen.sent": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.traced_jobs_per_s": "1/s",
    "trace.untraced_jobs_per_s": "1/s",
    "trace.traced_p50_ms": "ms",
    "trace.untraced_p50_ms": "ms",
}

#: Kernel phases read from ``BatchCascade.phase_seconds``.
PHASES = ("boundary_scan", "cascade_resolution", "rng_refill")

#: Value reported for a phase metric when no batch kernel in the run
#: did phase accounting (the python and compiled backends, and the
#: sparse path, leave ``phase_seconds`` at zero).  A negative duration
#: cannot be mistaken for a phase that vanished.
NOT_REPORTED = -1.0


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._count_lock = threading.Lock()  # executor threads count too
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside one span named ``name``."""
        stack = self._stack()
        record = [name, threading.get_ident(), now(), 0.0, stack[-1] if stack else None]
        self.spans.append(record)
        stack.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = now()
            stack.pop()

    def leaf(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (async code)."""
        self.spans.append([name, threading.get_ident(), start, end, None])

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def _swap(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch(self, owner, attr: str, name: str, before=None, after=None, error=None):
        """Wrap ``owner.attr`` (a class method or module function).

        ``before(args, kwargs)`` returns a context handed to
        ``after(context, args, kwargs, result)``; ``error(exc)`` sees
        an exception before it propagates.  Hooks run outside the span.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            context = before(args, kwargs) if before is not None else None
            try:
                result = tracer.call(name, original, args, kwargs)
            except Exception as exc:
                if error is not None:
                    error(exc)
                raise
            if after is not None:
                after(context, args, kwargs, result)
            return result

        self._swap(owner, attr, wrapper)

    def patch_generator(self, owner, attr: str, name: str) -> None:
        """Wrap a generator function: one span per ``next()``."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(name, next, (iterator,), {})
                except StopIteration:
                    return
                yield item

        self._swap(owner, attr, wrapper)

    def patch_read_request(self, owner) -> None:
        """Wrap the server's ``read_request`` coroutine.

        The span starts once request bytes are buffered, so the idle
        wait of a kept-alive connection is not counted as parsing.
        """
        original = owner.__dict__["read_request"]
        tracer = self

        @functools.wraps(original)
        async def wrapper(reader):
            if not reader._buffer and not reader.at_eof():
                await reader._wait_for_data("read_request")
            start = now()
            try:
                return await original(reader)
            finally:
                tracer.leaf("http.read_request", start, now())

        self._swap(owner, "read_request", wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self, threads=None) -> dict[str, float]:
        """Self time per span name (optionally only on ``threads``)."""
        child = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                child[id(span[4])] += span[3] - span[2]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if threads is None or span[1] in threads:
                totals[span[0]] += span[3] - span[2] - child[id(span)]
        return dict(totals)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark exercises."""
    import repro.topo
    from repro.campaign import dispatch as campaign_dispatch
    from repro.campaign import report as campaign_report
    from repro.campaign import run as campaign_run
    from repro.core.batch import BatchCascade
    from repro.core.fastsim import CascadeModel
    from repro.parallel.cache import ResultCache
    from repro.parallel.checkpoint import CheckpointJournal
    from repro.parallel.claims import ClaimRegistry
    from repro.parallel.runner import ParallelRunner
    from repro.predict.service import PredictService
    from repro.serve import server as serve_server
    from repro.serve.coalesce import Coalescer
    from repro.serve.queue import AdmissionQueue, QueueFullError

    count = tracer.count

    def batch_before(args, kwargs):
        return dict(args[0].phase_seconds)

    def batch_after(phases_before, args, kwargs, result):
        batch = args[0]
        members = batch.members
        count("batch.members", len(members))
        if kwargs.get("stop_on_full_sync"):
            reached = sum(1 for m in members if m.synchronization_time is not None)
        else:
            reached = sum(1 for m in members if m.breakup_time is not None)
        count("batch.synced", reached)
        for phase in PHASES:
            count(f"batch.phase.{phase}", batch.phase_seconds[phase] - phases_before[phase])

    def runner_after(context, args, kwargs, result):
        stats = args[0].stats
        count("runner.executed", stats.executed)
        count("runner.cache_hits", stats.cache_hits)
        count("runner.failed", stats.failed + stats.timed_out)

    def cache_get_after(context, args, kwargs, result):
        count("cache.gets")
        count("cache.hits", result is not None)

    def shed(exc):
        if isinstance(exc, QueueFullError):
            count("admission.shed")

    def coalesce_after(context, args, kwargs, result):
        count("coalesce.leaders" if result[1] else "coalesce.followers")

    def resolve_after(context, args, kwargs, result):
        count("predict.resolves")
        count("predict.surrogate", result[0] == "surrogate")

    def counter(name):
        return lambda context, args, kwargs, result: count(name)

    tracer.patch(BatchCascade, "run", "batch.run", batch_before, batch_after)
    tracer.patch(CascadeModel, "run", "cascade.run", after=counter("cascade.runs"))
    tracer.patch(
        repro.topo, "advance_coupled", "topo.advance_coupled",
        after=counter("topo.advance_coupled_calls"),
    )
    tracer.patch(ParallelRunner, "run", "runner.run", after=runner_after)
    tracer.patch(ResultCache, "get", "cache.get", after=cache_get_after)
    tracer.patch(ResultCache, "put", "cache.put")
    tracer.patch(
        CheckpointJournal, "record", "journal.record", after=counter("journal.records")
    )
    tracer.patch(ClaimRegistry, "acquire", "claims.acquire")
    tracer.patch_generator(campaign_run, "iter_shard", "campaign.iter_shard")
    tracer.patch(campaign_dispatch.LocalDispatcher, "run", "campaign.dispatch")
    tracer.patch(campaign_report, "build_report", "campaign.report")
    tracer.patch_read_request(serve_server)
    tracer.patch(serve_server, "render_response", "http.render_response")
    tracer.patch(AdmissionQueue, "admit", "admission.admit", error=shed)
    tracer.patch(Coalescer, "claim", "coalesce.claim", after=coalesce_after)
    tracer.patch(PredictService, "resolve", "predict.resolve", after=resolve_after)


def layer_metrics(tracer: Tracer, threads=None) -> dict[str, float]:
    """The span- and count-derived entries of :data:`LAYER_METRICS`.

    Harness-level entries (``server.request_s``, ``loadgen.*``,
    ``trace.*``) are filled in by the workload.
    """
    selfs = tracer.self_times(threads)
    counts = tracer.counts
    values = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "s" and name.endswith("_s"):
            values[name] = selfs.get(name[: -len("_s")], 0.0)
        elif unit == "count":
            values[name] = counts.get(name, 0.0)
    members = counts.get("batch.members", 0.0)
    values["batch.synced_frac"] = counts.get("batch.synced", 0.0) / members if members else 0.0
    gets = counts.get("cache.gets", 0.0)
    values["cache.hit_frac"] = counts.get("cache.hits", 0.0) / gets if gets else 0.0
    resolves = counts.get("predict.resolves", 0.0)
    values["predict.surrogate_frac"] = (
        counts.get("predict.surrogate", 0.0) / resolves if resolves else 0.0
    )
    phases = {phase: counts.get(f"batch.phase.{phase}", 0.0) for phase in PHASES}
    reported = any(seconds > 0.0 for seconds in phases.values())
    for phase, seconds in phases.items():
        values[f"batch.{phase}_s"] = seconds if reported else NOT_REPORTED
    return values


def reconcile(tracer: Tracer, windows: dict[int, float]) -> dict:
    """Layer self times + unattributed == traced wall time, per thread.

    ``windows`` maps each reconciled thread to its traced wall time.
    With one thread this is plain wall time; with several (the serve
    trace's event loop and executor threads) the totals are
    thread-seconds and ``unattributed`` includes idle time.
    """
    rows = {}
    for thread, wall in windows.items():
        layers = tracer.self_times({thread})
        attributed = sum(layers.values())
        rows[str(thread)] = {
            "wall_s": wall,
            "layers_s": layers,
            "unattributed_s": wall - attributed,
        }
    wall = sum(windows.values())
    unattributed = sum(row["unattributed_s"] for row in rows.values())
    return {
        "threads": rows,
        "wall_s": wall,
        "unattributed_s": unattributed,
        "reconciled": all(row["unattributed_s"] >= 0.0 for row in rows.values()),
    }


def write_artifact(workload: str, seed: int, payload: dict, tracer: Tracer) -> str:
    """Write the trace artifact; span times are relative to the first span."""
    os.makedirs(OUT_DIR, exist_ok=True)
    t0 = min((span[2] for span in tracer.spans), default=0.0)
    index = {id(span): i for i, span in enumerate(tracer.spans)}
    spans = [
        [name, thread, round(start - t0, 7), round(end - t0, 7),
         index.get(id(parent)) if parent is not None else None]
        for name, thread, start, end, parent in tracer.spans
    ]
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {**payload, "span_fields": ["name", "thread", "start_s", "end_s", "parent"],
             "spans": spans},
            fh,
        )
        fh.write("\n")
    return path
