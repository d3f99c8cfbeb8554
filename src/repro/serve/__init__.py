"""``repro.serve`` — the zero-dependency simulation-serving layer.

Turns the job/cache/obs stack into a long-running service: an asyncio
HTTP/1.1 JSON API (hand-rolled on ``asyncio.start_server``, the same
way ``repro.net`` hand-rolls its packet layer) with

* **single-flight coalescing** on content-addressed job hashes — N
  identical concurrent requests cost one simulation and all receive
  the same bytes (:mod:`repro.serve.coalesce`);
* **bounded admission with backpressure** — over the depth limit,
  requests shed with ``429`` and a deterministic, job-keyed
  ``Retry-After`` (:mod:`repro.serve.queue`), never an unbounded
  queue;
* **write-through caching** on the PR-1 :class:`~repro.parallel
  .ResultCache`, so a restarted server answers warm;
* **deadlines** that reuse the PR-2 watchdog semantics — a hung job
  is a ``504``, never a wedged event loop;
* **graceful drain** on SIGTERM (:mod:`repro.serve.lifecycle`) —
  ``/readyz`` flips to 503, in-flight work finishes, exit 0;
* **prefork multi-worker serving** (:mod:`repro.serve.supervisor`) —
  ``workers >= 2`` binds the socket once in a parent that spawns,
  monitors, and crash-respawns asyncio workers (deterministic
  key-seeded backoff), with single-flight promoted to cross-process
  claim records next to the cache
  (:class:`~repro.parallel.ClaimRegistry`) and SIGTERM performing a
  coordinated whole-fleet drain;
* a stdlib **client** and a seeded, deterministic **load generator**
  whose periodic clients jitter their timers with the paper's own
  ``[Tp - Tr, Tp + Tr]`` rule (:mod:`repro.serve.loadgen`).

Serving never touches simulation semantics: response bodies are
canonical JSON that is byte-identical to what the direct
``ParallelRunner`` path produces for the same
:class:`~repro.parallel.SimulationJob` spec.
"""

from __future__ import annotations

from .client import ApiResponse, ServeClient
from .coalesce import CoalesceCancelledError, Coalescer
from .config import ServeConfig
from .lifecycle import BackgroundServer, serve_forever
from .loadgen import (
    LoadPlan,
    build_schedule,
    default_specs,
    format_report,
    run_chaos_load,
    run_load,
)
from .queue import AdmissionQueue, QueueFullError
from .server import SimulationServer, figure_payload, simulation_payload
from .supervisor import SupervisedServer, Supervisor, supervise

__all__ = [
    "AdmissionQueue",
    "ApiResponse",
    "BackgroundServer",
    "CoalesceCancelledError",
    "Coalescer",
    "LoadPlan",
    "QueueFullError",
    "ServeClient",
    "ServeConfig",
    "SimulationServer",
    "SupervisedServer",
    "Supervisor",
    "build_schedule",
    "default_specs",
    "figure_payload",
    "format_report",
    "run_chaos_load",
    "run_load",
    "serve_forever",
    "simulation_payload",
    "supervise",
]
