"""The shared envelope for every ``BENCH_*.json`` snapshot.

``BENCH_obs.json`` and ``BENCH_predict.json`` (``python -m repro
bench --obs|--predict``) are diffed across commits, so their framing
must not drift: every snapshot goes through :func:`bench_envelope`,
which stamps one schema version, the model version the numbers were
produced under, and the host context that makes a wall-clock figure
interpretable (CPU count, platform, Python).  Benchmark-specific
payloads ride alongside — the envelope owns the frame, never the
measurements.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

from .parallel.job import MODEL_VERSION

__all__ = ["BENCH_SCHEMA", "bench_envelope", "host_info", "write_bench_json"]

#: Bump when envelope *framing* changes shape (not when a benchmark
#: adds payload fields — payloads are free to grow).
BENCH_SCHEMA = 1


def host_info() -> dict:
    """The machine context a wall-clock number was measured in."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def bench_envelope(benchmark: str, payload: dict) -> dict:
    """Wrap one benchmark's payload in the shared frame.

    The payload's keys land at the top level next to the frame fields
    (existing snapshots stay greppable); a payload may not shadow a
    frame field.
    """
    frame = {
        "bench_schema": BENCH_SCHEMA,
        "benchmark": benchmark,
        "model_version": MODEL_VERSION,
        "host": host_info(),
    }
    clash = sorted(set(frame) & set(payload))
    if clash:
        raise ValueError(f"payload shadows envelope field(s): {', '.join(clash)}")
    return {**frame, **payload}


def write_bench_json(path: str | os.PathLike, snapshot: dict) -> Path:
    """Write a snapshot (already enveloped) as stable, diffable JSON."""
    target = Path(path)
    target.write_text(json.dumps(snapshot, indent=2, sort_keys=False) + "\n")
    return target
