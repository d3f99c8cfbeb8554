"""Helpers shared by the benchmark's parent and child processes.

Everything here is stdlib-only: the parent (``run.py``) imports it
before it knows whether the repository's sources are present.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

#: Directory (relative to the checkout root) for per-run scratch state:
#: result caches, checkpoint journals, the C-kernel build directory.
WORK_DIR = ".bench_work"

#: Directory (relative to the checkout root) for trace artifacts.
OUT_DIR = ".bench_out"

#: The package sources the benchmark runs against.
SRC_DIR = "src"

WORKLOADS = ("fig10-dense", "fig16-sparse", "serve-mixed")

#: Environment switch used only by ``selftest.py``: perturb the gates'
#: reference answers, so that a working gate must report mismatches.
CORRUPT_ENV = "PERFBENCH_CORRUPT_GATE"

now = time.perf_counter


def use_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` (and let spawned
    fleet workers do the same)."""
    src = os.path.abspath(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)
    path = os.environ.get("PYTHONPATH", "")
    if src not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); ``inf`` entries
    (failed requests) sort last, as a missed latency limit should."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return percentile(values, 50.0)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, or 0.0."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def process_cpu() -> float:
    """CPU seconds of this process (every thread) and its reaped
    children.  Unlike wall time, this leaves out time spent waiting for
    the hypervisor (steal) or for other processes; it still moves when
    another guest shares the physical core or its caches."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def proc_cpu_s(pid: int) -> float:
    """CPU seconds (user + system, every thread) of a live process, or 0.0."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    # Fields 14 and 15 of proc(5); the split drops the first two.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def load_manifest(root: str = ".") -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)
