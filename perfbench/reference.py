"""A fixed reference computation that measures how fast the CPU is right now.

On a shared host another guest can share the physical core or its
caches, and then the same code takes up to twice the CPU time it takes
on a quiet host.  The benchmark runs :func:`reference_work` next to the
workload and reports work per reference: jobs completed in the CPU time
the reference took at that moment.  The reference belongs to the
benchmark, not to the program, so a change to the program moves the
workload's side of the ratio only.

Its mix follows the workloads': interpreter-bound loops over dicts and
a heap (the scalar kernels, the request path), and many small numpy
array operations (the batch kernel's numpy backend).
"""

from __future__ import annotations

import heapq
import random

try:
    import numpy as np
except ImportError:  # the program runs without numpy too
    np = None

#: Sizes fixed so that one call takes some tens of milliseconds on a
#: quiet host.
HEAP_ITEMS = 6000
ARRAY_STEPS = 600
ARRAY_SIZE = 20


def reference_work() -> float:
    """Deterministic work; returns a checksum so nothing is optimised away."""
    rng = random.Random(20250101)
    heap: list = []
    table: dict = {}
    total = 0.0
    for i in range(HEAP_ITEMS):
        heapq.heappush(heap, (rng.random(), i))
        table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
    while heap:
        value, i = heapq.heappop(heap)
        total += value * table[i & 255]
    if np is not None:
        expiry = np.linspace(0.0, 1.0, ARRAY_SIZE)
        for step in range(ARRAY_STEPS):
            first = int(np.argmin(expiry))
            near = np.abs(expiry - expiry[first]) < 0.05
            expiry = np.where(near, expiry + 1.0, expiry) * 1.0001
            total += float(expiry.sum()) + step * int(near.sum())
    return total
