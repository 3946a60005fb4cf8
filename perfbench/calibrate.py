"""Host-speed normalization of measured times.

The benchmark shares a small host with other tenants, which slow every
process by up to 1.7x for seconds at a time. Over 20-s runs that drift made
the median op time of one workload range from 123 to 203 ms across five seeds.
The drift hits a fixed reference kernel in the same proportion: over the
same minute, op time divided by reference time stayed within a few percent.

So every op time the benchmark reports is a measured time, multiplied by
``REF_NOMINAL_MS`` over the reference kernel's time, as measured by the
same process between neighbouring ops. The result reads as milliseconds
on a host that runs the kernel in ``REF_NOMINAL_MS``. The kernel does not
use ``nshess``, so no change to the library moves it. Never change the
kernel or the constant: either would shift every reported time.

Set-up time is scaled the same way, by the kernel run in the set-up
process right after set-up: over repeated blocks of nine fresh processes,
with and without busy loops competing for the two cores, raw set-up medians
ranged from 0.19 to 0.38 s and scaled ones from 0.16 to 0.21 s; the
medians of ten such runs of 15 set-ups stayed within 7% of each other. A kernel
run in the parent did not track the child. Import and cold-start times are
reported as measured.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the quiet 2-core host the benchmark was defined on.
REF_NOMINAL_MS = 3.5

_POINTS = [np.full(20, i * 1e-3) for i in range(40)]
_MATRIX = np.arange(400.0).reshape(20, 20) % 7.0 + np.eye(20)


def _kernel() -> float:
    """Small-array arithmetic, dict inserts and 20x20 SVDs, like the library's hot loops."""
    acc = 0.0
    seen = {}
    for i, p in enumerate(_POINTS):
        for q in _POINTS[:i]:
            acc += float(np.max(np.abs(p - q)))
        seen[p.tobytes()] = i
    for _ in range(4):
        acc += float(np.linalg.svd(_MATRIX, compute_uv=False)[0])
    return acc


def reference_ms() -> float:
    """Wall time of one run of the reference kernel, in milliseconds."""
    start = time.perf_counter()
    _kernel()
    return (time.perf_counter() - start) * 1e3


def scales(ref_ms: list[float]) -> list[float]:
    """Per-op factor ``REF_NOMINAL_MS / mean(reference times around the op)``.

    ``ref_ms`` holds one more sample than there are ops: ``ref_ms[i]`` was
    taken just before op ``i`` and ``ref_ms[i + 1]`` just after it. Nearer
    samples track the host better than a wider window, because its speed
    changes within a second.
    """
    return [2.0 * REF_NOMINAL_MS / (a + b) for a, b in zip(ref_ms, ref_ms[1:])]
