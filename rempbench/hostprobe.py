"""Host-speed probe: a fixed pure-Python workload timed between calls.

On a shared virtual machine the speed of the host drifts by tens of
percent within minutes, and CPU time drifts with wall time, so neither
clock alone says whether the program or the host got slower.  The probe
runs the same dict/set/heap/tuple loop and the same lookups into a fixed
table every time, with the cyclic garbage collector off, on objects it
owns: its duration depends on the host's current speed, not on the
program's heap.  A call bracketed by two probes is rescaled to a
reference host speed by :func:`factor`.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

import benchspec as spec

#: Iterations of the small-table loop and lookups into the large table
#: per chunk; three chunks make one probe (~40 ms on a 2-vCPU VM).
SMALL_ITERATIONS = 2000
LARGE_LOOKUPS = 15000
CHUNKS = 3

#: The large table is built once per process and never changes: lookups
#: into it miss the CPU caches the way the program's big dicts do, which
#: the small loop alone does not (host slowdowns hit both, not equally).
_LARGE_SIZE = 1 << 17
_LARGE = {(i * 2654435761) % (1 << 31): i for i in range(_LARGE_SIZE)}
_LARGE_KEYS = list(_LARGE)
_ORDER = random.Random(1).sample(range(_LARGE_SIZE), LARGE_LOOKUPS)
_PROBE_KEYS = tuple(_LARGE_KEYS[i] for i in _ORDER)


def _chunk() -> float:
    """Time one fixed chunk of dict, set, heap and tuple work."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    heap: list[tuple[int, int]] = []
    for i in range(SMALL_ITERATIONS):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        seen.add((key, i & 15))
        heapq.heappush(heap, (key, i))
        if len(heap) > 128:
            heapq.heappop(heap)
    large = _LARGE
    total = 0
    for key in _PROBE_KEYS:
        total += large[key]
    if len(table) != 1021 or total <= 0:  # keeps the work observable
        raise AssertionError("probe workload changed shape")
    return time.perf_counter() - started


def probe() -> float:
    """Seconds per probe chunk now: the median of :data:`CHUNKS` chunks.

    The collector is disabled for the duration, so a large heap in the
    caller cannot trigger a collection inside the timed region; the
    median discards a chunk that was preempted.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_chunk() for _ in range(CHUNKS))
    finally:
        if was_enabled:
            gc.enable()


def factor(probe_before: float, probe_after: float) -> float:
    """What a time measured between two probes is multiplied by.

    ``(P_REF / mean(before, after)) ** PROBE_EXPONENT`` rescales it to a
    host whose probe chunk takes ``benchspec.P_REF`` seconds;
    ``benchspec.PROBE_EXPONENT`` says why the exponent is below one.
    """
    return (spec.P_REF / ((probe_before + probe_after) / 2.0)) ** spec.PROBE_EXPONENT
