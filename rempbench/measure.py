"""Timing of client calls, normalized by host-speed probes.

A :class:`Clock` times each call the client makes into the program: wall
time, CPU time of the process and of reaped children, the crowd batches
posted during the call, and (when a tracer is attached) the layer self
times.  A probe runs before a call, and before a crowd batch inside a
call, once ``benchspec.PROBE_SPACING_S`` seconds passed since the
previous probe, and once more when the pass closes.  Probe time inside a
call is taken out of its wall and CPU time.  :meth:`Clock.span` cuts an
interval at the probes inside it and rescales each piece by
``(P_REF / mean(before, after)) ** PROBE_EXPONENT`` from the probes on
either side of the piece.  A call of several seconds is thus normalized
piece by piece, as the host's speed drifts within it.
"""

from __future__ import annotations

import bisect
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import benchspec as spec
from hostprobe import factor, probe

#: A percentile is the mean of the order statistics within this many
#: quantiles of its rank (see :func:`quantile`).
HALF_WIDTH = 0.05


def _cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Call:
    """One client call into the program.

    ``wall``, ``cpu`` and ``factor`` are final once the clock is closed:
    ``wall`` and ``cpu`` exclude the probes run inside the call, and
    ``factor`` is the normalized wall time over ``wall``.
    """

    start: float
    end: float
    cpu: float
    asks: list[tuple[float, float]]
    self_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    wall: float = 0.0
    factor: float = 1.0


class Clock:
    """Times the calls of one pass; see the module docstring."""

    def __init__(self, rounds, tracer=None) -> None:
        self.rounds = rounds
        self.tracer = tracer
        self.calls: list[Call] = []
        #: (start, end, seconds per probe chunk) of every probe, in order.
        self.probes: list[tuple[float, float, float]] = []
        self._last_probe = -math.inf
        self._pid = os.getpid()
        self._probe_cpu = 0.0
        rounds.before_batch = self._between_rounds

    def _probe(self) -> float:
        """Run a probe; return the CPU time it took."""
        cpu0 = time.process_time()
        started = time.perf_counter()
        value = probe()
        now = time.perf_counter()
        self.probes.append((started, now, value))
        self._last_probe = now
        if self.tracer is not None:
            self.tracer.skip(now - started)
        return time.process_time() - cpu0

    def _between_rounds(self) -> None:
        """Probe before a crowd batch posted in this process, if due."""
        if os.getpid() == self._pid and time.perf_counter() - self._last_probe >= (
            spec.PROBE_SPACING_S
        ):
            self._probe_cpu += self._probe()

    def call(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed call; return its result."""
        if time.perf_counter() - self._last_probe >= spec.PROBE_SPACING_S:
            self._probe()
        self.rounds.take()
        if self.tracer is not None:
            self.tracer.take()
        self._probe_cpu = 0.0
        cpu0 = _cpu_now()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            record = Call(
                start=start,
                end=end,
                cpu=_cpu_now() - cpu0 - self._probe_cpu,
                asks=self.rounds.take(),
            )
            if self.tracer is not None:
                record.self_s, record.counts = self.tracer.take()
            self.calls.append(record)

    def close(self) -> None:
        """Probe once more and normalize every call."""
        self.rounds.before_batch = None
        self._probe()
        for record in self.calls:
            record.wall, normalized = self.span(record.start, record.end)
            record.factor = normalized / record.wall if record.wall else 1.0

    def span(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, normalized seconds) from ``start`` to ``end``, probes excluded.

        Valid once the clock is closed; ``start`` and ``end`` lie in one call
        or between calls, never inside a probe.
        """
        starts = [p[0] for p in self.probes]
        ends = [p[1] for p in self.probes]
        first = bisect.bisect_left(starts, start)
        last = bisect.bisect_right(ends, end)
        # The pieces between the probes inside [start, end].
        edges = [start] + [t for p in self.probes[first:last] for t in p[:2]] + [end]
        raw = normalized = 0.0
        for low, high in zip(edges[::2], edges[1::2]):
            before = self.probes[bisect.bisect_right(ends, low) - 1][2]
            after = self.probes[bisect.bisect_left(starts, high)][2]
            raw += high - low
            normalized += (high - low) * factor(before, after)
        return raw, normalized


def quantile(values: list[float], q: float) -> tuple[float, int]:
    """The ``q`` quantile, and how many samples lie above rank ``ceil(q n)``.

    The estimate is the mean of the order statistics between the
    ``q - HALF_WIDTH`` and ``q + HALF_WIDTH`` quantiles.  A latency
    sample mixes a few call kinds of very different lengths, and a
    single order statistic jumps between them from input to input.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    eps = 1e-9  # (0.5 + 0.05) * 100 must give 55, not 55.000000000000007
    low = max(0, math.floor((q - HALF_WIDTH) * n + eps))
    high = min(n, math.ceil((q + HALF_WIDTH) * n - eps))
    return statistics.fmean(ordered[low:high]), n - max(1, math.ceil(q * n - eps))


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
