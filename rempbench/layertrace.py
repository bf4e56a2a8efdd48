"""Spans and counts recorded from outside the program.

The benchmark does not edit ``repro``: it replaces the layer functions
named in ``benchspec.SPANS`` with timing wrappers for the length of a
traced pass, and restores them afterwards.  A span's self time is its
duration minus the time its child spans cover, so the self times of one
call sum to the part of the call that some layer span covered; the rest
is reported as ``unattributed_s``.

Only the main thread records spans (every workload drives the program
from it; the service runs no background session here).  Counts that a
layer's arguments or results reveal are taken by the same wrappers.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter, defaultdict

import benchspec as spec


def _resolve(target: str):
    """``module:Qual.name`` -> (owner object, attribute name, original)."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patcher:
    """Replaces functions and restores every replacement on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make_wrapper) -> None:
        owner, attr, original = _resolve(target)
        wrapper = make_wrapper(original)
        owners = [owner]
        if isinstance(owner, type(sys)):
            # A module-level function is also bound by name in every
            # module that imported it with ``from ... import``.
            owners += [
                module
                for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not owner
                and getattr(module, attr, None) is original
            ]
        for each in owners:
            self._saved.append((each, attr, original))
            setattr(each, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class RoundRecorder:
    """Timestamps of every posted crowd batch (``CrowdPlatform.ask_batch``).

    Installed in every run, traced or not: a batch is one crowd round,
    so these give ``rounds``, the wait before a resolution's first
    question and, on ``paper_batch``, the machine time between rounds.
    ``before_batch``, when set, runs before each batch, outside the
    batch's timestamps.
    """

    def __init__(self) -> None:
        self.asks: list[tuple[float, float]] = []
        self.before_batch = None
        self._patcher = Patcher()

    def install(self) -> None:
        asks = self.asks
        recorder = self

        def make(original):
            def ask_batch(platform, questions):
                if recorder.before_batch is not None:
                    recorder.before_batch()
                started = time.perf_counter()
                result = original(platform, questions)
                asks.append((started, time.perf_counter()))
                return result

            return ask_batch

        self._patcher.wrap("repro.crowd.platform:CrowdPlatform.ask_batch", make)

    def take(self) -> list[tuple[float, float]]:
        taken = list(self.asks)
        self.asks.clear()
        return taken

    def uninstall(self) -> None:
        self._patcher.restore()


class Tracer:
    """Self time per span name, call counts, and layer counts."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []
        self._main = threading.main_thread().ident
        self._patcher = Patcher()

    # -- span arithmetic ------------------------------------------------
    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        self.calls[frame[0]] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def skip(self, seconds: float) -> None:
        """Leave ``seconds`` just spent out of the open span's self time."""
        if self._stack:
            self._stack[-1][2] += seconds

    def _span_wrapper(self, name: str, original, around=None):
        tracer = self
        main = self._main

        def wrapper(*args, **kwargs):
            if threading.get_ident() != main:
                return original(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                if around is None:
                    return original(*args, **kwargs)
                return around(lambda: original(*args, **kwargs), args)
            finally:
                tracer.exit(frame)

        wrapper.__wrapped__ = original
        return wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        arounds = self._arounds()
        for name, targets in spec.SPANS.items():
            for target in targets:
                around = arounds.get(target)
                self._patcher.wrap(
                    target,
                    lambda original, n=name, a=around: self._span_wrapper(n, original, a),
                )
        counts = self.counts

        def count_only(key, original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patcher.wrap(
            "repro.ml.decision_tree:DecisionTreeClassifier.fit",
            lambda original: count_only("ml.trees", original),
        )
        # The store's single write funnel: one count per write transaction.
        self._patcher.wrap(
            "repro.store.store:RunStore._write",
            lambda original: count_only("store.writes", original),
        )

    def uninstall(self) -> None:
        self._patcher.restore()

    def _arounds(self) -> dict:
        """Count hooks keyed by target: ``around(call, args) -> result``."""
        counts = self.counts

        def pruning(call, args):
            retained = call()
            counts["core.candidate_pairs"] += len(args[0])
            counts["core.retained_pairs"] += len(retained)
            return retained

        def truth(call, args):
            result = call()
            counts["core.truth.answered"] += len(args[0])
            counts["core.truth.resolved"] += len(result.matches) + len(result.non_matches)
            return result

        def ask(call, args):
            before = args[0].questions_asked
            result = call()
            counts["crowd.questions"] += args[0].questions_asked - before
            return result

        def prepared(call, args):
            service = args[0]
            before = service.cache_hits
            result = call()
            counts["service.cache_lookups"] += 1
            counts["service.cache_hits"] += service.cache_hits - before
            return result

        def plan(call, args):
            result = call()
            counts["partition.shards"] += len(result.shards)
            return result

        def stream_run(call, args):
            outcome = call()
            counts["stream.units"] += len(outcome.records)
            counts["stream.units_reused"] += len(outcome.reused_keys)
            return outcome

        return {
            "repro.core.pruning:partial_order_pruning": pruning,
            "repro.core.truth:infer_truths": truth,
            "repro.crowd.platform:CrowdPlatform.ask": ask,
            "repro.service.service:MatchingService.prepared": prepared,
            "repro.partition.runner:ParallelRunner.plan": plan,
            "repro.stream.runner:StreamRunner.run_full": stream_run,
            "repro.stream.runner:StreamRunner.run_incremental": stream_run,
        }

    def take(self) -> tuple[dict[str, float], Counter]:
        """Self times and counts since the last take (then reset)."""
        self_s = dict(self.self_s)
        counts = Counter(self.counts)
        counts.update({f"{name}.calls": n for name, n in self.calls.items()})
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return self_s, counts
