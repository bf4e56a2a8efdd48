"""The workloads: inputs made from the seed, one pass, and the reference.

Every workload is a closed loop: this process is the only client and it
waits for each call.  The program runs inline in it, so one core is
busy.  A pass resolves the workload's whole input once.

Before each pass, untimed, :func:`reset_caches` collects garbage and
clears ``normalize_label``'s LRU, and the pass builds a fresh
``RunStore``, ``MatchingService`` and ``SubstrateCache``, so pass N never
rides on pass N-1's caches.  Within a pass some caches stay warm on
purpose, because a user's process keeps them too:

* ``load_dataset`` and ``evolving_bundle`` are LRU-cached; their entries
  are the inputs, generated during set-up, which the service re-reads.
* ``normalize_label``'s LRU fills over the pass, shared by every
  resolution in it, as in any long-lived process.
* the warm sweep of ``paper_service`` reads the prepared states that the
  cold sweep wrote to the same store: that read path is what it measures.
* a stream lineage's service keeps its memory cache and substrate arenas
  from step to step: reusing them is what ``update`` is for.

Each resolution's output is reduced to a digest of its result document
and compared with a reference computed after the passes by another path.
"""

from __future__ import annotations

import gc
import hashlib
import json
import traceback
from dataclasses import dataclass, field

from repro.accel.runtime import force_accel
from repro.core import Remp, RempConfig
from repro.crowd import CrowdPlatform
from repro.datasets import DATASET_NAMES, evolving_bundle, load_dataset
from repro.eval import evaluate_matches
from repro.partition import CrowdSpec
from repro.service import MatchingService
from repro.store import RunStore
from repro.store.serialize import result_to_doc
from repro.stream import StreamRunner
from repro.substrate import SubstrateCache
from repro.text.normalize import normalize_label

import benchspec as spec


def digest(result) -> str:
    """sha256 of the canonical result document."""
    doc = json.dumps(result_to_doc(result), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def reset_caches() -> None:
    gc.collect()
    normalize_label.cache_clear()


def store_bytes(store: RunStore) -> int:
    """Size of the store's SQLite database (the store keeps no public size)."""
    conn = store._conn
    pages = conn.execute("PRAGMA page_count").fetchone()[0]
    return pages * conn.execute("PRAGMA page_size").fetchone()[0]


@dataclass
class PassOutcome:
    """What one pass produced; timings as (raw, normalized) seconds."""

    digests: dict[str, str] = field(default_factory=dict)
    f1: list[float] = field(default_factory=list)
    questions: int = 0
    failed: int = 0
    #: Each latency sample (``call_s_*``).
    samples: list[tuple[float, float]] = field(default_factory=list)
    #: From a resolution's start to its first batch.
    first_waits: list[tuple[float, float]] = field(default_factory=list)
    #: Extra per-layer values, already normalized.
    layer: dict[str, float] = field(default_factory=dict)


class PaperBatch:
    """``Remp.run`` on every paper-profile world, in memory."""

    name = "paper_batch"

    def __init__(self, seed: int) -> None:
        self.worlds = [
            (f"{name}/{world}", name, world, load_dataset(name, seed=world, scale=1.0))
            for name in DATASET_NAMES
            for world in range(seed * spec.PAPER_WORLDS, (seed + 1) * spec.PAPER_WORLDS)
        ]

    def platform(self, world: int, bundle) -> CrowdPlatform:
        return CrowdPlatform.with_simulated_workers(
            bundle.gold_matches, error_rate=spec.ERROR_RATE, seed=world
        )

    def run_pass(self, clock, outcome: PassOutcome) -> None:
        runs = []
        for key, _, world, bundle in self.worlds:
            platform = self.platform(world, bundle)
            try:
                result = clock.call(Remp(seed=world).run, bundle.kb1, bundle.kb2, platform)
            except Exception:
                traceback.print_exc()
                outcome.failed += 1
                continue
            runs.append(clock.calls[-1])
            outcome.digests[key] = digest(result)
            outcome.f1.append(evaluate_matches(result.matches, bundle.gold_matches).f1)
            outcome.questions += result.questions_asked
        clock.close()
        for call in runs:
            # One resolution is one call, and one latency sample.
            outcome.samples.append((call.wall, call.wall * call.factor))
            if call.asks:
                outcome.first_waits.append(clock.span(call.start, call.asks[0][0]))

    def reference(self) -> dict[str, str]:
        """The same runs through the pure-Python reference kernels."""
        digests = {}
        with force_accel(False):
            for key, _, world, bundle in self.worlds:
                result = Remp(seed=world).run(bundle.kb1, bundle.kb2, self.platform(world, bundle))
                digests[key] = digest(result)
        return digests


class PaperService(PaperBatch):
    """The same worlds as sessions of ``MatchingService``: cold then warm."""

    name = "paper_service"

    def run_pass(self, clock, outcome: PassOutcome) -> None:
        store = clock.call(RunStore, ":memory:")
        sessions = []
        sweep_calls = {}
        for sweep in ("cold", "warm"):
            first = len(clock.calls)
            service = clock.call(
                MatchingService,
                store,
                max_workers=1,
                error_rate=spec.ERROR_RATE,
                substrate_cache=SubstrateCache(),
            )
            for key, name, world, bundle in self.worlds:
                try:
                    result, calls = self._session(clock, service, name, world)
                except Exception:
                    traceback.print_exc()
                    outcome.failed += 1
                    continue
                sessions.append((sweep, calls))
                outcome.digests[f"{sweep}/{key}"] = digest(result)
                outcome.f1.append(evaluate_matches(result.matches, bundle.gold_matches).f1)
                outcome.questions += result.questions_asked
            clock.call(service.close)
            sweep_calls[sweep] = clock.calls[first:]
        outcome.layer["store.db_bytes"] = store_bytes(store)
        store.close()
        clock.close()
        waits: dict[str, list[float]] = {"cold": [], "warm": []}
        for sweep, calls in sessions:
            submit, first_step, *rest = calls
            asked = first_step.asks[0][0] if first_step.asks else first_step.end
            raw, normalized = clock.span(first_step.start, asked)
            outcome.first_waits.append(
                (submit.wall + raw, submit.wall * submit.factor + normalized)
            )
            waits[sweep].append(outcome.first_waits[-1][1])
            # Every step after the first, and result(), is one sample.
            outcome.samples += [(call.wall, call.wall * call.factor) for call in rest]
        for sweep, calls in sweep_calls.items():
            outcome.layer[f"service.{sweep}_pass_s"] = sum(c.wall * c.factor for c in calls)
            if waits[sweep]:
                outcome.layer[f"service.first_questions_{sweep}_s"] = sum(waits[sweep]) / len(
                    waits[sweep]
                )

    @staticmethod
    def _session(clock, service, name: str, world: int):
        first = len(clock.calls)
        run_id = clock.call(service.submit, name, seed=world, scale=1.0, background=False)
        while clock.call(service.step, run_id):
            pass
        result = clock.call(service.result, run_id)
        return result, clock.calls[first:]

    def reference(self) -> dict[str, str]:
        """Bare ``Remp.run`` on the same worlds, for both sweeps."""
        digests = {}
        for key, _, world, bundle in self.worlds:
            result = Remp(seed=world).run(bundle.kb1, bundle.kb2, self.platform(world, bundle))
            digests[f"cold/{key}"] = digests[f"warm/{key}"] = digest(result)
        return digests


class EvolvingStream:
    """Stream lineages: a root, then each delta through ``update``."""

    name = "evolving_stream"

    def __init__(self, seed: int) -> None:
        self.worlds = [
            (world, evolving_bundle(seed=world, scale=spec.STREAM_SCALE))
            for world in range(seed * spec.STREAM_WORLDS, (seed + 1) * spec.STREAM_WORLDS)
        ]

    def run_pass(self, clock, outcome: PassOutcome) -> None:
        steps = []
        for world, evolving in self.worlds:
            first = len(clock.calls)
            try:
                result = self._lineage(clock, outcome, world, evolving)
            except Exception:
                traceback.print_exc()
                outcome.failed += 1
                continue
            steps.append(clock.calls[first:])
            outcome.digests[f"evolving/{world}"] = digest(result)
            truth = evolving.gold_at(evolving.num_steps)
            outcome.f1.append(evaluate_matches(result.matches, truth).f1)
        clock.close()
        for calls in steps:
            # calls: store, service, then (submit|update, result) per step.
            pairs = list(zip(calls[2::2], calls[3::2]))
            for index, (verb, result) in enumerate(pairs):
                asked = [start for start, _ in verb.asks + result.asks]
                if asked:
                    outcome.first_waits.append(clock.span(verb.start, asked[0]))
                if index:
                    outcome.samples.append(
                        (
                            verb.wall + result.wall,
                            verb.wall * verb.factor + result.wall * result.factor,
                        )
                    )

    def _lineage(self, clock, outcome: PassOutcome, world: int, evolving):
        store = clock.call(RunStore, ":memory:")
        service = clock.call(
            MatchingService,
            store,
            max_workers=1,
            error_rate=spec.ERROR_RATE,
            substrate_cache=SubstrateCache(),
        )
        try:
            run_id = clock.call(
                service.submit,
                "evolving",
                seed=world,
                scale=spec.STREAM_SCALE,
                stream=True,
                background=False,
            )
            result = clock.call(service.result, run_id)
            outcome.questions += service.stream_outcome(run_id).questions_new
            for delta in evolving.deltas:
                run_id = clock.call(service.update, run_id, delta, background=False)
                result = clock.call(service.result, run_id)
                outcome.questions += service.stream_outcome(run_id).questions_new
            outcome.layer["store.db_bytes"] = outcome.layer.get(
                "store.db_bytes", 0
            ) + store_bytes(store)
        finally:
            service.close()
            store.close()
        return result

    def reference(self) -> dict[str, str]:
        """``StreamRunner.run_full`` from scratch on each final world."""
        digests = {}
        config = RempConfig()
        for world, evolving in self.worlds:
            bundle = evolving.bundle_at(evolving.num_steps)
            state = Remp(config, seed=world).prepare(bundle.kb1, bundle.kb2)
            crowd = CrowdSpec(truth=bundle.gold_matches, error_rate=spec.ERROR_RATE, seed=world)
            outcome = StreamRunner(config, seed=world, workers=1).run_full(state, crowd)
            digests[f"evolving/{world}"] = digest(outcome.result)
        return digests


WORKLOADS = {cls.name: cls for cls in (PaperBatch, PaperService, EvolvingStream)}
