"""The benchmark's specification: workloads, metrics, bounds and constants.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 rempbench/benchspec.py > BENCHMARK.json``) and the runner
prints its metrics in the order and units given here, so the two cannot
drift apart; ``tests/test_rempbench.py`` checks that they still agree.
"""

from __future__ import annotations

import json

#: Seconds one probe chunk takes on the reference host.  Every end-to-end
#: timing is rescaled to this host speed (see ``hostprobe.normalize``).
#: Fixed once; changing it rescales every timing and resets the baseline.
P_REF = 0.0100

#: Exponent of the normalization factor ``(P_REF / probe) ** exponent``.
#: Fitted on a 2-vCPU VM: log call time against log probe time has slope
#: 0.64-0.83 per paper dataset, and 4-dataset pass times spread least
#: at 0.8 (inter-quartile range 9.9% of the median, against 13% at 1.0
#: and 31% raw).  The probe is pure interpreter work; the program also
#: waits on memory and runs numpy, so host slowdowns hit it less.
PROBE_EXPONENT = 0.8

#: Seconds one benchmark run measures (``run.py --seconds``).
RUN_SECONDS = 30

#: Fresh interpreters started per run to time set-up; ``setup_s`` is
#: their median.
SETUP_PROCESSES = 5

#: A probe runs before a call once this many seconds passed since the
#: last one, so every call is bracketed by probes at most this far away.
PROBE_SPACING_S = 0.25

#: Crowd worker error rate: noisy answers give truth inference work.
ERROR_RATE = 0.1

#: World seeds per paper dataset in one pass of the paper workloads.
PAPER_WORLDS = 2

#: Evolving worlds (one stream lineage each, six deltas) per
#: evolving_stream pass, and their scale (16 clusters).
STREAM_WORLDS = 4
STREAM_SCALE = 2.0

WORKLOADS: list[tuple[str, str]] = [
    (
        "paper_batch",
        "Remp.run in memory on the four paper-profile pairs: the loop and the "
        "isolated-pair forest do the work; store, service and stream are bypassed",
    ),
    (
        "paper_service",
        "the same pairs through MatchingService on an in-memory store, a cold "
        "sweep (prepare + writes) then a warm sweep (reads) by a new service",
    ),
    (
        "evolving_stream",
        "evolving worlds: a stream root then its deltas through "
        "MatchingService.update, inline; incremental prepare and unit reuse work",
    ),
]

#: (name, unit, better, bound).  Timings are host-normalized seconds.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("pass_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("call_s_p50", "s", "lower", 0.25),
    ("call_s_p90", "s", "lower", 0.25),
    ("first_questions_s", "s", "lower", 0.25),
    ("questions", "count", "lower", 0.25),
    ("rounds", "count", "lower", 0.25),
    ("f1", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
]

#: Layer spans: metric stem -> the program's functions timed under it,
#: as ``module:qualname``.  A module-level function is replaced in every
#: ``repro`` module that binds it; a method is replaced on its class.
SPANS: dict[str, tuple[str, ...]] = {
    "core.candidates": ("repro.core.candidates:generate_candidates",),
    "core.attributes": ("repro.core.attributes:match_attributes",),
    "core.vectors": ("repro.core.vectors:build_similarity_vectors",),
    "core.pruning": ("repro.core.pruning:partial_order_pruning",),
    "core.er_graph": ("repro.core.er_graph:build_er_graph",),
    "core.signatures": ("repro.core.isolated:build_signatures",),
    "core.propagate": ("repro.core.pipeline:LoopState.propagate",),
    "core.discovery": ("repro.core.discovery:bounded_dijkstra",),
    "core.selection": ("repro.core.selection:greedy_question_selection",),
    "core.truth": ("repro.core.truth:infer_truths",),
    "core.isolated": ("repro.core.isolated:IsolatedPairClassifier.classify",),
    "ml.fit": ("repro.ml.random_forest:RandomForestClassifier.fit",),
    "ml.predict": (
        "repro.ml.random_forest:RandomForestClassifier.predict_proba",
        "repro.ml.random_forest:RandomForestClassifier.predict",
    ),
    "crowd.ask": ("repro.crowd.platform:CrowdPlatform.ask",),
    "store.save_prepared": ("repro.store.store:RunStore.save_prepared",),
    "store.load_prepared": ("repro.store.store:RunStore.load_prepared",),
    "store.checkpoint": (
        "repro.store.store:RunStore.save_checkpoint",
        "repro.store.store:RunStore.save_shard_checkpoint",
        "repro.store.store:RunStore.save_shard_result",
    ),
    "store.events": ("repro.store.store:RunStore.append_run_event",),
    "store.units": (
        "repro.store.store:RunStore.replace_unit_records",
        "repro.store.store:RunStore.load_unit_record_docs",
    ),
    "service.prepared": ("repro.service.service:MatchingService.prepared",),
    "service.session": (
        "repro.service.service:MatchingSession.step",
        "repro.service.service:MatchingSession.finalize",
        "repro.service.service:MatchingSession.run",
    ),
    "substrate.get_or_create": ("repro.substrate.cache:SubstrateCache.get_or_create",),
    "substrate.attach": ("repro.substrate.arena:PrepareSubstrate.attach",),
    "partition.plan": ("repro.partition.runner:ParallelRunner.plan",),
    "partition.run": ("repro.partition.runner:ParallelRunner.run",),
    "partition.merge": ("repro.partition.runner:merge_shard_results",),
    "stream.prepare": ("repro.stream.incremental:incremental_prepare",),
    "stream.run": (
        "repro.stream.runner:StreamRunner.run_full",
        "repro.stream.runner:StreamRunner.run_incremental",
    ),
}

#: (name, unit, better) of every per-layer metric, reported with ``--trace 1``.
PER_LAYER: list[tuple[str, str, str]] = (
    [(f"{stem}.self_s", "s", "lower") for stem in SPANS]
    + [
        ("core.retained_pairs", "count", "lower"),
        ("core.prune_keep_ratio", "ratio", "lower"),
        ("core.propagate.calls", "count", "lower"),
        ("core.discovery.calls", "count", "lower"),
        ("core.truth.resolved_ratio", "ratio", "higher"),
        ("ml.trees", "count", "lower"),
        ("crowd.questions", "count", "lower"),
        ("store.checkpoint.calls", "count", "lower"),
        ("store.writes", "count", "lower"),
        ("store.db_bytes", "bytes", "lower"),
        ("service.cache_hit_ratio", "ratio", "higher"),
        ("service.first_questions_cold_s", "s", "lower"),
        ("service.first_questions_warm_s", "s", "lower"),
        ("service.cold_pass_s", "s", "lower"),
        ("service.warm_pass_s", "s", "lower"),
        ("partition.shards", "count", "lower"),
        ("stream.units", "count", "lower"),
        ("stream.units_reused", "count", "higher"),
        ("stream.reuse_ratio", "ratio", "higher"),
        ("import.repro_s", "s", "lower"),
        ("import.cli_s", "s", "lower"),
        ("datasets.load_s", "s", "lower"),
        ("unattributed_s", "s", "lower"),
        ("traced.pass_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("host.probe_s", "s", "lower"),
        ("host.probe_spread", "ratio", "lower"),
        ("raw.pass_s", "s", "lower"),
        ("raw.cpu_s", "s", "lower"),
        ("raw.call_s_p50", "s", "lower"),
        ("raw.call_s_p90", "s", "lower"),
        ("call.samples", "count", "higher"),
        ("call.samples_above_p90", "count", "higher"),
    ]
)

#: Per-layer metric prefixes predicted to stay zero on a workload (the
#: layer is bypassed there); a traced run prints each prediction with
#: the measured values.  README.md maps every layer to the end-to-end
#: metric it should move.
BYPASS: dict[str, tuple[str, ...]] = {
    "paper_batch": ("store.", "service.", "stream.", "partition."),
    "paper_service": ("stream.", "partition."),
}

COMMAND = ["python3", "rempbench/run.py"]
PATHS = ["rempbench"]


def benchmark_doc() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_doc(), indent=2))
