"""Tests of the benchmark's own arithmetic, tracing, probe and spec.

Run with ``PYTHONPATH=src python -m pytest rempbench/tests -q``.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchspec  # noqa: E402
import hostprobe  # noqa: E402
import layertrace  # noqa: E402
import measure  # noqa: E402


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
def test_factor_scales_by_reference_over_mean_probe(monkeypatch):
    monkeypatch.setattr(benchspec, "PROBE_EXPONENT", 1.0)
    monkeypatch.setattr(benchspec, "P_REF", 0.02)
    assert hostprobe.factor(0.01, 0.03) == pytest.approx(1.0)
    # A host twice as slow as the reference halves the reported time...
    monkeypatch.setattr(benchspec, "P_REF", 0.01)
    assert 3.0 * hostprobe.factor(0.02, 0.02) == pytest.approx(1.5)
    # ...or divides it by 2 ** exponent.
    monkeypatch.setattr(benchspec, "PROBE_EXPONENT", 0.8)
    assert 3.0 * hostprobe.factor(0.02, 0.02) == pytest.approx(3.0 / 2**0.8)


class _NoRounds:
    before_batch = None

    def take(self):
        return []


def test_clock_brackets_each_call_with_nearest_probes(monkeypatch):
    monkeypatch.setattr(benchspec, "P_REF", 0.01)
    monkeypatch.setattr(benchspec, "PROBE_EXPONENT", 1.0)
    clock = measure.Clock(_NoRounds())
    clock.probes = [(0.0, 0.1, 0.01), (2.0, 2.1, 0.03), (5.0, 5.1, 0.02)]
    clock.calls = [
        measure.Call(start=0.5, end=1.5, cpu=1.0, asks=[]),
        measure.Call(start=2.5, end=4.0, cpu=1.5, asks=[]),
    ]
    clock._probe = lambda: clock.probes.append((6.0, 6.1, 0.04))
    clock.close()
    # Call 1 lies between probes 0.01 and 0.03; call 2 between 0.03 and 0.02.
    assert clock.calls[0].wall == pytest.approx(1.0)
    assert clock.calls[0].factor == pytest.approx(0.01 / 0.02)
    assert clock.calls[1].factor == pytest.approx(0.01 / 0.025)


def test_clock_normalizes_a_call_piece_by_piece_without_its_probes(monkeypatch):
    monkeypatch.setattr(benchspec, "P_REF", 0.01)
    monkeypatch.setattr(benchspec, "PROBE_EXPONENT", 1.0)
    clock = measure.Clock(_NoRounds())
    # A probe of 0.5 s ran inside the call [1, 4], between two crowd rounds.
    clock.probes = [(0.0, 0.5, 0.01), (2.0, 2.5, 0.03), (5.0, 5.5, 0.01)]
    clock.calls = [measure.Call(start=1.0, end=4.0, cpu=2.5, asks=[])]
    clock._probe = lambda: None
    clock.close()
    (call,) = clock.calls
    # Pieces [1, 2] between probes 0.01 and 0.03, [2.5, 4] between 0.03 and 0.01.
    assert call.wall == pytest.approx(2.5)
    assert call.wall * call.factor == pytest.approx(1.0 * 0.5 + 1.5 * 0.5)
    assert clock.span(1.0, 2.0) == pytest.approx((1.0, 0.5))
    assert clock.span(0.5, 5.0) == pytest.approx((4.0, 2.0))


def test_clock_probes_before_a_due_crowd_batch_and_leaves_it_out():
    recorder = layertrace.RoundRecorder()
    clock = measure.Clock(recorder)
    assert recorder.before_batch is not None

    def body():
        time.sleep(0.3)  # past the probe spacing: the next batch is probed
        recorder.before_batch()
        time.sleep(0.05)

    clock.call(body)
    clock.close()
    assert recorder.before_batch is None
    assert len(clock.probes) == 3  # before the call, inside it, on close
    started, ended, _ = clock.probes[1]
    (call,) = clock.calls
    assert call.start < started < ended < call.end
    assert call.wall == pytest.approx(call.end - call.start - (ended - started))


def test_clock_probes_before_first_call_and_on_close(monkeypatch):
    monkeypatch.setattr(benchspec, "PROBE_SPACING_S", 60.0)
    clock = measure.Clock(_NoRounds())
    assert clock.call(lambda x: x + 1, 1) == 2
    assert clock.call(lambda: None) is None
    clock.close()
    assert len(clock.probes) == 2  # one before the first call, one at close
    assert all(call.factor > 0 for call in clock.calls)


# ----------------------------------------------------------------------
# Percentiles and their sample counts
# ----------------------------------------------------------------------
def test_quantile_averages_around_the_rank_and_counts_samples_above():
    values = [float(i) for i in range(100, 0, -1)]
    # p90: mean of the 86th..95th order statistics; ten samples above rank 90.
    assert measure.quantile(values, 0.9) == (pytest.approx(90.5), 10)
    assert measure.quantile(values, 0.5) == (pytest.approx(50.5), 50)
    assert measure.quantile([3.0], 0.9) == (3.0, 0)


def test_p90_needs_a_hundred_samples_for_ten_above():
    assert measure.quantile([1.0] * 99, 0.9)[1] == 9
    assert measure.quantile([1.0] * 100, 0.9)[1] == 10


def test_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert measure.spread(values) == pytest.approx((q3 - q1) / 3.0)
    assert measure.spread([2.0]) == 0.0


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_excludes_child_spans():
    tracer = layertrace.Tracer()
    inner = tracer._span_wrapper("inner", lambda: time.sleep(0.03))

    def body():
        time.sleep(0.02)
        inner()
        time.sleep(0.01)

    tracer._span_wrapper("outer", body)()
    self_s, counts = tracer.take()
    assert self_s["inner"] >= 0.03
    assert 0.03 <= self_s["outer"] < 0.03 + 0.02
    assert counts["inner.calls"] == counts["outer.calls"] == 1
    assert tracer.take() == ({}, {})


def test_self_times_of_a_real_run_fit_inside_its_wall_time(monkeypatch):
    # unattributed_s = wall - sum of self times; it is >= 0 only if no
    # span time, and no probe run inside the call, is counted twice.
    from repro.core import Remp
    from repro.crowd import CrowdPlatform
    from repro.datasets import load_dataset

    bundle = load_dataset("iimb", seed=0, scale=0.5)
    platform = CrowdPlatform.with_simulated_workers(
        bundle.gold_matches, error_rate=benchspec.ERROR_RATE, seed=0
    )
    monkeypatch.setattr(benchspec, "PROBE_SPACING_S", 0.0)  # probe at every batch
    recorder = layertrace.RoundRecorder()
    tracer = layertrace.Tracer()
    clock = measure.Clock(recorder, tracer=tracer)
    recorder.install()
    tracer.install()
    try:
        clock.call(Remp(seed=0).run, bundle.kb1, bundle.kb2, platform)
    finally:
        tracer.uninstall()
        recorder.uninstall()
    clock.close()
    (call,) = clock.calls
    assert len(clock.probes) == 2 + len(call.asks) >= 3
    attributed = sum(call.self_s.values())
    assert all(value >= 0 for value in call.self_s.values())
    assert 0 < attributed <= call.wall
    # Nested spans were active: the loop ran under the run's layer spans.
    assert call.counts["core.pruning.calls"] == 1
    assert call.counts["core.truth.calls"] >= 1


def test_tracer_patches_every_binding_and_restores_them(monkeypatch):
    from repro.accel import propagation
    from repro.core import discovery
    from repro.core import pipeline
    from repro.core import truth

    originals = (truth.infer_truths, discovery.bounded_dijkstra)
    monkeypatch.setattr(
        benchspec,
        "SPANS",
        {
            "core.truth": ("repro.core.truth:infer_truths",),
            "core.discovery": ("repro.core.discovery:bounded_dijkstra",),
        },
    )
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert pipeline.infer_truths is truth.infer_truths is not originals[0]
        assert propagation.bounded_dijkstra is discovery.bounded_dijkstra
        assert discovery.bounded_dijkstra is not originals[1]
    finally:
        tracer.uninstall()
    assert pipeline.infer_truths is truth.infer_truths is originals[0]
    assert propagation.bounded_dijkstra is discovery.bounded_dijkstra is originals[1]


def test_every_span_target_resolves():
    for targets in benchspec.SPANS.values():
        for target in targets:
            owner, attr, original = layertrace._resolve(target)
            assert callable(original), target


# ----------------------------------------------------------------------
# Probe
# ----------------------------------------------------------------------
def test_probe_runs_no_collection_even_with_a_large_heap():
    garbage = [[i] for i in range(200_000)]
    for item in garbage:
        item.append(item)  # cycles: work for the collector
    collections = []

    def callback(phase, info):
        if phase == "start":
            collections.append(info)

    threshold = gc.get_threshold()
    gc.set_threshold(1)
    gc.callbacks.append(callback)
    try:
        hostprobe.probe()
    finally:
        gc.callbacks.remove(callback)
        gc.set_threshold(*threshold)
    assert collections == []
    assert gc.isenabled()


def test_probe_time_does_not_follow_the_heap():
    quiet = statistics.median(hostprobe.probe() for _ in range(5))
    heap = [{"k": i, "v": [i]} for i in range(400_000)]
    loaded = statistics.median(hostprobe.probe() for _ in range(5))
    del heap
    # Generous: host speed drifts; a heap-dependent probe would be far off.
    assert 1 / 3 < loaded / quiet < 3


# ----------------------------------------------------------------------
# Spec and contract
# ----------------------------------------------------------------------
def test_benchmark_json_is_generated_from_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == benchspec.benchmark_doc()


def test_spec_is_within_the_contract():
    doc = benchspec.benchmark_doc()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= doc["run_seconds"] <= 60
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 and n[0].isalnum() for n in names)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert 1 <= len(doc["per_layer"]) <= 128
    assert len(json.dumps(doc)) <= 64 * 1024


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "rempbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, *benchspec.COMMAND[1:], "--workload", "paper_batch", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
