"""Run one workload of the Remp benchmark and print its metrics.

    python3 rempbench/run.py --workload paper_batch --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run times set-up in fresh interpreters, makes the workload's inputs
from ``--seed``, repeats whole passes over them for ``--seconds``, and
checks every pass's outputs against a reference computed by another
path.  With ``--trace 0`` the last line holds the end-to-end metrics;
with ``--trace 1`` passes alternate untraced and traced, and the last
line holds the per-layer metrics.  The lines before it are a readable
report, and one line starting with ``rempbench-detail`` holds the raw
timings and probe figures the steadiness tool reads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import benchspec as spec
import hostprobe
import layertrace
import measure

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(workload: str, seed: int) -> list[dict]:
    """Set-up samples from fresh interpreters, normalized by their own probes."""
    samples = []
    for _ in range(spec.SETUP_PROCESSES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        raw = json.loads(done.stdout.strip().splitlines()[-1])
        factor = hostprobe.factor(raw.pop("probe_before"), raw.pop("probe_after"))
        samples.append({key: value * factor for key, value in raw.items()})
    return samples


class Runner:
    """Passes of one workload, and the metrics made from them."""

    def __init__(self, workloads, workload) -> None:
        self.workloads = workloads
        self.workload = workload
        self.rounds = layertrace.RoundRecorder()
        self.tracer = layertrace.Tracer()
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.probes: list[float] = []

    def one_pass(self, traced: bool) -> dict:
        """Run a pass; return its metrics, normalized, plus its raw figures."""
        self.workloads.reset_caches()
        outcome = self.workloads.PassOutcome()
        clock = measure.Clock(self.rounds, tracer=self.tracer if traced else None)
        if traced:
            self.tracer.install()
        try:
            self.workload.run_pass(clock, outcome)
        finally:
            if traced:
                self.tracer.uninstall()
        self.probes += [value for _, _, value in clock.probes]
        calls = clock.calls
        pass_s = sum(c.wall * c.factor for c in calls)
        result = {
            "outcome": outcome,
            "pass_s": pass_s,
            "cpu_s": sum(c.cpu * c.factor for c in calls),
            "raw.pass_s": sum(c.wall for c in calls),
            "raw.cpu_s": sum(c.cpu for c in calls),
            "rounds": sum(len(c.asks) for c in calls),
            "questions": outcome.questions,
            "f1": statistics.fmean(outcome.f1) if outcome.f1 else 0.0,
            "first_questions_s": statistics.fmean(n for _, n in outcome.first_waits)
            if outcome.first_waits
            else 0.0,
            **outcome.layer,
        }
        if traced:
            self_s: dict[str, float] = {}
            counts: dict[str, int] = {}
            for c in calls:
                for name, value in c.self_s.items():
                    self_s[name] = self_s.get(name, 0.0) + value * c.factor
                for name, value in c.counts.items():
                    counts[name] = counts.get(name, 0) + value
            result["self_s"] = self_s
            result["counts"] = counts
        return result

    def run(self, seconds: float, trace: bool) -> None:
        """Whole passes until the next one would end after ``seconds``."""
        self.rounds.install()
        try:
            started = time.perf_counter()
            last = 0.0
            while True:
                elapsed = time.perf_counter() - started
                enough = self.untraced and (not trace or self.traced)
                if enough and elapsed + last > seconds:
                    break
                traced = trace and len(self.traced) < len(self.untraced)
                begun = time.perf_counter()
                (self.traced if traced else self.untraced).append(self.one_pass(traced))
                last = time.perf_counter() - begun
        finally:
            self.rounds.uninstall()


def check(runner: Runner, reference: dict[str, str]) -> tuple[int, int, list[str]]:
    """Compare every pass's digests with the reference: (attempted, failed, notes)."""
    attempted = failed = 0
    notes = []
    untraced_digests = runner.untraced[0]["outcome"].digests
    for index, result in enumerate(runner.untraced + runner.traced):
        outcome = result["outcome"]
        attempted += len(reference)
        failed += outcome.failed
        for key, expected in reference.items():
            got = outcome.digests.get(key)
            if got is not None and got != expected:
                failed += 1
                notes.append(f"pass {index}: {key} differs from the reference")
    for result in runner.traced:
        if result["outcome"].digests != untraced_digests:
            notes.append("a traced pass's outputs differ from an untraced pass's")
    return attempted, min(failed, attempted), notes


def end_to_end(runner: Runner, setup: list[dict], ok_ratio: float, rss_mb):
    passes = runner.untraced
    samples = [normalized for p in passes for _, normalized in p["outcome"].samples]
    raw_samples = [raw for p in passes for raw, _ in p["outcome"].samples]
    # No samples only when every resolution failed, which ok_ratio shows.
    p50, above50 = measure.quantile(samples, 0.5) if samples else (0.0, 0)
    p90, above90 = measure.quantile(samples, 0.9) if samples else (0.0, 0)

    def median(key):
        return statistics.median(p[key] for p in passes)

    values = {
        "pass_s": median("pass_s"),
        "cpu_s": median("cpu_s"),
        "call_s_p50": p50,
        "call_s_p90": p90,
        "first_questions_s": median("first_questions_s"),
        "questions": median("questions"),
        "rounds": median("rounds"),
        "f1": median("f1"),
        "peak_rss_mb": rss_mb,
        "ok_ratio": ok_ratio,
        "setup_s": statistics.median(s["setup_s"] for s in setup),
    }
    detail = {
        "passes": len(passes),
        "samples": len(samples),
        "samples_above_p50": above50,
        "samples_above_p90": above90,
        "raw.pass_s": median("raw.pass_s"),
        "raw.cpu_s": median("raw.cpu_s"),
        "raw.call_s_p50": measure.quantile(raw_samples, 0.5)[0] if samples else 0.0,
        "raw.call_s_p90": measure.quantile(raw_samples, 0.9)[0] if samples else 0.0,
        "host.probe_s": statistics.median(runner.probes),
        "host.probe_min": min(runner.probes),
        "host.probe_max": max(runner.probes),
        "host.probe_spread": measure.spread(runner.probes),
    }
    return values, detail


def per_layer(runner: Runner, setup: list[dict], detail: dict) -> dict:
    traced = runner.traced

    def mean(get):
        return statistics.fmean(get(p) for p in traced)

    values: dict[str, float] = {}
    for stem in spec.SPANS:
        values[f"{stem}.self_s"] = mean(lambda p, s=stem: p["self_s"].get(s, 0.0))

    def count(name):
        return mean(lambda p: p["counts"].get(name, 0))

    def ratio(part, whole):
        return count(part) / count(whole) if count(whole) else 0.0

    traced_pass = mean(lambda p: p["pass_s"])
    values.update(
        {
            "core.retained_pairs": count("core.retained_pairs"),
            "core.prune_keep_ratio": ratio("core.retained_pairs", "core.candidate_pairs"),
            "core.propagate.calls": count("core.propagate.calls"),
            "core.discovery.calls": count("core.discovery.calls"),
            "core.truth.resolved_ratio": ratio("core.truth.resolved", "core.truth.answered"),
            "ml.trees": count("ml.trees"),
            "crowd.questions": count("crowd.questions"),
            "store.checkpoint.calls": count("store.checkpoint.calls"),
            "store.writes": count("store.writes"),
            "store.db_bytes": mean(lambda p: p.get("store.db_bytes", 0)),
            "service.cache_hit_ratio": ratio("service.cache_hits", "service.cache_lookups"),
            "partition.shards": count("partition.shards"),
            "stream.units": count("stream.units"),
            "stream.units_reused": count("stream.units_reused"),
            "stream.reuse_ratio": ratio("stream.units_reused", "stream.units"),
            "import.repro_s": statistics.median(s["repro_s"] for s in setup),
            "import.cli_s": statistics.median(s["cli_s"] for s in setup),
            "datasets.load_s": statistics.median(s["load_s"] for s in setup),
            "traced.pass_s": traced_pass,
            "trace.overhead_ratio": statistics.median(p["pass_s"] for p in traced)
            / statistics.median(p["pass_s"] for p in runner.untraced)
            - 1.0,
            "call.samples": detail["samples"],
            "call.samples_above_p90": detail["samples_above_p90"],
        }
    )
    for sweep in ("cold", "warm"):
        for key in (f"service.first_questions_{sweep}_s", f"service.{sweep}_pass_s"):
            values[key] = mean(lambda p, k=key: p.get(k, 0.0))
    values["unattributed_s"] = traced_pass - sum(
        values[f"{stem}.self_s"] for stem in spec.SPANS
    )
    for key in (
        "host.probe_s",
        "host.probe_spread",
        "raw.pass_s",
        "raw.cpu_s",
        "raw.call_s_p50",
        "raw.call_s_p90",
    ):
        values[key] = detail[key]
    return values


def report(title: str, values: dict, units: dict) -> None:
    """Print every metric of one block with its unit."""
    print(title)
    for key, unit in units.items():
        print(f"  {key:34s} {values[key]:14.6f} {unit}")


def report_notes(name: str, detail: dict, layer: dict | None) -> None:
    """Sample counts, probe figures and, for a traced run, the span sums."""
    print(
        f"  call samples {detail['samples']}: {detail['samples_above_p50']} above p50, "
        f"{detail['samples_above_p90']} above p90"
        + ("" if detail["samples_above_p90"] >= 10 else " (fewer than 10: p90 unreliable)")
    )
    print(
        f"  host probe median {detail['host.probe_s']:.6f} s "
        f"(range {detail['host.probe_min']:.6f}-{detail['host.probe_max']:.6f}, "
        f"spread {detail['host.probe_spread']:.3f}); raw pass_s {detail['raw.pass_s']:.4f}"
    )
    if layer is None:
        return
    total = sum(layer[f"{stem}.self_s"] for stem in spec.SPANS)
    print(
        f"  traced pass {layer['traced.pass_s']:.6f} s = sum of self times "
        f"{total:.6f} + unattributed {layer['unattributed_s']:.6f}"
    )
    for prefix in spec.BYPASS.get(name, ()):
        measured = {k: v for k, v in layer.items() if k.startswith(prefix)}
        nonzero = {k: v for k, v in measured.items() if v}
        verdict = "holds" if not nonzero else f"DOES NOT HOLD: {nonzero}"
        print(
            f"  bypass prediction {prefix}* = 0 on {name}: {len(measured)} metrics, "
            f"sum {sum(measured.values()):.6f}; {verdict}"
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"rempbench: no program to benchmark at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"rempbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup = time_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(workloads, workload)
    runner.run(args.seconds, bool(args.trace))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    notes: list[str] = []
    try:
        reference = workload.reference()
    except Exception:
        traceback.print_exc()
        reference = {}
        notes.append("the reference path raised")
    attempted, failed, mismatches = check(runner, reference)
    notes += mismatches
    if not reference:
        failed = attempted = max(attempted, 1)
    ok_ratio = (attempted - failed) / attempted
    values, detail = end_to_end(runner, setup, ok_ratio, rss_mb)
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    report(
        f"rempbench {args.workload}: {detail['passes']} untraced and {len(runner.traced)} "
        f"traced passes; timings host-normalized to P_ref = {spec.P_REF} s per probe chunk",
        values,
        units,
    )
    layer = None
    if args.trace:
        values = layer = per_layer(runner, setup, detail)
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        report("per-layer metrics (means over the traced passes):", values, units)
    report_notes(args.workload, detail, layer)
    for note in notes:
        print(f"  FAILED CHECK: {note}")
    print("rempbench-detail " + json.dumps(detail, sort_keys=True))
    doc = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
