"""Steadiness check: two sets of runs of the same code, compared.

    python3 rempbench/steadiness.py --workloads paper_batch,evolving_stream \
        --seeds 10 --out steadiness.jsonl
    python3 rempbench/steadiness.py --replay steadiness.jsonl

For seeds 0 to ``--seeds`` - 1, each workload runs once in set A and
once in set B, the order alternating from seed to seed, each run a fresh
``run.py`` process with ``--seconds benchspec.RUN_SECONDS --trace 0``.
Per workload and end-to-end metric the report gives each set's median
and spread (inter-quartile range over the median), the shift of B's
median against A's (positive when B is worse), and the bound.  Both sets
run the same code, so a metric is steady when both spreads and the
shift's absolute value are within the bound, ``setup_s`` included; the
exit status is 0 only when every metric is.  For the timings it adds the spread of the raw (not normalized) values,
and for each set the range of the host probe.  A normalized spread well
below the raw one, with a wide probe range, points at the host; a
normalized spread as wide as the raw one points at the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchspec as spec  # noqa: E402
from measure import spread  # noqa: E402

#: End-to-end timing -> the raw figure in the run's detail line.
RAW = {
    "pass_s": "raw.pass_s",
    "cpu_s": "raw.cpu_s",
    "call_s_p50": "raw.call_s_p50",
    "call_s_p90": "raw.call_s_p90",
}


def one_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec.RUN_SECONDS), "--trace", "0"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    detail = next(line for line in lines if line.startswith("rempbench-detail "))
    return {
        "result": json.loads(lines[-1]),
        "detail": json.loads(detail.split(" ", 1)[1]),
    }


def collect(workloads: list[str], seeds: int, out) -> list[dict]:
    records = []
    for seed in range(seeds):
        for workload in workloads:
            for label in ("A", "B") if seed % 2 == 0 else ("B", "A"):
                record = {"set": label, "workload": workload, "seed": seed,
                          **one_run(workload, seed)}
                records.append(record)
                if out is not None:
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                print(f"  ran {workload} seed {seed} set {label}", file=sys.stderr)
    return records


def analyse(records: list[dict]) -> bool:
    """Print the report; True when every metric meets its bound."""
    steady = True
    for workload in dict.fromkeys(r["workload"] for r in records):
        sets = {
            label: [r for r in records if r["workload"] == workload and r["set"] == label]
            for label in ("A", "B")
        }
        print(f"\n{workload}: {len(sets['A'])} + {len(sets['B'])} runs")
        for label, runs in sets.items():
            probes = [r["detail"]["host.probe_s"] for r in runs]
            correct = sum(r["result"]["correct"] for r in runs)
            print(f"  set {label}: probe medians {min(probes):.6f}-{max(probes):.6f} s, "
                  f"{correct}/{len(runs)} runs correct")
        print(f"  {'metric':18s} {'median A':>12s} {'median B':>12s} {'spread A':>9s} "
              f"{'spread B':>9s} {'raw A':>7s} {'raw B':>7s} {'shift':>7s} {'bound':>6s}")
        for name, _, better, bound in spec.END_TO_END:
            values = {
                label: [r["result"]["metrics"][name]["value"] for r in runs]
                for label, runs in sets.items()
            }
            medians = {label: statistics.median(v) for label, v in values.items()}
            spreads = {label: spread(v) for label, v in values.items()}
            raws = {
                label: spread([r["detail"][RAW[name]] for r in runs]) if name in RAW else None
                for label, runs in sets.items()
            }
            worse = medians["B"] - medians["A"] if better == "lower" else medians["A"] - medians["B"]
            shift = worse / medians["A"] if medians["A"] else 0.0
            ok = abs(shift) <= bound and max(spreads.values()) <= bound
            margin = max(spreads.values()) <= bound / 3 and abs(shift) <= bound / 3
            steady &= ok
            verdict = "ok" if margin else ("within bound" if ok else "NOISY")
            raw_text = " ".join(
                f"{raws[label]:7.3f}" if raws[label] is not None else f"{'-':>7s}"
                for label in ("A", "B")
            )
            print(f"  {name:18s} {medians['A']:12.6f} {medians['B']:12.6f} "
                  f"{spreads['A']:9.3f} {spreads['B']:9.3f} {raw_text} {shift:7.3f} "
                  f"{bound:6.2f}  {verdict}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(name for name, _ in spec.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, help="append each run's result here (JSON lines)")
    parser.add_argument("--replay", type=Path, help="analyse a file written with --out")
    args = parser.parse_args(argv)
    if args.replay is not None:
        records = [json.loads(line) for line in args.replay.read_text().splitlines() if line]
    else:
        out = args.out.open("a") if args.out is not None else None
        try:
            records = collect(args.workloads.split(","), args.seeds, out)
        finally:
            if out is not None:
                out.close()
    return 0 if analyse(records) else 1


if __name__ == "__main__":
    sys.exit(main())
