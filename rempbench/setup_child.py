"""One set-up sample: a fresh interpreter imports ``repro`` and makes inputs.

Started by ``run.py`` with ``<src dir> <workload> <seed>``.  Prints one
JSON line of raw seconds: ``setup_s`` (import + inputs), ``repro_s``,
``load_s`` (input generation) and ``cli_s`` (``repro.cli`` imported
afterwards, on top of ``repro``), plus the probes taken in this process
just before and after set-up.  Probes taken by the parent do not track
the child's speed: it may run on the other core.
"""

import json
import sys
import time

import hostprobe

before = hostprobe.probe()
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import repro  # noqa: E402,F401

imported = time.perf_counter()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]))
generated = time.perf_counter()
after = hostprobe.probe()
resumed = time.perf_counter()

import repro.cli  # noqa: E402,F401

cli = time.perf_counter()
print(
    json.dumps(
        {
            "setup_s": generated - started,
            "repro_s": imported - started,
            "load_s": generated - imported,
            "cli_s": cli - resumed,
            "probe_before": before,
            "probe_after": after,
        }
    )
)
