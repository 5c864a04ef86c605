"""One measured run of one workload, in a process of its own.

    python3 bench/child.py --workload NAME --seed N --trace 0|1 --work-dir DIR

run.py starts this with PYTHONPATH set to the checkout's ``src`` and
TRIFACTOR_WORKERS=1.  The last line of standard output is one JSON object:
the run's times, peak memory, operations attempted and failed, and with
--trace 1 the per-layer metrics.  DIR holds the run's scratch files; the
spans of a traced run are written to .bench_build/traces/<run id>.json in
the checkout.  Exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACE_DIR = ROOT / ".bench_build" / "traces"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    package = importlib.import_module("trifactor.cli")
    import_s = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(package.__file__).resolve().parents:
        raise SystemExit(f"imported {package.__file__}, not the package in {src}")

    import layers
    import workloads
    from tracing import Tracer

    body, expected_builds = workloads.WORKLOADS[args.workload]
    with open(BENCH_DIR / "goldens.json", encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer(run_id)
    layers.install(tracer, [workloads], traced=bool(args.trace))
    checks = workloads.Checks()

    body_start = time.perf_counter()
    facts = body(args.seed, args.work_dir, golden, checks)
    total_s = time.perf_counter() - body_start
    tracer.restore()

    spans = tracer.closed_spans()
    setup_calls_s, builds = layers.setup_seconds(spans)
    # Without timed builds setup_s would shrink to import time unnoticed.
    checks.expect("timed build_factorisation calls", builds, expected_builds)
    result = {
        "run_id": run_id,
        "total_s": total_s,
        "setup_s": import_s + setup_calls_s,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(checks.results),
        "failed": len(checks.failures),
        "failures": checks.failures,
    }
    if args.trace:
        result["layers"] = layers.layer_metrics(tracer, facts)
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        with open(TRACE_DIR / f"{run_id}.json", "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id,
                       "fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": spans}, fh)
    print(json.dumps(result))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
