"""Benchmark of trifactor as a verifier: time to a checked classification.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each measured run of a workload is a fresh process (bench/child.py) with
TRIFACTOR_WORKERS=1, importing the package from ``src`` of this checkout.
Runs repeat until --seconds have passed (at least one run); the reported
value of a metric is its median over the runs.  With --trace 0 the
end-to-end metrics are reported; with --trace 1 untraced and traced runs
alternate, the per-layer metrics come from the traced ones and
trace.overhead_ratio compares the two.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Exit codes: 0 every check passed, 1 a check failed (a verdict differed
from its prediction or an output from its golden value), 2 the benchmark
could not run (for example, no ``src/trifactor`` in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from tracing import highest_percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"

WORKLOADS = ("suite", "hb1f", "subgroups")
END_TO_END = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Stage times of a workload that do not nest in each other, and the one the
#: workload was chosen to exercise; the traced run reports whether it leads.
STAGES = {
    "hb1f": ("hypergraph.berge_s", "hypergraph.union_s", "hypergraph.connected_s",
             "factorisation.build_s", "factorisation.verify_partition_s",
             "verifier.self_s"),
    "subgroups": ("groups.closure_s", "groups.transitive_s",
                  "factorisation.build_s", "factorisation.verify_partition_s"),
}

#: A run of a workload takes under 25 s even traced; this stops a hung one
#: soon enough that the whole benchmark still ends within three minutes.
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark could not produce a result."""


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_per_factor")):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    """Environment of every run: this checkout's package, one worker.

    Bytecode caches may be written, so that after the warm-up import each
    run imports the package the way an installed copy would.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TRIFACTOR_WORKERS"] = "1"
    return env


def environment() -> dict:
    """Where a result was measured: interpreter, CPUs, load and commit."""
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load_1m: float | None = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        load_1m = None
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_1m": load_1m,
        "commit": commit,
    }


def run_child(workload: str, seed: int, traced: bool, env: dict) -> dict:
    """One measured run in a fresh process; its result, failed checks included."""
    (BUILD_DIR / "work").mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=BUILD_DIR / "work")
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} run exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None or proc.returncode not in (0, 1):
        raise BenchError(
            f"{workload} run exited {proc.returncode} without a result:\n"
            f"{proc.stderr.strip()}")
    for failure in result["failures"]:
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    print(f"{workload} run {result['run_id']}: total_s {result['total_s']:.4f}, "
          f"setup_s {result['setup_s']:.4f} (import {result['import_s']:.4f}), "
          f"peak_rss_mb {result['peak_rss_mb']:.1f}, "
          f"failed {result['failed']} of {result['attempted']}")
    return result


def measure(workload: str, seed: int, seconds: float,
            traced: bool) -> tuple[list[dict], list[dict]]:
    """Untraced runs, and with traced alternating traced ones, for `seconds`."""
    env = child_env()
    warm = subprocess.run([sys.executable, "-c", "import trifactor.cli"], env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        raise BenchError(f"cannot import trifactor from {ROOT / 'src'}:\n"
                         f"{warm.stderr.strip()}")
    plain: list[dict] = []
    with_spans: list[dict] = []
    start = time.monotonic()
    while True:
        plain.append(run_child(workload, seed, False, env))
        if traced:
            with_spans.append(run_child(workload, seed, True, env))
        if time.monotonic() - start >= seconds:
            return plain, with_spans


def _distribution(values: list[float], unit: str) -> str:
    text = f"median {median(values):.6g} {unit}, n={len(values)}"
    tail = highest_percentile(values)
    if tail is None:
        return text + " (no percentile has 10 runs beyond it)"
    return text + f", p{tail[0]:g} {tail[1]:.6g} {unit}"


def report(workload: str, plain: list[dict], with_spans: list[dict],
           traced: bool) -> dict:
    """Print the human-readable lines and return the result object."""
    runs = plain + with_spans
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics: dict[str, dict] = {}
    for name, unit in END_TO_END.items():
        values = [r[name] for r in plain]
        print(f"{workload} {name}: {_distribution(values, unit)}")
        if not traced:
            metrics[name] = {"value": median(values), "unit": unit}
    print(f"{workload} failed_ratio: {failed / attempted:.6g} "
          f"({failed} of {attempted} operations over {len(runs)} runs)")
    if traced:
        for name in with_spans[0]["layers"]:
            value = median(r["layers"][name] for r in with_spans)
            metrics[name] = {"value": value, "unit": unit_of(name)}
        traced_total = median(r["total_s"] for r in with_spans)
        metrics["trace.overhead_ratio"] = {
            "value": traced_total / median(r["total_s"] for r in plain),
            "unit": "ratio"}
        for name, m in metrics.items():
            print(f"{workload} {name}: {m['value']:.6g} {m['unit']}")
        stages = STAGES.get(workload)
        if stages:
            shares = {s: metrics[s]["value"] / traced_total for s in stages}
            leader = max(shares, key=shares.get)
            verdict = "confirmed" if leader == stages[0] else "NOT confirmed"
            print(f"{workload} where the work goes (share of traced total_s): "
                  + ", ".join(f"{s} {v:.1%}" for s, v in shares.items()))
            print(f"{workload} expected {stages[0]} to lead: {verdict}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            env = environment()
            plain, with_spans = measure(name, args.seed, args.seconds,
                                        bool(args.trace))
            print(f"{name} env: {json.dumps(env, sort_keys=True)}")
            results[name] = report(name, plain, with_spans, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
