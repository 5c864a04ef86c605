"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, highest_percentile, percentile, self_times  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        ("root", 0.0, 10.0, -1, "r"),
        ("a", 1.0, 4.0, 0, "r"),
        ("a.child", 2.0, 3.0, 1, "r"),
        ("b", 5.0, 9.0, 0, "r"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("root", 0.0, 10.0, -1, "r"),
        ("a", 1.0, 4.0, 0, "r"),
        ("b", 3.0, 6.0, 0, "r"),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_records_parents_and_counts():
    tracer = Tracer("run")
    inner = tracer.spanned("inner", lambda x: x + 1)
    outer = tracer.spanned("outer", lambda x: inner(x) * 2)
    counted = tracer.counted("hot", lambda x: x)
    assert outer(1) == 4
    counted(1)
    counted(2)
    spans = tracer.closed_spans()
    assert [(s[0], s[3], s[4]) for s in spans] == [("outer", -1, "run"),
                                                   ("inner", 0, "run")]
    assert spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2]
    assert tracer.call_counts() == {"hot": 2}


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # p50 would leave 9 beyond it
        (20, (50.0, 9)),
        (99, (50.0, 49)),  # p90 would leave 9 beyond it
        (100, (90.0, 89)),
        (999, (90.0, 899)),
        (1000, (99.0, 989)),
        (10_000, (99.9, 9989)),
    ],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n))[::-1]
    assert highest_percentile(values) == expected
    if expected is not None:
        assert sum(v > expected[1] for v in values) >= 10


def test_unsupported_percentile_is_none():
    assert percentile(range(999), 99) is None
    assert percentile([], 50) is None


def test_same_seed_draws_the_same_triples(monkeypatch):
    import trifactor.verifier as verifier

    drawn = []
    real_union = verifier.union_hypergraph

    def recording_union(n, factors):
        drawn.append(tuple(f.label for f in factors))
        return real_union(n, factors)

    monkeypatch.setattr(verifier, "union_hypergraph", recording_union)

    def draw(seed):
        drawn.clear()
        checks = workloads.Checks()
        workloads.hb1f_sampled(seed, {"computed": True, "tasks": 20}, checks,
                               samples=20)
        assert checks.failures == []
        return list(drawn)

    first = draw(7)
    assert len(first) == 20
    assert draw(7) == first
    assert draw(8) != first


def test_install_and_restore_cover_every_per_layer_metric():
    import trifactor.verifier as verifier

    original = verifier.check_hb1f
    tracer = Tracer("run")
    layers.install(tracer, [workloads], traced=True)
    assert verifier.check_hb1f is not original
    assert workloads.check_hb1f is verifier.check_hb1f
    tracer.restore()
    assert verifier.check_hb1f is original and workloads.check_hb1f is original

    names = layers.layer_metrics(tracer, {})
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    expected = {name: run.unit_of(name) for name in names}
    expected["trace.overhead_ratio"] = "ratio"
    assert declared == expected


def _copy_checkout(dest: Path, with_src: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def _bench(checkout: Path, workload: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "0", "--trace", "0"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def test_tampered_golden_fails_the_run(tmp_path):
    _copy_checkout(tmp_path, with_src=True)
    path = tmp_path / "bench" / "goldens.json"
    goldens = json.loads(path.read_text(encoding="utf-8"))
    goldens["subgroups"]["a4_pair_count"] += 1
    path.write_text(json.dumps(goldens), encoding="utf-8")

    proc = _bench(tmp_path, "subgroups")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1
    assert "a4_pair_count" in proc.stderr


def test_without_the_package_there_is_no_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _bench(tmp_path, "hb1f")
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
