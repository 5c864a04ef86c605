"""The workload bodies and their correctness checks.

Each body runs in a fresh process (see child.py), takes the workload seed,
a scratch directory inside the checkout and its golden values, and returns
the checks it made plus the byte counts the layer metrics report.  An
operation is one verdict or one golden check; a Berge timeout shows up as
an indeterminate verdict and so fails its check.

Why these three (measured on a 2-core machine, Python 3.11):

- suite: what users run; construction dominates, then C1F and HB1F.
- hb1f: Berge search is almost all of the work, construction about 1%.
- subgroups: the only workload that reaches the groups module, and it uses
  the projective line through composition rather than point evaluation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from trifactor import cli
from trifactor.factorisation import build_factorisation, verify_partition
from trifactor.groups import (
    a4_pair_census,
    classify_subgroup,
    generate_subgroup,
    is_transitive,
)
from trifactor.projline import base_map, orbit_map
from trifactor.verifier import check_hb1f, field_for


class Checks:
    """Named pass/fail operations of one run."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, observed, expected) -> None:
        ok = observed == expected
        detail = "" if ok else f"observed {observed!r}, expected {expected!r}"
        self.results.append((name, ok, detail))

    @property
    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


def _built(checks: Checks, q: int):
    fact = build_factorisation(field_for(q))
    checks.expect(f"q={q} partition", verify_partition(fact).ok, True)
    return fact


def _verdict(checks: Checks, label: str, verdict, golden: dict) -> None:
    checks.expect(f"{label} computed == predicted", verdict.computed,
                  verdict.predicted)
    checks.expect(f"{label} computed == golden", verdict.computed,
                  golden["computed"])
    checks.expect(f"{label} tasks", verdict.stats["tasks"], golden["tasks"])


def suite(seed: int, work_dir: Path, golden: dict, checks: Checks) -> dict:
    """The default `trifactor suite --format json` through the CLI."""
    out = work_dir / "suite.json"
    rc = cli.main(["suite", "--format", "json", "--out", str(out)])
    data = out.read_bytes()
    checks.expect("suite exit code", rc, 0)
    for entry in json.loads(data)["suite"]:
        q = entry["q"]
        checks.expect(f"q={q} partition", entry["construction"]["partition_ok"],
                      True)
        for prop in entry["properties"]:
            mode = prop["stats"].get("mode", "")
            checks.expect(f"q={q} {prop['name']} {mode}", prop["computed"],
                          prop["predicted"])
    checks.expect("suite json sha256", hashlib.sha256(data).hexdigest(),
                  golden["sha256"])
    return {"output_bytes": len(data)}


def hb1f_sampled(seed: int, golden: dict, checks: Checks, samples: int = 1000):
    """HB1F at q=32 on triples drawn from the workload seed."""
    fact = _built(checks, 32)
    verdict = check_hb1f(fact, "sampled", samples=samples, seed=seed)
    _verdict(checks, "hb1f q=32 sampled", verdict, golden)


def hb1f(seed: int, work_dir: Path, golden: dict, checks: Checks) -> dict:
    """Every triple at q=11, then a seeded sample of triples at q=32."""
    fact = _built(checks, 11)
    _verdict(checks, "hb1f q=11 full", check_hb1f(fact, "full"),
             golden["q11_full"])
    hb1f_sampled(seed, golden["q32_sampled"], checks)
    return {}


def subgroups(seed: int, work_dir: Path, golden: dict, checks: Checks) -> dict:
    """A4 pair census at q=17, then the early-exit classification at q=41."""
    census = a4_pair_census(_built(checks, 17))
    checks.expect("q=17 a4_pair_count", census["a4_pair_count"],
                  golden["a4_pair_count"])
    fact = _built(checks, 41)
    ctx = fact.ctx
    base = base_map(ctx)
    classes: dict[str, int] = {}
    transitive = 0
    labels = [f.label for f in fact.factors[1:]]
    for a, b in labels:
        m = orbit_map(ctx, a, b)
        tag = classify_subgroup(
            generate_subgroup(ctx, [base, m], stop_when_full=True), ctx).tag
        classes[tag] = classes.get(tag, 0) + 1
        transitive += is_transitive(ctx, [base, m])
    checks.expect("q=41 labels", len(labels), golden["labels"])
    checks.expect("q=41 classes", classes, golden["classes"])
    checks.expect("q=41 transitive", transitive, golden["transitive"])
    return {}


#: name -> (body, timed build_factorisation calls it must make)
WORKLOADS = {
    "suite": (suite, 13),
    "hb1f": (hb1f, 2),
    "subgroups": (subgroups, 2),
}
