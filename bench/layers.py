"""Which trifactor calls the benchmark wraps, and the per-layer metrics.

Each layer is one module of the package.  Functions get a span per call on
every binding of them in the loaded ``trifactor.*`` modules and in the
benchmark's own modules, so a call made through the caller's binding (for
example ``trifactor.verifier.find_hamilton_berge_cycle``) is seen.  The hot
methods (field arithmetic and Mobius evaluation, construction and
composition) only count their calls: a span on each of them would cost
more than the work it measures.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict

from tracing import Tracer, percentile, self_times

FIELD_OPS = ("mul", "inv", "div", "add", "trace", "solve_quadratic")

#: (counter name, module, class, method): call counts only.
COUNTED = [
    *((f"field.{op}", "trifactor.field", "FiniteField", op) for op in FIELD_OPS),
    ("projline.mobius_new", "trifactor.projline", "Mobius", "__init__"),
    ("projline.mobius_eval", "trifactor.projline", "Mobius", "__call__"),
    ("projline.compose", "trifactor.projline", "Mobius", "compose"),
]


def _tasks(stats: dict) -> int:
    return stats.get("tasks", 0) + stats.get("overlap_tasks", 0) + stats.get(
        "isomorphism_tasks", 0
    )


def _observe_build(tracer: Tracer, fact) -> None:
    tracer.tally("factorisation.factors_built", len(fact.factors))


def _observe_berge(tracer: Tracer, result) -> None:
    tracer.tally(f"hypergraph.berge_{result.status}")


def _observe_closure(tracer: Tracer, group) -> None:
    if group.full_group and group.elements is None:
        tracer.tally("groups.full_exits")


def _observe_verdict(tracer: Tracer, verdict) -> None:
    if isinstance(verdict, tuple):  # check_u1f: (u1f, uc1f) sharing one sweep
        verdict = verdict[0]
    tracer.tally("verifier.tasks", _tasks(verdict.stats))


#: (span name, module, class or None, attribute, observer).
SPANNED = [
    ("field.ctx_build", "trifactor.field", "FiniteField", "__init__", None),
    ("projline.orbit_map", "trifactor.projline", None, "orbit_map", None),
    ("projline.permutation", "trifactor.projline", "Mobius", "permutation", None),
    ("factorisation.build", "trifactor.factorisation", None, "build_factorisation",
     _observe_build),
    ("factorisation.verify_partition", "trifactor.factorisation", None,
     "verify_partition", None),
    ("hypergraph.union", "trifactor.hypergraph", None, "union_hypergraph", None),
    ("hypergraph.connected", "trifactor.hypergraph", None, "is_connected", None),
    ("hypergraph.overlap", "trifactor.hypergraph", None, "pair_overlap", None),
    ("hypergraph.iso", "trifactor.hypergraph", None, "find_isomorphism", None),
    ("hypergraph.berge", "trifactor.hypergraph", None, "find_hamilton_berge_cycle",
     _observe_berge),
    ("groups.closure", "trifactor.groups", None, "generate_subgroup",
     _observe_closure),
    ("groups.transitive", "trifactor.groups", None, "is_transitive", None),
    ("verifier.c1f", "trifactor.verifier", None, "check_c1f", _observe_verdict),
    ("verifier.u1f", "trifactor.verifier", None, "check_u1f", _observe_verdict),
    ("verifier.hb1f", "trifactor.verifier", None, "check_hb1f", _observe_verdict),
    ("verifier.overlap_hist", "trifactor.verifier", None, "overlap_distribution",
     None),
    ("verifier.trace_scan", "trifactor.verifier", None, "char2_uniformity_scan",
     None),
    ("verifier.suite", "trifactor.verifier", None, "run_suite", None),
    ("cli.main", "trifactor.cli", None, "main", None),
]

#: The spans that make up set-up time; the only wrappers of an untraced run.
SETUP_SPANS = ("factorisation.build", "factorisation.verify_partition")


def install(tracer: Tracer, callers: list, traced: bool) -> None:
    """Wrap the set-up calls, and with traced every call in the tables above.

    callers are the benchmark's own modules whose bindings are wrapped too.
    Raises if a function has no binding left to wrap, so a renamed or moved
    function cannot silently drop out of the measurement.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "trifactor" or name.startswith("trifactor.")]
    modules += callers
    for name, mod_name, cls_name, attr, observe in SPANNED:
        if not traced and name not in SETUP_SPANS:
            continue
        module = importlib.import_module(mod_name)
        if cls_name is not None:
            cls = getattr(module, cls_name)
            tracer.patch(cls, attr, tracer.spanned(name, vars(cls)[attr], observe))
            continue
        fn = getattr(module, attr)
        if not tracer.patch_bindings(modules, fn, tracer.spanned(name, fn, observe)):
            raise RuntimeError(f"no binding of {mod_name}.{attr} to wrap")
    if traced:
        for name, mod_name, cls_name, attr in COUNTED:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            tracer.patch(cls, attr, tracer.counted(name, vars(cls)[attr]))


def setup_seconds(spans: list[tuple]) -> tuple[float, int]:
    """Summed time of the set-up spans, and how many builds were timed."""
    total = sum(s[2] - s[1] for s in spans if s[0] in SETUP_SPANS)
    builds = sum(1 for s in spans if s[0] == "factorisation.build")
    return total, builds


def _ms_or_zero(value: float | None) -> float:
    return 0.0 if value is None else value * 1000


def layer_metrics(tracer: Tracer, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run; absent work reads as 0."""
    spans = tracer.closed_spans()
    durations: dict[str, list[float]] = defaultdict(list)
    self_by_layer: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        durations[span[0]].append(span[2] - span[1])
        self_by_layer[span[0].split(".", 1)[0]] += own
    counts = tracer.call_counts()
    tallies = tracer.tallies

    def total(name: str) -> float:
        return sum(durations[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {"field.ctx_build_ms": total("field.ctx_build") * 1000}
    for op in FIELD_OPS:
        m[f"field.{op}_calls"] = counts[f"field.{op}"]

    m["projline.mobius_new_calls"] = counts["projline.mobius_new"]
    m["projline.mobius_eval_calls"] = counts["projline.mobius_eval"]
    m["projline.orbit_map_calls"] = len(durations["projline.orbit_map"])
    m["projline.orbit_map_s"] = total("projline.orbit_map")
    m["projline.permutation_s"] = total("projline.permutation")
    m["projline.compose_calls"] = counts["projline.compose"]

    labels_built = sum(
        1 for s in spans
        if s[0] == "projline.orbit_map" and s[3] >= 0
        and spans[s[3]][0] == "factorisation.build"
    )
    m["factorisation.build_s"] = total("factorisation.build")
    m["factorisation.verify_partition_s"] = total("factorisation.verify_partition")
    m["factorisation.labels_per_factor"] = ratio(
        labels_built, tallies.get("factorisation.factors_built", 0))

    for short in ("union", "connected", "overlap", "iso", "berge"):
        m[f"hypergraph.{short}_calls"] = len(durations[f"hypergraph.{short}"])
        m[f"hypergraph.{short}_s"] = total(f"hypergraph.{short}")
    berge = durations["hypergraph.berge"]
    m["hypergraph.berge_p50_ms"] = _ms_or_zero(percentile(berge, 50))
    m["hypergraph.berge_p99_ms"] = _ms_or_zero(percentile(berge, 99))
    m["hypergraph.berge_found_ratio"] = ratio(
        tallies.get("hypergraph.berge_found", 0), len(berge))
    m["hypergraph.berge_timeouts"] = tallies.get("hypergraph.berge_timeout", 0)

    closure = durations["groups.closure"]
    m["groups.closure_calls"] = len(closure)
    m["groups.closure_s"] = sum(closure)
    m["groups.closure_p50_ms"] = _ms_or_zero(percentile(closure, 50))
    m["groups.closure_p99_ms"] = _ms_or_zero(percentile(closure, 99))
    m["groups.full_exit_ratio"] = ratio(tallies.get("groups.full_exits", 0),
                                        len(closure))
    m["groups.transitive_s"] = total("groups.transitive")

    for short in ("c1f", "u1f", "hb1f", "overlap_hist", "trace_scan"):
        m[f"verifier.{short}_s"] = total(f"verifier.{short}")
    m["verifier.self_s"] = self_by_layer["verifier"]
    m["verifier.tasks"] = tallies.get("verifier.tasks", 0)

    m["cli.self_s"] = self_by_layer["cli"]
    m["cli.output_bytes"] = facts.get("output_bytes", 0)
    return m
