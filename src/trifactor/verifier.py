"""Theorem-level verification of the factorisation family.

Predictions (closed-form predicates in q) and computations (exhaustive or
reduced sweeps over pairs and triples of one-factors) are separate code
paths compared at the end, so the classification statements are never
allowed to short-circuit the search that is supposed to verify them.

Reduced sweeps fix the first factor to the one labelled (1, 0); this is
sound and complete because any pair or triple can be relabelled by an
affine change of coordinates that maps its first member there.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

from .factorisation import (
    Factorisation,
    build_factorisation,
    build_one_factor,
    require_residue,
    verify_partition,
)
from .field import FiniteField, InvariantError, UsageError, field, is_prime
from .hypergraph import (
    components,
    find_hamilton_berge_cycle,
    find_isomorphism,
    is_connected,
    pair_overlap,
    pair_overlap_algebraic,
    union_hypergraph,
)

SUPPORTED_Q = (2, 5, 8, 11, 17, 23, 29, 32, 41, 47, 53, 59, 125)
PROPERTIES = ("c1f", "u1f", "uc1f", "hb1f")


class NotPrimePowerError(UsageError):
    """q is not a prime power."""


class EvenDegreeError(UsageError):
    """The scan requires an odd extension degree."""


class WrongFieldError(UsageError):
    """Operation requires an odd-degree extension of GF(5)."""


class AlphaInSubfieldError(UsageError):
    """The element must lie outside the prime subfield."""


class OutOfRangeError(UsageError):
    """Scan degree outside the supported range."""


def factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotPrimePowerError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            l = 0
            r = q
            while r % p == 0:
                r //= p
                l += 1
            if r != 1:
                raise NotPrimePowerError(f"{q} is not a prime power")
            return p, l
        p += 1
    return q, 1


def field_for(q: int) -> FiniteField:
    p, l = factor_prime_power(q)
    require_residue(q)
    return field(p, l)


def predict_c1f(q: int) -> bool:
    """Connectedness predicate: q in {2, 5, 11} or 2^p with p an odd prime."""
    p, l = factor_prime_power(q)
    require_residue(q)
    if q in (2, 5, 11):
        return True
    return p == 2 and is_prime(l) and l % 2 == 1


def predict_u1f(q: int) -> bool:
    """Uniformity predicate: q in {2, 5, 8}."""
    factor_prime_power(q)
    require_residue(q)
    return q in (2, 5, 8)


def predict_hb1f(q: int) -> bool:
    """Hamilton-Berge predicate, conjecturally the same as connectedness.

    Verified computationally for q in {2, 5, 8, 11, 32} and sampled at 128;
    the suite exists to compare this prediction against searches.
    """
    return predict_c1f(q)


@dataclass
class TheoremVerdict:
    q: int
    prop: str
    computed: bool | None  # None means indeterminate (a search timed out)
    predicted: bool
    witness: dict | None = None
    stats: dict = dc_field(default_factory=dict)

    @property
    def discrepancy(self) -> bool:
        return self.computed is not None and self.computed != self.predicted

    @property
    def indeterminate(self) -> bool:
        return self.computed is None

    def to_dict(self, include_timings: bool = False) -> dict:
        stats = dict(self.stats)
        if not include_timings:
            stats.pop("elapsed_ms", None)
        return {
            "name": self.prop,
            "computed": self.computed,
            "predicted": self.predicted,
            "witness": self.witness,
            "stats": stats,
        }


def _label_json(ctx: FiniteField, label: tuple[int, int]) -> list[str]:
    return [ctx.element_str(label[0]), ctx.element_str(label[1])]


def check_c1f(fact: Factorisation, mode: str = "reduced") -> TheoremVerdict:
    """Is every union of two distinct factors connected?

    Reduced mode checks only pairs containing the base factor; full mode
    checks every pair.  The witness of a false verdict is the first
    disconnected pair with its component partition.
    """
    ctx = fact.ctx
    n = ctx.q + 1
    nf = len(fact.factors)
    if mode == "reduced":
        pairs = ((0, j) for j in range(1, nf))
    elif mode == "full":
        pairs = itertools.combinations(range(nf), 2)
    else:
        raise UsageError(f"unknown mode {mode!r}")
    t0 = time.monotonic()
    witness = None
    connected_all = True
    tasks = 0
    for i, j in pairs:
        tasks += 1
        h = union_hypergraph(n, [fact.factors[i], fact.factors[j]])
        if not is_connected(h):
            connected_all = False
            if witness is None:
                witness = {
                    "pair": [
                        _label_json(ctx, fact.factors[i].label),
                        _label_json(ctx, fact.factors[j].label),
                    ],
                    "components": components(h),
                }
    return TheoremVerdict(
        ctx.q,
        "c1f",
        connected_all,
        predict_c1f(ctx.q),
        witness,
        {
            "mode": mode,
            "tasks": tasks,
            "elapsed_ms": int((time.monotonic() - t0) * 1000),
        },
    )


def check_u1f(fact: Factorisation) -> tuple[TheoremVerdict, TheoremVerdict]:
    """Uniformity and uniform-connectedness verdicts.

    Stage 1 computes the overlap of the base factor with every other
    (reduced sweep); any value other than 2 refutes uniformity at once.
    Stage 2 confirms that every pairwise union is isomorphic to a common
    reference.  The UC1F verdict adds connectivity of that reference.
    """
    ctx = fact.ctx
    q = ctx.q
    n = q + 1
    nf = len(fact.factors)
    t0 = time.monotonic()
    base = fact.factors[0]
    witness = None
    computed: bool | None = True
    overlap_tasks = 0
    for j in range(1, nf):
        overlap_tasks += 1
        r = pair_overlap(base, fact.factors[j])
        if r.count != 2:
            computed = False
            witness = {
                "pair": [
                    _label_json(ctx, base.label),
                    _label_json(ctx, fact.factors[j].label),
                ],
                "overlap": r.count,
            }
            break
    iso_tasks = 0
    reference = None
    if nf >= 2:
        reference = union_hypergraph(n, [fact.factors[0], fact.factors[1]])
    if computed and reference is not None:
        for i, j in itertools.combinations(range(nf), 2):
            iso_tasks += 1
            h = union_hypergraph(n, [fact.factors[i], fact.factors[j]])
            if find_isomorphism(h, reference) is None:
                computed = False
                witness = {
                    "pair": [
                        _label_json(ctx, fact.factors[i].label),
                        _label_json(ctx, fact.factors[j].label),
                    ],
                    "reason": "not_isomorphic",
                }
                break
    stats = {
        "overlap_tasks": overlap_tasks,
        "isomorphism_tasks": iso_tasks,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    u1f = TheoremVerdict(q, "u1f", computed, predict_u1f(q), witness, stats)
    uc1f_computed = computed and (reference is None or is_connected(reference))
    uc1f = TheoremVerdict(
        q, "uc1f", uc1f_computed, predict_u1f(q), witness, dict(stats)
    )
    return u1f, uc1f


# -- Hamilton-Berge sweeps ---------------------------------------------------

_WORKER_FACT: Factorisation | None = None


def _hb1f_worker_init(p: int, l: int) -> None:
    global _WORKER_FACT
    _WORKER_FACT = build_factorisation(field(p, l))


def _hb1f_check_triples(
    fact: Factorisation, triples, time_budget: float
) -> list[tuple[tuple[int, int, int], str]]:
    n = fact.ctx.q + 1
    out = []
    for t in triples:
        h = union_hypergraph(n, [fact.factors[i] for i in t])
        if not is_connected(h):
            out.append((t, "disconnected"))
        else:
            out.append((t, find_hamilton_berge_cycle(h, time_budget).status))
    return out


def _hb1f_worker_chunk(args):
    triples, time_budget = args
    return _hb1f_check_triples(_WORKER_FACT, triples, time_budget)


def check_hb1f(
    fact: Factorisation,
    mode: str = "reduced",
    samples: int | None = None,
    seed: int | None = None,
    time_budget: float = 10.0,
    workers: int = 1,
) -> TheoremVerdict:
    """Does every union of three distinct factors have a Hamilton Berge cycle?

    Connectivity is checked first as the cheap necessary condition; a
    disconnected triple is a definite counterexample and is flagged as
    such.  A search timeout makes the verdict indeterminate rather than
    false.  Sampled mode draws `samples` random triples from the given
    seed and searches each distinct one once (stats: tasks = samples,
    distinct_tasks, and timeouts among the distinct triples); reduced mode
    fixes the first factor to the base factor.
    """
    ctx = fact.ctx
    q = ctx.q
    nf = len(fact.factors)
    t0 = time.monotonic()
    if mode == "full":
        triples = list(itertools.combinations(range(nf), 3))
    elif mode == "reduced":
        triples = [(0, i, j) for i, j in itertools.combinations(range(1, nf), 2)]
    elif mode == "sampled":
        if samples is None or seed is None:
            raise UsageError("sampled mode needs samples and seed")
        if samples < 1 or nf < 3:
            raise UsageError(f"sampled mode needs samples >= 1 and at least 3 "
                             f"factors, got {samples} and {nf}")
        rng = random.Random(seed)
        drawn = [tuple(sorted(rng.sample(range(nf), 3))) for _ in range(samples)]
        # draws repeat; search each distinct triple once, in first-draw order
        triples = list(dict.fromkeys(drawn))
    else:
        raise UsageError(f"unknown mode {mode!r}")

    if workers > 1 and len(triples) > 1000:
        chunk_size = 250
        chunks = [
            (triples[i : i + chunk_size], time_budget)
            for i in range(0, len(triples), chunk_size)
        ]
        results = []
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_hb1f_worker_init,
            initargs=(ctx.p, ctx.l),
        ) as pool:
            for part in pool.map(_hb1f_worker_chunk, chunks):
                results.extend(part)
    else:
        results = _hb1f_check_triples(fact, triples, time_budget)

    witness = None
    computed: bool | None = True
    timeouts = 0
    for t, status in results:
        if status in ("disconnected", "none"):
            if witness is None:
                labels = [_label_json(ctx, fact.factors[i].label) for i in t]
                witness = {
                    "triple": labels,
                    "disconnected": status == "disconnected",
                }
            computed = False
        elif status == "timeout":
            timeouts += 1
    if computed and timeouts:
        computed = None
    stats = {
        "mode": mode,
        "tasks": samples if mode == "sampled" else len(triples),
        "timeouts": timeouts,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    if mode == "sampled":
        stats["distinct_tasks"] = len(triples)
        stats["samples"] = samples
        stats["seed"] = seed
    return TheoremVerdict(q, "hb1f", computed, predict_hb1f(q), witness, stats)


def overlap_distribution(fact: Factorisation) -> dict[int, int]:
    """Histogram of base-factor overlaps over the reduced sweep."""
    base = fact.factors[0]
    hist: dict[int, int] = {}
    for f in fact.factors[1:]:
        c = pair_overlap(base, f).count
        hist[c] = hist.get(c, 0) + 1
    return dict(sorted(hist.items()))


# -- characteristic-2 and characteristic-5 scans -----------------------------


def char2_uniformity_scan(l: int) -> dict:
    """Trace scans over GF(2^l) behind the uniformity classification.

    witnesses_eq4 lists the a in F* for which one of the two trace
    conditions vanishes (each such a produces an overlap-4 pair, refuting
    uniformity).  trace1_count counts x outside {0, 1} with
    Tr(x + 1/x) = 1; such x are roots of a polynomial of degree
    2^(l-1) + 2^(l-2), which bounds the count and forces a witness to
    exist for l > 3.
    """
    if not 3 <= l <= 17:
        raise OutOfRangeError(f"degree {l} outside [3, 17]")
    if l % 2 == 0:
        raise EvenDegreeError("scan requires odd degree")
    ctx = field(2, l)
    q = ctx.q
    witnesses = []
    for a in range(1, q):
        s = ctx.add(ctx.add(ctx.mul(a, a), a), 1)  # a^2 + a + 1, never 0
        s2inv = ctx.inv(ctx.mul(s, s))
        if ctx.trace(ctx.mul(a, s2inv)) == 0:
            witnesses.append(a)
        elif ctx.trace(ctx.mul(ctx.mul(a, a), s2inv)) == 0:
            witnesses.append(a)
    trace1_count = 0
    for x in range(2, q):
        if ctx.trace(ctx.add(x, ctx.inv(x))) == 1:
            trace1_count += 1
    bound = (1 << (l - 1)) + (1 << (l - 2))
    if trace1_count > bound:
        raise InvariantError(f"{trace1_count} roots exceed the degree bound {bound}")
    return {
        "l": l,
        "witnesses_eq4": witnesses,
        "all_trace1": trace1_count == q - 2,
        "poly_root_count": trace1_count,
        "root_bound": bound,
    }


def char5_overlap_check(ctx: FiniteField, alpha: int) -> dict:
    """Overlap-4 partners of the base factor over odd-degree GF(5^l).

    For alpha outside the prime subfield, at least one of the labels
    (a, -a), (a, 1-a), (a^2, 1-a^2) must give overlap 4 with the base
    factor; which one is governed by the squareness of a^2 - a + 1 and
    a^2 + a + 1, whose product is a^4 + a^2 + 1 (a square by cyclicity
    when both are non-squares).
    """
    if ctx.p != 5 or ctx.l == 1 or ctx.l % 2 == 0:
        raise WrongFieldError("requires an odd-degree extension of GF(5)")
    if alpha < 5:
        raise AlphaInSubfieldError("alpha must lie outside the prime subfield")
    a = alpha
    base = build_one_factor(ctx, 1, 0)
    one = 1
    a2 = ctx.mul(a, a)
    d1 = ctx.add(ctx.sub(a2, a), one)  # a^2 - a + 1
    d2 = ctx.add(ctx.add(a2, a), one)  # a^2 + a + 1
    labels = [
        ((a, ctx.neg(a)), d1),
        ((a, ctx.sub(one, a)), d2),
        ((ctx.mul(a, a), ctx.sub(one, ctx.mul(a, a))), None),
    ]
    candidates = []
    some4 = False
    for (la, lb), disc in labels:
        overlap = pair_overlap(base, build_one_factor(ctx, la, lb)).count
        some4 = some4 or overlap == 4
        entry = {
            "label": _label_json(ctx, (la, lb)),
            "overlap": overlap,
        }
        if disc is not None:
            entry["discriminant_square"] = ctx.is_square(disc)
        candidates.append(entry)
    a4 = ctx.mul(a2, a2)
    product_ok = ctx.mul(d1, d2) == ctx.add(ctx.add(a4, a2), one)
    return {
        "alpha": ctx.element_str(a),
        "candidates": candidates,
        "some_overlap_4": some4,
        "product_identity_ok": product_ok,
    }


# -- the suite ---------------------------------------------------------------


@dataclass
class SuiteConfig:
    qs: tuple[int, ...] = SUPPORTED_Q
    c1f_full_max_q: int = 17
    hb1f_full_qs: tuple[int, ...] = (2, 5, 8)
    hb1f_reduced_qs: tuple[int, ...] = ()
    hb1f_sampled: tuple[tuple[int, int, int], ...] = ()  # (q, samples, seed)
    trace_scan_degrees: tuple[int, ...] = (3, 5, 7, 9, 11, 13)
    time_budget: float = 10.0
    workers: int = 1
    include_timings: bool = False
    expectations: dict = dc_field(default_factory=dict)  # (prop, q) -> bool

    def describe(self) -> dict:
        return {
            "qs": list(self.qs),
            "c1f_full_max_q": self.c1f_full_max_q,
            "hb1f_full_qs": list(self.hb1f_full_qs),
            "hb1f_reduced_qs": list(self.hb1f_reduced_qs),
            "hb1f_sampled": [list(t) for t in self.hb1f_sampled],
            "trace_scan_degrees": list(self.trace_scan_degrees),
            "time_budget": self.time_budget,
            "expectations": {
                f"{prop}_{q}": v for (prop, q), v in sorted(self.expectations.items())
            },
        }


def parse_config(text: str) -> SuiteConfig:
    """Parse the key = value suite configuration format.

    A line that does not parse raises UsageError naming the line.
    """
    cfg = SuiteConfig()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _set_config_line(cfg, line)
        except ValueError as exc:
            raise UsageError(f"bad config line {raw!r}: {exc}") from None
    return cfg


def _set_config_line(cfg: SuiteConfig, line: str) -> None:
    if "=" not in line:
        raise ValueError("expected key = value")
    key, _, value = line.partition("=")
    key = key.strip()
    value = value.strip()
    if key == "qs":
        cfg.qs = tuple(int(v) for v in value.split())
    elif key == "c1f_full_max_q":
        cfg.c1f_full_max_q = int(value)
    elif key == "hb1f_full_qs":
        cfg.hb1f_full_qs = tuple(int(v) for v in value.split())
    elif key == "hb1f_reduced_qs":
        cfg.hb1f_reduced_qs = tuple(int(v) for v in value.split())
    elif key == "hb1f_sampled":
        entries = []
        for part in value.split():
            q, n, seed = part.split(":")
            entries.append((int(q), int(n), int(seed)))
        cfg.hb1f_sampled = tuple(entries)
    elif key == "trace_scans":
        cfg.trace_scan_degrees = tuple(int(v) for v in value.split())
    elif key == "time_budget":
        cfg.time_budget = float(value)
    elif key == "workers":
        cfg.workers = int(value)
    elif key.startswith("expect_"):
        _, prop, q = key.split("_")
        if prop not in PROPERTIES:
            raise ValueError(f"unknown property {prop!r}")
        if value not in ("true", "false"):
            raise ValueError(f"bad expectation value {value!r}")
        cfg.expectations[(prop, int(q))] = value == "true"
    else:
        raise ValueError(f"unknown config key {key!r}")


def default_config() -> SuiteConfig:
    return SuiteConfig()


@dataclass
class SuiteReport:
    config: dict
    entries: list[dict]
    scans: dict
    discrepancies: int
    indeterminates: int

    @property
    def exit_code(self) -> int:
        if self.discrepancies:
            return 1
        if self.indeterminates:
            return 2
        return 0

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "suite": self.entries,
            "scans": self.scans,
            "discrepancies": self.discrepancies,
            "indeterminates": self.indeterminates,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        for entry in self.entries:
            q = entry["q"]
            con = entry["construction"]
            lines.append(
                f"q={q}: {con['factors']} factors, {con['edges']} edges, "
                f"partition {'ok' if con['partition_ok'] else 'BROKEN'}"
            )
            for prop in entry["properties"]:
                comp = prop["computed"]
                comp_text = "indeterminate" if comp is None else str(comp).lower()
                mark = "ok" if comp == prop["predicted"] else "MISMATCH"
                mode = prop["stats"].get("mode", "")
                mode_text = f" [{mode}]" if mode else ""
                lines.append(
                    f"  {prop['name']}{mode_text}: computed={comp_text} "
                    f"predicted={str(prop['predicted']).lower()} {mark}"
                )
            hist = entry["overlap_histogram"]
            lines.append(f"  overlaps: {hist}")
        for l, scan in sorted(self.scans.items(), key=lambda kv: int(kv[0])):
            lines.append(
                f"trace scan l={l}: witnesses={scan['witness_count']} "
                f"all_trace1={scan['all_trace1']} "
                f"roots={scan['poly_root_count']}<={scan['root_bound']}"
            )
        lines.append(
            f"discrepancies={self.discrepancies} "
            f"indeterminates={self.indeterminates}"
        )
        return "\n".join(lines) + "\n"


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run every configured check and compare computed against predicted."""
    entries = []
    discrepancies = 0
    indeterminates = 0

    def note(verdict: TheoremVerdict, prop_list: list[dict]) -> None:
        nonlocal discrepancies, indeterminates
        expected = cfg.expectations.get((verdict.prop, verdict.q))
        if expected is not None:
            verdict = TheoremVerdict(
                verdict.q,
                verdict.prop,
                verdict.computed,
                expected,
                verdict.witness,
                verdict.stats,
            )
        if verdict.discrepancy:
            discrepancies += 1
        if verdict.indeterminate:
            indeterminates += 1
        prop_list.append(verdict.to_dict(cfg.include_timings))

    for q in cfg.qs:
        ctx = field_for(q)
        fact = build_factorisation(ctx)
        report = verify_partition(fact)
        props: list[dict] = []
        note(check_c1f(fact, mode="reduced"), props)
        if q <= cfg.c1f_full_max_q:
            note(check_c1f(fact, mode="full"), props)
        u1f, uc1f = check_u1f(fact)
        note(u1f, props)
        note(uc1f, props)
        if q in cfg.hb1f_full_qs:
            note(
                check_hb1f(fact, "full", time_budget=cfg.time_budget,
                           workers=cfg.workers),
                props,
            )
        if q in cfg.hb1f_reduced_qs:
            note(
                check_hb1f(fact, "reduced", time_budget=cfg.time_budget,
                           workers=cfg.workers),
                props,
            )
        for sq, n, seed in cfg.hb1f_sampled:
            if sq == q:
                note(
                    check_hb1f(fact, "sampled", samples=n, seed=seed,
                               time_budget=cfg.time_budget,
                               workers=cfg.workers),
                    props,
                )
        entries.append(
            {
                "q": q,
                "field": ctx.describe(),
                "construction": {
                    "factors": len(fact.factors),
                    "edges": report.total_edges,
                    "partition_ok": report.ok,
                },
                "properties": props,
                "overlap_histogram": {
                    str(k): v for k, v in overlap_distribution(fact).items()
                },
            }
        )
    scans = {}
    for l in cfg.trace_scan_degrees:
        scan = char2_uniformity_scan(l)
        witnesses = scan["witnesses_eq4"]
        scans[str(l)] = {
            "witnesses_eq4": witnesses[:16],
            "witness_count": len(witnesses),
            "all_trace1": scan["all_trace1"],
            "poly_root_count": scan["poly_root_count"],
            "root_bound": scan["root_bound"],
        }
        expected_witnesses = l > 3
        if (len(witnesses) > 0) != expected_witnesses:
            discrepancies += 1
    return SuiteReport(
        cfg.describe(), entries, scans, discrepancies, indeterminates
    )
