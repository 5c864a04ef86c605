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

import functools
import itertools
import json
import random
import time
from collections import Counter
from operator import itemgetter

from .factorisation import (
    Factorisation,
    _moved,
    build_factorisation,
    edges_of,
    require_residue,
    verify_partition,
)
from .field import (
    FiniteField,
    InvariantError,
    OutOfRangeError,
    UsageError,
    _distinct_prime_factors,
    field,
    is_prime,
)
from .hypergraph import (
    DEFAULT_TIME_BUDGET,
    block_map,
    block_overlap,
    blocks_connected,
    components,
    find_hamilton_berge_cycle,
    find_isomorphism,
    is_connected,
    overlaps_by_traces,
    union_hypergraph,
    validate_berge_cycle,
)
from .projline import affine_map, invert

SUPPORTED_Q = (2, 5, 8, 11, 17, 23, 29, 32, 41, 47, 53, 59, 125)
PROPERTIES = ("c1f", "u1f", "uc1f", "hb1f")


def factor_prime_power(q: int) -> tuple[int, int]:
    primes = _distinct_prime_factors(q)
    if len(primes) != 1:
        raise UsageError(f"{q} is not a prime power")
    p, l = primes[0], 1
    while p**l != q:
        l += 1
    return p, l


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


class TheoremVerdict:
    """computed is None when the verdict is indeterminate (a search timed out)."""

    def __init__(self, q: int, prop: str, computed: bool | None, predicted: bool,
                 witness: dict | None = None, stats: dict | None = None):
        self.q = q
        self.prop = prop
        self.computed = computed
        self.predicted = predicted
        self.witness = witness
        self.stats = {} if stats is None else stats

    @property
    def discrepancy(self) -> bool:
        return self.computed is not None and self.computed != self.predicted

    @property
    def indeterminate(self) -> bool:
        return self.computed is None

    def to_dict(self) -> dict:
        return {
            "name": self.prop,
            "computed": self.computed,
            "predicted": self.predicted,
            "witness": self.witness,
            "stats": dict(self.stats),
        }


def _labels_json(fact: Factorisation, indices) -> list[list[str]]:
    """The labels of the factors at indices, as element strings: a witness."""
    element_str = fact.ctx.element_str
    return [[element_str(a), element_str(b)]
            for a, b in (fact.factors[i].label for i in indices)]


def _sweep(nf: int, k: int, mode: str):
    """The k-subsets of range(nf), lazily: all in full mode, those with 0 in reduced."""
    if mode == "full":
        return itertools.combinations(range(nf), k)
    if mode == "reduced":
        return ((0, *rest) for rest in itertools.combinations(range(1, nf), k - 1))
    raise UsageError(f"unknown mode {mode!r}")


def _to_base(fact: Factorisation):
    """affine(m), the inverse of x -> a x + b of m's label, which moves factor
    m to the base, cached per sweep; Factorisation.image moves the others."""
    @functools.cache
    def affine(m):
        return invert(affine_map(fact.ctx, *fact.factors[m].label).permutation())

    return affine


def _codes(bit: list[int], points) -> list[int]:
    """The edges of points, three points an edge, each as bit[x] | bit[y] |
    bit[z], sorted: with bit[v] marking v's image, the image's edge multiset."""
    return sorted([bit[x] | bit[y] | bit[z] for x, y, z in edges_of(points)])


def check_c1f(fact: Factorisation, mode: str = "reduced") -> TheoremVerdict:
    """Is every union of two distinct factors connected?

    Reduced mode checks only pairs containing the base factor; full mode
    checks every pair, each on its first factor's block map.  The witness
    of a false verdict is the first disconnected pair with its components.
    """
    q = fact.ctx.q
    factors = fact.factors
    witness = None
    tasks = 0
    for i, pairs in itertools.groupby(_sweep(len(factors), 2, mode), itemgetter(0)):
        block = block_map(factors[i])
        for _, j in pairs:
            tasks += 1
            if not blocks_connected(block, factors[j]):
                if witness is None:
                    h = union_hypergraph(q + 1, [factors[i], factors[j]])
                    witness = {"pair": _labels_json(fact, (i, j)),
                               "components": components(h)}
    return TheoremVerdict(q, "c1f", witness is None, predict_c1f(q), witness,
                          {"mode": mode, "tasks": tasks})


def check_u1f(fact: Factorisation) -> tuple[TheoremVerdict, TheoremVerdict]:
    """Uniformity and uniform-connectedness verdicts.

    Stage 1 computes the overlap of the base factor with every other on its
    block map; any value other than 2 refutes uniformity at once.  Stage 2
    confirms that every pairwise union is isomorphic to the reference, the
    union of factors 0 and 1.  affine(i), then elements[tau[x]] for x the
    image of j under affine(i), moves pair (i, j) onto (0, r), r the least
    of x's N-orbit; the sweep meets (0, r) first and searches one
    isomorphism there.  That map, then it, must move the pair's edges onto
    the reference's, compared as _codes, else InvariantError.  UC1F adds
    connectivity of the reference.
    """
    q = fact.ctx.q
    n = q + 1
    factors = fact.factors
    nf = len(factors)
    witness = None
    computed: bool | None = True
    overlap_tasks = 0
    block = block_map(factors[0])
    for j in range(1, nf):
        overlap_tasks += 1
        count = block_overlap(block, factors[j])
        if count != 2:
            computed = False
            witness = {"pair": _labels_json(fact, (0, j)), "overlap": count}
            break
    iso_tasks = 0
    reference = union_hypergraph(n, factors[:2]) if nf >= 2 else None
    if computed and reference is not None:
        target = _codes([1 << v for v in range(n)], reference.points)
        affine = _to_base(fact)
        sym = fact.symmetry
        found = {}  # N-orbit representative r -> isomorphism of (0, r), or None
        for i, j in _sweep(nf, 2, "full"):
            iso_tasks += 1
            x = fact.image(affine(i), j)
            r = sym.rep[x]
            if r not in found:
                found[r] = find_isomorphism(union_hypergraph(n, [factors[0], factors[r]]),
                                            reference)
            if found[r] is None:
                computed = False
                witness = {"pair": _labels_json(fact, (i, j)),
                           "reason": "not_isomorphic"}
                break
            g = sym.elements[sym.tau[x]]
            if _codes([1 << found[r][g[v]] for v in affine(i)],
                      factors[i].points + factors[j].points) != target:
                raise InvariantError(f"the isomorphism of pair {(i, j)} fails its replay")
    stats = {"overlap_tasks": overlap_tasks, "isomorphism_tasks": iso_tasks}
    u1f = TheoremVerdict(q, "u1f", computed, predict_u1f(q), witness, stats)
    uc1f_computed = computed and (reference is None or is_connected(reference))
    uc1f = TheoremVerdict(q, "uc1f", uc1f_computed, predict_u1f(q), witness, dict(stats))
    return u1f, uc1f


# -- Hamilton-Berge sweeps ---------------------------------------------------

def time_budget_seconds(value) -> float:
    """value as seconds per Berge search; UsageError unless finite and > 0."""
    seconds = float(value)
    if not 0 < seconds < float("inf"):
        raise UsageError(f"time budget {value!r} is not finite and above 0")
    return seconds


def _hb1f_check_triples(fact: Factorisation, triples, time_budget: float):
    """Yield each triple with "found", "none", "timeout" or "disconnected".

    affine(i) moves triple (i, j, k) onto its base triple, the images of i
    (factor 0), j and k.  Each factor move is replayed once: factor o's
    points moved by affine(m) must be its image's points, as Symmetry checks
    N's generators on the base factor.  For each member m of a base triple,
    affine(m) moves m to the base factor and N, the base's stabiliser, puts
    the other two in Symmetry.canonical form; the least form is the key,
    shared by two triples exactly when an element of PΓL(2,q) joins them.
    A key's first base triple is checked on its union: connectivity, then
    a search whose cycle must pass its replay.  A later one takes that
    status if its union, moved onto the key, has the same edges, else
    InvariantError.
    """
    sym = fact.symmetry
    affine = _to_base(fact)
    checked = {}  # key -> (edge codes moved onto the key, status)

    @functools.cache
    def replayed(m, o):
        x = fact.image(affine(m), o)
        if _moved(affine(m), fact.factors[o].points) != fact.factors[x].points:
            raise InvariantError(f"affine({m}) does not move factor {o} onto factor {x}")
        return x

    @functools.cache
    def status(base):
        key, s, tau, m = min(sym.canonical(*sorted(fact.image(affine(m), o)
                                                   for o in base if o != m)) + (m,)
                             for m in base)
        h = union_hypergraph(fact.ctx.q + 1, [fact.factors[x] for x in base])
        # s∘tau∘(x -> a x + b)^-1 moves base onto its key; bit[v] marks v's image
        g, t_fwd = sym.elements[s], sym.elements[tau]
        codes = _codes([1 << g[t_fwd[v]] for v in affine(m)], h.points)
        if key not in checked:
            if not is_connected(h):
                checked[key] = (codes, "disconnected")
            else:
                result = find_hamilton_berge_cycle(h, time_budget)
                if result.found and not validate_berge_cycle(h, result):
                    raise InvariantError(f"the Berge cycle of triple {base} fails its replay")
                checked[key] = (codes, result.status)
        elif codes != checked[key][0]:
            raise InvariantError(f"the union of base triple {base} is not the image of "
                                 f"its class's first union")
        return checked[key][1]

    for t in triples:
        i, j, k = t
        x, y, z = replayed(i, i), replayed(i, j), replayed(i, k)
        yield t, status((x, y, z) if y < z else (x, z, y))


def check_hb1f(
    fact: Factorisation,
    mode: str = "reduced",
    samples: int | None = None,
    seed: int | None = None,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> TheoremVerdict:
    """Does every union of three distinct factors have a Hamilton Berge cycle?

    Connectivity is checked first as the cheap necessary condition; a
    disconnected triple is a definite counterexample and is flagged as
    such.  A search timeout makes the verdict indeterminate rather than
    false, and counts once per triple of the class.  Each triple takes the
    status of its base triple through checked factor moves, and a class's
    search runs on the union of its first base triple (see
    _hb1f_check_triples).  Sampled mode draws `samples` random triples from
    the given seed and certifies each distinct one once (stats: tasks =
    samples, distinct_tasks, and timeouts among the distinct triples);
    reduced mode fixes the first factor to the base factor.  Only sampled
    mode takes samples and seed; either one in another mode is a UsageError.
    """
    time_budget_seconds(time_budget)
    if mode != "sampled" and (samples is not None or seed is not None):
        raise UsageError(f"samples and seed apply to sampled mode only, not {mode!r}")
    q = fact.ctx.q
    nf = len(fact.factors)
    if mode == "sampled":
        if samples is None or seed is None:
            raise UsageError("sampled mode needs samples and seed")
        if samples < 1 or nf < 3:
            raise UsageError(f"sampled mode needs samples >= 1 and at least 3 "
                             f"factors, got {samples} and {nf}")
        rng = random.Random(seed)
        # draws repeat; certify each distinct triple once, in first-draw order
        triples = dict.fromkeys(tuple(sorted(rng.sample(range(nf), 3)))
                                for _ in range(samples))
    else:
        triples = _sweep(nf, 3, mode)

    witness = None
    computed: bool | None = True
    timeouts = 0
    tasks = 0
    for t, status in _hb1f_check_triples(fact, triples, time_budget):
        tasks += 1
        if status in ("disconnected", "none"):
            if witness is None:
                witness = {"triple": _labels_json(fact, t),
                           "disconnected": status == "disconnected"}
            computed = False
        elif status == "timeout":
            timeouts += 1
    if computed and timeouts:
        computed = None
    stats = {
        "mode": mode,
        "tasks": samples if mode == "sampled" else tasks,
        "timeouts": timeouts,
    }
    if mode == "sampled":
        stats.update(distinct_tasks=tasks, samples=samples, seed=seed)
    return TheoremVerdict(q, "hb1f", computed, predict_hb1f(q), witness, stats)


def overlap_distribution(fact: Factorisation) -> dict[int, int]:
    """Histogram of base-factor overlaps, on the base factor's block map."""
    block = block_map(fact.factors[0])
    hist = Counter(block_overlap(block, f) for f in fact.factors[1:])
    return dict(sorted(hist.items()))


def require_overlap_histogram(fact: Factorisation, hist: dict[int, int]) -> None:
    """InvariantError unless hist counts the nf - 1 other factors and their
    (q + 1)(q - 2) shared pairs (each of the q + 1 pairs inside a base edge
    lies in q - 2 more triples, and each triple in one other factor), and
    unless it is the histogram of overlaps_by_traces over their labels."""
    q, nf = fact.ctx.q, len(fact.factors)
    if (sum(hist.values()), sum(c * k for c, k in hist.items())) != (
            nf - 1, (q + 1) * (q - 2)):
        raise InvariantError(f"q={q}: overlap histogram {hist} does not sum to "
                             f"{nf - 1} factors and {(q + 1) * (q - 2)} shared pairs")
    traced = Counter(overlaps_by_traces(fact.ctx, [f.label for f in fact.factors[1:]]))
    if hist != traced:
        raise InvariantError(f"q={q}: overlap histogram {hist} is not the fixed-point "
                             f"count's {dict(sorted(traced.items()))}")


# -- characteristic-2 scans --------------------------------------------------


def char2_uniformity_scan(l: int) -> dict:
    """Trace scans over GF(2^l) behind the uniformity classification.

    witnesses_eq4 lists the a in F* with Tr(a/s^2) = 0, s = a^2 + a + 1
    (each such a produces an overlap-4 pair, refuting uniformity).
    trace1_count counts x outside {0, 1} with Tr(x + 1/x) = 1; such x are
    roots of a polynomial of degree 2^(l-1) + 2^(l-2), which bounds the
    count and forces a witness to exist for l > 3.
    """
    if not 3 <= l <= 17:
        raise OutOfRangeError(f"degree {l} outside [3, 17]")
    if l % 2 == 0:
        raise UsageError("scan requires odd degree")
    ctx = field(2, l)
    q = ctx.q
    witnesses = []
    for a in range(1, q):
        s = ctx.add(ctx.add(ctx.mul(a, a), a), 1)  # a^2 + a + 1, never 0
        # the second overlap-4 condition, Tr(a^2/s^2) = 0, adds nothing:
        # a/s^2 + a^2/s^2 = (s + 1)/s^2 = 1/s + 1/s^2 has trace 0, since
        # Tr(x^2) = Tr(x) in characteristic 2
        if ctx.trace(ctx.mul(a, ctx.inv(ctx.mul(s, s)))) == 0:
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


# -- the suite ---------------------------------------------------------------


def exit_status(discrepancies: int, indeterminates: int) -> int:
    """1 for any discrepancy, else 2 for any indeterminate outcome, else 0."""
    if discrepancies:
        return 1
    if indeterminates:
        return 2
    return 0


def json_text(payload) -> str:
    """The deterministic JSON form of every report."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def verdict_line(computed: bool | None, predicted: bool) -> str:
    """The text of a verdict, marked ok, MISMATCH or INDETERMINATE."""
    if computed is None:
        comp, mark = "indeterminate", "INDETERMINATE"
    else:
        comp, mark = str(computed).lower(), "ok" if computed == predicted else "MISMATCH"
    return f"computed={comp} predicted={str(predicted).lower()} {mark}"


def scan_line(l, witnesses: int, scan: dict) -> str:
    """The text of a trace scan of degree l with its witness count."""
    return (f"trace scan l={l}: witnesses={witnesses} all_trace1={scan['all_trace1']} "
            f"roots={scan['poly_root_count']}<={scan['root_bound']}")


class SuiteConfig:
    """What run_suite runs.  hb1f_sampled holds (q, samples, seed) entries;
    expectations maps (prop, q) to the verdict to predict instead."""

    def __init__(self, qs: tuple[int, ...] = SUPPORTED_Q, c1f_full_max_q: int = 17,
                 hb1f_full_qs: tuple[int, ...] = (2, 5, 8),
                 hb1f_reduced_qs: tuple[int, ...] = (),
                 hb1f_sampled: tuple[tuple[int, int, int], ...] = (),
                 trace_scan_degrees: tuple[int, ...] = (3, 5, 7, 9, 11, 13),
                 time_budget: float = DEFAULT_TIME_BUDGET, include_timings: bool = False,
                 expectations: dict | None = None):
        self.qs = qs
        self.c1f_full_max_q = c1f_full_max_q
        self.hb1f_full_qs = hb1f_full_qs
        self.hb1f_reduced_qs = hb1f_reduced_qs
        self.hb1f_sampled = hb1f_sampled
        self.trace_scan_degrees = trace_scan_degrees
        self.time_budget = time_budget
        self.include_timings = include_timings
        self.expectations = {} if expectations is None else expectations

    def describe(self) -> dict:
        """Every field but the run-time ones that must not change the report."""
        out = dict(vars(self))
        del out["include_timings"]
        out["expectations"] = {
            f"{prop}_{q}": v for (prop, q), v in sorted(self.expectations.items())
        }
        return out


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
    if key in ("qs", "hb1f_full_qs", "hb1f_reduced_qs", "trace_scans"):
        values = tuple(int(v) for v in value.split())
        if len(set(values)) < len(values):  # it would run and report twice
            raise ValueError("repeated value")
        setattr(cfg, "trace_scan_degrees" if key == "trace_scans" else key, values)
    elif key == "c1f_full_max_q":
        cfg.c1f_full_max_q = int(value)
    elif key == "hb1f_sampled":
        entries = []
        for part in value.split():
            q, n, seed = part.split(":")
            entries.append((int(q), int(n), int(seed)))
        if len(set(entries)) < len(entries):
            raise ValueError("repeated value")
        cfg.hb1f_sampled = tuple(entries)
    elif key == "time_budget":
        cfg.time_budget = time_budget_seconds(value)
    elif key.startswith("expect_"):
        _, prop, q = key.split("_")
        if prop not in PROPERTIES:
            raise ValueError(f"unknown property {prop!r}")
        if value not in ("true", "false"):
            raise ValueError(f"bad expectation value {value!r}")
        cfg.expectations[(prop, int(q))] = value == "true"
    else:
        raise ValueError(f"unknown config key {key!r}")


class SuiteReport:
    def __init__(self, config: dict, entries: list[dict], scans: dict,
                 discrepancies: int, indeterminates: int):
        self.config = config
        self.entries = entries
        self.scans = scans
        self.discrepancies = discrepancies
        self.indeterminates = indeterminates

    @property
    def exit_code(self) -> int:
        return exit_status(self.discrepancies, self.indeterminates)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "suite": self.entries,
            "scans": self.scans,
            "discrepancies": self.discrepancies,
            "indeterminates": self.indeterminates,
        }

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
                mode = prop["stats"].get("mode", "")
                mode_text = f" [{mode}]" if mode else ""
                lines.append(f"  {prop['name']}{mode_text}: "
                             f"{verdict_line(prop['computed'], prop['predicted'])}")
            hist = entry["overlap_histogram"]
            lines.append(f"  overlaps: {hist}")
        for l, scan in sorted(self.scans.items(), key=lambda kv: int(kv[0])):
            lines.append(scan_line(l, scan["witness_count"], scan))
        lines.append(
            f"discrepancies={self.discrepancies} "
            f"indeterminates={self.indeterminates}"
        )
        return "\n".join(lines) + "\n"


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run every configured check and compare computed against predicted.

    An entry that no check reads is a UsageError: one for a q outside
    cfg.qs (hb1f_full_qs excepted), or an hb1f expectation at a q that no
    HB1F sweep covers.  Factors that are not 1-factors or do not partition
    the triples, or an overlap histogram off its two sums, are an
    InvariantError.
    """
    time_budget_seconds(cfg.time_budget)
    hb1f_qs = {*cfg.hb1f_full_qs, *cfg.hb1f_reduced_qs, *(q for q, _, _ in cfg.hb1f_sampled)}
    strays = [f"hb1f_reduced_qs {q}" for q in cfg.hb1f_reduced_qs if q not in cfg.qs]
    strays += [f"hb1f_sampled {q}:{n}:{seed}" for q, n, seed in cfg.hb1f_sampled
               if q not in cfg.qs]
    strays += [f"expect_{prop}_{q}" for prop, q in cfg.expectations
               if q not in cfg.qs or (prop == "hb1f" and q not in hb1f_qs)]
    if strays:
        raise UsageError(f"{', '.join(strays)}: matches no check run for qs "
                         f"{' '.join(map(str, cfg.qs))}")
    entries = []
    discrepancies = 0
    indeterminates = 0

    def note(check, *args, **kwargs) -> None:
        # the suite's one clock: the verdicts of one check call share its time,
        # and go to the props of the q being run
        nonlocal discrepancies, indeterminates
        t0 = time.monotonic()
        verdicts = check(*args, **kwargs)
        elapsed_ms = int((time.monotonic() - t0) * 1000)
        for verdict in verdicts if isinstance(verdicts, tuple) else (verdicts,):
            expected = cfg.expectations.get((verdict.prop, verdict.q))
            if expected is not None:
                verdict = TheoremVerdict(verdict.q, verdict.prop, verdict.computed,
                                         expected, verdict.witness, verdict.stats)
            discrepancies += verdict.discrepancy
            indeterminates += verdict.indeterminate
            entry = verdict.to_dict()
            if cfg.include_timings:
                entry["stats"]["elapsed_ms"] = elapsed_ms
            props.append(entry)

    for q in cfg.qs:
        ctx = field_for(q)
        fact = build_factorisation(ctx)
        report = verify_partition(fact)
        if not report.ok:
            raise InvariantError(
                f"q={q}: {report.total_edges} edges of {report.expected_edges} do not "
                f"partition the triples: {len(report.duplicates)} duplicated, "
                f"{len(report.malformed)} malformed, missing {report.missing[:3]}, "
                f"factors {report.not_one_factors[:3]} not covering each point once")
        hist = overlap_distribution(fact)
        require_overlap_histogram(fact, hist)
        props: list[dict] = []
        note(check_c1f, fact, mode="reduced")
        if q <= cfg.c1f_full_max_q:
            note(check_c1f, fact, mode="full")
        note(check_u1f, fact)
        runs = [("full", {})] if q in cfg.hb1f_full_qs else []
        runs += [("reduced", {})] if q in cfg.hb1f_reduced_qs else []
        runs += [("sampled", {"samples": n, "seed": seed})
                 for sq, n, seed in cfg.hb1f_sampled if sq == q]
        for mode, kwargs in runs:
            note(check_hb1f, fact, mode, time_budget=cfg.time_budget, **kwargs)
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
                "overlap_histogram": {str(k): v for k, v in hist.items()},
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
    return SuiteReport(cfg.describe(), entries, scans, discrepancies, indeterminates)
