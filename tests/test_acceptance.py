"""Acceptance criteria, one test per criterion with a printed verdict line.

The q=32 reduced triple sweep is slow-tier (pytest -m slow); the q=128
sampled sweep is a stretch run (pytest -m stretch), not a gate.
"""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from trifactor.factorisation import build_factorisation, build_one_factor, verify_partition
from trifactor.field import field
from trifactor.groups import (
    classify_subgroup,
    generate_subgroup,
    is_transitive,
    psl_order,
)
from trifactor.hypergraph import (
    find_hamilton_berge_cycle,
    is_connected,
    overlaps_by_traces,
    pair_overlap,
    pair_overlap_algebraic,
    union_hypergraph,
    validate_berge_cycle,
)
from trifactor.projline import base_map, orbit_map
from trifactor.verifier import (
    SuiteConfig,
    check_c1f,
    check_hb1f,
    check_u1f,
    char2_uniformity_scan,
    field_for,
    json_text,
    predict_c1f,
    predict_u1f,
    run_suite,
)

ALL_Q = (2, 5, 8, 11, 17, 23, 29, 32, 41, 47, 53, 59, 125)
GOLDENS = Path(__file__).resolve().parent.parent / "bench" / "goldens.json"


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[criterion] {label}: FAIL")
        raise
    print(f"[criterion] {label}: PASS")


def test_criterion_1_construction_soundness(factorisations):
    with criterion("1 construction soundness"):
        t0 = time.monotonic()
        for q in ALL_Q:
            fact = factorisations(q)
            assert len(fact.factors) == q * (q - 1) // 2, q
            report = verify_partition(fact)
            assert report.total_edges == math.comb(q + 1, 3), q
            assert not report.duplicates and not report.missing, q
        elapsed = time.monotonic() - t0
        assert elapsed < 30, f"construction took {elapsed:.1f}s"


def test_criterion_2_connectedness_theorem(factorisations):
    with criterion("2 connectedness classification"):
        t0 = time.monotonic()
        true_qs = set()
        for q in ALL_Q:
            fact = factorisations(q)
            v = check_c1f(fact, mode="reduced")
            assert v.computed == v.predicted == predict_c1f(q), q
            if q <= 17:
                vf = check_c1f(fact, mode="full")
                assert vf.computed == v.computed, q
            if v.computed:
                true_qs.add(q)
            else:
                # replay the witness pair and confirm the disconnection
                assert v.witness is not None, q
                ctx = fact.ctx
                labels = [
                    (ctx.parse_element(a), ctx.parse_element(b))
                    for a, b in v.witness["pair"]
                ]
                h = union_hypergraph(
                    q + 1, [build_one_factor(ctx, *lab) for lab in labels]
                )
                assert not is_connected(h), q
                if q == 125:
                    for a, b in labels:
                        assert a < 5 and b < 5  # prime-subfield witness
        assert true_qs == {2, 5, 8, 11, 32}
        elapsed = time.monotonic() - t0
        assert elapsed < 120, f"sweeps took {elapsed:.1f}s"


def test_criterion_3_uniformity_theorem(factorisations):
    with criterion("3 uniformity classification"):
        t0 = time.monotonic()
        for q in ALL_Q:
            fact = factorisations(q)
            u1f, uc1f = check_u1f(fact)
            assert u1f.computed == u1f.predicted == predict_u1f(q), q
            if q in (2, 5, 8):
                assert uc1f.computed is True, q
                nf = len(fact.factors)
                assert u1f.stats["isomorphism_tasks"] == math.comb(nf, 2), q
            else:
                assert u1f.witness is not None and u1f.witness["overlap"] != 2, q
        elapsed = time.monotonic() - t0
        assert elapsed < 120, f"sweeps took {elapsed:.1f}s"


def test_criterion_4_overlap_values_at_negated_label(factorisations):
    with criterion("4 overlap at the negated base label"):
        expected = {11: 3, 29: 3, 17: 1, 23: 1}
        for q, value in expected.items():
            ctx = field_for(q)
            fact = factorisations(q)
            r = pair_overlap(fact.factors[0], build_one_factor(ctx, ctx.neg(1), 0))
            assert r.count == value, q
            squares = {(y * y) % q for y in range(1, q)}
            assert ctx.is_square(5 % q) == (5 % q in squares)
            assert (value == 3) == ctx.is_square(5 % q), q


def test_criterion_5_algebraic_combinatorial_equivalence(factorisations):
    with criterion("5 algebraic/combinatorial overlap equivalence"):
        for q in (2, 5, 8, 11, 17, 23, 29, 32):
            ctx = field_for(q)
            fact = factorisations(q)
            base = fact.factors[0]
            neg1 = ctx.neg(1)
            for a in range(1, q):
                for b in range(q):
                    if (a, b) in {(1, 0), (neg1, 1)}:
                        continue
                    alg = pair_overlap_algebraic(ctx, a, b)
                    comb = pair_overlap(base, build_one_factor(ctx, a, b))
                    assert alg.count == comb.count, (q, a, b)
                    assert overlaps_by_traces(ctx, [(a, b)]) == [alg.count], (q, a, b)
        for p, l in ((5, 3), (2, 7)):
            ctx = field(p, l)
            fact = factorisations(ctx.q)
            base = fact.factors[0]
            neg1 = ctx.neg(1)
            rng = random.Random(ctx.q)
            checked = 0
            while checked < 1000:
                a = rng.randrange(1, ctx.q)
                b = rng.randrange(ctx.q)
                if (a, b) in {(1, 0), (neg1, 1)}:
                    continue
                alg = pair_overlap_algebraic(ctx, a, b)
                comb = pair_overlap(base, build_one_factor(ctx, a, b))
                assert alg.count == comb.count, (ctx.q, a, b)
                assert overlaps_by_traces(ctx, [(a, b)]) == [alg.count], (ctx.q, a, b)
                checked += 1


def test_criterion_6_connectivity_transitivity_equivalence(factorisations):
    with criterion("6 connectivity equals transitivity"):
        for q in (5, 8, 11, 17):
            ctx = field_for(q)
            fact = factorisations(q)
            f = base_map(ctx)
            base = fact.factors[0]
            neg1 = ctx.neg(1)
            for a in range(1, q):
                for b in range(q):
                    if (a, b) in {(1, 0), (neg1, 1)}:
                        continue
                    m = orbit_map(ctx, a, b)
                    h = union_hypergraph(q + 1, [base, build_one_factor(ctx, a, b)])
                    assert is_connected(h) == is_transitive(ctx, [f, m]), (q, a, b)


def test_criterion_7_subgroup_classification(factorisations):
    with criterion("7 subgroup classification"):
        t0 = time.monotonic()
        for q in (11, 17, 23):
            ctx = field_for(q)
            fact = factorisations(q)
            f = base_map(ctx)
            tags = set()
            for fac in fact.factors[1:]:
                g = generate_subgroup(
                    ctx, [f, orbit_map(ctx, *fac.label)], stop_when_full=True
                )
                tags.add(classify_subgroup(g, ctx).tag)
            assert tags <= {"A4", "A5", "FullPSL"}, (q, tags)
            if q in (17, 23):
                assert "A4" in tags, q
        for q, full_order in ((8, 504), (32, 32736)):
            ctx = field_for(q)
            fact = factorisations(q)
            f = base_map(ctx)
            assert psl_order(ctx) == full_order
            for fac in fact.factors[1:]:
                g = generate_subgroup(
                    ctx, [f, orbit_map(ctx, *fac.label)], stop_when_full=True
                )
                assert g.full_group and g.order == full_order, (q, fac.label)
        # one exact closure cross-validates the early-exit verdict
        ctx8 = field_for(8)
        fact8 = factorisations(8)
        exact = generate_subgroup(
            ctx8, [base_map(ctx8), orbit_map(ctx8, *fact8.factors[1].label)]
        )
        assert exact.order == 504
        elapsed = time.monotonic() - t0
        assert elapsed < 300, f"classification took {elapsed:.1f}s"


def test_criterion_8_trace_scans():
    with criterion("8 characteristic-2 trace scans"):
        t0 = time.monotonic()
        scan3 = char2_uniformity_scan(3)
        assert scan3["witnesses_eq4"] == []
        assert scan3["all_trace1"] is True
        for l in (5, 7, 9, 11, 13):
            scan = char2_uniformity_scan(l)
            assert scan["witnesses_eq4"], l
            assert scan["all_trace1"] is False, l
            assert scan["poly_root_count"] <= scan["root_bound"], l
        elapsed = time.monotonic() - t0
        assert elapsed < 10, f"scans took {elapsed:.1f}s"


def test_criterion_9_hamilton_berge_small(factorisations):
    with criterion("9a Hamilton Berge cycles at q in {5, 8, 11}"):
        for q in (5, 8, 11):
            v = check_hb1f(factorisations(q), mode="full")
            assert v.computed is True, q
            assert v.stats["timeouts"] == 0, q
            nf = q * (q - 1) // 2
            assert v.stats["tasks"] == math.comb(nf, 3), q


def test_criterion_9_gf125_subfield_triple():
    with criterion("9b disconnected subfield triple at q=125"):
        ctx = field_for(125)
        h = union_hypergraph(126, [build_one_factor(ctx, a, 0) for a in (1, 2, 3)])
        assert not is_connected(h)
        r = find_hamilton_berge_cycle(h)
        assert r.status == "none"


@pytest.mark.slow
def test_trace_scan_degree_17():
    scan = char2_uniformity_scan(17)
    assert len(scan["witnesses_eq4"]) == 65_484
    assert scan["poly_root_count"] == 65_586
    assert scan["root_bound"] == 98_304
    assert scan["all_trace1"] is False


@pytest.mark.slow
def test_criterion_9_hamilton_berge_q32_reduced(factorisations):
    with criterion("9c Hamilton Berge reduced sweep at q=32"):
        t0 = time.monotonic()
        v = check_hb1f(factorisations(32), mode="reduced")
        assert v.computed is True
        assert v.stats["tasks"] == math.comb(495, 2)
        assert v.stats["timeouts"] == 0
        elapsed = time.monotonic() - t0
        assert elapsed < 1800, f"reduced sweep took {elapsed:.1f}s"


@pytest.mark.stretch
def test_stretch_q128_sampled_hamilton_berge():
    # not an acceptance gate: sampled substitute for the exhaustive claim
    fact = build_factorisation(field(2, 7))
    v = check_hb1f(fact, mode="sampled", samples=10_000, seed=128)
    assert v.computed is True
    assert v.stats["timeouts"] == 0


def test_criterion_10_suite_determinism():
    with criterion("10 byte-identical suite reports"):
        cfg = SuiteConfig()
        r1 = run_suite(cfg)
        r2 = run_suite(cfg)
        assert json_text(r1.to_dict()).encode() == json_text(r2.to_dict()).encode()
        assert r1.exit_code == 0
        # the report the benchmark checks, pinned here too
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
        digest = hashlib.sha256(json_text(r1.to_dict()).encode()).hexdigest()
        assert digest == goldens["suite"]["sha256"]


def test_suite_json_does_not_depend_on_the_hash_seed():
    # string hashing changes set and dict order between interpreters; the
    # report must not, so the CLI's bytes keep the pinned digest under both
    src = Path(__file__).resolve().parent.parent / "src"
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-m", "trifactor.cli", "suite", "--format", "json"],
                              env=env, capture_output=True, timeout=300, check=True)
        assert hashlib.sha256(proc.stdout).hexdigest() == goldens["suite"]["sha256"], seed


def test_witnesses_replay_validly(factorisations):
    # every berge witness the sweeps return must replay; spot-check q=8
    fact = factorisations(8)
    for trip in itertools.combinations(range(9), 3):
        h = union_hypergraph(9, [fact.factors[i] for i in trip])
        r = find_hamilton_berge_cycle(h)
        assert r.found and validate_berge_cycle(h, r)
