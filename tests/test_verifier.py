import json

import pytest

from trifactor.factorisation import build_factorisation
from trifactor.field import InvariantError, UsageError, field
from trifactor.hypergraph import (
    BergeSearchResult,
    OverlapResult,
    pair_overlap,
    pair_overlap_algebraic,
)
from trifactor.verifier import (
    OutOfRangeError,
    SuiteConfig,
    char2_uniformity_scan,
    check_c1f,
    check_hb1f,
    check_u1f,
    factor_prime_power,
    field_for,
    overlap_distribution,
    parse_config,
    predict_c1f,
    predict_hb1f,
    predict_u1f,
    run_suite,
)


@pytest.fixture(scope="module")
def facts():
    cache = {}

    def get(q):
        if q not in cache:
            cache[q] = build_factorisation(field_for(q))
        return cache[q]

    return get


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(125) == (5, 3)
    assert factor_prime_power(17) == (17, 1)
    with pytest.raises(UsageError, match="12 is not a prime power"):
        factor_prime_power(12)
    with pytest.raises(UsageError, match="1 is not a prime power"):
        factor_prime_power(1)


def test_predictions():
    assert predict_c1f(11) is True
    assert predict_c1f(32) is True  # 2^5, exponent prime
    assert predict_c1f(17) is False
    assert predict_c1f(125) is False
    assert predict_c1f(512) is False  # 2^9, exponent composite
    assert predict_u1f(8) is True
    assert predict_u1f(32) is False
    assert predict_u1f(2) is True
    assert predict_hb1f(32) is True
    for predict in (predict_c1f, predict_u1f):
        with pytest.raises(UsageError, match="not 2 mod 3"):
            predict(7)
        # not a prime power, whatever the residue
        with pytest.raises(UsageError, match="14 is not a prime power"):
            predict(14)
        with pytest.raises(UsageError, match="6 is not a prime power"):
            predict(6)


def test_check_c1f_positive_cases(facts):
    for q in (2, 5, 8, 11):
        v = check_c1f(facts(q), mode="full")
        assert v.computed is True and not v.discrepancy
        r = check_c1f(facts(q), mode="reduced")
        assert r.computed is True


def test_check_c1f_reduced_equals_full(facts):
    for q in (5, 8, 11, 17):
        assert (
            check_c1f(facts(q), "reduced").computed
            == check_c1f(facts(q), "full").computed
        )


def test_check_c1f_q17_witness(facts):
    v = check_c1f(facts(17))
    assert v.computed is False and v.predicted is False
    assert v.witness is not None
    assert len(v.witness["components"]) > 1


def test_check_c1f_q125_subfield_witness(facts):
    v = check_c1f(facts(125))
    assert v.computed is False
    ctx = facts(125).ctx
    for alpha_text, beta_text in v.witness["pair"]:
        for coeff_text in (alpha_text, beta_text):
            # prime-subfield elements have zero higher coefficients
            assert ctx.parse_element(coeff_text) < 5
    # the subfield-plus-infinity component is present
    assert [0, 1, 2, 3, 4, 125] in v.witness["components"]


def test_check_u1f_uniform_cases(facts):
    for q in (2, 5, 8):
        u1f, uc1f = check_u1f(facts(q))
        assert u1f.computed is True and uc1f.computed is True
        assert not u1f.discrepancy and not uc1f.discrepancy


def test_check_u1f_nonuniform_cases(facts):
    for q in (11, 17):
        u1f, uc1f = check_u1f(facts(q))
        assert u1f.computed is False and u1f.predicted is False
        assert u1f.witness["overlap"] != 2
        assert uc1f.computed is False


def test_check_u1f_replays_every_isomorphism(facts, monkeypatch):
    replayed = counting(monkeypatch, "apply_isomorphism")
    u1f, _ = check_u1f(facts(8))
    assert u1f.computed is True
    assert len(replayed) == u1f.stats["isomorphism_tasks"] == 378


def test_check_u1f_wrong_isomorphism_is_an_internal_fault(facts, swapped_isomorphism):
    with pytest.raises(InvariantError, match="isomorphism of pair .* fails its replay"):
        check_u1f(facts(8))


def test_check_hb1f_q5_full(facts):
    v = check_hb1f(facts(5), mode="full")
    assert v.computed is True
    assert v.stats["tasks"] == 120
    assert v.stats["timeouts"] == 0


def test_check_hb1f_q2_vacuous(facts):
    v = check_hb1f(facts(2), mode="full")
    assert v.computed is True and v.stats["tasks"] == 0


def test_check_hb1f_sampled_deterministic(facts):
    v1 = check_hb1f(facts(8), mode="sampled", samples=25, seed=9)
    v2 = check_hb1f(facts(8), mode="sampled", samples=25, seed=9)
    assert v1.computed is True
    assert v1.to_dict() == v2.to_dict()
    with pytest.raises(ValueError):
        check_hb1f(facts(8), mode="sampled")


def test_check_hb1f_takes_samples_and_seed_only_in_sampled_mode(facts):
    for mode in ("reduced", "full"):
        for extra in ({"samples": 5}, {"seed": 3}, {"samples": 5, "seed": 3}):
            with pytest.raises(UsageError, match="sampled mode only"):
                check_hb1f(facts(8), mode=mode, **extra)


def test_unknown_sweep_mode_is_a_usage_error(facts):
    with pytest.raises(UsageError, match="unknown mode 'bogus'"):
        check_c1f(facts(5), mode="bogus")
    with pytest.raises(UsageError, match="unknown mode 'bogus'"):
        check_hb1f(facts(5), "bogus")


def counting(monkeypatch, name):
    """Calls to the verifier's binding of name, recorded by their arguments."""
    import trifactor.verifier as verifier

    calls = []
    real = getattr(verifier, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verifier, name, wrapper)
    return calls


def test_check_hb1f_sampled_searches_each_distinct_triple_once(facts, monkeypatch):
    # each distinct triple gets its own union; only the first triple of
    # each PΓL(2,q) class is searched and has its cycle replayed
    searched = counting(monkeypatch, "find_hamilton_berge_cycle")
    replayed = counting(monkeypatch, "validate_berge_cycle")
    unions = counting(monkeypatch, "union_hypergraph")
    v = check_hb1f(facts(8), mode="sampled", samples=1000, seed=7)
    assert v.computed is True
    assert v.stats["tasks"] == 1000 and v.stats["distinct_tasks"] == 872
    assert len(searched) == len(replayed) == 6
    assert len(unions) == 872
    assert len({tuple(f.label for f in factors) for _, factors in unions}) == 872


def test_check_hb1f_full_certifies_each_class_once(facts, monkeypatch):
    searched = counting(monkeypatch, "find_hamilton_berge_cycle")
    replayed = counting(monkeypatch, "validate_berge_cycle")
    unions = counting(monkeypatch, "union_hypergraph")
    v = check_hb1f(facts(11), mode="full")
    assert v.computed is True and v.stats["tasks"] == 26235
    assert len(searched) == len(replayed) == 37
    assert len(unions) == 26235


def test_check_hb1f_tampered_union_is_an_internal_fault(facts, tamper_union):
    # the last of the 3276 triples at q=8 is not the first of its class
    tamper_union(3276)
    with pytest.raises(InvariantError, match="not the image of its class's"):
        check_hb1f(facts(8), mode="full")


@pytest.mark.parametrize("status", ["timeout", "none"])
def test_check_hb1f_class_mates_take_the_first_status(facts, monkeypatch, status):
    import trifactor.verifier as verifier

    searched = []

    def search(h, time_budget):
        searched.append(h)
        return BergeSearchResult(status)

    monkeypatch.setattr(verifier, "find_hamilton_berge_cycle", search)
    fact = facts(8)
    v = check_hb1f(fact, mode="full")
    assert len(searched) == 6
    if status == "timeout":
        assert v.computed is None and v.witness is None
        assert v.stats["timeouts"] == v.stats["tasks"] == 3276
    else:
        assert v.computed is False and v.stats["timeouts"] == 0
        labels = [[fact.ctx.element_str(e) for e in fact.factors[i].label]
                  for i in (0, 1, 2)]
        assert v.witness == {"triple": labels, "disconnected": False}


def test_check_hb1f_rejects_time_budgets_not_finite_and_positive(facts):
    for seconds in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(UsageError, match="time budget"):
            check_hb1f(facts(5), mode="full", time_budget=seconds)


def test_check_hb1f_failed_replay_is_an_internal_fault(facts, monkeypatch):
    monkeypatch.setattr("trifactor.verifier.validate_berge_cycle",
                        lambda h, result: False)
    with pytest.raises(InvariantError, match="fails its replay"):
        check_hb1f(facts(8), mode="full")


def test_overlap_distribution(facts):
    assert overlap_distribution(facts(5)) == {2: 9}
    assert 3 in overlap_distribution(facts(11))
    hist8 = overlap_distribution(facts(8))
    assert hist8 == {2: 27}


def test_overlap_distribution_q125_contains_4(facts):
    assert 4 in overlap_distribution(facts(125))


def test_char2_scan_degree_3():
    scan = char2_uniformity_scan(3)
    assert scan["witnesses_eq4"] == []
    assert scan["all_trace1"] is True
    assert scan["poly_root_count"] == 6 <= scan["root_bound"]


@pytest.mark.parametrize("l", [5, 7, 9])
def test_char2_scan_higher_degrees(l):
    scan = char2_uniformity_scan(l)
    assert scan["witnesses_eq4"]
    assert scan["all_trace1"] is False
    assert scan["poly_root_count"] <= scan["root_bound"]


def test_char2_scan_rejects_bad_degrees():
    with pytest.raises(UsageError, match="odd degree"):
        char2_uniformity_scan(4)
    with pytest.raises(OutOfRangeError):
        char2_uniformity_scan(1)
    with pytest.raises(OutOfRangeError):
        char2_uniformity_scan(19)


def test_char2_scan_poly_identity_small():
    # the trace-1 condition matches the derived polynomial vanishing
    for l in (3, 5):
        ctx = field(2, l)
        e = 1 << (l - 1)
        for x in range(2, ctx.q):
            acc = ctx.add(x, ctx.pow(x, e))
            for i in range(l - 1):
                acc = ctx.add(acc, ctx.pow(x, e + (1 << i)))
            for i in range(l):
                acc = ctx.add(acc, ctx.pow(x, e - (1 << i)))
            satisfies = ctx.trace(ctx.add(x, ctx.inv(x))) == 1
            assert satisfies == (acc == 0)


def test_gf125_overlap_4_lemma(facts):
    # for alpha outside GF(5), one of (a, -a), (a, 1 - a), (a^2, 1 - a^2)
    # meets the base factor in 4 edges; both overlap paths must say so
    fact = facts(125)
    ctx = fact.ctx
    base = fact.factor(1, 0)
    for a in range(5, ctx.q):
        a2 = ctx.mul(a, a)
        counts = []
        for la, lb in [(a, ctx.neg(a)), (a, ctx.sub(1, a)), (a2, ctx.sub(1, a2))]:
            comb = pair_overlap(base, fact.factor(la, lb)).count
            assert pair_overlap_algebraic(ctx, la, lb).count == comb, (a, la, lb)
            counts.append(comb)
        assert 4 in counts, a


def test_parse_config_round_trip():
    cfg = parse_config(
        """
        # comment
        qs = 5 8
        c1f_full_max_q = 11
        hb1f_full_qs = 5
        hb1f_sampled = 8:10:3
        trace_scans = 3
        time_budget = 4.5
        expect_c1f_17 = true
        """
    )
    assert cfg.qs == (5, 8)
    assert cfg.c1f_full_max_q == 11
    assert cfg.hb1f_full_qs == (5,)
    assert cfg.hb1f_sampled == ((8, 10, 3),)
    assert cfg.trace_scan_degrees == (3,)
    assert cfg.time_budget == 4.5
    assert cfg.expectations == {("c1f", 17): True}
    with pytest.raises(ValueError):
        parse_config("nonsense_key = 1")
    with pytest.raises(ValueError):
        parse_config("just a line")
    with pytest.raises(UsageError, match="expect_clf_17"):
        parse_config("expect_clf_17 = true")
    with pytest.raises(UsageError, match="workers = 2"):
        parse_config("workers = 2")
    # a repeated value would run and report the same check twice
    for key in ("qs", "hb1f_full_qs", "hb1f_reduced_qs", "trace_scans"):
        with pytest.raises(UsageError, match=f"{key} = 5 3 5"):
            parse_config(f"{key} = 5 3 5")
    with pytest.raises(UsageError, match="hb1f_sampled = 8:10:3 8:10:3"):
        parse_config("hb1f_sampled = 8:10:3 8:10:3")
    assert parse_config("hb1f_sampled = 8:10:3 8:10:4").hb1f_sampled == (
        (8, 10, 3), (8, 10, 4))
    for value in ("nan", "inf", "0", "-1"):
        with pytest.raises(UsageError, match=f"time_budget = {value}"):
            parse_config(f"time_budget = {value}")


def test_run_suite_rejects_entries_for_q_outside_qs():
    with pytest.raises(UsageError, match="hb1f_sampled 128:10:7"):
        run_suite(SuiteConfig(qs=(5,), hb1f_sampled=((128, 10, 7),)))
    with pytest.raises(UsageError, match="hb1f_reduced_qs 32"):
        run_suite(SuiteConfig(qs=(5,), hb1f_reduced_qs=(32,)))
    with pytest.raises(UsageError, match="expect_c1f_17"):
        run_suite(SuiteConfig(qs=(5,), expectations={("c1f", 17): True}))
    # an hb1f expectation at a q that no HB1F sweep covers matches no verdict
    with pytest.raises(UsageError, match="expect_hb1f_11"):
        run_suite(SuiteConfig(qs=(5, 11), hb1f_full_qs=(5,),
                              expectations={("hb1f", 11): False}))
    with pytest.raises(UsageError, match="time budget nan"):
        run_suite(SuiteConfig(qs=(), time_budget=float("nan")))


def test_run_suite_small_clean():
    cfg = SuiteConfig(qs=(2, 5, 8), trace_scan_degrees=(3,), hb1f_full_qs=(5,))
    rep = run_suite(cfg)
    assert rep.exit_code == 0
    assert rep.discrepancies == 0
    data = json.loads(rep.to_json())
    assert [e["q"] for e in data["suite"]] == [2, 5, 8]
    for entry in data["suite"]:
        assert entry["construction"]["partition_ok"]


def test_run_suite_refuses_a_broken_partition(one_duplicate_edge):
    with pytest.raises(InvariantError, match="q=5: 20 edges of 20 do not partition "
                                             "the triples: 1 duplicated"):
        run_suite(SuiteConfig(qs=(5,), trace_scan_degrees=(), hb1f_full_qs=()))


@pytest.mark.parametrize("fault", ["empty histogram", "overlap 0"])
def test_run_suite_checks_the_overlap_histogram(monkeypatch, fault):
    # a pair_overlap stuck at 2 would pass both sums: the mean overlap of
    # the nf - 1 = (q + 1)(q - 2)/2 other factors is exactly 2
    import trifactor.verifier as verifier

    if fault == "empty histogram":
        monkeypatch.setattr(verifier, "overlap_distribution", lambda fact: {})
    else:
        monkeypatch.setattr(verifier, "pair_overlap",
                            lambda f1, f2: OverlapResult(0, []))
    with pytest.raises(InvariantError, match="q=11: overlap histogram .* does not "
                                             "sum to 54 factors and 108 shared pairs"):
        run_suite(SuiteConfig(qs=(11,), trace_scan_degrees=(), hb1f_full_qs=()))


def test_run_suite_expectation_override_forces_discrepancy():
    cfg = SuiteConfig(qs=(17,), trace_scan_degrees=(), hb1f_full_qs=())
    cfg.expectations[("c1f", 17)] = True
    rep = run_suite(cfg)
    assert rep.discrepancies > 0
    assert rep.exit_code == 1


def test_run_suite_empty():
    cfg = SuiteConfig(qs=(), trace_scan_degrees=(), hb1f_full_qs=())
    rep = run_suite(cfg)
    assert rep.exit_code == 0
    assert rep.entries == []


def test_suite_json_deterministic_and_text_parity():
    cfg = SuiteConfig(qs=(5, 11), trace_scan_degrees=(3,), hb1f_full_qs=(5,))
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)
    assert r1.to_json() == r2.to_json()
    # same verdicts, with the same marks, surface in both output formats
    data = json.loads(r1.to_json())
    lines = r1.to_text().splitlines()
    for entry in data["suite"]:
        for prop in entry["properties"]:
            comp, pred = prop["computed"], prop["predicted"]
            if comp is None:
                comp_text, mark = "indeterminate", "INDETERMINATE"
            else:
                comp_text, mark = str(comp).lower(), "ok" if comp == pred else "MISMATCH"
            tail = f"computed={comp_text} predicted={str(pred).lower()} {mark}"
            assert any(line.startswith(f"  {prop['name']}") and line.endswith(tail)
                       for line in lines)


def test_default_config_covers_supported_range():
    cfg = SuiteConfig()
    assert cfg.qs == (2, 5, 8, 11, 17, 23, 29, 32, 41, 47, 53, 59, 125)
    assert cfg.include_timings is False
