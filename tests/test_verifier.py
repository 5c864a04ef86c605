import json

import pytest

from trifactor.factorisation import BadResidueError, build_factorisation
from trifactor.field import UsageError, field
from trifactor.hypergraph import find_hamilton_berge_cycle
from trifactor.verifier import (
    AlphaInSubfieldError,
    EvenDegreeError,
    NotPrimePowerError,
    OutOfRangeError,
    SuiteConfig,
    WrongFieldError,
    char2_uniformity_scan,
    char5_overlap_check,
    check_c1f,
    check_hb1f,
    check_u1f,
    default_config,
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
    with pytest.raises(NotPrimePowerError):
        factor_prime_power(12)
    with pytest.raises(NotPrimePowerError):
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
        with pytest.raises(BadResidueError):
            predict(7)
        # not a prime power, whatever the residue
        with pytest.raises(NotPrimePowerError):
            predict(14)
        with pytest.raises(NotPrimePowerError):
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


def test_check_hb1f_sampled_searches_each_distinct_triple_once(facts, monkeypatch):
    searched = []

    def counting_search(h, *args):
        searched.append(tuple(h.edges))
        return find_hamilton_berge_cycle(h, *args)

    monkeypatch.setattr("trifactor.verifier.find_hamilton_berge_cycle",
                        counting_search)
    v = check_hb1f(facts(8), mode="sampled", samples=1000, seed=7)
    assert v.computed is True
    assert v.stats["tasks"] == 1000 and v.stats["distinct_tasks"] == 872
    assert len(searched) == len(set(searched)) == 872


def test_check_hb1f_report_independent_of_workers(facts):
    # 3,276 triples: more than the 1000 that send workers=2 to the pool
    one = check_hb1f(facts(8), mode="full", workers=1)
    two = check_hb1f(facts(8), mode="full", workers=2)
    assert one.stats["tasks"] == 3276
    assert one.to_dict() == two.to_dict()


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
    with pytest.raises(EvenDegreeError):
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


def test_char5_overlap_check_all_alphas():
    ctx = field(5, 3)
    for alpha in range(5, ctx.q):
        r = char5_overlap_check(ctx, alpha)
        assert r["some_overlap_4"], alpha
        assert r["product_identity_ok"], alpha


def test_char5_overlap_check_rejections():
    with pytest.raises(AlphaInSubfieldError):
        char5_overlap_check(field(5, 3), 3)
    with pytest.raises(WrongFieldError):
        char5_overlap_check(field(2, 3), 2)
    with pytest.raises(WrongFieldError):
        char5_overlap_check(field(5), 2)


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


def test_run_suite_small_clean():
    cfg = SuiteConfig(qs=(2, 5, 8), trace_scan_degrees=(3,), hb1f_full_qs=(5,))
    rep = run_suite(cfg)
    assert rep.exit_code == 0
    assert rep.discrepancies == 0
    data = json.loads(rep.to_json())
    assert [e["q"] for e in data["suite"]] == [2, 5, 8]
    for entry in data["suite"]:
        assert entry["construction"]["partition_ok"]


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
    # same verdicts surface in both output formats
    data = json.loads(r1.to_json())
    text = r1.to_text()
    for entry in data["suite"]:
        for prop in entry["properties"]:
            comp = prop["computed"]
            comp_text = "indeterminate" if comp is None else str(comp).lower()
            assert f"{prop['name']}" in text
            assert f"computed={comp_text}" in text


def test_default_config_covers_supported_range():
    cfg = default_config()
    assert cfg.qs == (2, 5, 8, 11, 17, 23, 29, 32, 41, 47, 53, 59, 125)
    assert cfg.include_timings is False
