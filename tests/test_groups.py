import pytest

from trifactor import groups
from trifactor.factorisation import build_factorisation
from trifactor.field import InvariantError, field
from trifactor.groups import (
    OutOfRangeError,
    a4_pair_census,
    classify_subgroup,
    full_exit_threshold,
    generate_subgroup,
    is_transitive,
    psl_order,
)
from trifactor.hypergraph import is_connected, union_hypergraph
from trifactor.projline import Mobius, base_map, orbit_map

from test_groups_reference import order3_count, reference_generate_subgroup


def test_psl_orders():
    assert psl_order(field(5)) == 60
    assert psl_order(field(11)) == 660
    assert psl_order(field(2, 3)) == 504
    assert psl_order(field(2, 5)) == 32736


def test_full_exit_threshold():
    assert full_exit_threshold(field(11)) == 60  # odd prime: A5 is largest
    assert full_exit_threshold(field(2, 5)) == 60  # prime-degree char 2
    # GF(125) contains projective groups over GF(5), up to order 120
    assert full_exit_threshold(field(5, 3)) == 120


def test_generate_single_orbit_map_is_c3():
    ctx = field(5)
    g = generate_subgroup(ctx, [base_map(ctx)])
    assert g.order == 3
    # keys (g(0), g(1), g(inf)) of the identity, x -> 1/(1-x) and its square
    assert g.elements == {(0, 1, 5), (1, 5, 0), (5, 0, 1)}
    assert {k[2] for k in g.elements} == {0, 1, 5}  # a base factor edge
    ref = reference_generate_subgroup(ctx, [base_map(ctx)])
    assert order3_count(ctx, ref.elements) == 2
    assert classify_subgroup(g, ctx).tag == "C3"


def test_generate_identity():
    ctx = field(5)
    g = generate_subgroup(ctx, [Mobius(ctx, 1, 0, 0, 1)])
    assert g.order == 1
    assert classify_subgroup(g, ctx).tag == "Other"


def test_generate_cap(monkeypatch):
    ctx = field(11)
    F = build_factorisation(ctx)
    gens = [base_map(ctx), orbit_map(ctx, *F.factors[2].label)]
    monkeypatch.setattr("trifactor.groups.CLOSURE_CAP", 100)
    with pytest.raises(OutOfRangeError, match="exceeded cap 100"):
        generate_subgroup(ctx, gens)


def test_closure_is_a_group():
    ctx = field(5)
    F = build_factorisation(ctx)
    gens = [base_map(ctx), orbit_map(ctx, *F.factors[3].label)]
    elements = reference_generate_subgroup(ctx, gens).elements
    assert Mobius(ctx, 1, 0, 0, 1) in elements
    for a in elements:
        assert a.inverse() in elements
        for b in elements:
            assert a.compose(b) in elements
    g = generate_subgroup(ctx, gens)
    assert g.order == len(elements)
    # Lagrange for subgroups of the special projective group
    assert psl_order(ctx) % g.order == 0


def test_q8_all_nonbase_closures_are_full():
    ctx = field(2, 3)
    F = build_factorisation(ctx)
    f = base_map(ctx)
    for fac in F.factors[1:]:
        g = generate_subgroup(ctx, [f, orbit_map(ctx, *fac.label)],
                              stop_when_full=True)
        assert g.full_group and g.order == 504
    # exact closure agrees with the early-exit verdict
    exact = generate_subgroup(ctx, [f, orbit_map(ctx, *F.factors[1].label)])
    assert exact.order == 504


def test_at_least_four_order3_elements_in_nonbase_closures():
    for p, l in [(5, 1), (11, 1)]:
        ctx = field(p, l)
        F = build_factorisation(ctx)
        f = base_map(ctx)
        for fac in F.factors[1:6]:
            gens = [f, orbit_map(ctx, *fac.label)]
            ref = reference_generate_subgroup(ctx, gens)
            assert order3_count(ctx, ref.elements) >= 4


def test_transitivity_orbit_vs_closure_orbits():
    # single generator can never be transitive (order 3 on more points)
    ctx = field(5)
    assert not is_transitive(ctx, [base_map(ctx)])
    # cross-check: transitive iff the closure moves infinity to every point
    for p, l in [(5, 1), (11, 1)]:
        c = field(p, l)
        F = build_factorisation(c)
        f = base_map(c)
        for fac in F.factors[1:8]:
            m = orbit_map(c, *fac.label)
            g = generate_subgroup(c, [f, m])
            orbit_of_inf = {k[2] for k in g.elements}
            assert is_transitive(c, [f, m]) == (len(orbit_of_inf) == c.q + 1)


def test_q11_all_pairs_transitive_q17_not():
    c11 = field(11)
    F11 = build_factorisation(c11)
    f = base_map(c11)
    assert all(
        is_transitive(c11, [f, orbit_map(c11, *fac.label)])
        for fac in F11.factors[1:]
    )
    c17 = field(17)
    F17 = build_factorisation(c17)
    f17 = base_map(c17)
    assert not all(
        is_transitive(c17, [f17, orbit_map(c17, *fac.label)])
        for fac in F17.factors[1:]
    )


def test_classification_q17_only_expected_tags():
    ctx = field(17)
    F = build_factorisation(ctx)
    f = base_map(ctx)
    tags = set()
    for fac in F.factors[1:]:
        g = generate_subgroup(ctx, [f, orbit_map(ctx, *fac.label)],
                              stop_when_full=True)
        tags.add(classify_subgroup(g, ctx).tag)
    assert tags <= {"A4", "A5", "FullPSL"}
    assert "A4" in tags


def test_transitivity_matches_union_connectivity():
    # the two faces of the same fact, checked independently
    for p, l in [(5, 1), (2, 3), (11, 1), (17, 1)]:
        ctx = field(p, l)
        F = build_factorisation(ctx)
        f = base_map(ctx)
        n = ctx.q + 1
        base = F.factors[0]
        for fac in F.factors[1:]:
            m = orbit_map(ctx, *fac.label)
            h = union_hypergraph(n, [base, fac])
            assert is_connected(h) == is_transitive(ctx, [f, m]), (p, l, fac.label)


def test_a4_census_small():
    assert a4_pair_census(build_factorisation(field(5)))["expected_copies"] == 5
    res = a4_pair_census(build_factorisation(field(11)))
    assert res["expected_copies"] == 55
    assert res["a4_pair_count"] > 0
    with pytest.raises(OutOfRangeError):
        a4_pair_census(build_factorisation(field(2, 3)))
    with pytest.raises(OutOfRangeError):
        a4_pair_census(build_factorisation(field(41)))


def test_a4_census_expected_copies_formula_q23():
    # 23 * 528 / 24 = 506, no sweep needed for the formula itself
    assert 23 * (23 * 23 - 1) // 24 == 506


def test_a4_census_q17_counts(factorisations):
    res = a4_pair_census(factorisations(17))
    assert res["a4_pair_count"] == 1224
    assert res["expected_copies"] == 204


@pytest.mark.parametrize("q, closures", [(11, 54), (17, 135)])
def test_census_closes_one_pair_per_nonbase_factor(monkeypatch, factorisations,
                                                   q, closures):
    calls = 0
    closure = groups.generate_subgroup

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return closure(*args, **kwargs)

    monkeypatch.setattr(groups, "generate_subgroup", counted)
    a4_pair_census(factorisations(q))
    assert calls == closures == len(factorisations(q).factors) - 1


def test_census_odd_pair_count_is_an_invariant_error(extra_a4_pair, factorisations):
    # q=11: 55 factors with 12 A4 partners each; one more makes 55 * 13 odd
    with pytest.raises(InvariantError, match="55 factors times 13 A4 partners"):
        a4_pair_census(factorisations(11))


def _counted_evaluations(monkeypatch) -> list:
    """Record every Mobius.__call__ from here on; returns the record."""
    calls = []
    evaluate = Mobius.__call__

    def counted(self, x):
        calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(Mobius, "__call__", counted)
    return calls


def test_census_converts_each_map_once(monkeypatch):
    # 55 orbit maps on 12 points: each becomes a permutation once, composed
    # from field rows, and no map is evaluated point by point
    fact = build_factorisation(field(11))
    calls = _counted_evaluations(monkeypatch)
    assert a4_pair_census(fact)["a4_pair_count"] == 330
    assert calls == []


def test_q41_classification_evaluates_no_map(monkeypatch, factorisations):
    # the loop of the benchmark's subgroups workload: orbit map, early-exit
    # closure and transitivity for each of the 819 non-base labels
    fact = factorisations(41)
    ctx = fact.ctx
    calls = _counted_evaluations(monkeypatch)
    base = base_map(ctx)
    tags = {}
    transitive = 0
    for f in fact.factors[1:]:
        m = orbit_map(ctx, *f.label)
        g = generate_subgroup(ctx, [base, m], stop_when_full=True)
        tag = classify_subgroup(g, ctx).tag
        tags[tag] = tags.get(tag, 0) + 1
        transitive += is_transitive(ctx, [base, m])
    assert calls == []
    assert tags == {"A4": 42, "A5": 42, "FullPSL": 735}
    assert transitive == 735
