import itertools
import random
from array import array

import pytest

from trifactor.factorisation import build_factorisation, build_one_factor
from trifactor.field import UsageError, field
from trifactor.hypergraph import (
    BergeSearchResult,
    UnionHypergraph,
    apply_isomorphism,
    components,
    find_hamilton_berge_cycle,
    find_isomorphism,
    is_connected,
    pair_overlap,
    pair_overlap_algebraic,
    union_hypergraph,
    validate_berge_cycle,
)
from trifactor.projline import affine_map


def test_union_shapes():
    ctx = field(5)
    F = build_factorisation(ctx)
    h = union_hypergraph(6, [F.factors[0], F.factors[1]])
    assert h.n == 6 and len(h.edges) == 4
    assert [len(inc) for inc in h.incidence()] == [2] * 6
    h3 = union_hypergraph(6, F.factors[:3])
    assert len(h3.edges) == 6
    assert [len(inc) for inc in h3.incidence()] == [3] * 6
    ctx8 = field(2, 3)
    F8 = build_factorisation(ctx8)
    assert len(union_hypergraph(9, F8.factors[:3]).edges) == 9


def test_union_rejects_duplicates_and_bad_sizes():
    F = build_factorisation(field(5))
    with pytest.raises(ValueError, match="factors must be distinct"):
        union_hypergraph(6, [F.factors[0], F.factors[0]])
    with pytest.raises(ValueError, match="2 or 3 factors"):
        union_hypergraph(6, [F.factors[0]])
    with pytest.raises(ValueError, match="2 or 3 factors"):
        union_hypergraph(6, F.factors[:4])


def test_connectivity_small_cases():
    F = build_factorisation(field(11))
    for i, j in itertools.combinations(range(len(F.factors)), 2):
        h = union_hypergraph(12, [F.factors[i], F.factors[j]])
        assert is_connected(h)
    single_edge = UnionHypergraph(3, array("I", [0, 1, 2]))
    assert is_connected(single_edge)
    edgeless = UnionHypergraph(4, array("I"))
    assert not is_connected(edgeless)
    assert components(edgeless) == [[0], [1], [2], [3]]


def test_subfield_union_disconnects_gf125():
    ctx = field(5, 3)
    # labels drawn from the prime subfield keep its 6 points among themselves
    f1 = build_one_factor(ctx, 1, 0)
    f2 = build_one_factor(ctx, 2, 0)
    h = union_hypergraph(126, [f1, f2])
    assert not is_connected(h)
    comps = components(h)
    assert [0, 1, 2, 3, 4, 125] in comps  # the subfield plus infinity


def test_pair_overlap_uniform_for_q5():
    F = build_factorisation(field(5))
    base = F.factors[0]
    for f in F.factors[1:]:
        r = pair_overlap(base, f)
        assert r.count == 2
        assert len(r.repeated_pairs) == 2


def test_pair_overlap_requires_distinct():
    F = build_factorisation(field(5))
    with pytest.raises(ValueError, match="two distinct factors"):
        pair_overlap(F.factors[0], F.factors[0])


@pytest.mark.parametrize("q,expected", [(11, 3), (29, 3), (17, 1), (23, 1)])
def test_pair_overlap_at_negated_base_label(q, expected):
    # overlap 1 or 3 depending on whether 5 is a square mod q
    ctx = field(q)
    F = build_factorisation(ctx)
    r = pair_overlap(F.factors[0], F.factor(ctx.neg(1), 0))
    assert r.count == expected
    squares = {(y * y) % q for y in range(1, q)}
    assert (expected == 3) == (5 % q in squares)


def test_overlap_algebraic_rejects_base_labels():
    ctx = field(5)
    with pytest.raises(UsageError, match="denotes the base factor"):
        pair_overlap_algebraic(ctx, 1, 0)
    with pytest.raises(UsageError, match="denotes the base factor"):
        pair_overlap_algebraic(ctx, 4, 1)  # the duplicate label of (1, 0)
    with pytest.raises(UsageError, match="scale must be nonzero"):
        pair_overlap_algebraic(ctx, 0, 1)


def test_overlap_algebraic_example_gf11():
    ctx = field(11)
    r = pair_overlap_algebraic(ctx, ctx.neg(1), 0)
    assert r.direct_solutions == [11]  # just infinity
    assert r.inverse_solutions == [3, 7]  # roots of x^2 + x - 1
    assert r.count == 3


def test_overlap_algebraic_char2_beta_zero_rows():
    # solutions {inf, a/(1+a)} and the quadratic x^2 + (a^2+a+1)x + a
    ctx = field(2, 3)
    F = build_factorisation(ctx)
    base = F.factors[0]
    for a in range(2, ctx.q):
        r = pair_overlap_algebraic(ctx, a, 0)
        assert ctx.q in r.direct_solutions
        assert ctx.div(a, ctx.add(1, a)) in r.direct_solutions
        s = ctx.add(ctx.add(ctx.mul(a, a), a), 1)
        expected = 2 * (ctx.trace(ctx.div(a, ctx.mul(s, s))) == 0)
        assert len(r.inverse_solutions) == expected
        assert r.count == pair_overlap(base, F.factor(a, 0)).count


@pytest.mark.parametrize("p,l", [(5, 1), (2, 3), (11, 1), (17, 1)])
def test_overlap_algebraic_matches_combinatorial_exhaustive(p, l):
    ctx = field(p, l)
    F = build_factorisation(ctx)
    base = F.factors[0]
    neg1 = ctx.neg(1)
    for a in range(1, ctx.q):
        for b in range(ctx.q):
            if (a, b) in {(1, 0), (neg1, 1)}:
                continue
            alg = pair_overlap_algebraic(ctx, a, b)
            comb = pair_overlap(base, F.factor(a, b))
            assert alg.count == comb.count, (p, l, a, b)
            assert alg.repeated_pairs == comb.repeated_pairs, (p, l, a, b)


def _relabel_onto_base(ctx, F, a1, b1, a2, b2):
    # x -> (x - b1) / a1 sends factor (a1, b1) onto the base factor and every
    # factor onto a factor, so it is an isomorphism between the two unions
    n = ctx.q + 1
    by_edges = {frozenset(f.edges): f for f in F.factors}
    inv_a1 = ctx.inv(a1)
    g = affine_map(ctx, inv_a1, ctx.neg(ctx.mul(inv_a1, b1))).permutation()
    f1, f2 = F.factor(a1, b1), F.factor(a2, b2)
    moved1 = {tuple(sorted(g[v] for v in e)) for e in f1.edges}
    moved2 = frozenset(tuple(sorted(g[v] for v in e)) for e in f2.edges)
    assert moved1 == set(F.factors[0].edges)
    assert moved2 in by_edges
    h = union_hypergraph(n, [f1, f2])
    h0 = union_hypergraph(n, [F.factors[0], by_edges[moved2]])
    return g, h, h0


def test_relabelling_reduction_preserves_connectivity():
    # relabelling any pair onto the base factor is a hypergraph isomorphism
    for p, l in [(5, 1), (2, 3), (11, 1), (17, 1)]:
        ctx = field(p, l)
        F = build_factorisation(ctx)
        rng = random.Random(ctx.q)
        for _ in range(200):
            a1, a2 = rng.randrange(1, ctx.q), rng.randrange(1, ctx.q)
            b1, b2 = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if F.index(a1, b1) == F.index(a2, b2):
                continue
            g, h, h0 = _relabel_onto_base(ctx, F, a1, b1, a2, b2)
            assert apply_isomorphism(h, g) == sorted(h0.edges)
            assert is_connected(h) == is_connected(h0)


def test_relabelling_is_explicit_edge_bijection():
    ctx = field(5)
    F = build_factorisation(ctx)
    g, h, h0 = _relabel_onto_base(ctx, F, 2, 1, 3, 4)
    assert sorted(g) == list(range(6))
    assert apply_isomorphism(h, g) == sorted(h0.edges)
    assert len(h.edges) == len(h0.edges) == 4


def test_isomorphism_identity_and_size_mismatch():
    F = build_factorisation(field(5))
    h = union_hypergraph(6, [F.factors[0], F.factors[1]])
    m = find_isomorphism(h, h)
    assert m is not None
    assert apply_isomorphism(h, m) == sorted(h.edges)
    other = UnionHypergraph(5, array("I", [0, 1, 2]))
    with pytest.raises(ValueError, match="vertex counts differ"):
        find_isomorphism(h, other)


def test_all_pair_unions_isomorphic_q5():
    F = build_factorisation(field(5))
    ref = union_hypergraph(6, [F.factors[0], F.factors[1]])
    for i, j in itertools.combinations(range(10), 2):
        h = union_hypergraph(6, [F.factors[i], F.factors[j]])
        m = find_isomorphism(h, ref)
        assert m is not None
        assert apply_isomorphism(h, m) == sorted(ref.edges)


def test_nonisomorphic_unions_q11():
    # overlap is an isomorphism invariant: an overlap-3 union cannot match
    # an overlap-2 union
    ctx = field(11)
    F = build_factorisation(ctx)
    base = F.factors[0]
    odd_one = F.factor(ctx.neg(1), 0)
    assert pair_overlap(base, odd_one).count == 3
    normal = next(
        f for f in F.factors[1:] if pair_overlap(base, f).count == 2
    )
    h_odd = union_hypergraph(12, [base, odd_one])
    h_norm = union_hypergraph(12, [base, normal])
    assert find_isomorphism(h_odd, h_norm) is None


def test_berge_cycle_on_every_q5_triple():
    F = build_factorisation(field(5))
    for trip in itertools.combinations(range(10), 3):
        h = union_hypergraph(6, [F.factors[i] for i in trip])
        r = find_hamilton_berge_cycle(h)
        assert r.found
        assert validate_berge_cycle(h, r)


def test_berge_cycle_deterministic():
    F = build_factorisation(field(2, 3))
    h = union_hypergraph(9, F.factors[:3])
    r1 = find_hamilton_berge_cycle(h)
    r2 = find_hamilton_berge_cycle(h)
    assert r1.found and r1.vertices == r2.vertices
    assert r1.edge_indices == r2.edge_indices
    assert r1.vertices[0] == 0


def test_berge_edgeless_and_pair_unions_have_no_cycle():
    edgeless = UnionHypergraph(4, array("I"))
    assert find_hamilton_berge_cycle(edgeless).status == "none"
    F = build_factorisation(field(5))
    h = union_hypergraph(6, [F.factors[0], F.factors[1]])
    # 4 edges < 6 vertices: impossible by counting
    assert find_hamilton_berge_cycle(h).status == "none"


def test_berge_rejects_more_edges_than_vertices():
    # unions of 2 or 3 factors never have spare edges; the search has no
    # path for them
    h = UnionHypergraph(4, array("I", [0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3, 0, 1, 2]))
    with pytest.raises(ValueError):
        find_hamilton_berge_cycle(h)


def test_berge_disconnected_gf125_triple():
    ctx = field(5, 3)
    factors = [build_one_factor(ctx, a, 0) for a in (1, 2, 3)]
    h = union_hypergraph(126, factors)
    assert not is_connected(h)
    assert find_hamilton_berge_cycle(h).status == "none"


def test_berge_witness_replay_rejects_corruption():
    F = build_factorisation(field(5))
    h = union_hypergraph(6, F.factors[:3])
    r = find_hamilton_berge_cycle(h)
    assert validate_berge_cycle(h, r)
    bad = type(r)("found", r.vertices[:], r.edge_indices[:])
    bad.vertices[0], bad.vertices[1] = bad.vertices[1], bad.vertices[0]
    assert not validate_berge_cycle(h, bad)


def test_berge_witness_replay_rejects_edge_indices_outside_the_union():
    h = UnionHypergraph(4, array("I", [0, 1, 2, 0, 1, 3, 1, 2, 3, 0, 2, 3]))

    def cycle(edge_indices):
        return BergeSearchResult("found", [0, 1, 2, 3], edge_indices)

    assert validate_berge_cycle(h, cycle([1, 0, 2, 3]))
    # -4 names edge 0 again: it would host two pairs and (0, 1, 3) none
    assert not validate_berge_cycle(h, cycle([0, -4, 2, 3]))
    assert not validate_berge_cycle(h, cycle([1, 0, 2, 4]))
