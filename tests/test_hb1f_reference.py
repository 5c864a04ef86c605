"""The HB1F triple loop against the loop it replaced.

reference_check_triples is the earlier body of _hb1f_check_triples, kept as
the reference: it checks connectivity and then searches every triple.  The
loop now moves each triple onto its base triple, the one holding the base
factor, by factor moves it replays, and decides each PΓL(2,q) class once,
on the union of its first base triple; a later base triple takes that status
once its union replays onto the class's.  So the (triple, status) pairs it
yields must equal the reference's list in every mode, and a full sweep must
search once per class.
"""

import itertools
import random

import pytest

import trifactor.verifier as verifier
from trifactor.factorisation import canonical_label
from trifactor.hypergraph import (
    find_hamilton_berge_cycle,
    is_connected,
    union_hypergraph,
)
from trifactor.projline import Mobius, affine_map
from trifactor.verifier import check_hb1f


def reference_check_triples(fact, triples, time_budget):
    n = fact.ctx.q + 1
    out = []
    for t in triples:
        h = union_hypergraph(n, [fact.factors[i] for i in t])
        if not is_connected(h):
            out.append((t, "disconnected"))
        else:
            out.append((t, find_hamilton_berge_cycle(h, time_budget).status))
    return out


def sweep_against_reference(monkeypatch, fact, mode, **kwargs):
    """Run check_hb1f; return its (triple, status) list, the reference's, and
    the number of searches check_hb1f made."""
    calls = []
    searches = []
    real = verifier._hb1f_check_triples

    def recording(fact, triples, time_budget):
        triples = list(triples)  # the reference reads them again
        got = list(real(fact, triples, time_budget))
        calls.append((triples, time_budget, got))
        return got

    def counting_search(h, *args):
        searches.append(h)
        return find_hamilton_berge_cycle(h, *args)

    monkeypatch.setattr(verifier, "_hb1f_check_triples", recording)
    monkeypatch.setattr(verifier, "find_hamilton_berge_cycle", counting_search)
    verdict = check_hb1f(fact, mode, **kwargs)
    (triples, time_budget, got), = calls
    assert len(got) == verdict.stats.get("distinct_tasks", verdict.stats["tasks"])
    return got, reference_check_triples(fact, triples, time_budget), len(searches)


@pytest.mark.parametrize("q, classes", [(5, 4), (8, 6), (11, 37)])
def test_full_sweep_matches_reference(factorisations, monkeypatch, q, classes):
    # one search per PΓL(2,q) class (counted by brute force below)
    got, want, searches = sweep_against_reference(monkeypatch, factorisations(q),
                                                  "full")
    assert got == want
    assert searches == classes


@pytest.mark.parametrize("q", [11, 17])
def test_reduced_sweep_matches_reference(factorisations, monkeypatch, q):
    got, want, _ = sweep_against_reference(monkeypatch, factorisations(q),
                                           "reduced")
    assert got == want
    statuses = {status for _, status in got}
    assert statuses == ({"found", "disconnected"} if q == 17 else {"found"})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_sweep_matches_reference(factorisations, monkeypatch, seed):
    got, want, _ = sweep_against_reference(monkeypatch, factorisations(32),
                                           "sampled", samples=1000, seed=seed)
    assert got == want


def test_q125_subfield_triple_and_images_match_reference(factorisations):
    fact = factorisations(125)
    labels = [f.label for f in fact.factors]
    subfield = tuple(sorted(labels.index(canonical_label(fact.ctx, a, 0)) for a in (1, 2, 3)))
    rng = random.Random(125)
    connected = tuple(sorted(rng.sample(range(len(fact.factors)), 3)))
    triples = [subfield, connected]
    for t in (subfield, connected):
        alpha, beta = rng.randrange(5, 125), rng.randrange(125)  # alpha outside GF(5)
        g = affine_map(fact.ctx, alpha, beta).permutation()
        triples.append(tuple(sorted(fact.image(g, i) for i in t)))
    triples.append(subfield)
    got = list(verifier._hb1f_check_triples(fact, triples, 10.0))
    assert got == reference_check_triples(fact, triples, 10.0)
    assert [status for _, status in got] == [
        "disconnected", "found", "disconnected", "found", "disconnected"]


@pytest.mark.parametrize("q, classes", [(5, 4), (8, 6), (11, 37)])
def test_affine_classes_by_brute_force(factorisations, q, classes):
    # Union-find over all triples, joined by generators of PΓL(2,q) acting
    # on edge sets: every translation, a primitive scaling, x -> 1/x and
    # Frobenius.  Nothing here uses Factorisation.image or its symmetry.
    fact = factorisations(q)
    ctx = fact.ctx
    primitive = next(g for g in range(2, q) if len({ctx.pow(g, e)
                                                     for e in range(q - 1)}) == q - 1)
    gens = [affine_map(ctx, 1, c).permutation() for c in range(1, q)]
    gens += [affine_map(ctx, primitive, 0).permutation(),
             Mobius(ctx, 0, 1, 1, 0).permutation(),
             tuple(ctx.frobenius(x) for x in range(q)) + (q,)]
    by_edges = {frozenset(f.edges): i for i, f in enumerate(fact.factors)}
    factor_maps = [[by_edges[frozenset(tuple(sorted(g[v] for v in e))
                                       for e in f.edges)]
                    for f in fact.factors] for g in gens]
    parent = {t: t for t in itertools.combinations(range(len(fact.factors)), 3)}

    def root(t):
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        return t

    for t in parent:
        for fm in factor_maps:
            parent[root(t)] = root(tuple(sorted(fm[i] for i in t)))
    assert len({root(t) for t in parent}) == classes
