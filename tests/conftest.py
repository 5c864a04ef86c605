from array import array

import pytest

from trifactor.factorisation import build_factorisation
from trifactor.verifier import field_for

_CACHE = {}


@pytest.fixture(scope="session")
def factorisations():
    """Shared factorisation builder; instances are immutable."""

    def get(q):
        if q not in _CACHE:
            _CACHE[q] = build_factorisation(field_for(q))
        return _CACHE[q]

    return get


@pytest.fixture
def tamper_union(monkeypatch):
    """tamper_union(at) swaps a point between the first two edges of the
    union that the verifier's union_hypergraph builds on call number at:
    that call returns a new union with the two points swapped."""
    import trifactor.verifier as verifier
    from trifactor.hypergraph import UnionHypergraph

    real = verifier.union_hypergraph

    def tamper(at):
        built = []

        def tampered(n, factors):
            h = real(n, factors)
            built.append(h)
            if len(built) == at:
                x, y, z, u, v, w = h.points[:6]
                swapped = array(h.points.typecode,
                                [*sorted((x, y, w)), *sorted((u, v, z))])
                h = UnionHypergraph(n, swapped + h.points[6:])
            return h

        monkeypatch.setattr(verifier, "union_hypergraph", tampered)

    return tamper


@pytest.fixture
def swapped_isomorphism(monkeypatch):
    """The verifier's find_isomorphism, with the images of vertices 0 and 1
    swapped in every map it returns."""
    import trifactor.verifier as verifier

    real = verifier.find_isomorphism

    def swapped(h1, h2):
        mapping = real(h1, h2)
        if mapping is not None:
            mapping[0], mapping[1] = mapping[1], mapping[0]
        return mapping

    monkeypatch.setattr(verifier, "find_isomorphism", swapped)


@pytest.fixture
def extra_a4_pair(monkeypatch):
    """The census's closure, reporting order 12 for the first pair whose
    closure is not A4: exactly one extra A4 pair."""
    import trifactor.groups as groups

    real = groups.generate_subgroup
    flipped = False

    def closure(ctx, gens, stop_when_full=False):
        nonlocal flipped
        g = real(ctx, gens, stop_when_full)
        if g.order != 12 and not flipped:
            flipped = True
            return groups.GeneratedSubgroup(None, 12)
        return g

    monkeypatch.setattr(groups, "generate_subgroup", closure)


@pytest.fixture
def one_duplicate_edge(monkeypatch):
    """The verifier's verify_partition, reporting the base factor's first
    edge once more as a duplicate."""
    import trifactor.verifier as verifier

    real = verifier.verify_partition

    def duplicated(fact):
        report = real(fact)
        report.duplicates.append(fact.factors[0].edges[0])
        return report

    monkeypatch.setattr(verifier, "verify_partition", duplicated)
