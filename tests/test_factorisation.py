import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

import trifactor
import trifactor.factorisation as factorisation
from trifactor.factorisation import (
    build_factorisation,
    build_one_factor,
    canonical_label,
    dumps_factorisation,
    load_factorisation,
    verify_partition,
)
from trifactor.field import (
    FiniteField,
    InvariantError,
    OutOfRangeError,
    UsageError,
    field,
)
from trifactor.projline import Mobius, affine_map, invert, orbit_map
from trifactor.verifier import field_for


def test_build_refuses_more_edges_than_the_cap():
    # q=227 is the largest admissible prime whose C(q+1, 3) edges fit
    assert math.comb(228, 3) <= factorisation.MAX_EDGES < math.comb(234, 3)
    with pytest.raises(OutOfRangeError, match="q=233 has 2108184 edges"):
        build_factorisation(field_for(233))


def test_base_factor_q2():
    ctx = field(2)
    f = build_one_factor(ctx, 1, 0)
    assert f.edges == ((0, 1, 2),)


def test_base_factor_q5():
    ctx = field(5)
    f = build_one_factor(ctx, 1, 0)
    assert f.edges == ((0, 1, 5), (2, 3, 4))


def test_duplicate_label_identity_q5():
    ctx = field(5)
    # (-1, 1) = (4, 1) produces the same factor as (1, 0)
    assert build_one_factor(ctx, 4, 1).edges == build_one_factor(ctx, 1, 0).edges


def test_bad_residue_rejected():
    with pytest.raises(UsageError, match="not 2 mod 3"):
        build_one_factor(field(7), 1, 0)
    with pytest.raises(UsageError, match="not 2 mod 3"):
        build_factorisation(field(13))
    with pytest.raises(UsageError, match="label scale must be nonzero"):
        build_one_factor(field(5), 0, 1)


def test_factor_counts():
    assert len(build_factorisation(field(2))) == 1
    assert len(build_factorisation(field(5))) == 10
    assert len(build_factorisation(field(2, 3))) == 28
    assert len(build_factorisation(field(11))) == 55


def test_each_factor_is_a_perfect_matching():
    for p, l in [(2, 1), (5, 1), (2, 3), (11, 1)]:
        ctx = field(p, l)
        fact = build_factorisation(ctx)
        n = ctx.q + 1
        for f in fact.factors:
            assert len(f.edges) == n // 3
            covered = [v for e in f.edges for v in e]
            assert sorted(covered) == list(range(n))


def test_every_factor_hit_by_exactly_two_labels():
    for p, l in [(5, 1), (2, 3), (11, 1)]:
        fact = build_factorisation(field(p, l))
        ctx = fact.ctx
        counts = {}
        for a in range(1, ctx.q):
            for b in range(ctx.q):
                idx = fact.index(a, b)
                counts[idx] = counts.get(idx, 0) + 1
                # and the two labels are related by (a, b) -> (-a, a+b)
                assert fact.index(ctx.neg(a), ctx.add(a, b)) == idx
        assert sorted(counts) == list(range(len(fact)))
        assert set(counts.values()) == {2}


@pytest.mark.parametrize("q", [2, 5, 8, 32, 125])
def test_canonical_label_is_the_lesser_twin(q):
    # in prime, characteristic-2 and odd-extension fields alike: a label and
    # its twin (-a, a + b) are distinct and share the lesser as canonical
    ctx = field_for(q)
    canonical = set()
    for a in range(1, q):
        for b in range(q):
            twin = (ctx.neg(a), ctx.add(a, b))
            assert twin != (a, b)
            label = canonical_label(ctx, a, b)
            assert label == canonical_label(ctx, *twin) == min((a, b), twin)
            canonical.add(label)
    assert len(canonical) == q * (q - 1) // 2
    assert [f.label for f in build_factorisation(ctx).factors] == sorted(canonical)


def test_canonical_labels_are_first_in_enumeration_order():
    ctx = field(5)
    fact = build_factorisation(ctx)
    assert fact.index(1, 0) == 0
    assert fact.factors[0].label == (1, 0)
    first = {}
    for a in range(1, 5):
        for b in range(5):
            idx = fact.index(a, b)
            first.setdefault(idx, (a, b))
            assert canonical_label(ctx, a, b) == first[idx]
            assert fact.factors[idx].label == first[idx]
    assert list(first) == list(range(len(fact)))


def _reference_factorisation(ctx):
    """Orbits of orbit_map(a, b) for every label, deduplicated by edge set."""
    n = ctx.q + 1
    edge_lists, labels, by_label, by_edges = [], [], {}, {}
    for a in range(1, ctx.q):
        for b in range(ctx.q):
            perm = orbit_map(ctx, a, b).permutation()
            edges = tuple(sorted({tuple(sorted((x, perm[x], perm[perm[x]])))
                                  for x in range(n)}))
            if edges not in by_edges:
                by_edges[edges] = len(edge_lists)
                edge_lists.append(edges)
                labels.append((a, b))
            by_label[(a, b)] = by_edges[edges]
    return edge_lists, labels, by_label


@pytest.mark.parametrize("q", [2, 5, 8, 11, 17, 29, 32, 125])
def test_affine_images_match_orbit_construction(q):
    ctx = field_for(q)
    fact = build_factorisation(ctx)
    edge_lists, labels, by_label = _reference_factorisation(ctx)
    assert [f.edges for f in fact.factors] == edge_lists
    assert [f.label for f in fact.factors] == labels
    assert {(a, b): fact.index(a, b) for a, b in by_label} == by_label
    for a, b in [(1, 0), labels[-1], (ctx.q - 1, ctx.q - 1)]:
        assert build_one_factor(ctx, a, b).edges == edge_lists[by_label[(a, b)]]


@pytest.mark.parametrize("q", [5, 8, 11, 17, 32, 125])
def test_image_index_moves_the_edges(q):
    # the factor action of random words in sigma, a torus element, Frobenius
    # and affine maps, against the moved edge set
    fact = build_factorisation(field_for(q))
    ctx = fact.ctx
    rng = random.Random(q)
    torus = Mobius(ctx, 1, 1, ctx.neg(1), ctx.add(1, 1))  # I + F, F the base map
    letters = [Mobius(ctx, 0, 1, 1, 0).permutation(), torus.permutation(),
               tuple(ctx.frobenius(x) for x in range(q)) + (q,)]
    for _ in range(300):
        g = tuple(range(q + 1))
        for _ in range(rng.randrange(1, 6)):
            letter = rng.choice(letters + [affine_map(ctx, rng.randrange(1, q),
                                                      rng.randrange(q)).permutation()])
            g = tuple(letter[v] for v in g)
        i = rng.randrange(len(fact.factors))
        moved = {tuple(sorted(g[v] for v in e)) for e in fact.factors[i].edges}
        assert set(fact.factors[fact.image(g, i)].edges) == moved


@pytest.mark.parametrize("q, orbits", [(5, 3), (11, 6), (17, 9), (29, 15),
                                       (8, 2), (32, 4), (128, 10), (125, 23)])
def test_symmetry_orbits_certify_themselves(q, orbits):
    # N-orbits on factors: (q+1)/2 at primes, 23 at q=125, 2, 4, 10 at 2^p
    fact = build_factorisation(field_for(q))
    sym = fact.symmetry
    order = 2 * (q + 1) * fact.ctx.l
    assert len(sym.elements) == len(set(sym.elements)) == order
    assert len(sym.stabiliser) == orbits
    sizes = {r: sym.rep.count(r) for r in sym.stabiliser}
    assert sum(sizes.values()) == len(fact.factors)
    for r, stab in sym.stabiliser.items():
        assert sizes[r] * len(stab) == order
        assert all(fact.image(sym.elements[k], r) == r for k in stab)
    for i in range(len(fact.factors)):
        assert fact.image(sym.elements[sym.tau[i]], i) == sym.rep[i]


def test_symmetry_rejects_a_wrong_listing_of_n(monkeypatch):
    # with Frobenius the identity, the 2(q+1)l products at q=8 collapse to
    # the 2(q+1) of PGL: N comes out a third of its order
    monkeypatch.setattr(FiniteField, "frobenius", lambda self, a: a)
    with pytest.raises(InvariantError, match="18 distinct elements, not 54"):
        build_factorisation(field_for(8)).symmetry


def test_symmetry_rejects_an_unlisted_inverse(monkeypatch):
    # an inverse with the images of 0 and 1 swapped is not in PΓL(2,q)
    def swapped(perm):
        inv = list(invert(perm))
        inv[0], inv[1] = inv[1], inv[0]
        return tuple(inv)

    monkeypatch.setattr(factorisation, "invert", swapped)
    with pytest.raises(InvariantError, match="inverse of element 0 is not in N"):
        build_factorisation(field_for(8)).symmetry


def test_orbit_check_survives_python_O():
    # a transposition is not a 3-cycle; the check must not vanish under -O
    src = Path(trifactor.__file__).resolve().parents[1]
    code = "from trifactor.factorisation import _orbit_edges\n_orbit_edges([1, 0, 2], 3)"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "InvariantError" in proc.stderr


def test_verify_partition_counts():
    for p, l, n_edges in [(5, 1, 20), (11, 1, 220), (2, 1, 1)]:
        fact = build_factorisation(field(p, l))
        rep = verify_partition(fact)
        assert rep.ok
        assert rep.total_edges == n_edges == math.comb(p**l + 1, 3)


def test_verify_partition_detects_damage():
    fact = build_factorisation(field(5))
    # clone with one factor's edge list corrupted to duplicate another's edge
    from trifactor.factorisation import Factorisation, OneFactor

    broken = [
        OneFactor(f.label, f.points if i != 3 else fact.factors[0].points)
        for i, f in enumerate(fact.factors)
    ]
    rep = verify_partition(Factorisation(fact.ctx, broken))
    assert not rep.ok
    assert rep.duplicates and rep.missing
    assert rep.not_one_factors == []


# a first edge of the q=5 base factor (0 1 5 | 2 3 4) that is not three
# points 0 <= a < b < c <= q of the line: the malformed triples read from
# the flat points, and the factors not covering each point once
OFF_THE_LINE = {
    (0, 1, 99): ([(0, 1, 99)], []),
    (0, 0, 1): ([(0, 0, 1)], [0]),
    (1, 0, 5): ([(1, 0, 5)], []),
    (0, 1): ([], [0]),  # 0 1 2 3 4: reads (0, 1, 2), drops 3 and 4
    (0, 1, 2, 3): ([(3, 2, 3)], [0]),  # 0 1 2 3 2 3 4: drops 4
}


@pytest.mark.parametrize("bad", list(OFF_THE_LINE))
def test_verify_partition_rejects_edges_off_the_line(bad):
    from trifactor.factorisation import Factorisation, OneFactor

    fact = build_factorisation(field(5))
    first = fact.factors[0]
    broken = [OneFactor(first.label, array("I", bad) + first.points[3:]),
              *fact.factors[1:]]
    rep = verify_partition(Factorisation(fact.ctx, broken))
    assert not rep.ok
    assert (rep.malformed, rep.not_one_factors) == OFF_THE_LINE[bad]


def test_verify_partition_finds_factors_that_swapped_an_edge():
    # factors 1 and 2 trade their first edges: every triple is still
    # covered once, but neither factor covers each point once
    from trifactor.factorisation import Factorisation, OneFactor

    fact = build_factorisation(field(11))
    one, two = fact.factors[1], fact.factors[2]
    factors = list(fact.factors)
    factors[1] = OneFactor(one.label, two.points[:3] + one.points[3:])
    factors[2] = OneFactor(two.label, one.points[:3] + two.points[3:])
    rep = verify_partition(Factorisation(fact.ctx, factors))
    assert (rep.duplicates, rep.missing, rep.malformed) == ([], [], [])
    assert rep.total_edges == rep.expected_edges
    assert rep.not_one_factors == [1, 2]
    assert not rep.ok


def test_build_stores_each_factor_as_one_flat_array():
    # a fresh q=59 build: 1,770 factors of 60 points each; with one tuple
    # object per edge it traced 2.8 MB, and with a map of every label, twins
    # included, 1.16 MB
    q = 59
    ctx = field_for(q)
    tracemalloc.start()
    try:
        fact = build_factorisation(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0e6
    assert all(type(f.points) is array and f.points.typecode == "I"
               and len(f.points) == q + 1 for f in fact.factors)


def test_verify_partition_memory_is_one_byte_a_cell(factorisations):
    # the triple index is one byte for each of the (q+1)^3 cells, not a set
    # of the C(q+1, 3) edges
    q = 59
    fact = factorisations(q)
    tracemalloc.start()
    try:
        assert verify_partition(fact).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (q + 1) ** 3


def test_verify_partition_finds_one_moved_point_at_q125(factorisations):
    # move the last point of factor 1's first edge so that the edge lands on
    # a triple another factor owns: one duplicate, one triple missing
    from trifactor.factorisation import Factorisation, OneFactor

    fact = factorisations(125)
    edge = fact.factors[1].edges[0]
    x, y, _ = edge
    w = next(v for v in range(126) if v not in edge)
    moved = tuple(sorted((x, y, w)))
    owners = [i for i, f in enumerate(fact.factors) if moved in f.edges]
    assert len(owners) == 1 and owners[0] != 1
    factors = list(fact.factors)
    factors[1] = OneFactor(fact.factors[1].label,
                           array("I", moved) + fact.factors[1].points[3:])
    rep = verify_partition(Factorisation(fact.ctx, factors))
    assert rep.total_edges == rep.expected_edges == math.comb(126, 3)
    assert rep.duplicates == [moved]
    assert rep.missing == [edge]
    assert rep.malformed == []
    assert rep.not_one_factors == [1]  # w twice, the edge's last point never


def test_dump_round_trip():
    for p, l in [(5, 1), (2, 3)]:
        fact = build_factorisation(field(p, l))
        text = dumps_factorisation(fact)
        again = load_factorisation(text)
        assert again == fact


@pytest.mark.parametrize("q", [2, 5, 8, 11, 125])
def test_load_registers_every_label(q):
    # each factor's twin label (-a, a + b) must resolve after a round trip
    fact = build_factorisation(field_for(q))
    again = load_factorisation(dumps_factorisation(fact))
    assert again == fact
    assert all(again.index(a, b) == fact.index(a, b)
               for a in range(1, q) for b in range(q))


def _edit_q5_dump(edit):
    lines = dumps_factorisation(build_factorisation(field(5))).splitlines()
    factor1 = lines.index("factor 1 alpha=1 beta=1")
    if edit == "no q":
        lines[0] = lines[0].replace("q=5 ", "")
    elif edit == "header token":
        lines[0] += " extra"
    elif edit == "edge token":
        lines[2] = "0 1 x"
    elif edit == "edge first":
        lines.insert(1, "2 3 4")
    elif edit == "no beta":
        lines[factor1] = "factor 1 alpha=1"
    elif edit == "vertex 99":
        lines[2] = "0 1 99"
    elif edit == "alpha 0":
        lines[factor1] = "factor 1 alpha=0 beta=1"
    elif edit == "last dropped":
        lines = lines[: max(i for i, ln in enumerate(lines) if ln.startswith("factor"))]
    elif edit == "relabelled":
        lines[factor1] = "factor 1 alpha=3 beta=2"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit", [
    "no q", "header token", "edge token", "edge first", "no beta",
    "vertex 99", "alpha 0", "last dropped", "relabelled",
])
def test_load_rejects_dumps_that_differ_from_the_construction(edit):
    with pytest.raises(UsageError):
        load_factorisation(_edit_q5_dump(edit))


def test_dump_human_variant_uses_inf():
    fact = build_factorisation(field(2))
    text = dumps_factorisation(fact, human=True)
    assert "inf" in text
    assert load_factorisation(text) == fact


def test_dump_header():
    fact = build_factorisation(field(2, 3))
    first = dumps_factorisation(fact).splitlines()[0]
    assert first == "q=8 p=2 l=3 modulus=1,1,0,1"


def test_load_rejects_wrong_modulus():
    fact = build_factorisation(field(5))
    text = dumps_factorisation(fact).replace("modulus=0,1", "modulus=1,1")
    with pytest.raises(ValueError):
        load_factorisation(text)


def test_load_accepts_file_handle():
    fact = build_factorisation(field(5))
    fh = io.StringIO(dumps_factorisation(fact))
    assert load_factorisation(fh) == fact
