"""One-factors and the full 1-factorisation of K^3_{q+1}.

A one-factor with label (a, b) is the orbit partition of orbit_map(a, b):
triples {x, m(x), m^-1(x)} covering every point exactly once.  Since
orbit_map(a, b) = g o base o g^-1 with g the affine map x -> a x + b, that
partition is the base factor (the orbits of base_map) moved by g, infinity
fixed.  So the base factor's orbits are computed once and every other factor
is its affine image.  Labels (a, b) and (-a, a + b) give the same factor,
and canonical_label picks the lesser of the two, the first in enumeration
order; the q(q-1)/2 canonical labels (a in F*, b in F) name the distinct
factors, in the order the build makes them.  The build computes the q
translation rows x -> x + b once, as point lists, and scales the base
edges once for each a that has a canonical label; each factor is then
the scaled edges moved by one row.  A factor
stores its edges flat, as one array of points, three an edge, so a
factorisation holds C(q+1, 3) edges without one tuple object each.  A point
takes one byte, array('B'), while n = q+1 <= 256, as in every factorisation
MAX_EDGES admits; only a single factor past that takes four, array('I').
verify_partition checks independently that each factor covers every point
once and that they partition all triples, marking each in one byte array
indexed by the triple rather than keeping a set of C(q+1, 3) tuples.

PΓL(2,q) permutes the factors, and they partition the triples, so the
factor that holds a moved edge is the moved factor: Factorisation.image
reads that action from one table, the owner of each triple by colex rank,
built on first use from the factors' own points.
Factorisation.symmetry lists N, the stabiliser of the base factor, directly
as the products of its torus, x -> 1/x and Frobenius, with its orbits on
the factors.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, combinations

from .field import FiniteField, InvariantError, OutOfRangeError, UsageError
from .projline import Mobius, _row, base_map, invert

Edge = tuple[int, int, int]
# A built edge holds ~6 bytes: three 1-byte points and its share of its
# factor's object, label and index entry.  Building and verifying q=227
# peaks at 28 MB resident (Python 3.11).  The cap keeps q=227 and refuses q=233.
MAX_EDGES = 2_000_000


def require_residue(q: int) -> None:
    if q % 3 != 2:
        raise UsageError(f"q={q} is not 2 mod 3")


def edges_of(points: Iterable[int]) -> Iterator[Edge]:
    """Flat points read three at a time, as edges; a last one or two
    points that make no edge are dropped."""
    it = iter(points)
    return zip(it, it, it)


class OneFactor:
    """A perfect matching of the q+1 points by triples, with its label.

    points holds the edges flat, three points an edge: the edges sorted,
    each edge sorted; one byte a point up to 256 points, else four.
    """

    __slots__ = ("label", "points")

    def __init__(self, label: tuple[int, int], points: array):
        self.label = label
        self.points = points

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as triples, decoded from points on each access."""
        return tuple(edges_of(self.points))

    def __repr__(self):
        return f"OneFactor(label={self.label}, edges={len(self.points) // 3})"


def _flat(n: int, points: Iterable[int]) -> array:
    """points, each below n, as one array: a byte a point when n <= 256,
    as for every factorisation MAX_EDGES admits, else four."""
    return array("B", bytes(points)) if n <= 256 else array("I", points)


def _orbit_edges(perm: tuple[int, ...], n: int) -> array:
    """The 3-cycles of perm as flat edges, each sorted, by least point."""
    points = []
    seen = bytearray(n)
    for x in range(n):
        if seen[x]:
            continue
        y = perm[x]
        z = perm[y]
        if perm[z] != x or x == y:
            raise InvariantError(f"point {x} does not lie on a 3-cycle")
        seen[x] = seen[y] = seen[z] = 1
        points.extend(sorted((x, y, z)))
    return _flat(n, points)


@functools.cache
def _base_points(ctx: FiniteField) -> array:
    """The base factor's flat edges, computed once per field."""
    require_residue(ctx.q)
    return _orbit_edges(base_map(ctx).permutation(), ctx.q + 1)


def _moved(img: Sequence[int], points: Iterable[int]) -> array:
    """Flat edges moved by the point list img, each edge sorted by
    compare-and-swap, then the edges sorted, as flat points."""
    edges = []
    for x, y, z in edges_of(map(img.__getitem__, points)):
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
            if x > y:
                x, y = y, x
        edges.append((x, y, z))
    return _flat(len(img), chain.from_iterable(sorted(edges)))


def _colex(n: int) -> tuple[list[int], list[int]]:
    """high, mid: the colex rank of a triple 0 <= a < b < c < n, its index
    among the C(n, 3) triples, is high[c] + mid[b] + a, that is
    C(c, 3) + C(b, 2) + a."""
    return [math.comb(c, 3) for c in range(n)], [math.comb(b, 2) for b in range(n)]


def canonical_label(ctx: FiniteField, a: int, b: int) -> tuple[int, int]:
    """The label of factor (a, b): the lesser of (a, b) and its twin
    (-a, a + b), which name the same factor."""
    return min((a, b), (ctx.neg(a), ctx.add(a, b)))


def build_one_factor(ctx: FiniteField, a: int, b: int) -> OneFactor:
    """Orbit partition of orbit_map(a, b), as the affine image of the base."""
    if a == 0:
        raise UsageError("label scale must be nonzero")
    scaled = _moved(_row(ctx, ctx.mul, a), _base_points(ctx))
    return OneFactor((a, b), _moved(_row(ctx, ctx.add, b), scaled))


class Factorisation:
    """All distinct one-factors, in the order of their canonical labels."""

    def __init__(self, ctx: FiniteField, factors: list[OneFactor]):
        self.ctx = ctx
        self.factors = factors
        self._high, self._mid = _colex(ctx.q + 1)

    @functools.cached_property
    def _owner(self) -> list[int]:
        """owner[k], the factor that holds the triple of colex rank k.

        InvariantError unless there are q(q-1)/2 factors, each n distinct
        points, each edge a < b < c < n, and no triple held twice: then the
        C(n, 3) triples have one owner each.
        """
        q = self.ctx.q
        n = q + 1
        if len(self.factors) != q * (q - 1) // 2:
            raise InvariantError(f"{len(self.factors)} factors, not q(q-1)/2 = "
                                 f"{q * (q - 1) // 2}")
        high, mid = self._high, self._mid
        owner = [-1] * math.comb(n, 3)
        for i, f in enumerate(self.factors):
            if len(f.points) != n or len(set(f.points)) != n:
                raise InvariantError(f"factor {i} is not {n} distinct points")
            for a, b, c in edges_of(f.points):
                if not 0 <= a < b < c < n:
                    raise InvariantError(f"factor {i} has the edge {(a, b, c)}, "
                                         f"not a < b < c < {n}")
                k = high[c] + mid[b] + a
                if owner[k] >= 0:
                    raise InvariantError(f"factors {owner[k]} and {i} both hold the "
                                         f"triple {(a, b, c)}")
                owner[k] = i
        return owner

    def image(self, perm: Sequence[int], i: int) -> int:
        """Index of factor i moved by perm, a point permutation in PΓL(2,q):
        the owner of factor i's first edge moved by perm, as PΓL(2,q)
        permutes the factors.  No field arithmetic."""
        p = self.factors[i].points
        x, y, z = perm[p[0]], perm[p[1]], perm[p[2]]
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
            if x > y:
                x, y = y, x
        return self._owner[self._high[z] + self._mid[y] + x]

    @functools.cached_property
    def symmetry(self) -> "Symmetry":
        """N and its orbits on the factors, built on first use."""
        return Symmetry(self)


class Symmetry:
    """N, the stabiliser of the base factor in PΓL(2,q), on the factors.

    N has order 2(q+1)l and is listed outright as the products
    phi^k o sigma^e o t: t in the torus {I} ∪ {x I + F : x in GF(q)} of the
    base matrix F (det x^2 + x + 1 is nonzero as q = 2 mod 3), sigma:
    x -> 1/x, which inverts F, and Frobenius phi, which fixes it.
    elements[k] is a point permutation and elements[0] the identity.
    rep[i] is the least factor of i's N-orbit and elements[tau[i]] moves i
    there; stabiliser[r] lists the elements that fix the representative r.
    Each t, sigma and phi must map the base factor onto itself, the
    products must be distinct with every inverse listed, and the orbits
    must pass orbit-stabiliser and partition the factors, or InvariantError.
    """

    def __init__(self, fact: Factorisation):
        ctx = fact.ctx
        q = ctx.q
        base = _base_points(ctx)
        identity = tuple(range(q + 1))
        torus = [identity] + [Mobius(ctx, x, 1, ctx.neg(1), ctx.add(x, 1)).permutation()
                              for x in range(q)]
        sigma = Mobius(ctx, 0, 1, 1, 0).permutation()
        phi = tuple(ctx.frobenius(x) for x in range(q)) + (q,)
        for g in torus + [sigma, phi]:
            if _moved(g, base) != base:
                raise InvariantError(f"{g} does not fix the base factor")
        powers = [identity]  # phi^k for k < l
        for _ in range(ctx.l - 1):
            powers.append(tuple(phi[v] for v in powers[-1]))
        heads = [h for f in powers for h in (f, tuple(f[v] for v in sigma))]
        self.elements: list[tuple[int, ...]] = [tuple(h[v] for v in t)
                                                for h in heads for t in torus]
        order = 2 * (q + 1) * ctx.l
        index = {e: k for k, e in enumerate(self.elements)}
        if len(index) != order:
            raise InvariantError(f"N lists {len(index)} distinct elements, not {order}")
        inverse = [index.get(invert(e), -1) for e in self.elements]
        if -1 in inverse:
            raise InvariantError(f"the inverse of element {inverse.index(-1)} "
                                 f"is not in N")

        nf = len(fact.factors)
        self.rep: list[int] = [-1] * nf
        self.tau: list[int] = [-1] * nf
        self.stabiliser: dict[int, list[int]] = {}
        covered = 0
        for r in range(nf):
            if self.rep[r] >= 0:
                continue
            orbit: set[int] = set()
            stab = []
            for k, e in enumerate(self.elements):
                x = fact.image(e, r)
                orbit.add(x)
                if x == r:
                    stab.append(k)
                if self.rep[x] < 0:
                    self.rep[x], self.tau[x] = r, inverse[k]
            if len(orbit) * len(stab) != order:
                raise InvariantError(f"orbit of factor {r}: {len(orbit)} factors "
                                     f"and a stabiliser of {len(stab)} in N of "
                                     f"order {order}")
            self.stabiliser[r] = stab
            covered += len(orbit)
        if covered != nf:
            raise InvariantError(f"N-orbits cover {covered} of {nf} factors")
        self._fact = fact

    def canonical(self, x: int, y: int) -> tuple[tuple[int, int], int, int]:
        """((r, z), s, t) with s∘t moving {x, y} to {r, z}, the least such
        pair over r = rep of x or of y, t = tau of that factor and s in the
        stabiliser of r; equal for two pairs exactly when N joins them."""
        if self.rep[x] != self.rep[y]:
            return self._orient(*sorted((x, y), key=self.rep.__getitem__))
        return min(self._orient(x, y), self._orient(y, x))

    def _orient(self, x: int, y: int) -> tuple[tuple[int, int], int, int]:
        image = self._fact.image
        t = self.tau[x]
        y = image(self.elements[t], y)
        z, s = min((image(self.elements[s], y) if s else y, s)
                   for s in self.stabiliser[self.rep[x]])
        return (self.rep[x], z), s, t


def build_factorisation(ctx: FiniteField) -> Factorisation:
    """Every distinct factor, in label enumeration order (a, then b).

    Only canonical labels build a factor: the base factor scaled by a, then
    moved by the translation row of b.  Each factor thus carries the first
    of its two labels in enumeration order.  The base edges are scaled only
    for an a with a canonical label, which in odd characteristic half of
    the a lack.  A q with more than MAX_EDGES edges is refused before
    building.
    """
    q = ctx.q
    edges = math.comb(q + 1, 3)
    if edges > MAX_EDGES:
        raise OutOfRangeError(f"q={q} has {edges} edges, above the cap {MAX_EDGES}")
    base = _base_points(ctx)
    shift = [_row(ctx, ctx.add, b) for b in range(q)]
    factors: list[OneFactor] = []
    for a in range(1, q):
        bs = [b for b in range(q) if canonical_label(ctx, a, b) == (a, b)]
        if bs:
            scaled = _moved(_row(ctx, ctx.mul, a), base)
            factors.extend(OneFactor((a, b), _moved(shift[b], scaled)) for b in bs)
    return Factorisation(ctx, factors)


class PartitionReport(namedtuple("PartitionReport", "total_edges expected_edges "
                                 "duplicates missing malformed not_one_factors")):
    """Edge counts, the faulty edges, and the factors that are not 1-factors."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (
            self.total_edges == self.expected_edges
            and not self.duplicates
            and not self.missing
            and not self.malformed
            and not self.not_one_factors
        )


def verify_partition(fact: Factorisation) -> PartitionReport:
    """Check each factor is a 1-factor and the factors partition all
    C(q+1, 3) triples exactly once.

    A factor whose points are not q+1 distinct points is listed in
    not_one_factors; with every edge in range, that leaves each point
    covered once.  Its points are read three at a time, so a count that is
    not a multiple of 3 drops the last one or two, which that check has
    already reported.  An edge that is not three points 0 <= a < b < c <= q
    of the line is reported as malformed, so it cannot stand in for a
    missing triple.  Triple (a, b, c) is the byte at its colex rank of one
    C(n, 3) array; other edges cover a new triple each.
    """
    n = fact.ctx.q + 1
    expected = math.comb(n, 3)
    high, mid = _colex(n)
    seen = bytearray(expected)
    duplicates = []
    malformed = []
    not_one_factors = []
    total = 0
    for i, f in enumerate(fact.factors):
        points = f.points
        if len(points) != n or len(set(points)) != n:
            not_one_factors.append(i)
        total += len(points) // 3
        for a, b, c in edges_of(points):
            if 0 <= a < b < c < n:
                k = high[c] + mid[b] + a
                if seen[k]:
                    duplicates.append((a, b, c))
                seen[k] = 1
            else:
                malformed.append((a, b, c))
    missing = []
    if total - len(duplicates) - len(malformed) != expected:
        for e in combinations(range(n), 3):
            if not seen[high[e[2]] + mid[e[1]] + e[0]]:
                missing.append(e)
                if len(missing) >= 10:
                    break
    return PartitionReport(total, expected, duplicates, missing, malformed,
                           not_one_factors)


# -- text dump -------------------------------------------------------------


def dumps_factorisation(fact: Factorisation, human: bool = False) -> str:
    """The factorisation in the line-oriented text format.

    Header, then one block per factor with its canonical label and edges as
    point indices.  The human variant prints infinity as "inf" instead of
    its index q.
    """
    ctx = fact.ctx
    lines = [f"q={ctx.q} p={ctx.p} l={ctx.l} "
             f"modulus={','.join(str(c) for c in ctx.modulus)}"]
    inf_text = "inf" if human else str(ctx.q)
    for idx, f in enumerate(fact.factors):
        a, b = f.label
        lines.append(f"factor {idx} alpha={ctx.element_str(a)} beta={ctx.element_str(b)}")
        for edge in f.edges:
            lines.append(" ".join(inf_text if v == ctx.q else str(v) for v in edge))
    return "\n".join(lines) + "\n"

