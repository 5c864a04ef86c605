"""One-factors and the full 1-factorisation of K^3_{q+1}.

A one-factor with label (a, b) is the orbit partition of orbit_map(a, b):
triples {x, m(x), m^-1(x)} covering every point exactly once.  Since
orbit_map(a, b) = g o base o g^-1 with g the affine map x -> a x + b, that
partition is the base factor (the orbits of base_map) moved by g, infinity
fixed.  So the base factor's orbits are computed once and every other factor
is its affine image.  Labels (a, b) and (-a, a + b) give the same factor,
and canonical_label picks the lesser of the two, the first in enumeration
order; the q(q-1)/2 canonical labels (a in F*, b in F) name the distinct
factors, and every label is looked up through that one rule.  The build
computes the q translation rows x -> x + b once, as point lists, and
scales the base edges once for each a that has a canonical label; each
factor is then the scaled edges moved by one row.  A factor
stores its edges flat, as one array('I') of points, three an edge, so a
factorisation holds C(q+1, 3) edges without one tuple object each.
verify_partition checks independently that each factor covers every point
once and that they partition all triples, marking each in one byte array
indexed by the triple rather than keeping a set of C(q+1, 3) tuples.

PΓL(2,q) permutes the factors, and Factorisation.image gives that action
from a point permutation with O(1) field operations.
Factorisation.symmetry lists N, the stabiliser of the base factor, directly
as the products of its torus, x -> 1/x and Frobenius, with its orbits on
the factors.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field as dc_field
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .field import FiniteField, InvariantError, OutOfRangeError, UsageError, field
from .projline import Mobius, base_map, invert

Edge = tuple[int, int, int]
# A built edge holds ~16 bytes: three 4-byte points and its share of its
# factor's object, label and index entry.  Building and verifying q=227
# peaks at 58 MB resident (Python 3.11).  The cap keeps q=227 and refuses q=233.
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
    each edge sorted.
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


def _orbit_edges(perm: tuple[int, ...], n: int) -> array:
    """The 3-cycles of perm as flat edges, each sorted, by least point."""
    points = array("I")
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
    return points


@functools.cache
def _base_points(ctx: FiniteField) -> array:
    """The base factor's flat edges, computed once per field."""
    require_residue(ctx.q)
    return _orbit_edges(base_map(ctx).permutation(), ctx.q + 1)


def _moved(img: Sequence[int], points: Iterable[int]) -> array:
    """Flat edges moved by the point list img, each edge sorted, then the
    edges sorted, as flat points."""
    moved = edges_of(map(img.__getitem__, points))
    return array("I", chain.from_iterable(sorted(map(sorted, moved))))


def _row(ctx: FiniteField, op: Callable[[int, int], int], c: int) -> list[int]:
    """x -> op(c, x), ctx.mul or ctx.add, as a point list; infinity is fixed."""
    return [op(c, x) for x in range(ctx.q)] + [ctx.q]


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
    """All distinct one-factors, indexed by their canonical labels."""

    def __init__(self, ctx: FiniteField, factors: list[OneFactor]):
        self.ctx = ctx
        self.factors = factors
        self._index = {f.label: i for i, f in enumerate(factors)}

    def __len__(self):
        return len(self.factors)

    def __eq__(self, other):
        return (
            isinstance(other, Factorisation)
            and self.ctx.p == other.ctx.p
            and self.ctx.l == other.ctx.l
            and [f.points for f in self.factors] == [f.points for f in other.factors]
            and [f.label for f in self.factors] == [f.label for f in other.factors]
        )

    def index(self, a: int, b: int) -> int:
        """Index of the factor that label (a, b) or its twin names."""
        return self._index[canonical_label(self.ctx, a, b)]

    def factor(self, a: int, b: int) -> OneFactor:
        return self.factors[self.index(a, b)]

    @functools.cached_property
    def _partners(self) -> list[tuple[int, int]]:
        """The other two points of the base edge through each point."""
        partners = [(0, 0)] * (self.ctx.q + 1)
        for x, y, z in edges_of(_base_points(self.ctx)):
            partners[x], partners[y], partners[z] = (y, z), (x, z), (x, y)
        return partners

    def image(self, perm: tuple[int, ...], i: int) -> int:
        """Index of factor i moved by perm, the point permutation of an
        element of PΓL(2,q).

        Factor (c, d) is the base factor moved by x -> c x + d, so its edge
        through infinity is {inf, d, c + d}.  The image's edge through
        infinity is perm of factor i's edge through u = perm^-1(inf); with
        its other two points y, z the image is the factor (z - y, y).
        """
        ctx = self.ctx
        q = ctx.q
        a, b = self.factors[i].label
        u = perm.index(q)
        w = q if u == q else ctx.div(ctx.sub(u, b), a)  # base point under u
        v, x = self._partners[w]
        y = perm[q if v == q else ctx.add(ctx.mul(a, v), b)]
        z = perm[q if x == q else ctx.add(ctx.mul(a, x), b)]
        return self.index(ctx.sub(z, y), y)

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
        z, s = min((image(self.elements[s], y), s)
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


@dataclass
class PartitionReport:
    total_edges: int
    expected_edges: int
    duplicates: list[Edge] = dc_field(default_factory=list)
    missing: list[Edge] = dc_field(default_factory=list)
    malformed: list[Edge] = dc_field(default_factory=list)
    not_one_factors: list[int] = dc_field(default_factory=list)

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
    missing triple.  Triple (a, b, c) is byte high[a] + mid[b] + c of one
    n^3 array; an edge neither malformed nor a duplicate covers a new triple.
    """
    n = fact.ctx.q + 1
    expected = math.comb(n, 3)
    high = [a * n * n for a in range(n)]
    mid = [b * n for b in range(n)]
    seen = bytearray(n**3)
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
                k = high[a] + mid[b] + c
                if seen[k]:
                    duplicates.append((a, b, c))
                seen[k] = 1
            else:
                malformed.append((a, b, c))
    missing = []
    if total - len(duplicates) - len(malformed) != expected:
        for e in combinations(range(n), 3):
            if not seen[high[e[0]] + mid[e[1]] + e[2]]:
                missing.append(e)
                if len(missing) >= 10:
                    break
    return PartitionReport(total, expected, duplicates, missing, malformed,
                           not_one_factors)


# -- text dump / load ------------------------------------------------------


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


def load_factorisation(source: TextIO | str | Iterable[str]) -> Factorisation:
    """Check a dump against the construction, and return the construction.

    The header names the field.  The factor blocks must be the built
    factors in number and order, each with the same index, label and edge
    set.  Blank lines, "inf" for the index q, and the order of the points
    in a line and of the edges in a block are free.  Any other difference
    raises UsageError naming the header or the line.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise UsageError("empty dump")
    try:
        ctx = _header_field(lines[0])
    except ValueError as exc:
        raise UsageError(f"bad dump header {lines[0]!r}: {exc}") from None
    q = ctx.q
    fact = build_factorisation(ctx)

    blocks: list[tuple[str, int, tuple[int, int], list[Edge]]] = []
    for ln in lines[1:]:
        try:
            parts = ln.split()
            if parts[0] == "factor":
                if (len(parts) != 4 or not parts[2].startswith("alpha=")
                        or not parts[3].startswith("beta=")):
                    raise ValueError("expected factor INDEX alpha=A beta=B")
                label = (ctx.parse_element(parts[2][len("alpha="):]),
                         ctx.parse_element(parts[3][len("beta="):]))
                blocks.append((ln, int(parts[1]), label, []))
            elif not blocks:
                raise ValueError("edge before the first factor")
            elif len(parts) != 3:
                raise ValueError("an edge has three points")
            else:
                blocks[-1][3].append(
                    tuple(sorted(q if tok == "inf" else int(tok) for tok in parts))
                )
        except ValueError as exc:
            raise UsageError(f"bad dump line {ln!r}: {exc}") from None

    if len(blocks) != len(fact.factors):
        raise UsageError(f"dump has {len(blocks)} factors, "
                         f"the construction {len(fact.factors)}")
    for i, ((ln, idx, label, edges), f) in enumerate(zip(blocks, fact.factors)):
        if (idx, label) != (i, f.label):
            a, b = f.label
            raise UsageError(f"dump line {ln!r} is factor {i} "
                             f"alpha={ctx.element_str(a)} beta={ctx.element_str(b)} "
                             f"in the construction")
        if tuple(sorted(edges)) != f.edges:
            raise UsageError(f"edges under dump line {ln!r} differ from the "
                             f"construction's")
    return fact


def _header_field(line: str) -> FiniteField:
    header = {}
    for part in line.split():
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"{part!r} is not key=value")
        header[key] = value
    for key in ("q", "p", "l", "modulus"):
        if key not in header:
            raise ValueError(f"no {key}=")
    ctx = field(int(header["p"]), int(header["l"]))
    if int(header["q"]) != ctx.q:
        raise ValueError(f"q is not p^l={ctx.q}")
    if header["modulus"] != ",".join(str(c) for c in ctx.modulus):
        raise ValueError("modulus is not the canonical modulus")
    return ctx
