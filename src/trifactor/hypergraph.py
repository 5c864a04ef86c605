"""Analysis of unions of one-factors.

A union of 2 or 3 one-factors is a small 3-uniform hypergraph (every vertex
has degree = number of factors).  This module decides connectivity, counts
the pair overlap of two factors both combinatorially and via the
closed-form case analysis of the defining maps, searches for isomorphisms
between unions, and searches for Hamilton Berge cycles.  A union of k
factors on n vertices has k n / 3 edges, so a Berge cycle, which needs n
distinct edges, exists only in a 3-factor union and uses all of its edges;
the one Berge search handles exactly that case.  A union stores its edges
flat, as one array('I') of points, three an edge, like a one-factor; the
searches decode them into triples once per call.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field

from .field import FiniteField, InvariantError, UsageError
from .factorisation import Edge, OneFactor, canonical_label, edges_of
from .projline import base_map

DEFAULT_TIME_BUDGET = 10.0  # seconds per Hamilton Berge cycle search


class UnionHypergraph:
    """Edges of 2-3 one-factors on vertices 0..n-1, flat in points: three
    points an edge."""

    __slots__ = ("n", "points")

    def __init__(self, n: int, points: array):
        self.n = n
        self.points = points

    @property
    def edges(self) -> list[Edge]:
        """The edges as triples, decoded from points on each access."""
        return list(edges_of(self.points))

    def incidence(self) -> list[list[int]]:
        """Indices of the edges at each vertex, in edge order."""
        incidence: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                incidence[v].append(i)
        return incidence


def union_hypergraph(n: int, factors: list[OneFactor]) -> UnionHypergraph:
    """Concatenate the points of 2-3 pairwise distinct factors."""
    if not 2 <= len(factors) <= 3:
        raise ValueError("union takes 2 or 3 factors")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[i].points == factors[j].points:
                raise ValueError("factors must be distinct")
    points = factors[0].points + factors[1].points
    for f in factors[2:]:
        points += f.points
    return UnionHypergraph(n, points)


def _merge_edges(h: UnionHypergraph) -> tuple[list[int], int]:
    """Union-find parents after merging each edge's vertices, and the
    number of components."""
    parent = list(range(h.n))
    count = h.n
    for a, b, c in edges_of(h.points):
        # find each root, halving the path on the way
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        if b != a:
            parent[b] = a
            count -= 1
        if c != a and c != b:
            parent[c] = a
            count -= 1
    return parent, count


def is_connected(h: UnionHypergraph) -> bool:
    return _merge_edges(h)[1] == 1


def components(h: UnionHypergraph) -> list[list[int]]:
    """Vertex components, each sorted, ordered by smallest member."""
    parent = _merge_edges(h)[0]
    groups: dict[int, list[int]] = {}
    for v in range(h.n):
        root = v
        while parent[root] != root:
            root = parent[root]
        groups.setdefault(root, []).append(v)
    return sorted(groups.values())


# -- pair overlap ------------------------------------------------------------


@dataclass
class OverlapResult:
    """Repeated vertex pairs between two one-factors.

    When computed algebraically, direct_solutions and inverse_solutions list
    the points solving base(x) = m(x) and base^-1(x) = m(x); the overlap
    count is the sum of their sizes.
    """

    count: int
    repeated_pairs: list[tuple[int, int]]
    direct_solutions: list[int] | None = None
    inverse_solutions: list[int] | None = None


def pair_overlap(f1: OneFactor, f2: OneFactor) -> OverlapResult:
    """Count vertex pairs covered by an edge of each factor (combinatorial).

    block[v] is the index of the f1 edge holding v; a pair of an f2 edge is
    repeated when both its points fall in one block.
    """
    if f1.points == f2.points:
        raise ValueError("pair overlap needs two distinct factors")
    block = [0] * len(f1.points)
    for i, (x, y, z) in enumerate(edges_of(f1.points)):
        block[x] = block[y] = block[z] = i
    common = []
    for x, y, z in edges_of(f2.points):
        if block[x] == block[y]:
            common.append((x, y))
        if block[x] == block[z]:
            common.append((x, z))
        if block[y] == block[z]:
            common.append((y, z))
    return OverlapResult(len(common), sorted(common))


def pair_overlap_algebraic(ctx: FiniteField, a: int, b: int) -> OverlapResult:
    """Overlap of the base factor with factor (a, b) by case analysis.

    Splits on b = 0 / b = 1 / a + b = 1 / a + b = 0 exactly as the solution
    tables for base(x) = m(x) and base^-1(x) = m(x) dictate, falling back to
    the two quadratics in the general case.  Must agree with pair_overlap.
    """
    if a == 0:
        raise UsageError("label scale must be nonzero")
    if canonical_label(ctx, a, b) == (1, 0):
        raise UsageError("label denotes the base factor")
    one = 1
    neg1 = ctx.neg(1)
    inf = ctx.q
    s = ctx.add(ctx.mul(a, a), ctx.add(ctx.mul(a, b), ctx.mul(b, b)))  # a^2 + ab + b^2

    # base(x) = m(x)
    if b == 0:
        if a == neg1:
            direct = {inf}
        else:
            direct = {inf, ctx.div(a, ctx.add(one, a))}
    elif ctx.add(a, b) == one:
        direct = {one, ctx.neg(a)}
    else:
        coef_b = ctx.neg(ctx.sub(ctx.add(s, b), one))
        coef_c = ctx.sub(s, ctx.add(a, b))
        direct = ctx.solve_quadratic(b, coef_b, coef_c)

    # base^-1(x) = m(x)
    if b == one:
        if a == one:
            inverse = {inf}
        else:
            inverse = {inf, ctx.inv(ctx.sub(one, a))}
    elif ctx.add(a, b) == 0:
        inverse = {0, ctx.sub(one, a)}
    else:
        coef_a = ctx.sub(one, b)
        coef_b = ctx.sub(s, ctx.add(ctx.add(a, b), one))
        coef_c = ctx.add(a, b)
        inverse = ctx.solve_quadratic(coef_a, coef_b, coef_c)

    f = base_map(ctx)
    f_inv = f.inverse()
    pairs = [tuple(sorted((x, f(x)))) for x in direct]
    pairs += [tuple(sorted((x, f_inv(x)))) for x in inverse]
    if len(set(pairs)) != len(pairs):
        raise InvariantError(f"label ({a}, {b}): a repeated pair is counted twice")
    return OverlapResult(
        len(direct) + len(inverse),
        sorted(set(pairs)),
        sorted(direct),
        sorted(inverse),
    )


# -- isomorphism -------------------------------------------------------------


def _pair_degrees(h: UnionHypergraph) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for x, y, z in edges_of(h.points):
        for pair in ((x, y), (x, z), (y, z)):
            out[pair] = out.get(pair, 0) + 1
    return out


def find_isomorphism(h1: UnionHypergraph, h2: UnionHypergraph) -> list[int] | None:
    """A vertex bijection mapping edges of h1 onto edges of h2, or None.

    Backtracking over vertex images, pruned by degree, by pair-cover counts
    against already-mapped vertices, and by full-edge membership once an
    edge's vertices are all placed.  Exact; intended for n <= 33.
    """
    if h1.n != h2.n:
        raise ValueError(f"vertex counts differ: {h1.n} != {h2.n}")
    if len(h1.points) != len(h2.points):
        return None
    edges1 = h1.edges
    inc1 = h1.incidence()
    deg1 = [len(inc) for inc in inc1]
    deg2 = [len(inc) for inc in h2.incidence()]
    if sorted(deg1) != sorted(deg2):
        return None
    if sorted(len(c) for c in components(h1)) != sorted(
        len(c) for c in components(h2)
    ):
        return None
    pd1 = _pair_degrees(h1)
    pd2 = _pair_degrees(h2)
    if sorted(pd1.values()) != sorted(pd2.values()):
        return None

    n = h1.n
    edge_multiset1 = Counter(edges1)
    edge_multiset2 = Counter(h2.edges)

    # order vertices of h1 so each new vertex touches mapped ones when possible
    order: list[int] = []
    placed = [False] * n
    for start in sorted(range(n), key=lambda v: -deg1[v]):
        if placed[start]:
            continue
        queue = [start]
        placed[start] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            for ei in inc1[v]:
                for w in edges1[ei]:
                    if not placed[w]:
                        placed[w] = True
                        queue.append(w)

    mapping = [-1] * n
    used = [False] * n

    def pair_key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def feasible(v: int, w: int) -> bool:
        if deg1[v] != deg2[w]:
            return False
        for u in order:
            mu = mapping[u]
            if mu < 0 or u == v:
                continue
            c1 = pd1.get(pair_key(u, v), 0)
            c2 = pd2.get(pair_key(mu, w), 0)
            if c1 != c2:
                return False
        # any fully-mapped edge must land on an edge of h2 with same multiplicity
        for ei in inc1[v]:
            e = edges1[ei]
            if all(mapping[x] >= 0 or x == v for x in e):
                img = tuple(sorted(w if x == v else mapping[x] for x in e))
                if edge_multiset2[img] != edge_multiset1[e]:
                    return False
        return True

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or not feasible(v, w):
                continue
            mapping[v] = w
            used[w] = True
            if extend(i + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    if extend(0):
        return mapping
    return None


def apply_isomorphism(h: UnionHypergraph, mapping: list[int]) -> list[Edge]:
    """Image of h's edges under a vertex mapping, sorted: a multiset to replay."""
    return sorted(tuple(sorted(e)) for e in edges_of(map(mapping.__getitem__, h.points)))


# -- Hamilton Berge cycles ---------------------------------------------------


@dataclass
class BergeSearchResult:
    """Outcome of a Hamilton Berge cycle search.

    status is "found", "none" or "timeout"; a timeout is not a
    counterexample.  On success vertices[i] and vertices[i+1] both lie in
    edges[i], with the last edge closing back to vertices[0].  nodes counts
    the search nodes visited, a deterministic measure of the work done.
    """

    status: str
    vertices: list[int] = dc_field(default_factory=list)
    edge_indices: list[int] = dc_field(default_factory=list)
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"


def _cycle_by_leftout(h: UnionHypergraph, deadline: float) -> BergeSearchResult:
    """Hamilton Berge cycle search for the exact case (n edges, n vertices).

    A Hamilton Berge cycle here uses every edge once, each edge hosting one
    consecutive vertex pair and leaving out its third vertex.  Summing
    degrees, every vertex is left out by exactly one of its incident edges:
    the left-out map is a bijection between edges and vertices, and the
    hosted pairs must form a single n-cycle.  Search over left-out choices,
    always branching on the edge with the fewest valid choices (index
    tie-break, so deterministic), growing the pair graph as disjoint paths;
    a cycle may close only on the last edge, and the 2-regularity count
    then forces it to be Hamiltonian.
    """
    n = h.n
    # each edge's left-out choices (u, s, t): u left out, s-t hosted
    options = [((a, b, c), (b, a, c), (c, a, b)) for a, b, c in edges_of(h.points)]
    m = len(options)
    free = list(range(m))  # unassigned edges, in index order
    vertex_out = [False] * n
    cover = [0] * n
    # endpoint pairing of the disjoint paths in the pair graph; end[v] is
    # meaningful only while v is a path endpoint (cover 0 or 1)
    end = list(range(n))
    pair_of: list[tuple[int, int] | None] = [None] * m
    ticks = 0
    timed_out = False

    def dfs(done: int) -> bool:
        nonlocal ticks, timed_out
        ticks += 1
        if ticks & 0x3FF == 0 and time.monotonic() > deadline:
            timed_out = True
            return False
        if done == m:
            return True
        last = done == m - 1
        # branch on the edge with the fewest valid choices, the lowest index
        # on ties; a choice is invalid if its vertex is already left out, a
        # hosted vertex is covered twice, or it would close a short cycle
        best_pos = -1
        best_count = 4
        for pos, ei in enumerate(free):
            count = 0
            for u, s, t in options[ei]:
                if not (vertex_out[u] or cover[s] > 1 or cover[t] > 1
                        or (end[s] == t and not last)):
                    count += 1
            if not count:
                return False
            if count < best_count:
                best_pos, best_count = pos, count
                if count == 1:
                    break
        ei = free.pop(best_pos)
        best = [
            (u, s, t)
            for u, s, t in options[ei]
            if not (vertex_out[u] or cover[s] > 1 or cover[t] > 1
                    or (end[s] == t and not last))
        ]
        for u, s, t in best:
            es, et = end[s], end[t]
            vertex_out[u] = True
            cover[s] += 1
            cover[t] += 1
            end[es], end[et] = et, es
            pair_of[ei] = (s, t)
            if dfs(done + 1):
                return True
            pair_of[ei] = None
            end[es], end[et] = s, t
            cover[s] -= 1
            cover[t] -= 1
            vertex_out[u] = False
            if timed_out:
                break
        free.insert(best_pos, ei)
        return False

    if not dfs(0):
        return BergeSearchResult("timeout" if timed_out else "none", nodes=ticks)

    # walk the cycle from vertex 0 to emit the witness
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ei, pair in enumerate(pair_of):
        s, t = pair  # type: ignore[misc]
        adj[s].append((t, ei))
        adj[t].append((s, ei))
    vertices = [0]
    edge_seq = []
    prev_edge = -1
    v = 0
    for _ in range(n):
        nxt, ei = min((w, ei) for w, ei in adj[v] if ei != prev_edge)
        edge_seq.append(ei)
        if len(vertices) < n:
            vertices.append(nxt)
        v, prev_edge = nxt, ei
    return BergeSearchResult("found", vertices, edge_seq, ticks)


def find_hamilton_berge_cycle(
    h: UnionHypergraph, time_budget: float = DEFAULT_TIME_BUDGET
) -> BergeSearchResult:
    """Search for a Berge cycle through every vertex.

    The cycle needs n distinct vertices and n distinct edges, so fewer than
    n edges means there is none.  A 3-factor union has exactly n edges,
    which the left-out-bijection search covers; more edges than vertices
    never arise from unions of factors and are rejected.  The search is
    deterministic; a timeout is reported as its own outcome, distinct from
    an exhausted search.
    """
    n = h.n
    m = len(h.points) // 3
    if m > n:
        raise ValueError(f"{m} edges on {n} vertices: the search needs m <= n")
    if m < n:
        return BergeSearchResult("none")
    return _cycle_by_leftout(h, time.monotonic() + time_budget)


def validate_berge_cycle(h: UnionHypergraph, result: BergeSearchResult) -> bool:
    """Replay a witness: distinct vertices and edges, incidences hold."""
    if not result.found:
        return False
    vs, es = result.vertices, result.edge_indices
    edges = h.edges
    if len(vs) != h.n or len(set(vs)) != h.n:
        return False
    if len(es) != h.n or len(set(es)) != h.n:
        return False
    if not set(es).issubset(range(len(edges))):
        return False
    for i, ei in enumerate(es):
        a = vs[i]
        b = vs[(i + 1) % h.n]
        if a not in edges[ei] or b not in edges[ei]:
            return False
    return True
