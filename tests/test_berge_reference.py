"""The Berge search kernel against the search it replaced.

reference_cycle_by_leftout is the earlier kernel kept as the reference: it
calls choices() for every unassigned edge at every node.  The only change
is that its results carry the node count.  The kernel must visit the same
search tree, so status, witness and node count must agree on every input,
including the node at which an expired deadline stops the search.
"""

import itertools
import random
import time
from array import array

from trifactor.factorisation import build_one_factor
from trifactor.field import field
from trifactor.hypergraph import (
    BergeSearchResult,
    UnionHypergraph,
    _cycle_by_leftout,
    is_connected,
    union_hypergraph,
)


def reference_cycle_by_leftout(h: UnionHypergraph, deadline: float) -> BergeSearchResult:
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
    edges = h.edges
    m = len(edges)

    assigned = [False] * m
    vertex_out = [False] * n
    cover = [0] * n
    # endpoint pairing of the disjoint paths in the pair graph; end[v] is
    # meaningful only while v is a path endpoint (cover 0 or 1)
    end = list(range(n))
    pair_of: list[tuple[int, int] | None] = [None] * m
    ticks = 0
    timed_out = False

    def choices(ei: int, last: bool) -> list[tuple[int, int, int]]:
        out = []
        e = edges[ei]
        for u in e:
            if vertex_out[u]:
                continue
            s, t = (x for x in e if x != u)
            if cover[s] > 1 or cover[t] > 1:
                continue
            if end[s] == t and not last:
                continue  # would close a short cycle
            out.append((u, s, t))
        return out

    def dfs(done: int) -> bool:
        nonlocal ticks, timed_out
        ticks += 1
        if ticks & 0x3FF == 0 and time.monotonic() > deadline:
            timed_out = True
            return False
        if done == m:
            return True
        last = done == m - 1
        best_ei = -1
        best: list[tuple[int, int, int]] = []
        for ei in range(m):
            if assigned[ei]:
                continue
            cand = choices(ei, last)
            if not cand:
                return False
            if best_ei < 0 or len(cand) < len(best):
                best_ei, best = ei, cand
                if len(cand) == 1:
                    break
        assigned[best_ei] = True
        for u, s, t in best:
            es, et = end[s], end[t]
            vertex_out[u] = True
            cover[s] += 1
            cover[t] += 1
            end[es], end[et] = et, es
            pair_of[best_ei] = (s, t)
            if dfs(done + 1):
                return True
            pair_of[best_ei] = None
            end[es], end[et] = s, t
            cover[s] -= 1
            cover[t] -= 1
            vertex_out[u] = False
            if timed_out:
                break
        assigned[best_ei] = False
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


def _outcome(r: BergeSearchResult):
    return r.status, r.vertices, r.edge_indices, r.nodes


def _assert_same(hs, budget=60.0):
    statuses = []
    for h in hs:
        deadline = time.monotonic() + budget
        want = reference_cycle_by_leftout(h, deadline)
        got = _cycle_by_leftout(h, deadline)
        assert _outcome(got) == _outcome(want), h.edges
        statuses.append(got.status)
    return statuses


def _unions(fact, triples):
    n = fact.ctx.q + 1
    return [union_hypergraph(n, [fact.factors[i] for i in t]) for t in triples]


def test_every_q8_triple(factorisations):
    fact = factorisations(8)
    triples = itertools.combinations(range(len(fact.factors)), 3)
    assert set(_assert_same(_unions(fact, triples))) == {"found"}


def test_seeded_q11_triples(factorisations):
    fact = factorisations(11)
    rng = random.Random(11)
    triples = [rng.sample(range(len(fact.factors)), 3) for _ in range(1500)]
    assert set(_assert_same(_unions(fact, triples))) == {"found"}


def test_q17_reduced_triples_with_disconnected(factorisations):
    fact = factorisations(17)
    rng = random.Random(17)
    pairs = list(itertools.combinations(range(1, len(fact.factors)), 2))
    hs = _unions(fact, [(0, i, j) for i, j in rng.sample(pairs, 1500)])
    statuses = _assert_same(hs)
    disconnected = [s for h, s in zip(hs, statuses) if not is_connected(h)]
    assert disconnected and set(disconnected) == {"none"}
    assert "found" in statuses


def test_q125_subfield_triple():
    ctx = field(5, 3)
    h = union_hypergraph(126, [build_one_factor(ctx, a, 0) for a in (1, 2, 3)])
    assert _assert_same([h]) == ["none"]


def _partition_union(rng, n, offset=0):
    """Flat edges of three random partitions of offset..offset+n-1 into triples."""
    points = array("I")
    for _ in range(3):
        vs = list(range(offset, offset + n))
        rng.shuffle(vs)
        for i in range(0, n, 3):
            points.extend(sorted(vs[i : i + 3]))
    return points


def _random_hypergraph(rng, n):
    points = array("I")
    for _ in range(n):
        points.extend(sorted(rng.sample(range(n), 3)))
    return UnionHypergraph(n, points)


def test_unions_of_random_partitions():
    rng = random.Random(3)
    hs = [UnionHypergraph(n, _partition_union(rng, n))
          for n in [3, 6, 9] * 20 + [12, 15, 30, 60] * 40]
    statuses = _assert_same(hs)
    assert statuses.count("found") > len(hs) // 2 and "none" in statuses


def test_random_hypergraphs_backtrack():
    rng = random.Random(5)
    hs = [_random_hypergraph(rng, n) for n in [4, 5, 7, 10, 16, 25] * 100]
    statuses = _assert_same(hs)
    assert statuses.count("none") > len(hs) // 2 and "found" in statuses


def test_expired_deadline_stops_at_the_same_node():
    # two disjoint partition unions: no cycle, and past 15 vertices a
    # component the exhaustive search usually needs more than 1024 nodes,
    # where the deadline is first read
    rng = random.Random(7)
    hs = [UnionHypergraph(2 * n, _partition_union(rng, n)
                          + _partition_union(rng, n, n))
          for n in [12, 15, 18] * 8]
    hs += [_random_hypergraph(rng, n) for n in [10, 25] * 10]
    statuses = _assert_same(hs, budget=-1.0)
    assert {"timeout", "none"} <= set(statuses)
