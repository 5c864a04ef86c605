"""Subgroups of the projective linear group generated by orbit maps.

The closure of a generator set is computed breadth-first on point
permutations, each element keyed by its images of 0, 1 and infinity, and
stepped by the generators alone: in a finite group every inverse is a
positive power.  Since the relevant subgroups are tiny (orders 3, 12, 24,
60, plus subfield copies) compared to the full group, classification
mostly needs an early exit: once the closure outgrows every proper
possibility it must be the whole group, and the exact order follows from
the group-order formula rather than from enumeration.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .factorisation import Factorisation
from .field import FiniteField, InvariantError, OutOfRangeError, is_prime
from .projline import Mobius, orbit_map


CLOSURE_CAP = 250_000
CENSUS_MAX_Q = 29


def psl_order(ctx: FiniteField) -> int:
    q = ctx.q
    return q * (q * q - 1) // gcd(2, q - 1)


def full_exit_threshold(ctx: FiniteField) -> int:
    """Largest proper-subgroup order to rule out before declaring fullness.

    Valid for subgroups generated by conjugates of the base map, which
    carry at least four order-3 elements: that excludes the dihedral and
    point-stabiliser families (their order-3 supply is too small when
    q = 2 mod 3), leaving A4, A5 and projective groups over subfields (S4's
    order-3 elements all lie in its A4).
    """
    p, l = ctx.p, ctx.l
    bound = 60
    for r in range(1, l):
        if l % r == 0:
            qq = p**r
            bound = max(bound, qq * (qq * qq - 1))
    return bound


class GeneratedSubgroup(namedtuple("GeneratedSubgroup", "elements order full_group",
                                   defaults=(False,))):
    """A closure; each element is keyed by its images of 0, 1 and infinity.

    PGL(2,q) is sharply 3-transitive on the projective line, so the key
    (g(0), g(1), g(inf)) names exactly one element g.  elements is a
    frozenset of those keys, or None after an early exit.
    """

    __slots__ = ()


def _steps(gens: list[Mobius]) -> list[tuple[int, ...]]:
    """Point permutations of the generators, deduplicated.  In a finite
    group g^-1 = g^(k-1) for g of order k, so products of these alone reach
    every element, and images under them every point of an orbit."""
    return list(dict.fromkeys(g.permutation() for g in gens))


def is_transitive(ctx: FiniteField, gens: list[Mobius]) -> bool:
    """Single orbit on the projective line: the orbit of infinity, grown by
    the generators alone (see _steps); needs no subgroup closure."""
    n = ctx.q + 1
    steps = _steps(gens)
    seen = [False] * n
    seen[n - 1] = True  # start from infinity
    frontier = [n - 1]
    count = 1
    while frontier:
        nxt = []
        for x in frontier:
            for s in steps:
                y = s[x]
                if not seen[y]:
                    seen[y] = True
                    count += 1
                    nxt.append(y)
        frontier = nxt
    return count == n


def generate_subgroup(
    ctx: FiniteField,
    gens: list[Mobius],
    stop_when_full: bool = False,
) -> GeneratedSubgroup:
    """Breadth-first closure of gens under composition.

    Works on keys (g(0), g(1), g(inf)): composing a generator permutation s
    on the left sends key (a, b, c) to (s[a], s[b], s[c]); the generators
    alone step, not their inverses (see _steps).  With
    stop_when_full, the search stops as soon as the closure exceeds
    full_exit_threshold and reports the whole group with its order given by
    the order formula; this is only sound for generators that are
    conjugates of the base map.  Exact closures beyond CLOSURE_CAP raise
    OutOfRangeError.
    """
    cap = CLOSURE_CAP
    steps = _steps(gens)
    ident = (0, 1, ctx.q)
    seen = {ident}
    frontier = [ident]
    threshold = full_exit_threshold(ctx) if stop_when_full else None
    while frontier:
        nxt = []
        for a, b, c in frontier:
            for s in steps:
                x = (s[a], s[b], s[c])
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
                    if threshold is not None and len(seen) > threshold:
                        return GeneratedSubgroup(None, psl_order(ctx), full_group=True)
                    if len(seen) > cap:
                        raise OutOfRangeError(f"closure exceeded cap {cap}")
        frontier = nxt
    return GeneratedSubgroup(
        frozenset(seen), len(seen), full_group=len(seen) == psl_order(ctx)
    )


class SubgroupClass(namedtuple("SubgroupClass", "tag order")):
    """tag is C3, A4, A5, FullPSL or Other."""

    __slots__ = ()


def classify_subgroup(group: GeneratedSubgroup, ctx: FiniteField) -> SubgroupClass:
    """Order-based classification, valid for closures of base-map conjugates.

    For odd prime q the possible proper closures are exactly A4 and A5, so
    the order pins the type; everything larger is the whole group.  Order
    24 never occurs: S4's order-3 elements lie in its A4, D24's in one C3.
    For proper prime powers, subfield groups can appear and come back as
    Other with their order.
    """
    if group.full_group:
        return SubgroupClass("FullPSL", psl_order(ctx))
    order = group.order
    tags = {3: "C3", 12: "A4", 60: "A5"}
    if order in tags:
        return SubgroupClass(tags[order], order)
    return SubgroupClass("Other", order)


def a4_pair_census(fact: Factorisation) -> dict:
    """Count unordered factor pairs whose two orbit maps lie in a common A4.

    The generated subgroup of such a pair has order 12.  Also reports the
    group-theoretic count of A4 copies, q(q^2-1)/24, for display.  Odd
    prime q up to CENSUS_MAX_Q only.

    Only the nf - 1 pairs {0, j} are closed.  orbit_map checks that factor
    i's map m_i is g_i m_0 g_i^-1, where g_i is the affine map of i's label.
    Conjugating by g_i sends the pairs {0, j} one-to-one onto the pairs
    {i, j'} (a twin label gives the inverse map, which generates the same
    closure) and keeps each closure's order.  So every factor has the same
    number c0 of A4 partners, nf * c0 counts every unordered pair twice,
    and an odd product is an InvariantError.
    """
    ctx = fact.ctx
    q = ctx.q
    if not (is_prime(q) and q % 2 == 1 and q <= CENSUS_MAX_Q):
        raise OutOfRangeError(f"census supports odd primes <= {CENSUS_MAX_Q}, got {q}")
    base, *others = [orbit_map(ctx, *f.label) for f in fact.factors]
    c0 = sum(generate_subgroup(ctx, [base, m], stop_when_full=True).order == 12
             for m in others)
    count, odd = divmod(len(fact.factors) * c0, 2)
    if odd:
        raise InvariantError(f"{len(fact.factors)} factors times {c0} A4 partners is odd")
    return {
        "a4_pair_count": count,
        "expected_copies": q * (q * q - 1) // 24,
    }
