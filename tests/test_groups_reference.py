"""Subgroup closures on point-permutation keys against the Mobius closure.

reference_generate_subgroup is the earlier closure kept as the reference:
it multiplies and rescales 2x2 Mobius matrices.  The only change is that
it returns a ReferenceSubgroup without the generators, the order-3 count
and the point orbits.
generate_subgroup keys each element g by (g(0), g(1), g(inf)), which names
g uniquely because PGL(2,q) is sharply 3-transitive on the projective line;
so order, fullness and the mapped element set must agree on every input.
"""

from __future__ import annotations

from dataclasses import dataclass

from trifactor.groups import (
    CapExceededError,
    a4_pair_census,
    classify_subgroup,
    full_exit_threshold,
    generate_subgroup,
    psl_order,
)
from trifactor.projline import Mobius, base_map, identity_map, orbit_map
from trifactor.verifier import field_for


@dataclass
class ReferenceSubgroup:
    elements: frozenset[Mobius] | None
    order: int
    full_group: bool = False


def reference_generate_subgroup(
    ctx,
    gens: list[Mobius],
    cap: int = 250_000,
    stop_when_full: bool = False,
) -> ReferenceSubgroup:
    ident = identity_map(ctx)
    step = list(dict.fromkeys(list(gens) + [g.inverse() for g in gens]))
    seen = {ident}
    frontier = [ident]
    threshold = full_exit_threshold(ctx) if stop_when_full else None
    while frontier:
        nxt = []
        for h in frontier:
            for g in step:
                x = g.compose(h)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
                    if threshold is not None and len(seen) > threshold:
                        return ReferenceSubgroup(None, psl_order(ctx), full_group=True)
                    if len(seen) > cap:
                        raise CapExceededError(f"closure exceeded cap {cap}")
        frontier = nxt
    return ReferenceSubgroup(
        frozenset(seen), len(seen), full_group=len(seen) == psl_order(ctx)
    )


def key(m: Mobius) -> tuple[int, int, int]:
    return (m(0), m(1), m(m.ctx.q))


def order3_count(ctx, elements) -> int:
    ident = identity_map(ctx)
    return sum(1 for g in elements if g != ident and g.compose(g).compose(g) == ident)


def _nonbase_gens(factorisations, q):
    fact = factorisations(q)
    ctx = fact.ctx
    f = base_map(ctx)
    return ctx, [[f, orbit_map(ctx, *fac.label)] for fac in fact.factors[1:]]


def test_exact_and_early_exit_closures_match_reference(factorisations):
    for q in (5, 8, 11):
        ctx, pairs = _nonbase_gens(factorisations, q)
        for gens in pairs:
            ref = reference_generate_subgroup(ctx, gens)
            got = generate_subgroup(ctx, gens)
            assert (got.order, got.full_group) == (ref.order, ref.full_group)
            assert got.elements == {key(g) for g in ref.elements}
            ref = reference_generate_subgroup(ctx, gens, stop_when_full=True)
            got = generate_subgroup(ctx, gens, stop_when_full=True)
            assert (got.order, got.full_group) == (ref.order, ref.full_group)
            assert (got.elements is None) == (ref.elements is None)


def test_early_exit_agrees_with_exact_closure(factorisations):
    for q in (5, 8, 11, 17):
        ctx, pairs = _nonbase_gens(factorisations, q)
        for gens in pairs:
            early = generate_subgroup(ctx, gens, stop_when_full=True)
            exact = generate_subgroup(ctx, gens)
            assert early.full_group == exact.full_group, (q, gens)
            assert classify_subgroup(early, ctx) == classify_subgroup(exact, ctx)


def test_q11_census_unchanged(factorisations):
    assert a4_pair_census(factorisations(11))["a4_pair_count"] == 330


def test_cap_reached_at_the_same_size():
    ctx = field_for(11)
    gens = [base_map(ctx), orbit_map(ctx, 3, 4)]  # generates A5
    for cap, order in ((59, None), (60, 60)):
        for closure in (reference_generate_subgroup, generate_subgroup):
            try:
                assert closure(ctx, gens, cap=cap).order == order
            except CapExceededError:
                assert order is None
