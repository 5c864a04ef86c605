import itertools
import random

import pytest

from trifactor import projline
from trifactor.field import InvariantError, UsageError, field
from trifactor.projline import (
    Mobius,
    affine_map,
    base_map,
    orbit_map,
    point_str,
)


def test_base_map_conventions():
    ctx = field(5)
    f = base_map(ctx)
    inf = ctx.q
    assert f(1) == inf
    assert f(inf) == 0
    assert f(0) == 1


def test_identity_fixes_everything():
    ctx = field(2, 3)
    ident = Mobius(ctx, 1, 0, 0, 1)
    assert all(ident(x) == x for x in range(ctx.q + 1))


def test_apply_example_gf5():
    ctx = field(5)
    m = orbit_map(ctx, 2, 1)
    assert m(0) == 4  # 1 + 4/(3 - 0) = 1 + 4*2 = 4


def test_apply_is_bijective():
    for p, l in [(5, 1), (2, 3), (11, 1)]:
        ctx = field(p, l)
        rng = random.Random(p + l)
        for _ in range(20):
            entries = [rng.randrange(ctx.q) for _ in range(4)]
            try:
                m = Mobius(ctx, *entries)
            except ValueError:
                continue
            image = {m(x) for x in range(ctx.q + 1)}
            assert len(image) == ctx.q + 1


@pytest.mark.parametrize("p, l", [(5, 1), (11, 1), (41, 1), (2, 3), (2, 5), (3, 2),
                                  (5, 3)])
def test_permutation_matches_pointwise_evaluation(p, l):
    # permutation() is composed from field rows; __call__ is the definition
    ctx = field(p, l)
    q = ctx.q
    rng = random.Random(q)
    seen_c = set()
    for k in range(300):
        a, b, d = (rng.randrange(q) for _ in range(3))
        c = 0 if k % 3 == 0 else rng.randrange(q)
        try:
            m = Mobius(ctx, a, b, c, d)
        except ValueError:
            continue
        perm = m.permutation()
        assert perm == tuple(m(x) for x in range(q + 1)), m
        if m.c:
            pole = ctx.neg(ctx.div(m.d, m.c))
            assert perm[pole] == q and perm[q] == ctx.div(m.a, m.c)
        else:
            assert perm[q] == q
        seen_c.add(m.c == 0)
    assert seen_c == {True, False}


def test_base_map_is_one_shared_map_per_field():
    assert base_map(field(11)) is base_map(field(11))


def test_compose_inverse_identity():
    ctx = field(5)
    f = base_map(ctx)
    assert f.compose(f.inverse()) == Mobius(ctx, 1, 0, 0, 1)
    # the base map squares to its inverse (order 3)
    assert f.compose(f) == f.inverse()


def test_compose_matches_pointwise_application():
    ctx = field(11)
    rng = random.Random(11)
    maps = []
    while len(maps) < 6:
        entries = [rng.randrange(ctx.q) for _ in range(4)]
        try:
            maps.append(Mobius(ctx, *entries))
        except ValueError:
            pass
    for m1 in maps:
        for m2 in maps:
            comp = m1.compose(m2)
            for x in range(ctx.q + 1):
                assert comp(x) == m1(m2(x))
    # associativity on a random triple
    m1, m2, m3 = maps[:3]
    assert m1.compose(m2).compose(m3) == m1.compose(m2.compose(m3))


def test_scalar_multiples_are_the_same_map():
    ctx = field(11)
    m = Mobius(ctx, 2, 3, 5, 7)
    for lam in range(1, ctx.q):
        scaled = Mobius(
            ctx, ctx.mul(lam, 2), ctx.mul(lam, 3), ctx.mul(lam, 5), ctx.mul(lam, 7)
        )
        assert scaled == m and hash(scaled) == hash(m)


def test_orbit_map_label_one_zero_is_base_map():
    for p, l in [(5, 1), (2, 3), (11, 1)]:
        ctx = field(p, l)
        assert orbit_map(ctx, 1, 0) == base_map(ctx)


def test_orbit_map_refuses_a_map_that_is_not_the_conjugate(monkeypatch):
    # m o g = g o F fails once F is not the base map: here F is its inverse
    ctx = field(11)
    inverse = base_map(ctx).inverse()
    monkeypatch.setattr(projline, "base_map", lambda c: inverse)
    with pytest.raises(InvariantError, match="is not the conjugate of the base map"):
        orbit_map(ctx, 2, 3)


def test_orbit_map_special_values():
    ctx = field(11)
    rng = random.Random(0)
    inf = ctx.q
    for _ in range(25):
        a = rng.randrange(1, ctx.q)
        b = rng.randrange(ctx.q)
        m = orbit_map(ctx, a, b)
        assert m(ctx.add(a, b)) == inf
        assert m(inf) == b


def test_orbit_map_order_three_no_fixed_points():
    for p, l in [(2, 1), (5, 1), (2, 3), (11, 1)]:
        ctx = field(p, l)
        ident = Mobius(ctx, 1, 0, 0, 1)
        for a in range(1, ctx.q):
            for b in range(ctx.q):
                m = orbit_map(ctx, a, b)
                assert m != ident
                assert m.compose(m).compose(m) == ident
                assert all(m(x) != x for x in range(ctx.q + 1))


def test_orbit_map_gf5_example_order_and_fixed_points():
    ctx = field(5)
    m = orbit_map(ctx, 2, 1)
    assert m.compose(m).compose(m) == Mobius(ctx, 1, 0, 0, 1)
    assert all(m(x) != x for x in range(6))


@pytest.mark.parametrize("p,l", [(2, 1), (5, 1), (2, 3), (11, 1)])
def test_fixed_points_are_the_points_each_map_fixes(p, l):
    # every element of PGL(2, q), each once in canonical form
    ctx = field(p, l)
    maps = set()
    for a, b, c, d in itertools.product(range(ctx.q), repeat=4):
        if ctx.mul(a, d) != ctx.mul(b, c):
            maps.add(Mobius(ctx, a, b, c, d))
    assert len(maps) == (ctx.q + 1) * ctx.q * (ctx.q - 1)
    ident = Mobius(ctx, 1, 0, 0, 1)
    for m in maps - {ident}:
        assert m.fixed_points() == {x for x in range(ctx.q + 1) if m(x) == x}, m
    with pytest.raises(UsageError):
        ident.fixed_points()


def test_orbit_map_determinant_is_square():
    # the maps land in the special projective group
    ctx = field(11)
    for a in range(1, ctx.q):
        for b in range(ctx.q):
            m_a, m_b, m_c, m_d = orbit_map(ctx, a, b).entries
            assert ctx.is_square(ctx.sub(ctx.mul(m_a, m_d), ctx.mul(m_b, m_c)))


def test_alpha_zero_rejected():
    ctx = field(5)
    with pytest.raises(UsageError, match="affine scale must be nonzero"):
        affine_map(ctx, 0, 1)
    with pytest.raises(UsageError, match="label scale must be nonzero"):
        orbit_map(ctx, 0, 1)


def test_point_text_forms():
    ctx = field(2, 3)
    assert point_str(ctx, ctx.q) == "inf"
    assert point_str(ctx, 6) == "0,1,1"


def test_singular_matrix_rejected():
    ctx = field(5)
    with pytest.raises(ValueError):
        Mobius(ctx, 1, 2, 2, 4)
