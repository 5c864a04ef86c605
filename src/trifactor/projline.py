"""The projective line over GF(q) and its fractional linear maps.

Points are ints in [0, q]: a value x < q is the field element with that
encoding, and q itself is the point at infinity.  This dense indexing is
what the partition and sweep kernels key on.

A Mobius map is an invertible 2x2 matrix over the field, stored in a
canonical projective form (first nonzero entry scaled to 1) so that scalar
multiples compare and hash as the same map.  Its point permutation is
composed from rows x -> k x, x -> x + t (infinity fixed) and x -> 1/x, point
lists that each field builds once on first use, not by evaluating the map.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from .field import FiniteField, InvariantError, UsageError


def point_str(ctx: FiniteField, x: int) -> str:
    return "inf" if x == ctx.q else ctx.element_str(x)


class Mobius:
    """x -> (a x + b) / (c x + d) on GF(q) + {inf}, in canonical form.

    Conventions at infinity: inf maps to a/c when c != 0 and to inf
    otherwise; a finite pole (zero denominator) maps to inf.  Invertibility
    rules out 0/0.
    """

    __slots__ = ("ctx", "a", "b", "c", "d", "_perm")

    def __init__(self, ctx: FiniteField, a: int, b: int, c: int, d: int):
        det = ctx.sub(ctx.mul(a, d), ctx.mul(b, c))
        if det == 0:
            raise ValueError("matrix is singular")
        for entry in (a, b, c, d):
            if entry:
                scale = ctx.inv(entry)
                break
        self.ctx = ctx
        self.a = ctx.mul(scale, a)
        self.b = ctx.mul(scale, b)
        self.c = ctx.mul(scale, c)
        self.d = ctx.mul(scale, d)
        self._perm = None

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return (
            isinstance(other, Mobius)
            and self.ctx is other.ctx
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Mobius{self.entries}"

    def __call__(self, x: int) -> int:
        ctx = self.ctx
        if x == ctx.q:
            if self.c == 0:
                return ctx.q
            return ctx.div(self.a, self.c)
        den = ctx.add(ctx.mul(self.c, x), self.d)
        if den == 0:
            return ctx.q
        num = ctx.add(ctx.mul(self.a, x), self.b)
        return ctx.div(num, den)

    def compose(self, other: "Mobius") -> "Mobius":
        """Matrix product; (m1.compose(m2))(x) == m1(m2(x))."""
        ctx = self.ctx
        a1, b1, c1, d1 = self.entries
        a2, b2, c2, d2 = other.entries
        return Mobius(
            ctx,
            ctx.add(ctx.mul(a1, a2), ctx.mul(b1, c2)),
            ctx.add(ctx.mul(a1, b2), ctx.mul(b1, d2)),
            ctx.add(ctx.mul(c1, a2), ctx.mul(d1, c2)),
            ctx.add(ctx.mul(c1, b2), ctx.mul(d1, d2)),
        )

    def inverse(self) -> "Mobius":
        ctx = self.ctx
        return Mobius(ctx, self.d, ctx.neg(self.b), ctx.neg(self.c), self.a)

    def fixed_points(self) -> set[int]:
        """The points with m(x) = x: the roots of c x^2 + (d - a) x - b, and
        infinity when c = 0.  The identity, which fixes them all, is a
        UsageError."""
        ctx = self.ctx
        roots = ctx.solve_quadratic(self.c, ctx.sub(self.d, self.a), ctx.neg(self.b))
        return roots | {ctx.q} if self.c == 0 else roots

    def permutation(self) -> tuple[int, ...]:
        """Image of every point, indexed 0..q (inf last); computed once from
        rows: x -> (a/d) x + b/d when c = 0, else x -> a/c + k/(c x + d) with
        k = (b c - a d)/c, sending -d/c to infinity and infinity to a/c."""
        if self._perm is None:
            ctx, a, b, c, d = self.ctx, *self.entries
            mul, add, div = ctx.mul, ctx.add, ctx.div
            if c == 0:
                shift = _shared_row(ctx, add, div(b, d))
                perm = [shift[x] for x in _shared_row(ctx, mul, div(a, d))]
            else:
                k = div(ctx.sub(mul(b, c), mul(a, d)), c)
                shift, recip = _shared_row(ctx, add, div(a, c)), _reciprocal(ctx)
                scale, den = _shared_row(ctx, mul, k), _shared_row(ctx, add, d)
                perm = [shift[scale[recip[den[x]]]] for x in _shared_row(ctx, mul, c)]
            self._perm = tuple(perm)
        return self._perm


def _row(ctx: FiniteField, op: Callable[[int, int], int], c: int) -> list[int]:
    """x -> op(c, x), ctx.mul or ctx.add, as a point list; infinity is fixed."""
    return [op(c, x) for x in range(ctx.q)] + [ctx.q]


_shared_row = functools.cache(_row)


@functools.cache
def _reciprocal(ctx: FiniteField) -> list[int]:
    """x -> 1/x as a point list: 0 and infinity swap."""
    return [ctx.q] + [ctx.inv(x) for x in range(1, ctx.q)] + [0]


def invert(perm) -> tuple[int, ...]:
    """The inverse of a point permutation given as its list of images."""
    inv = [0] * len(perm)
    for x, y in enumerate(perm):
        inv[y] = x
    return tuple(inv)


@functools.cache
def base_map(ctx: FiniteField) -> Mobius:
    """x -> 1/(1 - x), one per field: fixed-point-free of order 3 on the line."""
    return Mobius(ctx, 0, 1, ctx.neg(1), 1)


def affine_map(ctx: FiniteField, a: int, b: int) -> Mobius:
    """x -> a x + b, the stabiliser of infinity."""
    if a == 0:
        raise UsageError("affine scale must be nonzero")
    return Mobius(ctx, a, b, 0, 1)


def orbit_map(ctx: FiniteField, a: int, b: int) -> Mobius:
    """The affine conjugate of the base map with label (a, b).

    Closed form x -> b + a^2/(a + b - x); like the base map it has order 3
    and no fixed points, so its orbits partition the line into triples when
    q = 2 mod 3.  Checked as m o g = g o F, g the label's affine map.
    """
    if a == 0:
        raise UsageError("label scale must be nonzero")
    s = ctx.add(ctx.mul(a, a), ctx.add(ctx.mul(a, b), ctx.mul(b, b)))
    m = Mobius(ctx, ctx.neg(b), s, ctx.neg(1), ctx.add(a, b))
    g = affine_map(ctx, a, b)
    if m.compose(g) != g.compose(base_map(ctx)):
        raise InvariantError(f"orbit map {m!r} is not the conjugate of the base map")
    return m

