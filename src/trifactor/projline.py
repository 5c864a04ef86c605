"""The projective line over GF(q) and its fractional linear maps.

Points are ints in [0, q]: a value x < q is the field element with that
encoding, and q itself is the point at infinity.  This dense indexing is
what the partition and sweep kernels key on.

A Mobius map is an invertible 2x2 matrix over the field, stored in a
canonical projective form (first nonzero entry scaled to 1) so that scalar
multiples compare and hash as the same map.
"""

from __future__ import annotations

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

    def permutation(self) -> tuple[int, ...]:
        """Image of every point, indexed 0..q (inf last); computed once."""
        if self._perm is None:
            self._perm = tuple(self(x) for x in range(self.ctx.q + 1))
        return self._perm


def invert(perm) -> tuple[int, ...]:
    """The inverse of a point permutation given as its list of images."""
    inv = [0] * len(perm)
    for x, y in enumerate(perm):
        inv[y] = x
    return tuple(inv)


def base_map(ctx: FiniteField) -> Mobius:
    """x -> 1/(1 - x): fixed-point-free of order 3 on the projective line."""
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
    q = 2 mod 3.
    """
    if a == 0:
        raise UsageError("label scale must be nonzero")
    s = ctx.add(ctx.mul(a, a), ctx.add(ctx.mul(a, b), ctx.mul(b, b)))
    m = Mobius(ctx, ctx.neg(b), s, ctx.neg(1), ctx.add(a, b))
    g = affine_map(ctx, a, b)
    if m != g.compose(base_map(ctx)).compose(g.inverse()):
        raise InvariantError(f"orbit map {m!r} is not the conjugate of the base map")
    return m

