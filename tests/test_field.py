import hashlib
import random

import pytest

from trifactor.field import (
    FiniteField,
    InvariantError,
    OutOfRangeError,
    UsageError,
    field,
)


def brute_irreducible_cubics(p):
    """Independent oracle: monic cubics with no root are irreducible."""
    out = []
    for low in range(p**3):
        c0 = low % p
        c1 = (low // p) % p
        c2 = (low // p**2) % p
        if all((x**3 + c2 * x**2 + c1 * x + c0) % p != 0 for x in range(p)):
            out.append((c0, c1, c2, 1))
    return out


def test_modulus_prime_field_is_x():
    assert field(2).modulus == (0, 1)
    assert field(5).modulus == (0, 1)


def test_modulus_gf8():
    # first irreducible cubic over GF(2) in encoding order is x^3 + x + 1
    assert field(2, 3).modulus == (1, 1, 0, 1)
    assert field(2, 3).modulus == brute_irreducible_cubics(2)[0]


def test_modulus_gf125_matches_enumeration_oracle():
    assert field(5, 3).modulus == brute_irreducible_cubics(5)[0]


def test_modulus_is_irreducible_by_root_absence():
    # degree <= 3 moduli: irreducible iff rootless
    for p, l in [(2, 3), (5, 3), (2, 2), (3, 2)]:
        ctx = field(p, l)
        mod = ctx.modulus
        for x in range(p):
            val = sum(c * x**i for i, c in enumerate(mod)) % p
            assert val != 0


def test_constructor_errors():
    with pytest.raises(UsageError, match="is not prime"):
        FiniteField(4, 1)
    with pytest.raises(UsageError, match="is not prime"):
        FiniteField(1, 3)
    with pytest.raises(UsageError, match="must be >= 1"):
        FiniteField(2, 0)
    with pytest.raises(OutOfRangeError, match="exceeds cap"):
        FiniteField(2, 21)


def test_basic_arithmetic_examples():
    gf5 = field(5)
    assert gf5.inv(3) == 2
    assert gf5.neg(0) == 0
    gf8 = field(2, 3)
    g = 2  # the class of x
    assert gf8.mul(g, gf8.mul(g, g)) == 3  # g^3 = g + 1


def test_field_axioms_random():
    rng = random.Random(42)
    for p, l in [(2, 3), (11, 1), (5, 3)]:
        ctx = field(p, l)
        for _ in range(300):
            a, b, c = (rng.randrange(ctx.q) for _ in range(3))
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.add(a, ctx.neg(a)) == 0
            assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1


def test_fermat_exhaustive():
    for p, l in [(2, 1), (5, 1), (2, 3), (11, 1), (2, 5), (5, 3)]:
        ctx = field(p, l)
        for x in range(ctx.q):
            assert ctx.pow(x, ctx.q) == x


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        field(2, 3).pow(0, -1)


def test_pow_against_repeated_mul():
    ctx = field(5, 3)
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(1, ctx.q)
        n = rng.randrange(0, 40)
        acc = 1
        for _ in range(n):
            acc = ctx.mul(acc, a)
        assert ctx.pow(a, n) == acc
        assert ctx.pow(a, -n) == ctx.inv(acc) if n else 1


def test_trace_examples():
    gf8 = field(2, 3)
    assert gf8.trace(1) == 1  # odd-degree extension of GF(2)
    assert gf8.trace(0) == 0
    # g + g^2 + g^4 = 0 for g the class of x
    assert gf8.trace(2) == 0


def _orbit_trace(ctx, a):
    """Tr(a) the long way: a + a^p + ... + a^(p^(l-1))."""
    s = y = a
    for _ in range(ctx.l - 1):
        y = ctx.pow(y, ctx.p)
        s = ctx.add(s, y)
    return s


@pytest.mark.parametrize("p, l", [(2, 1), (2, 3), (2, 5), (2, 8), (2, 13), (3, 1),
                                  (3, 5), (5, 3), (5, 4), (7, 2), (11, 2), (13, 1)])
def test_trace_is_the_frobenius_orbit_sum_on_every_element(p, l):
    # trace is linear, so the linearity tests below cannot check it; this can
    ctx = field(p, l)
    assert ([ctx.trace(a) for a in range(ctx.q)]
            == [_orbit_trace(ctx, a) for a in range(ctx.q)])


def test_trace_refuses_basis_traces_outside_the_prime_subfield(monkeypatch):
    ctx = FiniteField(2, 3)  # not the cached field, so no basis traces yet
    monkeypatch.setattr(FiniteField, "frobenius", lambda self, a: a)
    with pytest.raises(InvariantError, match="trace of 2 left the prime subfield"):
        ctx.trace(0)


def test_trace_additive_and_frobenius_invariant():
    for p, l in [(2, 3), (2, 5), (5, 3)]:
        ctx = field(p, l)
        rng = random.Random(l)
        for _ in range(200):
            x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
            assert ctx.trace(ctx.add(x, y)) == (ctx.trace(x) + ctx.trace(y)) % p
            assert ctx.trace(ctx.frobenius(x)) == ctx.trace(x)


def test_trace_onto_prime_subfield():
    for p, l in [(2, 3), (2, 5), (5, 3), (11, 1)]:
        ctx = field(p, l)
        assert {ctx.trace(x) for x in range(ctx.q)} == set(range(p))


def test_char2_trace_kernel_has_half_the_field():
    for l in [3, 5, 7]:
        ctx = field(2, l)
        kernel = [x for x in range(ctx.q) if ctx.trace(x) == 0]
        assert len(kernel) == ctx.q // 2


def test_frobenius_iterates_to_identity():
    for p, l in [(2, 3), (5, 3)]:
        ctx = field(p, l)
        for x in range(ctx.q):
            y = x
            for _ in range(l):
                y = ctx.frobenius(y)
            assert y == x
    gf125 = field(5, 3)
    g = 5  # the class of x
    assert gf125.frobenius(g) == gf125.pow(g, 5)


def test_is_square_examples():
    gf11 = field(11)
    squares11 = {(y * y) % 11 for y in range(11)}
    assert 5 in squares11 and gf11.is_square(5)
    gf17 = field(17)
    squares17 = {(y * y) % 17 for y in range(17)}
    assert 5 not in squares17 and not gf17.is_square(5)
    assert gf11.is_square(0)


def test_is_square_matches_exhaustive_and_is_multiplicative():
    for p, l in [(11, 1), (17, 1), (5, 3)]:
        ctx = field(p, l)
        squares = {ctx.mul(y, y) for y in range(ctx.q)}
        for x in range(ctx.q):
            assert ctx.is_square(x) == (x in squares)
        rng = random.Random(p)
        for _ in range(300):
            x = rng.randrange(1, ctx.q)
            y = rng.randrange(1, ctx.q)
            assert ctx.is_square(ctx.mul(x, y)) == (
                ctx.is_square(x) == ctx.is_square(y)
            )


def test_sqrt_examples():
    gf11 = field(11)
    assert gf11.sqrt(5) == 4  # the other root is 7; smaller encoding wins
    assert gf11.sqrt(1) == 1
    assert field(17).sqrt(5) is None


def test_sqrt_exhaustive():
    # 2-adic valuations s of q-1 from 1 to 4: (17, 1) and (7, 2) have s=4,
    # (41, 1) and (3, 2) have s=3
    for p, l in [(2, 3), (11, 1), (13, 1), (5, 3), (2, 4), (17, 1), (7, 2),
                 (41, 1), (3, 2)]:
        ctx = field(p, l)
        for x in range(ctx.q):
            roots = [y for y in range(ctx.q) if ctx.mul(y, y) == x]
            got = ctx.sqrt(x)
            assert ctx.is_square(x) == bool(roots)
            if roots:
                assert got == min(roots)
            else:
                assert got is None


def brute_roots(ctx, a, b, c):
    return {
        x
        for x in range(ctx.q)
        if ctx.add(ctx.add(ctx.mul(a, ctx.mul(x, x)), ctx.mul(b, x)), c) == 0
    }


def test_solve_quadratic_examples():
    gf5 = field(5)
    assert gf5.solve_quadratic(1, gf5.neg(1), 1) == set()  # x^2 - x + 1
    gf11 = field(11)
    assert gf11.solve_quadratic(1, 1, gf11.neg(1)) == {3, 7}  # x^2 + x - 1
    assert gf11.solve_quadratic(1, 0, 0) == {0}  # double root collapses
    gf8 = field(2, 3)
    assert gf8.solve_quadratic(1, 1, 1) == set()
    # the half-trace needs an odd degree; q = 2 mod 3 never builds GF(4)
    gf4 = field(2, 2)
    with pytest.raises(UsageError, match="odd degree"):
        gf4.solve_quadratic(1, 1, 1)
    assert gf4.solve_quadratic(1, 0, 1) == {1}  # b = 0 is a square root


def test_solve_quadratic_degenerate_cases():
    ctx = field(5)
    with pytest.raises(UsageError, match="a = b = c = 0"):
        ctx.solve_quadratic(0, 0, 0)
    assert ctx.solve_quadratic(0, 0, 3) == set()
    assert ctx.solve_quadratic(0, 2, 1) == {2}  # 2x + 1 = 0


def test_solve_quadratic_against_exhaustive_scan():
    fields = [(2, 1), (2, 3), (2, 5), (3, 2), (5, 1), (5, 3), (7, 1),
              (11, 1), (2, 7), (2, 9), (17, 1)]
    for p, l in fields:
        ctx = field(p, l)
        rng = random.Random(1000 * p + l)
        for _ in range(1000):
            a = rng.randrange(ctx.q)
            b = rng.randrange(ctx.q)
            c = rng.randrange(ctx.q)
            if a == b == c == 0:
                continue
            assert ctx.solve_quadratic(a, b, c) == brute_roots(ctx, a, b, c), (
                p, l, a, b, c,
            )


def test_no_root_of_x2_minus_x_plus_1_when_q_is_2_mod_3():
    for p, l in [(2, 1), (5, 1), (2, 3), (11, 1), (17, 1), (2, 5), (5, 3), (2, 7)]:
        ctx = field(p, l)
        assert ctx.q % 3 == 2
        assert ctx.solve_quadratic(1, ctx.neg(1), 1) == set()


def test_encodings_round_trip():
    ctx = field(2, 3)
    assert ctx.coeffs(6) == (0, 1, 1)
    assert ctx.element_str(6) == "0,1,1"
    assert ctx.parse_element("0,1,1") == 6
    assert ctx.from_coeffs([1, 1]) == 3
    assert ctx.describe() == {"p": 2, "l": 3, "modulus": [1, 1, 0, 1]}
    with pytest.raises(ValueError):
        ctx.from_coeffs([2, 0, 0])
    with pytest.raises(ValueError):
        ctx.from_coeffs([0, 0, 0, 1])


def test_fields_above_order_2_16_match_schoolbook_arithmetic():
    # orders just above 2^16, in characteristic 2 and in odd characteristic
    for ctx in (field(2, 17), field(65537)):
        assert len(ctx._exp) == 2 * (ctx.q - 1) and len(ctx._log) == ctx.q
        rng = random.Random(ctx.q)
        for _ in range(200):
            a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
            n = rng.randrange(-ctx.q, ctx.q)
            assert ctx.mul(a, b) == ctx._raw_mul(a, b)
            if a:
                assert ctx.pow(a, abs(n)) == ctx._raw_pow(a, abs(n))
                assert ctx.mul(ctx.pow(a, n), ctx.pow(a, -n)) == 1
                assert ctx._raw_mul(a, ctx.inv(a)) == 1


def digit_add(ctx, a, b, sign=1):
    """Reference a + sign * b, coefficient by coefficient in base p."""
    p = ctx.p
    out, m = 0, 1
    for _ in range(ctx.l):
        a, ra = divmod(a, p)
        b, rb = divmod(b, p)
        out += (ra + sign * rb) % p * m
        m *= p
    return out


@pytest.mark.parametrize("p, l", [(3, 2), (5, 2), (5, 3), (7, 2), (3, 5), (17, 2)])
def test_zech_addition_matches_digits_exhaustively(p, l):
    ctx = field(p, l)
    for a in range(ctx.q):
        assert ctx.neg(a) == digit_add(ctx, 0, a, -1)
        for b in range(ctx.q):
            assert ctx.add(a, b) == digit_add(ctx, a, b)
            assert ctx.sub(a, b) == digit_add(ctx, a, b, -1)


@pytest.mark.parametrize("p, l", [(11, 3), (5, 5), (5, 7)])
def test_zech_addition_matches_digits_on_seeded_pairs(p, l):
    # orders 1331, 3125 and 78125, above the q^2 add table earlier
    # versions kept up to order 512
    ctx = field(p, l)
    rng = random.Random(ctx.q)
    for _ in range(200_000):
        a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
        assert ctx.add(a, b) == digit_add(ctx, a, b)
        assert ctx.sub(a, b) == digit_add(ctx, a, b, -1)
        assert ctx.neg(b) == digit_add(ctx, 0, b, -1)


def test_arithmetic_digest_is_pinned():
    # add, sub and mul of every pair and inv of every unit, pinned from the
    # q^2 add table that Zech addition replaced
    h = hashlib.sha256()
    for p, l in [(5, 3), (7, 2), (2, 5)]:
        ctx = field(p, l)
        for a in range(ctx.q):
            if a:
                h.update(ctx.inv(a).to_bytes(2, "big"))
            for b in range(ctx.q):
                for v in (ctx.add(a, b), ctx.sub(a, b), ctx.mul(a, b)):
                    h.update(v.to_bytes(2, "big"))
    assert h.hexdigest() == ("a2362b302d256fc6eb5b8b3269a04bfb"
                             "62d5c9c297a42221ebb5e744fc5e23c3")
