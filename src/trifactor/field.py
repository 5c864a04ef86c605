"""Arithmetic in finite fields GF(p^l).

Field elements are plain ints in [0, p^l): digit i of the int in base p is
the coefficient of x^i in the polynomial basis, so 0 and 1 are the additive
and multiplicative identities and the prime subfield occupies 0..p-1.  All
operations hang off a FiniteField context; elements carry no state of their
own, which keeps the sweep kernels cheap.

The reduction modulus for an extension is not configurable: it is the first
monic irreducible polynomial of degree l in encoding order (non-leading
coefficients read as a base-p integer).  Fixing the modulus this way keeps
element encodings, derived tables and golden outputs reproducible without an
external polynomial table.

Every field builds exp/log tables for a multiplicative generator g, so
mul, inv, pow, sqrt and odd-extension neg are table lookups at every order
up to the construction cap of 2^20.  Schoolbook products (_raw_mul) only
build the tables.  An odd extension adds by Zech logarithms:
zech[k] = log(1 + g^k), so a + b = a (1 + b/a) is four lookups (Huber,
"Some comments on Zech's logarithms", IEEE Trans. Inf. Theory 36(4), 1990).
Characteristic 2 adds by xor and a prime field mod p.  Quadratics are solved
in odd characteristic, and in characteristic 2 at odd degree (q = 2 mod 3
forces it) by the half-trace.
"""

from __future__ import annotations

MAX_ORDER = 1 << 20


class UsageError(ValueError):
    """Input from the caller is malformed or outside what is supported."""


class OutOfRangeError(UsageError):
    """Argument outside the supported range."""


class InvariantError(RuntimeError):
    """A computed result broke a property the construction guarantees.

    An internal fault, never bad input; raised in place of assert so that
    the check also runs under python -O.
    """


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _distinct_prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        value, r = divmod(value, p)
        out.append(r)
    return out


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num modulo the monic polynomial den, coefficients mod p."""
    num = num[:]
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            for j in range(dn + 1):
                num[i - dn + j] = (num[i - dn + j] - c * den[j]) % p
    return num[:dn]


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for low in range(p**d):
            divisor = _digits(low, p, d) + [1]
            if not any(_poly_rem(poly, divisor, p)):
                return False
    return True


class FiniteField:
    """Context for GF(p^l): modulus, tables, and all element operations."""

    def __init__(self, p: int, l: int):
        if not isinstance(p, int) or not is_prime(p):
            raise UsageError(f"characteristic {p!r} is not prime")
        if not isinstance(l, int) or l < 1:
            raise UsageError(f"extension degree {l!r} must be >= 1")
        q = p**l
        if q > MAX_ORDER:
            raise OutOfRangeError(f"order {q} exceeds cap {MAX_ORDER}")
        self.p = p
        self.l = l
        self.q = q
        self.modulus = self._find_modulus()
        self._powers = [p**i for i in range(l)]
        self._mod_mask = None
        if p == 2:
            self._mod_mask = sum(c << i for i, c in enumerate(self.modulus))
        self._basis_traces = None
        self._build_tables()

    def __repr__(self):
        return f"FiniteField(p={self.p}, l={self.l})"

    # -- construction internals ------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, l = self.p, self.l
        if l == 1:
            return (0, 1)
        for low in range(p**l):
            cand = _digits(low, p, l) + [1]
            if _is_irreducible(cand, p):
                return tuple(cand)
        raise InvariantError("no irreducible polynomial found")

    def _raw_mul(self, a: int, b: int) -> int:
        """Product without tables: mod p, carryless for p=2, digit schoolbook else.

        b's digits drive the outer loop, so a sparse b (a generator) is cheap.
        """
        if self.l == 1:
            return a * b % self.p
        if self.p == 2:
            mask = self._mod_mask
            top = 1 << self.l
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mask
            return r
        p, l = self.p, self.l
        da = _digits(a, p, l)
        db = _digits(b, p, l)
        conv = [0] * (2 * l - 1)
        for j, cb in enumerate(db):
            if cb:
                for i, ca in enumerate(da):
                    conv[i + j] += ca * cb
        rem = _poly_rem([c % p for c in conv], list(self.modulus), p)
        out = 0
        for i, c in enumerate(rem):
            out += c * self._powers[i]
        return out

    def _raw_pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            n >>= 1
        return r

    def _find_generator(self) -> int:
        order = self.q - 1
        checks = [(order // r) for r in _distinct_prime_factors(order)]
        for e in range(1, self.q):
            if all(self._raw_pow(e, n) != 1 for n in checks):
                return e
        raise InvariantError("no multiplicative generator found")

    def _build_tables(self):
        q = self.q
        g = self._find_generator()
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        v = 1
        for i in range(q - 1):
            exp[i] = v
            exp[i + q - 1] = v
            log[v] = i
            v = self._raw_mul(v, g)
        if v != 1:
            raise InvariantError(f"generator {g} does not have order {q - 1}")
        self._exp = exp
        self._log = log
        if self.p != 2 and self.l > 1:
            # 1 + v adds 1 mod p to the constant digit; -1 marks 1 + v = 0
            p = self.p
            self._zech = [-1 if v == p - 1 else log[v + 1 - p * (v % p == p - 1)]
                          for v in exp[:q - 1]]

    # -- basic arithmetic --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.l == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        k = self._log[a]
        z = self._zech[(self._log[b] - k) % (self.q - 1)]
        return 0 if z < 0 else self._exp[k + z]

    def neg(self, a: int) -> int:
        """In odd characteristic -1 = g^((q-1)/2)."""
        if self.p == 2:
            return a
        if self.l == 1:
            return (-a) % self.p
        if a == 0:
            return 0
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def frobenius(self, a: int) -> int:
        """The p-power map; its l-fold iterate is the identity."""
        return self.pow(a, self.p)

    # -- trace, squares, quadratics ---------------------------------------

    def trace(self, a: int) -> int:
        """Tr(a), GF(p)-linear: a's digits times the basis traces Tr(x^i), each
        summed over its Frobenius orbit on first use and checked to lie in the
        prime subfield.  In characteristic 2, a parity of a's masked bits."""
        if self._basis_traces is None:
            traces = []
            for x in self._powers:
                s = y = x
                for _ in range(self.l - 1):
                    y = self.frobenius(y)
                    s = self.add(s, y)
                if s >= self.p:
                    raise InvariantError(f"trace of {x} left the prime subfield")
                traces.append(s)
            self._trace_mask = sum(t << i for i, t in enumerate(traces))
            self._basis_traces = traces
        if self.p == 2:
            return (a & self._trace_mask).bit_count() & 1
        return sum(map(int.__mul__, _digits(a, self.p, self.l), self._basis_traces)) % self.p

    def is_square(self, a: int) -> bool:
        """In characteristic 2 every element is a square; in odd
        characteristic a nonzero a is one iff its discrete log is even."""
        if self.p == 2 or a == 0:
            return True
        return self._log[a] % 2 == 0

    def sqrt(self, a: int) -> int | None:
        """A square root of a, or None.

        Read from the discrete log k of a.  In characteristic 2, q-1 is odd,
        so an odd k is replaced by k+q-1 and g^(k/2) is the unique root.  In
        odd characteristic the roots are the two g^(k/2) for even k; the one
        with the smaller encoding is returned.
        """
        if a == 0:
            return 0
        k = self._log[a]
        if self.p == 2:
            return self._exp[(k if k % 2 == 0 else k + self.q - 1) // 2]
        if not self.is_square(a):
            return None
        y = self._exp[k // 2]
        return min(y, self.neg(y))

    def solve_quadratic(self, a: int, b: int, c: int) -> set[int]:
        """All distinct roots of a x^2 + b x + c.

        a = 0 degenerates to the linear case; a = b = 0 with c != 0 has no
        roots; all three zero is rejected.  Characteristic 2 with b != 0
        needs an odd degree l, else UsageError: x = (b/a) t gives t^2 + t =
        d = ac/b^2, and if Tr(d) = 0 the half-trace H = sum d^(4^i), i <=
        (l-1)/2, is a root, as H^2 + H = d + d^2 + ... + d^(2^l) = Tr(d) + d.
        """
        if a == 0 and b == 0:
            if c == 0:
                raise UsageError("a = b = c = 0")
            return set()
        if a == 0:
            return {self.mul(self.neg(c), self.inv(b))}
        if self.p == 2:
            if b == 0:
                return {self.sqrt(self.div(c, a))}
            if self.l % 2 == 0:
                raise UsageError(f"quadratics over GF(2^{self.l}) need an odd degree")
            d = self.div(self.mul(a, c), self.mul(b, b))
            if self.trace(d) != 0:
                return set()
            t0 = d  # the half-trace d + d^4 + ... + d^(4^((l-1)/2))
            for _ in range(self.l // 2):
                t0 = self.pow(t0, 4) ^ d
            scale = self.div(b, a)
            return {self.mul(t0, scale), self.mul(t0 ^ 1, scale)}
        four = 4 % self.p
        disc = self.sub(self.mul(b, b), self.mul(four, self.mul(a, c)))
        y = self.sqrt(disc)
        if y is None:
            return set()
        inv2a = self.inv(self.mul(2 % self.p, a))
        nb = self.neg(b)
        return {self.mul(self.add(nb, y), inv2a), self.mul(self.sub(nb, y), inv2a)}

    # -- encodings ----------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector, lowest degree first."""
        return tuple(_digits(a, self.p, self.l))

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.l:
            raise UsageError(f"too many coefficients for degree {self.l}")
        out = 0
        for i, ci in enumerate(cs):
            if not 0 <= ci < self.p:
                raise UsageError(f"coefficient {ci} out of range [0, {self.p})")
            out += ci * self._powers[i]
        return out

    def element_str(self, a: int) -> str:
        return ",".join(str(ci) for ci in self.coeffs(a))

    def parse_element(self, text: str) -> int:
        try:
            cs = [int(part) for part in text.split(",")]
        except ValueError:
            raise UsageError(f"bad field element {text!r}") from None
        return self.from_coeffs(cs)

    def describe(self) -> dict:
        return {"p": self.p, "l": self.l, "modulus": list(self.modulus)}


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def field(p: int, l: int = 1) -> FiniteField:
    """Shared, cached field context (contexts are immutable)."""
    key = (p, l)
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = FiniteField(p, l)
        _FIELD_CACHE[key] = ctx
    return ctx
