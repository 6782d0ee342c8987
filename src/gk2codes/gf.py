"""Table-based finite field arithmetic F_{p^k}, sized for p^k <= 2^20.

Elements are represented by their serialized integer sum(c_i * p^i) for the
coefficient vector (c_0, ..., c_{k-1}) in the polynomial basis; that same
integer, in decimal, is the normative on-disk encoding.  The modulus is the
lexicographically smallest irreducible monic polynomial of its degree
(coefficients compared low-to-high), so any implementation can reproduce the
tables.  Multiplication runs on exp/log tables for a verified primitive
element g.  Addition is XOR in characteristic 2.  In odd characteristic it
runs on the same tables through Zech logarithms Z(k) = log(1 + g^k), so
g^i + g^j = g^{i + Z(j - i)}, and negation is multiplication by
-1 = g^{(order-1)/2}.
"""

from __future__ import annotations

from itertools import islice, product
from math import gcd

MAX_FIELD_SIZE = 1 << 20

_FIELD_CACHE: dict[tuple[int, int], "GfContext"] = {}


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (little-endian coefficient lists)
# ---------------------------------------------------------------------------


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_modred(res, mod, p)


def _poly_modred(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    _poly_trim(a)
    return a


def _poly_powmod(a, e, mod, p):
    result = [1]
    base = _poly_modred(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    _poly_trim(a)
    _poly_trim(b)
    while b:
        # a mod b with b made monic
        inv_lead = pow(b[-1], -1, p)
        bm = [(c * inv_lead) % p for c in b]
        r = list(a)
        while len(r) >= len(bm) and any(r):
            c = r[-1]
            if c:
                off = len(r) - len(bm)
                for j, bj in enumerate(bm):
                    r[off + j] = (r[off + j] - c * bj) % p
            _poly_trim(r)
            if not r:
                break
        a, b = b, r
        _poly_trim(b)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(poly, p):
    """Rabin test: x^{p^d} = x mod f and gcd(x^{p^{d/r}} - x, f) = 1."""
    d = len(poly) - 1
    if d == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    x = [0, 1]
    xp = _poly_powmod(x, p**d, poly, p)
    if _poly_trim(list(xp)) != [0, 1]:
        return False
    for r in _prime_factors(d):
        xe = _poly_powmod(x, p ** (d // r), poly, p)
        diff = list(xe) + [0] * (2 - len(xe))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(poly, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


def _smallest_irreducible(p: int, deg: int) -> tuple[int, ...]:
    for tail in product(range(p), repeat=deg):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError(f"no irreducible polynomial of degree {deg} over F_{p}")


class GfContext:
    """Arithmetic context for F_{p^deg}; build through make_field().

    Immutable after construction; contexts are cached and safely shareable.
    """

    __slots__ = ("p", "deg", "order", "modulus", "generator", "_exp", "_log", "_zech", "_pw")

    def __init__(self, p: int, deg: int):
        if deg < 1:
            raise ValueError(f"deg must be >= 1, got {deg}")
        if _prime_factors(p) != [p]:
            raise ValueError(f"p must be prime, got {p}")
        if p**deg > MAX_FIELD_SIZE:
            raise ValueError(
                f"field size {p}^{deg} exceeds the {MAX_FIELD_SIZE} table-arithmetic cap"
            )
        self.p = p
        self.deg = deg
        self.order = p**deg
        self.modulus = _smallest_irreducible(p, deg)
        self._pw = [p**i for i in range(deg + 1)]
        self.generator = self._find_generator()
        self._build_tables()

    # -- serialization ------------------------------------------------------

    def coeffs(self, e: int) -> tuple[int, ...]:
        """Little-endian coefficient vector of a serialized element."""
        self._check(e)
        out = []
        for _ in range(self.deg):
            e, r = divmod(e, self.p)
            out.append(r)
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.deg:
            raise ValueError(f"too many coefficients for degree {self.deg}")
        return sum((c % self.p) * self._pw[i] for i, c in enumerate(cs))

    def _check(self, e: int):
        if not 0 <= e < self.order:
            raise ValueError(f"element {e} outside field of order {self.order}")

    # -- construction internals --------------------------------------------

    def _poly_of(self, e: int) -> list[int]:
        return _poly_trim(list(self.coeffs(e)))

    def _int_of(self, poly) -> int:
        return sum(c * self._pw[i] for i, c in enumerate(poly))

    def _find_generator(self) -> int:
        n = self.order - 1
        if n == 1:
            return 1
        factors = _prime_factors(n)
        for cand in range(2, self.order):
            cp = self._poly_of(cand)
            if all(
                self._int_of(_poly_powmod(cp, n // r, list(self.modulus), self.p)) != 1
                for r in factors
            ):
                return cand
        raise AssertionError(f"no generator found for F_{self.p}^{self.deg}")

    def _build_tables(self):
        n = self.order - 1
        exp = [0] * (2 * n)
        log = [-1] * self.order
        mod = list(self.modulus)
        p = self.p
        gp = self._poly_of(self.generator)
        cur = [1]
        for i in range(n):
            v = self._int_of(cur)
            exp[i] = v
            exp[i + n] = v
            log[v] = i
            cur = _poly_mulmod(cur, gp, mod, p)
        if self._int_of(cur) != 1:
            raise AssertionError("generator order check failed while building tables")
        self._exp = exp
        self._log = log
        # Z(k) = log(1 + g^k); adding 1 changes only digit 0, and log[0] = -1
        # marks the k with g^k = -1.  Characteristic 2 adds by XOR instead.
        self._zech = None if p == 2 else [
            log[e - e % p + (e + 1) % p] for e in islice(exp, n)
        ]

    # -- field operations ----------------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if a == 0 or b == 0:
            return a or b
        la = self._log[a]
        z = self._zech[self._log[b] - la]  # a negative index wraps mod order - 1
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        return self._exp[self._log[a] + (self.order >> 1)]  # (order - 1)/2 for odd order

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
            raise ZeroDivisionError("inverse of 0 in a finite field")
        n = self.order - 1
        return self._exp[(n - self._log[a]) % n]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("0 to a negative power")
        n = self.order - 1
        return self._exp[(self._log[a] * e) % n]

    def log(self, a: int) -> int:
        if a == 0:
            raise ValueError("discrete log of 0")
        return self._log[a]

    def exp(self, k: int) -> int:
        return self._exp[k % (self.order - 1)]

    # -- roots and subfields --------------------------------------------------

    def nth_roots(self, c: int, d: int) -> list[int]:
        """All t with t^d = c, sorted by serialization; {0} for c = 0."""
        if d < 1:
            raise ValueError(f"root degree must be >= 1, got {d}")
        self._check(c)
        if c == 0:
            return [0]
        n = self.order - 1
        g = gcd(d, n)
        lc = self._log[c]
        if lc % g:
            return []
        step = n // g
        t0 = (lc // g) * pow(d // g, -1, step) % step
        return sorted(self._exp[(t0 + k * step) % n] for k in range(g))

    def subfield_elements(self, sub_deg: int) -> list[int]:
        """All x with x^(p^sub_deg) = x; requires sub_deg | deg."""
        if sub_deg < 1 or self.deg % sub_deg:
            raise ValueError(f"{sub_deg} does not divide extension degree {self.deg}")
        size = self.p**sub_deg - 1
        step = (self.order - 1) // size
        return sorted([0] + [self._exp[i * step] for i in range(size)])


def make_field(p: int, deg: int) -> GfContext:
    """Deterministic cached field context for F_{p^deg}."""
    key = (p, deg)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = GfContext(p, deg)
    return _FIELD_CACHE[key]


# ---------------------------------------------------------------------------
# dense linear algebra over a GfContext: one incremental elimination, whose
# rank is the last entry of its rank profile
# ---------------------------------------------------------------------------


def _echelon_ranks(ctx: GfContext, rows: list[list[int]]) -> list[int]:
    """The one elimination: cumulative ranks of the leading i-row submatrices.

    Maintains an echelon basis with normalized pivots; row i is reduced
    against it and either adds a pivot (rank +1) or vanishes (rank unchanged).
    The input rows are not modified.
    """
    echelon: list[list[int]] = []
    pivots: list[int] = []
    profile = []
    for row in rows:
        row = list(row)
        for prow, pc in zip(echelon, pivots):
            f = row[pc]
            if f:
                row = [ctx.sub(v, ctx.mul(f, pv)) for v, pv in zip(row, prow)]
        pivot = next((j for j, v in enumerate(row) if v), None)
        if pivot is not None:
            inv_p = ctx.inv(row[pivot])
            echelon.append([ctx.mul(inv_p, v) for v in row])
            pivots.append(pivot)
        profile.append(len(pivots))
    return profile


# Both public names call the private routine rather than each other, so a
# wrapper around one of them (perfbench/tracer.py) never counts a matrix twice.
def rank_profile(ctx: GfContext, rows: list[list[int]]) -> list[int]:
    """Cumulative ranks of the leading i-row submatrices, one elimination pass."""
    return _echelon_ranks(ctx, rows)


def matrix_rank(ctx: GfContext, rows: list[list[int]]) -> int:
    """Rank: the last entry of the rank profile, 0 for no rows."""
    profile = _echelon_ranks(ctx, rows)
    return profile[-1] if profile else 0
