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
-1 = g^{(order-1)/2}.  The Zech table is built on first use.

The exp table is one walk v -> g v.  Multiplying by g is F_p-linear, so g v
is the digit-wise sum mod p of the images of v's low and high halves of
base-p digits, each read from a table of the images of every half value.
In characteristic 2 the sum is the XOR of two lookups.  In odd
characteristic the images are stored in packed b-bit slots, one per digit,
so one integer addition sums both halves digit by digit, and three lookups
of a few slots each reduce the slots mod p back to the serialized integer.
Every table has at most 4096 entries for the even-degree fields of the
curve layer.  The curve layer reads `_exp` and `_log` directly for its
log-domain point walk and code-matrix columns, and adds through `add`.
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
    # past degree 1 a zero constant term means a factor x, so c0 starts at 1
    # (c0 varies slowest, so the order of the remaining candidates is kept)
    low = range(p) if deg == 1 else range(1, p)
    for tail in product(low, *[range(p)] * (deg - 1)):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError(f"no irreducible polynomial of degree {deg} over F_{p}")


def _chunk_images(images, p, weights):
    """Entry u: sum_k u_k images[k] mod p over the base-p digits u_k of u,
    coefficient i weighted by weights[i] (p^i serializes, 2^(b i) packs)."""
    vecs = [[0] * len(weights)]
    for img in reversed(images):  # the highest digit varies slowest
        vecs = [[(a + d * b) % p for a, b in zip(v, img)] for v in vecs for d in range(p)]
    return [sum(x * w for x, w in zip(v, weights)) for v in vecs]


def _slot_reducer(p, b, count):
    """Entry s: the `count` b-bit slots of s, each reduced mod p, as the
    base-p digits of an integer below p^count."""
    table = [0]
    for _ in range(count):  # the next slot enters as the lowest digit
        table = [x * p + d % p for x in table for d in range(1 << b)]
    return table


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
        self._exp, self._log = self._exp_walk()
        self._zech = None  # built by _zech_table on the first addition that needs it

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

    def _exp_walk(self):
        """(exp, log) from the walk v -> g v, exp doubled to length 2(order-1)."""
        # g v is the digit-wise sum mod p of g (v % P) and g (v // P) P, the
        # images of v's low c and high deg - c base-p digits
        n = self.order - 1
        p, deg = self.p, self.deg
        c = (deg + 1) // 2
        P = p**c
        mod = list(self.modulus)
        gp = self._poly_of(self.generator)
        images = []
        for k in range(deg):  # coefficient vectors of g * t^k
            img = _poly_modred([0] * k + gp, mod, p)
            images.append(img + [0] * (deg - len(img)))
        exp = [0] * (2 * n)
        log = [-1] * self.order
        v = 1
        if p == 2:  # packed = serialized, and the digit-wise sum is XOR
            t0 = _chunk_images(images[:c], p, self._pw[:deg])
            t1 = _chunk_images(images[c:], p, self._pw[:deg])
            for i in range(n):
                exp[i] = exp[i + n] = v
                log[v] = i
                v = t0[v & (P - 1)] ^ t1[v >> c]
        else:
            # images in b-bit slots wide enough for the sum of two digits (of
            # one when deg = 1 leaves the high half empty); three lookups of
            # k0, k1 and deg - k0 - k1 slots reduce the sum mod p
            b = (min(2, deg) * (p - 1)).bit_length()
            slots = [1 << (b * i) for i in range(deg)]
            t0 = _chunk_images(images[:c], p, slots)
            t1 = _chunk_images(images[c:], p, slots)
            k0 = -(-deg // 3)
            k1 = -(-(deg - k0) // 2)
            r0 = _slot_reducer(p, b, k0)
            r1 = _slot_reducer(p, b, k1)
            r2 = _slot_reducer(p, b, deg - k0 - k1)
            m0, m1 = (1 << (b * k0)) - 1, (1 << (b * k1)) - 1
            s1, s2 = b * k0, b * (k0 + k1)
            p1, p2 = p**k0, p ** (k0 + k1)
            for i in range(n):
                exp[i] = exp[i + n] = v
                log[v] = i
                s = t0[v % P] + t1[v // P]
                v = r0[s & m0] + r1[(s >> s1) & m1] * p1 + r2[s >> s2] * p2
        if v != 1:
            raise AssertionError("generator order check failed while building tables")
        return exp, log

    # -- field operations ----------------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def _zech_table(self) -> list[int] | None:
        """Z(k) = log(1 + g^k) for k < order - 1, built on first call; None for p = 2.

        Adding 1 changes only digit 0, and log[0] = -1 marks the k with g^k = -1.
        """
        if self._zech is None and self.p != 2:
            p, log = self.p, self._log
            self._zech = [log[e - e % p + (e + 1) % p] for e in islice(self._exp, self.order - 1)]
        return self._zech

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if a == 0 or b == 0:
            return a or b
        la = self._log[a]
        z = (self._zech or self._zech_table())[self._log[b] - la]  # a negative index wraps
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

    Maintains an echelon basis; row i is reduced against it and either adds a
    pivot (rank +1) or vanishes (rank unchanged).  Echelon rows are kept as
    logs, -1 for 0, with their pivot's log lp, so a reduction is one table
    lookup per cell and no method call: v ^ g^(log f - lp + w) on values for
    p = 2, and g^a + g^b = g^(a + Z(b - a)) on logs for odd p.  The input
    rows are not modified.
    """
    n, exp, log = ctx.order - 1, ctx._exp, ctx._log
    zech = ctx._zech_table()  # None in characteristic 2
    half = n // 2  # log(-1) in odd characteristic
    echelon: list[tuple[int, int, list[int]]] = []  # (pivot column, lp, logs)
    profile = []
    for row in rows:
        if zech is None:
            for pc, lp, prow in echelon:
                f = row[pc]
                if f:
                    lf = (log[f] - lp) % n
                    row = [v ^ exp[lf + w] if w >= 0 else v for v, w in zip(row, prow)]
            row = [log[v] for v in row]
        else:
            row = [log[v] for v in row]
            for pc, lp, prow in echelon:
                lf = row[pc]
                if lf >= 0:
                    c = (lf + half - lp) % n
                    row = [
                        a if w < 0
                        else (c + w) % n if a < 0
                        else -1 if (z := zech[(c + w - a) % n]) < 0
                        else (a + z) % n
                        for a, w in zip(row, prow)
                    ]
        pivot = next((j for j, a in enumerate(row) if a >= 0), None)
        if pivot is not None:
            echelon.append((pivot, row[pivot], row))
        profile.append(len(echelon))
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
