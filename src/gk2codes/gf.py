"""Table-based finite field arithmetic F_{p^k}, sized for p^k <= 2^20.

The cap, `MAX_FIELD_SIZE`, is stated in `gk2` and imported here, so
`verify` reads it without compiling this module.

Elements are represented by their serialized integer sum(c_i * p^i) for the
coefficient vector (c_0, ..., c_{k-1}) in the polynomial basis; that same
integer, in decimal, is the normative on-disk encoding.  The modulus is the
lexicographically smallest irreducible monic polynomial of its degree
(coefficients compared low-to-high), so any implementation can reproduce the
tables.  Multiplication runs on exp/log tables for a verified primitive
element g, the smallest serialized element of full order.  Addition is XOR
in characteristic 2.  In odd characteristic it runs on the same tables
through Zech logarithms Z(k) = log(1 + g^k), so g^i + g^j = g^{i + Z(j - i)},
and negation is multiplication by -1 = g^{(order-1)/2}.  The Zech table is
built on first use.

Before the tables exist, products in F_p[t]/(f) run on packed integers
(`_Ring`): coefficient i of a polynomial sits in a w-bit slot of one Python
int, so one integer product multiplies two polynomials, a Barrett quotient
by f takes two more, and a slot-wise division by p, itself one product,
shift and mask, reduces the coefficients after each.  The modulus search
(a Rabin test per candidate, coprimality checked as a unit power) and the
generator search (c^{(order-1)/r} != 1 for each prime r) run on it.

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

from .gk2 import MAX_FIELD_SIZE

_FIELD_CACHE: dict[tuple[int, int], "GfContext"] = {}


# ---------------------------------------------------------------------------
# polynomials over F_p: packed products, powers and unit tests
# ---------------------------------------------------------------------------


class _Ring:
    """F_p[t]/(f) for a monic f of degree d, each residue packed into one int.

    Coefficient i sits in bits [w i, w (i + 1)).  Every integer product below
    multiplies polynomials with coefficients in [0, p) and at most d terms,
    so no slot sum reaches v_max = d (p - 1)^2 + p and no carry crosses a
    slot.  `_mod_p` reduces every slot at once: floor(v / p) is (v m) >> s
    for v < v_max (m = floor(2^s / p) + 1, 2^s > v_max p), w leaves room for
    v m, and the mask `_keep` drops the low bits that the shift moves into
    the slot below.  A product a b is reduced mod f by Barrett's quotient
    floor(floor(a b / t^d) mu / t^(d-1)), mu = floor(t^(2d-1) / f), which is
    exact for polynomials, so a b - quotient f has no slot at or past d.
    """

    __slots__ = ("p", "d", "w", "_m", "_s", "_keep", "_mu", "_negf")

    def __init__(self, p, modulus):
        d = len(modulus) - 1
        v_max = d * (p - 1) ** 2 + p
        self.p, self.d = p, d
        self._s = (v_max * p).bit_length()
        self._m = (1 << self._s) // p + 1
        self.w = w = self._s + v_max.bit_length()
        self._keep = sum(((1 << (w - self._s)) - 1) << (w * i) for i in range(2 * d))
        rem = [0] * (2 * d - 1) + [1]  # t^(2d-1), divided by f in place
        mu = [0] * d
        for i in range(2 * d - 1, d - 1, -1):
            c = mu[i - d] = rem[i]
            for j in range(d):
                rem[i - d + j] = (rem[i - d + j] - c * modulus[j]) % p
        self._mu = self.pack(mu)
        self._negf = self.pack([-c % p for c in modulus])

    def pack(self, coeffs):
        return sum(c << (self.w * i) for i, c in enumerate(coeffs))

    def unpack(self, x):
        """The d coefficients of a packed residue, lowest first."""
        mask = (1 << self.w) - 1
        return [(x >> (self.w * i)) & mask for i in range(self.d)]

    def from_int(self, e):
        """The packed form of a serialized element sum(c_i p^i)."""
        x = shift = 0
        while e:
            e, c = divmod(e, self.p)
            x |= c << shift
            shift += self.w
        return x

    def _mod_p(self, x):
        return x - (((x * self._m) >> self._s) & self._keep) * self.p

    def mul(self, a, b):
        x = self._mod_p(a * b)
        q = self._mod_p((x >> (self.w * self.d)) * self._mu) >> (self.w * (self.d - 1))
        return self._mod_p(x + q * self._negf)

    def pow(self, a, e):
        """a^e for e >= 1, by squaring and multiplying down e's bits."""
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r


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
    """Rabin test: x^{p^d} = x mod f, and x^{p^{d/r}} - x is a unit mod f.

    Once f | x^{p^d} - x, F_p[t]/(f) is a product of fields F_{p^e}, e | d,
    so a is a unit iff a^{p^d - 1} = 1.  At d = 1, x is no packed residue.
    """
    d = len(poly) - 1
    if d == 1:
        return True
    ring = _Ring(p, poly)
    frobenius = [ring.pack([0, 1])]  # x^{p^k} for k = 0..d
    for _ in range(d):
        frobenius.append(ring.pow(frobenius[-1], p))
    if frobenius[d] != frobenius[0]:
        return False
    for r in _prime_factors(d):
        a = ring._mod_p(frobenius[d // r] + (p - 1) * frobenius[0])
        if ring.pow(a, p**d - 1) != 1:
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


def _find_generator(ring: _Ring) -> int:
    """The smallest serialized element c of full order n: no c^{n/r} is 1."""
    n = ring.p**ring.d - 1
    if n == 1:
        return 1
    factors = _prime_factors(n)
    for cand in range(2, n + 1):
        c = ring.from_int(cand)
        if all(ring.pow(c, n // r) != 1 for r in factors):
            return cand
    raise AssertionError(f"no generator found for F_{ring.p}^{ring.d}")


def _chunk_images(images, p, weights):
    """Entry u: sum_k u_k images[k] mod p over the base-p digits u_k of u,
    coefficient i weighted by weights[i] (p^i serializes, 2^(b i) packs)."""
    vecs = [[0] * len(weights)]
    for img in reversed(images):  # the highest digit varies slowest
        vecs = [[(a + d * b) % p for a, b in zip(v, img)] for v in vecs for d in range(p)]
    return [sum(x * w for x, w in zip(v, weights)) for v in vecs]


def _slot_reducer(p, b, count, unit):
    """Entry s: unit times the integer below p^count whose base-p digits
    are the `count` b-bit slots of s, each reduced mod p."""
    table = [0]
    for _ in range(count):  # the next slot enters as the lowest digit
        table = [x * p + d % p * unit for x in table for d in range(1 << b)]
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
        ring = _Ring(p, self.modulus)
        self.generator = _find_generator(ring)
        self._exp, self._log = self._exp_walk(ring)
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

    def _exp_walk(self, ring):
        """(exp, log) from the walk v -> g v, exp doubled to length 2(order-1)."""
        # g v is the digit-wise sum mod p of g (v % P) and g (v // P) P, the
        # images of v's low c and high deg - c base-p digits
        n = self.order - 1
        p, deg = self.p, self.deg
        c = (deg + 1) // 2
        P = p**c
        g = ring.from_int(self.generator)
        # coefficient vectors of g * t^k
        images = [ring.unpack(ring.mul(g, 1 << (ring.w * k))) for k in range(deg)]
        exp = [0] * n
        log = [-1] * self.order
        v = 1
        if p == 2:  # packed = serialized, and the digit-wise sum is XOR
            t0 = _chunk_images(images[:c], p, self._pw[:deg])
            t1 = _chunk_images(images[c:], p, self._pw[:deg])
            for i in range(n):
                exp[i] = v
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
            r0 = _slot_reducer(p, b, k0, 1)
            r1 = _slot_reducer(p, b, k1, p**k0)
            r2 = _slot_reducer(p, b, deg - k0 - k1, p ** (k0 + k1))
            m0, m1 = (1 << (b * k0)) - 1, (1 << (b * k1)) - 1
            s1, s2 = b * k0, b * (k0 + k1)
            for i in range(n):
                exp[i] = v
                log[v] = i
                s = t0[v % P] + t1[v // P]
                v = r0[s & m0] + r1[(s >> s1) & m1] + r2[s >> s2]
        if v != 1:
            raise AssertionError("generator order check failed while building tables")
        exp += exp
        return exp, log

    # -- field operations ----------------------------------------------------

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
