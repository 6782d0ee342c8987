"""Curve-parameterized semigroup constructions for the GK2 family.

Everything in this module is exact integer arithmetic derived from the two
curve parameters (q, n): the derived scalars, the Weierstrass semigroups at
the two orbits of small-field rational points, the holomorphic-differential
gap set, the telescopic-partition bookkeeping and the Frobenius dimensions.

Identity checks that the theory guarantees (genus matches, gap set equals
the semigroup complement) are hard assertions here, not just tests: the
point of the artifact is constructive verification, so a mismatch raises
InternalConsistencyError immediately.
"""

from __future__ import annotations

from itertools import chain, compress
from math import isqrt
from typing import TYPE_CHECKING, NamedTuple

from .errors import InternalConsistencyError

if TYPE_CHECKING:
    from .semigroup import NumericalSemigroup

# semigroup is imported by the functions that sieve, so a job that only
# reads the curve's scalars (points) compiles no sieve.

REFERENCE_QN = (2, 5)  # the one (q, n) with published code tables, which refdata holds
MAX_FIELD_SIZE = 1 << 20  # gf's table cap, stated here so verify reads it without gf


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e, p prime; reject non prime powers."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    m, e = q, 0
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p, e


class CurveParams(NamedTuple):
    """Derived scalars of one member of the curve family.

    q: prime power; n: odd integer >= 3;
    m = (q^n + 1)/(q + 1); s = (m - 1)/(q^2 - q);
    genus = (q-1)(q^{n+1} + q^n - q^2)/2;
    rational_point_count = q^{2n} + 1 + 2*genus*q^n (the maximality count);
    differential_pole_bound = q^{n+1} - q^n - q^2 + 2q - 2, the per-point pole
    budget for holomorphic differentials, equal to (2*genus - 2)/(q + 1).
    """

    q: int
    n: int
    p: int
    m: int
    s: int
    genus: int
    rational_point_count: int
    differential_pole_bound: int


def curve_params(q: int, n: int) -> CurveParams:
    p, _ = prime_power_decompose(q)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be an odd integer >= 3, got {n}")
    # The three identities cannot fail.  q + 1 | q^n + 1 as n is odd.
    if (q**n + 1) % (q + 1):
        raise InternalConsistencyError(f"(q+1) does not divide q^n+1 for q={q}, n={n}")
    m = (q**n + 1) // (q + 1)
    # m - 1 = q (q^{n-1} - 1)/(q + 1), and q^2 - 1 | q^{n-1} - 1 as n - 1 is even.
    if (m - 1) % (q * q - q):
        raise InternalConsistencyError(f"(q^2-q) does not divide m-1 for q={q}, n={n}")
    s = (m - 1) // (q * q - q)
    genus = (q - 1) * (q ** (n + 1) + q**n - q * q) // 2
    n_points = q ** (2 * n) + 1 + 2 * genus * q**n
    budget = q ** (n + 1) - q**n - q * q + 2 * q - 2
    # Both sides expand to q^{n+2} - q^n - q^3 + q^2 - 2.
    if budget * (q + 1) != 2 * genus - 2:
        raise InternalConsistencyError(
            f"differential pole budget {budget} != (2g-2)/(q+1) for q={q}, n={n}"
        )
    return CurveParams(
        q=q,
        n=n,
        p=p,
        m=m,
        s=s,
        genus=genus,
        rational_point_count=n_points,
        differential_pole_bound=budget,
    )


def o1_generators(params: CurveParams) -> tuple[int, ...]:
    q, m, s = params.q, params.m, params.s
    gens = [m * q + i * (q * q - q) for i in range(s + 1)]
    gens.append(q**params.n + 1)
    return tuple(sorted(set(gens)))


def o2_generators(params: CurveParams) -> tuple[int, ...]:
    q, m, s = params.q, params.m, params.s
    top = q**params.n + 1
    gens = {top - m} | {top - k for k in range(s + 1)}
    return tuple(sorted(gens))


def semigroup_o1(params: CurveParams) -> NumericalSemigroup:
    """Weierstrass semigroup at the q+1 infinite points."""
    return orbit_semigroup(params, "O1")


def semigroup_o2(params: CurveParams) -> NumericalSemigroup:
    """Weierstrass semigroup at the q^3 - q small-field affine points."""
    return orbit_semigroup(params, "O2")


def orbit_semigroup(params: CurveParams, orbit: str) -> NumericalSemigroup:
    """The orbit's semigroup, sieved from its generators; its genus must be the curve's."""
    if orbit not in ("O1", "O2"):
        raise ValueError(f"orbit must be 'O1' or 'O2', got {orbit!r}")
    from .semigroup import NumericalSemigroup

    gens = o1_generators(params) if orbit == "O1" else o2_generators(params)
    sg = NumericalSemigroup.from_generators(gens, conductor_hint=2 * params.genus)
    if sg.genus != params.genus:
        raise InternalConsistencyError(
            f"{orbit} genus {sg.genus} != curve genus {params.genus} for "
            f"q={params.q}, n={params.n}"
        )
    return sg


def k_max(params: CurveParams, j_plus_l: int) -> int:
    """Largest z-exponent k admissible in the differential family at j+l.

    Piecewise closed form: m-1 below j+l = q-1, then descending by steps of
    s; no admissible k at all once j+l >= q^2 - 1.
    """
    q, m, s = params.q, params.m, params.s
    if j_plus_l < 0:
        raise ValueError(f"j+l must be >= 0, got {j_plus_l}")
    if j_plus_l >= q * q - 1:
        raise ValueError(f"no admissible k for j+l = {j_plus_l} >= q^2-1 = {q*q-1}")
    if j_plus_l < q - 1:
        return m - 1
    return m - 1 - (s * (j_plus_l - q + 1) + 1)


def holomorphic_gap_set(params: CurveParams) -> tuple[int, ...]:
    """Gap set at O2 points, built from the holomorphic-differential family.

    Marks the valuations k + (q^n+1)j + l*m + 1 over the admissible triples
    in a byte table (for fixed j and l the k form one run, one slice),
    asserts the advertised size (= genus) and equality with the complement
    of the O2 semigroup.  Duplicate valuations would contradict the
    uniqueness of the triple representation, so they raise.
    """
    seen = _holomorphic_gap_indicator(params)[0]
    return tuple(compress(range(len(seen)), seen))


def _holomorphic_gap_indicator(params: CurveParams) -> tuple[bytearray, NumericalSemigroup]:
    """holomorphic_gap_set's byte table, 1 on each gap, and the O2 semigroup it checked."""
    q, n, m = params.q, params.n, params.m
    budget = params.differential_pole_bound
    qq1 = q**n + 1
    runs = []
    for l in range(q + 1):
        for j in range(q * q - 1):
            weight = (j + l) * m
            if weight > budget:
                continue
            kk = min(m - 1, (budget - weight) // (q * q - q))
            start = qq1 * j + l * m + 1
            runs.append((start, start + kk + 1))
    seen = bytearray(max((stop for _, stop in runs), default=0))
    ones = memoryview(b"\x01" * m)
    count = 0
    for start, stop in runs:
        seen[start:stop] = ones[:stop - start]
        count += stop - start
    distinct = seen.count(1)  # a valuation met twice is marked once
    if distinct != count:
        raise InternalConsistencyError(
            f"duplicate gap valuations for q={q}, n={n}: {count} triples, {distinct} values"
        )
    if distinct != params.genus:
        raise InternalConsistencyError(
            f"gap family size {distinct} != genus {params.genus} for q={q}, n={n}"
        )
    sg = semigroup_o2(params)
    if seen != sg._gap_indicator():
        raise InternalConsistencyError(
            f"differential gap set != O2 semigroup complement for q={q}, n={n}"
        )
    return seen, sg


def canonical_triple(params: CurveParams, value: int) -> tuple[int, int, int]:
    """Unique (a, b, c) with value = a*mq + b*(q^2-q) + c*(q^n+1).

    b is reduced to [0, m-1] and c to [0, q-1]; a may be negative, which
    encodes non-membership in the telescopic semigroup (member iff a >= b).
    """
    if value < 0:
        raise ValueError(f"value must be >= 0, got {value}")
    q, m = params.q, params.m
    step = q * q - q
    b = value * pow(step, -1, m) % m
    rest = value - b * step
    if rest % m:
        raise InternalConsistencyError(f"triple solve failed for value={value}")
    t = rest // m  # = a*q + c*(q+1)
    c = t % q
    a = (t - c * (q + 1)) // q
    if a * m * q + b * step + c * (q**params.n + 1) != value:
        raise InternalConsistencyError(f"triple reconstruction failed for value={value}")
    return a, b, c


class PartitionReport(NamedTuple):
    """Outcome of the telescopic-partition verification for one (q, n).

    telescopic_genus is the genus of the sieve of S, not the closed form.
    """

    q: int
    n: int
    telescopic_genus: int
    partition_total: int
    curve_genus: int
    sets_inside_h1_minus_s: bool
    sets_pairwise_disjoint: bool
    set_sizes_match_formula: bool
    genus_count_matches: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.sets_inside_h1_minus_s
            and self.sets_pairwise_disjoint
            and self.set_sizes_match_formula
            and self.genus_count_matches
        )


def verify_partition(params: CurveParams) -> PartitionReport:
    """Rebuild the S_i / S_j partition of H1 minus its telescopic subsemigroup.

    Checks (a) every set lies in H1 \\ S, (b) the sets are mutually disjoint,
    (c) each set has the advertised cardinality, and (d) genus(S) minus the
    total partition size equals the curve genus.  Failures are reported, not
    raised: the report is itself the test oracle.

    No set is built.  Set t (S_i for t = i < q^2 - q, else S_j for t = j) is
    the q runs t*mq + (t + k)(q^2 - q) + c(q^n + 1), k = 1..length, one per
    c < q, with length ts - t for S_i and (q^2 - q)s - t for S_j.  Each run
    is one strided slice of the sieves of H1 and S, past whose ends all
    values are members (so S's is read only if the largest run value is
    below its conductor).  Once S's genus is read, its sieve, local to this
    call, holds the marks too: a run value reads 0 or 1 as long as no run
    has held it (1 for a member of S), 2 once an earlier set has, and 3 once
    an earlier run of the same set has.  The sieves prove their
    conductors: S, symmetric as telescopic, closes once from twice its
    closed-form genus.  H1 is built only if some set is nonempty, which
    needs s >= 2, so that mq, mq + q^2 - q and q^n + 1 are O1 generators
    and gcd(H1) = 1.
    """
    from .semigroup import NumericalSemigroup, telescopic_genus

    q, m, s = params.q, params.m, params.s
    step = q * q - q
    qq1 = q**params.n + 1
    seq = (m * q, m * q + step, qq1)
    sg_s = NumericalSemigroup.from_generators(seq, conductor_hint=2 * telescopic_genus(seq))

    sets = [(t, t * s - t if t < step else step * s - t)
            for t in chain(range(1, step), range(step, step * s))]
    top = max((t * m * q + (t + length) * step + (q - 1) * qq1
               for t, length in sets if length > 0), default=0)
    h1 = b""  # read by nonempty runs only
    if top:
        h1 = NumericalSemigroup.from_generators(
            o1_generators(params), conductor_hint=2 * params.genus)._sieve
    inside_ok = top < sg_s.conductor
    table = sg_s._sieve  # S is this call's own and its genus is read: the marks go here
    table += b"\x01" * (top + 1 - len(table))  # past the sieve every value is a member
    twos, threes = b"\x02" * (step * s), b"\x03" * (step * s)  # longer than any run
    disjoint_ok = sizes_ok = True
    total = 0
    for t, length in sets:
        count = max(length, 0)
        first = t * m * q + (t + 1) * step
        runs = [slice(a, a + count * step, step) for a in range(first, first + q * qq1, qq1)]
        size = q * count
        for run in runs:
            seen = table[run]
            inside_ok = inside_ok and 0 not in h1[run] and 1 not in seen
            disjoint_ok = disjoint_ok and 2 not in seen
            size -= seen.count(3)
            table[run] = threes[:count]
        for run in runs:
            table[run] = twos[:count]
        sizes_ok = sizes_ok and size == length * q
        total += size

    return PartitionReport(
        q=q,
        n=params.n,
        telescopic_genus=sg_s.genus,
        partition_total=total,
        curve_genus=params.genus,
        sets_inside_h1_minus_s=inside_ok,
        sets_pairwise_disjoint=disjoint_ok,
        set_sizes_match_formula=sizes_ok,
        genus_count_matches=(sg_s.genus - total == params.genus),
    )


def frobenius_dimension_gk2(params: CurveParams) -> int:
    """Frobenius dimension of the second-generalization curve, n >= 5 only."""
    if params.n < 5:
        raise ValueError(
            "the closed form for the second-generalization Frobenius dimension "
            f"is established for n >= 5 only, got n = {params.n}"
        )
    return params.s + 2


def frobenius_dimension_gk1(params: CurveParams) -> int:
    """Frobenius dimension of the first-generalization curve of the same (q, n).

    It is q^{n-3} + sum_{i=2}^{n-2} (-1)^{i+1} q^i + 1.  For odd n the sum
    has an even number n - 3 of terms and is geometric with ratio -q, so it
    equals q^2 (q^{n-3} - 1)/(q + 1).
    """
    q, n = params.q, params.n
    top = q ** (n - 3)
    return top + q * q * (top - 1) // (q + 1) + 1


def frobenius_dimensions_differ(q: int, n: int) -> bool | None:
    """True iff the two generalizations have distinct Frobenius dimensions.

    Returns None for n = 3 (the curves coincide there and the closed forms do
    not apply): an explicit not-applicable marker, not a comparison.
    """
    params = curve_params(q, n)
    if n == 3:
        return None
    return frobenius_dimension_gk1(params) != frobenius_dimension_gk2(params)
