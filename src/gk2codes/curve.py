"""Rational points of the curve family and explicit evaluation codes.

The affine model is y^{q+1} = x^{q+1} - 1, z^m = y (x^{q^2} - x)/(x^{q+1} - 1)
over F_{q^{2n}}.  One walk, `_fibers`, serves enumeration and the census.  It
runs on the field's exp/log tables; g is the generator, o = q^{2n} - 1 and
s = o/(q+1).  x^{q+1} = u depends only on log x mod s, so the walk visits
each (q+1)-st power u = g^{(q+1) j}, j < s, once, for the q+1 values
x = g^{j + k s}, k = 0..q:

- u = 1 (j = 0) gives the q+1 ramified x, each a single smooth-model point
  (x, 0, 0) (the fiber formula degenerates to 0/0 there, and the divisor of z
  forces z = 0).
- Otherwise y^{q+1} = u - 1 has a root iff q+1 divides ld = log(u - 1), and
  then the roots are y_i = g^{ly + i s}, ly = ld/(q+1), i = 0..q.
- c = x^{q^2-1} = g^{(q^2-1) j} is the same for all q+1 x, as
  (q^2-1) s = (q-1) o, and x^{q^2} - x = x (c - 1).  So w = 0 on the whole
  fiber when c = 1, and otherwise log w = lw + i s at (x, y_i), with
  lw = ly + log x + log(c - 1) - ld.
- x = 0 has u - 1 = -1, whose log (0, or o/2 for odd q) q+1 divides, and w = 0.

Subtracting 1 changes only the constant coefficient, so u - 1 and c - 1 are
two digit operations on the serialized integer.  The walk yields one
(j, ly, lw) per nonempty group, lw the log of w at (g^j, g^ly); at
x = g^{j + k s} it is lw + k s.  The census counts q+1 points for x = 0 and
for the ramified group, (q+1)^2 for a w = 0 group, and m per (x, y_i) with
m | lw + (k + i) s, read from a table over lw mod m that sums the group's
q+1 x.  `_affine_logs`, the one ordered stream that enumeration and code
matrices read, expands each group into its q+1 x, sorts them, and expands
each x into its y_i, sorted, and, where m | lw + (k + i) s (m divides o), the
logs of the m-th roots z = g^{(lw + (k + i) s)/m + t o/m}, t < m, sorted by
z; once exhausted it checks the point counts, as `census` does.  The q+1
points at infinity carry a (q+1)-st root of unity as coordinate.

An affine point lies in the orbit O2 (all coordinates in F_{q^2}) exactly
when w = 0.  Off the ramified x, y^{q+1} = x^{q+1} - 1 != 0, so w = 0 iff
x^{q^2} = x; then y^{q+1} lies in F_q^*, so y^{q^2-1} = 1, and z = 0.  If
w != 0 then x is outside F_{q^2}.  `classify_point` keeps the definitional
coordinate test as an independent check of these tags.  The total must
reproduce the maximality count q^{2n} + 1 + 2 g q^n, which is asserted, as
are the two orbit sizes q+1 and q^3 - q.

Code matrices evaluate a pole-order basis of the one-point Riemann-Roch
space at all rational points except the distinguished one, in a fixed order
(affine points sorted by serialized (x, y, z), then infinite points by
serialized coordinate), so matrices are bit-identical across runs.  Their
rank profile can be certified on the leading columns alone
(`_rank_certificate`), which reads the stream only as far as it builds.
"""

from __future__ import annotations

from itertools import islice, product
from typing import NamedTuple

from .errors import InternalConsistencyError, NeedsLocalResolutionError, PoleEvaluationError
from .gf import GfContext, make_field, rank_profile
from .gk2 import CurveParams, o1_generators, orbit_semigroup, prime_power_decompose

ORBIT_INFINITE = "O1"
ORBIT_SMALL_AFFINE = "O2"
ORBIT_GENERIC = "generic"


class CurvePoint(NamedTuple):
    kind: str  # "affine" | "infinity"
    x: int | None = None
    y: int | None = None
    z: int | None = None
    a: int | None = None
    orbit: str = ORBIT_GENERIC

    def sort_key(self):
        if self.kind == "affine":
            return (0, self.x, self.y, self.z)
        return (1, self.a)


class PointCensus(NamedTuple):
    total: int
    o1: int
    o2: int
    generic: int


def field_context(params: CurveParams) -> GfContext:
    """The field F_{q^{2n}} the curve is maximal over."""
    p, e = prime_power_decompose(params.q)
    return make_field(p, e * 2 * params.n)


def small_field_elements(params: CurveParams, ctx: GfContext) -> frozenset[int]:
    """The subfield F_{q^2} inside F_{q^{2n}}."""
    p, e = prime_power_decompose(params.q)
    return frozenset(ctx.subfield_elements(2 * e))


def _fibers(params: CurveParams, ctx: GfContext):
    """Yield (j, ly, lw) per nonempty group of affine x-fibers with one x^{q+1}.

    With step = (order - 1)/(q + 1), the group j is the q+1 values
    x = g^(j + k step), k = 0..q; j is None for x = 0, a group of one, which
    comes first.  ly is None for the ramified group (j = 0), each of whose x
    carries the one point (x, 0, 0).  Otherwise the fiber of each x is
    y = g^(ly + i step), i = 0..q, and lw is None where w = 0 on the whole
    group (the O2 fibers), else log w = lw + (k + i) step at (x_k, y_i).  The
    module docstring derives the formulas.
    """
    q1, q2m1 = params.q + 1, params.q**2 - 1
    p, n = ctx.p, ctx.order - 1
    exp, log = ctx._exp, ctx._log
    yield None, log[p - 1] // q1, None
    for j, u in enumerate(islice(exp, 0, n, q1)):  # u = x^{q+1} at x = g^(j + k step)
        if u == 1:
            yield j, None, None
            continue
        ld = log[u - u % p + (u - 1) % p]  # subtracting 1 changes only digit 0
        if ld % q1:
            continue
        ly = ld // q1
        c = exp[q2m1 * j % n]  # x^{q^2-1}
        yield j, ly, None if c == 1 else ly + j + log[c - c % p + (c - 1) % p] - ld


def _affine_logs(params: CurveParams, ctx: GfContext):
    """Yield (x, lx, ly, lzs) per affine (x, y) that carries points, in normative order.

    lx is None for x = 0 and ly for y = 0 (a ramified x).  lzs is None for the
    O2 point (x, y, 0), else the m logs of z, sorted by z.  Once exhausted,
    the stream checks the point and orbit counts.
    """
    q1, m = params.q + 1, params.m
    n = ctx.order - 1
    ystep, zstep = n // q1, n // m
    exp = ctx._exp
    by_value = exp.__getitem__
    xs = []  # (x, lx, ly, lw) per x, lw the log of w at (x, g^ly)
    for j, ly, lw in _fibers(params, ctx):
        if j is None:
            xs.append((0, None, ly, None))
        else:
            xs += [(exp[lx], lx, ly, None if lw is None else (lw + lx - j) % n)
                   for lx in range(j, n, ystep)]
    o2 = generic = 0
    for x, lx, ly, lw in sorted(xs):
        if ly is None:
            o2 += 1
            yield x, lx, None, None
            continue
        for lyi in sorted(range(ly, n, ystep), key=by_value):
            if lw is None:
                o2 += 1
                yield x, lx, lyi, None
                continue
            l = (lw - ly + lyi) % n
            if l % m == 0:  # m | order - 1: w has m roots or none
                generic += m
                yield x, lx, lyi, sorted(range(l // m, n, zstep), key=by_value)
    o1 = len(ctx.nth_roots(ctx.one, q1))
    _check_census(params, PointCensus(o1 + o2 + generic, o1, o2, generic))


def iter_points(params: CurveParams, ctx: GfContext):
    """Yield all rational points in the normative order."""
    exp = ctx._exp
    for x, _, ly, lzs in _affine_logs(params, ctx):
        y = 0 if ly is None else exp[ly]
        if lzs is None:
            yield CurvePoint("affine", x, y, 0, None, ORBIT_SMALL_AFFINE)
        else:
            for lz in lzs:
                yield CurvePoint("affine", x, y, exp[lz], None, ORBIT_GENERIC)
    for a in ctx.nth_roots(ctx.one, params.q + 1):
        yield CurvePoint("infinity", None, None, None, a, ORBIT_INFINITE)


def enumerate_points(params: CurveParams, ctx: GfContext) -> list[CurvePoint]:
    """All rational points, sorted; count and orbit sizes are asserted."""
    return list(iter_points(params, ctx))


def _check_census(params: CurveParams, census: PointCensus):
    q = params.q
    expected = params.rational_point_count
    if census.total != expected:
        raise InternalConsistencyError(
            f"point count {census.total} != maximality count {expected} "
            f"for q={q}, n={params.n}"
        )
    if census.o1 != q + 1 or census.o2 != q**3 - q:
        raise InternalConsistencyError(
            f"orbit sizes ({census.o1}, {census.o2}) != ({q+1}, {q**3-q}) "
            f"for q={q}, n={params.n}"
        )


def census(params: CurveParams, ctx: GfContext) -> PointCensus:
    """Point and orbit counts without materializing the point list."""
    q1, m = params.q + 1, params.m
    step = (ctx.order - 1) // q1
    # hits[r]: how many of r, r + step, ..., r + q step m divides (m | order - 1);
    # group[r]: hits summed over a group's q+1 x, whose log w are r + k step
    hits = [sum((r + k * step) % m == 0 for k in range(q1)) for r in range(m)]
    group = [sum(hits[(r + k * step) % m] for k in range(q1)) for r in range(m)]
    o2 = generic = 0
    for j, ly, lw in _fibers(params, ctx):
        if lw is not None:
            generic += group[lw % m]
        elif j is None or ly is None:  # x = 0, with q+1 points; q+1 ramified x
            o2 += q1
        else:  # q+1 x, each with q+1 points (x, y, 0)
            o2 += q1 * q1
    o1 = len(ctx.nth_roots(ctx.one, q1))
    result = PointCensus(total=o1 + o2 + m * generic, o1=o1, o2=o2, generic=m * generic)
    _check_census(params, result)
    return result


def classify_point(params: CurveParams, ctx: GfContext, point: CurvePoint) -> str:
    """O1 for infinite points, O2 for small-field affine points, else generic."""
    if point.kind == "infinity":
        return ORBIT_INFINITE
    small = small_field_elements(params, ctx)
    if point.x in small and point.y in small and point.z in small:
        return ORBIT_SMALL_AFFINE
    return ORBIT_GENERIC


# ---------------------------------------------------------------------------
# pole-order basis of the one-point Riemann-Roch spaces
# ---------------------------------------------------------------------------


class PoleBasisFunction(NamedTuple):
    """Monomial in the orbit's generator functions.

    For O1 the generator functions are theta_i = z^i/(x+y) for i = 0..s
    (pole orders mq + i(q^2-q)) and (x-1)/(x+y) (pole order q^n + 1).
    For O2 they are z^k/(y-a) for k = 0..s (pole orders q^n + 1 - k) and
    x/(y-a) (pole order mq).  exponents follows that order, the extra
    generator last; pole_order is the weighted exponent sum.
    """

    orbit: str
    exponents: tuple[int, ...]
    pole_order: int


def generator_pole_orders(params: CurveParams, orbit: str) -> tuple[int, ...]:
    if orbit == ORBIT_INFINITE:
        gens = o1_generators(params)  # mq + i(q^2-q) ascending, then q^n+1
        return gens
    if orbit == ORBIT_SMALL_AFFINE:
        q, m, s = params.q, params.m, params.s
        return tuple(q**params.n + 1 - k for k in range(s + 1)) + (m * q,)
    raise ValueError(f"orbit must be 'O1' or 'O2', got {orbit!r}")


def _lex_min_exponents(target: int, weights: tuple[int, ...]) -> tuple[int, ...] | None:
    dead: set[tuple[int, int]] = set()

    def rec(i: int, rem: int):
        if rem == 0:
            return (0,) * (len(weights) - i)
        if i == len(weights) or (i, rem) in dead:
            return None
        w = weights[i]
        for e in range(rem // w + 1):
            tail = rec(i + 1, rem - e * w)
            if tail is not None:
                return (e,) + tail
        dead.add((i, rem))
        return None

    return rec(0, target)


def build_basis(params: CurveParams, orbit: str, count: int) -> list[PoleBasisFunction]:
    """One function per nongap up to the count-th, with that exact pole order."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    weights = generator_pole_orders(params, orbit)
    out = []
    for rho in orbit_semigroup(params, orbit).first_nongaps(count):
        exps = _lex_min_exponents(rho, weights)
        if exps is None:
            raise InternalConsistencyError(
                f"nongap {rho} not representable over pole orders {weights}"
            )
        out.append(PoleBasisFunction(orbit=orbit, exponents=exps, pole_order=rho))
    return out


def distinguished_point(params: CurveParams, ctx: GfContext, orbit: str) -> CurvePoint:
    """The point whose Riemann-Roch spaces the codes are built from.

    O1: the infinite point with coordinate -1.  O2: the affine point
    (0, a, 0) where a is the lexicographically smallest solution of
    a^{q+1} = -1 (coefficients compared low-to-high).
    """
    if orbit == ORBIT_INFINITE:
        return CurvePoint(kind="infinity", a=ctx.neg(ctx.one), orbit=ORBIT_INFINITE)
    if orbit == ORBIT_SMALL_AFFINE:
        roots = ctx.nth_roots(ctx.neg(ctx.one), params.q + 1)
        if not roots:
            raise InternalConsistencyError("no (q+1)-st root of -1 in the field")
        a = min(roots, key=ctx.coeffs)
        return CurvePoint(kind="affine", x=0, y=a, z=0, orbit=ORBIT_SMALL_AFFINE)
    raise ValueError(f"orbit must be 'O1' or 'O2', got {orbit!r}")


def _num_den(ctx: GfContext, orbit: str, point: CurvePoint, base: CurvePoint):
    """(num, den) of the orbit's extra generator at an affine point."""
    if orbit == ORBIT_INFINITE:
        return ctx.sub(point.x, ctx.one), ctx.add(point.x, point.y)
    return point.x, ctx.sub(point.y, base.y)


def eval_basis(
    params: CurveParams,
    ctx: GfContext,
    fn: PoleBasisFunction,
    point: CurvePoint,
    base: CurvePoint | None = None,
) -> int:
    """Value of a pole-basis monomial at a rational point.

    Both orbits share one formula: with the s+1 main exponents e_i and the
    extra exponent e, the value is z^{sum i e_i} num^e / den^{sum e_i + e},
    where (num, den) is (x - 1, x + y) for O1 and (x, y - a) for O2.  At an
    infinite point every main generator vanishes to positive order and the
    extra generator takes the limit 1/(1 + a) for O1 and 1/a for O2.  At the
    distinguished point itself only the constant (pole order 0) is defined.
    """
    if base is None:
        base = distinguished_point(params, ctx, fn.orbit)
    main_exps = fn.exponents[:-1]
    extra_exp = fn.exponents[-1]

    if point.sort_key() == base.sort_key():
        if fn.pole_order > 0:
            raise PoleEvaluationError(
                f"function with pole order {fn.pole_order} evaluated at its pole"
            )
        return ctx.one

    o1 = fn.orbit == ORBIT_INFINITE
    if point.kind == "infinity":
        if any(main_exps):
            return 0
        limit = ctx.add(ctx.one, point.a) if o1 else point.a
        return ctx.pow(ctx.inv(limit), extra_exp)
    num, den = _num_den(ctx, fn.orbit, point, base)
    if den == 0:
        raise NeedsLocalResolutionError(
            f"{'x + y' if o1 else 'y - a'} vanishes off the base point at "
            f"({point.x}, {point.y}, {point.z})"
        )
    z_pow = sum(i * e for i, e in enumerate(main_exps))
    den_pow = sum(main_exps) + extra_exp
    val = ctx.mul(ctx.pow(point.z, z_pow), ctx.pow(num, extra_exp))
    return ctx.mul(val, ctx.pow(ctx.inv(den), den_pow))


# ---------------------------------------------------------------------------
# evaluation code matrices
# ---------------------------------------------------------------------------


def evaluation_points(params: CurveParams, ctx: GfContext, orbit: str) -> list[CurvePoint]:
    """All rational points except the distinguished one, in normative order."""
    base = distinguished_point(params, ctx, orbit).sort_key()
    return [p for p in enumerate_points(params, ctx) if p.sort_key() != base]


def code_matrix(params: CurveParams, ctx: GfContext, orbit: str, count: int) -> list[list[int]]:
    """count x N evaluation matrix of the pole basis at the support points.

    Entries are computed in the log domain: at an affine point with z, num
    and den nonzero the value z^a num^e / den^d of `eval_basis` is
    g^(a log z + e log num - d log den), g the field's generator, so each
    point contributes its three logs once and each basis function its three
    exponents once.  `_affine_logs` gives the logs in the order of
    `evaluation_points`: per generic (x, y) the m log z, sorted by z, and log
    num and log den once (x - 1 by a digit operation, x + y or y - a by one
    `GfContext.add`).  The q^3 points with z = 0 or at infinity, less the
    base point, take their entries from `eval_basis`.
    num and den are never 0 at a generic point: x - 1 = 0 makes x ramified,
    x + y = 0 gives y^{q+1} = x^{q+1}, x = 0 has w = 0, and y = a gives
    x^{q+1} = 0; a zero there is an InternalConsistencyError.

    While the count-th pole order rho_count is below N, the first i rows
    evaluate a basis of L(rho_i P) for every i, so the rank profile must be
    1..count, else InternalConsistencyError.  The check runs on the leading
    K = 2 count, 4 count, ... columns and stops at the first K whose profile
    is 1..count, or at K >= N.  That is exact: the rank of the leading i rows
    restricted to K columns is at most their full rank, which is at most i,
    so a prefix with profile 1..count proves the full profile, and a failing
    matrix fails at every K, including K >= N, the full-width check.
    `_rank_certificate` reads the same profile off rows built only K columns
    wide.
    """
    base = distinguished_point(params, ctx, orbit)
    basis = build_basis(params, orbit, count)
    matrix = _basis_rows(params, ctx, base, basis)
    if basis[-1].pole_order < len(matrix[0]):
        profile = _prefix_rank_profile(ctx, matrix)
        if profile != list(range(1, count + 1)):
            raise InternalConsistencyError(
                f"evaluation matrix rank profile {profile} != 1..{count} for orbit "
                f"{orbit}, q={params.q}, n={params.n}"
            )
    return matrix


def _basis_rows(
    params: CurveParams,
    ctx: GfContext,
    base: CurvePoint,
    basis: list[PoleBasisFunction],
    ncols: int | None = None,
) -> list[list[int]]:
    """The rows of code_matrix on its leading ncols columns, or on all of them.

    The stream is read only as far as the ncols-th column, so the num/den
    guard runs on those columns only, and the stream's point-count check only
    when every column is built.
    """
    from array import array
    from sys import byteorder

    orbit = base.orbit
    base_key = base.sort_key()
    p, exp, log, add = ctx.p, ctx._exp, ctx._log, ctx.add
    n = ctx.order - 1
    is_o1 = orbit == ORBIT_INFINITE
    neg_a = ctx.neg(base.y) if not is_o1 else 0  # den = y + (-a) for O2
    # the columns log z, log num and -log den, each read as 8-byte slots of
    # one integer, so a row's exponents are one integer combination; with the
    # row's coefficients reduced mod n every slot stays below 3 n^2 < 2^64
    cols = col_z, col_num, col_den = array("Q"), array("Q"), array("Q")
    special = []  # (column, point) for the entries from eval_basis

    def hold(pt):
        if pt.sort_key() != base_key:
            special.append((len(col_z), pt))
            for col in cols:
                col.append(0)

    for x, lx, ly, lzs in _affine_logs(params, ctx):
        if lzs is None:  # an O2 point (x, y, 0)
            hold(CurvePoint("affine", x, 0 if ly is None else exp[ly], 0, None, ORBIT_SMALL_AFFINE))
        else:
            lnum = log[x - x % p + (x - 1) % p] if is_o1 else lx  # x - 1: digit 0 only
            lden = log[add(x if is_o1 else neg_a, exp[ly])]
            if lnum < 0 or lden < 0:
                raise InternalConsistencyError(f"num or den is 0 at the generic point ({x}, {exp[ly]}) "
                                               f"for orbit {orbit}, q={params.q}, n={params.n}")
            col_z.extend(lzs)
            col_num.extend([lnum] * len(lzs))
            col_den.extend([n - lden] * len(lzs))
        if ncols is not None and len(col_z) >= ncols:
            break
    else:
        for a in ctx.nth_roots(ctx.one, params.q + 1):
            hold(CurvePoint("infinity", None, None, None, a, ORBIT_INFINITE))
    if ncols is not None:
        for col in cols:
            del col[ncols:]
        special = [(j, pt) for j, pt in special if j < ncols]

    width = 8 * len(col_z)
    log_z, log_num, log_den_inv = (int.from_bytes(col, byteorder) for col in cols)
    rows = []
    for fn in basis:
        main, e = fn.exponents[:-1], fn.exponents[-1]
        a, d = sum(i * ei for i, ei in enumerate(main)), sum(main) + e
        combo = a % n * log_z + e % n * log_num + d % n * log_den_inv
        row = [exp[v % n] for v in memoryview(combo.to_bytes(width, byteorder)).cast("Q")]
        try:
            for j, pt in special:
                row[j] = eval_basis(params, ctx, fn, pt, base=base)
        except (PoleEvaluationError, NeedsLocalResolutionError) as exc:
            raise type(exc)(f"row for pole order {fn.pole_order}: {exc}") from exc
        rows.append(row)
    return rows


def _rank_certificate(params: CurveParams, ctx: GfContext, orbit: str, count: int) -> list[int]:
    """The rank profile of code_matrix(params, ctx, orbit, count), from rows only as wide as needed.

    The rows are built on the same leading K columns that _prefix_rank_profile
    tries, K = 2 count, 4 count, ... up to N, so a profile 1..count is read
    off the first K that proves it, with no full-width row built.
    """
    base = distinguished_point(params, ctx, orbit)
    basis = build_basis(params, orbit, count)
    ncols = params.rational_point_count - 1
    return _certified_profile(ctx, count, ncols, lambda k: _basis_rows(params, ctx, base, basis, k))


def _prefix_rank_profile(ctx: GfContext, rows: list[list[int]]) -> list[int]:
    """rank_profile(ctx, rows), read off the fewest leading columns that prove it."""
    ncols = len(rows[0]) if rows else 0
    return _certified_profile(ctx, len(rows), ncols, lambda k: [row[:k] for row in rows])


def _certified_profile(ctx: GfContext, count: int, ncols: int, leading) -> list[int]:
    """The rank profile of count rows of width ncols, from leading(K), the rows on K columns.

    Tries K = 2 count, 4 count, ... and returns the first profile that is
    1..count; otherwise the full-width profile (K = ncols).
    """
    full = list(range(1, count + 1))
    k = 2 * count
    while True:
        profile = rank_profile(ctx, leading(min(k, ncols)))
        if profile == full or k >= ncols:
            return profile
        k *= 2


def write_matrix(stream, ctx: GfContext, matrix: list[list[int]]) -> None:
    """Normative matrix file: header then one space-separated row per line."""
    ncols = len(matrix[0]) if matrix else 0
    stream.write(f"N={ncols} L={len(matrix)} p={ctx.p} deg={ctx.deg}\n")
    names = [str(v) for v in range(ctx.order)]  # one str() per element, not per entry
    for row in matrix:
        stream.write(" ".join(map(names.__getitem__, row)))
        stream.write("\n")


MAX_EXHAUSTIVE_WORDS = 1 << 18


def min_weight_exhaustive(ctx: GfContext, matrix: list[list[int]]) -> int:
    """Exact minimum Hamming weight of the row span, by full enumeration.

    Meant for two-row codes over small fields; anything past the word cap is
    rejected with the size so the caller sees why.
    """
    nrows = len(matrix)
    if nrows == 0:
        raise ValueError("empty matrix")
    words = ctx.order**nrows - 1
    if words > MAX_EXHAUSTIVE_WORDS:
        raise ValueError(
            f"{words} codewords exceed the exhaustive-scan cap {MAX_EXHAUSTIVE_WORDS}"
        )
    ncols = len(matrix[0])
    # precompute all scalar multiples of each row
    scaled = [
        {c: [ctx.mul(c, v) for v in row] for c in range(ctx.order)} for row in matrix
    ]
    best = ncols
    add = ctx.add
    for coefs in product(range(ctx.order), repeat=nrows):
        if not any(coefs):
            continue
        acc = scaled[0][coefs[0]]
        for r in range(1, nrows):
            nxt = scaled[r][coefs[r]]
            acc = [add(u, v) for u, v in zip(acc, nxt)]
        w = sum(1 for v in acc if v)
        if w < best:
            best = w
    return best
