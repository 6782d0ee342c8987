"""Rational points of the curve family and explicit evaluation codes.

The affine model is y^{q+1} = x^{q+1} - 1, z^m = y (x^{q^2} - x)/(x^{q+1} - 1)
over F_{q^{2n}}.  One walk, `_fibers`, serves enumeration and the census: it
runs x through the field and yields one (x, y, w) per affine y-fiber, w the
right-hand side of the z-equation.  The q+1 values with x^{q+1} = 1 give a
single smooth-model point (x, 0, 0) each (the fiber formula degenerates to
0/0 there, and the divisor of z forces z = 0), yielded as w = 0.  Enumeration
expands each fiber into its m-th roots z; the census counts one point where
w = 0 and m points where w is a nonzero m-th power.  The q+1 points at
infinity carry a (q+1)-st root of unity as coordinate.

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
serialized coordinate), so matrices are bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import InternalConsistencyError, NeedsLocalResolutionError, PoleEvaluationError
from .gf import GfContext, make_field, rank_profile
from .gk2 import CurveParams, o1_generators, orbit_semigroup, prime_power_decompose
from .semigroup import NumericalSemigroup

ORBIT_INFINITE = "O1"
ORBIT_SMALL_AFFINE = "O2"
ORBIT_GENERIC = "generic"


@dataclass(frozen=True, slots=True)
class CurvePoint:
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


@dataclass(frozen=True)
class PointCensus:
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
    """Yield (x, y, w) per affine y-fiber in serialized order; w = 0 iff O2."""
    q = params.q
    one = ctx.one
    for x in range(ctx.order):
        xq1 = ctx.pow(x, q + 1)
        if xq1 == one:
            # totally ramified fiber: the single resolved point (x, 0, 0)
            yield x, 0, 0
            continue
        denom = ctx.sub(xq1, one)
        ys = ctx.nth_roots(denom, q + 1)  # empty for about q/(q+1) of all x
        frob = ctx.sub(ctx.pow(x, q * q), x) if ys else 0
        for y in ys:
            yield x, y, ctx.div(ctx.mul(y, frob), denom)


def iter_points(params: CurveParams, ctx: GfContext):
    """Yield all rational points in the normative order."""
    for x, y, w in _fibers(params, ctx):
        orbit = ORBIT_SMALL_AFFINE if w == 0 else ORBIT_GENERIC
        for z in ctx.nth_roots(w, params.m):
            yield CurvePoint(kind="affine", x=x, y=y, z=z, orbit=orbit)
    for a in ctx.nth_roots(ctx.one, params.q + 1):
        yield CurvePoint(kind="infinity", a=a, orbit=ORBIT_INFINITE)


def enumerate_points(params: CurveParams, ctx: GfContext) -> list[CurvePoint]:
    """All rational points, sorted; count and orbit sizes are asserted."""
    points = list(iter_points(params, ctx))
    _check_census(
        params,
        PointCensus(
            total=len(points),
            o1=sum(1 for p in points if p.orbit == ORBIT_INFINITE),
            o2=sum(1 for p in points if p.orbit == ORBIT_SMALL_AFFINE),
            generic=sum(1 for p in points if p.orbit == ORBIT_GENERIC),
        ),
    )
    return points


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
    m = params.m
    o2 = generic = 0
    for _, _, w in _fibers(params, ctx):
        if w == 0:
            o2 += 1
        elif ctx.log(w) % m == 0:  # m divides q^{2n}-1: w has m roots or none
            generic += m
    o1 = len(ctx.nth_roots(ctx.one, params.q + 1))
    result = PointCensus(total=o1 + o2 + generic, o1=o1, o2=o2, generic=generic)
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


@dataclass(frozen=True)
class PoleBasisFunction:
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


def build_basis(
    params: CurveParams,
    orbit: str,
    count: int,
    semigroup: NumericalSemigroup | None = None,
) -> list[PoleBasisFunction]:
    """One function per nongap up to the count-th, with that exact pole order."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    sg = semigroup if semigroup is not None else orbit_semigroup(params, orbit)
    weights = generator_pole_orders(params, orbit)
    out = []
    for i in range(1, count + 1):
        rho = sg.nth_nongap(i)
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
    if o1:
        num, den, name = ctx.sub(point.x, ctx.one), ctx.add(point.x, point.y), "x + y"
    else:
        num, den, name = point.x, ctx.sub(point.y, base.y), "y - a"
    if den == 0:
        raise NeedsLocalResolutionError(
            f"{name} vanishes off the base point at ({point.x}, {point.y}, {point.z})"
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

    While the count-th pole order rho_count is below N, the first i rows
    evaluate a basis of L(rho_i P) for every i, so the rank profile must be
    1..count; one elimination checks it and a failure raises
    InternalConsistencyError.
    """
    base = distinguished_point(params, ctx, orbit)
    points = evaluation_points(params, ctx, orbit)
    sg = orbit_semigroup(params, orbit)
    basis = build_basis(params, orbit, count, semigroup=sg)
    matrix = []
    for fn in basis:
        try:
            matrix.append([eval_basis(params, ctx, fn, pt, base=base) for pt in points])
        except (PoleEvaluationError, NeedsLocalResolutionError) as exc:
            raise type(exc)(f"row for pole order {fn.pole_order}: {exc}") from exc
    if sg.nth_nongap(count) < len(points):
        profile = rank_profile(ctx, matrix)
        if profile != list(range(1, count + 1)):
            raise InternalConsistencyError(
                f"evaluation matrix rank profile {profile} != 1..{count} for orbit "
                f"{orbit}, q={params.q}, n={params.n}"
            )
    return matrix


def write_matrix(stream, ctx: GfContext, matrix: list[list[int]]) -> None:
    """Normative matrix file: header then one space-separated row per line."""
    ncols = len(matrix[0]) if matrix else 0
    stream.write(f"N={ncols} L={len(matrix)} p={ctx.p} deg={ctx.deg}\n")
    for row in matrix:
        stream.write(" ".join(str(v) for v in row))
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
