"""Rational points, pole bases and code matrices.

The point walk is checked against three former implementations, kept here as
oracles: the first walked x -> y-fiber -> z-fiber separately for enumeration
and census and tagged O2 by testing every coordinate for membership in
F_{q^2}; the second was one per-x walk with field-method arithmetic that
yielded one record per y; the third was the log stream that sorted every x
before its first record.  Basis evaluation is checked the same way against
its former form, one branch per orbit.  The code matrix, whose columns are
read off the ordered log stream, is checked against its two former forms, one
eval_basis call per entry and one point record per column, and its
column-prefix rank certificate against the full-width rank profile, also
when the certificate's rows are built only on the leading columns.
"""

import io
import json
import random
import re
from sys import byteorder

import pytest

from gk2codes import cli, refdata
from gk2codes import curve as curve_mod
from gk2codes.cli import main
from gk2codes.curve import (
    CurvePoint,
    PointCensus,
    build_basis,
    census,
    classify_point,
    code_matrix,
    distinguished_point,
    enumerate_points,
    eval_basis,
    evaluation_points,
    field_context,
    generator_pole_orders,
    min_weight_exhaustive,
    small_field_elements,
    write_matrix,
)
from gk2codes.curve import _basis_rows, _certified_profile, _num_den, _rank_certificate
from gk2codes.errors import (
    InternalConsistencyError,
    NeedsLocalResolutionError,
    PoleEvaluationError,
)
from gk2codes.gf import GfContext, make_field, matrix_rank, rank_profile
from gk2codes.gk2 import curve_params, orbit_semigroup


@pytest.fixture(scope="module")
def p23():
    return curve_params(2, 3)


@pytest.fixture(scope="module")
def ctx23(p23):
    return field_context(p23)


@pytest.fixture(scope="module")
def points23(p23, ctx23):
    return enumerate_points(p23, ctx23)


@pytest.mark.parametrize(
    "q,n,total", [(2, 3, 225), (2, 5, 3969), (3, 3, 6076)]
)
def test_point_counts(q, n, total):
    params = curve_params(q, n)
    c = census(params, field_context(params))
    assert c.total == total == params.rational_point_count
    assert (c.o1, c.o2) == (q + 1, q**3 - q)


def test_census_agrees_with_enumeration(p23, ctx23, points23):
    c = census(p23, ctx23)
    assert c.total == len(points23)
    assert c.o1 == sum(1 for p in points23 if p.orbit == "O1")
    assert c.o2 == sum(1 for p in points23 if p.orbit == "O2")
    p33 = curve_params(3, 3)
    ctx33 = field_context(p33)
    assert census(p33, ctx33).total == len(enumerate_points(p33, ctx33))


def _fiber_w_oracle(ctx, q, x, y, denom):
    return ctx.div(ctx.mul(y, ctx.sub(ctx.pow(x, q * q), x)), denom)


def _iter_points_oracle(params, ctx):
    """Oracle: the former enumeration walk with its coordinate-wise O2 test."""
    q = params.q
    m = params.m
    small = small_field_elements(params, ctx)
    one = ctx.one
    for x in range(ctx.order):
        xq1 = ctx.pow(x, q + 1)
        if xq1 == one:
            yield CurvePoint(kind="affine", x=x, y=0, z=0, orbit="O2")
            continue
        denom = ctx.sub(xq1, one)
        for y in ctx.nth_roots(denom, q + 1):
            w = _fiber_w_oracle(ctx, q, x, y, denom)
            for z in ctx.nth_roots(w, m):
                if x in small and y in small and z in small:
                    orbit = "O2"
                else:
                    orbit = "generic"
                yield CurvePoint(kind="affine", x=x, y=y, z=z, orbit=orbit)
    for a in ctx.nth_roots(one, q + 1):
        yield CurvePoint(kind="infinity", a=a, orbit="O1")


def _census_oracle(params, ctx):
    """Oracle: the former census walk, counting totals and orbits separately."""
    q = params.q
    m = params.m
    small = small_field_elements(params, ctx)
    total = o2 = generic = 0
    for x in range(ctx.order):
        xq1 = ctx.pow(x, q + 1)
        if xq1 == ctx.one:
            total += 1
            o2 += 1
            continue
        denom = ctx.sub(xq1, ctx.one)
        for y in ctx.nth_roots(denom, q + 1):
            w = _fiber_w_oracle(ctx, q, x, y, denom)
            if w == 0:
                total += 1
                if x in small and y in small:
                    o2 += 1
                else:
                    generic += 1
            elif ctx.log(w) % m == 0:
                total += m
                generic += m
    o1 = len(ctx.nth_roots(ctx.one, q + 1))
    return PointCensus(total=total + o1, o1=o1, o2=o2, generic=generic)


def _xy_fibers_oracle(params, ctx):
    """Oracle: the former per-x walk, one (x, y, w) per y, in serialized x order."""
    q = params.q
    one = ctx.one
    for x in range(ctx.order):
        xq1 = ctx.pow(x, q + 1)
        if xq1 == one:
            yield x, 0, 0
            continue
        denom = ctx.sub(xq1, one)
        ys = ctx.nth_roots(denom, q + 1)
        frob = ctx.sub(ctx.pow(x, q * q), x) if ys else 0
        for y in ys:
            yield x, y, ctx.div(ctx.mul(y, frob), denom)


def _xy_iter_points_oracle(params, ctx):
    for x, y, w in _xy_fibers_oracle(params, ctx):
        orbit = "O2" if w == 0 else "generic"
        for z in ctx.nth_roots(w, params.m):
            yield CurvePoint(kind="affine", x=x, y=y, z=z, orbit=orbit)
    for a in ctx.nth_roots(ctx.one, params.q + 1):
        yield CurvePoint(kind="infinity", a=a, orbit="O1")


def _xy_census_oracle(params, ctx):
    m = params.m
    o2 = generic = 0
    for _, _, w in _xy_fibers_oracle(params, ctx):
        if w == 0:
            o2 += 1
        elif ctx.log(w) % m == 0:
            generic += m
    o1 = len(ctx.nth_roots(ctx.one, params.q + 1))
    return PointCensus(total=o1 + o2 + generic, o1=o1, o2=o2, generic=generic)


def _sorted_affine_logs_oracle(params, ctx):
    """Oracle: the former ordered stream, which expanded every group into its
    q+1 x and sorted all of them before its first record."""
    q1, m = params.q + 1, params.m
    n = ctx.order - 1
    ystep, zstep = n // q1, n // m
    exp = ctx._exp
    by_value = exp.__getitem__
    xs = []  # (x, lx, ly, lw) per x, lw the log of w at (x, g^ly)
    for j, ly, lw in curve_mod._fibers(params, ctx):
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
            if l % m == 0:
                generic += m
                yield x, lx, lyi, sorted(range(l // m, n, zstep), key=by_value)
    o1 = len(ctx.nth_roots(ctx.one, q1))
    curve_mod._check_census(params, PointCensus(o1 + o2 + generic, o1, o2, generic))


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 5), (4, 3), (5, 3), (3, 5), (2, 7)])
def test_value_order_stream_matches_sorted_oracle(q, n):
    params = curve_params(q, n)
    ctx = field_context(params)
    want = list(_sorted_affine_logs_oracle(params, ctx))
    assert list(curve_mod._affine_logs(params, ctx)) == want


@pytest.mark.parametrize("q,n", [(2, 3), (2, 5), (3, 3), (4, 3)])
def test_log_walk_points_match_xy_oracle(q, n):
    params = curve_params(q, n)
    ctx = field_context(params)
    assert enumerate_points(params, ctx) == list(_xy_iter_points_oracle(params, ctx))


@pytest.mark.parametrize("q,n", [(2, 3), (2, 5), (3, 3), (4, 3), (5, 3), (2, 7), (3, 5)])
def test_log_walk_census_matches_xy_oracle(q, n):
    params = curve_params(q, n)
    ctx = field_context(params)
    assert census(params, ctx) == _xy_census_oracle(params, ctx)


@pytest.mark.parametrize("q,n", [(2, 3), (2, 5), (3, 3)])
def test_enumeration_matches_oracle(q, n):
    params = curve_params(q, n)
    ctx = field_context(params)
    assert enumerate_points(params, ctx) == list(_iter_points_oracle(params, ctx))


@pytest.mark.parametrize("q,n", [(2, 3), (2, 5), (3, 3), (2, 7)])
def test_census_matches_oracle(q, n):
    params = curve_params(q, n)
    ctx = field_context(params)
    assert census(params, ctx) == _census_oracle(params, ctx)


def test_points_satisfy_curve_equations(p23, ctx23, points23):
    q, m = p23.q, p23.m
    f = ctx23
    for pt in points23:
        if pt.kind == "infinity":
            assert f.pow(pt.a, q + 1) == 1
            continue
        lhs = f.pow(pt.y, q + 1)
        rhs = f.sub(f.pow(pt.x, q + 1), 1)
        assert lhs == rhs
        # cleared-denominator z-equation, valid also when both sides vanish
        left = f.mul(f.pow(pt.z, m), f.sub(f.pow(pt.x, q + 1), 1))
        right = f.mul(pt.y, f.sub(f.pow(pt.x, q * q), pt.x))
        assert left == right


def test_points_are_distinct_and_sorted(points23):
    keys = [p.sort_key() for p in points23]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_z_vanishes_exactly_on_small_field_points(p23, ctx23, points23):
    for pt in points23:
        if pt.kind == "affine":
            assert (pt.z == 0) == (pt.orbit == "O2")


def test_classify_point(p23, ctx23, points23):
    for pt in points23[:50] + points23[-5:]:
        assert classify_point(p23, ctx23, pt) == pt.orbit
    inf = next(p for p in points23 if p.kind == "infinity")
    assert classify_point(p23, ctx23, inf) == "O1"


def test_generator_pole_orders(p23):
    assert generator_pole_orders(p23, "O1") == (6, 8, 9)
    assert generator_pole_orders(p23, "O2") == (9, 8, 6)
    p25 = curve_params(2, 5)
    assert generator_pole_orders(p25, "O1") == (22, 24, 26, 28, 30, 32, 33)
    assert generator_pole_orders(p25, "O2") == (33, 32, 31, 30, 29, 28, 22)


def test_build_basis_examples():
    p25 = curve_params(2, 5)
    basis = build_basis(p25, "O1", 2)
    assert [fn.pole_order for fn in basis] == [0, 22]
    assert basis[0].exponents == (0,) * 7
    assert basis[1].exponents == (1, 0, 0, 0, 0, 0, 0)
    by_order = {fn.pole_order: fn for fn in build_basis(p25, "O1", 10)}
    assert by_order[44].exponents == (2, 0, 0, 0, 0, 0, 0)
    o2 = {fn.pole_order: fn for fn in build_basis(p25, "O2", 8)}
    assert o2[33].exponents == (1, 0, 0, 0, 0, 0, 0)


def test_build_basis_pole_orders_match_semigroup(p23):
    for orbit in ("O1", "O2"):
        sg = orbit_semigroup(p23, orbit)
        basis = build_basis(p23, orbit, 25)
        weights = generator_pole_orders(p23, orbit)
        for i, fn in enumerate(basis, start=1):
            assert fn.pole_order == sg.nth_nongap(i)
            assert sum(e * w for e, w in zip(fn.exponents, weights)) == fn.pole_order


def test_eval_constant_is_one(p23, ctx23, points23):
    const = build_basis(p23, "O1", 1)[0]
    base = distinguished_point(p23, ctx23, "O1")
    for pt in points23[:20]:
        assert eval_basis(p23, ctx23, const, pt, base=base) == 1


def test_eval_alpha_vanishes_at_resolved_unit_point(p23, ctx23):
    # the pure extra-generator function (x-1)/(x+y) vanishes at (1, 0, 0)
    alpha = next(
        fn for fn in build_basis(p23, "O1", 10) if fn.exponents[-1] == 1
        and sum(fn.exponents[:-1]) == 0
    )
    val = eval_basis(p23, ctx23, alpha, CurvePoint(kind="affine", x=1, y=0, z=0, orbit="O2"))
    assert val == 0


def test_eval_x_over_tangent_at_x_zero(p23, ctx23):
    # f = x/(y-a) vanishes at affine points with x = 0, y != a
    f_fn = next(
        fn for fn in build_basis(p23, "O2", 10) if fn.exponents[-1] == 1
        and sum(fn.exponents[:-1]) == 0
    )
    base = distinguished_point(p23, ctx23, "O2")
    other = next(
        p for p in enumerate_points(p23, ctx23)
        if p.kind == "affine" and p.x == 0 and p != base
    )
    assert eval_basis(p23, ctx23, f_fn, other, base=base) == 0


def test_eval_detects_base_by_coordinates(p23, ctx23):
    # a caller-built point without the orbit tag still counts as the pole
    fn = build_basis(p23, "O1", 2)[1]
    bare = CurvePoint(kind="infinity", a=ctx23.neg(ctx23.one))
    with pytest.raises(PoleEvaluationError):
        eval_basis(p23, ctx23, fn, bare)


def _eval_basis_oracle(ctx, fn, point, base):
    """Oracle: the former basis evaluation, with one branch per orbit."""
    main_exps = fn.exponents[:-1]
    extra_exp = fn.exponents[-1]
    if point.sort_key() == base.sort_key():
        if fn.pole_order > 0:
            raise PoleEvaluationError("pole")
        return ctx.one
    if fn.orbit == "O1":
        if point.kind == "infinity":
            if any(main_exps):
                return 0
            return ctx.pow(ctx.inv(ctx.add(ctx.one, point.a)), extra_exp)
        rho = ctx.add(point.x, point.y)
        if rho == 0:
            raise NeedsLocalResolutionError("x + y")
        z_pow = sum(i * e for i, e in enumerate(main_exps))
        den_pow = sum(main_exps) + extra_exp
        val = ctx.mul(ctx.pow(point.z, z_pow), ctx.pow(ctx.sub(point.x, ctx.one), extra_exp))
        return ctx.mul(val, ctx.pow(ctx.inv(rho), den_pow))
    if point.kind == "infinity":
        if any(main_exps):
            return 0
        return ctx.pow(ctx.inv(point.a), extra_exp)
    den = ctx.sub(point.y, base.y)
    if den == 0:
        raise NeedsLocalResolutionError("y - a")
    z_pow = sum(k * e for k, e in enumerate(main_exps))
    den_pow = sum(main_exps) + extra_exp
    val = ctx.mul(ctx.pow(point.z, z_pow), ctx.pow(point.x, extra_exp))
    return ctx.mul(val, ctx.pow(ctx.inv(den), den_pow))


def _value_or_error(evaluate, *args):
    try:
        return evaluate(*args)
    except (PoleEvaluationError, NeedsLocalResolutionError) as exc:
        return type(exc)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("orbit", ["O1", "O2"])
def test_eval_basis_matches_oracle(q, n, orbit):
    params = curve_params(q, n)
    ctx = field_context(params)
    base = distinguished_point(params, ctx, orbit)
    # every rational point (base and infinite points included), plus two
    # off-curve probes on which each orbit's denominator vanishes
    probes = enumerate_points(params, ctx) + [
        CurvePoint(kind="affine", x=1, y=ctx.neg(1), z=1),
        CurvePoint(kind="affine", x=1, y=base.y if base.kind == "affine" else 1, z=1),
    ]
    errors = set()
    for fn in build_basis(params, orbit, 16):
        for pt in probes:
            got = _value_or_error(eval_basis, params, ctx, fn, pt, base)
            assert got == _value_or_error(_eval_basis_oracle, ctx, fn, pt, base), (fn, pt)
            errors.add(got if isinstance(got, type) else None)
    assert errors == {None, PoleEvaluationError, NeedsLocalResolutionError}


def test_eval_at_pole_rejected(p23, ctx23):
    base = distinguished_point(p23, ctx23, "O1")
    fn = build_basis(p23, "O1", 2)[1]
    with pytest.raises(PoleEvaluationError):
        eval_basis(p23, ctx23, fn, base, base=base)
    base2 = distinguished_point(p23, ctx23, "O2")
    fn2 = build_basis(p23, "O2", 2)[1]
    with pytest.raises(PoleEvaluationError):
        eval_basis(p23, ctx23, fn2, base2, base=base2)


def test_no_affine_point_hits_rho_zero(p23, ctx23, points23):
    # x + y = 0 has no affine solutions on the curve, so O1 evaluation
    # never needs local resolution
    for pt in points23:
        if pt.kind == "affine":
            assert ctx23.add(pt.x, pt.y) != 0


def test_evaluation_points_exclude_base(p23, ctx23):
    for orbit in ("O1", "O2"):
        pts = evaluation_points(p23, ctx23, orbit)
        assert len(pts) == p23.rational_point_count - 1
        assert distinguished_point(p23, ctx23, orbit) not in pts


def test_code_matrix_all_ones_row(p23, ctx23):
    m = code_matrix(p23, ctx23, "O1", 1)
    assert len(m) == 1 and len(m[0]) == 224
    assert all(v == 1 for v in m[0])


def test_rank_staircase_small(p23, ctx23):
    for orbit in ("O1", "O2"):
        prev = 0
        for count in range(1, 13):
            m = code_matrix(p23, ctx23, orbit, count)
            r = matrix_rank(ctx23, m)
            assert r == count == prev + 1
            prev = r


def _prefix_rank_profile(ctx, rows):
    """rank_profile(ctx, rows), read off the fewest leading column slices that prove it."""
    ncols = len(rows[0]) if rows else 0
    return _certified_profile(ctx, len(rows), ncols, lambda k: [row[:k] for row in rows])


def _certificate(params, ctx, orbit, count):
    """_rank_certificate on the base point and basis that code_matrix builds."""
    base = distinguished_point(params, ctx, orbit)
    return _rank_certificate(params, ctx, base, curve_mod.build_basis(params, orbit, count))


def _per_entry_matrix_oracle(params, ctx, orbit, count):
    """Oracle: the former code matrix, one eval_basis call per entry."""
    base = distinguished_point(params, ctx, orbit)
    points = evaluation_points(params, ctx, orbit)
    return [
        [eval_basis(params, ctx, fn, pt, base=base) for pt in points]
        for fn in build_basis(params, orbit, count)
    ]


@pytest.mark.parametrize(
    "q,n,orbit,l",
    [(2, 3, "O1", 30), (2, 3, "O2", 30), (3, 3, "O1", 16), (3, 3, "O2", 10),
     (2, 5, "O2", 30), (4, 3, "O1", 10), (2, 5, "O1", 10), (3, 3, "O1", 10)],
)
def test_log_domain_matrix_matches_per_entry_oracle(q, n, orbit, l):
    params = curve_params(q, n)
    ctx = field_context(params)
    m = code_matrix(params, ctx, orbit, l)
    assert m == _per_entry_matrix_oracle(params, ctx, orbit, l)
    assert _prefix_rank_profile(ctx, m) == rank_profile(ctx, m) == list(range(1, l + 1))


def _per_point_matrix_oracle(params, ctx, orbit, count):
    """Oracle: the former code matrix, one point record and one _num_den per column.

    The columns' log z, log num and -log den go into 8-byte slots of one
    integer each, and each row is one integer combination of the three.
    """
    base = distinguished_point(params, ctx, orbit)
    points = evaluation_points(params, ctx, orbit)
    exp, log = ctx._exp, ctx._log
    n = ctx.order - 1
    width = 8 * len(points)
    slots = [memoryview(bytearray(width)).cast("Q") for _ in range(3)]
    special = []
    for j, pt in enumerate(points):
        z = pt.z or 0  # None at the infinite points
        num, den = _num_den(ctx, orbit, pt, base) if z else (0, 0)
        if not (num and den):
            special.append(j)
            continue
        slots[0][j], slots[1][j], slots[2][j] = log[z], log[num], n - log[den]
    log_z, log_num, log_den_inv = (int.from_bytes(s, byteorder) for s in slots)
    matrix = []
    for fn in build_basis(params, orbit, count):
        main, e = fn.exponents[:-1], fn.exponents[-1]
        a, d = sum(i * ei for i, ei in enumerate(main)), sum(main) + e
        combo = a % n * log_z + e % n * log_num + d % n * log_den_inv
        row = [exp[v % n] for v in memoryview(combo.to_bytes(width, byteorder)).cast("Q")]
        for j in special:
            row[j] = eval_basis(params, ctx, fn, points[j], base=base)
        matrix.append(row)
    return matrix


# p = 5 catches an O2 den of y + a for y - a, and every case a z-block out
# of serialized order; (2, 3, O2) at l = N is past the rank check
@pytest.mark.parametrize(
    "q,n,orbit,l",
    [(5, 3, "O2", 5), (4, 3, "O2", 12), (2, 5, "O1", 10), (2, 7, "O1", 3), (2, 3, "O2", 224)],
)
def test_walk_matrix_matches_per_point_oracle(q, n, orbit, l):
    params = curve_params(q, n)
    ctx = field_context(params)
    assert code_matrix(params, ctx, orbit, l) == _per_point_matrix_oracle(params, ctx, orbit, l)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("orbit", ["O1", "O2"])
def test_code_matrix_evaluates_only_special_points(monkeypatch, q, n, orbit):
    # the q^3 points with z = 0 or at infinity, less the base point, per row,
    # and those among the leading K columns of each certificate width K; the
    # matrix is read off the ordered log stream, with no point list built
    params = curve_params(q, n)
    ctx = field_context(params)
    l = 10
    want = _per_entry_matrix_oracle(params, ctx, orbit, l)
    points = evaluation_points(params, ctx, orbit)
    calls, widths = [], []
    real, real_rank_profile = curve_mod.eval_basis, curve_mod.rank_profile

    def counting(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    def counted(ctx, rows):
        widths.append(len(rows[0]))
        return real_rank_profile(ctx, rows)

    def unused(*args):
        raise AssertionError("a point list was built")

    monkeypatch.setattr(curve_mod, "eval_basis", counting)
    monkeypatch.setattr(curve_mod, "rank_profile", counted)
    for name in ("iter_points", "enumerate_points", "evaluation_points"):
        monkeypatch.setattr(curve_mod, name, unused)
    assert code_matrix(params, ctx, orbit, l) == want
    certified = sum(pt.kind == "infinity" or pt.z == 0 for k in widths for pt in points[:k])
    assert len(calls) == l * certified + l * q**3
    if orbit == "O1":  # (3, 3) widens from 20 to 40 columns
        assert (widths, l * certified) == {2: ([20], 40), 3: ([20, 40], 120)}[q]
    assert all(pt.kind == "infinity" or pt.z == 0 for pt in calls)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (4, 3), (5, 3), (2, 5)])
def test_num_den_nonzero_at_every_generic_point(q, n):
    # why code_matrix takes only the special points from eval_basis
    params = curve_params(q, n)
    ctx = field_context(params)
    points = enumerate_points(params, ctx)
    by_xy = {(pt.x, pt.y): pt for pt in points if pt.orbit == "generic"}  # num, den: x, y only
    assert len(by_xy) * params.m == len(points) - q**3 - 1
    for orbit in ("O1", "O2"):
        base = distinguished_point(params, ctx, orbit)
        assert all(all(_num_den(ctx, orbit, pt, base)) for pt in by_xy.values())


def test_code_matrix_rejects_a_zero_num_at_a_generic_point(monkeypatch, p23, ctx23):
    # a generic record at the ramified x = 1, where x - 1 = 0: only a broken
    # stream yields it, and no column may take log 0
    real = curve_mod._affine_logs

    def with_ramified(params, ctx):
        yield 1, 0, 0, [0, 21, 42]
        yield from real(params, ctx)

    monkeypatch.setattr(curve_mod, "_affine_logs", with_ramified)
    with pytest.raises(
        InternalConsistencyError,
        match=r"^num or den is 0 at the generic point \(1, 1\) for orbit O1, q=2, n=3$",
    ):
        code_matrix(p23, ctx23, "O1", 2)


def test_stream_census_check_reaches_both_consumers(p23, ctx23):
    wrong = p23._replace(rational_point_count=p23.rational_point_count + 1)
    for consume in (enumerate_points, lambda params, ctx: code_matrix(params, ctx, "O2", 2)):
        with pytest.raises(
            InternalConsistencyError,
            match=r"^point count 225 != maximality count 226 for q=2, n=3$",
        ):
            consume(wrong, ctx23)


def test_census_leaves_zech_table_unbuilt():
    params = curve_params(3, 5)
    ctx = GfContext(3, 10)  # a fresh context: the cached one may have added already
    census(params, ctx)
    assert ctx._zech is None
    assert ctx.add(1, 1) == 2 and ctx._zech is not None


@pytest.mark.parametrize("p,deg", [(2, 6), (3, 2)])
def test_prefix_rank_profile_matches_full_width(p, deg):
    ctx = make_field(p, deg)
    rng = random.Random(p * 100 + deg)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 30)
        rows = [[rng.randrange(ctx.order) if rng.random() < 0.7 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.3:  # a repeated row
            rows[rng.randrange(1, nrows)] = list(rows[0])
        assert _prefix_rank_profile(ctx, rows) == rank_profile(ctx, rows)


def test_prefix_certificate_widens_past_zero_leading_columns():
    # N = 4 count: the first 2 count columns are zero, so K widens to N, and
    # only the last column carries the last row's pivot
    ctx = make_field(3, 2)
    count = 4
    rows = [[0] * (3 * count) + [int(j == i) for j in range(count)] for i in range(count)]
    assert _prefix_rank_profile(ctx, rows) == [1, 2, 3, 4]


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 5)])
@pytest.mark.parametrize("orbit", ["O1", "O2"])
def test_rank_certificate_matches_full_rows(q, n, orbit):
    params = curve_params(q, n)
    ctx = field_context(params)
    for count in (1, 2, 5, 10):
        full = rank_profile(ctx, code_matrix(params, ctx, orbit, count))
        assert _certificate(params, ctx, orbit, count) == full == list(range(1, count + 1))


@pytest.mark.parametrize("orbit", ["O1", "O2"])
def test_prefix_rows_are_the_leading_columns_of_code_matrix(p23, ctx23, orbit):
    # widths that end among the z = 0 points, at and inside z-blocks, among the
    # infinite points, and at N
    full = code_matrix(p23, ctx23, orbit, 10)
    base = distinguished_point(p23, ctx23, orbit)
    basis = build_basis(p23, orbit, 10)
    for k in (1, 7, 20, 101, 223, 224):
        assert _basis_rows(p23, ctx23, base, basis, k) == [row[:k] for row in full]


def test_rank_certificate_stops_reading_at_its_prefix(p23, ctx23):
    # with a wrong point count the stream's check fails once exhausted; the
    # certificate's first prefix, 2 count columns, proves 1..count before that
    wrong = p23._replace(rational_point_count=p23.rational_point_count + 1)
    assert _certificate(wrong, ctx23, "O1", 10) == list(range(1, 11))
    with pytest.raises(InternalConsistencyError, match=r"^point count 225 != maximality count 226"):
        code_matrix(wrong, ctx23, "O1", 10)


def _repeat_last_basis_function(monkeypatch):
    real = curve_mod.build_basis

    def repeat_last(params, orbit, count):
        basis = real(params, orbit, count - 1)
        return basis + basis[-1:]

    monkeypatch.setattr(curve_mod, "build_basis", repeat_last)


def test_rank_certificate_of_a_dependent_row_is_the_full_width_profile(monkeypatch, p23, ctx23):
    # no prefix proves 1..count, so the certificate widens to all N columns
    _repeat_last_basis_function(monkeypatch)
    widths = []
    real_rank_profile = curve_mod.rank_profile

    def counted(ctx, rows):
        widths.append(len(rows[0]))
        return real_rank_profile(ctx, rows)

    monkeypatch.setattr(curve_mod, "rank_profile", counted)
    assert _certificate(p23, ctx23, "O2", 10) == list(range(1, 10)) + [9]
    assert widths == [20, 40, 80, 160, 224]


def test_code_matrix_dependent_row_raises(monkeypatch, p23, ctx23):
    _repeat_last_basis_function(monkeypatch)
    with pytest.raises(
        InternalConsistencyError,
        match=r"^evaluation matrix rank profile \[1, 2, 3, 3\] != 1\.\.4 for orbit O1, q=2, n=3$",
    ):
        code_matrix(p23, ctx23, "O1", 4)


def test_min_weight_constant_code(p23, ctx23):
    m = code_matrix(p23, ctx23, "O1", 1)
    assert min_weight_exhaustive(ctx23, m) == 224


@pytest.mark.parametrize("orbit", ["O1", "O2"])
def test_min_weight_l2_meets_goppa_bound(p23, ctx23, orbit):
    sg = orbit_semigroup(p23, orbit)
    assert sg.nth_nongap(2) == 6
    m = code_matrix(p23, ctx23, orbit, 2)
    d = min_weight_exhaustive(ctx23, m)
    assert d >= 224 - 6
    # the degree bound is attained here: some pole-order-6 function has six
    # distinct rational zeros off the base point
    assert d == 218


def test_min_weight_constant_and_unit_root_function(p23, ctx23):
    # span of {1, (x-1)/(x+y)}: pole order q^n+1 = 9, so no nonzero combination
    # may vanish at more than 9 of the 224 points, infinite columns included
    basis = build_basis(p23, "O1", 10)
    const = basis[0]
    alpha = next(
        fn for fn in basis if fn.exponents[-1] == 1 and sum(fn.exponents[:-1]) == 0
    )
    assert alpha.pole_order == 9
    pts = evaluation_points(p23, ctx23, "O1")
    base = distinguished_point(p23, ctx23, "O1")
    rows = [
        [eval_basis(p23, ctx23, fn, pt, base=base) for pt in pts]
        for fn in (const, alpha)
    ]
    assert min_weight_exhaustive(ctx23, rows) >= 224 - 9


def test_min_weight_size_cap(p23, ctx23):
    m = code_matrix(p23, ctx23, "O1", 5)
    with pytest.raises(ValueError, match="cap"):
        min_weight_exhaustive(ctx23, m)


def test_matrix_file_format(p23, ctx23):
    m = code_matrix(p23, ctx23, "O1", 3)
    buf = io.StringIO()
    write_matrix(buf, ctx23, m)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "N=224 L=3 p=2 deg=6"
    assert len(lines) == 4
    first = lines[1].split(" ")
    assert len(first) == 224
    assert all(0 <= int(v) < 64 for v in first)
    assert buf.getvalue().endswith("\n")


@pytest.mark.parametrize("orbit", ["O1", "O2"])
def test_basis_check_fires_without_the_smallest_pole_order(monkeypatch, p23, orbit):
    # the smallest pole order is the first positive nongap, and no sum of the
    # larger ones reaches it
    real = curve_mod.generator_pole_orders

    def without_smallest(params, orbit):
        weights = real(params, orbit)
        return tuple(w for w in weights if w != min(weights))

    monkeypatch.setattr(curve_mod, "generator_pole_orders", without_smallest)
    rho, weights = min(real(p23, orbit)), without_smallest(p23, orbit)
    message = f"nongap {rho} not representable over pole orders {weights}"
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
        build_basis(p23, orbit, 2)


def test_distinguished_point_check_fires_without_roots_of_minus_one(monkeypatch, capsys, p23,
                                                                    ctx23):
    monkeypatch.setattr(GfContext, "nth_roots", lambda self, c, d: [])
    message = "no (q+1)-st root of -1 in the field"
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
        distinguished_point(p23, ctx23, "O2")
    code = main(["code-matrix", "--q", "2", "--n", "3", "--orbit", "O2", "--l", "4"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"internal consistency failure: {message}\n")


def test_unresolved_evaluation_exits_3_without_output(monkeypatch, capsys, tmp_path):
    def unresolved(*args, **kwargs):
        raise NeedsLocalResolutionError("probe")

    monkeypatch.setattr(curve_mod, "eval_basis", unresolved)
    path = tmp_path / "matrix"
    code = main(["code-matrix", "--q", "2", "--n", "3", "--orbit", "O2", "--l", "4",
                 "-o", str(path)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (
        cli.EXIT_UNRESOLVED, "", "needs local resolution: row for pole order 0: probe\n")
    assert not path.exists()


def test_verify_reports_a_failed_rank_staircase(monkeypatch, capsys):
    argv = ["verify", "--q", "2", "--n", "3"]
    assert main(argv) == 0
    want = json.loads(capsys.readouterr().out)
    _repeat_last_basis_function(monkeypatch)
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.err) == (2, "")
    got = json.loads(out.out)
    for check in want["checks"]:
        if check["name"] == "rank_staircase_l_le_10":
            check["ok"] = False
    assert got == {**want, "all_ok": False}


@pytest.mark.parametrize("call,message", [
    (lambda p, ctx: generator_pole_orders(p, "O3"), "orbit must be 'O1' or 'O2', got 'O3'"),
    (lambda p, ctx: distinguished_point(p, ctx, "O3"), "orbit must be 'O1' or 'O2', got 'O3'"),
    (lambda p, ctx: build_basis(p, "O1", 0), "count must be >= 1, got 0"),
    (lambda p, ctx: min_weight_exhaustive(ctx, []), "empty matrix"),
    (lambda p, ctx: GfContext(2, 0), "deg must be >= 1, got 0"),
    (lambda p, ctx: ctx.from_coeffs([1] * 7), "too many coefficients for degree 6"),
    (lambda p, ctx: ctx.coeffs(64), "element 64 outside field of order 64"),
    (lambda p, ctx: ctx.log(0), "discrete log of 0"),
    (lambda p, ctx: ctx.nth_roots(1, 0), "root degree must be >= 1, got 0"),
    (lambda p, ctx: orbit_semigroup(p, "O1").nth_nongap(0), "nongap index must be >= 1, got 0"),
    (lambda p, ctx: refdata._notes(curve_params(3, 3), "O1", []),
     "no reference table for q=3, n=3"),
    (lambda p, ctx: refdata.compare_quantum_table(
        curve_params(3, 3), orbit_semigroup(curve_params(3, 3), "O1"), "O1"),
     "no reference table for q=3, n=3"),
], ids=["generator_pole_orders", "distinguished_point", "build_basis", "min_weight_exhaustive",
        "GfContext", "from_coeffs", "coeffs", "log", "nth_roots", "nth_nongap", "_notes",
        "compare_quantum_table"])
def test_input_guard_rejects_with_its_message(p23, ctx23, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(p23, ctx23)


def test_census_check_fires_on_wrong_orbit_sizes(p23, ctx23):
    c = census(p23, ctx23)
    with pytest.raises(InternalConsistencyError,
                       match=r"^orbit sizes \(4, 5\) != \(3, 6\) for q=2, n=3$"):
        curve_mod._check_census(p23, PointCensus(c.total, c.o1 + 1, c.o2 - 1, c.generic))


def test_eval_basis_raises_off_the_curve_where_x_plus_y_vanishes(p23, ctx23):
    # x + y = 0 gives y^{q+1} = x^{q+1}, so no affine point of the curve has it
    fn = build_basis(p23, "O1", 2)[1]
    y = ctx23.neg(2)
    message = f"x + y vanishes off the base point at (2, {y}, 1)"
    with pytest.raises(NeedsLocalResolutionError, match=f"^{re.escape(message)}$"):
        eval_basis(p23, ctx23, fn, CurvePoint(kind="affine", x=2, y=y, z=1))


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 5), (4, 3), (5, 3), (3, 5), (2, 7)])
def test_no_denominator_vanishes_at_an_o2_point_off_the_base_point(q, n):
    # the O2 points are the affine points with z = 0; the O1 base point is at
    # infinity, and y = a holds at the O2 base point alone
    params = curve_params(q, n)
    ctx = field_context(params)
    exp = ctx._exp
    points = [CurvePoint("affine", x, 0 if ly is None else exp[ly], 0)
              for x, _, ly, lzs in curve_mod._affine_logs(params, ctx) if lzs is None]
    assert len(points) == q**3 - q
    for orbit in ("O1", "O2"):
        base = distinguished_point(params, ctx, orbit)
        others = [pt for pt in points if pt.sort_key() != base.sort_key()]
        assert len(others) == len(points) - (orbit == "O2")
        assert all(_num_den(ctx, orbit, pt, base)[1] for pt in others), orbit
