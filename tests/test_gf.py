import random
from itertools import islice, product

import pytest

from gk2codes.gf import (
    MAX_FIELD_SIZE,
    GfContext,
    _find_generator,
    _is_irreducible,
    _prime_factors,
    _Ring,
    _smallest_irreducible,
    make_field,
    matrix_rank,
    rank_profile,
)


# ---------------------------------------------------------------------------
# oracles: the former list-polynomial arithmetic over F_p (little-endian
# coefficient lists), one coefficient product at a time
# ---------------------------------------------------------------------------


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


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


def _poly_of(p, e):
    """The trimmed coefficient list of a serialized element."""
    out = []
    while e:
        e, c = divmod(e, p)
        out.append(c)
    return out


def _int_of(p, poly):
    return sum(c * p**i for i, c in enumerate(poly))


def _poly_is_irreducible(poly, p):
    """Oracle: the former Rabin test, one list powmod per power of x."""
    d = len(poly) - 1
    if d == 1:
        return True
    if poly[0] == 0:
        return False
    x = [0, 1]
    xp = _poly_powmod(x, p**d, poly, p)
    if _poly_trim(list(xp)) != [0, 1]:
        return False
    for r in _prime_factors(d):
        xe = _poly_powmod(x, p ** (d // r), poly, p)
        diff = list(xe) + [0] * (2 - len(xe))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(poly, diff, p)) > 1:
            return False
    return True


def _poly_find_generator(p, deg, modulus):
    """Oracle: the former generator search, one list powmod per candidate and prime."""
    n = p**deg - 1
    if n == 1:
        return 1
    factors = _prime_factors(n)
    for cand in range(2, n + 1):
        cp = _poly_of(p, cand)
        if all(_int_of(p, _poly_powmod(cp, n // r, list(modulus), p)) != 1 for r in factors):
            return cand
    raise AssertionError(f"no generator found for F_{p}^{deg}")


_SMALL_FIELDS = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 13) if p**k <= 4096]


def _gauss_jordan_rank(ctx, rows):
    """Oracle: the former rank routine, full Gauss-Jordan with row swaps."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv_p = ctx.inv(work[rank][col])
        prow = work[rank]
        if inv_p != 1:
            work[rank] = prow = [ctx.mul(inv_p, v) for v in prow]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                row = work[r]
                work[r] = [ctx.sub(v, ctx.mul(f, pv)) for v, pv in zip(row, prow)]
        rank += 1
        if rank == len(work):
            break
    return rank


def _method_call_echelon_oracle(ctx, rows):
    """Oracle: the former elimination, one ctx.sub/ctx.mul call per cell."""
    echelon, pivots, profile = [], [], []
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


def _digit_add(ctx, a, b):
    """Oracle: the former odd-characteristic addition, one base-p digit at a time."""
    out = 0
    for i in range(ctx.deg):
        out += (a % ctx.p + b % ctx.p) % ctx.p * ctx.p**i
        a //= ctx.p
        b //= ctx.p
    return out


def _digit_neg(ctx, a):
    """Oracle: the former odd-characteristic negation, one base-p digit at a time."""
    out = 0
    for i in range(ctx.deg):
        out += (-(a % ctx.p)) % ctx.p * ctx.p**i
        a //= ctx.p
    return out


def _check_against_digit_oracles(f, pairs):
    for a, b in pairs:
        assert f.add(a, b) == _digit_add(f, a, b), (a, b)
        assert f.sub(a, b) == _digit_add(f, a, _digit_neg(f, b)), (a, b)
    for a in {a for a, _ in pairs}:
        assert f.neg(a) == _digit_neg(f, a), a


@pytest.mark.parametrize("p,deg", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_zech_add_neg_match_digit_oracle_exhaustive(p, deg):
    f = make_field(p, deg)
    _check_against_digit_oracles(f, [(a, b) for a in range(f.order) for b in range(f.order)])


@pytest.mark.parametrize("p,deg", [(3, 10), (5, 6)])
def test_zech_add_neg_match_digit_oracle_random(p, deg):
    f = make_field(p, deg)
    rng = random.Random(p * 1000 + deg)
    pairs = []
    for _ in range(10_000):
        a = rng.choice([0, rng.randrange(f.order)])
        kind = rng.randrange(4)
        b = 0 if kind == 0 else _digit_neg(f, a) if kind == 1 else rng.randrange(f.order)
        pairs.append((a, b) if rng.randrange(2) else (b, a))
    assert any(a == 0 for a, _ in pairs) and any(b == 0 for _, b in pairs)
    assert any(a and _digit_add(f, a, b) == 0 for a, b in pairs)
    _check_against_digit_oracles(f, pairs)


def _poly_exp_walk_oracle(ctx):
    """Oracle: the former table build, one polynomial product by g per step."""
    n = ctx.order - 1
    exp = [0] * (2 * n)
    log = [-1] * ctx.order
    p = ctx.p
    gp = _poly_of(p, ctx.generator)
    cur = [1]
    for i in range(n):
        v = _int_of(p, cur)
        exp[i] = exp[i + n] = v
        log[v] = i
        cur = _poly_mulmod(cur, gp, list(ctx.modulus), p)
    assert _int_of(p, cur) == 1
    zech = None if p == 2 else [log[e - e % p + (e + 1) % p] for e in islice(exp, n)]
    return exp, log, zech


@pytest.mark.parametrize(
    "p,deg",
    _SMALL_FIELDS + [(2, 14), (3, 10), (5, 6)],
)
def test_exp_walk_matches_polynomial_oracle(p, deg):
    f = GfContext(p, deg)
    assert (f._exp, f._log, f._zech_table()) == _poly_exp_walk_oracle(f)


def test_prime_field():
    f = make_field(2, 1)
    assert f.order == 2
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_field_sizes_and_caching():
    f = make_field(2, 10)
    assert f.order == 1024
    assert make_field(2, 10) is f
    with pytest.raises(ValueError):
        GfContext(2, 21)
    for p in (0, 1, 4, -3):
        with pytest.raises(ValueError):
            GfContext(p, 3)


def test_modulus_is_deterministic_smallest():
    # first irreducibles in low-to-high coefficient order (cross-checked
    # against an independent computer algebra scan):
    # degree 6 over F_2: 1 + x^5 + x^6; degree 10: 1 + x^7 + x^10;
    # degree 6 over F_3: 1 + x^4 + x^5 + x^6
    assert make_field(2, 6).modulus == (1, 0, 0, 0, 0, 1, 1)
    assert make_field(2, 10).modulus == (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)
    assert make_field(3, 6).modulus == (1, 0, 0, 0, 1, 1, 1)
    f3 = make_field(3, 2)
    assert f3.modulus[-1] == 1
    assert len(f3.modulus) == 3


def _smallest_irreducible_full_scan(p, deg):
    """Oracle: the former modulus search, list Rabin tests over every constant term from 0."""
    for tail in product(range(p), repeat=deg):
        poly = list(tail) + [1]
        if _poly_is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError(f"no irreducible polynomial of degree {deg} over F_{p}")


def _monic_polys(p, deg):
    for tail in product(range(p), repeat=deg):
        yield list(tail) + [1]


def _gauss_count(p, deg):
    """Gauss's count of monic irreducibles: (1/deg) sum_{k | deg} mu(k) p^{deg/k}."""
    total = 0
    for k in range(1, deg + 1):
        if deg % k == 0:
            factors = _prime_factors(k)
            if all(k % (r * r) for r in factors):
                total += (-1) ** len(factors) * p ** (deg // k)
    return total // deg


_RABIN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.mark.parametrize(
    "p, deg", [(p, d) for p in _RABIN_PRIMES for d in range(2, 11) if p**d <= 1024]
)
def test_is_irreducible_matches_list_oracle_exhaustive(p, deg):
    verdicts = [_is_irreducible(poly, p) for poly in _monic_polys(p, deg)]
    assert verdicts == [_poly_is_irreducible(poly, p) for poly in _monic_polys(p, deg)]
    assert sum(verdicts) == _gauss_count(p, deg)


def test_is_irreducible_rejects_split_frobenius_fixed_product():
    # (x + 1)(x^2 + x + 1)(x^3 + x + 1) over F_2: every factor's degree divides
    # 6, so x^{2^6} = x mod f holds, and only the coprimality condition fails
    poly = [1, 1, 0, 0, 1, 0, 1]
    ring = _Ring(2, poly)
    x = ring.pack([0, 1])
    assert ring.pow(x, 2**6) == x
    assert not _is_irreducible(poly, 2)


def _curve_fields():
    """(p, 2 e n) of every field F_{q^{2n}}, q = p^e and n odd >= 3, under the cap."""
    out = set()
    for p in (2, 3, 5, 7, 11):
        e = 1
        while p ** (6 * e) <= MAX_FIELD_SIZE:
            n = 3
            while p ** (2 * e * n) <= MAX_FIELD_SIZE:
                out.add((p, 2 * e * n))
                n += 2
            e += 1
    return sorted(out)


@pytest.mark.parametrize("p, deg", sorted(set(_curve_fields() + _SMALL_FIELDS)))
def test_modulus_search_matches_full_scan(p, deg):
    assert _smallest_irreducible(p, deg) == _smallest_irreducible_full_scan(p, deg)


@pytest.mark.parametrize("p, deg", sorted(set(_curve_fields() + _SMALL_FIELDS)))
def test_generator_search_matches_polynomial_oracle(p, deg):
    modulus = _smallest_irreducible(p, deg)
    assert _find_generator(_Ring(p, modulus)) == _poly_find_generator(p, deg, modulus)


@pytest.mark.parametrize("p, deg", [(2, 1), (2, 5), (3, 1), (3, 4), (5, 3), (7, 2), (1021, 2)])
def test_packed_products_match_polynomial_oracle(p, deg):
    modulus = _smallest_irreducible(p, deg)
    ring = _Ring(p, modulus)
    rng = random.Random(p * 100 + deg)
    for _ in range(300):
        a, b = (rng.randrange(p**deg) for _ in range(2))
        e = rng.randrange(1, 3 * p**deg)
        pa, pb = (_poly_of(p, v) for v in (a, b))
        product_ = _poly_mulmod(pa, pb, list(modulus), p) if pa and pb else []
        assert ring.unpack(ring.mul(ring.from_int(a), ring.from_int(b))) == (
            product_ + [0] * (deg - len(product_))
        )
        power = _poly_powmod(pa, e, list(modulus), p)
        assert ring.pow(ring.from_int(a), e) == ring.pack(power)


def test_generator_order():
    f = make_field(3, 6)
    assert f.order == 729
    seen = set()
    x = 1
    for _ in range(728):
        seen.add(x)
        x = f.mul(x, f.generator)
    assert x == 1
    assert len(seen) == 728  # multiplicative order is exactly 728


def test_field_axioms_exhaustive_f64():
    f = make_field(2, 6)
    els = range(f.order)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, f.order - 1) == 1
    # distributivity, exhaustive over all triples
    for a in els:
        for b in els:
            ab = f.mul(a, b)
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(ab, f.mul(a, c))


def test_field_axioms_random_f729():
    f = make_field(3, 6)
    rng = random.Random(99)
    for _ in range(300):
        a, b, c = (rng.randrange(f.order) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_frobenius_is_additive_f729():
    f = make_field(3, 6)
    cubes = [f.pow(a, 3) for a in range(729)]
    for a in range(729):
        ca = cubes[a]
        for b in range(a, 729):
            assert cubes[f.add(a, b)] == f.add(ca, cubes[b])


def test_log_exp_roundtrip():
    f = make_field(2, 10)
    for a in range(1, f.order):
        assert f.exp(f.log(a)) == a


def test_nth_roots_counts():
    f = make_field(2, 10)
    roots = f.nth_roots(1, 11)
    assert len(roots) == 11  # 11 divides 1023
    for r in roots:
        assert f.pow(r, 11) == 1
    assert f.nth_roots(0, 11) == [0]


def test_nth_roots_exhaustive_scan():
    f = make_field(2, 10)
    rng = random.Random(5)
    for _ in range(10):
        c = rng.randrange(1, f.order)
        for d in (2, 3, 11, 31, 5):
            fast = f.nth_roots(c, d)
            slow = sorted(t for t in range(f.order) if f.pow(t, d) == c)
            assert fast == slow


def test_nth_roots_nonresidue_empty():
    f = make_field(2, 6)
    nonres = next(
        c for c in range(2, f.order) if f.pow(c, (f.order - 1) // 3) != 1
    )
    assert f.nth_roots(nonres, 3) == []


def test_subfields():
    assert len(make_field(2, 10).subfield_elements(2)) == 4
    assert make_field(2, 10).subfield_elements(1) == [0, 1]
    assert len(make_field(3, 10).subfield_elements(2)) == 9
    f = make_field(2, 10)
    for x in f.subfield_elements(2):
        assert f.pow(x, 4) == x
    with pytest.raises(ValueError):
        f.subfield_elements(3)


def test_coeffs_roundtrip_and_serialization():
    f = make_field(3, 6)
    for e in (0, 1, 5, 100, 728):
        cs = f.coeffs(e)
        assert len(cs) == 6
        assert f.from_coeffs(cs) == e
        assert sum(c * 3**i for i, c in enumerate(cs)) == e


def test_inv_zero_rejected():
    f = make_field(2, 6)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_matrix_rank_known_cases():
    f = make_field(2, 6)
    assert matrix_rank(f, [[1, 0], [0, 1]]) == 2
    assert matrix_rank(f, [[1, 1], [1, 1]]) == 1
    assert matrix_rank(f, [[0, 0], [0, 0]]) == 0
    # Vandermonde rows at distinct points have full rank
    pts = [2, 3, 4, 5, 6, 7]
    rows = [[f.pow(x, i) for x in pts] for i in range(4)]
    assert matrix_rank(f, rows) == 4


def test_rank_profile_matches_full_rank():
    f = make_field(2, 6)
    pts = [2, 3, 4, 5, 6, 7, 9]
    rows = [[f.pow(x, i) for x in pts] for i in range(4)]
    rows.insert(2, [f.add(a, b) for a, b in zip(rows[0], rows[1])])
    prof = rank_profile(f, rows)
    assert prof == [1, 2, 2, 3, 4]
    assert prof[-1] == _gauss_jordan_rank(f, rows)
    assert rank_profile(f, []) == []


def test_matrix_rank_odd_characteristic():
    f = make_field(3, 2)
    rng = random.Random(11)
    pts = rng.sample(range(1, f.order), 5)
    rows = [[f.pow(x, i) for x in pts] for i in range(5)]
    assert matrix_rank(f, rows) == 5
    rows.append([f.add(a, b) for a, b in zip(rows[0], rows[3])])
    assert matrix_rank(f, rows) == 5


def _random_rows(ctx, rng, nrows, ncols, zero_frac=0.0):
    """Random rows mixed with zero rows, repeats and combinations of earlier rows.

    About zero_frac of the random rows' cells are 0.
    """
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(4) if rows else rng.randrange(2)
        if kind == 0:
            row = [rng.randrange(ctx.order) for _ in range(ncols)]
            if zero_frac:
                row = [0 if rng.random() < zero_frac else v for v in row]
        elif kind == 1:
            row = [0] * ncols
        elif kind == 2:
            row = list(rng.choice(rows))
        else:
            row = [0] * ncols
            for prev in rng.sample(rows, rng.randint(1, len(rows))):
                c = rng.randrange(ctx.order)
                row = [ctx.add(v, ctx.mul(c, pv)) for v, pv in zip(row, prev)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("p,deg", [(2, 6), (3, 2)])
def test_rank_matches_gauss_jordan_oracle(p, deg):
    f = make_field(p, deg)
    rng = random.Random(p * 100 + deg)
    shapes = [(r, c) for r in range(9) for c in range(1, 13)]  # tall and wide
    for nrows, ncols in shapes * 3:
        rows = _random_rows(f, rng, nrows, ncols)
        snapshot = [list(r) for r in rows]
        assert matrix_rank(f, rows) == _gauss_jordan_rank(f, rows)
        assert rank_profile(f, rows) == [
            _gauss_jordan_rank(f, rows[: i + 1]) for i in range(nrows)
        ]
        assert rows == snapshot


@pytest.mark.parametrize("p,deg", [(2, 6), (3, 2), (3, 6), (5, 2), (7, 2)])
def test_log_domain_elimination_matches_method_call_oracle(p, deg):
    f = make_field(p, deg)
    rng = random.Random(p * 1000 + deg)
    shapes = [(r, c) for r in range(9) for c in range(1, 13)]
    for (nrows, ncols), zero_frac in product(shapes, (0.0, 0.3)):
        rows = _random_rows(f, rng, nrows, ncols, zero_frac)
        for col in rng.sample(range(ncols), rng.randint(0, ncols // 3)):  # zero columns
            for row in rows:
                row[col] = 0
        snapshot = [list(r) for r in rows]
        profile = _method_call_echelon_oracle(f, rows)
        assert rank_profile(f, rows) == profile
        assert profile == [_gauss_jordan_rank(f, rows[: i + 1]) for i in range(nrows)]
        assert matrix_rank(f, rows) == (profile[-1] if profile else 0)
        assert rows == snapshot
