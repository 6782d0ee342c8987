import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gk2codes import gk2
from gk2codes.curve import generator_pole_orders
from gk2codes.errors import InternalConsistencyError
from gk2codes.gk2 import (
    CurveParams,
    canonical_triple,
    curve_params,
    frobenius_dimension_gk1,
    frobenius_dimension_gk2,
    frobenius_dimensions_differ,
    holomorphic_gap_set,
    k_max,
    o1_generators,
    o2_generators,
    orbit_semigroup,
    prime_power_decompose,
    semigroup_o1,
    semigroup_o2,
    verify_partition,
)
from gk2codes.semigroup import NumericalSemigroup

SWEEP = [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (4, 3)]


def test_prime_power_decompose():
    assert prime_power_decompose(2) == (2, 1)
    assert prime_power_decompose(4) == (2, 2)
    assert prime_power_decompose(5) == (5, 1)
    assert prime_power_decompose(27) == (3, 3)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power_decompose(bad)


def _prime_power_decompose_oracle(q):
    """The trial-division loop prime_power_decompose ran before it took
    the least prime factor in one expression."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    m = q
    p = None
    for cand in range(2, q + 1):
        if cand * cand > m and p is None:
            p = m
            break
        if m % cand == 0:
            p = cand
            break
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p, e


def _decomposition(fn, q):
    try:
        return fn(q)
    except ValueError as exc:
        return "ValueError", str(exc)


def test_prime_power_decompose_matches_the_loop_oracle():
    for q in [*range(-5, 20_001), 1_000_003, 2**31 - 1, 3**19, 2**40]:
        assert (_decomposition(prime_power_decompose, q)
                == _decomposition(_prime_power_decompose_oracle, q)), q


def test_params_q2_n5():
    p = curve_params(2, 5)
    assert (p.m, p.s, p.genus) == (11, 5, 46)
    assert p.rational_point_count == 3969
    assert p.differential_pole_bound == 30


def test_params_rejections():
    with pytest.raises(ValueError):
        curve_params(2, 4)
    with pytest.raises(ValueError):
        curve_params(2, 1)
    with pytest.raises(ValueError):
        curve_params(6, 3)


def test_o1_generators_and_genus():
    p25 = curve_params(2, 5)
    assert o1_generators(p25) == (22, 24, 26, 28, 30, 32, 33)
    assert semigroup_o1(p25).genus == 46
    p23 = curve_params(2, 3)
    assert o1_generators(p23) == (6, 8, 9)
    assert semigroup_o1(p23).genus == 10


def test_o2_generators_and_nongaps():
    p25 = curve_params(2, 5)
    assert o2_generators(p25) == (22, 28, 29, 30, 31, 32, 33)
    s = semigroup_o2(p25)
    assert [s.nth_nongap(i) for i in range(1, 11)] == [0, 22, 28, 29, 30, 31, 32, 33, 44, 50]
    assert s.contains(59)  # 28 + 31


@pytest.mark.parametrize("q,n", SWEEP)
def test_o2_pole_orders_are_the_o2_generators_descending(q, n):
    # the basis weights: q^n + 1 - k for k = 0..s, then mq, the smallest
    params = curve_params(q, n)
    weights = generator_pole_orders(params, "O2")
    assert weights == o2_generators(params)[::-1]
    top = q**n + 1
    assert weights == (*(top - k for k in range(params.s + 1)), params.m * q)


@pytest.mark.parametrize("q,n", SWEEP)
def test_genus_identities_sweep(q, n):
    params = curve_params(q, n)
    s1 = semigroup_o1(params)
    s2 = semigroup_o2(params)
    assert s1.genus == s2.genus == params.genus
    top = q**n + 1
    assert s1.contains(top) and s2.contains(top)
    # at n = 3 both orbit semigroups are telescopic (s = 1), hence symmetric:
    # 2g-1 is a gap there and a nongap for n >= 5
    symmetric = n == 3
    for sg in (s1, s2):
        assert sg.contains(2 * params.genus - 1) == (not symmetric)
        assert sg.is_symmetric() == symmetric


@pytest.mark.parametrize("q,n", SWEEP)
def test_gap_set_equals_complement(q, n):
    params = curve_params(q, n)
    gaps = holomorphic_gap_set(params)
    assert len(gaps) == params.genus
    assert gaps == semigroup_o2(params).gaps


def holomorphic_gap_set_on_a_set(params):
    """Oracle: the former gap family, collected in a Python set."""
    q, n, m = params.q, params.n, params.m
    budget = params.differential_pole_bound
    qq1 = q**n + 1
    vals = set()
    count = 0
    for l in range(q + 1):
        for j in range(q * q - 1):
            weight = (j + l) * m
            if weight > budget:
                continue
            kk = min(m - 1, (budget - weight) // (q * q - q))
            for k in range(kk + 1):
                vals.add(k + qq1 * j + l * m + 1)
                count += 1
    if len(vals) != count:
        raise InternalConsistencyError(
            f"duplicate gap valuations for q={q}, n={n}: {count} triples, {len(vals)} values"
        )
    if len(vals) != params.genus:
        raise InternalConsistencyError(
            f"gap family size {len(vals)} != genus {params.genus} for q={q}, n={n}"
        )
    gaps = tuple(sorted(vals))
    if gaps != semigroup_o2(params).gaps:
        raise InternalConsistencyError(
            f"differential gap set != O2 semigroup complement for q={q}, n={n}"
        )
    return gaps


def _outcome(fn, params):
    try:
        return fn(params)
    except InternalConsistencyError as exc:
        return str(exc)


@pytest.mark.parametrize("q,n", SWEEP + [(2, 9), (3, 7), (4, 5), (5, 3), (5, 5)])
def test_gap_set_matches_set_oracle(q, n):
    params = curve_params(q, n)
    assert holomorphic_gap_set(params) == holomorphic_gap_set_on_a_set(params)


@pytest.mark.parametrize(
    "change",
    [
        {"n": 3},  # q^n + 1 too small: the valuation runs overlap
        {"differential_pole_bound": 20},  # too few valuations (the true bound is 30)
        {"differential_pole_bound": 200},  # too many
        {"genus": 45},
    ],
    ids=["duplicates", "small-budget", "large-budget", "genus"],
)
def test_gap_set_failures_match_set_oracle(change):
    params = curve_params(2, 5)._replace(**change)
    want = _outcome(holomorphic_gap_set_on_a_set, params)
    assert isinstance(want, str)
    assert _outcome(holomorphic_gap_set, params) == want


@pytest.mark.parametrize("q,n", [(2, 5), (3, 5)])
@pytest.mark.parametrize("move", ["first-up", "middle-up", "middle-down"])
def test_gap_set_rejects_an_o2_semigroup_with_one_gap_moved(monkeypatch, q, n, move):
    params = curve_params(q, n)
    true = semigroup_o2(params)
    sieve = bytearray(true._sieve)
    gap = true.gaps[0] if move == "first-up" else true.gaps[len(true.gaps) // 2]
    if move.endswith("up"):
        nongap = next(v for v in range(gap + 1, true.conductor) if sieve[v])
    else:
        nongap = next(v for v in range(gap - 1, 0, -1) if sieve[v])
    sieve[gap], sieve[nongap] = 1, 0
    moved = NumericalSemigroup(true.generators, true.conductor, bytes(sieve))
    assert (moved.genus, moved.conductor) == (true.genus, true.conductor)
    monkeypatch.setattr(gk2, "semigroup_o2", lambda params: moved)
    with pytest.raises(InternalConsistencyError, match="differential gap set != O2 semigroup"):
        holomorphic_gap_set(params)


def test_gap_set_small_examples():
    p25 = curve_params(2, 5)
    gaps25 = holomorphic_gap_set(p25)
    assert len(gaps25) == 46
    assert gaps25[0] == 1  # k = l = j = 0
    p23 = curve_params(2, 3)
    gaps23 = holomorphic_gap_set(p23)
    assert gaps23 == (1, 2, 3, 4, 5, 7, 10, 11, 13, 19)


def test_genus_mismatch_raises():
    # corrupt parameters: genus off by one must trip the identity check
    good = curve_params(2, 5)
    bad = CurveParams(
        q=good.q,
        n=good.n,
        p=good.p,
        m=good.m,
        s=good.s,
        genus=good.genus + 1,
        rational_point_count=good.rational_point_count,
        differential_pole_bound=good.differential_pole_bound,
    )
    with pytest.raises(InternalConsistencyError):
        semigroup_o1(bad)


@pytest.mark.parametrize("build, orbit", [
    (semigroup_o1, "O1"),
    (semigroup_o2, "O2"),
    (lambda params: orbit_semigroup(params, "O1"), "O1"),
    (lambda params: orbit_semigroup(params, "O2"), "O2"),
])
def test_orbit_genus_mismatch_is_one_sieve_and_names_the_curve(monkeypatch, build, orbit):
    bad = curve_params(2, 3)._replace(genus=11)  # the orbit semigroups have genus 10
    sieve = NumericalSemigroup.from_generators.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return sieve(cls, *args, **kwargs)

    monkeypatch.setattr(NumericalSemigroup, "from_generators", classmethod(counted))
    with pytest.raises(InternalConsistencyError,
                       match=rf"^{orbit} genus 10 != curve genus 11 for q=2, n=3$"):
        build(bad)
    assert len(calls) == 1


def test_orbit_semigroup_rejects_an_unknown_orbit():
    with pytest.raises(ValueError, match=r"^orbit must be 'O1' or 'O2', got 'O3'$"):
        orbit_semigroup(curve_params(2, 3), "O3")


def test_k_max_values():
    p25 = curve_params(2, 5)
    assert k_max(p25, 0) == 10
    assert k_max(p25, 1) == 9
    assert k_max(p25, 2) == 4
    with pytest.raises(ValueError):
        k_max(p25, 3)  # j+l >= q^2 - 1


@pytest.mark.parametrize("q,n", SWEEP)
def test_k_max_matches_inequality_scan(q, n):
    params = curve_params(q, n)
    budget = params.differential_pole_bound
    step = q * q - q
    for t in range(q * q - 1):
        best = max(
            (k for k in range(params.m) if k * step + t * params.m <= budget),
            default=None,
        )
        assert best is not None
        assert k_max(params, t) == best



@pytest.mark.parametrize("q,n", SWEEP)
def test_k_max_is_the_run_bound_of_the_gap_indicator(q, n):
    # _holomorphic_gap_indicator loops over j < q^2 - 1 and l <= q, and marks
    # one run of k from (q^n + 1) j + l m + 1 where (j + l) m fits the budget:
    # that is where k_max is defined, and the run has k_max + 1 values
    params = curve_params(q, n)
    m, budget = params.m, params.differential_pole_bound
    indicator, _ = gk2._holomorphic_gap_indicator(params)
    want, total = bytearray(len(indicator)), 0
    for l in range(q + 1):
        for j in range(q * q - 1):
            assert ((j + l) * m <= budget) == (j + l < q * q - 1), (j, l)
            if j + l < q * q - 1:
                start, size = (q**n + 1) * j + l * m + 1, k_max(params, j + l) + 1
                want[start:start + size] = b"\x01" * size
                total += size
    assert total == params.genus == want.count(1)  # disjoint runs, so each has its length
    assert indicator == want

def test_canonical_triple_examples():
    p25 = curve_params(2, 5)
    assert canonical_triple(p25, 0) == (0, 0, 0)
    assert canonical_triple(p25, 24) == (1, 1, 0)
    assert canonical_triple(p25, 33) == (0, 0, 1)


def test_canonical_triple_membership_criterion():
    # member of the telescopic semigroup <mq, mq+q^2-q, q^n+1> iff a >= b
    p25 = curve_params(2, 5)
    seq = (22, 24, 33)
    s = NumericalSemigroup.from_generators(seq)
    for x in range(0, 300):
        a, b, c = canonical_triple(p25, x)
        assert 0 <= b <= p25.m - 1 and 0 <= c <= p25.q - 1
        assert (a >= b) == s.contains(x)


def test_partition_q2_n5():
    rep = verify_partition(curve_params(2, 5))
    assert rep.telescopic_genus == 126
    assert rep.partition_total == 80
    assert rep.telescopic_genus - rep.partition_total == 46 == rep.curve_genus
    assert rep.all_ok


@pytest.mark.parametrize("q,n", SWEEP)
def test_partition_sweep(q, n):
    rep = verify_partition(curve_params(q, n))
    assert rep.sets_inside_h1_minus_s
    assert rep.sets_pairwise_disjoint
    assert rep.set_sizes_match_formula
    assert rep.genus_count_matches
    assert rep.all_ok


def test_partition_q2_n3():
    rep = verify_partition(curve_params(2, 3))
    assert rep.telescopic_genus - rep.partition_total == 10


def _partition_by_sets(params):
    """The former verify_partition, on Python sets of the S_i and S_j: the oracle."""
    from gk2codes.semigroup import closure_table, telescopic_genus

    q, m, s = params.q, params.m, params.s
    step = q * q - q
    qq1 = q**params.n + 1
    seq = (m * q, m * q + step, qq1)
    g_s = telescopic_genus(seq)
    sets, expected_sizes = [], []
    for i in range(1, step):
        sets.append({i * (m * q) + (i + k1) * step + k3 * qq1
                     for k1 in range(1, i * s - i + 1) for k3 in range(q)})
        expected_sizes.append((i * s - i) * q)
    for j in range(step, step * s):
        sets.append({j * (m * q) + (j + k2) * step + k3 * qq1
                     for k2 in range(1, step * s - j + 1) for k3 in range(q)})
        expected_sizes.append((step * s - j) * q)
    sizes_ok = all(len(t) == e for t, e in zip(sets, expected_sizes))
    top = max((max(t) for t in sets if t), default=0)
    h1 = closure_table(o1_generators(params), top)
    s_reach = closure_table(seq, top)
    inside_ok = all(h1[x] and not s_reach[x] for t in sets for x in t)
    union, total, disjoint_ok = set(), 0, True
    for t in sets:
        total += len(t)
        before = len(union)
        union |= t
        if len(union) != before + len(t):
            disjoint_ok = False
    return gk2.PartitionReport(q, params.n, g_s, total, params.genus, inside_ok, disjoint_ok,
                               sizes_ok, g_s - total == params.genus)


def _report_or_error(fn, params):
    try:
        return fn(params)
    except ValueError as exc:
        return type(exc), str(exc)


def test_partition_matches_the_set_oracle():
    # the true parameters, then m and s moved off them: the flags go False
    # (and non-telescopic sequences raise) exactly where the set version's do
    cases = [curve_params(q, n) for q, n in [*SWEEP, (4, 5), (2, 9)]]
    cases += [p._replace(m=p.m + dm, s=p.s + ds)
              for p in cases for dm in range(-3, 4) for ds in range(-2, 4) if dm or ds]
    reports = []
    for params in cases:
        want = _report_or_error(_partition_by_sets, params)
        assert _report_or_error(verify_partition, params) == want, params
        reports.append(want)
    reports = [r for r in reports if isinstance(r, gk2.PartitionReport)]
    for flag in range(5, 9):  # the four checks each fail somewhere
        assert not all(r[flag] for r in reports), gk2.PartitionReport._fields[flag]


def test_partition_marks_share_the_sieve_of_s():
    # (4, 7): S's sieve spans 2 g(S) = 43 M values; a second table of marks
    # as long would double the peak
    import tracemalloc

    tracemalloc.start()
    try:
        rep = verify_partition(curve_params(4, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.telescopic_genus, rep.partition_total) == (21508584, 21385728)
    assert rep.all_ok
    assert peak < 1.5 * 2 * rep.telescopic_genus


def test_frobenius_dimensions():
    p25 = curve_params(2, 5)
    assert frobenius_dimension_gk2(p25) == 7
    assert frobenius_dimension_gk1(p25) == 9
    with pytest.raises(ValueError):
        frobenius_dimension_gk2(curve_params(2, 3))


def _frobenius_dimension_gk1_sum(q, n):
    """Oracle: the former alternating sum, n - 3 powers of q."""
    return q ** (n - 3) + sum((-1) ** (i + 1) * q**i for i in range(2, n - 1)) + 1


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 125, 1024]),
    n=st.integers(1, 29).map(lambda k: 2 * k + 1),
)
def test_frobenius_gk1_closed_form_matches_alternating_sum(q, n):
    assert frobenius_dimension_gk1(curve_params(q, n)) == _frobenius_dimension_gk1_sum(q, n)


@pytest.mark.parametrize("q,n", [(2, 5), (2, 7), (3, 5)])
def test_frobenius_dimension_counts_nongaps(q, n):
    # r equals 1 + the number of nontrivial nongaps <= q^n (the +1 being
    # q^n + 1 itself, always a nongap); same count at both orbits
    params = curve_params(q, n)
    r = frobenius_dimension_gk2(params)
    for sg in (semigroup_o1(params), semigroup_o2(params)):
        count = sg.count_nongaps_upto(q**n) - 1  # drop the trivial nongap 0
        assert r == count + 1
    if (q, n) == (2, 5):
        s1 = semigroup_o1(params)
        assert [x for x in s1.nongaps_upto(32) if x > 0] == [22, 24, 26, 28, 30, 32]


def test_non_isomorphism_sweep():
    for q in (2, 3, 4, 5):
        for n in (5, 7, 9, 11):
            assert frobenius_dimensions_differ(q, n) is True
    assert frobenius_dimensions_differ(2, 3) is None
    assert frobenius_dimensions_differ(3, 3) is None
