import json
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gk2codes import _cmd_tables, cli, semigroup
from gk2codes.gk2 import curve_params, o1_generators, o2_generators, semigroup_o1
from gk2codes.semigroup import (
    NumericalSemigroup,
    _longest_run,
    closure_table,
    is_telescopic,
    telescopic_genus,
)


def closure_upto(gens, bound):
    """Independent oracle: breadth-first additive closure up to bound."""
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = v + g
                if w <= bound and w not in members:
                    members.add(w)
                    nxt.append(w)
        frontier = nxt
    return members


def run_sums(run, bound):
    """Reachability table on [0, bound] for sums of the run a, a + d, ..., a + sd.

    Its k-fold sums are exactly ka + jd for 0 <= j <= ks: one strided slice
    per k.
    """
    a = run[0]
    table = bytearray(bound + 1)
    if len(run) == 1:  # the multiples of a
        table[::a] = b"\x01" * (bound // a + 1)
        return table
    d, s = run[1] - a, len(run) - 1
    ones = memoryview(b"\x01" * (bound // d + 1))
    for k in range(bound // a + 1):
        last = min(k * (a + s * d), bound)
        table[k * a:last + 1:d] = ones[:(last - k * a) // d + 1]
    return table


def closure_table_doubling(generators, bound):
    """Oracle: the former closure_table, each generator off the run doubled up to the bound."""
    gens = sorted(set(generators))
    start, stop = _longest_run(gens)
    table = run_sums(gens[start:stop], bound)
    rest = gens[:start] + gens[stop:]
    if not rest:
        return table
    reach = int.from_bytes(table, "little")
    for g in rest:
        stride = g
        while stride <= bound:
            reach |= (reach & ((1 << 8 * (bound + 1 - stride)) - 1)) << 8 * stride
            stride <<= 1
    table[:] = reach.to_bytes(bound + 1, "little")
    return table


def count_nongaps_upto_search(s, value):
    """Oracle: the former hand-written binary search for count_nongaps_upto."""
    if value < 0:
        return 0
    if value >= s.conductor:
        return value + 1 - s.genus
    lo, hi = 0, len(s.nongaps_cached)
    while lo < hi:
        mid = (lo + hi) // 2
        if s.nongaps_cached[mid] <= value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def nongaps_upto_scan(s, value):
    """Oracle: the former linear scan of the cached nongaps for nongaps_upto."""
    if value < 0:
        return []
    cached_top = s.nongaps_cached[-1] if s.nongaps_cached else -1
    out = [v for v in s.nongaps_cached if v <= value]
    if value > cached_top:
        out.extend(range(max(cached_top + 1, s.conductor), value + 1))
    return out


def contains_bisect(s, x):
    """Oracle: the former membership test, bisect_left on the gap tuple."""
    if x < 0:
        return False
    return x >= s.conductor or s.gaps[bisect_left(s.gaps, x)] != x


def count_nongaps_upto_bisect(s, value):
    """Oracle: the former count, bisect_right on the cached nongap tuple."""
    if value < 0:
        return 0
    if value >= s.conductor:
        return value + 1 - s.genus
    return bisect_right(s.nongaps_cached, value)


def nongaps_upto_bisect(s, value):
    """Oracle: the former slice of the cached nongap tuple, extended past its end."""
    if value < 0:
        return []
    cached_top = s.nongaps_cached[-1] if s.nongaps_cached else -1
    out = list(s.nongaps_cached[: bisect_right(s.nongaps_cached, value)])
    if value > cached_top:
        out.extend(range(max(cached_top + 1, s.conductor), value + 1))
    return out


def nth_nongap_tuple(s, index):
    """Oracle: the former index into the cached nongap tuple, with the law past it."""
    if index <= len(s.nongaps_cached):
        return s.nongaps_cached[index - 1]
    return index + s.genus - 1


H_O1_25 = (22, 24, 26, 28, 30, 32, 33)
H_O2_25 = (22, 28, 29, 30, 31, 32, 33)


def test_trivial_semigroup_of_naturals():
    s = NumericalSemigroup.from_generators({1})
    assert s.genus == 0
    assert s.gaps == ()
    assert [s.nth_nongap(i) for i in (1, 2, 10)] == [0, 1, 9]


def test_smallest_nontrivial_semigroup():
    s = NumericalSemigroup.from_generators({2, 3})
    assert s.gaps == (1,)
    assert s.genus == 1
    assert s.is_symmetric()


def test_o1_generator_set_genus_frozen():
    # brute-force closure sieve up to 200 gives 46 gaps
    oracle_gaps = sorted(set(range(200)) - closure_upto(H_O1_25, 200))
    assert len(oracle_gaps) == 46
    s = NumericalSemigroup.from_generators(H_O1_25)
    assert s.genus == 46
    assert list(s.gaps) == oracle_gaps


def test_contains_examples():
    s = NumericalSemigroup.from_generators(H_O1_25)
    assert s.contains(0)
    assert s.contains(44)
    # 59 = 26 + 33.  The published table omits this cell but its own k-column
    # counts 59 as the 19th nongap; see the reference-comparison tests.
    assert s.contains(59)
    assert not s.contains(67)
    assert not s.contains(-1)


def test_nth_nongap_examples():
    s1 = NumericalSemigroup.from_generators(H_O1_25)
    assert s1.nth_nongap(1) == 0
    assert s1.nth_nongap(2) == 22
    s2 = NumericalSemigroup.from_generators(H_O2_25)
    assert s2.nth_nongap(3) == 28
    assert [s2.nth_nongap(i) for i in range(1, 11)] == [0, 22, 28, 29, 30, 31, 32, 33, 44, 50]


def test_nth_nongap_beyond_cache_matches_direct_count():
    s = NumericalSemigroup.from_generators(H_O1_25)
    big = s.conductor + max(s.generators) + 57
    count = len(closure_upto(s.generators, big) & set(range(big + 1)))
    assert s.nth_nongap(count) == big


def test_non_symmetric_orbit_semigroups():
    s1 = NumericalSemigroup.from_generators(H_O1_25)
    s2 = NumericalSemigroup.from_generators(H_O2_25)
    assert s1.genus == s2.genus == 46
    assert s1.contains(91) and s2.contains(91)  # 2g-1 is a nongap
    assert not s1.is_symmetric()
    assert not s2.is_symmetric()


def test_count_nongaps_upto():
    s = NumericalSemigroup.from_generators(H_O1_25)
    for v in (-1, 0, 1, 22, 23, 75, 76, 183, 500):
        expected = sum(1 for x in range(0, v + 1) if s.contains(x))
        assert s.count_nongaps_upto(v) == expected
    assert s.nongaps_upto(60) == [0, 22, 24, 26, 28, 30, 32, 33, 44, 46, 48, 50,
                                  52, 54, 55, 56, 57, 58, 59, 60]


def test_rejections():
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators(set())
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators({4, 6})
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators({0, 3})


def test_telescopic_examples():
    assert is_telescopic((2, 3))
    assert telescopic_genus((2, 3)) == 1
    assert is_telescopic((22, 24, 33))
    assert telescopic_genus((22, 24, 33)) == 126
    assert NumericalSemigroup.from_generators((22, 24, 33)).genus == 126
    # mq, mq + q^2 - q, q^n + 1 at q=3, n=5
    assert is_telescopic((183, 189, 244))


def test_non_telescopic_rejected():
    assert not is_telescopic((4, 5, 6))
    with pytest.raises(ValueError):
        telescopic_genus((4, 5, 6))
    with pytest.raises(ValueError):
        is_telescopic((4, 6))  # gcd 2


def test_random_generator_sets_match_oracle():
    rng = random.Random(20240817)
    tried = 0
    while tried < 40:
        gens = sorted(rng.sample(range(2, 61), rng.randint(2, 5)))
        d = 0
        for g in gens:
            d = gcd(d, g)
        if d != 1:
            continue
        tried += 1
        s = NumericalSemigroup.from_generators(gens)
        bound = s.conductor + max(gens) + 5
        oracle = closure_upto(gens, bound)
        assert set(s.gaps) == set(range(s.conductor)) - oracle
        # additive closure of cached nongaps
        for _ in range(50):
            a = rng.choice(s.nongaps_cached)
            b = rng.choice(s.nongaps_cached)
            assert s.contains(a + b)
        # everything at/above the conductor is a member
        for x in range(s.conductor, s.conductor + 2 * max(gens)):
            assert s.contains(x)
        assert (s.conductor == 0) or (not s.contains(s.conductor - 1))


def test_telescopic_genus_cross_check_random():
    # standing test: sieve genus equals the closed form on telescopic input
    rng = random.Random(7)
    cases = [(6, 8, 9), (21, 27, 28), (52, 64, 65), (4, 6, 7), (10, 15, 18, 7)]
    for _ in range(20):
        a = rng.randrange(4, 30, 2)
        b = a + rng.randrange(2, 10, 2)
        cases.append((a, b, a * b // gcd(a, b) + 1))
    for seq in cases:
        if not is_telescopic(seq):
            continue
        assert telescopic_genus(seq) == NumericalSemigroup.from_generators(seq).genus


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=6), st.integers(0, 600))
@example([10, 12, 31], 40)  # no multiple of 31 within the bound is a run sum
@example([10, 12, 31], 400)  # 2 * 31 is: one shift, by 31
@example([6, 9, 12, 7, 11], 200)  # two generators off the run
@example([5, 25, 9], 60)  # 25 is a run sum itself: no shift at all
@example([4, 8, 9, 14], 56)  # 23 = 9 + 14: the walk of 14 starts from the offsets of 9
def test_closure_stops_at_the_first_multiple_in_the_run_table(gens, bound):
    assert closure_table(gens, bound) == closure_table_doubling(gens, bound)


@pytest.mark.parametrize("qn", [(2, 5), (3, 5)])
def test_closure_stops_at_the_first_multiple_on_the_paper_sets(qn):
    params = curve_params(*qn)
    q, m = params.q, params.m
    telescopic = (m * q, m * q + q * q - q, q**params.n + 1)
    bound = 2 * telescopic_genus(telescopic) + m * q + 1  # the sieve bound of S
    for gens in (o1_generators(params), o2_generators(params), telescopic):
        assert closure_table(gens, bound) == closure_table_doubling(gens, bound), gens


@pytest.mark.parametrize("generators", [o1_generators, o2_generators])
def test_closure_peak_memory_stays_near_the_table(generators):
    # the table, and the ones its slices are cut from, no longer than the
    # longest slice; the table read as one int and shifted took 4.2 times it
    params = curve_params(4, 7)
    gens = generators(params)
    bound = 2 * params.genus + gens[0] + 1  # the sieve bound of from_generators
    tracemalloc.start()
    try:
        closure_table(gens, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * (bound + 1)


def test_gap_indicator_peak_memory_stays_near_the_sieve():
    # one translated copy of the sieve, cut to the conductor in place; a
    # slice and its translation held two conductor-length copies at once
    sg = NumericalSemigroup.from_generators((1000, 1001))  # conductor 999 000
    tracemalloc.start()
    try:
        gaps = sg._gap_indicator()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gaps == sg._sieve[:sg.conductor].translate(bytes.maketrans(b"\x00\x01", b"\x01\x00"))
    assert peak < 1.5 * len(sg._sieve)


def test_from_generators_keeps_the_table_the_closure_built(monkeypatch):
    # the sieve is the table the closure wrote, not a copy of it
    built = []
    monkeypatch.setattr(semigroup, "closure_table",
                        lambda *args: built.append(closure_table(*args)) or built[-1])
    sg = NumericalSemigroup.from_generators(H_O1_25)
    assert sg._sieve is built[-1]
    twin = NumericalSemigroup(sg.generators, sg.conductor, bytes(sg._sieve))
    assert twin == sg and hash(twin) == hash(sg)
    assert twin.gaps == sg.gaps and twin._gap_indicator() == sg._gap_indicator()


generator_sets = st.lists(st.integers(1, 40), min_size=1, max_size=5).filter(
    lambda gens: gcd(*gens) == 1
)


def query_points(s):
    """Every value up to past the cache, plus the boundary queries."""
    top = s.nongaps_cached[-1]
    return [-5, -1, 0, s.conductor - 1, s.conductor, top, top + 1, top + 7] + list(range(top + 3))


@settings(max_examples=150, deadline=None)
@given(generator_sets)
def test_queries_match_the_former_code(gens):
    s = NumericalSemigroup.from_generators(gens)
    gap_set = frozenset(s.gaps)  # the former membership index
    for x in query_points(s):
        assert s.contains(x) == (x >= 0 and (x >= s.conductor or x not in gap_set))
        assert s.contains(x) == contains_bisect(s, x)
        assert (x in s) == s.contains(x)
        assert s.count_nongaps_upto(x) == count_nongaps_upto_search(s, x)
        assert s.count_nongaps_upto(x) == count_nongaps_upto_bisect(s, x)
        assert s.nongaps_upto(x) == nongaps_upto_scan(s, x)
        assert s.nongaps_upto(x) == nongaps_upto_bisect(s, x)
    cached = len(s.nongaps_cached)
    boundary = [1, s.conductor - s.genus, s.conductor - s.genus + 1, cached, cached + 1]
    indices = [i for i in boundary if i >= 1] + list(range(1, cached + 6)) + [cached + 1000]
    for i in indices:
        assert s.nth_nongap(i) == nth_nongap_tuple(s, i)
    for k in (0, 1, cached, cached + 7):
        assert s.first_nongaps(k) == [nth_nongap_tuple(s, i) for i in range(1, k + 1)]


def test_boundary_queries_on_the_naturals_and_an_orbit_semigroup():
    naturals = NumericalSemigroup.from_generators({1})
    assert naturals.conductor == 0 and not naturals.contains(-1) and naturals.contains(0)
    assert naturals.count_nongaps_upto(-1) == 0 and naturals.count_nongaps_upto(0) == 1
    assert naturals.nongaps_upto(3) == [0, 1, 2, 3]
    s = NumericalSemigroup.from_generators(H_O1_25)
    c, top = s.conductor, s.nongaps_cached[-1]
    assert not s.contains(-1) and s.contains(0)
    assert not s.contains(c - 1) and s.contains(c)
    assert s.count_nongaps_upto(c - 1) == c - s.genus
    assert s.count_nongaps_upto(c) == c + 1 - s.genus
    assert s.count_nongaps_upto(top + 10) == top + 11 - s.genus
    assert s.nongaps_upto(top + 10) == list(s.nongaps_cached) + list(range(top + 1, top + 11))
    assert s.nongaps_upto(-1) == [] and s.nongaps_upto(0) == [0]


@settings(max_examples=80, deadline=None)
@given(generator_sets)
def test_conductor_hint_never_changes_the_semigroup(gens):
    s = NumericalSemigroup.from_generators(gens)
    for hint in (0, 1, s.conductor, 10 * s.conductor):
        assert NumericalSemigroup.from_generators(gens, conductor_hint=hint) == s


def test_point_queries_build_no_tuple(monkeypatch, capsys):
    # (4, 7) O1: g = 122 856; every point query and the semigroup command
    # read the sieve bytes and leave both tuple slots unbuilt
    sg = semigroup_o1(curve_params(4, 7))
    g, c = sg.genus, sg.conductor
    assert not sg.contains(-1) and sg.contains(0)
    assert not sg.contains(c - 1) and sg.contains(c) and sg.contains(2 * g - 1)
    assert not sg.is_symmetric()
    assert sg.count_nongaps_upto(c - 1) == c - g and sg.count_nongaps_upto(c) == c + 1 - g
    firsts = [sg.nth_nongap(i) for i in range(1, 21)]
    assert firsts == sg.first_nongaps(20) and firsts[0] == 0
    assert sg.nongaps_upto(firsts[-1]) == firsts
    monkeypatch.setattr(_cmd_tables, "orbit_semigroup", lambda params, orbit: sg)
    assert cli.main(["semigroup", "--q", "4", "--n", "7", "--orbit", "O1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["genus"], payload["conductor"], payload["first_nongaps"]) == (g, c, firsts)
    assert sg._gaps is None and sg._nongaps is None


def test_tuples_are_built_once_on_first_read():
    s = NumericalSemigroup.from_generators(H_O1_25)
    assert s._gaps is None and s._nongaps is None
    gaps, nongaps = s.gaps, s.nongaps_cached
    assert s.gaps is gaps and s.nongaps_cached is nongaps
    assert len(gaps) == s.genus and nongaps[-1] == s.conductor + max(s.generators)
