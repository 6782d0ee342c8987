"""The one-squaring Feng-Rao profile and the run-slice closure against their slow oracles.

The oracles are the former implementations: a fresh O(rho) scan per nu value,
d_ord as a suffix scan of those values up to the tail start 3g, the table
built from them, the bytearray dynamic-programming closure, the all-shift
bitset closure, and the per-index readout of the gap sieve.
"""

import sys
from functools import cache
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gk2codes.fengrao import CodeTableRow, _gap_pair_counts, d_ord, nu, table
from gk2codes.gk2 import curve_params, o1_generators, o2_generators, orbit_semigroup
from gk2codes.semigroup import NumericalSemigroup, closure_table


def closure_table_dp(generators, bound):
    """Oracle: reachability by dynamic programming, one pass per generator."""
    reach = bytearray(bound + 1)
    reach[0] = 1
    for g in generators:
        for v in range(g, bound + 1):
            if reach[v - g]:
                reach[v] = 1
    return reach


_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")


def closure_table_shift(generators, bound):
    """Oracle: the all-shift closure, strides a, 2a, 4a, ... of every generator on an int bitset."""
    mask = (1 << (bound + 1)) - 1
    reach = 1
    for a in generators:
        stride = a
        while stride <= bound:
            reach |= (reach << stride) & mask
            stride <<= 1
    return bytearray(format(reach, f"0{bound + 1}b")[::-1], "ascii").translate(_ASCII_BITS)


def sieve_readout_scan(gens):
    """Oracle: (conductor, gaps, nongaps_cached) read off the sieve index by index.

    The sieve runs once up to a fixed bound: the Frobenius number is below
    (a_1 - 1)(a_k - 1) (Schur), so a_1 a_k leaves a full window of a_1
    members above the last gap.  The readout does not depend on the bound.
    """
    gens = tuple(sorted(set(gens)))
    bound = gens[0] * gens[-1]
    reach = closure_table(gens, bound)
    last_gap = max((v for v in range(bound + 1) if not reach[v]), default=-1)
    assert last_gap + gens[0] <= bound
    conductor = last_gap + 1
    gaps = tuple(v for v in range(conductor) if not reach[v])
    top = conductor + gens[-1]
    nongaps = tuple(v for v in range(min(top, bound) + 1) if reach[v])
    if top > bound:
        nongaps += tuple(range(bound + 1, top + 1))
    return conductor, gaps, nongaps


def gap_pair_counts_loop(gaps, conductor):
    """Oracle: the former packing, one slot write per gap, and the same squaring."""
    fmt, width = ("H", 2) if len(gaps) < 1 << 16 else ("I", 4)
    low = 0 if sys.byteorder == "little" else width - 1
    packed = bytearray(width * conductor)
    for h in gaps:
        packed[h * width + low] = 1
    square = int.from_bytes(packed, sys.byteorder) ** 2
    return memoryview(square.to_bytes(width * max(2 * conductor - 1, 0), sys.byteorder)).cast(fmt)


def nu_scan(sg, index):
    """Oracle: count the nongaps h <= rho_index whose complement is a nongap."""
    rho = sg.nth_nongap(index)
    return sum(1 for h in sg.nongaps_upto(rho) if sg.contains(rho - h))


def scan_oracles(sg):
    """(nu, d_ord) oracles for one semigroup; each nu value is scanned once."""
    g = sg.genus
    tail = 3 * g if g else 1
    nu_at = cache(lambda m: nu_scan(sg, m))

    def d_ord_at(index):
        if index >= tail:
            return index - g if g else nu_at(index)
        return min(nu_at(m) for m in range(index, tail + 1))

    return nu_at, d_ord_at


def table_scan(sg, params, l_min, l_max):
    """Oracle: table rows from scanned nu values and their suffix minima."""
    length = params.rational_point_count - 1
    g = sg.genus
    top = max(3 * g, l_max)
    nus = [m - g if g and m >= 3 * g else nu_scan(sg, m) for m in range(l_min, top + 1)]
    suffix_min = nus[:]
    for i in range(len(suffix_min) - 2, -1, -1):
        suffix_min[i] = min(suffix_min[i], suffix_min[i + 1])
    return [
        CodeTableRow(length, l, length - l, sg.nth_nongap(l), nus[l - l_min], suffix_min[l - l_min])
        for l in range(l_min, l_max + 1)
    ]


def assert_profile_matches_scan(sg, extra=20):
    nu_at, d_ord_at = scan_oracles(sg)
    for l in range(1, 3 * sg.genus + extra + 1):
        assert nu(sg, l) == nu_at(l), (sg.generators, l)
        assert d_ord(sg, l) == d_ord_at(l), (sg.generators, l)


@pytest.mark.parametrize("orbit", ["O1", "O2"])
@pytest.mark.parametrize("qn", [(2, 3), (2, 5), (3, 3), (2, 7), (4, 3)])
def test_profile_matches_scan_on_orbit_semigroups(qn, orbit):
    assert_profile_matches_scan(orbit_semigroup(curve_params(*qn), orbit))


generator_sets = st.lists(st.integers(1, 30), min_size=1, max_size=4).filter(
    lambda gens: gcd(*gens) == 1
)


@settings(max_examples=80, deadline=None)
@given(generator_sets)
def test_profile_matches_scan_on_small_semigroups(gens):
    assert_profile_matches_scan(NumericalSemigroup.from_generators(gens))


@settings(max_examples=120, deadline=None)
@given(generator_sets, st.none() | st.integers(0, 200))
def test_sieve_readout_matches_scan(gens, conductor_hint):
    sg = NumericalSemigroup.from_generators(gens, conductor_hint=conductor_hint)
    conductor, gaps, nongaps = sieve_readout_scan(gens)
    assert (sg.conductor, sg.gaps, sg.nongaps_cached) == (conductor, gaps, nongaps)
    assert sg.genus == len(gaps)


@pytest.mark.parametrize("orbit", ["O1", "O2"])
@pytest.mark.parametrize("qn", [(2, 5), (3, 5), (4, 3)])
def test_sieve_readout_matches_scan_on_orbit_semigroups(qn, orbit):
    params = curve_params(*qn)
    gens = (o1_generators if orbit == "O1" else o2_generators)(params)
    sg = NumericalSemigroup.from_generators(gens, conductor_hint=2 * params.genus)
    assert (sg.conductor, sg.gaps, sg.nongaps_cached) == sieve_readout_scan(gens)


def assert_gap_pairs_match_loop(sg):
    pairs = _gap_pair_counts(sg._gap_indicator(), sg.genus)
    oracle = gap_pair_counts_loop(sg.gaps, sg.conductor)
    assert (pairs.format, pairs.tolist()) == (oracle.format, oracle.tolist())


@settings(max_examples=120, deadline=None)
@given(generator_sets)
def test_gap_pairs_match_the_slot_loop(gens):
    assert_gap_pairs_match_loop(NumericalSemigroup.from_generators(gens))


@pytest.mark.parametrize("genus", [0, 1, 2, (1 << 16) - 1, 1 << 16])
def test_gap_pairs_match_the_slot_loop_at_both_widths(genus):
    # generated by g + 1, ..., 2g + 1: the gaps are 1..g, the slots 2 bytes
    # wide up to g = 2^16 - 1 and 4 bytes from 2^16
    sg = NumericalSemigroup.from_generators(range(genus + 1, 2 * genus + 2))
    assert sg.genus == genus
    assert_gap_pairs_match_loop(sg)
    assert _gap_pair_counts(sg._gap_indicator(), sg.genus).itemsize == (2 if sg.genus < 1 << 16 else 4)


@pytest.mark.parametrize("orbit", ["O1", "O2"])
@pytest.mark.parametrize("qn", [(2, 5), (3, 5), (4, 5)])
def test_gap_pairs_match_the_slot_loop_on_orbit_semigroups(qn, orbit):
    assert_gap_pairs_match_loop(orbit_semigroup(curve_params(*qn), orbit))


def test_profile_of_the_naturals():
    sg = NumericalSemigroup.from_generators({1})
    assert [nu(sg, l) for l in range(1, 6)] == [1, 2, 3, 4, 5]
    assert [d_ord(sg, l) for l in range(1, 6)] == [1, 2, 3, 4, 5]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=5), st.integers(0, 300))
def test_bitset_closure_matches_dp(gens, bound):
    gens = tuple(sorted(set(gens)))
    assert closure_table(gens, bound) == closure_table_dp(gens, bound)


@st.composite
def run_generator_sets(draw):
    """(generators, bound): an equally spaced run among other generators.

    The others lie above the run, below it or on both sides; the list comes
    shuffled, with some entries repeated.
    """
    a, d, s = draw(st.integers(1, 40)), draw(st.sampled_from([1, 2, 3, 7, 12])), draw(st.integers(0, 8))
    run = [a + j * d for j in range(s + 1)]
    where = draw(st.sampled_from(["start", "middle", "end", "alone"]))
    below = draw(st.lists(st.integers(1, a), max_size=3)) if where in ("middle", "end") else []
    above = (draw(st.lists(st.integers(run[-1], 150), max_size=3))
             if where in ("start", "middle") else [])
    gens = run + below + above
    gens += draw(st.lists(st.sampled_from(gens), max_size=3))
    return draw(st.permutations(gens)), draw(st.integers(0, 400))


@settings(max_examples=300, deadline=None)
@given(run_generator_sets())
@example(([5, 7, 9, 11, 30], 200))  # a run at the start
@example(([3, 10, 13, 16, 19, 40], 200))  # a run in the middle
@example(([4, 20, 21, 22, 23], 200))  # a step-1 run at the end
@example(([7, 8, 9, 10], 300))  # the run alone
@example(([4, 6, 8, 21, 26, 31], 300))  # two runs of three
@example(([7], 100))  # a single generator
@example(([9, 3, 6, 3, 9, 12, 5], 150))  # duplicates, unsorted
@example(([10, 12, 14], 5))  # a bound below the smallest generator
@example(([10, 12, 14, 31], 0))  # a bound of 0
def test_run_closure_matches_all_shift_closure(job):
    gens, bound = job
    assert closure_table(gens, bound) == closure_table_shift(sorted(set(gens)), bound)


ORBIT_RUNGS = [(2, 3), (2, 5), (2, 7), (2, 9), (3, 3), (3, 5), (3, 7), (3, 9),
               (4, 3), (4, 5), (4, 7), (5, 3), (5, 5)]


@pytest.mark.parametrize("orbit", ["O1", "O2"])
@pytest.mark.parametrize("qn", ORBIT_RUNGS)
def test_run_closure_matches_all_shift_closure_on_orbit_generators(qn, orbit):
    params = curve_params(*qn)
    gens = (o1_generators if orbit == "O1" else o2_generators)(params)
    bound = 2 * params.genus + 2 * gens[0] + 1  # the sieve bound of semigroup_o1 and _o2
    assert closure_table(gens, bound) == closure_table_shift(gens, bound)


def test_bitset_closure_on_orbit_generators():
    params = curve_params(3, 5)
    for gens in (o1_generators(params), o2_generators(params)):
        bound = 2 * params.genus + gens[0] + 1
        assert closure_table(gens, bound) == closure_table_dp(gens, bound)


def test_table_matches_scan_on_q3_n5_o1():
    params = curve_params(3, 5)
    sg = orbit_semigroup(params, "O1")
    l_max = 3 * params.genus
    assert table(sg, params, 1, l_max) == table_scan(sg, params, 1, l_max)
    assert table(sg, params, 2800, l_max + 40) == table_scan(sg, params, 2800, l_max + 40)


def test_profile_is_built_lazily_once_per_instance():
    sg = NumericalSemigroup.from_generators((22, 24, 26, 28, 30, 32, 33))
    assert sg._feng_rao_profile is None
    first = nu(sg, 10)
    profile = sg._feng_rao_profile
    assert profile is not None
    d_ord(sg, 10)
    table(sg, curve_params(2, 5), 1, 20)
    assert sg._feng_rao_profile is profile
    assert nu(sg, 10) == first


def test_index_below_one_rejected():
    sg = NumericalSemigroup.from_generators((2, 3))
    for fn in (nu, d_ord):
        with pytest.raises(ValueError):
            fn(sg, 0)
