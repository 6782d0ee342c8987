"""Finitely generated numerical semigroups.

A numerical semigroup here is the set of all non-negative integer
combinations of a finite generating set with gcd 1.  Construction closes the
generators on a byte table up to a bound (strided slices for the longest
equally spaced run of generators, shift-or for the rest), doubling the bound
until min(generators) consecutive members below it prove the conductor.  That
table is the semigroup's one stored form: point queries read its bytes, and
the sorted gap and nongap tuples are built only when a caller reads them.

Elements of the semigroup are called nongaps, the finitely many missing
non-negative integers gaps; the number of gaps is the genus.  Nongaps are
1-indexed, with the first nongap being 0.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, count, islice
from math import gcd

_FLIP_BITS = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _longest_run(gens: list[int]) -> tuple[int, int]:
    """(start, stop) of the longest equally spaced stretch of the sorted gens."""
    best, start = (0, 1), 0
    for i in range(2, len(gens) + 1):
        if gens[i - 1] - gens[i - 2] != gens[start + 1] - gens[start]:
            start = i - 2
        if i - start > best[1] - best[0]:
            best = (start, i)
    return best


def _run_sums(run: list[int], bound: int) -> bytearray:
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


def closure_table(generators, bound: int) -> bytearray:
    """Reachability table for sums of generators on [0, bound].

    The longest equally spaced run of the sorted generators is summed by
    strided slices; the paper's orbit generators are such a run but for one
    element.  The other generators are added by shift-or on the table read as
    an int, one byte per value, so no shift carries from one value into the
    next.

    A generator g only needs its multiples c*g with c < k, k the least k >= 1
    with k*g already in the run's table: a closed table T has T + k*g in T.
    The shifts by g, 2g, 4g, ... stop once they cover c < k, or at the bound
    when no multiple of g within it is in the table.  For the orbit and
    telescopic sets q*(q^n + 1) = (q + 1)*mq, where the generator outside the
    run is one factor and a run element the other, so k <= q + 1.
    """
    gens = sorted(set(generators))
    start, stop = _longest_run(gens)
    table = _run_sums(gens[start:stop], bound)
    rest = gens[:start] + gens[stop:]
    if not rest:
        return table
    reach = int.from_bytes(table, "little")
    for g in rest:
        # k*g read off the run's table: k is at least the least k with k*g
        # in the growing table, which costs doublings, never correctness
        limit = (table[g::g].find(1) + 1) * g or bound + 1
        stride = g  # shifts by g, 2g, 4g, ... add every multiple of g below limit
        while stride < limit:
            # only the values that stay within the bound are shifted
            reach |= (reach & ((1 << 8 * (bound + 1 - stride)) - 1)) << 8 * stride
            stride <<= 1
    table[:] = reach.to_bytes(bound + 1, "little")
    return table


class NumericalSemigroup:
    """Immutable numerical semigroup, stored as its sieve bytes.

    Attributes:
        generators: sorted generating set (gcd 1).
        conductor: least c with every integer >= c in the semigroup.
        genus: number of gaps.
        gaps: sorted tuple of all gaps.
        nongaps_cached: sorted nongaps up to conductor + max(generators).

    The sieve (1 for a nongap, 0 for a gap, on [0, conductor + max(generators)])
    answers the point queries; gaps, nongaps_cached and the Feng-Rao profile
    (fengrao.py) are built on first read.  Equality and hash go by
    (generators, conductor, sieve), which fixes the five fields repr names.
    """

    _FIELDS = ("generators", "conductor", "genus", "gaps", "nongaps_cached")
    __slots__ = ("generators", "conductor", "genus", "_sieve", "_gaps", "_nongaps",
                 "_feng_rao_profile")

    def __init__(self, generators, conductor, sieve):
        init = object.__setattr__
        init(self, "generators", generators)
        init(self, "conductor", conductor)
        init(self, "genus", sieve.count(0, 0, conductor))
        init(self, "_sieve", sieve)
        for slot in ("_gaps", "_nongaps", "_feng_rao_profile"):
            init(self, slot, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: NumericalSemigroup is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: NumericalSemigroup is immutable")

    @property
    def gaps(self) -> tuple[int, ...]:
        if self._gaps is None:
            object.__setattr__(self, "_gaps", tuple(compress(count(), self._gap_indicator())))
        return self._gaps

    @property
    def nongaps_cached(self) -> tuple[int, ...]:
        if self._nongaps is None:
            object.__setattr__(self, "_nongaps", tuple(compress(count(), self._sieve)))
        return self._nongaps

    def _gap_indicator(self) -> bytes:
        """1 for a gap, 0 for a nongap, on [0, conductor)."""
        return self._sieve[:self.conductor].translate(_FLIP_BITS)

    def _member_table(self, top: int) -> bytes:
        """1 for a nongap, 0 for a gap, on [0, top]: the sieve, then members."""
        return self._sieve[:top + 1] + b"\x01" * (top + 1 - len(self._sieve))

    def _key(self):
        return self.generators, self.conductor, self._sieve

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"NumericalSemigroup({fields})"

    @classmethod
    def from_generators(cls, gens, conductor_hint: int | None = None) -> "NumericalSemigroup":
        """Build the semigroup; the gap sieve proves its own conductor.

        conductor_hint, when given, seeds the sieve bound (e.g. 2*genus when
        the genus is known a priori); a hint that is too small only costs a
        retry with a doubled bound, one that is too large only a longer
        sieve, never a wrong answer.
        """
        gens = tuple(sorted(set(int(g) for g in gens)))
        if not gens:
            raise ValueError("generator set is empty")
        if any(g < 1 for g in gens):
            raise ValueError(f"generators must be positive, got {gens}")
        if (d := gcd(*gens)) != 1:
            raise ValueError(f"gcd(generators) = {d} != 1: not a numerical semigroup")

        bound = max(conductor_hint or 0, gens[0]) + gens[0] + 1
        while True:
            reach = closure_table(gens, bound)
            last_gap = reach.rfind(0)  # the table spans [0, bound]; -1 if no gap
            # conductor is proven once a full window of gens[0] consecutive
            # members sits below the sieve bound
            if last_gap + gens[0] <= bound:
                break
            bound *= 2

        conductor = last_gap + 1
        top = conductor + gens[-1]
        del reach[top + 1:]
        reach += b"\x01" * (top - bound)  # past the sieve bound every value is a member
        return cls(gens, conductor, bytes(reach))

    def contains(self, x: int) -> bool:
        """True iff x is a nongap."""
        if x < 0:
            return False
        return x >= self.conductor or self._sieve[x] == 1

    __contains__ = contains

    def nth_nongap(self, index: int) -> int:
        """The index-th nongap, 1-indexed: nth_nongap(1) == 0."""
        if index < 1:
            raise ValueError(f"nongap index must be >= 1, got {index}")
        if index > self.conductor - self.genus:  # from the conductor on, no gaps
            return index + self.genus - 1
        return next(islice(compress(count(), self._sieve), index - 1, None))

    def first_nongaps(self, number: int) -> list[int]:
        """The number smallest nongaps, in increasing order."""
        nongaps = chain(compress(count(), self._sieve), count(len(self._sieve)))
        return list(islice(nongaps, number))

    def count_nongaps_upto(self, value: int) -> int:
        """Number of nongaps <= value (the h function of the CSS bookkeeping)."""
        if value < 0:
            return 0
        if value >= self.conductor:
            return value + 1 - self.genus
        return self._sieve.count(1, 0, value + 1)

    def nongaps_upto(self, value: int) -> list[int]:
        """Sorted nongaps <= value."""
        out = list(compress(range(value + 1), self._sieve))
        out.extend(range(len(self._sieve), value + 1))
        return out

    def is_symmetric(self) -> bool:
        """Symmetric means 2*genus - 1 is a gap."""
        return self.genus > 0 and not self.contains(2 * self.genus - 1)


def is_telescopic(seq) -> bool:
    """Check the telescopic condition on an ordered generator sequence.

    With d_i = gcd of the first i entries and G_{i-1} the semigroup generated
    by the first i-1 entries scaled by 1/d_{i-1}, the sequence is telescopic
    when a_i/d_i lies in G_{i-1} for every i >= 2.
    """
    seq = tuple(int(a) for a in seq)
    if not seq or any(a < 1 for a in seq):
        raise ValueError(f"sequence must consist of positive integers, got {seq}")
    d = list(accumulate(seq, gcd))
    if d[-1] != 1:
        raise ValueError(f"gcd(sequence) = {d[-1]} != 1")
    for i in range(1, len(seq)):
        target = seq[i] // d[i]
        scaled = tuple(a // d[i - 1] for a in seq[:i])
        reach = closure_table(scaled, target)
        if not reach[target]:
            return False
    return True


def telescopic_genus(seq) -> int:
    """Genus of the semigroup generated by a telescopic sequence.

    Evaluates (1 + sum_i (d_{i-1}/d_i - 1) a_i) / 2 with d_0 = 0, i.e. the
    first term contributes -a_1.  Rejects non-telescopic input: the closed
    form is only valid for telescopic sequences.
    """
    seq = tuple(int(a) for a in seq)
    if not is_telescopic(seq):
        raise ValueError(f"sequence {seq} is not telescopic")
    d = list(accumulate(seq, gcd))
    total = 1 - seq[0]
    for i in range(1, len(seq)):
        total += (d[i - 1] // d[i] - 1) * seq[i]
    if total % 2:
        raise ValueError(f"telescopic genus formula gave odd total {total}")
    return total // 2
