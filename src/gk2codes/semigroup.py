"""Finitely generated numerical semigroups.

A numerical semigroup here is the set of all non-negative integer
combinations of a finite generating set with gcd 1.  Construction closes the
generators on a byte table up to a bound, as a union of shifted arithmetic
progressions each written by one strided slice, doubling the bound until
min(generators) consecutive members below it prove the conductor.  That
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


def closure_table(generators, bound: int) -> bytearray:
    """Reachability table for sums of generators on [0, bound].

    mark(o) writes o plus every sum of the longest equally spaced run a,
    a + d, ..., b of the generators: one strided slice per k for the k-fold
    sums k*a, k*a + d, ..., k*b, or one of the multiples of a if a = b.
    Each generator g off the run walks the offsets marked so far, 0 first:
    o + g, o + 2g, ... are marked and become offsets until one is past the
    bound or already 1.

    The table is the closure: it holds sums of generators only, and as the
    offsets plus the run's sums it is closed under the run.  After g's walk,
    o + g is marked, 1 already or past the bound for every offset o, so it is
    closed under g; its values are y + c*g with y in the table before, and
    y + h is there for each earlier generator h.
    """
    gens = sorted(set(generators))
    start, stop = _longest_run(gens)
    a, b = gens[start], gens[stop - 1]
    d = gens[start + 1] - a if b > a else a
    table = bytearray(bound + 1)
    # the k-fold slice spans k*(b - a) past its start, and k <= bound // a
    span = bound if b == a else min(bound, bound // a * (b - a))
    ones = memoryview(b"\x01" * (span // d + 1))

    def mark(o):
        if b == a:  # the multiples of a
            table[o::a] = ones[:(bound - o) // a + 1]
            return
        for k, lo in enumerate(range(o, bound + 1, a)):
            hi = min(lo + k * (b - a), bound)
            table[lo:hi + 1:d] = ones[:(hi - lo) // d + 1]

    offsets = [0]
    mark(0)
    for g in gens[:start] + gens[stop:]:
        for o in offsets:  # the list grows as g walks it
            v = o + g
            while v <= bound and not table[v]:
                mark(v)
                offsets.append(v)
                v += g
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
    (fengrao.py) are built on first read.  Equality goes by (generators,
    conductor, sieve), which fixes the five fields repr names; the hash by
    (generators, conductor), as the sieve is the bytearray the closure built.
    A sieve passed as bytes is held as a bytearray copy.
    """

    _FIELDS = ("generators", "conductor", "genus", "gaps", "nongaps_cached")
    __slots__ = ("generators", "conductor", "genus", "_sieve", "_gaps", "_nongaps",
                 "_feng_rao_profile")

    def __init__(self, generators, conductor, sieve):
        init = object.__setattr__
        init(self, "generators", generators)
        init(self, "conductor", conductor)
        init(self, "genus", sieve.count(0, 0, conductor))
        init(self, "_sieve", sieve if isinstance(sieve, bytearray) else bytearray(sieve))
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

    def _gap_indicator(self) -> bytearray:
        """1 for a gap, 0 for a nongap, on [0, conductor): one copy of the sieve, cut in place."""
        out = self._sieve.translate(_FLIP_BITS)
        del out[self.conductor:]
        return out

    def _key(self):
        return self.generators, self.conductor, self._sieve

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((self.generators, self.conductor))

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
        return cls(gens, conductor, reach)

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
