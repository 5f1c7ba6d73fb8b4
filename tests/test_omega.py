from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    complement,
    difference,
    empty,
    fractions01,
    full,
    interval_sets,
    is_empty,
    issubset,
    prefix,
    split,
    union,
)
from pathlift import IntervalSet, PreconditionError

F = Fraction


def iset(*pairs):
    return IntervalSet.from_pairs([(F(a), F(b)) for a, b in pairs])


class TestMeasure:
    def test_empty(self):
        assert empty().measure == 0

    def test_full(self):
        assert full().measure == 1

    def test_two_pieces(self):
        assert iset((0, F(1, 2)), (F(3, 4), 1)).measure == F(3, 4)


class TestBooleanOps:
    def test_intersect(self):
        assert iset((0, F(1, 2))).intersect(iset((F(1, 4), F(3, 4)))) == iset(
            (F(1, 4), F(1, 2))
        )

    def test_union_identity(self):
        a = iset((F(1, 8), F(1, 3)))
        assert union(a, empty()) == a

    def test_difference(self):
        assert difference(full(), iset((F(1, 3), F(2, 3)))) == iset(
            (0, F(1, 3)), (F(2, 3), 1)
        )

    def test_adjacent_pieces_merge(self):
        assert union(iset((0, F(1, 2))), iset((F(1, 2), 1))) == full()

    @given(interval_sets(), interval_sets())
    def test_inclusion_exclusion(self, a, b):
        both, inter = union(a, b), a.intersect(b)
        assert both.measure + inter.measure == a.measure + b.measure

    @given(interval_sets(), interval_sets())
    def test_difference_partitions(self, a, b):
        assert union(difference(a, b), a.intersect(b)) == a
        assert is_empty(difference(a, b).intersect(b))

    @given(interval_sets())
    def test_complement_involution(self, a):
        assert complement(complement(a)) == a
        assert union(a, complement(a)) == full()

    @given(interval_sets())
    def test_canonical_round_trip(self, a):
        # re-normalizing any decomposition reproduces the set
        shuffled = list(a.intervals)[::-1]
        assert IntervalSet.from_pairs(shuffled) == a
        halves = []
        for left, right in a.intervals:
            mid = (left + right) / 2
            halves += [(mid, right), (left, mid)]
        assert IntervalSet.from_pairs(halves) == a


class TestPrefix:
    def test_zero_mass(self):
        assert prefix(iset((F(1, 4), F(1, 2))), 0) == empty()

    def test_exact_first_piece(self):
        a = iset((0, F(1, 2)), (F(3, 4), 1))
        assert prefix(a, F(1, 2)) == iset((0, F(1, 2)))

    def test_cut_second_piece(self):
        a = iset((0, F(1, 2)), (F(3, 4), 1))
        assert prefix(a, F(5, 8)) == iset((0, F(1, 2)), (F(3, 4), F(7, 8)))

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            prefix(iset((0, F(1, 2))), F(3, 4))
        with pytest.raises(PreconditionError):
            prefix(iset((0, F(1, 2))), F(-1, 4))

    @given(interval_sets(), fractions01(), fractions01())
    def test_prefix_chain(self, a, u, v):
        s, t = sorted([a.measure * u, a.measure * v])
        ps, pt = prefix(a, s), prefix(a, t)
        assert ps.measure == s
        assert pt.measure == t
        assert issubset(ps, pt)
        assert issubset(pt, a)


class TestSplit:
    def test_thirds_of_full(self):
        parts = split(full(), [F(1, 2), F(1, 4), F(1, 4)])
        assert parts == [
            iset((0, F(1, 2))),
            iset((F(1, 2), F(3, 4))),
            iset((F(3, 4), 1)),
        ]

    def test_single_part(self):
        a = iset((F(1, 8), F(2, 3)))
        assert split(a, [a.measure]) == [a]

    def test_split_across_gap(self):
        a = iset((0, F(1, 2)), (F(3, 4), 1))
        assert split(a, [F(1, 2), F(1, 4)]) == [iset((0, F(1, 2))), iset((F(3, 4), 1))]

    def test_bad_weights(self):
        with pytest.raises(PreconditionError):
            split(full(), [F(1, 2)])
        with pytest.raises(PreconditionError):
            split(full(), [F(3, 2), F(-1, 2)])

    @given(interval_sets(), st.lists(st.integers(0, 6), min_size=1, max_size=4))
    def test_split_partition(self, a, shares):
        total = sum(shares)
        if total == 0:
            shares = shares + [1]
            total += 1
        weights = [a.measure * s / total for s in shares]
        parts = split(a, weights)
        assert [p.measure for p in parts] == weights
        assert IntervalSet.union_all(parts) == a
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert is_empty(parts[i].intersect(parts[j]))

    @given(interval_sets(), st.integers(1, 5))
    def test_split_agrees_with_prefix_differences(self, a, k):
        weights = [a.measure / k] * k
        parts = split(a, weights)
        cumulative = Fraction(0)
        for part, w in zip(parts, weights):
            low = prefix(a, cumulative)
            cumulative += w
            assert part == difference(prefix(a, cumulative), low)
