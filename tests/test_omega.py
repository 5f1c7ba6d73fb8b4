from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fractions01, interval_sets
from pathlift import IntervalSet, PreconditionError

F = Fraction


def iset(*pairs):
    return IntervalSet.from_pairs([(F(a), F(b)) for a, b in pairs])


class TestMeasure:
    def test_empty(self):
        assert IntervalSet.empty().measure == 0

    def test_full(self):
        assert IntervalSet.full().measure == 1

    def test_two_pieces(self):
        assert iset((0, F(1, 2)), (F(3, 4), 1)).measure == F(3, 4)


class TestBooleanOps:
    def test_intersect(self):
        assert iset((0, F(1, 2))).intersect(iset((F(1, 4), F(3, 4)))) == iset(
            (F(1, 4), F(1, 2))
        )

    def test_union_identity(self):
        a = iset((F(1, 8), F(1, 3)))
        assert a.union(IntervalSet.empty()) == a

    def test_difference(self):
        assert IntervalSet.full().difference(iset((F(1, 3), F(2, 3)))) == iset(
            (0, F(1, 3)), (F(2, 3), 1)
        )

    def test_adjacent_pieces_merge(self):
        assert iset((0, F(1, 2))).union(iset((F(1, 2), 1))) == IntervalSet.full()

    @given(interval_sets(), interval_sets())
    def test_inclusion_exclusion(self, a, b):
        union, inter = a.union(b), a.intersect(b)
        assert union.measure + inter.measure == a.measure + b.measure

    @given(interval_sets(), interval_sets())
    def test_difference_partitions(self, a, b):
        assert a.difference(b).union(a.intersect(b)) == a
        assert a.difference(b).intersect(b).is_empty()

    @given(interval_sets())
    def test_complement_involution(self, a):
        assert a.complement().complement() == a
        assert a.union(a.complement()) == IntervalSet.full()

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
        assert iset((F(1, 4), F(1, 2))).prefix(0) == IntervalSet.empty()

    def test_exact_first_piece(self):
        a = iset((0, F(1, 2)), (F(3, 4), 1))
        assert a.prefix(F(1, 2)) == iset((0, F(1, 2)))

    def test_cut_second_piece(self):
        a = iset((0, F(1, 2)), (F(3, 4), 1))
        assert a.prefix(F(5, 8)) == iset((0, F(1, 2)), (F(3, 4), F(7, 8)))

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            iset((0, F(1, 2))).prefix(F(3, 4))
        with pytest.raises(PreconditionError):
            iset((0, F(1, 2))).prefix(F(-1, 4))

    @given(interval_sets(), fractions01(), fractions01())
    def test_prefix_chain(self, a, u, v):
        s, t = sorted([a.measure * u, a.measure * v])
        ps, pt = a.prefix(s), a.prefix(t)
        assert ps.measure == s
        assert pt.measure == t
        assert ps.issubset(pt)
        assert pt.issubset(a)


class TestSplit:
    def test_thirds_of_full(self):
        parts = IntervalSet.full().split([F(1, 2), F(1, 4), F(1, 4)])
        assert parts == [
            iset((0, F(1, 2))),
            iset((F(1, 2), F(3, 4))),
            iset((F(3, 4), 1)),
        ]

    def test_single_part(self):
        a = iset((F(1, 8), F(2, 3)))
        assert a.split([a.measure]) == [a]

    def test_split_across_gap(self):
        a = iset((0, F(1, 2)), (F(3, 4), 1))
        assert a.split([F(1, 2), F(1, 4)]) == [iset((0, F(1, 2))), iset((F(3, 4), 1))]

    def test_bad_weights(self):
        with pytest.raises(PreconditionError):
            IntervalSet.full().split([F(1, 2)])
        with pytest.raises(PreconditionError):
            IntervalSet.full().split([F(3, 2), F(-1, 2)])

    @given(interval_sets(), st.lists(st.integers(0, 6), min_size=1, max_size=4))
    def test_split_partition(self, a, shares):
        total = sum(shares)
        if total == 0:
            shares = shares + [1]
            total += 1
        weights = [a.measure * s / total for s in shares]
        parts = a.split(weights)
        assert [p.measure for p in parts] == weights
        assert IntervalSet.union_all(parts) == a
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert parts[i].intersect(parts[j]).is_empty()

    @given(interval_sets(), st.integers(1, 5))
    def test_split_agrees_with_prefix_differences(self, a, k):
        weights = [a.measure / k] * k
        parts = a.split(weights)
        cumulative = Fraction(0)
        for part, w in zip(parts, weights):
            low = a.prefix(cumulative)
            cumulative += w
            assert part == a.prefix(cumulative).difference(low)
