from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    complement,
    difference,
    empty,
    fractions01,
    from_pairs,
    full,
    intersect,
    interval_sets,
    is_empty,
    issubset,
    measure,
    prefix,
    split,
    union,
    union_all,
)
from pathlift import PreconditionError

F = Fraction


def iset(*pairs):
    return from_pairs([(F(a), F(b)) for a, b in pairs])


class TestMeasure:
    def test_empty(self):
        assert measure(empty()) == 0

    def test_full(self):
        assert measure(full()) == 1

    def test_two_pieces(self):
        assert measure(iset((0, F(1, 2)), (F(3, 4), 1))) == F(3, 4)


class TestBooleanOps:
    def test_intersect(self):
        assert intersect(iset((0, F(1, 2))), iset((F(1, 4), F(3, 4)))) == iset(
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
        both, inter = union(a, b), intersect(a, b)
        assert measure(both) + measure(inter) == measure(a) + measure(b)

    @given(interval_sets(), interval_sets())
    def test_difference_partitions(self, a, b):
        assert union(difference(a, b), intersect(a, b)) == a
        assert is_empty(intersect(difference(a, b), b))

    @given(interval_sets())
    def test_complement_involution(self, a):
        assert complement(complement(a)) == a
        assert union(a, complement(a)) == full()

    @given(interval_sets())
    def test_canonical_round_trip(self, a):
        # re-normalizing any decomposition reproduces the set
        shuffled = list(a.intervals)[::-1]
        assert from_pairs(shuffled) == a
        halves = []
        for left, right in a.intervals:
            mid = (left + right) / 2
            halves += [(mid, right), (left, mid)]
        assert from_pairs(halves) == a


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
        s, t = sorted([measure(a) * u, measure(a) * v])
        ps, pt = prefix(a, s), prefix(a, t)
        assert measure(ps) == s
        assert measure(pt) == t
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
        assert split(a, [measure(a)]) == [a]

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
        weights = [measure(a) * s / total for s in shares]
        parts = split(a, weights)
        assert [measure(p) for p in parts] == weights
        assert union_all(parts) == a
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert is_empty(intersect(parts[i], parts[j]))

    @given(interval_sets(), st.integers(1, 5))
    def test_split_agrees_with_prefix_differences(self, a, k):
        weights = [measure(a) / k] * k
        parts = split(a, weights)
        cumulative = Fraction(0)
        for part, w in zip(parts, weights):
            low = prefix(a, cumulative)
            cumulative += w
            assert part == difference(prefix(a, cumulative), low)
