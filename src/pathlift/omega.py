"""Measurable subsets of the unit interval [0, 1) with Lebesgue measure.

A set is a finite union of half-open rational intervals [left, right),
stored in canonical form: intervals sorted, pairwise disjoint, never
adjacent.  Canonical form makes structural equality agree with set
equality, so ``==`` is an exact set comparison and every measure is an
exact ``Fraction``.

Random variables store their partition as labeled slabs (see
``randomvars``), and the JSON writer works from those; the library uses
IntervalSet only to read the per-point ``blocks`` (``from_pairs``) and
for the selftest's Ky Fan scan oracle (``union_all``, ``intersect``,
``measure``).  The rest of the set algebra (complement, difference,
leftmost prefix and split) is the tests' block oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .errors import PreconditionError

ZERO = Fraction(0)
ONE = Fraction(1)

Pair = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint half-open intervals inside [0, 1)."""

    intervals: tuple[Pair, ...] = ()

    def __post_init__(self) -> None:
        prev_right = None
        for left, right in self.intervals:
            if not (ZERO <= left < right <= ONE):
                raise PreconditionError(
                    f"interval [{left}, {right}) is empty or escapes [0, 1)"
                )
            if prev_right is not None and left <= prev_right:
                raise PreconditionError(
                    f"intervals not canonical near [{left}, {right}): "
                    "must be sorted, disjoint and non-adjacent"
                )
            prev_right = right

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Fraction, Fraction]]) -> "IntervalSet":
        """Build from arbitrary pairs, normalizing to canonical form.

        Empty pairs are dropped; overlapping or adjacent pairs merge.
        """
        cleaned = []
        for left, right in pairs:
            left, right = Fraction(left), Fraction(right)
            if left >= right:
                continue
            if not (ZERO <= left and right <= ONE):
                raise PreconditionError(
                    f"interval [{left}, {right}) escapes [0, 1)"
                )
            cleaned.append((left, right))
        cleaned.sort()
        merged: list[Pair] = []
        for left, right in cleaned:
            if merged and left <= merged[-1][1]:
                if right > merged[-1][1]:
                    merged[-1] = (merged[-1][0], right)
            else:
                merged.append((left, right))
        return cls(tuple(merged))

    @classmethod
    def union_all(cls, parts: Iterable["IntervalSet"]) -> "IntervalSet":
        """Union of many sets in one sorted sweep."""
        return cls.from_pairs(p for part in parts for p in part.intervals)

    @cached_property
    def measure(self) -> Fraction:
        return sum((right - left for left, right in self.intervals), ZERO)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        a, b = self.intervals, other.intervals
        out: list[Pair] = []
        i = j = 0
        while i < len(a) and j < len(b):
            left = max(a[i][0], b[j][0])
            right = min(a[i][1], b[j][1])
            if left < right:
                out.append((left, right))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        # inputs canonical, so the sweep output is canonical already
        return IntervalSet(tuple(out))
