"""Exact set algebra on the unit interval [0, 1) with Lebesgue measure.

A measurable set is a finite union of half-open rational intervals
[left, right), stored in canonical form: intervals sorted, pairwise
disjoint, never adjacent.  Canonical form makes structural equality
agree with set equality, so ``==`` is an exact set comparison and every
measure is an exact ``Fraction``.

The space is nonatomic in a constructive sense, realized by "leftmost
carving": ``prefix`` takes any requested mass from a set by walking it
left to right, and ``split`` cuts a set into consecutive slabs of
prescribed masses.

Every operation normalizes its output (merging adjacent intervals), so
interval counts never blow up beyond the input sizes, and each op runs
in time linear in the total interval count of its operands.

Random variables store their partition as labeled slabs (see
``randomvars``), so the library itself now uses IntervalSet only for
the per-point ``blocks`` of the JSON format (reading and writing), for
the selftest's independent oracles, and in the tests' block-algebra
oracle for the slab code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

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

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls(((ZERO, ONE),))

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

    # -- basic queries ------------------------------------------------

    @cached_property
    def measure(self) -> Fraction:
        return sum((right - left for left, right in self.intervals), ZERO)

    def is_empty(self) -> bool:
        return not self.intervals

    def issubset(self, other: "IntervalSet") -> bool:
        return self.difference(other).is_empty()

    # -- boolean operations -------------------------------------------

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

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_pairs(self.intervals + other.intervals)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Pair] = []
        j = 0
        b = other.intervals
        for left, right in self.intervals:
            cur = left
            while j < len(b) and b[j][1] <= cur:
                j += 1
            k = j
            while k < len(b) and b[k][0] < right:
                if b[k][0] > cur:
                    out.append((cur, b[k][0]))
                cur = max(cur, b[k][1])
                if cur >= right:
                    break
                k += 1
            if cur < right:
                out.append((cur, right))
        return IntervalSet(tuple(out))

    def complement(self) -> "IntervalSet":
        out: list[Pair] = []
        prev = ZERO
        for left, right in self.intervals:
            if prev < left:
                out.append((prev, left))
            prev = right
        if prev < ONE:
            out.append((prev, ONE))
        return IntervalSet(tuple(out))

    # -- nonatomic carving --------------------------------------------

    def prefix(self, t: Fraction) -> "IntervalSet":
        """Leftmost subset of exact mass ``t``.

        Monotone in t: prefix(s) is contained in prefix(t) for s <= t,
        and measure(prefix(t)) = t exactly.
        """
        t = Fraction(t)
        if t < ZERO or t > self.measure:
            raise PreconditionError(
                f"prefix mass {t} outside [0, {self.measure}]"
            )
        out: list[Pair] = []
        remaining = t
        for left, right in self.intervals:
            if remaining == ZERO:
                break
            length = right - left
            if length <= remaining:
                out.append((left, right))
                remaining -= length
            else:
                out.append((left, left + remaining))
                remaining = ZERO
        return IntervalSet(tuple(out))

    def split(self, weights: Sequence[Fraction]) -> list["IntervalSet"]:
        """Cut into consecutive leftmost slabs of the given masses.

        The weights must be nonnegative and sum to measure(self).  Parts
        are pairwise disjoint, cover self, and part k has exact mass
        weights[k].  Zero weights yield empty parts.
        """
        weights = [Fraction(w) for w in weights]
        for w in weights:
            if w < ZERO:
                raise PreconditionError(f"negative split weight {w}")
        total = sum(weights, ZERO)
        if total != self.measure:
            raise PreconditionError(
                f"split weights sum to {total}, set has measure {self.measure}"
            )
        parts: list[IntervalSet] = []
        idx = 0
        cursor = self.intervals[0][0] if self.intervals else ZERO
        for w in weights:
            out: list[Pair] = []
            need = w
            while need > ZERO:
                left, right = self.intervals[idx]
                start = max(left, cursor)
                avail = right - start
                if avail <= need:
                    out.append((start, right))
                    need -= avail
                    idx += 1
                    cursor = self.intervals[idx][0] if idx < len(self.intervals) else ONE
                else:
                    out.append((start, start + need))
                    cursor = start + need
                    need = ZERO
            parts.append(IntervalSet(tuple(out)))
        return parts
