"""Measurable subsets of the unit interval [0, 1) with Lebesgue measure.

A set is a finite union of half-open rational intervals [left, right),
stored in canonical form: intervals sorted, pairwise disjoint, never
adjacent.  Canonical form makes structural equality agree with set
equality, so ``==`` is an exact set comparison.

Random variables store their partition as labeled slabs (see
``randomvars``); the JSON reader and writer work on those integers.
IntervalSet is only the type of the derived per-point ``blocks`` view.
The set algebra itself (union, intersection, measure, complement,
difference, leftmost prefix and split) is the tests' block oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
