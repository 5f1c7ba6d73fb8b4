"""Finite metric spaces, probability measures on them, and couplings.

All three live on one integer lattice, in lowest terms, so ``==`` is
exact and every operation stays on integers.  A space is ``den`` and
integer distance rows ``ints``, validated at construction with a witness
in the error message; ``distance_levels`` holds its distinct distances
sorted once, each with its point pairs, which the Ky Fan sweep and the
Prokhorov max-flow walk.  A measure is ``den`` and integer ``nums``, a
coupling ``den`` and integer rows ``ints``.  The Fraction ``dist``,
``weights`` and ``mass`` are derived on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Finite metric space: d(points[i], points[j]) is ints[i][j] / den."""

    points: tuple[str, ...]
    den: int
    ints: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.points)
        if m == 0:
            raise PreconditionError("a metric space needs at least one point")
        if len(set(self.points)) != m:
            raise PreconditionError("duplicate point identifiers")
        p, d = self.points, self.ints
        if len(d) != m or any(len(row) != m for row in d):
            raise PreconditionError("distance matrix is not square of matching size")
        if self.den < 1 or math.gcd(self.den, *(x for row in d for x in row)) != 1:
            raise PreconditionError(f"distances over {self.den} not in lowest terms")
        for i in range(m):
            if d[i][i] != 0:
                raise PreconditionError(f"nonzero diagonal: d({p[i]},{p[i]}) = {self.dist[i][i]}")
        for i in range(m):
            for j in range(i + 1, m):
                if d[i][j] != d[j][i]:
                    raise PreconditionError(
                        f"asymmetry: d({p[i]},{p[j]}) = {self.dist[i][j]} "
                        f"but d({p[j]},{p[i]}) = {self.dist[j][i]}"
                    )
                if d[i][j] <= 0:
                    raise PreconditionError(
                        f"non-positive distance: d({p[i]},{p[j]}) = {self.dist[i][j]}"
                    )
        # by symmetry the first violated triple (i, j, k) has i < k
        for i, row_i in enumerate(d):
            for j, row_j in enumerate(d):
                via = row_i[j]
                for k in range(i + 1, m):
                    if row_i[k] > via + row_j[k]:
                        raise PreconditionError(
                            f"triangle violation ({p[i]},{p[j]},{p[k]}): "
                            f"{self.dist[i][k]} > {self.dist[i][j]} + {self.dist[j][k]}"
                        )

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self.points.index(point)
        except ValueError:
            raise PreconditionError(f"unknown point {point!r}") from None

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.ints)

    @cached_property
    def distance_levels(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """The distinct positive distances in increasing order, over den,
        each with the ordered pairs (i, j), i != j, at that distance.
        Computed once per space; equality and hashing stay on the fields."""
        pairs: dict[int, list[tuple[int, int]]] = {}
        for i, row in enumerate(self.ints):
            for j, x in enumerate(row):
                if i != j:
                    pairs.setdefault(x, []).append((i, j))
        return tuple((x, tuple(pairs[x])) for x in sorted(pairs))


def validate_space(points: Sequence[str], dist: Sequence[Sequence[Fraction]]) -> FiniteMetricSpace:
    """The space of these rational distances, over their lcm; raises on a violated axiom."""
    den = math.lcm(*(x.denominator for row in dist for x in row))
    ints = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in dist)
    return FiniteMetricSpace(tuple(points), den, ints)


def same_space(a: FiniteMetricSpace, b: FiniteMetricSpace) -> None:
    if a is not b and a != b:
        raise PreconditionError("operands live on different metric spaces")


@dataclass(frozen=True)
class Measure:
    """Probability measure on a finite space: weight i is nums[i] / den."""

    space: FiniteMetricSpace
    den: int
    nums: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nums) != self.space.size:
            raise PreconditionError("weight vector length does not match the space")
        for w in self.nums:
            if w < 0:
                raise PreconditionError(f"negative weight {Fraction(w, self.den)}")
        if sum(self.nums) != self.den:
            raise PreconditionError("weights must sum to 1 exactly")
        if math.gcd(*self.nums) != 1:
            raise PreconditionError(f"weights over {self.den} not in lowest terms")

    @classmethod
    def from_weights(cls, space: FiniteMetricSpace, weights: Sequence[Fraction]) -> "Measure":
        """The measure with these rational weights, over their lcm."""
        den = math.lcm(*(w.denominator for w in weights))
        return cls(space, den, tuple(w.numerator * (den // w.denominator) for w in weights))

    @classmethod
    def reduced(cls, space: FiniteMetricSpace, den: int, nums: Sequence[int]) -> "Measure":
        """The measure with weights nums / den, their common gcd with den divided out."""
        g = math.gcd(den, *nums)
        return cls(space, den // g, tuple(w // g for w in nums))

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.den) for w in self.nums)


def dirac(space: FiniteMetricSpace, point: str) -> Measure:
    i = space.index(point)
    return Measure(space, 1, tuple(int(k == i) for k in range(space.size)))


def mixture(mu: Measure, nu: Measure, t: Fraction) -> Measure:
    """The affine combination (1-t) * mu + t * nu, exact: with t = p / q
    read off t as an integer pair, integers over q * lcm(mu.den, nu.den).
    At t = 0 and 1 it hands back mu and nu, already reduced."""
    t = t if type(t) is Fraction else Fraction(t)
    p, q = t.as_integer_ratio()
    if p < 0 or p > q:
        raise PreconditionError(f"mixture parameter {t} outside [0, 1]")
    same_space(mu.space, nu.space)
    if p in (0, q):
        return nu if p else mu
    den = math.lcm(mu.den, nu.den)
    a, b = (q - p) * (den // mu.den), p * (den // nu.den)
    return Measure.reduced(mu.space, q * den, [a * x + b * y for x, y in zip(mu.nums, nu.nums)])


@dataclass(frozen=True)
class CouplingMatrix:
    """Joint mass matrix, cell (i, j) holding ints[i][j] / den; total mass 1."""

    space: FiniteMetricSpace
    den: int
    ints: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = self.space.size
        if len(self.ints) != m or any(len(row) != m for row in self.ints):
            raise PreconditionError("coupling matrix is not square of matching size")
        neg = [x for row in self.ints for x in row if x < 0]
        if neg:
            raise PreconditionError(f"negative coupling mass {Fraction(neg[0], self.den)}")
        total = sum(map(sum, self.ints))
        if total != self.den:
            raise PreconditionError(f"coupling total mass {Fraction(total, self.den)} != 1")
        if math.gcd(*(x for row in self.ints for x in row)) != 1:
            raise PreconditionError(f"coupling masses over {self.den} not in lowest terms")

    @classmethod
    def reduced(
        cls, space: FiniteMetricSpace, den: int, ints: Sequence[Sequence[int]]
    ) -> "CouplingMatrix":
        """The coupling with cell masses ints / den, their common gcd with den divided out."""
        g = math.gcd(den, *(x for row in ints for x in row))
        return cls(space, den // g, tuple(tuple(x // g for x in row) for row in ints))

    @cached_property
    def mass(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.ints)

    def row_marginal(self) -> Measure:
        return Measure.reduced(self.space, self.den, tuple(map(sum, self.ints)))

    def col_marginal(self) -> Measure:
        return Measure.reduced(self.space, self.den, tuple(map(sum, zip(*self.ints))))
