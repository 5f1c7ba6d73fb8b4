"""Finite metric spaces, probability measures on them, and couplings.

Points carry string identifiers; distances and weights are exact
Fractions.  Metric axioms are validated at construction with a witness
in the error message; the O(m^3) triangle check, like a coupling's
unit-mass check, runs on integers, the values scaled by their lcm.  Each
space also sorts its distances once, on first use: ``distance_levels``
lists the distinct positive distances with the point pairs at each,
which the Ky Fan functional and the Prokhorov max-flow sweep instead of
rescanning all m^2 pairs per threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError
from .omega import ONE, ZERO


@dataclass(frozen=True)
class FiniteMetricSpace:
    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.points)
        if m == 0:
            raise PreconditionError("a metric space needs at least one point")
        if len(set(self.points)) != m:
            raise PreconditionError("duplicate point identifiers")
        if len(self.dist) != m or any(len(row) != m for row in self.dist):
            raise PreconditionError("distance matrix is not square of matching size")
        p = self.points
        d = self.dist
        for i in range(m):
            if d[i][i] != ZERO:
                raise PreconditionError(f"nonzero diagonal: d({p[i]},{p[i]}) = {d[i][i]}")
        for i in range(m):
            for j in range(i + 1, m):
                if d[i][j] != d[j][i]:
                    raise PreconditionError(
                        f"asymmetry: d({p[i]},{p[j]}) = {d[i][j]} "
                        f"but d({p[j]},{p[i]}) = {d[j][i]}"
                    )
                if d[i][j] <= ZERO:
                    raise PreconditionError(
                        f"non-positive distance: d({p[i]},{p[j]}) = {d[i][j]}"
                    )
        den = math.lcm(*(x.denominator for row in d for x in row))
        scaled = [[x.numerator * (den // x.denominator) for x in row] for row in d]
        for i, row_i in enumerate(scaled):
            for j, row_j in enumerate(scaled):
                via = row_i[j]
                for k, direct in enumerate(row_i):
                    if direct > via + row_j[k]:
                        raise PreconditionError(
                            f"triangle violation ({p[i]},{p[j]},{p[k]}): "
                            f"{d[i][k]} > {d[i][j]} + {d[j][k]}"
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
    def distance_levels(self) -> tuple[tuple[Fraction, tuple[tuple[int, int], ...]], ...]:
        """The distinct positive distances in increasing order, each with
        the ordered pairs (i, j), i != j, at that distance.  Computed once
        per space; equality and hashing stay on the fields."""
        pairs: dict[Fraction, list[tuple[int, int]]] = {}
        for i, row in enumerate(self.dist):
            for j, x in enumerate(row):
                if i != j:
                    pairs.setdefault(x, []).append((i, j))
        return tuple((x, tuple(pairs[x])) for x in sorted(pairs))


def validate_space(points: Sequence[str], dist: Sequence[Sequence[Fraction]]) -> FiniteMetricSpace:
    """Build a metric space, reporting the violated axiom on failure."""
    return FiniteMetricSpace(
        tuple(points), tuple(tuple(Fraction(x) for x in row) for row in dist)
    )


def same_space(a: FiniteMetricSpace, b: FiniteMetricSpace) -> None:
    if a is not b and a != b:
        raise PreconditionError("operands live on different metric spaces")


@dataclass(frozen=True)
class Measure:
    """Probability measure with rational weights on a finite space."""

    space: FiniteMetricSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.space.size:
            raise PreconditionError("weight vector length does not match the space")
        for w in self.weights:
            if w < ZERO:
                raise PreconditionError(f"negative weight {w}")
        if sum(self.weights, ZERO) != ONE:
            raise PreconditionError("weights must sum to 1 exactly")

    def weight(self, point: str) -> Fraction:
        return self.weights[self.space.index(point)]

    def support(self) -> tuple[str, ...]:
        return tuple(p for p, w in zip(self.space.points, self.weights) if w > ZERO)


def dirac(space: FiniteMetricSpace, point: str) -> Measure:
    w = [ZERO] * space.size
    w[space.index(point)] = ONE
    return Measure(space, tuple(w))


def mixture(mu: Measure, nu: Measure, t: Fraction) -> Measure:
    """The affine combination (1-t) * mu + t * nu, exact."""
    t = Fraction(t)
    if t < ZERO or t > ONE:
        raise PreconditionError(f"mixture parameter {t} outside [0, 1]")
    same_space(mu.space, nu.space)
    s = ONE - t
    return Measure(mu.space, tuple(s * a + t * b for a, b in zip(mu.weights, nu.weights)))


@dataclass(frozen=True)
class CouplingMatrix:
    """Joint rational mass matrix; marginals are derived, total mass 1."""

    space: FiniteMetricSpace
    mass: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        m = self.space.size
        if len(self.mass) != m or any(len(row) != m for row in self.mass):
            raise PreconditionError("coupling matrix is not square of matching size")
        for row in self.mass:
            for x in row:
                if x.numerator < 0:
                    raise PreconditionError(f"negative coupling mass {x}")
        den = math.lcm(*(x.denominator for row in self.mass for x in row))
        total = sum(x.numerator * (den // x.denominator) for row in self.mass for x in row)
        if total != den:
            raise PreconditionError(f"coupling total mass {Fraction(total, den)} != 1")

    def row_marginal(self) -> Measure:
        return Measure(self.space, tuple(sum(row, ZERO) for row in self.mass))

    def col_marginal(self) -> Measure:
        m = self.space.size
        return Measure(
            self.space,
            tuple(sum((self.mass[i][j] for i in range(m)), ZERO) for j in range(m)),
        )
