"""Simple random variables on [0, 1) with values in a finite space.

A variable is a labeled partition of the unit interval, stored as slabs
over one denominator ``den``: integer cuts 0 = c_0 < ... < c_n = den in
lowest terms and one label (a point index of the space) per slab
[c_k / den, c_{k+1} / den).  Adjacent slabs carry different labels, so
the representation of a partition is unique and dataclass ``==`` is
exact set equality.  Every construction checks this in one pass.

Each operation is one left-to-right walk over integer cuts, two
variables scaled to the lcm of their dens, reading and yielding the
integer measures and couplings of ``spaces``: ``law``, ``joint_coupling``
(over the common ``refinement``), ``realize_coupling`` and
``canonical_rv``.  ``kyfan_rho`` is the metric of convergence in
probability, swept on the refinement's integer cell masses with no
coupling built; ``match_to_law`` rearranges a variable to hit a target
law at exactly the Prokhorov distance between the laws.  Variables are
built from slabs only: ``serialize`` reads the JSON blocks straight to
slabs; the per-point ``blocks`` (IntervalSets) serve the independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import InvariantError, PreconditionError
from .omega import IntervalSet
from .prokhorov import _kyfan_from_tails, _level_tails, prokhorov_coupling
from .spaces import CouplingMatrix, FiniteMetricSpace, Measure, same_space

# One piece of a common refinement: (right end over its den, label in x, label in y).
Piece = tuple[int, int, int]


@dataclass(frozen=True)
class SimpleRandomVariable:
    space: FiniteMetricSpace
    den: int
    cuts: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        cuts, labels = self.cuts, self.labels
        if len(cuts) != len(labels) + 1 or not labels:
            raise PreconditionError("one label per slab between consecutive cuts is required")
        if cuts[0] != 0 or cuts[-1] != self.den:
            raise PreconditionError("slab cuts must run from 0 to 1")
        for left, right in zip(cuts, cuts[1:]):
            if not left < right:
                raise PreconditionError(f"slab cuts not strictly increasing at {right}/{self.den}")
        if math.gcd(*cuts) != 1:
            raise PreconditionError(f"slab cuts over {self.den} not in lowest terms")
        m = self.space.size
        prev = None
        for label in labels:
            if not 0 <= label < m:
                raise PreconditionError(f"slab label {label} outside the {m} points")
            if label == prev:
                raise PreconditionError(f"adjacent slabs share the label {label}")
            prev = label

    @classmethod
    def from_slabs(
        cls, space: FiniteMetricSpace, den: int, slabs: Iterable[tuple[int, int]]
    ) -> "SimpleRandomVariable":
        """The variable of (right end over den, label) slabs, left to right,
        merging equal neighbours and dividing out the gcd of the cuts."""
        cuts, labels = [0], []
        for right, label in slabs:
            if labels and labels[-1] == label:
                cuts[-1] = right
            else:
                cuts.append(right)
                labels.append(label)
        g = math.gcd(den, *cuts)
        return cls(space, den // g, tuple(cut // g for cut in cuts), tuple(labels))

    @cached_property
    def blocks(self) -> tuple[IntervalSet, ...]:
        """The set each point takes, as canonical IntervalSets."""
        pieces: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(self.space.size)]
        ends = [Fraction(cut, self.den) for cut in self.cuts]
        for left, right, label in zip(ends, ends[1:], self.labels):
            pieces[label].append((left, right))
        return tuple(IntervalSet(tuple(p)) for p in pieces)


def law(x: SimpleRandomVariable) -> Measure:
    """The distribution of x: weight of each point is its total slab length."""
    weights = [0] * x.space.size
    for left, right, label in zip(x.cuts, x.cuts[1:], x.labels):
        weights[label] += right - left
    return Measure.reduced(x.space, x.den, weights)


def refinement(x: SimpleRandomVariable, y: SimpleRandomVariable) -> tuple[int, list[Piece]]:
    """Common refinement of x and y over den = lcm(x.den, y.den), left to
    right, as (den, pieces).  Piece (right, i, j) spans [right of the
    piece before (0 for the first), right) over den and lies in the cell
    where x = i and y = j.  Consecutive pieces lie in different cells,
    because each cut changes the label of x or of y.
    """
    den = math.lcm(x.den, y.den)
    sx, sy = den // x.den, den // y.den  # each cut is scaled as the walk reads it
    xc, yc, xl, yl = x.cuts, y.cuts, x.labels, y.labels
    pieces: list[Piece] = []
    p = q = 0
    a, b = xc[1] * sx, yc[1] * sy
    while True:
        if a < b:
            pieces.append((a, xl[p], yl[q]))
            p += 1
            a = xc[p + 1] * sx
        else:  # b ends the piece, and on a tie a ends with it
            pieces.append((b, xl[p], yl[q]))
            if b == den:
                return den, pieces
            if a == b:
                p += 1
                a = xc[p + 1] * sx
            q += 1
            b = yc[q + 1] * sy


def cell_masses(m: int, pieces: Sequence[Piece]) -> list[int]:
    """measure(x = i and y = j) at i * m + j for all i, j, over the refinement's den."""
    mass = [0] * (m * m)
    left = 0
    for right, i, j in pieces:
        mass[i * m + j] += right - left
        left = right
    return mass


def joint_coupling(x: SimpleRandomVariable, y: SimpleRandomVariable) -> CouplingMatrix:
    """Joint mass matrix measure(A_i & B_j); couples law(x) with law(y)."""
    same_space(x.space, y.space)
    den, pieces = refinement(x, y)
    m, masses = x.space.size, cell_masses(x.space.size, pieces)
    return CouplingMatrix.reduced(x.space, den, [masses[i : i + m] for i in range(0, m * m, m)])


def kyfan_rho(x: SimpleRandomVariable, y: SimpleRandomVariable) -> Fraction:
    """inf{eps > 0 : P(d(x, y) >= eps) <= eps}, exact; kyfan_functional(joint_coupling(x, y))."""
    same_space(x.space, y.space)
    den, pieces = refinement(x, y)
    masses = cell_masses(x.space.size, pieces)
    if min(masses) < 0 or sum(masses) != den:
        raise InvariantError("joint cell masses of two variables do not sum to 1")
    return _kyfan_from_tails(x.space, _level_tails(x.space.distance_levels, masses), den)


def realize_coupling(x: SimpleRandomVariable, pi: CouplingMatrix) -> SimpleRandomVariable:
    """A variable y with measure(A_i & B_j) = pi[i][j] for all i, j.

    Requires the row marginal of pi to equal law(x).  Deterministic: the
    j-th piece of the leftmost split of each block A_i by its pi row goes
    to B_j.  One walk over the slabs of x, on integers over the lcm of
    all denominators, with one column pointer per row.  Consequently
    law(y) is the column marginal and kyfan_rho(x, y) = kyfan_functional(pi).
    """
    same_space(x.space, pi.space)
    if law(x) != pi.row_marginal():
        raise PreconditionError("row marginal of the coupling differs from law(x)")
    den = math.lcm(x.den, pi.den)
    mass = [[w * (den // pi.den) for w in row] for row in pi.ints]
    scale = den // x.den
    col = [0] * x.space.size
    need = [row[0] for row in mass]  # mass of pi[i][col[i]] not yet placed
    slabs = []
    for left, right, i in zip(x.cuts, x.cuts[1:], x.labels):
        cur, right = left * scale, right * scale
        while cur < right:
            while not need[i]:
                col[i] += 1
                need[i] = mass[i][col[i]]
            take = min(need[i], right - cur)
            need[i] -= take
            cur += take
            slabs.append((cur, col[i]))
    return SimpleRandomVariable.from_slabs(x.space, den, slabs)


def match_to_law(x: SimpleRandomVariable, nu: Measure) -> SimpleRandomVariable:
    """The best rearrangement of x with law nu.

    Returns y with law(y) = nu and kyfan_rho(x, y) equal to the
    Prokhorov distance between law(x) and nu, both exactly.
    """
    same_space(x.space, nu.space)
    _, witness = prokhorov_coupling(law(x), nu)
    return realize_coupling(x, witness)


def canonical_rv(nu: Measure) -> SimpleRandomVariable:
    """Consecutive leftmost slabs of [0, 1) with lengths nu.weights."""
    slabs = [(end, j) for j, (w, end) in enumerate(zip(nu.nums, accumulate(nu.nums))) if w]
    return SimpleRandomVariable.from_slabs(nu.space, nu.den, slabs)
