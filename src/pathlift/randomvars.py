"""Simple random variables on [0, 1) with values in a finite space.

A variable is a labeled partition of the unit interval, stored as slabs:
one strictly increasing cut tuple 0 = c_0 < ... < c_n = 1 and one label
(a point index of the space) per slab [c_k, c_{k+1}).  Adjacent slabs
carry different labels, so the representation of a partition is unique
and dataclass ``==`` is exact set equality.  Every construction checks
this in one pass over the slabs.

Each operation is one left-to-right walk over cut arrays: ``law``,
``joint_coupling`` (over the common ``refinement`` of two variables),
``realize_coupling`` and ``canonical_rv``.  The per-point ``blocks``
(canonical IntervalSets) are derived on demand for the JSON format and
the independent oracles.  ``kyfan_rho`` is the metric of convergence in
probability; ``match_to_law`` rearranges a variable to hit a target law
at exactly the Prokhorov distance between the laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import PreconditionError
from .omega import ONE, ZERO, IntervalSet
from .prokhorov import kyfan_functional, prokhorov_coupling
from .spaces import CouplingMatrix, FiniteMetricSpace, Measure, same_space

# One piece of a common refinement: (right end, label in x, label in y).
Piece = tuple[Fraction, int, int]


@dataclass(frozen=True)
class SimpleRandomVariable:
    space: FiniteMetricSpace
    cuts: tuple[Fraction, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        cuts, labels = self.cuts, self.labels
        if len(cuts) != len(labels) + 1 or not labels:
            raise PreconditionError("one label per slab between consecutive cuts is required")
        if cuts[0] != ZERO or cuts[-1] != ONE:
            raise PreconditionError("slab cuts must run from 0 to 1")
        for left, right in zip(cuts, cuts[1:]):
            if not left < right:
                raise PreconditionError(f"slab cuts not strictly increasing at {right}")
        m = self.space.size
        prev = None
        for label in labels:
            if not 0 <= label < m:
                raise PreconditionError(f"slab label {label} outside the {m} points")
            if label == prev:
                raise PreconditionError(f"adjacent slabs share the label {label}")
            prev = label

    @classmethod
    def from_blocks(
        cls, space: FiniteMetricSpace, blocks: Sequence[IntervalSet]
    ) -> "SimpleRandomVariable":
        """The variable whose k-th point takes exactly the set blocks[k]."""
        if len(blocks) != space.size:
            raise PreconditionError("one block per point of the space is required")
        pieces = sorted(
            (left, right, label)
            for label, block in enumerate(blocks)
            for left, right in block.intervals
        )
        cuts = (ZERO,) + tuple(right for _, right, _ in pieces)
        if cuts[-1] != ONE or any(left != cut for (left, _, _), cut in zip(pieces, cuts)):
            raise PreconditionError("blocks must partition [0, 1) exactly")
        # canonical blocks never hold two adjacent pieces of one label
        return cls(space, cuts, tuple(label for _, _, label in pieces))

    @classmethod
    def from_slabs(
        cls, space: FiniteMetricSpace, slabs: Iterable[tuple[Fraction, int]]
    ) -> "SimpleRandomVariable":
        """The variable built from (right end, label) slabs, left to right,
        merging neighbours with equal labels."""
        cuts, labels = [ZERO], []
        for right, label in slabs:
            if labels and labels[-1] == label:
                cuts[-1] = right
            else:
                cuts.append(right)
                labels.append(label)
        return cls(space, tuple(cuts), tuple(labels))

    @cached_property
    def blocks(self) -> tuple[IntervalSet, ...]:
        """The set each point takes, as canonical IntervalSets."""
        pieces: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(self.space.size)]
        for left, right, label in zip(self.cuts, self.cuts[1:], self.labels):
            pieces[label].append((left, right))
        return tuple(IntervalSet(tuple(p)) for p in pieces)

    def block(self, point: str) -> IntervalSet:
        return self.blocks[self.space.index(point)]


def law(x: SimpleRandomVariable) -> Measure:
    """The distribution of x: weight of each point is its total slab length."""
    weights = [ZERO] * x.space.size
    cuts = x.cuts
    for k, label in enumerate(x.labels):
        weights[label] += cuts[k + 1] - cuts[k]
    return Measure(x.space, tuple(weights))


def refinement(x: SimpleRandomVariable, y: SimpleRandomVariable) -> list[Piece]:
    """Common refinement of x and y, left to right, as (right, i, j).

    Piece k spans [right of piece k-1 (0 for the first), right) and lies
    in the cell where x = i and y = j.  Consecutive pieces lie in
    different cells, because each cut changes the label of x or of y.
    """
    xc, xl, yc, yl = x.cuts, x.labels, y.cuts, y.labels
    pieces: list[Piece] = []
    p = q = 0
    n = len(xl)
    while p < n:
        a, b = xc[p + 1], yc[q + 1]
        if a < b:
            pieces.append((a, xl[p], yl[q]))
            p += 1
        elif b < a:
            pieces.append((b, xl[p], yl[q]))
            q += 1
        else:
            pieces.append((a, xl[p], yl[q]))
            p += 1
            q += 1
    return pieces


def cell_masses(m: int, pieces: Sequence[Piece]) -> tuple[tuple[Fraction, ...], ...]:
    """measure(x = i and y = j) for all i, j, from a refinement."""
    mass = [[ZERO] * m for _ in range(m)]
    left = ZERO
    for right, i, j in pieces:
        mass[i][j] += right - left
        left = right
    return tuple(tuple(row) for row in mass)


def joint_coupling(x: SimpleRandomVariable, y: SimpleRandomVariable) -> CouplingMatrix:
    """Joint mass matrix measure(A_i & B_j); couples law(x) with law(y)."""
    same_space(x.space, y.space)
    return CouplingMatrix(x.space, cell_masses(x.space.size, refinement(x, y)))


def kyfan_rho(x: SimpleRandomVariable, y: SimpleRandomVariable) -> Fraction:
    """inf{eps > 0 : P(d(x, y) >= eps) <= eps}, exact."""
    return kyfan_functional(joint_coupling(x, y))


def realize_coupling(x: SimpleRandomVariable, pi: CouplingMatrix) -> SimpleRandomVariable:
    """A variable y with measure(A_i & B_j) = pi[i][j] for all i, j.

    Requires the row marginal of pi to equal law(x).  Deterministic: the
    j-th piece of the leftmost split of each block A_i by its pi row goes
    to B_j.  One walk over the slabs of x, with one column pointer per
    row.  Consequently law(y) is the column marginal and
    kyfan_rho(x, y) = kyfan_functional(pi).
    """
    same_space(x.space, pi.space)
    if law(x) != pi.row_marginal():
        raise PreconditionError("row marginal of the coupling differs from law(x)")
    mass = pi.mass
    col = [0] * x.space.size
    need = [row[0] for row in mass]  # mass of pi[i][col[i]] not yet placed
    slabs = []
    for left, right, i in zip(x.cuts, x.cuts[1:], x.labels):
        cur = left
        while cur < right:
            while not need[i]:
                col[i] += 1
                need[i] = mass[i][col[i]]
            take = min(need[i], right - cur)
            need[i] -= take
            cur += take
            slabs.append((cur, col[i]))
    return SimpleRandomVariable.from_slabs(x.space, slabs)


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
    cuts, labels = [ZERO], []
    for j, w in enumerate(nu.weights):
        if w:
            cuts.append(cuts[-1] + w)
            labels.append(j)
    return SimpleRandomVariable(nu.space, tuple(cuts), tuple(labels))
