"""Multi-affine interpolation of measures over [0, 1]^n and its lifting.

With corner measures m_1, ..., m_{K}, the interpolation over the
(K-1)-cube blends the previous level toward the next corner along each
coordinate in turn.  The lifting follows the same recursion: the value
at (t_1, ..., t_k) is the segment lift from the value at
(t_1, ..., t_{k-1}) to the canonical variable of the next corner, taken
at t_k; the empty prefix holds the canonical variable of the first
corner.  Each prefix point keeps its segment lift and its mixture,
which serve every point below it.  So rho between two points that
differ only in t_a often needs no evaluation.  If some later coordinate
t_j (j > a) is 1, the value at (t_1, ..., t_j) is the canonical variable
of m_{j+1} at both points, and the recursion from there is the same:
one variable, rho 0.  If every later coordinate is 0, each segment lift
below is taken at its stored start, so both values are the segment lift
at (t_1, ..., t_{a-1}) taken at t_a and t_a', and rho is its closed form
``rho_apart``; the last axis is the case with no later coordinate.
A point's coordinates are read once, as the ``_unit`` pairs that key prefixes.
``cube_grid`` applies both rules over a uniform grid, each closed form
once per prefix, and runs ``kyfan_rho`` only on the other neighbour
pairs.  The pointwise law equals the interpolation exactly at every
rational point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import product

from .errors import PreconditionError
from .lifting import SegmentLift
from .prokhorov import prokhorov
from .randomvars import SimpleRandomVariable, canonical_rv, kyfan_rho, law
from .spaces import ZERO, FiniteMetricSpace, Measure, _mix, _unit, same_space


@dataclass(frozen=True)
class CubeInterpolation:
    space: FiniteMetricSpace
    corners: tuple[Measure, ...]

    def __post_init__(self) -> None:
        if len(self.corners) < 2:
            raise PreconditionError("need at least two corner measures")
        for c in self.corners:
            same_space(c.space, self.space)

    @property
    def dimension(self) -> int:
        return len(self.corners) - 1

    @cached_property
    def _mixtures(self) -> dict[tuple[tuple[int, int], ...], Measure]:
        """The mixture at each prefix point queried so far: the first corner at the empty one."""
        return {(): self.corners[0]}

    def mix(self, prefix: tuple[tuple[int, int], ...]) -> Measure:
        """The value at its own prefix mixed toward the next corner, at ``_check_point`` pairs."""
        acc = self._mixtures.get(prefix)
        if acc is None:
            acc = _mix(self.mix(prefix[:-1]), self.corners[len(prefix)], *prefix[-1])
            self._mixtures[prefix] = acc
        return acc


def _check_point(interp: CubeInterpolation, ts) -> tuple[tuple[int, int], ...]:
    """The point's coordinates, each read once by ``_unit``: reduced pairs (p, q)."""
    units = tuple(map(_unit, ts))
    if len(units) != interp.dimension:
        raise PreconditionError(
            f"expected {interp.dimension} coordinates, got {len(units)}"
        )
    return units


def g_eval(interp: CubeInterpolation, ts) -> Measure:
    """Nested affine mixture of the corners at the given point."""
    return interp.mix(_check_point(interp, ts))


@dataclass(frozen=True)
class CubeLift:
    interp: CubeInterpolation

    @property
    def space(self) -> FiniteMetricSpace:
        return self.interp.space

    @cached_property
    def corner_rvs(self) -> tuple[SimpleRandomVariable, ...]:
        """The canonical variable of each corner measure."""
        return tuple(canonical_rv(corner) for corner in self.interp.corners)

    @cached_property
    def _segments(self) -> dict[tuple[tuple[int, int], ...], SegmentLift]:
        """The segment lift of each prefix point queried so far."""
        return {}

    def segment(self, prefix: tuple[tuple[int, int], ...]) -> SegmentLift:
        """The lift along the next axis at a prefix point, given as ``_check_point``
        pairs: from the value there (the first corner's at the empty prefix) to the next corner."""
        seg = self._segments.get(prefix)
        if seg is None:
            start = self.segment(prefix[:-1])._at(*prefix[-1]) if prefix else self.corner_rvs[0]
            seg = self._segments[prefix] = SegmentLift(start, self.corner_rvs[len(prefix) + 1])
        return seg

    def eval(self, ts) -> SimpleRandomVariable:
        """Lifting twin of g_eval: the segment lift at the point's prefix,
        taken at its last coordinate."""
        units = _check_point(self.interp, ts)
        return self.segment(units[:-1])._at(*units[-1])


def cube_grid(lift: CubeLift, per_axis: int) -> tuple[list, list[Fraction], list]:
    """The lift on the grid of per_axis points per axis, in product order:
    the points, each point's law gap to ``g_eval``, and (k, j, rho) for
    each neighbour pair, point k and the next point j along an axis, in
    order of k and then of the axis."""
    if per_axis < 2:
        raise PreconditionError("cube grid needs at least 2 points per axis")
    n = lift.interp.dimension
    axis = [Fraction(i, per_axis - 1) for i in range(per_axis)]
    units = list(map(_unit, axis))  # each axis value read once, for prefix keys
    indices = list(product(range(per_axis), repeat=n))
    strides = [per_axis ** (n - 1 - a) for a in range(n)]  # k + strides[a]: k's neighbour along a
    points = [tuple(axis[i] for i in idx) for idx in indices]
    values = [lift.eval(point) for point in points]
    gaps = [prokhorov(law(v), g_eval(lift.interp, p)) for v, p in zip(values, points)]

    @cache
    def apart(prefix):  # rho one cell apart on the segment lift at a prefix, by its indices
        return lift.segment(tuple(units[i] for i in prefix)).rho_apart(1, per_axis - 1)

    def rho(k, a):
        # a later coordinate 1 puts both ends on one corner's variable; with every later
        # coordinate 0 both are one cell apart on the segment lift at k's prefix before a
        rest, j = indices[k][a + 1:], k + strides[a]
        if any(rest):
            return ZERO if per_axis - 1 in rest else kyfan_rho(values[k], values[j])
        return apart(indices[k][:a])

    adjacent = [
        (k, k + strides[a], rho(k, a))
        for k, idx in enumerate(indices)
        for a, i in enumerate(idx)
        if i + 1 < per_axis
    ]
    return points, gaps, adjacent
