"""Multi-affine interpolation of measures over [0, 1]^n and its lifting.

With corner measures m_1, ..., m_{K}, the interpolation over the
(K-1)-cube blends the previous level toward the next corner along each
coordinate in turn.  The lifting mirrors this with iterated segment
lifts: starting from the canonical variable of the first corner, each
coordinate t moves the current level variable toward the canonical
variable of the next corner by the segment lift at time t.
The pointwise law equals the interpolation exactly at every rational
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import PreconditionError
from .lifting import SegmentLift
from .omega import ONE, ZERO
from .randomvars import SimpleRandomVariable, canonical_rv
from .spaces import FiniteMetricSpace, Measure, mixture, same_space


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


def _check_point(interp: CubeInterpolation, ts) -> tuple[Fraction, ...]:
    ts = tuple(Fraction(t) for t in ts)
    if len(ts) != interp.dimension:
        raise PreconditionError(
            f"expected {interp.dimension} coordinates, got {len(ts)}"
        )
    for t in ts:
        if t < ZERO or t > ONE:
            raise PreconditionError(f"coordinate {t} outside [0, 1]")
    return ts


def g_eval(interp: CubeInterpolation, ts) -> Measure:
    """Nested affine mixture of the corners at the given point."""
    ts = _check_point(interp, ts)
    acc = interp.corners[0]
    for t, corner in zip(ts, interp.corners[1:]):
        acc = mixture(acc, corner, t)
    return acc


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
    def first_segment(self) -> SegmentLift:
        """The first-axis lift, from corner 0 to corner 1; shared by all points."""
        return SegmentLift(self.corner_rvs[0], self.corner_rvs[1])

    def eval(self, ts) -> SimpleRandomVariable:
        """Lifting twin of g_eval: one segment lift per coordinate."""
        ts = _check_point(self.interp, ts)
        value = self.first_segment.eval(ts[0])
        for t, corner in zip(ts[1:], self.corner_rvs[2:]):
            value = SegmentLift(value, corner).eval(t)
        return value
