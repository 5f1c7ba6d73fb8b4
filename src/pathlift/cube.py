"""Multi-affine interpolation of measures over [0, 1]^n and its lifting.

With corner measures m_1, ..., m_{K}, the interpolation over the
(K-1)-cube blends the previous level toward the next corner along each
coordinate in turn.  The lifting follows the same recursion: the value
at (t_1, ..., t_k) is the segment lift from the value at
(t_1, ..., t_{k-1}) to the canonical variable of the next corner, taken
at t_k; the empty prefix holds the canonical variable of the first
corner.  Each prefix point keeps its segment lift, which serves every
point below it.  The pointwise law equals the interpolation exactly at
every rational point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import PreconditionError
from .lifting import SegmentLift
from .randomvars import SimpleRandomVariable, canonical_rv
from .spaces import ONE, ZERO, FiniteMetricSpace, Measure, mixture, same_space


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
    def _segments(self) -> dict[tuple[Fraction, ...], SegmentLift]:
        """The segment lift of each prefix point queried so far."""
        return {}

    def _segment(self, prefix: tuple[Fraction, ...]) -> SegmentLift:
        """The lift along the next axis at a checked prefix point: from the
        value there (the first corner's at the empty prefix) to the next corner."""
        seg = self._segments.get(prefix)
        if seg is None:
            start = self._segment(prefix[:-1]).eval(prefix[-1]) if prefix else self.corner_rvs[0]
            seg = self._segments[prefix] = SegmentLift(start, self.corner_rvs[len(prefix) + 1])
        return seg

    def eval(self, ts) -> SimpleRandomVariable:
        """Lifting twin of g_eval: the segment lift at the point's prefix,
        taken at its last coordinate."""
        ts = _check_point(self.interp, ts)
        return self._segment(ts[:-1]).eval(ts[-1])
