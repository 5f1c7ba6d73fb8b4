"""Lifting paths of measures to paths of random variables.

A segment lift is the [0, 1] twin of ``mixture``: it joins two simple
random variables by moving, inside each cell A_i & B_j of their joint
partition, a linearly growing leftmost part from value a_i to value a_j.
Its law at s is exactly the mixture of the endpoint laws at s, and it
contracts rho at rate 1.  It caches the common refinement of its
endpoint slabs as (right, i, j) pieces over one denominator plus the
cell masses.  At local time 0 and 1 it hands back its stored ends x and
y, as ``mixture`` hands back mu and nu; an evaluation at any other
s = p / q, an integer pair, is one walk over the pieces on
integers over den * q, with a "mass still to move" counter per cell,
merging equal neighbours.  rho between two local times is the Ky Fan
sweep of cached per-level tail masses scaled by their distance.

A polygonal path of measures and its lift inherit one record,
``_Polygonal``: breakpoints 0 = t_0 < ... < t_n = 1 and one vertex per
breakpoint, a measure or a random variable, checked once for both.
Paths own time: ``spaces._unit``, the one time rule, reads t in [0, 1]
as a reduced pair p / r; over the lcm den of the breakpoints, t lies in the
piece of the last tick k <= p * den // r, whose mixture or segment lift
takes t's local time there as an integer pair: 0 at a breakpoint,
which thus returns its stored vertex (1 at t = 1).  Grids are integer
ticks, made Fractions only where a time is stored or reported.
``lift_polygonal`` alone checks the endpoint variables against the
path; interior vertices are chained by matching.  A Lipschitz path of
measures is approximated by polygonals on uniform grids, which sample
it at 0 and 1 exactly, and lifted iteratively, each round staying
rho-close to the previous one (the 5-epsilon rebuild), with a
Certificate recording every verified quantity as an exact rational.
A relift decides keep-or-rematch on laws alone, by cross-multiplying
their weights: where the previous lift's law path equals the target at
a grid point, its value is the match, and a max-flow runs elsewhere.
As the segment lift from S(a) to S(b) is S on [a, b], a relift stores
only the old breakpoints and points rematched or next to one, evaluating
the old lift only there and at midpoints of pieces with a rematched end.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence

from .errors import PreconditionError
from .prokhorov import _kyfan_from_tails, _level_tails, _tv_sum, prokhorov, prokhorov_coupling
from .randomvars import (
    Piece,
    SimpleRandomVariable,
    cell_masses,
    kyfan_rho,
    law,
    match_to_law,
    realize_coupling,
    refinement,
)
from .spaces import ONE, ZERO, FiniteMetricSpace, Measure, _mix, _time, _unit, same_space

DEFAULT_GRID = 257  # odd count; avoids aliasing with power-of-two breakpoints


def _union(sources: Sequence[tuple[int, Sequence[int]]]) -> tuple[int, list[int]]:
    """The sorted union of the ticks of several (den, ticks), over their lcm."""
    den = math.lcm(*(d for d, _ in sources))
    return den, sorted({k * (den // d) for d, ks in sources for k in ks})


def _times(den: int, ticks: Sequence[int]) -> list[Fraction]:
    return [Fraction(k, den) for k in ticks]


def transfer_blocks(
    space: FiniteMetricSpace,
    den: int,
    pieces: Sequence[Piece],
    masses: Sequence[int],
    num: int,
    q: int,
) -> SimpleRandomVariable:
    """Rearranged variable after moving mass s * masses[i * m + j] per cell.

    Pieces and flat masses are over den, s = num / q; one walk over the
    pieces, over den * q, with one "mass still to move" counter per cell:
    the leftmost s * masses[i * m + j] of cell (i, j) takes value j, the
    rest keeps value i.  Diagonal cells never move.
    """
    m = space.size
    to_move = [w * num for w in masses]
    slabs = []
    left = 0
    for right, i, j in pieces:
        right *= q
        rest = to_move[i * m + j] if i != j else 0
        if not rest:
            slabs.append((right, i))
        elif rest >= right - left:
            slabs.append((right, j))
            to_move[i * m + j] = rest - (right - left)
        else:
            slabs.append((left + rest, j))
            slabs.append((right, i))
            to_move[i * m + j] = 0
        left = right
    return SimpleRandomVariable.from_slabs(space, den * q, slabs)


@dataclass(frozen=True)
class SegmentLift:
    """Exact path of random variables on [0, 1] from x at 0 to y at 1, the
    twin of ``mixture``: its law at s is the mixture of the end laws at s."""

    x: SimpleRandomVariable
    y: SimpleRandomVariable

    def __post_init__(self) -> None:
        same_space(self.x.space, self.y.space)

    @cached_property
    def refinement(self) -> tuple[int, list[Piece]]:
        return refinement(self.x, self.y)

    @cached_property
    def masses(self) -> list[int]:
        return cell_masses(self.space.size, self.refinement[1])

    @cached_property
    def tails(self) -> list[int]:
        """Cell mass at distance >= each distance level, over the refinement's den."""
        return _level_tails(self.space.distance_levels, self.masses)

    @property
    def space(self) -> FiniteMetricSpace:
        return self.x.space

    def eval(self, s: Fraction) -> SimpleRandomVariable:
        """The value at local time s: x at 0 and y at 1 as stored, else one walk."""
        return self._at(*_unit(s))

    def _at(self, num: int, q: int) -> SimpleRandomVariable:  # s = num / q, not reduced
        if num in (0, q):
            return self.y if num else self.x
        return transfer_blocks(self.space, *self.refinement, self.masses, num, q)

    def rho_between(self, s: Fraction, t: Fraction) -> Fraction:
        """rho(eval(s), eval(t)), exact and nondecreasing in |s - t|."""
        (nt, qt), (ns, qs) = _unit(t), _unit(s)
        return self.rho_apart(abs(nt * qs - ns * qt), qs * qt)

    def rho_apart(self, num: int, q: int) -> Fraction:
        """rho between any two times num / q apart, with no evaluation: cell
        (i, j) moves num / q of its mass from i to j in between."""
        return _kyfan_from_tails(self.space, [num * w for w in self.tails], self.refinement[0] * q)


@dataclass(frozen=True)
class _Polygonal:
    """Breakpoints 0 = t_0 < ... < t_n = 1 with one vertex on space per
    breakpoint: the shape shared by paths of measures and their lifts."""

    space: FiniteMetricSpace
    breakpoints: tuple[Fraction, ...]
    vertices: tuple

    def __post_init__(self) -> None:
        bps = self.breakpoints
        if len(bps) < 2 or bps[0] != ZERO or bps[-1] != ONE:
            raise PreconditionError("breakpoints must run from 0 to 1")
        if any(lo >= hi for lo, hi in zip(self.ticks[1], self.ticks[1][1:])):
            raise PreconditionError("breakpoints must be strictly increasing")
        if len(self.vertices) != len(bps):
            raise PreconditionError("one vertex measure per breakpoint required")
        for v in self.vertices:
            same_space(v.space, self.space)

    @cached_property
    def ticks(self) -> tuple[int, tuple[int, ...]]:
        """The breakpoints as integers over their lcm: (den, ticks), tick k meaning k / den."""
        den = math.lcm(*(t.denominator for t in self.breakpoints))
        return den, tuple(t.numerator * (den // t.denominator) for t in self.breakpoints)

    def locate(self, t: Fraction) -> tuple[int, int, int]:
        """The piece [t_i, t_{i+1}] that holds t in [0, 1] (the last holds 1), and
        t's local time (t - t_i) / (t_{i+1} - t_i) = num / q in it: (i, num, q)."""
        return self._piece(*_unit(t))

    def _piece(self, p: int, r: int) -> tuple[int, int, int]:
        """locate at t = p / r; neither pair need be reduced."""
        den, ticks = self.ticks
        i = min(bisect_right(ticks, p * den // r), len(ticks) - 1) - 1
        return i, p * den - ticks[i] * r, (ticks[i + 1] - ticks[i]) * r


class PolygonalPath(_Polygonal):
    """Piecewise-affine path of measures with prescribed vertices."""

    def eval(self, t: Fraction) -> Measure:
        i, num, q = self.locate(t)
        return _mix(self.vertices[i], self.vertices[i + 1], num, q)

    def _unreduced(self, den: int, ks: Sequence[int]) -> Iterator[tuple[list[int], int]]:
        """Per tick k / den in [0, 1]: the weights as (nums, den), unreduced."""
        for k in ks:
            i, num, q = self._piece(k, den)
            a, b = self.vertices[i], self.vertices[i + 1]
            ca, cb = (q - num) * b.den, num * a.den
            yield [ca * x + cb * y for x, y in zip(a.nums, b.nums)], q * a.den * b.den

    def _differs(self, other: PolygonalPath, den: int, ks: Sequence[int]) -> list[bool]:
        """Per tick k / den, whether self and other differ, by cross-multiplication."""
        pairs = zip(self._unreduced(den, ks), other._unreduced(den, ks))
        return [any(x * bd != y * hd for x, y in zip(hn, bn)) for (hn, hd), (bn, bd) in pairs]


class SampledPath:
    """A measure path given by a sample function and a declared modulus.

    q(path(s), path(t)) <= lipschitz * |s - t| is promised by the caller;
    ``from_polygonal`` certifies it for every pair once, by total variation.
    A path from a bare fn is spot-checked at query time against the adjacent
    already-queried times; by the triangle inequality this certifies every
    queried pair, and any violated pair forces a violated adjacent pair; a
    pair is certified by total variation (q <= TV) or else by max-flow, both
    compared with the bound on integers.  Values are memoized by the reduced
    pair (p, r) of their time, so queries repeat cheaply.
    """

    def __init__(
        self, space: FiniteMetricSpace, fn: Callable[[Fraction], Measure], lipschitz: Fraction
    ):
        self.space = space
        self.fn = fn
        self.lipschitz = Fraction(lipschitz)
        self.backbone: PolygonalPath | None = None  # set by from_polygonal only
        if self.lipschitz < ZERO:
            raise PreconditionError("Lipschitz constant must be nonnegative")
        self._times: list[tuple[int, int]] = []  # the spot-checked keys of _values, sorted
        self._values: dict[tuple[int, int], Measure] = {}

    @classmethod
    def from_polygonal(
        cls, beta: PolygonalPath, lipschitz: Fraction | None = None
    ) -> "SampledPath":
        """Wrap a polygonal, kept as the backbone, certifying its modulus once:
        q <= TV, which moves at rate TV_i / l_i along piece i of length l_i, and
        q = TV below the least positive distance, so max_i TV_i / l_i <= L is
        exact.  The default modulus max_i 1 / l_i passes, as TV <= 1."""
        den, ticks = beta.ticks
        if lipschitz is None:
            lipschitz = Fraction(den, min(hi - lo for lo, hi in zip(ticks, ticks[1:])))
        path = cls(beta.space, beta.eval, lipschitz)
        ln, ld = path.lipschitz.as_integer_ratio()
        for i, (a, b) in enumerate(zip(beta.vertices, beta.vertices[1:])):
            lo, hi, tv = ticks[i], ticks[i + 1], _tv_sum(a, b)
            if tv * ld * den > ln * (hi - lo) * 2 * a.den * b.den:
                raise PreconditionError(
                    f"declared Lipschitz constant {path.lipschitz} violated: TV(path("
                    f"{beta.breakpoints[i]}), path({beta.breakpoints[i + 1]})) = "
                    f"{Fraction(tv, 2 * a.den * b.den)} > "
                    f"{path.lipschitz} * {Fraction(hi - lo, den)}"
                )
        path.backbone = beta
        return path

    def eval(self, t: Fraction) -> Measure:
        t = _time(t)
        p, r = _unit(t)
        cached = self._values.get((p, r))
        if cached is not None:
            return cached
        value = self.fn(t)
        if self.backbone is None:  # from_polygonal has certified a backbone's modulus
            same_space(value.space, self.space)
            times, lo, hi = self._times, 0, len(self._times)
            while lo < hi:  # bisect_right on integers: t < n / d iff p * d < n * r
                mid = (lo + hi) // 2
                n, d = times[mid]
                lo, hi = (lo, mid) if p * d < n * r else (mid + 1, hi)
            ln, ld = self.lipschitz.as_integer_ratio()
            for n, d in times[max(lo - 1, 0) : lo + 1]:
                near = self._values[n, d]
                bound_num, bound_den = ln * abs(p * d - n * r), ld * r * d
                if _tv_sum(near, value) * bound_den <= bound_num * 2 * near.den * value.den:
                    continue  # q <= TV, since A lies inside A^eps
                gap = prokhorov(near, value)
                if gap.numerator * bound_den > bound_num * gap.denominator:
                    nb = Fraction(n, d)
                    raise PreconditionError(
                        f"declared Lipschitz constant {self.lipschitz} violated: "
                        f"q(path({nb}), path({t})) = {gap} > "
                        f"{self.lipschitz} * {abs(t - nb)}"
                    )
            times.insert(lo, (p, r))
        self._values[p, r] = value
        return value


class LiftedPath(_Polygonal):
    """Polygonal path of random variables: vertex X_k at breakpoint t_k,
    joined to X_{k+1} on [t_k, t_{k+1}] by their segment lift."""

    @cached_property
    def segments(self) -> tuple[SegmentLift, ...]:
        """The segment lift X_k -> X_{k+1} of each piece, on local time."""
        return tuple(map(SegmentLift, self.vertices, self.vertices[1:]))

    def eval(self, t: Fraction) -> SimpleRandomVariable:
        i, num, q = self.locate(t)
        return self.segments[i]._at(num, q)

    def law_path(self) -> PolygonalPath:
        """The exact polygonal of laws this path lifts."""
        return PolygonalPath(
            self.space, self.breakpoints, tuple(law(v) for v in self.vertices)
        )


def lift_polygonal(
    beta: PolygonalPath,
    x_start: SimpleRandomVariable,
    x_end: SimpleRandomVariable,
) -> LiftedPath:
    """Lift a polygonal with both endpoint variables prescribed.

    Interior vertices are chained matches of the previous vertex to the
    next vertex measure, which keeps oscillation at the Prokhorov
    distance of consecutive vertices; the last segment absorbs the
    prescribed right endpoint.  law(result(t)) = beta(t) for every t.
    """
    same_space(beta.space, x_start.space)
    same_space(beta.space, x_end.space)
    if law(x_start) != beta.vertices[0]:
        raise PreconditionError("left endpoint law differs from the path at 0")
    if law(x_end) != beta.vertices[-1]:
        raise PreconditionError("right endpoint law differs from the path at 1")
    variables = [x_start]
    for target in beta.vertices[1:-1]:
        variables.append(match_to_law(variables[-1], target))
    variables.append(x_end)
    return LiftedPath(beta.space, beta.breakpoints, tuple(variables))


def approximate_polygonal(alpha: SampledPath, eps: Fraction) -> PolygonalPath:
    """Uniform-grid polygonal within eps of alpha in sup Prokhorov gap.

    With N = ceil(2 L / eps) segments the gap on each piece is at most
    L/N (drift to the left grid point) plus L/N (mixture contraction to
    the vertex), and the endpoints interpolate alpha exactly.
    """
    eps = Fraction(eps)
    if eps <= ZERO:
        raise PreconditionError("approximation tolerance must be positive")
    n_seg = max(1, math.ceil(2 * alpha.lipschitz / eps))
    bps = tuple(Fraction(i, n_seg) for i in range(n_seg + 1))
    verts = tuple(alpha.eval(t) for t in bps)
    return PolygonalPath(alpha.space, bps, verts)


def _refined_grid(prev: LiftedPath, beta: PolygonalPath, eps: Fraction) -> tuple[int, list[int]]:
    # pieces of prev are rho-Lipschitz at rate 1/length, so relative
    # sublength < eps keeps the oscillation below eps
    parts = math.floor(1 / eps) + 1 if eps > ZERO else 1
    den, ticks = prev.ticks
    fine = [k for lo, hi in zip(ticks, ticks[1:]) for k in range(lo * parts, hi * parts, hi - lo)]
    return _union([(den * parts, fine), beta.ticks])  # beta's ticks hold 1


def relift_near(prev: LiftedPath, beta: PolygonalPath, eps: Fraction) -> tuple[LiftedPath, Fraction]:
    """Lift beta while staying within 5 * eps of prev in rho, everywhere.

    Precondition (checked on the refined verification grid): the law of
    prev is within eps of beta, and beta agrees with prev's endpoint
    laws exactly.  The endpoints of prev are kept; interior vertices are
    matches of prev to beta at breakpoints refined until prev oscillates
    less than eps per piece.  Keep-or-rematch is decided on laws alone,
    prev.law_path() against beta at each grid point: where they agree
    prev's value is the match, since the optimal coupling of a law with
    itself is the diagonal and realizing it gives the variable back.
    Stored are prev's breakpoints and the points rematched or next to
    one, and prev is evaluated only there.  A dropped point and the
    stored points around it were all kept, with no breakpoint of prev
    between: that stretch lies in one segment lift S of prev, and the
    segment lift from S(a) to S(b) is S on [a, b], so the path is unchanged.
    Also returns the drift, max rho(prev, relifted) on certification_grid(relifted):
    at a vertex it is the Prokhorov gap its coupling attains; midpoints are evaluated
    on the pieces with a rematched end, each one grid cell wide; on
    the others the relift is prev, at rho 0.
    """
    eps = Fraction(eps)
    if eps < ZERO:
        raise PreconditionError("closeness budget must be nonnegative")
    same_space(prev.space, beta.space)
    den, ks = _refined_grid(prev, beta, eps)
    have = prev.law_path()
    if beta.vertices[0] != have.vertices[0]:
        raise PreconditionError("target path differs from prev's law at t = 0")
    if beta.vertices[-1] != have.vertices[-1]:
        raise PreconditionError("target path differs from prev's law at t = 1")
    # moved[j + 1]: interior point j is rematched; moved[j : j + 3] spans j and its neighbours
    moved = [False, False, *have._differs(beta, den, ks[1:-1]), False, False]
    breaks = {k * (den // prev.ticks[0]) for k in prev.ticks[1]}
    keep = [j for j, k in enumerate(ks) if k in breaks or any(moved[j : j + 3])]
    times, variables, drift = [Fraction(ks[j], den) for j in keep], [], ZERO
    for j, t in zip(keep, times):
        value = prev.eval(t)
        if moved[j + 1]:  # one coupling serves both the budget check and the match
            gap, witness = prokhorov_coupling(law(value), beta.eval(t))
            if gap > eps:
                raise PreconditionError(
                    f"law gap {gap} at t = {t} exceeds the declared budget {eps}"
                )
            drift = max(drift, gap)
            value = realize_coupling(value, witness)
        variables.append(value)
    relifted = LiftedPath(prev.space, tuple(times), tuple(variables))
    for seg, j, k in zip(relifted.segments, keep, keep[1:]):
        if moved[j + 1] or moved[k + 1]:  # one grid cell; else seg restricts prev
            i, num, q = prev._piece(ks[j] + ks[k], 2 * den)  # the cell's midpoint
            drift = max(drift, kyfan_rho(prev.segments[i]._at(num, q), seg._at(1, 2)))
    return relifted, drift


def certification_grid(lift: LiftedPath) -> list[Fraction]:
    """Breakpoints plus piece midpoints; where certified sups are taken."""
    den, ticks = lift.ticks
    mids = [lo + hi for lo, hi in zip(ticks, ticks[1:])]
    return _times(*_union([(den, ticks), (2 * den, mids)]))


def sup_rho_on_grid(
    first: LiftedPath, second: LiftedPath, grid: Sequence[Fraction]
) -> Fraction:
    """max rho(first(t), second(t)) over grid by evaluation: the drift oracle."""
    return max(kyfan_rho(first.eval(t), second.eval(t)) for t in grid)


@dataclass(frozen=True)
class Certificate:
    """Exact numeric evidence attached to a constructed lifting.

    max_law_gap is the sup over the grid of the Prokhorov distance from
    the lift's pointwise law to the target path; continuity_table lists
    rho between values at consecutive grid points, each bounding rho
    between any two times of its interval; endpoint_ok records the two
    endpoint checks; decay_table is the per-iteration sup-rho between
    successive liftings of the iterative pipeline (empty when a single
    lift is verified).  Everything is recomputable from the lift and
    the target.
    """

    grid: tuple[Fraction, ...]
    max_law_gap: Fraction
    continuity_table: tuple[Fraction, ...]
    endpoint_ok: tuple[bool, bool]
    decay_table: tuple[Fraction, ...]


def verify_lift(
    lift: LiftedPath,
    target: PolygonalPath | SampledPath,
    grid_n: int = DEFAULT_GRID,
    endpoints: tuple[SimpleRandomVariable, SimpleRandomVariable] | None = None,
    decay_table: tuple[Fraction, ...] = (),
) -> Certificate:
    """Certificate of a lift against a target path over an exact grid.

    The grid is grid_n uniform points joined with every breakpoint of
    the lift (and of the target when polygonal), so consecutive grid
    points lie in one piece and each continuity entry is rho between
    their local times in its segment lift: nondecreasing in their
    distance, so it bounds rho between any two times of its grid
    interval.  Laws and endpoints are evaluated.

    With ``endpoints`` given, endpoint_ok compares the lift's endpoint
    variables to the prescribed ones exactly; otherwise it compares
    endpoint laws with the target.
    """
    if grid_n < 2:
        raise PreconditionError("grid needs at least 2 points")
    sources = [(grid_n - 1, range(grid_n)), lift.ticks]
    if isinstance(target, PolygonalPath):
        sources.append(target.ticks)
    den, ks = _union(sources)
    grid = _times(den, ks)
    values = [lift.eval(t) for t in grid]
    laws = [law(v) for v in values]
    gaps = [prokhorov(lw, target.eval(t)) for t, lw in zip(grid, laws)]
    # the grid holds every breakpoint: an interval lies in the piece i of its
    # left end, its two local times (hi - lo) / den over the piece's length apart
    continuity = []
    for lo, hi in zip(ks, ks[1:]):
        i, _, q = lift._piece(lo, den)
        continuity.append(lift.segments[i].rho_apart((hi - lo) * lift.ticks[0], q))
    if endpoints is not None:
        endpoint_ok = (values[0] == endpoints[0], values[-1] == endpoints[1])
    else:
        endpoint_ok = (laws[0] == target.eval(ZERO), laws[-1] == target.eval(ONE))
    return Certificate(
        grid=tuple(grid),
        max_law_gap=max(gaps),
        continuity_table=tuple(continuity),
        endpoint_ok=endpoint_ok,
        decay_table=decay_table,
    )


def decay_budgets(tol: Fraction, iterations: int) -> tuple[list[Fraction], list[Fraction]]:
    """The round tolerances eps_n = tol * 5^(iterations - 1 - n) of
    ``lift_path`` and the budgets 5 * (eps_n + eps_{n+1}) that bound its
    decay table, entry n being the drift of round n + 1's relift."""
    eps = [tol * 5 ** (iterations - 1 - n) for n in range(iterations)]
    return eps, [5 * (eps[n] + eps[n + 1]) for n in range(iterations - 1)]


def lift_path(
    alpha: SampledPath,
    x_start: SimpleRandomVariable,
    x_end: SimpleRandomVariable,
    tol: Fraction,
    iterations: int,
    grid_n: int = DEFAULT_GRID,
) -> tuple[LiftedPath, Certificate]:
    """Iteratively lift a Lipschitz measure path to within tol.

    Round n approximates alpha by a polygonal at tolerance eps_n =
    tol * 5^(iterations - n) / 5 and relifts near the previous lifting
    with budget eps_{n-1} + eps_n, so the recorded sup-rho decay is
    dominated by the geometric sequence 5 * (eps_{n-1} + eps_n).  The
    result is an exact lifting of the final polygonal, whose sup gap to
    alpha is at most tol; the certificate records the truncation.
    """
    tol = Fraction(tol)
    if tol <= ZERO:
        raise PreconditionError("tolerance must be positive")
    if iterations < 1:
        raise PreconditionError("at least one iteration is required")
    if grid_n < 2:  # checked again by verify_lift, but before any round runs
        raise PreconditionError("grid needs at least 2 points")
    eps, _ = decay_budgets(tol, iterations)
    beta = approximate_polygonal(alpha, eps[0])
    lift = lift_polygonal(beta, x_start, x_end)  # checks endpoints: beta(0), beta(1) are alpha's
    decay = []
    for n in range(1, iterations):
        beta = approximate_polygonal(alpha, eps[n])
        lift, drift = relift_near(lift, beta, eps[n - 1] + eps[n])
        decay.append(drift)
    certificate = verify_lift(
        lift,
        alpha,
        grid_n=grid_n,
        endpoints=(x_start, x_end),
        decay_table=tuple(decay),
    )
    return lift, certificate
