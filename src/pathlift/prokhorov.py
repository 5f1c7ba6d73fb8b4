"""The Prokhorov metric on finite spaces, computed two independent ways.

``prokhorov_coupling`` minimizes the Ky Fan functional over couplings of
the two measures: for each threshold interval between consecutive
distinct distances it computes, by exact bipartite max-flow, the largest
mass routable through point pairs closer than the threshold, and takes
the best feasible epsilon.  It returns the optimal value together with a
deterministic witness coupling attaining it.  The flow runs on integer
capacities (both measures scaled by one common denominator) and admits
the pairs of one distance level of the space per interval, so each call
does one O(m^2) BFS per augmentation and no rescan of the m^2 pairs per
threshold.  ``kyfan_functional`` costs O(m^2) per call: one descending
sweep of integer tail sums over the same levels, masses and distances
scaled to one lcm; segment lifts run the same sweep on their cached
tails.  ``prokhorov`` returns 0 without a max-flow when the two
measures are equal, and ``total_variation`` is an upper bound on it.

``prokhorov_subsets`` is the enumeration oracle over the defining
inequalities mu(A) <= nu(A^eps) + eps for every subset A of the (finite)
space, with A^eps the open eps-neighborhood.  Both routes share only the
one-dimensional step-function infimum; everything else is independent,
and the two values agree exactly (checked by the test suite on random
instances).
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from fractions import Fraction

from .errors import InvariantError, PreconditionError
from .spaces import ZERO, CouplingMatrix, Measure, same_space

SUBSET_ORACLE_LIMIT = 16


def _upward_infimum(cuts: list[int], values: list[int]) -> int:
    """Infimum of the upward-closed set {eps > 0 : step(eps) <= eps}.

    ``step`` is the left-continuous nonincreasing function equal to
    values[k] on (cuts[k-1], cuts[k]], with cuts[-1] treated as 0 and a
    final interval (cuts[-1], infinity).  values must have exactly
    len(cuts) + 1 entries and end nonpositive or below every threshold.
    """
    if len(values) != len(cuts) + 1:
        raise InvariantError("step function shape mismatch")
    best = None
    lo = 0
    for k, val in enumerate(values):
        hi = cuts[k] if k < len(cuts) else None
        cand = max(lo, val)
        if hi is None or cand <= hi:
            if best is None or cand < best:
                best = cand
        if hi is not None:
            lo = hi
    if best is None:
        raise InvariantError("no feasible threshold interval")
    return best


def _level_tails(levels, mass) -> list[int]:
    """Integer tail masses mass{d >= cut} per distance level, then a closing 0."""
    tails = [0] * (len(levels) + 1)
    for k in range(len(levels) - 1, -1, -1):
        tails[k] = tails[k + 1] + sum(mass[i][j] for i, j in levels[k][1])
    return tails


def _kyfan_from_tails(space, tails: list[int], den: int) -> Fraction:
    """The Ky Fan infimum of tail masses over den; tails and distances over one lcm."""
    unit = math.lcm(den, space.den)
    cuts = [cut * (unit // space.den) for cut, _ in space.distance_levels]
    return Fraction(_upward_infimum(cuts, [v * (unit // den) for v in tails]), unit)


def kyfan_functional(pi: CouplingMatrix) -> Fraction:
    """inf{eps > 0 : pi{(x, y) : d(x, y) >= eps} <= eps}, exact.

    One descending sweep over the levels sums the integer tails
    pi{d >= cut}: O(m^2) per call.
    """
    return _kyfan_from_tails(pi.space, _level_tails(pi.space.distance_levels, pi.ints), pi.den)


def _tv_sum(mu: Measure, nu: Measure) -> int:
    """sum |mu_i - nu_i| over mu.den * nu.den: TV times 2 * mu.den * nu.den."""
    same_space(mu.space, nu.space)
    return sum(abs(x * nu.den - y * mu.den) for x, y in zip(mu.nums, nu.nums))


def total_variation(mu: Measure, nu: Measure) -> Fraction:
    """(1/2) sum |mu_i - nu_i|; q <= TV, witnessed by the maximal coupling."""
    return Fraction(_tv_sum(mu, nu), 2 * mu.den * nu.den)


class _FlowState:
    """Bipartite max-flow on integer capacities, warm-started as the
    allowed edge set grows.  Rows feed from the source with capacities
    mu, columns drain to the sink with capacities nu, both scaled by one
    common denominator; allowed row-column edges are uncapacitated.
    Row and column slacks are kept up to date as flow is pushed."""

    def __init__(self, row_caps: list[int], col_caps: list[int]):
        self.m = len(row_caps)
        self.row_slack = list(row_caps)
        self.col_slack = list(col_caps)
        self.flow = [[0] * self.m for _ in range(self.m)]
        # allowed columns per row, ascending; pairs at distance 0 from the start
        self.adjacent = [[i] for i in range(self.m)]
        self.value = 0

    def allow(self, i: int, j: int) -> None:
        bisect.insort(self.adjacent[i], j)

    def _augment_once(self) -> int:
        """One BFS round; returns the pushed amount (0 when optimal).

        Nodes are rows 0..m-1 and columns m..2m-1, visited in FIFO order
        with columns of a row scanned in increasing index."""
        m = self.m
        flow, row_slack, col_slack = self.flow, self.row_slack, self.col_slack
        row_from = [None] * m  # -1: the source, else the column it was reached from
        col_from = [None] * m  # the row each column was reached from
        queue = deque()
        for i in range(m):
            if row_slack[i] > 0:
                row_from[i] = -1
                queue.append(i)
        target = None
        while queue and target is None:
            node = queue.popleft()
            if node < m:
                for j in self.adjacent[node]:
                    if col_from[j] is None:
                        col_from[j] = node
                        if col_slack[j] > 0:
                            target = j
                            break
                        queue.append(m + j)
            else:
                j = node - m
                for i in range(m):
                    if flow[i][j] > 0 and row_from[i] is None:
                        row_from[i] = j
                        queue.append(i)
        if target is None:
            return 0
        # walk back to the source: forward edge row -> column, backward
        # edge column -> row (cancels flow on (row, column))
        path = []
        j = target
        while True:
            start = col_from[j]
            path.append((start, j, True))
            if row_from[start] == -1:
                break
            j = row_from[start]
            path.append((start, j, False))
        bottleneck = min(row_slack[start], col_slack[target])
        for i, j, forward in path:
            if not forward:
                bottleneck = min(bottleneck, flow[i][j])
        for i, j, forward in path:
            flow[i][j] += bottleneck if forward else -bottleneck
        row_slack[start] -= bottleneck
        col_slack[target] -= bottleneck
        self.value += bottleneck
        return bottleneck

    def maximize(self) -> int:
        while self._augment_once() > 0:
            pass
        return self.value


def prokhorov_coupling(mu: Measure, nu: Measure) -> tuple[Fraction, CouplingMatrix]:
    """The Prokhorov distance and a witness coupling attaining it.

    The witness is deterministic: threshold intervals are scanned in
    increasing order with a warm-started max-flow, and leftover mass is
    distributed by northwest-corner filling over the marginal deficits.
    The flow runs on integers: mu and nu over their common denominator,
    one distance level of edges admitted per interval.  Augmenting paths
    depend only on sign tests and minima, which a positive scale leaves
    unchanged, so the witness is the same matrix as with Fraction
    capacities.  Thresholds and candidates are integers over one unit.
    """
    same_space(mu.space, nu.space)
    space = mu.space
    m = space.size
    levels = space.distance_levels
    den = math.lcm(mu.den, nu.den)
    row_caps = [w * (den // mu.den) for w in mu.nums]
    col_caps = [w * (den // nu.den) for w in nu.nums]
    state = _FlowState(row_caps, col_caps)
    unit = math.lcm(den, space.den)
    step, scale = unit // space.den, unit // den

    best = None          # (value over unit, flow snapshot)
    lo = 0
    for k in range(len(levels) + 1):
        hi = levels[k][0] * step if k < len(levels) else None
        if best is not None and lo >= best[0]:
            break  # candidates only grow with the interval's left edge
        # edges with d <= lo are available throughout (lo, hi]
        if k > 0:
            for i, j in levels[k - 1][1]:
                state.allow(i, j)
        routed = state.maximize()
        cand = max(lo, (den - routed) * scale)
        if (hi is None or cand <= hi) and (best is None or cand < best[0]):
            best = (cand, [row[:] for row in state.flow])
        if hi is not None:
            lo = hi
    if best is None:
        raise InvariantError("no feasible threshold interval for the coupling scan")
    value, flow = Fraction(best[0], unit), best[1]
    # complete the witness: route marginal deficits northwest-corner
    row_rem = [row_caps[i] - sum(flow[i]) for i in range(m)]
    col_rem = [col_caps[j] - sum(flow[i][j] for i in range(m)) for j in range(m)]
    i = j = 0
    while i < m and j < m:
        if row_rem[i] == 0:
            i += 1
            continue
        if col_rem[j] == 0:
            j += 1
            continue
        push = min(row_rem[i], col_rem[j])
        flow[i][j] += push
        row_rem[i] -= push
        col_rem[j] -= push
    if any(row_rem) or any(col_rem):
        raise InvariantError("witness coupling does not match the marginals")
    witness = CouplingMatrix.reduced(space, den, flow)
    attained = kyfan_functional(witness)
    if attained != value:
        raise InvariantError(
            f"witness coupling attains {attained}, optimum claims {value}"
        )
    return value, witness


def prokhorov(mu: Measure, nu: Measure) -> Fraction:
    """The Prokhorov distance alone; 0 without a max-flow when mu == nu."""
    if mu == nu:
        return ZERO
    return prokhorov_coupling(mu, nu)[0]


def prokhorov_subsets(mu: Measure, nu: Measure) -> Fraction:
    """Enumeration oracle for the Prokhorov distance.

    Every subset of a finite space is closed, so the defining infimum is
    evaluated over all 2^m subsets; per subset the constraint is a step
    function of eps with jumps at the distances to the subset, built by
    one sweep over the points sorted by that distance.  Weights and
    distances are scaled to integers by one common denominator, so the
    step values and jumps share a unit.  Guarded to m <= 16 points.
    """
    same_space(mu.space, nu.space)
    space = mu.space
    m = space.size
    if m > SUBSET_ORACLE_LIMIT:
        raise PreconditionError(
            f"subset oracle limited to {SUBSET_ORACLE_LIMIT} points, space has {m}"
        )
    den = math.lcm(mu.den, nu.den, space.den)
    mu_w = [w * (den // mu.den) for w in mu.nums]
    nu_w = [w * (den // nu.den) for w in nu.nums]
    d = [[x * (den // space.den) for x in row] for row in space.ints]
    best = 0
    for mask in range(1, 1 << m):
        members = [i for i in range(m) if mask >> i & 1]
        mu_a = sum(mu_w[i] for i in members)
        if mu_a <= best:
            continue  # this subset cannot force a larger epsilon
        # points by distance to the subset; values[k] is mu(A) minus nu of
        # the points within distance cuts[k - 1] (within 0 for k = 0)
        by_gap = sorted((min(d[x][i] for i in members), nu_w[x]) for x in range(m))
        cuts: list[int] = []
        values: list[int] = []
        near = 0
        for gap, weight in by_gap:
            if gap > (cuts[-1] if cuts else 0):
                values.append(mu_a - near)
                cuts.append(gap)
            near += weight
        values.append(mu_a - near)
        lower = _upward_infimum(cuts, values)
        if lower > best:
            best = lower
    return Fraction(best, den)
