"""Shared oracles and strategies for the test suite.

The oracles here are deliberately written from first principles, not by
calling the library code paths they check.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from pathlift import (
    CouplingMatrix,
    LiftedPath,
    Measure,
    PreconditionError,
    SampledPath,
    SegmentLift,
    SimpleRandomVariable,
    canonical_rv,
    kyfan_rho,
    law,
    mixture,
    prokhorov_coupling,
    realize_coupling,
    validate_space,
)
from pathlift.omega import IntervalSet
from pathlift.prokhorov import _upward_infimum
from pathlift.serialize import parse_frac
from pathlift.spaces import ONE, ZERO

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH, so
    that child processes import the library under test."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def coupling_from_mass(space, mass) -> CouplingMatrix:
    """The coupling with these rational cell masses, over their lcm."""
    den = math.lcm(*(x.denominator for row in mass for x in row))
    ints = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in mass)
    return CouplingMatrix(space, den, ints)


def intervals_to_obj(s: IntervalSet) -> list[list[str]]:
    """The JSON list of a set's intervals, each end a "p/q" Fraction string."""
    return [[f"{x.numerator}/{x.denominator}" for x in pair] for pair in s.intervals]


def kyfan_bruteforce(pi: CouplingMatrix) -> Fraction:
    """Ky Fan functional by rescanning every pair at every threshold,
    O(m^2 * #distances): the tail mass pi{d >= cut} for each distinct
    distance, then the least feasible threshold candidate."""
    space = pi.space
    m = space.size
    cuts = sorted({space.dist[i][j] for i in range(m) for j in range(m) if i != j})
    best = None
    lo = ZERO
    for cut in cuts + [None]:
        tail = ZERO
        if cut is not None:
            for i in range(m):
                for j in range(m):
                    if space.dist[i][j] >= cut:
                        tail += pi.mass[i][j]
        cand = max(lo, tail)
        if (cut is None or cand <= cut) and (best is None or cand < best):
            best = cand
        lo = cut
    return best


def distinct_space(rng: random.Random, m: int):
    """m points with distances in [1/2, 1], nearly all distinct, over a
    mix of denominators (a factor-two ratio makes every triangle hold)."""
    d = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            den = rng.choice((2 * 7 * 11, 2 * 9 * 13, 2 * 1009))
            d[i][j] = d[j][i] = Fraction(rng.randint(den // 2, den), den)
    return validate_space([f"p{i:02d}" for i in range(m)], d)


def clustered_pair(rng: random.Random, pairs: int) -> tuple[Measure, Measure]:
    """Measures on `pairs` pairs of points 1/1000 apart, mu uniform on one
    point of each pair and nu on the other: q = 1/1000 and TV = 1, so the
    subset oracle's prune skips only subsets with no more mu- than nu-points.
    A pair's points lie at one distance in [1/2, 1] from every other point."""
    far = {}
    for a in range(pairs):
        for b in range(a + 1, pairs):
            far[a, b] = far[b, a] = Fraction(rng.randint(500, 1000), 1000)
    n = 2 * pairs
    d = [[ZERO if i == j else Fraction(1, 1000) if i // 2 == j // 2 else far[i // 2, j // 2]
          for j in range(n)] for i in range(n)]
    space = validate_space([f"p{i:02d}" for i in range(n)], d)
    return (Measure.reduced(space, pairs, [1 - i % 2 for i in range(n)]),
            Measure.reduced(space, pairs, [i % 2 for i in range(n)]))


def prokhorov_subsets_reference(mu: Measure, nu: Measure) -> Fraction:
    """The subset oracle's plain enumeration: every subset in mask order,
    skipped only when mu(A) cannot pass the running maximum, and the
    distance to A by a generator per point.  Shares ``_upward_infimum``
    with the library, as both library routes do."""
    space = mu.space
    m = space.size
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


def vertex_couplings(mu: Measure, nu: Measure) -> list[tuple[tuple[Fraction, ...], ...]]:
    """All vertices of the transportation polytope of (mu, nu).

    Every vertex is the unique solution supported on some spanning tree
    of the bipartite row/column graph; enumerate all 2m-1 edge trees,
    solve by peeling leaves, keep the nonnegative solutions.
    """
    m = mu.space.size
    edges = [(i, j) for i in range(m) for j in range(m)]
    found = set()
    for tree in combinations(edges, 2 * m - 1):
        solution = _solve_tree(m, tree, mu.weights, nu.weights)
        if solution is not None:
            found.add(solution)
    return sorted(found)


def _solve_tree(m, tree, row_w, col_w):
    degree = {("r", i): 0 for i in range(m)}
    degree.update({("c", j): 0 for j in range(m)})
    for i, j in tree:
        degree[("r", i)] += 1
        degree[("c", j)] += 1
    if any(d == 0 for d in degree.values()):
        return None
    remaining_row = list(row_w)
    remaining_col = list(col_w)
    alive = set(tree)
    values = {}
    while alive:
        leaf_edge = None
        for i, j in alive:
            if degree[("r", i)] == 1:
                leaf_edge, amount = (i, j), remaining_row[i]
                break
            if degree[("c", j)] == 1:
                leaf_edge, amount = (i, j), remaining_col[j]
                break
        if leaf_edge is None:
            return None  # a cycle: not a tree
        i, j = leaf_edge
        if amount < 0:
            return None
        values[leaf_edge] = amount
        remaining_row[i] -= amount
        remaining_col[j] -= amount
        degree[("r", i)] -= 1
        degree[("c", j)] -= 1
        alive.remove(leaf_edge)
    if any(r != 0 for r in remaining_row) or any(c != 0 for c in remaining_col):
        return None
    if any(v < 0 for v in values.values()):
        return None
    matrix = tuple(
        tuple(values.get((i, j), ZERO) for j in range(m)) for i in range(m)
    )
    return matrix


# -- block-algebra oracle for the slab code -----------------------------
# Set algebra on canonical IntervalSets, each op one linear sweep, and
# per-point blocks built only from it.  Nonatomic "leftmost carving":
# prefix takes any requested mass from a set by walking it left to
# right, and split cuts a set into consecutive slabs of given masses.
# The Fraction route of the JSON block reader (from_pairs,
# intervals_from_obj, rv_from_blocks) is the reader's reference.

def from_pairs(pairs) -> IntervalSet:
    """The canonical set of arbitrary pairs: empty pairs are dropped,
    overlapping or adjacent pairs merge."""
    cleaned = []
    for left, right in pairs:
        left, right = Fraction(left), Fraction(right)
        if left >= right:
            continue
        if not (ZERO <= left and right <= ONE):
            raise PreconditionError(f"interval [{left}, {right}) escapes [0, 1)")
        cleaned.append((left, right))
    cleaned.sort()
    merged = []
    for left, right in cleaned:
        if merged and left <= merged[-1][1]:
            if right > merged[-1][1]:
                merged[-1] = (merged[-1][0], right)
        else:
            merged.append((left, right))
    return IntervalSet(tuple(merged))


def union_all(parts) -> IntervalSet:
    """Union of many sets in one sorted sweep."""
    return from_pairs(p for part in parts for p in part.intervals)


def measure(a: IntervalSet) -> Fraction:
    return sum((right - left for left, right in a.intervals), ZERO)


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    p, q = a.intervals, b.intervals
    out = []
    i = j = 0
    while i < len(p) and j < len(q):
        left = max(p[i][0], q[j][0])
        right = min(p[i][1], q[j][1])
        if left < right:
            out.append((left, right))
        if p[i][1] <= q[j][1]:
            i += 1
        else:
            j += 1
    # inputs canonical, so the sweep output is canonical already
    return IntervalSet(tuple(out))


def intervals_from_obj(obj) -> IntervalSet:
    """One point's JSON list of "p/q" pairs, read through Fractions."""
    if not isinstance(obj, list):
        raise PreconditionError("interval set must be a list of [left, right] pairs")
    pairs = []
    for item in obj:
        if not (isinstance(item, list) and len(item) == 2):
            raise PreconditionError(f"bad interval entry {item!r}")
        pairs.append((parse_frac(item[0]), parse_frac(item[1])))
    return from_pairs(pairs)


def rv_from_blocks(space, blocks) -> SimpleRandomVariable:
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
    den = math.lcm(*(cut.denominator for cut in cuts))
    ints = tuple(cut.numerator * (den // cut.denominator) for cut in cuts)
    return SimpleRandomVariable(space, den, ints, tuple(label for _, _, label in pieces))


def rv_from_blocks_obj_oracle(space, obj) -> SimpleRandomVariable:
    """The JSON blocks of a variable, read per point through IntervalSets."""
    if not isinstance(obj, dict):
        raise PreconditionError("blocks must map point names to interval lists")
    unknown = set(obj) - set(space.points)
    if unknown:
        raise PreconditionError(f"blocks name unknown points {sorted(unknown)}")
    return rv_from_blocks(space, [intervals_from_obj(obj.get(p, [])) for p in space.points])


def weights_from_obj_oracle(space, obj) -> Measure:
    """A JSON weight list, read through Fractions."""
    if not isinstance(obj, list):
        raise PreconditionError("weights must be a list of rationals")
    return Measure.from_weights(space, [parse_frac(w) for w in obj])


def empty() -> IntervalSet:
    return IntervalSet(())


def full() -> IntervalSet:
    return IntervalSet(((ZERO, ONE),))


def is_empty(a: IntervalSet) -> bool:
    return not a.intervals


def issubset(a: IntervalSet, b: IntervalSet) -> bool:
    return is_empty(difference(a, b))


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return from_pairs(a.intervals + b.intervals)


def difference(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out = []
    j = 0
    cut = b.intervals
    for left, right in a.intervals:
        cur = left
        while j < len(cut) and cut[j][1] <= cur:
            j += 1
        k = j
        while k < len(cut) and cut[k][0] < right:
            if cut[k][0] > cur:
                out.append((cur, cut[k][0]))
            cur = max(cur, cut[k][1])
            if cur >= right:
                break
            k += 1
        if cur < right:
            out.append((cur, right))
    return IntervalSet(tuple(out))


def complement(a: IntervalSet) -> IntervalSet:
    out = []
    prev = ZERO
    for left, right in a.intervals:
        if prev < left:
            out.append((prev, left))
        prev = right
    if prev < ONE:
        out.append((prev, ONE))
    return IntervalSet(tuple(out))


def prefix(a: IntervalSet, t: Fraction) -> IntervalSet:
    """Leftmost subset of a of exact mass t; monotone in t."""
    t = Fraction(t)
    if t < ZERO or t > measure(a):
        raise PreconditionError(f"prefix mass {t} outside [0, {measure(a)}]")
    out = []
    remaining = t
    for left, right in a.intervals:
        if remaining == ZERO:
            break
        take = min(right - left, remaining)
        out.append((left, left + take))
        remaining -= take
    return IntervalSet(tuple(out))


def split(a: IntervalSet, weights) -> list[IntervalSet]:
    """Consecutive leftmost slabs of a with the given nonnegative masses,
    which must sum to a's measure; zero weights give empty parts."""
    weights = [Fraction(w) for w in weights]
    if any(w < ZERO for w in weights):
        raise PreconditionError(f"negative split weight in {weights}")
    total = sum(weights, ZERO)
    if total != measure(a):
        raise PreconditionError(f"split weights sum to {total}, set has measure {measure(a)}")
    pieces = a.intervals
    parts = []
    idx = 0
    cursor = pieces[0][0] if pieces else ZERO
    for w in weights:
        out = []
        need = w
        while need > ZERO:
            left, right = pieces[idx]
            start = max(left, cursor)
            avail = right - start
            if avail <= need:
                out.append((start, right))
                need -= avail
                idx += 1
                cursor = pieces[idx][0] if idx < len(pieces) else ONE
            else:
                out.append((start, start + need))
                cursor = start + need
                need = ZERO
        parts.append(IntervalSet(tuple(out)))
    return parts


def oracle_cells(x, y) -> tuple[tuple[IntervalSet, ...], ...]:
    """Cell (i, j) = A_i & B_j, by intersection."""
    return tuple(tuple(intersect(a, b) for b in y.blocks) for a in x.blocks)


def oracle_law(x) -> tuple[Fraction, ...]:
    return tuple(measure(b) for b in x.blocks)


def oracle_joint(x, y) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(measure(c) for c in row) for row in oracle_cells(x, y))


def oracle_transfer(x, y, s: Fraction) -> tuple[IntervalSet, ...]:
    """Blocks after moving the leftmost s * measure of each off-diagonal
    cell (i, j) from value i to value j."""
    cells = oracle_cells(x, y)
    m = len(cells)
    moved = {
        (i, j): prefix(cells[i][j], s * measure(cells[i][j]))
        for i in range(m)
        for j in range(m)
        if i != j
    }
    blocks = []
    for i in range(m):
        parts = [cells[i][i]]
        parts += [moved[k, i] for k in range(m) if k != i]
        parts += [difference(cells[i][j], moved[i, j]) for j in range(m) if j != i]
        blocks.append(union_all(parts))
    return tuple(blocks)


def oracle_realize(x, pi: CouplingMatrix) -> tuple[IntervalSet, ...]:
    """Block j = union over i of the j-th leftmost piece of A_i split by row i."""
    m = len(x.blocks)
    pieces = [split(x.blocks[i], pi.mass[i]) for i in range(m)]
    return tuple(union_all(pieces[i][j] for i in range(m)) for j in range(m))


def oracle_canonical(nu: Measure) -> tuple[IntervalSet, ...]:
    return tuple(split(full(), nu.weights))


# -- time-grid oracles: the Fraction-set constructions -------------------

def refined_grid_oracle(prev_bps, beta_bps, eps: Fraction) -> list[Fraction]:
    """Both breakpoint sets plus every piece of prev cut into
    floor(1 / eps) + 1 equal parts (no cuts when eps = 0), sorted."""
    points = set(prev_bps) | set(beta_bps)
    if eps > ZERO:
        parts = math.floor(1 / eps) + 1
        for lo, hi in zip(prev_bps, prev_bps[1:]):
            step = (hi - lo) / parts
            points.update(lo + k * step for k in range(1, parts))
    return sorted(points)


def relift_near_oracle(prev, beta, eps: Fraction) -> tuple[LiftedPath, Fraction]:
    """relift_near by the full route: at every interior point of the
    refined grid a max-flow coupling of prev's law with beta, its budget
    check and its realization, then every piece midpoint evaluated.
    The same errors, texts and order as the library's."""
    eps = Fraction(eps)
    grid = refined_grid_oracle(prev.breakpoints, beta.breakpoints, eps)
    snapshots = [prev.eval(t) for t in grid]
    if beta.vertices[0] != law(snapshots[0]):
        raise PreconditionError("target path differs from prev's law at t = 0")
    if beta.vertices[-1] != law(snapshots[-1]):
        raise PreconditionError("target path differs from prev's law at t = 1")
    variables = [snapshots[0]]
    drift = ZERO
    for t, snapshot in zip(grid[1:-1], snapshots[1:-1]):
        gap, witness = prokhorov_coupling(law(snapshot), beta.eval(t))
        if gap > eps:
            raise PreconditionError(
                f"law gap {gap} at t = {t} exceeds the declared budget {eps}"
            )
        drift = max(drift, gap)
        variables.append(realize_coupling(snapshot, witness))
    variables.append(snapshots[-1])
    relifted = LiftedPath(prev.space, tuple(grid), tuple(variables))
    for seg, lo, hi in zip(relifted.segments, grid, grid[1:]):
        drift = max(drift, kyfan_rho(prev.eval((lo + hi) / 2), seg.eval(Fraction(1, 2))))
    return relifted, drift


def bezier_path(m0: Measure, m1: Measure, m2: Measure) -> SampledPath:
    """The quadratic Bezier curve of measures (1-t)^2 m0 + 2t(1-t) m1 + t^2 m2,
    exact at every t by de Casteljau.  Its modulus L = 2 max(TV(m0, m1),
    TV(m1, m2)) is valid: the curve's TV speed is at most L (the Bernstein
    derivative bound), and q <= TV."""
    def tv(mu, nu):
        return sum(abs(a - b) for a, b in zip(mu.weights, nu.weights)) / 2

    def fn(t):
        return mixture(mixture(m0, m1, t), mixture(m1, m2, t), t)

    return SampledPath(m0.space, fn, 2 * max(tv(m0, m1), tv(m1, m2)))


def verify_grid_oracle(grid_n: int, *breakpoint_sets) -> list[Fraction]:
    """grid_n uniform points on [0, 1] joined with every breakpoint, sorted."""
    points = {Fraction(i, grid_n - 1) for i in range(grid_n)}
    for bps in breakpoint_sets:
        points.update(bps)
    return sorted(points)


def cube_chain_oracle(interp, ts) -> SimpleRandomVariable:
    """A cube lift's value by the per-coordinate chain, with nothing shared
    between points: from the first corner's canonical variable, one new
    segment lift per coordinate, toward the next corner's canonical variable."""
    corners = [canonical_rv(c) for c in interp.corners]
    value = corners[0]
    for t, corner in zip(ts, corners[1:]):
        value = SegmentLift(value, corner).eval(Fraction(t))
    return value


def multiaffine_oracle(interp, ts) -> tuple[Fraction, ...]:
    """The weights of a cube interpolation by its explicit product formula:
    corner 0 has weight prod_k (1 - t_k), and corner j >= 1 has weight
    t_j * prod_{k > j} (1 - t_k), coordinates t_1, ..., t_n."""
    ts = [Fraction(t) for t in ts]
    weights = []
    for j in range(len(ts) + 1):
        w = ts[j - 1] if j else ONE
        for t in ts[j:]:
            w *= 1 - t
        weights.append(w)
    return tuple(
        sum(w * c.weights[i] for w, c in zip(weights, interp.corners))
        for i in range(interp.space.size)
    )


# -- hypothesis strategies ---------------------------------------------

@st.composite
def breakpoint_tuples(draw, max_inner: int = 6, max_den: int = 40):
    """0 < ... < 1 over mixed denominators, as a tuple of Fractions."""
    inner = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=max_den).filter(
                lambda x: ZERO < x < ONE
            ),
            unique=True,
            max_size=max_inner,
        )
    )
    return (ZERO, *sorted(inner), ONE)


@st.composite
def times_around(draw, bps):
    """Times in [0, 1]: every breakpoint, a point just either side of each,
    off the lattice of their lcm den (within 1 / den), and arbitrary ones."""
    den = math.lcm(*(b.denominator for b in bps))
    nudge = Fraction(1, 7 * den + 1)
    times = set(bps)
    times.update(b + nudge for b in bps[:-1])
    times.update(b - nudge for b in bps[1:])
    times.update(draw(st.lists(st.fractions(0, 1, max_denominator=120), max_size=8)))
    return sorted(times)

@st.composite
def fractions01(draw, max_den: int = 16):
    den = draw(st.integers(1, max_den))
    return Fraction(draw(st.integers(0, den)), den)


@st.composite
def interval_sets(draw, den: int = 32, max_cuts: int = 8):
    cuts = sorted(draw(st.lists(st.integers(0, den), max_size=max_cuts, unique=True)))
    pairs = [
        (Fraction(cuts[k], den), Fraction(cuts[k + 1], den))
        for k in range(0, len(cuts) - 1, 2)
    ]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_pairs(p for p, keep in zip(pairs, mask) if keep)


@st.composite
def metric_spaces(draw, min_size: int = 2, max_size: int = 4):
    m = draw(st.integers(min_size, max_size))
    names = "abcdefgh"[:m]
    d = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            # entries within a factor of two satisfy the triangle inequality
            d[i][j] = d[j][i] = Fraction(draw(st.integers(4, 8)), 8)
    return validate_space(list(names), d)


@st.composite
def measures_on(draw, space, den: int = 24):
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, den), min_size=space.size - 1, max_size=space.size - 1
            )
        )
    )
    bounds = [0] + cuts + [den]
    return Measure.from_weights(
        space, tuple(Fraction(bounds[k + 1] - bounds[k], den) for k in range(space.size))
    )


@st.composite
def rvs_on(draw, space, den: int = 24, max_slabs: int = 6):
    cuts = sorted(
        draw(st.lists(st.integers(1, den - 1), unique=True, max_size=max_slabs - 1))
    )
    bounds = [ZERO] + [Fraction(c, den) for c in cuts] + [ONE]
    labels = draw(
        st.lists(
            st.integers(0, space.size - 1),
            min_size=len(bounds) - 1,
            max_size=len(bounds) - 1,
        )
    )
    pieces = [[] for _ in range(space.size)]
    for (lo, hi), lab in zip(zip(bounds, bounds[1:]), labels):
        pieces[lab].append((lo, hi))
    return rv_from_blocks(space, tuple(from_pairs(p) for p in pieces))


@st.composite
def space_with(
    draw, n_measures: int = 0, n_rvs: int = 0, max_size: int = 4, max_slabs: int = 6
):
    space = draw(metric_spaces(max_size=max_size))
    measures = tuple(draw(measures_on(space)) for _ in range(n_measures))
    variables = tuple(draw(rvs_on(space, max_slabs=max_slabs)) for _ in range(n_rvs))
    return (space,) + measures + variables
