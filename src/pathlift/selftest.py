"""Deterministic randomized self-test suites, one per module invariant.

run_selftest(seed) executes every suite with its own child RNG and
returns a printable report plus an overall flag.  Identical seeds give
byte-identical reports.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import gen
from .cube import CubeInterpolation, CubeLift, g_eval
from .lifting import (
    PolygonalPath,
    certification_grid,
    lift_polygonal,
    relift_near,
    segment_lift,
    sup_rho_on_grid,
    verify_lift,
)
from .omega import ONE, ZERO, IntervalSet
from .prokhorov import kyfan_functional, prokhorov, prokhorov_coupling, prokhorov_subsets
from .randomvars import canonical_rv, kyfan_rho, law, match_to_law
from .serialize import (
    lift_from_obj,
    lift_to_obj,
    measure_from_obj,
    measure_to_obj,
    rv_from_obj,
    rv_to_obj,
)
from .spaces import mixture


def rho_scan_oracle(x, y) -> Fraction:
    """Scan oracle for rho: compares the measure of the union of cells
    at distance >= each candidate threshold against the threshold.  The
    thresholds come straight from the distance matrix, independently of
    the cached distance levels the Ky Fan functional uses."""
    space = x.space
    m = space.size
    cuts = sorted({space.dist[i][j] for i in range(m) for j in range(m) if i != j})
    best = None
    lo = ZERO
    for cut in cuts + [None]:
        far = IntervalSet.union_all(
            x.blocks[i].intersect(y.blocks[j])
            for i in range(space.size)
            for j in range(space.size)
            if cut is not None and space.dist[i][j] >= cut
        )
        cand = max(lo, far.measure)
        if cut is None or cand <= cut:
            if best is None or cand < best:
                best = cand
        if cut is not None:
            lo = cut
    return best


def _suite_interval_algebra(rng, n=60):
    ok = 0
    for _ in range(n):
        a = gen.rand_interval_set(rng)
        b = gen.rand_interval_set(rng)
        union = a.union(b)
        inter = a.intersect(b)
        good = union.measure + inter.measure == a.measure + b.measure
        good &= a.difference(b).union(inter) == a
        good &= a.complement().complement() == a
        good &= IntervalSet.from_pairs(list(a.intervals)[::-1]) == a
        ok += good
    return ok, n


def _suite_prefix_chain(rng, n=60):
    ok = 0
    for _ in range(n):
        a = gen.rand_interval_set(rng)
        t = a.measure * rng.randint(0, 8) / 8
        s = t * rng.randint(0, 8) / 8
        ps, pt = a.prefix(s), a.prefix(t)
        ok += ps.issubset(pt) and ps.measure == s and pt.measure == t
    return ok, n


def _suite_split_partition(rng, n=60):
    ok = 0
    for _ in range(n):
        a = gen.rand_interval_set(rng)
        k = rng.randint(1, 4)
        cuts = sorted(a.measure * rng.randint(0, 12) / 12 for _ in range(k - 1))
        bounds = [ZERO] + cuts + [a.measure]
        weights = [bounds[i + 1] - bounds[i] for i in range(k)]
        parts = a.split(weights)
        good = IntervalSet.union_all(parts) == a
        good &= all(p.measure == w for p, w in zip(parts, weights))
        for i in range(k):
            for j in range(i + 1, k):
                good &= parts[i].intersect(parts[j]).is_empty()
        ok += good
    return ok, n


def _suite_prokhorov_equality(rng, n=40):
    ok = 0
    for _ in range(n):
        space = gen.rand_space(rng, rng.randint(2, 5))
        mu = gen.rand_measure(rng, space)
        nu = gen.rand_measure(rng, space)
        value, witness = prokhorov_coupling(mu, nu)
        good = value == prokhorov_subsets(mu, nu)
        good &= kyfan_functional(witness) == value
        ok += good
    return ok, n


def _suite_q_metric_axioms(rng, n=30):
    ok = 0
    for _ in range(n):
        space = gen.rand_space(rng, rng.randint(2, 4))
        mu, nu, pi = (gen.rand_measure(rng, space) for _ in range(3))
        good = prokhorov(mu, nu) == prokhorov(nu, mu)
        # on the max-flow route: prokhorov returns 0 for mu == nu without it
        good &= (prokhorov_coupling(mu, nu)[0] == ZERO) == (mu == nu)
        good &= prokhorov_coupling(mu, mu)[0] == ZERO
        good &= prokhorov(mu, pi) <= prokhorov(mu, nu) + prokhorov(nu, pi)
        good &= prokhorov(mu, nu) <= ONE
        ok += good
    return ok, n


def _suite_mixture_contraction(rng, n=40):
    ok = 0
    for _ in range(n):
        space = gen.rand_space(rng, rng.randint(2, 4))
        mu = gen.rand_measure(rng, space)
        nu = gen.rand_measure(rng, space)
        t = gen.rand_fraction(rng)
        ok += prokhorov(nu, mixture(nu, mu, t)) <= prokhorov(nu, mu)
    return ok, n


def _suite_match_optimality(rng, n=40):
    ok = 0
    for _ in range(n):
        space = gen.rand_space(rng, rng.randint(2, 4))
        x = gen.rand_rv(rng, space)
        nu = gen.rand_measure(rng, space)
        y = match_to_law(x, nu)
        good = law(y) == nu
        good &= kyfan_rho(x, y) == prokhorov(law(x), nu)
        z = gen.rand_rv(rng, space)
        good &= prokhorov(law(x), law(z)) <= kyfan_rho(x, z)
        ok += good
    return ok, n


def _suite_rho_scan_oracle(rng, n=40):
    ok = 0
    for _ in range(n):
        space = gen.rand_space(rng, rng.randint(2, 4))
        x = gen.rand_rv(rng, space)
        y = gen.rand_rv(rng, space)
        ok += kyfan_rho(x, y) == rho_scan_oracle(x, y)
    return ok, n


def _suite_segment_law_mixture(rng, n=30):
    ok = 0
    for _ in range(n):
        space = gen.rand_space(rng, rng.randint(2, 4))
        x = gen.rand_rv(rng, space)
        y = gen.rand_rv(rng, space)
        seg = segment_lift(x, y, ZERO, ONE)
        good = seg.eval(ZERO) == x and seg.eval(ONE) == y
        for _ in range(4):
            t = gen.rand_fraction(rng)
            good &= law(seg.eval(t)) == mixture(law(x), law(y), t)
        ok += good
    return ok, n


def _suite_segment_regularity(rng, n=30):
    ok = 0
    for _ in range(n):
        space = gen.rand_space(rng, rng.randint(2, 4))
        x = gen.rand_rv(rng, space)
        y = gen.rand_rv(rng, space)
        seg = segment_lift(x, y, ZERO, ONE)
        s = gen.rand_fraction(rng)
        t = gen.rand_fraction(rng)
        s, t = min(s, t), max(s, t)
        good = kyfan_rho(seg.eval(s), seg.eval(t)) <= t - s
        good &= kyfan_rho(x, seg.eval(t)) <= kyfan_rho(x, y)
        ok += good
    return ok, n


def _suite_segment_rho_closed_form(rng, n=30):
    ok = 0
    for _ in range(n):
        space = gen.rand_space(rng, rng.randint(2, 4))
        seg = segment_lift(gen.rand_rv(rng, space), gen.rand_rv(rng, space), ZERO, ONE)
        s, t, u = sorted(gen.rand_fraction(rng) for _ in range(3))
        good = seg.rho_between(u, s) == kyfan_rho(seg.eval(s), seg.eval(u))
        ok += good and seg.rho_between(t, u) <= seg.rho_between(s, u)
    return ok, n


def _suite_polygonal_lift(rng, n=12):
    ok = 0
    for _ in range(n):
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, rng.randint(3, 5))
        x_start = canonical_rv(beta.vertices[0])
        x_end = gen.rand_rv(rng, space)
        x_end = match_to_law(x_end, beta.vertices[-1])
        lift = lift_polygonal(beta, x_start, x_end)
        good = lift.eval(ZERO) == x_start and lift.eval(ONE) == x_end
        for _ in range(6):
            t = gen.rand_fraction(rng, 24)
            good &= law(lift.eval(t)) == beta.eval(t)
        ok += good
    return ok, n


def _suite_relift_bound(rng, n=8):
    ok = 0
    for _ in range(n):
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 3)
        prev = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        eps = Fraction(1, rng.randint(3, 6))
        target = _perturb_polygonal(rng, beta, eps)
        relifted, drift = relift_near(prev, target, eps)
        grid = certification_grid(relifted)
        good = drift == sup_rho_on_grid(prev, relifted, grid)
        good &= drift <= 5 * eps
        cert = verify_lift(relifted, target, grid_n=9)
        good &= cert.max_law_gap == ZERO
        ok += good
    return ok, n


def _perturb_polygonal(rng, beta: PolygonalPath, eps: Fraction) -> PolygonalPath:
    """Same endpoints, interior vertices mixed toward a random measure
    by at most eps of mass, so the sup law gap stays within eps."""
    verts = [beta.vertices[0]]
    for v in beta.vertices[1:-1]:
        noise = gen.rand_measure(rng, beta.space)
        share = eps * rng.randint(0, 4) / 4
        verts.append(mixture(v, noise, share))
    verts.append(beta.vertices[-1])
    return PolygonalPath(beta.space, beta.breakpoints, tuple(verts))


def _suite_cube_law(rng, n=6):
    ok = 0
    grid = [ZERO, Fraction(1, 2), ONE]
    for _ in range(n):
        space = gen.rand_space(rng, 3)
        corners = tuple(gen.rand_measure(rng, space) for _ in range(3))
        interp = CubeInterpolation(space, corners)
        lift = CubeLift(interp)
        good = True
        for t1 in grid:
            for t2 in grid:
                value = lift.eval((t1, t2))
                good &= law(value) == g_eval(interp, (t1, t2))
        ok += good
    return ok, n


def _suite_serialization(rng, n=20):
    ok = 0
    for _ in range(n):
        space = gen.rand_space(rng, rng.randint(2, 4))
        mu = gen.rand_measure(rng, space)
        x = gen.rand_rv(rng, space)
        y = gen.rand_rv(rng, space)
        lift = lift_polygonal(
            PolygonalPath(space, (ZERO, ONE), (law(x), law(y))), x, y
        )
        good = measure_from_obj(measure_to_obj(mu)) == mu
        good &= rv_from_obj(rv_to_obj(x)) == x
        good &= lift_from_obj(lift_to_obj(lift)) == lift
        ok += good
    return ok, n


_SUITES = [
    ("interval-algebra", _suite_interval_algebra),
    ("prefix-chain", _suite_prefix_chain),
    ("split-partition", _suite_split_partition),
    ("prokhorov-two-routes", _suite_prokhorov_equality),
    ("prokhorov-metric-axioms", _suite_q_metric_axioms),
    ("mixture-contraction", _suite_mixture_contraction),
    ("match-to-law-optimality", _suite_match_optimality),
    ("kyfan-scan-oracle", _suite_rho_scan_oracle),
    ("segment-law-mixture", _suite_segment_law_mixture),
    ("segment-regularity", _suite_segment_regularity),
    ("segment-rho-closed-form", _suite_segment_rho_closed_form),
    ("polygonal-lift-law", _suite_polygonal_lift),
    ("relift-five-eps", _suite_relift_bound),
    ("cube-law-identity", _suite_cube_law),
    ("serialization-roundtrip", _suite_serialization),
]


def run_selftest(seed: int) -> tuple[str, bool]:
    lines = [f"selftest seed {seed}"]
    all_ok = True
    for name, suite in _SUITES:
        rng = random.Random(f"{seed}:{name}")
        passed, total = suite(rng)
        all_ok &= passed == total
        status = "ok" if passed == total else "FAIL"
        lines.append(f"{name}: {passed}/{total} {status}")
    lines.append("result: PASS" if all_ok else "result: FAIL")
    return "\n".join(lines) + "\n", all_ok
