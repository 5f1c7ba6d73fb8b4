"""The library's claims as one registry of named, randomized properties.

Each property is a ``check(rng) -> bool`` that draws one instance from
``rng`` and tests every assertion made about it.  ``run_selftest(seed)``
runs each property at its own instance count with a child RNG and
returns a printable report plus an overall flag; identical seeds give
byte-identical reports.  The acceptance tests run the same checks at
larger counts through ``count_passes``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import product
from typing import Callable

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
from .omega import ONE, ZERO
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
    """Scan oracle for rho: compares the measure of the set where x and y
    lie at distance >= each candidate threshold against the threshold.
    Each slab between consecutive cuts of either variable is labeled by
    evaluating both at its left end, and the thresholds come straight
    from the distance matrix, independently of the common refinement and
    of the cached distance levels the Ky Fan functional uses."""
    space = x.space
    m = space.size

    def at(v, t):  # the label v takes at time t in [0, 1)
        return v.labels[bisect_right(v.cuts, t * v.den) - 1]

    ends = sorted({Fraction(cut, v.den) for v in (x, y) for cut in v.cuts})
    slabs = [(right - left, space.dist[at(x, left)][at(y, left)])
             for left, right in zip(ends, ends[1:])]
    cuts = sorted({space.dist[i][j] for i in range(m) for j in range(m) if i != j})
    best = None
    lo = ZERO
    for cut in cuts + [None]:
        far = sum((length for length, d in slabs if cut is not None and d >= cut), ZERO)
        cand = max(lo, far)
        if cut is None or cand <= cut:
            if best is None or cand < best:
                best = cand
        if cut is not None:
            lo = cut
    return best


def _prokhorov_two_routes(rng) -> bool:
    """Criterion 1: the max-flow coupling scan equals the subset oracle,
    and its witness is a coupling of mu and nu attaining it."""
    space = gen.rand_space(rng, rng.randint(2, 8))
    mu = gen.rand_measure(rng, space)
    nu = gen.rand_measure(rng, space)
    value, witness = prokhorov_coupling(mu, nu)
    return (
        value == prokhorov_subsets(mu, nu)
        and kyfan_functional(witness) == value
        and witness.row_marginal() == mu
        and witness.col_marginal() == nu
    )


def _prokhorov_metric_axioms(rng) -> bool:
    space = gen.rand_space(rng, rng.randint(2, 4))
    mu, nu, pi = (gen.rand_measure(rng, space) for _ in range(3))
    return (
        prokhorov(mu, nu) == prokhorov(nu, mu)
        # on the max-flow route: prokhorov returns 0 for mu == nu without it
        and (prokhorov_coupling(mu, nu)[0] == ZERO) == (mu == nu)
        and prokhorov_coupling(mu, mu)[0] == ZERO
        and prokhorov(mu, pi) <= prokhorov(mu, nu) + prokhorov(nu, pi)
        and prokhorov(mu, nu) <= ONE
    )


def _mixture_contraction(rng) -> bool:
    """Criterion 5: q(nu, (1 - t) nu + t mu) <= q(nu, mu)."""
    space = gen.rand_space(rng, rng.randint(2, 5))
    mu = gen.rand_measure(rng, space)
    nu = gen.rand_measure(rng, space)
    t = gen.rand_fraction(rng)
    return prokhorov(nu, mixture(nu, mu, t)) <= prokhorov(nu, mu)


def _match_to_law_optimality(rng) -> bool:
    """Criterion 2: match_to_law hits the target law at rho = q, and no
    variable gets closer in rho than its law in q."""
    space = gen.rand_space(rng, rng.randint(2, 5))
    x = gen.rand_rv(rng, space)
    nu = gen.rand_measure(rng, space)
    z = gen.rand_rv(rng, space)
    y = match_to_law(x, nu)
    return (
        law(y) == nu
        and kyfan_rho(x, y) == prokhorov(law(x), nu)
        and prokhorov(law(x), law(z)) <= kyfan_rho(x, z)
    )


def _kyfan_scan_oracle(rng) -> bool:
    space = gen.rand_space(rng, rng.randint(2, 4))
    x = gen.rand_rv(rng, space)
    y = gen.rand_rv(rng, space)
    return kyfan_rho(x, y) == rho_scan_oracle(x, y)


def _rand_segment(rng):
    """A segment lift on a random [a, b] inside [0, 11/8], with its ends."""
    space = gen.rand_space(rng, rng.randint(2, 4))
    x = gen.rand_rv(rng, space)
    y = gen.rand_rv(rng, space)
    a = Fraction(rng.randint(0, 3), 8)
    b = a + Fraction(rng.randint(1, 4), 4)
    return segment_lift(x, y, a, b), x, y, a, b


def _segment_law_mixture(rng) -> bool:
    """Criterion 3: the segment lift has the prescribed ends and its law
    at every time is the affine mixture of the end laws."""
    seg, x, y, a, b = _rand_segment(rng)
    good = seg.eval(a) == x and seg.eval(b) == y
    for _ in range(10):
        s = gen.rand_fraction(rng, 16)
        good &= law(seg.eval(a + (b - a) * s)) == mixture(law(x), law(y), s)
    return good


def _segment_regularity(rng) -> bool:
    """Criterion 4: rho along a segment is (b - a)^-1-Lipschitz, and no
    time is farther from the left end than the right end is."""
    seg, x, y, a, b = _rand_segment(rng)
    s, t, u = (a + (b - a) * gen.rand_fraction(rng) for _ in range(3))
    s, t = min(s, t), max(s, t)
    return (
        kyfan_rho(seg.eval(s), seg.eval(t)) <= (t - s) / (b - a)
        and kyfan_rho(x, seg.eval(u)) <= kyfan_rho(x, y)
    )


def _segment_rho_closed_form(rng) -> bool:
    space = gen.rand_space(rng, rng.randint(2, 4))
    seg = segment_lift(gen.rand_rv(rng, space), gen.rand_rv(rng, space), ZERO, ONE)
    s, t, u = sorted(gen.rand_fraction(rng) for _ in range(3))
    return (
        seg.rho_between(u, s) == kyfan_rho(seg.eval(s), seg.eval(u))
        and seg.rho_between(t, u) <= seg.rho_between(s, u)
    )


def _polygonal_lift_law(rng) -> bool:
    """Criterion 6: a polygonal lift takes the prescribed endpoint
    variables and has the polygonal's law at 100 random times."""
    space = gen.rand_space(rng, rng.randint(3, 5))
    beta = gen.rand_polygonal(rng, space, rng.randint(4, 8))
    x_start = match_to_law(gen.rand_rv(rng, space), beta.vertices[0])
    x_end = match_to_law(gen.rand_rv(rng, space), beta.vertices[-1])
    lift = lift_polygonal(beta, x_start, x_end)
    good = lift.eval(ZERO) == x_start and lift.eval(ONE) == x_end
    for _ in range(100):
        t = gen.rand_fraction(rng, 64)
        good &= law(lift.eval(t)) == beta.eval(t)
    return good


def _relift_five_eps(rng) -> bool:
    """Criterion 7: relifting near a previous lift within an eps law gap
    drifts at most 5 eps, the returned drift is the walked sup of rho,
    and the relift is an exact lifting of its target."""
    space = gen.rand_space(rng, 3)
    beta = gen.rand_polygonal(rng, space, rng.randint(3, 5))
    prev = lift_polygonal(
        beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
    )
    eps = Fraction(1, rng.randint(3, 8))
    target = gen.perturb_polygonal(rng, beta, eps)
    relifted, drift = relift_near(prev, target, eps)
    return (
        drift == sup_rho_on_grid(prev, relifted, certification_grid(relifted))
        and drift <= 5 * eps
        and verify_lift(relifted, target, grid_n=9).max_law_gap == ZERO
    )


def _cube_law_identity(rng) -> bool:
    """Criterion 9: for n = 2, 3 the cube lift has law g at every point
    of the 5^n grid, its last-coordinate-0 slice is the lift one level
    down, and its last-coordinate-1 slice is the canonical last corner."""
    space = gen.rand_space(rng, 5)
    axis = [Fraction(k, 4) for k in range(5)]
    good = True
    for dim in (2, 3):
        corners = tuple(gen.rand_measure(rng, space) for _ in range(dim + 1))
        interp = CubeInterpolation(space, corners)
        lift = CubeLift(interp)
        level = CubeLift(CubeInterpolation(space, corners[:-1]))
        for point in product(axis, repeat=dim):
            good &= law(lift.eval(point)) == g_eval(interp, point)
        for point in product(axis, repeat=dim - 1):
            good &= lift.eval(point + (ZERO,)) == level.eval(point)
            good &= lift.eval(point + (ONE,)) == canonical_rv(corners[-1])
    return good


def _serialization_roundtrip(rng) -> bool:
    space = gen.rand_space(rng, rng.randint(2, 4))
    mu = gen.rand_measure(rng, space)
    x = gen.rand_rv(rng, space)
    y = gen.rand_rv(rng, space)
    lift = lift_polygonal(PolygonalPath(space, (ZERO, ONE), (law(x), law(y))), x, y)
    return (
        measure_from_obj(measure_to_obj(mu)) == mu
        and rv_from_obj(rv_to_obj(x)) == x
        and lift_from_obj(lift_to_obj(lift)) == lift
    )


# name -> (check, instances per selftest run), in report order
PROPERTIES: dict[str, tuple[Callable[[random.Random], bool], int]] = {
    "prokhorov-two-routes": (_prokhorov_two_routes, 40),
    "prokhorov-metric-axioms": (_prokhorov_metric_axioms, 30),
    "mixture-contraction": (_mixture_contraction, 40),
    "match-to-law-optimality": (_match_to_law_optimality, 40),
    "kyfan-scan-oracle": (_kyfan_scan_oracle, 40),
    "segment-law-mixture": (_segment_law_mixture, 30),
    "segment-regularity": (_segment_regularity, 30),
    "segment-rho-closed-form": (_segment_rho_closed_form, 30),
    "polygonal-lift-law": (_polygonal_lift_law, 12),
    "relift-five-eps": (_relift_five_eps, 8),
    "cube-law-identity": (_cube_law_identity, 6),
    "serialization-roundtrip": (_serialization_roundtrip, 20),
}


def count_passes(name: str, rng: random.Random, runs: int) -> int:
    """How many of `runs` instances drawn from rng pass property `name`."""
    check = PROPERTIES[name][0]
    return sum(check(rng) for _ in range(runs))


def run_selftest(seed: int) -> tuple[str, bool]:
    lines = [f"selftest seed {seed}"]
    all_ok = True
    for name, (_, runs) in PROPERTIES.items():
        passed = count_passes(name, random.Random(f"{seed}:{name}"), runs)
        all_ok &= passed == runs
        status = "ok" if passed == runs else "FAIL"
        lines.append(f"{name}: {passed}/{runs} {status}")
    lines.append("result: PASS" if all_ok else "result: FAIL")
    return "\n".join(lines) + "\n", all_ok
