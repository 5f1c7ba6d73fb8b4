"""Seeded random instances for the property suites.

Everything here is driven by an explicit random.Random, so a fixed seed
reproduces the exact same objects; the self-test command relies on that
for byte-identical reports.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .lifting import PolygonalPath, SampledPath
from .randomvars import SimpleRandomVariable
from .spaces import ONE, ZERO, FiniteMetricSpace, Measure, mixture, validate_space

_POINT_NAMES = "abcdefghijklmnop"


def rand_fraction(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def rand_space(rng: random.Random, size: int) -> FiniteMetricSpace:
    """Random rational metric on `size` points.

    Either a bounded-ratio matrix (entries in [1/2, 1], triangle is then
    automatic) or the shortest-path closure of random positive weights,
    which produces genuinely varied triangle slack.
    """
    points = list(_POINT_NAMES[:size])
    if size == 1:
        return validate_space(points, [[ZERO]])
    d = [[ZERO] * size for _ in range(size)]
    if rng.random() < 0.5:
        for i in range(size):
            for j in range(i + 1, size):
                d[i][j] = d[j][i] = Fraction(rng.randint(4, 8), 8)
    else:
        for i in range(size):
            for j in range(i + 1, size):
                d[i][j] = d[j][i] = Fraction(rng.randint(1, 12), 12)
        for k in range(size):
            for i in range(size):
                for j in range(size):
                    if i != j:
                        via = d[i][k] + d[k][j]
                        if via < d[i][j]:
                            d[i][j] = via
    return validate_space(points, d)


def rand_measure(rng: random.Random, space: FiniteMetricSpace, den: int = 24) -> Measure:
    bounds = [0] + sorted(rng.randint(0, den) for _ in range(space.size - 1)) + [den]
    return Measure.reduced(space, den, [hi - lo for lo, hi in zip(bounds, bounds[1:])])


def rand_rv(rng: random.Random, space: FiniteMetricSpace, slabs: int = 8, den: int = 48) -> SimpleRandomVariable:
    """Random labeled partition: random slab cuts, random labels."""
    ends = sorted(rng.sample(range(1, den), min(slabs - 1, den - 1))) + [den]
    labels = [rng.randrange(space.size) for _ in ends]
    return SimpleRandomVariable.from_slabs(space, den, zip(ends, labels))


def rand_polygonal(
    rng: random.Random, space: FiniteMetricSpace, vertices: int, den: int = 16
) -> PolygonalPath:
    interior = sorted(rng.sample(range(1, den), vertices - 2)) if vertices > 2 else []
    bps = (ZERO,) + tuple(Fraction(c, den) for c in interior) + (ONE,)
    verts = tuple(rand_measure(rng, space) for _ in range(vertices))
    return PolygonalPath(space, bps, verts)


def perturb_polygonal(rng: random.Random, beta: PolygonalPath, eps: Fraction) -> PolygonalPath:
    """Same endpoints, interior vertices mixed toward a random measure
    by at most eps of mass, so the sup law gap to beta stays within eps."""
    verts = [beta.vertices[0]]
    for v in beta.vertices[1:-1]:
        noise = rand_measure(rng, beta.space)
        verts.append(mixture(v, noise, eps * rng.randint(0, 4) / 4))
    verts.append(beta.vertices[-1])
    return PolygonalPath(beta.space, beta.breakpoints, tuple(verts))


def rand_sampled(
    rng: random.Random, space: FiniteMetricSpace, max_lipschitz: int = 4
) -> SampledPath:
    """Piecewise-affine path with a valid declared modulus <= max_lipschitz.

    max_i 1/(piece length) is a true Lipschitz constant for the
    Prokhorov metric along a polygonal, so pieces of length >=
    1/max_lipschitz suffice.  Backbone breakpoints sit on odd prime
    denominators, so uniform approximation grids genuinely miss them.
    """
    den = rng.choice([7, 11, 13])
    min_gap = -(-den // max_lipschitz)  # ceil(den / L) keeps 1/gap <= L
    cuts = [0]
    while den - cuts[-1] >= 2 * min_gap and rng.random() < 0.8:
        cuts.append(rng.randint(cuts[-1] + min_gap, den - min_gap))
    cuts.append(den)
    bps = tuple(Fraction(c, den) for c in cuts)
    vertices = tuple(rand_measure(rng, space) for _ in cuts)
    return SampledPath.from_polygonal(PolygonalPath(space, bps, vertices))
