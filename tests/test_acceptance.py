"""Acceptance suite: one test per criterion, exact tolerances, one
printed pass line each (run with -s to watch them)."""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

from helpers import subprocess_env
from pathlift import (
    CubeInterpolation,
    CubeLift,
    PolygonalPath,
    PreconditionError,
    canonical_rv,
    g_eval,
    kyfan_rho,
    law,
    lift_path,
    lift_polygonal,
    match_to_law,
    mixture,
    prokhorov,
    prokhorov_coupling,
    prokhorov_subsets,
    relift_near,
    segment_lift,
    verify_lift,
)
from pathlift import gen
from pathlift.lifting import certification_grid, sup_rho_on_grid

F = Fraction
Z = F(0)


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_strassen_equality():
    started = time.monotonic()
    rng = random.Random(1001)
    runs = 500
    for _ in range(runs):
        space = gen.rand_space(rng, rng.randint(2, 8))
        mu = gen.rand_measure(rng, space)
        nu = gen.rand_measure(rng, space)
        value, witness = prokhorov_coupling(mu, nu)
        assert value == prokhorov_subsets(mu, nu)
        assert witness.row_marginal() == mu and witness.col_marginal() == nu
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(1, f"coupling = subset-enumeration on {runs} instances, m <= 8, {elapsed:.1f}s")


def test_criterion_2_match_optimality():
    rng = random.Random(1002)
    runs = 500
    for _ in range(runs):
        space = gen.rand_space(rng, rng.randint(2, 5))
        x = gen.rand_rv(rng, space)
        nu = gen.rand_measure(rng, space)
        y = match_to_law(x, nu)
        assert law(y) == nu
        assert kyfan_rho(x, y) == prokhorov(law(x), nu)
        z = gen.rand_rv(rng, space)
        assert prokhorov(law(x), law(z)) <= kyfan_rho(x, z)
    report(2, f"match hits the target law at rho = q on {runs} instances")


def test_criterion_3_law_mixture_identity():
    rng = random.Random(1003)
    runs = 500
    for _ in range(runs):
        space = gen.rand_space(rng, rng.randint(2, 4))
        x = gen.rand_rv(rng, space)
        y = gen.rand_rv(rng, space)
        a = F(rng.randint(0, 3), 8)
        b = a + F(rng.randint(1, 4), 4)
        seg = segment_lift(x, y, a, b)
        assert seg.eval(a) == x
        assert seg.eval(b) == y
        for _ in range(10):
            t = a + (b - a) * gen.rand_fraction(rng, 16)
            s = (t - a) / (b - a)
            assert law(seg.eval(t)) == mixture(law(x), law(y), s)
    report(3, f"pointwise law is the exact affine mixture on {runs} segments x 10 times")


def test_criterion_4_segment_regularity():
    rng = random.Random(1004)
    runs = 500
    for _ in range(runs):
        space = gen.rand_space(rng, rng.randint(2, 4))
        x = gen.rand_rv(rng, space)
        y = gen.rand_rv(rng, space)
        a = F(rng.randint(0, 3), 8)
        b = a + F(rng.randint(1, 4), 4)
        seg = segment_lift(x, y, a, b)
        s = a + (b - a) * gen.rand_fraction(rng, 12)
        t = a + (b - a) * gen.rand_fraction(rng, 12)
        s, t = min(s, t), max(s, t)
        assert kyfan_rho(seg.eval(s), seg.eval(t)) <= (t - s) / (b - a)
        u = a + (b - a) * gen.rand_fraction(rng, 12)
        assert kyfan_rho(x, seg.eval(u)) <= kyfan_rho(x, y)
    report(4, f"rho-Lipschitz rate and left-endpoint domination exact on {runs} segments")


def test_criterion_5_mixture_contraction():
    rng = random.Random(1005)
    runs = 500
    for _ in range(runs):
        space = gen.rand_space(rng, rng.randint(2, 5))
        mu = gen.rand_measure(rng, space)
        nu = gen.rand_measure(rng, space)
        t = gen.rand_fraction(rng)
        assert prokhorov(nu, mixture(nu, mu, t)) <= prokhorov(nu, mu)
    report(5, f"q(nu, (1-t)nu + t mu) <= q(nu, mu) exact on {runs} triples")


def test_criterion_6_polygonal_lifting():
    rng = random.Random(1006)
    runs = 40
    for _ in range(runs):
        space = gen.rand_space(rng, rng.randint(3, 5))
        beta = gen.rand_polygonal(rng, space, rng.randint(4, 8))
        x_start = match_to_law(gen.rand_rv(rng, space), beta.vertices[0])
        x_end = match_to_law(gen.rand_rv(rng, space), beta.vertices[-1])
        lift = lift_polygonal(beta, x_start, x_end)
        assert lift.eval(Z) == x_start
        assert lift.eval(F(1)) == x_end
        for _ in range(100):
            t = gen.rand_fraction(rng, 64)
            assert law(lift.eval(t)) == beta.eval(t)
    # endpoint-law mismatch is a checked precondition
    space = gen.rand_space(rng, 3)
    beta = gen.rand_polygonal(rng, space, 4)
    wrong = beta.vertices[0]
    while wrong == beta.vertices[0]:
        wrong = mixture(gen.rand_measure(rng, space), beta.vertices[0], F(1, 2))
    with pytest.raises(PreconditionError):
        lift_polygonal(beta, canonical_rv(wrong), canonical_rv(beta.vertices[-1]))
    report(6, f"law identity at 100 random times on {runs} polygonals, endpoints prescribed")


def _perturb(rng, beta, eps):
    verts = [beta.vertices[0]]
    for v in beta.vertices[1:-1]:
        share = eps * F(rng.randint(0, 4), 4)
        verts.append(mixture(v, gen.rand_measure(rng, beta.space), share))
    verts.append(beta.vertices[-1])
    return PolygonalPath(beta.space, beta.breakpoints, tuple(verts))


def test_criterion_7_relift_bound():
    rng = random.Random(1007)
    runs = 200
    for _ in range(runs):
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, rng.randint(3, 5))
        prev = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        eps = F(1, rng.randint(3, 8))
        target = _perturb(rng, beta, eps)
        relifted, drift = relift_near(prev, target, eps)
        assert drift == sup_rho_on_grid(prev, relifted, certification_grid(relifted))
        assert drift <= 5 * eps
        cert = verify_lift(relifted, target, grid_n=9)
        assert cert.max_law_gap == Z
    report(7, f"certified sup rho <= 5 eps and exact lifting on {runs} relifts")


def test_criterion_8_pipeline():
    started = time.monotonic()
    rng = random.Random(1008)
    runs = 20
    tol = F(1, 25)
    iterations = 3
    eps = [tol * 5 ** (iterations - 1 - n) for n in range(iterations)]
    budgets = [5 * (eps[n] + eps[n + 1]) for n in range(iterations - 1)]
    for _ in range(runs):
        space = gen.rand_space(rng, 3)
        alpha = gen.rand_sampled(rng, space, max_lipschitz=4)
        assert alpha.lipschitz <= 4
        x_start = canonical_rv(alpha.eval(Z))
        x_end = match_to_law(gen.rand_rv(rng, space), alpha.eval(F(1)))
        lift, cert = lift_path(alpha, x_start, x_end, tol, iterations, grid_n=65)
        assert cert.max_law_gap <= tol
        assert len(cert.decay_table) == iterations - 1
        assert all(d <= b for d, b in zip(cert.decay_table, budgets))
        assert cert.endpoint_ok == (True, True)
        assert lift.eval(Z) == x_start and lift.eval(F(1)) == x_end
    elapsed = time.monotonic() - started
    assert elapsed < 120
    report(8, f"{runs} pipelines: gap <= 1/25, decay within geometric budgets, {elapsed:.1f}s")


def test_criterion_9_cube_lifting():
    started = time.monotonic()
    rng = random.Random(1009)
    space = gen.rand_space(rng, 5)
    axis = [F(k, 4) for k in range(5)]
    for dim in (2, 3):
        corners = tuple(gen.rand_measure(rng, space) for _ in range(dim + 1))
        interp = CubeInterpolation(space, corners)
        lift = CubeLift(interp)
        level = CubeLift(CubeInterpolation(space, corners[:-1]))
        for point in product(axis, repeat=dim):
            assert law(lift.eval(point)) == g_eval(interp, point)
        for point in product(axis, repeat=dim - 1):
            assert lift.eval(point + (Z,)) == level.eval(point)
            assert lift.eval(point + (F(1),)) == canonical_rv(corners[-1])
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(9, f"law identity on 5^n grids and exact 0/1 slices for n = 2, 3, {elapsed:.1f}s")


def test_criterion_10_selftest_determinism():
    cmd = [sys.executable, "-m", "pathlift", "selftest", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, env=subprocess_env())
    second = subprocess.run(cmd, capture_output=True, env=subprocess_env())
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty report
    report(10, "selftest seed 0 is byte-identical across two runs")
