"""Acceptance suite: one test per criterion, exact tolerances, one
printed pass line each (run with -s to watch them).

Criteria 1-7 and 9 run the selftest's property checks
(``pathlift.selftest.PROPERTIES``) at their own seed and instance count;
criterion 8 runs the whole pipeline and criterion 10 the selftest
command itself."""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from helpers import subprocess_env
from pathlift import canonical_rv, lift_path, match_to_law
from pathlift import gen
from pathlift.lifting import decay_budgets
from pathlift.selftest import count_passes

F = Fraction
Z = F(0)
SELFTEST_GOLDEN = Path(__file__).with_name("golden") / "selftest_seed0.txt"


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def run_property(name, seed, runs):
    """Run property `name` on `runs` instances from Random(seed); return
    the elapsed seconds."""
    started = time.monotonic()
    passed = count_passes(name, random.Random(seed), runs)
    assert passed == runs, f"{name}: {passed}/{runs} instances pass"
    return time.monotonic() - started


def test_criterion_1_strassen_equality():
    elapsed = run_property("prokhorov-two-routes", 1001, 500)
    assert elapsed < 60
    report(1, f"coupling = subset-enumeration on 500 instances, m <= 8, {elapsed:.1f}s")


def test_criterion_2_match_optimality():
    run_property("match-to-law-optimality", 1002, 500)
    report(2, "match hits the target law at rho = q on 500 instances")


def test_criterion_3_law_mixture_identity():
    run_property("segment-law-mixture", 1003, 500)
    report(3, "pointwise law is the exact affine mixture on 500 segments x 10 times")


def test_criterion_4_segment_regularity():
    run_property("segment-regularity", 1004, 500)
    report(4, "rho-Lipschitz rate and left-endpoint domination exact on 500 segments")


def test_criterion_5_mixture_contraction():
    run_property("mixture-contraction", 1005, 500)
    report(5, "q(nu, (1-t)nu + t mu) <= q(nu, mu) exact on 500 triples")


def test_criterion_6_polygonal_lifting():
    # the endpoint-law precondition is checked by
    # test_lifting.py::TestLiftPolygonal::test_endpoint_mismatch_rejected
    run_property("polygonal-lift-law", 1006, 40)
    report(6, "law identity at 100 random times on 40 polygonals, endpoints prescribed")


def test_criterion_7_relift_bound():
    run_property("relift-five-eps", 1007, 200)
    report(7, "certified sup rho <= 5 eps and exact lifting on 200 relifts")


def test_criterion_8_pipeline():
    started = time.monotonic()
    rng = random.Random(1008)
    runs = 20
    tol = F(1, 25)
    iterations = 3
    _, budgets = decay_budgets(tol, iterations)
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
    elapsed = run_property("cube-law-identity", 1009, 1)
    assert elapsed < 60
    report(9, f"law identity on 5^n grids and exact 0/1 slices for n = 2, 3, {elapsed:.1f}s")


def test_criterion_10_selftest_determinism():
    cmd = [sys.executable, "-m", "pathlift", "selftest", "--seed", "0"]
    run = subprocess.run(cmd, capture_output=True, env=subprocess_env())
    assert run.returncode == 0
    assert run.stdout == SELFTEST_GOLDEN.read_bytes()
    report(10, "selftest seed 0 matches its recorded report byte for byte")
