import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    breakpoint_tuples,
    fractions01,
    refined_grid_oracle,
    space_with,
    times_around,
    verify_grid_oracle,
)
from pathlift import (
    LiftedPath,
    Measure,
    PolygonalPath,
    PreconditionError,
    SampledPath,
    approximate_polygonal,
    canonical_rv,
    dirac,
    kyfan_rho,
    law,
    lift_path,
    lift_polygonal,
    match_to_law,
    mixture,
    prokhorov,
    relift_near,
    validate_space,
    verify_lift,
)
from pathlift import gen, lifting
from pathlift.lifting import SegmentLift, certification_grid, decay_budgets, sup_rho_on_grid

F = Fraction
Z = F(0)


def two_point_space(distance=F(1)):
    return validate_space(["a", "b"], [[Z, distance], [distance, Z]])


class TestPathValidation:
    """PolygonalPath and LiftedPath share one check of their breakpoints and vertices."""

    @pytest.mark.parametrize("kind", [PolygonalPath, LiftedPath], ids=["polygonal", "lifted"])
    @pytest.mark.parametrize(
        "breakpoints, distances, error",
        [
            ((Z,), (1,), "breakpoints must run from 0 to 1"),
            ((F(1, 4), F(1)), (1, 1), "breakpoints must run from 0 to 1"),
            ((Z, F(3, 4)), (1, 1), "breakpoints must run from 0 to 1"),
            ((Z, F(1, 2), F(1, 2), F(1)), (1, 1, 1, 1), "breakpoints must be strictly increasing"),
            ((Z, F(3, 4), F(1, 2), F(1)), (1, 1, 1, 1), "breakpoints must be strictly increasing"),
            ((Z, F(1, 2), F(1)), (1, 1), "one vertex measure per breakpoint required"),
            ((Z, F(1)), (1, 1, 1), "one vertex measure per breakpoint required"),
            ((Z, F(1)), (1, F(1, 2)), "operands live on different metric spaces"),
        ],
        ids=["one-breakpoint", "late-start", "early-end", "repeated", "decreasing",
             "too-few-vertices", "too-many-vertices", "vertex-on-another-space"],
    )
    def test_rejects(self, kind, breakpoints, distances, error):
        """One vertex per entry of distances, on the two-point space at that distance."""
        def vertex(distance):
            mu = dirac(two_point_space(F(distance)), "a")
            return mu if kind is PolygonalPath else canonical_rv(mu)

        with pytest.raises(PreconditionError) as got:
            kind(two_point_space(), breakpoints, tuple(vertex(d) for d in distances))
        assert str(got.value) == error


class TestPolygonalEval:
    def test_vertices(self):
        space = two_point_space()
        beta = gen.rand_polygonal(random.Random(1), space, 4)
        for t, v in zip(beta.breakpoints, beta.vertices):
            assert beta.eval(t) == v

    def test_midpoint_of_diracs(self):
        space = two_point_space()
        beta = PolygonalPath(
            space, (Z, F(1)), (dirac(space, "a"), dirac(space, "b"))
        )
        assert beta.eval(F(1, 2)).weights == (F(1, 2), F(1, 2))

    def test_second_segment_affine(self):
        space = two_point_space()
        mu = Measure.from_weights(space, (F(1), Z))
        nu = Measure.from_weights(space, (Z, F(1)))
        beta = PolygonalPath(space, (Z, F(1, 2), F(1)), (mu, nu, mu))
        assert beta.eval(F(3, 4)).weights == (F(1, 2), F(1, 2))

    def test_out_of_range(self):
        # the time is read as a Fraction, from a str or a float too
        space = two_point_space()
        mu = dirac(space, "a")
        beta = PolygonalPath(space, (Z, F(1)), (mu, mu))
        lift = lift_polygonal(beta, canonical_rv(mu), canonical_rv(mu))
        for late in (F(5, 4), "5/4", 1.25):
            for path in (beta, lift, SampledPath.from_polygonal(beta)):
                with pytest.raises(PreconditionError, match=r"^time 5/4 outside \[0, 1\]$"):
                    path.eval(late)
        with pytest.raises(PreconditionError, match=r"^time -1/3 outside \[0, 1\]$"):
            lift.eval(F(-1, 3))

    @given(space_with(n_measures=2), fractions01())
    def test_single_segment_is_mixture(self, bundle, t):
        space, mu, nu = bundle
        beta = PolygonalPath(space, (Z, F(1)), (mu, nu))
        assert beta.eval(t) == mixture(mu, nu, t)


def lift_on(x, y, a, b):
    """The lifted path that is x up to a, the segment lift from x to y on [a, b], then y."""
    bps = tuple(sorted({Z, a, b, F(1)}))
    k = bps.index(a) + 1
    return LiftedPath(x.space, bps, (x,) * k + (y,) * (len(bps) - k))


class TestSegmentLift:
    """The segment lift on [0, 1]; a path takes it on [a, b] at (t - a) / (b - a)."""

    def test_swap_of_constants(self):
        space = two_point_space()
        x = canonical_rv(dirac(space, "a"))
        y = canonical_rv(dirac(space, "b"))
        seg = SegmentLift(x, y)
        for t in (F(1, 4), F(2, 3)):
            value = seg.eval(t)
            # mass moves from the left edge: b on [0, t), a on [t, 1)
            assert value.blocks[0].intervals == ((t, F(1)),)
            assert value.blocks[1].intervals == ((Z, t),)

    def test_constant_segment(self):
        space = two_point_space()
        x = canonical_rv(Measure.from_weights(space, (F(1, 3), F(2, 3))))
        seg = SegmentLift(x, x)
        for t in (Z, F(1, 7), F(1)):
            assert seg.eval(t) == x

    def test_endpoints_exact(self):
        rng = random.Random(3)
        for _ in range(20):
            space = gen.rand_space(rng, rng.randint(2, 4))
            x = gen.rand_rv(rng, space)
            y = gen.rand_rv(rng, space)
            assert SegmentLift(x, y).eval(Z) == x
            assert SegmentLift(x, y).eval(F(1)) == y
            lift = lift_on(x, y, F(1, 4), F(3, 4))
            assert lift.eval(F(1, 4)) == x
            assert lift.eval(F(3, 4)) == y

    def test_time_outside_interval(self):
        space = two_point_space()
        x = canonical_rv(dirac(space, "a"))
        seg = SegmentLift(x, x)
        with pytest.raises(PreconditionError, match=r"^time 9/8 outside \[0, 1\]$"):
            seg.eval(F(9, 8))
        with pytest.raises(PreconditionError, match=r"^time -1/8 outside \[0, 1\]$"):
            seg.eval(F(-1, 8))

    def test_degenerate_interval(self):
        """An empty piece is refused by the path that would hold it."""
        space = two_point_space()
        x = canonical_rv(dirac(space, "a"))
        with pytest.raises(PreconditionError, match="^breakpoints must be strictly increasing$"):
            LiftedPath(space, (Z, F(1, 2), F(1, 2), F(1)), (x,) * 4)

    @given(space_with(n_rvs=2), fractions01())
    @settings(max_examples=60, deadline=None)
    def test_law_is_mixture(self, bundle, t):
        _, x, y = bundle
        seg = SegmentLift(x, y)
        assert law(seg.eval(t)) == mixture(law(x), law(y), t)

    @given(space_with(n_rvs=2), fractions01(), fractions01())
    @settings(max_examples=60, deadline=None)
    def test_lipschitz_in_time(self, bundle, u, v):
        _, x, y = bundle
        u, v = sorted([u, v])
        seg = SegmentLift(x, y)
        assert kyfan_rho(seg.eval(u), seg.eval(v)) <= v - u
        a, b = F(1, 8), F(7, 8)
        lift = lift_on(x, y, a, b)
        s, t = a + (b - a) * u, a + (b - a) * v
        assert kyfan_rho(lift.eval(s), lift.eval(t)) <= (t - s) / (b - a)

    @given(space_with(n_rvs=2), fractions01())
    @settings(max_examples=60, deadline=None)
    def test_left_endpoint_dominates(self, bundle, u):
        _, x, y = bundle
        seg = SegmentLift(x, y)
        assert kyfan_rho(x, seg.eval(u)) <= kyfan_rho(x, y)

    @given(
        space_with(n_rvs=2, max_size=6, max_slabs=10),
        fractions01(max_den=60),
        fractions01(max_den=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_rho_between_is_kyfan_of_two_evaluations(self, bundle, r, u):
        _, x, y = bundle
        seg = SegmentLift(x, y)
        times = sorted(
            {Z, F(1), r, u} | {F(c, x.den) for c in x.cuts} | {F(c, y.den) for c in y.cuts}
        )
        values = [seg.eval(t) for t in times]
        by_gap = []
        for s, vs in zip(times, values):
            for t, vt in zip(times, values):
                rho = seg.rho_between(s, t)
                assert rho == kyfan_rho(vs, vt)
                assert rho == seg.rho_apart(*abs(s - t).as_integer_ratio())
                by_gap.append((abs(s - t), rho))
        # a function of |s - t| alone, nondecreasing in it
        by_gap.sort()
        assert all(a[1] <= b[1] for a, b in zip(by_gap, by_gap[1:]))
        lift = lift_on(x, y, F(1, 3), F(5, 6))
        s, t = F(1, 3) + r / 2, F(1, 3) + u / 2
        assert kyfan_rho(lift.eval(s), lift.eval(t)) == seg.rho_between(r, u)

    def test_rho_between_outside_interval(self):
        space = two_point_space()
        x = canonical_rv(dirac(space, "a"))
        seg = SegmentLift(x, x)
        with pytest.raises(PreconditionError, match=r"^time 9/8 outside \[0, 1\]$"):
            seg.rho_between(F(1, 2), F(9, 8))


class TestLiftPolygonal:
    def test_single_segment_case(self):
        space = two_point_space()
        x = canonical_rv(dirac(space, "a"))
        y = canonical_rv(dirac(space, "b"))
        beta = PolygonalPath(space, (Z, F(1)), (law(x), law(y)))
        lift = lift_polygonal(beta, x, y)
        assert len(lift.segments) == 1
        assert lift.eval(Z) == x
        assert lift.eval(F(1)) == y

    def test_breakpoint_laws(self):
        rng = random.Random(11)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 5)
        x_start = canonical_rv(beta.vertices[0])
        x_end = match_to_law(gen.rand_rv(rng, space), beta.vertices[-1])
        lift = lift_polygonal(beta, x_start, x_end)
        for t, v in zip(beta.breakpoints, beta.vertices):
            assert law(lift.eval(t)) == v

    def test_law_identity_on_grid(self):
        rng = random.Random(12)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 4)
        lift = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        for k in range(11):
            t = F(k, 10)
            assert law(lift.eval(t)) == beta.eval(t)
        extra = [gen.rand_fraction(rng, 48) for _ in range(10)]
        for t in extra:
            assert law(lift.eval(t)) == beta.eval(t)

    def test_endpoint_mismatch_rejected(self):
        space = two_point_space()
        x = canonical_rv(dirac(space, "a"))
        beta = PolygonalPath(space, (Z, F(1)), (dirac(space, "a"), dirac(space, "b")))
        with pytest.raises(PreconditionError, match="endpoint law"):
            lift_polygonal(beta, x, x)


class TestSampledPath:
    def test_lipschitz_violation_detected(self):
        space = two_point_space()
        mu, nu = dirac(space, "a"), dirac(space, "b")

        def jumpy(t):
            return mu if t < F(1, 2) else nu

        path = SampledPath(space, jumpy, F(1, 10))
        path.eval(Z)
        with pytest.raises(PreconditionError, match="Lipschitz"):
            path.eval(F(1))

    def test_declared_slack_accepted(self):
        space = two_point_space()
        beta = PolygonalPath(
            space, (Z, F(1)), (dirac(space, "a"), dirac(space, "b"))
        )
        path = SampledPath(space, beta.eval, F(2))
        for k in range(9):
            path.eval(F(k, 8))

    def test_total_variation_screen_certifies_polygonal_pairs(self, monkeypatch):
        # on a polygonal, TV between path points is at most |s - t| / piece
        # length, so every neighbour pair is certified with no max-flow
        calls = []
        monkeypatch.setattr(lifting, "prokhorov", lambda mu, nu: calls.append(1))
        beta = gen.rand_polygonal(random.Random(7), gen.rand_space(random.Random(8), 3), 4)
        path = SampledPath.from_polygonal(beta)
        for k in range(17):
            path.eval(F(k, 16))
        assert calls == []

    def test_screen_and_check_hold_with_equality(self, monkeypatch):
        # diracs at distance 1/10 queried at 1/3, then 5/6 (|dt| = 1/2): at L = 2
        # the bound L * |dt| = 1 equals TV, so no max-flow runs; at L = 1/5 TV
        # fails the screen and the bound 1/10 equals q, which is accepted
        space = two_point_space(F(1, 10))
        mu, nu = dirac(space, "a"), dirac(space, "b")
        flows = []

        def counted(a, b):
            flows.append((a, b))
            return prokhorov(a, b)

        monkeypatch.setattr(lifting, "prokhorov", counted)
        for lipschitz, expected in ((F(2), []), (F(1, 5), [(mu, nu)])):
            flows.clear()
            path = SampledPath(space, lambda t: mu if t < F(1, 2) else nu, lipschitz)
            path.eval(F(1, 3))
            assert path.eval(F(5, 6)) == nu
            assert flows == expected

    def test_screen_falls_through_to_max_flow(self, monkeypatch):
        # diracs at distance 1/10: TV = 1 > L * |dt| = 1/5 >= q = 1/10
        space = two_point_space(F(1, 10))
        mu, nu = dirac(space, "a"), dirac(space, "b")
        flows = []

        def counted(a, b):
            flows.append((a, b))
            return prokhorov(a, b)

        monkeypatch.setattr(lifting, "prokhorov", counted)
        path = SampledPath(space, lambda t: mu if t < F(1, 2) else nu, F(1, 5))
        path.eval(Z)
        assert path.eval(F(1)) == nu
        assert flows == [(mu, nu)]

    def test_violation_past_the_screen_raises(self):
        space = two_point_space(F(1, 10))
        mu, nu = dirac(space, "a"), dirac(space, "b")
        path = SampledPath(space, lambda t: mu if t < F(1, 2) else nu, F(1, 20))
        path.eval(Z)
        message = (
            "declared Lipschitz constant 1/20 violated: "
            "q(path(0), path(1)) = 1/10 > 1/20 * 1"
        )
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            path.eval(F(1))

    def test_endpoints_exact(self):
        rng = random.Random(5)
        space = gen.rand_space(rng, 3)
        alpha = gen.rand_sampled(rng, space)
        assert alpha.eval(Z) == alpha.eval(Z)
        assert alpha.eval(F(1)).space == space


class TestApproximatePolygonal:
    def test_segment_count_formula(self):
        space = two_point_space()
        beta = PolygonalPath(space, (Z, F(1)), (dirac(space, "a"), dirac(space, "b")))
        alpha = SampledPath(space, beta.eval, F(1))
        approx = approximate_polygonal(alpha, F(1, 2))
        assert approx.breakpoints == (Z, F(1, 4), F(1, 2), F(3, 4), F(1))

    def test_affine_path_reproduced(self):
        space = two_point_space()
        mu, nu = dirac(space, "a"), dirac(space, "b")
        beta = PolygonalPath(space, (Z, F(1)), (mu, nu))
        alpha = SampledPath(space, beta.eval, F(1))
        approx = approximate_polygonal(alpha, F(1, 3))
        for k in range(13):
            t = F(k, 12)
            assert approx.eval(t) == beta.eval(t)

    def test_gap_within_tolerance(self):
        rng = random.Random(21)
        for _ in range(10):
            space = gen.rand_space(rng, 3)
            alpha = gen.rand_sampled(rng, space)
            eps = F(1, rng.randint(2, 6))
            approx = approximate_polygonal(alpha, eps)
            assert approx.eval(Z) == alpha.eval(Z)
            assert approx.eval(F(1)) == alpha.eval(F(1))
            for k in range(25):
                t = F(k, 24)
                assert prokhorov(alpha.eval(t), approx.eval(t)) <= eps

    def test_requires_positive_tolerance(self):
        space = two_point_space()
        beta = PolygonalPath(space, (Z, F(1)), (dirac(space, "a"), dirac(space, "a")))
        with pytest.raises(PreconditionError):
            approximate_polygonal(SampledPath(space, beta.eval, F(1)), Z)


class TestReliftNear:
    def test_exact_law_path_reproduces_prev(self):
        rng = random.Random(31)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 4)
        prev = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        relifted, drift = relift_near(prev, prev.law_path(), Z)
        assert relifted == prev
        assert drift == 0

    def test_five_eps_bound(self):
        rng = random.Random(32)
        for _ in range(12):
            space = gen.rand_space(rng, 3)
            beta = gen.rand_polygonal(rng, space, rng.randint(3, 4))
            prev = lift_polygonal(
                beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
            )
            eps = F(1, rng.randint(3, 8))
            target = gen.perturb_polygonal(rng, beta, eps)
            relifted, drift = relift_near(prev, target, eps)
            grid = certification_grid(relifted)
            assert drift == sup_rho_on_grid(prev, relifted, grid)
            assert drift <= 5 * eps
            cert = verify_lift(relifted, target, grid_n=17)
            assert cert.max_law_gap == 0
            assert relifted.eval(Z) == prev.eval(Z)
            assert relifted.eval(F(1)) == prev.eval(F(1))

    def test_gap_precondition_enforced(self):
        rng = random.Random(33)
        space = two_point_space()
        beta = PolygonalPath(
            space,
            (Z, F(1, 2), F(1)),
            (dirac(space, "a"), dirac(space, "a"), dirac(space, "a")),
        )
        prev = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        far = PolygonalPath(
            space,
            (Z, F(1, 2), F(1)),
            (dirac(space, "a"), dirac(space, "b"), dirac(space, "a")),
        )
        with pytest.raises(PreconditionError, match="law gap"):
            relift_near(prev, far, F(1, 10))

    def test_endpoint_mismatch_rejected(self):
        space = two_point_space()
        beta = PolygonalPath(space, (Z, F(1)), (dirac(space, "a"), dirac(space, "a")))
        prev = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        other = PolygonalPath(space, (Z, F(1)), (dirac(space, "b"), dirac(space, "a")))
        with pytest.raises(PreconditionError, match="t = 0"):
            relift_near(prev, other, F(1))


class TestLiftPath:
    def test_polygonal_input_single_round(self):
        rng = random.Random(41)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 4)
        alpha = SampledPath.from_polygonal(beta)
        x_start = canonical_rv(beta.vertices[0])
        x_end = canonical_rv(beta.vertices[-1])
        lift, cert = lift_path(alpha, x_start, x_end, F(1, 4), 1, grid_n=17)
        assert cert.endpoint_ok == (True, True)
        assert cert.max_law_gap <= F(1, 4)
        assert cert.decay_table == ()

    def test_constant_path(self):
        space = two_point_space()
        mu = Measure.from_weights(space, (F(1, 3), F(2, 3)))
        beta = PolygonalPath(space, (Z, F(1)), (mu, mu))
        alpha = SampledPath(space, beta.eval, F(1))
        x = canonical_rv(mu)
        lift, cert = lift_path(alpha, x, x, F(1, 8), 2, grid_n=9)
        assert cert.max_law_gap == 0
        assert all(r == 0 for r in cert.continuity_table)
        assert all(d == 0 for d in cert.decay_table)
        assert cert.endpoint_ok == (True, True)

    def test_three_round_budgets(self):
        rng = random.Random(42)
        space = gen.rand_space(rng, 3)
        alpha = gen.rand_sampled(rng, space)
        x_start = canonical_rv(alpha.eval(Z))
        x_end = canonical_rv(alpha.eval(F(1)))
        tol = F(1, 25)
        lift, cert = lift_path(alpha, x_start, x_end, tol, 3, grid_n=17)
        _, budgets = decay_budgets(tol, 3)
        assert len(cert.decay_table) == 2
        assert all(d <= b for d, b in zip(cert.decay_table, budgets))
        assert cert.max_law_gap <= tol
        assert cert.endpoint_ok == (True, True)
        assert lift.eval(Z) == x_start
        assert lift.eval(F(1)) == x_end

    def test_endpoint_mismatch(self):
        space = two_point_space()
        beta = PolygonalPath(space, (Z, F(1)), (dirac(space, "a"), dirac(space, "b")))
        alpha = SampledPath(space, beta.eval, F(1))
        x = canonical_rv(dirac(space, "a"))
        with pytest.raises(PreconditionError, match="endpoint law"):
            lift_path(alpha, x, x, F(1, 4), 2)

    def test_tolerance_positive(self):
        space = two_point_space()
        beta = PolygonalPath(space, (Z, F(1)), (dirac(space, "a"), dirac(space, "a")))
        alpha = SampledPath(space, beta.eval, F(1))
        x = canonical_rv(dirac(space, "a"))
        with pytest.raises(PreconditionError):
            lift_path(alpha, x, x, Z, 2)


class TestVerifyLift:
    def test_exact_lift_has_zero_gap(self):
        rng = random.Random(51)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 4)
        lift = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        cert = verify_lift(lift, beta, grid_n=33)
        assert cert.max_law_gap == 0
        assert cert.endpoint_ok == (True, True)
        assert set(beta.breakpoints) <= set(cert.grid)
        assert set(lift.breakpoints) <= set(cert.grid)

    def test_continuity_bounded_by_segment_rate(self):
        rng = random.Random(52)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 4)
        lift = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        cert = verify_lift(lift, beta, grid_n=33)
        min_piece = min(b - a for a, b in zip(lift.breakpoints, lift.breakpoints[1:]))
        for (lo, hi), entry in zip(zip(cert.grid, cert.grid[1:]), cert.continuity_table):
            assert entry <= (hi - lo) / min_piece

    def test_endpoint_flag_against_prescribed(self):
        space = two_point_space()
        x = canonical_rv(dirac(space, "a"))
        y = canonical_rv(dirac(space, "b"))
        beta = PolygonalPath(space, (Z, F(1)), (law(x), law(y)))
        lift = lift_polygonal(beta, x, y)
        good = verify_lift(lift, beta, grid_n=5, endpoints=(x, y))
        assert good.endpoint_ok == (True, True)
        swapped = verify_lift(lift, beta, grid_n=5, endpoints=(y, x))
        assert swapped.endpoint_ok == (False, False)

    def test_grid_too_small(self):
        space = two_point_space()
        x = canonical_rv(dirac(space, "a"))
        beta = PolygonalPath(space, (Z, F(1)), (law(x), law(x)))
        lift = lift_polygonal(beta, x, x)
        with pytest.raises(PreconditionError):
            verify_lift(lift, beta, grid_n=1)


def polygonal_on(bps):
    """A polygonal on the two-point space with these breakpoints."""
    space = two_point_space()
    a, b = dirac(space, "a"), dirac(space, "b")
    return PolygonalPath(space, bps, tuple(mixture(a, b, F(k % 4, 3)) for k in range(len(bps))))


def local_times(bps, i, *times):
    """The times, each as its local time in piece i of the breakpoints."""
    return [(t - bps[i]) / (bps[i + 1] - bps[i]) for t in times]


def lift_of(beta):
    return lift_polygonal(beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1]))


class TestIntegerTimeAxis:
    """Lookups and grids on integer ticks against bisect and sets of Fractions,
    over breakpoints with mixed denominators."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_segment_lookups_match_bisect_right(self, data):
        bps = data.draw(breakpoint_tuples())
        beta = polygonal_on(bps)
        lift = lift_of(beta)
        for t in data.draw(times_around(bps)):
            idx = min(bisect_right(bps, t) - 1, len(bps) - 2)
            local = (t - bps[idx]) / (bps[idx + 1] - bps[idx])
            assert beta.locate(t) == lift.locate(t) == (idx, local)
            # both paths hand the one (piece, local time) to their segment rule
            with mock.patch.object(lifting, "mixture", lambda mu, nu, s: (mu, nu, s)):
                assert beta.eval(t) == (*beta.vertices[idx:idx + 2], local)
            with mock.patch.object(SegmentLift, "eval", lambda seg, s: (seg, s)):
                seg, s = lift.eval(t)
                assert seg is lift.segments[idx] and s == local

    @given(breakpoint_tuples(), breakpoint_tuples(), st.integers(2, 40))
    @example((Z, F(1, 3), F(1)), (Z, F(1)), 3)  # 1/2 lies within 1/3 right of 1/3
    @settings(max_examples=40, deadline=None)
    def test_verify_grid_and_continuity_segments(self, lift_bps, target_bps, grid_n):
        lift = lift_of(polygonal_on(lift_bps))
        cert = verify_lift(lift, polygonal_on(target_bps), grid_n=grid_n)
        grid = cert.grid
        assert list(grid) == verify_grid_oracle(grid_n, lift_bps, target_bps)
        pieces = [bisect_left(lift_bps, t) - 1 for t in grid[1:]]
        assert cert.continuity_table == tuple(
            lift.segments[i].rho_between(*local_times(lift_bps, i, s, t))
            for i, s, t in zip(pieces, grid, grid[1:])
        )

    @given(breakpoint_tuples(), breakpoint_tuples(), st.fractions(0, 1, max_denominator=9))
    @settings(max_examples=60, deadline=None)
    def test_refined_grid_matches_fraction_sets(self, prev_bps, beta_bps, eps):
        prev = lift_of(polygonal_on(prev_bps))
        grid = lifting._refined_grid(prev, polygonal_on(beta_bps), eps)
        assert grid == refined_grid_oracle(prev_bps, beta_bps, eps)

    @given(breakpoint_tuples())
    @settings(max_examples=40, deadline=None)
    def test_certification_grid_and_default_modulus(self, bps):
        beta = polygonal_on(bps)
        mids = {(lo + hi) / 2 for lo, hi in zip(bps, bps[1:])}
        assert certification_grid(lift_of(beta)) == sorted(set(bps) | mids)
        modulus = max(1 / (hi - lo) for lo, hi in zip(bps, bps[1:]))
        assert SampledPath.from_polygonal(beta).lipschitz == modulus

    @given(breakpoint_tuples(), st.data(), fractions01(max_den=120))
    def test_local_time_is_the_reduced_fraction(self, bps, data, u):
        i = data.draw(st.integers(0, len(bps) - 2))
        t = bps[i] + (bps[i + 1] - bps[i]) * u
        # the right end of a piece is local time 0 of the next, save at t = 1
        expected = (i + 1, Z) if u == 1 and i < len(bps) - 2 else (i, u)
        beta = polygonal_on(bps)
        assert beta.locate(t) == expected
        # the segment walk gets the local time as its reduced integer pair
        with mock.patch.object(lifting, "transfer_blocks", lambda *args: args[-2:]):
            assert lift_of(beta).eval(t) == expected[1].as_integer_ratio()
