import contextlib
import dataclasses
import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    bezier_path,
    breakpoint_tuples,
    fractions01,
    measures_on,
    metric_spaces,
    refined_grid_oracle,
    relift_near_oracle,
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
from pathlift.lifting import (
    SegmentLift, _Polygonal, certification_grid, decay_budgets, sup_rho_on_grid
)

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

    @pytest.mark.parametrize("kind", [PolygonalPath, LiftedPath], ids=["polygonal", "lifted"])
    def test_one_record(self, kind):
        """Both path classes inherit _Polygonal's fields and generated methods:
        equality and hashing by class and fields, repr by subclass name, frozen."""
        assert "__init__" not in vars(kind)
        assert dataclasses.fields(kind) == dataclasses.fields(_Polygonal)
        space = two_point_space()
        mu = dirac(space, "a")
        vertices = (mu, mu) if kind is PolygonalPath else (canonical_rv(mu),) * 2
        path, again = (kind(space, (Z, F(1)), vertices) for _ in range(2))
        assert path == again and path is not again
        assert hash(path) == hash(again) == hash((space, (Z, F(1)), vertices))
        assert repr(path) == (
            f"{kind.__name__}(space={space!r}, breakpoints={(Z, F(1))!r}, vertices={vertices!r})"
        )
        other = LiftedPath if kind is PolygonalPath else PolygonalPath
        assert path != other(space, (Z, F(1)), vertices)
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.vertices = vertices


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

    @given(
        space_with(n_rvs=2, max_slabs=8),
        fractions01(max_den=12),
        fractions01(max_den=12),
        fractions01(max_den=9),
    )
    @settings(max_examples=80, deadline=None)
    def test_restriction_is_a_segment_lift(self, bundle, r, v, u):
        """The segment lift between two values of S is S on the times
        between: what lets relift_near skip the midpoints of kept pieces."""
        _, x, y = bundle
        a, b = sorted((r, v))
        assume(a < b)
        seg = SegmentLift(x, y)
        for lo, hi in {(a, b), (Z, b), (a, F(1)), (Z, F(1))}:
            if lo < hi:
                restricted = SegmentLift(seg.eval(lo), seg.eval(hi))
                assert restricted.eval(u) == seg.eval(lo + (hi - lo) * u)

    @given(space_with(n_rvs=2, max_size=6, max_slabs=10))
    @settings(max_examples=60, deadline=None)
    def test_ends_are_the_stored_variables_and_the_walk(self, bundle):
        """eval hands back x at 0 and y at 1, which the walk at 0 and 1 rebuilds."""
        _, x, y = bundle
        seg = SegmentLift(x, y)
        with mock.patch.object(lifting, "transfer_blocks") as walk:
            assert seg.eval(Z) is x and seg.eval(0) is x
            assert seg.eval(F(1)) is y and seg.eval("2/2") is y
        walk.assert_not_called()
        assert lifting.transfer_blocks(seg.space, *seg.refinement, seg.masses, 0, 1) == seg.x
        assert lifting.transfer_blocks(seg.space, *seg.refinement, seg.masses, 1, 1) == seg.y

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
    def test_only_from_polygonal_attaches_a_backbone(self):
        space = two_point_space()
        beta = PolygonalPath(space, (Z, F(1)), (dirac(space, "a"), dirac(space, "b")))
        assert SampledPath(space, beta.eval, F(1)).backbone is None
        assert SampledPath.from_polygonal(beta).backbone is beta
        with pytest.raises(TypeError):
            SampledPath(space, beta.eval, F(1), backbone=beta)

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

    def test_screen_is_against_the_whole_total_variation(self):
        # diracs at distance 1, so q = TV = 1; at L = 3/2 and |dt| = 1/2 the
        # bound 3/4 lies between TV / 2 and TV: only the max-flow decides
        space = two_point_space()
        mu, nu = dirac(space, "a"), dirac(space, "b")
        path = SampledPath(space, lambda t: mu if t < F(1, 2) else nu, F(3, 2))
        path.eval(Z)
        message = "declared Lipschitz constant 3/2 violated: q(path(0), path(1/2)) = 1 > 3/2 * 1/2"
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            path.eval(F(1, 2))

    @given(st.lists(st.fractions(0, 1, max_denominator=24), min_size=1, max_size=24), st.data())
    @settings(max_examples=60, deadline=None)
    def test_memo_by_reduced_time_in_any_order(self, times, data):
        """Times given as ints, "p/q" text or unreduced pairs: one sample per
        time, handed back as the identical object, the times kept sorted."""
        space = two_point_space()
        a, b = dirac(space, "a"), dirac(space, "b")
        beta = PolygonalPath(space, (Z, F(1, 3), F(1)), (a, mixture(a, b, F(1, 5)), b))
        sampled = []
        path = SampledPath(space, lambda t: sampled.append(t) or beta.eval(t), F(4))
        first = {}
        for t in times:
            k = data.draw(st.integers(1, 6))
            query = data.draw(st.sampled_from([
                F(t.numerator * k, t.denominator * k),
                f"{t.numerator * k}/{t.denominator * k}",
                t.numerator if t.denominator == 1 else t,
            ]))
            value = path.eval(query)
            assert value == beta.eval(t) and first.setdefault(t, value) is value
        assert sorted(sampled) == sorted(set(times))
        assert [F(*pr) for pr in path._times] == sorted(set(times))
        assert path._samples == [first[t] for t in sorted(set(times))]

    @given(st.lists(st.fractions(0, 1, max_denominator=16), min_size=2, max_size=12, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_jump_violates_in_any_query_order(self, times):
        """Diracs at distance 1/10 jumping at 1/2, declared 1/20-Lipschitz: the
        first query across the jump raises, against its nearest left neighbour
        if it has one, else its right."""
        side = [t < F(1, 2) for t in times]
        assume((not side[0]) in side)
        space = two_point_space(F(1, 10))
        mu, nu = dirac(space, "a"), dirac(space, "b")
        path = SampledPath(space, lambda t: mu if t < F(1, 2) else nu, F(1, 20))
        cross = side.index(not side[0])
        for t in times[:cross]:
            path.eval(t)
        t = times[cross]
        left = [s for s in times[:cross] if s < t]
        nb = max(left) if left else min(times[:cross])
        message = (
            "declared Lipschitz constant 1/20 violated: "
            f"q(path({nb}), path({t})) = 1/10 > 1/20 * {abs(t - nb)}"
        )
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            path.eval(t)

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


@st.composite
def relift_cases(draw):
    """(prev, beta, eps): prev lifts a random polygonal; beta is prev's law
    path on prev's breakpoints plus ones inside its pieces, with none, all,
    or runs of its interior vertices moved toward a point mass."""
    space = draw(metric_spaces(max_size=3))
    bps = draw(breakpoint_tuples(max_inner=3, max_den=12))
    prev = lift_of(PolygonalPath(space, bps, tuple(draw(measures_on(space)) for _ in bps)))
    inside = st.fractions(0, 1, max_denominator=12).filter(lambda t: Z < t < 1)
    beta_bps = tuple(sorted(set(bps) | set(draw(st.lists(inside, min_size=2, max_size=5)))))
    targets = [prev.law_path().eval(t) for t in beta_bps]
    n = len(beta_bps) - 2
    moved = draw(st.integers(0, 2 ** n - 1))  # bit k - 1 moves vertex k: none, all, runs
    for k in range(1, n + 1):
        if moved >> (k - 1) & 1:  # toward a point the target does not hold whole
            mu = targets[k]
            point = draw(st.sampled_from([p for p, w in zip(space.points, mu.nums) if w < mu.den]))
            targets[k] = mixture(mu, dirac(space, point), draw(fractions01(8).filter(bool)))
    eps = draw(st.fractions(0, 1, max_denominator=8))
    return prev, PolygonalPath(space, beta_bps, tuple(targets)), eps


@contextlib.contextmanager
def lifted_evals():
    """Every (path, t) at which LiftedPath.eval runs inside the block."""
    calls, original = [], LiftedPath.eval

    def record(path, t):
        calls.append((path, t))
        return original(path, t)

    with mock.patch.object(LiftedPath, "eval", autospec=True, side_effect=record):
        yield calls


class TestReliftNear:
    def test_exact_law_path_reproduces_prev(self):
        """Where prev already carries beta's law every point is kept, with no
        max-flow, realization or midpoint evaluation, and only prev's
        breakpoints are stored or evaluated: at any eps the relift is prev."""
        rng = random.Random(31)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 4)
        prev = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        refuse = mock.Mock(side_effect=AssertionError("not kept"))
        with lifted_evals() as calls, mock.patch.multiple(
            lifting, prokhorov_coupling=refuse, realize_coupling=refuse, kyfan_rho=refuse
        ):
            relifted, drift = relift_near(prev, prev.law_path(), Z)
            finer, finer_drift = relift_near(prev, prev.law_path(), F(1, 3))
        assert relifted == finer == prev
        assert drift == finer_drift == 0
        assert calls and all(path is prev and t in prev.breakpoints for path, t in calls)

    def test_half_kept_piece_midpoint_sets_the_drift(self):
        """A piece with one kept vertex is no restriction of prev: its
        midpoint is evaluated, and here it sets the drift, above the gap."""
        space = two_point_space(F(1, 2))
        a, b = dirac(space, "a"), dirac(space, "b")
        prev = lift_of(PolygonalPath(space, (Z, F(1)), (mixture(b, a, F(1, 24)), b)))
        beta = PolygonalPath(
            space, (Z, F(1, 2), F(1)), (mixture(b, a, F(1, 24)), mixture(b, a, F(1, 96)), b)
        )
        relifted, drift = relift_near(prev, beta, F(1))
        assert relifted.vertices[0] == prev.vertices[0]
        assert relifted.vertices[2] == prev.vertices[1]
        assert prokhorov(law(prev.eval(F(1, 2))), beta.eval(F(1, 2))) == F(1, 96)
        assert drift == F(1, 64)
        assert drift == sup_rho_on_grid(prev, relifted, certification_grid(relifted))
        assert (relifted, drift) == relift_near_oracle(prev, beta, F(1))

    @given(relift_cases(), st.lists(fractions01(97), min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_keeping_matches_the_full_route(self, case, times):
        """The same path as the full route's, which stores every grid point,
        from only prev's breakpoints and the points rematched or next to one;
        prev is evaluated only at those and at midpoints of pieces with a
        rematched end."""
        prev, beta, eps = case
        try:
            oracle, expected_drift = relift_near_oracle(prev, beta, eps)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as caught:
                relift_near(prev, beta, eps)
            assert str(caught.value) == str(exc)
            return
        with lifted_evals() as calls:
            relifted, drift = relift_near(prev, beta, eps)
        assert drift == expected_drift
        assert drift == sup_rho_on_grid(prev, relifted, certification_grid(relifted))
        grid = oracle.breakpoints
        mids = [(lo + hi) / 2 for lo, hi in zip(grid, grid[1:])]
        for t in (*grid, *mids, *times):
            assert relifted.eval(t) == oracle.eval(t)
        moved = [False, *(law(prev.eval(t)) != beta.eval(t) for t in grid), False]
        assert relifted.breakpoints == tuple(
            t for k, t in enumerate(grid) if t in prev.breakpoints or any(moved[k : k + 3])
        )
        stored, rematched = relifted.breakpoints, {t for t, m in zip(grid, moved[1:]) if m}
        halves = {(a + b) / 2 for a, b in zip(stored, stored[1:]) if {a, b} & rematched}
        assert all(path is prev and (t in stored or t in halves) for path, t in calls)

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

    def test_relifts_store_no_vertex_prev_already_fixes(self):
        """The demo_lift --seed 0 instance at tol 1/200 lifts to 150
        segments; storing every point of each refined grid gave 15070."""
        rng = random.Random(0)
        space = gen.rand_space(rng, 3)
        alpha = gen.rand_sampled(rng, space, max_lipschitz=4)
        x_start = canonical_rv(alpha.eval(Z))
        x_end = match_to_law(gen.rand_rv(rng, space), alpha.eval(F(1)))
        lift, cert = lift_path(alpha, x_start, x_end, F(1, 200), 3, grid_n=65)
        assert cert.endpoint_ok == (True, True)
        assert len(lift.segments) <= 2 * 150

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


PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)


class TestCurvedPaths:
    """Quadratic Bezier curves of measures, exact at every time: nearly every
    point of a relift is rematched, and a lift can be checked off its grids."""

    @given(space_with(n_measures=3), st.tuples(*(st.integers(1, p - 1) for p in PRIMES)))
    @settings(max_examples=12, deadline=None)
    def test_lift_path_certificate_and_off_grid_gaps(self, bundle, nums):
        _, m0, m1, m2 = bundle
        alpha, tol = bezier_path(m0, m1, m2), F(1, 25)
        x_start, x_end = canonical_rv(m0), canonical_rv(m2)
        lift, cert = lift_path(alpha, x_start, x_end, tol, 3, grid_n=17)
        _, budgets = decay_budgets(tol, 3)
        assert cert.max_law_gap <= tol
        assert cert.endpoint_ok == (True, True)
        assert all(d <= b for d, b in zip(cert.decay_table, budgets))
        for t in (F(k, p) for k, p in zip(nums, PRIMES)):
            assert t not in cert.grid
            assert prokhorov(law(lift.eval(t)), alpha.eval(t)) <= tol

    @given(space_with(n_measures=3))
    @settings(max_examples=12, deadline=None)
    def test_relift_near_matches_the_full_route(self, bundle):
        _, m0, m1, m2 = bundle
        alpha = bezier_path(m0, m1, m2)
        prev = lift_of(approximate_polygonal(alpha, F(1, 5)))
        beta = approximate_polygonal(alpha, F(1, 25))
        oracle, expected_drift = relift_near_oracle(prev, beta, F(6, 25))
        relifted, drift = relift_near(prev, beta, F(6, 25))
        assert drift == expected_drift
        for t in oracle.breakpoints:
            assert relifted.eval(t) == oracle.eval(t)


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
        lift = lift_of(beta)
        calls = []
        with mock.patch.object(lifting, "transfer_blocks", lambda *args: calls.append(args[-2:])):
            value = lift.eval(t)
        i, local = expected
        if local in (0, 1):  # a piece end is its stored vertex, with no walk
            assert value is lift.vertices[i + int(local)] and calls == []
        else:  # elsewhere the segment walk gets the local time as its reduced integer pair
            assert calls == [local.as_integer_ratio()]

    @given(breakpoint_tuples(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_breakpoints_hand_back_the_stored_vertices(self, bps, relift):
        lift = lift_of(polygonal_on(bps))
        if relift:  # rematched vertices too: a relift toward b at 1/2, within q <= 1
            ends = lift.law_path().vertices
            target = (ends[0], dirac(lift.space, "b"), ends[-1])
            beta = PolygonalPath(lift.space, (Z, F(1, 2), F(1)), target)
            lift, _ = relift_near(lift, beta, F(1))
        with mock.patch.object(lifting, "transfer_blocks") as walk:
            for t, vertex in zip(lift.breakpoints, lift.vertices):
                assert lift.eval(t) is vertex
        walk.assert_not_called()
