import random
from fractions import Fraction
from itertools import product

import pytest

from pathlift import (
    CubeInterpolation,
    CubeLift,
    PreconditionError,
    canonical_rv,
    dirac,
    g_eval,
    kyfan_rho,
    law,
    validate_space,
)
from pathlift import gen

F = Fraction
Z = F(0)


def three_point_space():
    one = F(1)
    return validate_space(
        ["a", "b", "c"],
        [[Z, one, one], [one, Z, one], [one, one, Z]],
    )


class TestGEval:
    def test_origin_returns_first_corner(self):
        rng = random.Random(1)
        space = gen.rand_space(rng, 3)
        corners = tuple(gen.rand_measure(rng, space) for _ in range(4))
        interp = CubeInterpolation(space, corners)
        assert g_eval(interp, (Z, Z, Z)) == corners[0]

    def test_midpoint_one_dim(self):
        space = three_point_space()
        mu, nu = dirac(space, "a"), dirac(space, "b")
        interp = CubeInterpolation(space, (mu, nu))
        assert g_eval(interp, (F(1, 2),)).weights == (F(1, 2), F(1, 2), Z)

    def test_two_dim_hand_value(self):
        space = three_point_space()
        corners = (dirac(space, "a"), dirac(space, "b"), dirac(space, "c"))
        interp = CubeInterpolation(space, corners)
        value = g_eval(interp, (F(1, 2), F(1, 2)))
        assert value.weights == (F(1, 4), F(1, 4), F(1, 2))

    def test_dimension_checked(self):
        space = three_point_space()
        interp = CubeInterpolation(space, (dirac(space, "a"), dirac(space, "b")))
        with pytest.raises(PreconditionError):
            g_eval(interp, (F(1, 2), F(1, 2)))
        with pytest.raises(PreconditionError):
            g_eval(interp, (F(3, 2),))


class TestGLiftEval:
    def test_base_case_is_segment(self):
        rng = random.Random(2)
        space = gen.rand_space(rng, 3)
        mu, nu = gen.rand_measure(rng, space), gen.rand_measure(rng, space)
        interp = CubeInterpolation(space, (mu, nu))
        for k in range(5):
            t = F(k, 4)
            assert law(CubeLift(interp).eval((t,))) == g_eval(interp, (t,))

    def test_zero_last_coordinate_freezes_level(self):
        rng = random.Random(3)
        space = gen.rand_space(rng, 3)
        corners = tuple(gen.rand_measure(rng, space) for _ in range(3))
        interp = CubeInterpolation(space, corners)
        level = CubeInterpolation(space, corners[:2])
        for k in range(5):
            t = F(k, 4)
            assert CubeLift(interp).eval((t, Z)) == CubeLift(level).eval((t,))

    def test_unit_last_coordinate_is_canonical_corner(self):
        rng = random.Random(4)
        space = gen.rand_space(rng, 3)
        corners = tuple(gen.rand_measure(rng, space) for _ in range(3))
        interp = CubeInterpolation(space, corners)
        expected = canonical_rv(corners[-1])
        for k in range(5):
            t = F(k, 4)
            assert CubeLift(interp).eval((t, F(1))) == expected

    def test_law_identity_grid_dim2(self):
        rng = random.Random(5)
        space = gen.rand_space(rng, 4)
        corners = tuple(gen.rand_measure(rng, space) for _ in range(3))
        interp = CubeInterpolation(space, corners)
        lift = CubeLift(interp)
        axis = [F(k, 4) for k in range(5)]
        for point in product(axis, repeat=2):
            assert law(lift.eval(point)) == g_eval(interp, point)

    def test_law_identity_grid_dim3(self):
        rng = random.Random(6)
        space = gen.rand_space(rng, 3)
        corners = tuple(gen.rand_measure(rng, space) for _ in range(4))
        interp = CubeInterpolation(space, corners)
        lift = CubeLift(interp)
        axis = [Z, F(1, 3), F(1)]
        for point in product(axis, repeat=3):
            assert law(lift.eval(point)) == g_eval(interp, point)

    def test_adjacent_rho_bounded(self):
        rng = random.Random(7)
        space = gen.rand_space(rng, 3)
        corners = tuple(gen.rand_measure(rng, space) for _ in range(3))
        lift = CubeLift(CubeInterpolation(space, corners))
        axis = [F(k, 3) for k in range(4)]
        for point in product(axis, repeat=2):
            for a in range(2):
                if point[a] + F(1, 3) <= 1:
                    step = point[:a] + (point[a] + F(1, 3),) + point[a + 1 :]
                    rho = kyfan_rho(lift.eval(point), lift.eval(step))
                    assert 0 <= rho <= 1
