import json
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
from pathlift import SegmentLift, gen
from pathlift import cube
from pathlift.cli import main
from pathlift.serialize import dumps, space_to_obj, weights_to_obj

from helpers import cube_chain_oracle, multiaffine_oracle

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

    def test_equals_the_product_formula_in_any_order(self):
        """The shared prefix mixtures give the explicit multi-affine weights
        at rational points whose prefixes repeat, queried in shuffled order."""
        rng = random.Random(13)
        space = gen.rand_space(rng, 4)
        for dim in (1, 2, 3):
            corners = tuple(gen.rand_measure(rng, space) for _ in range(dim + 1))
            interp = CubeInterpolation(space, corners)
            pools = [[Z, F(1)] + [F(rng.randint(1, d - 1), d) for d in (3, 7, 12)]
                     for _ in range(dim)]
            points = list(product(*pools))
            rng.shuffle(points)
            for point in points[:40]:
                assert g_eval(interp, point).weights == multiaffine_oracle(interp, point)

    def test_point_check_texts_and_accepted_types(self):
        space = three_point_space()
        interp = CubeInterpolation(space, tuple(dirac(space, p) for p in "abc"))
        assert cube._check_point(interp, ("1/2", 1)) == ((1, 2), (1, 1))
        assert cube._check_point(interp, (0, F(6, 8))) == ((0, 1), (3, 4))
        with pytest.raises(PreconditionError, match=r"^expected 2 coordinates, got 3$"):
            cube._check_point(interp, (0, 0, 0))
        for bad, text in (((F(3, 2), 0), "3/2"), ((0, "-1/3"), "-1/3"), ((2, 0), "2")):
            with pytest.raises(PreconditionError, match=rf"^time {text} outside \[0, 1\]$"):
                cube._check_point(interp, bad)


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


class TestCubeReport:
    def test_every_adjacent_entry_is_rho_of_its_two_values(self, tmp_path):
        """Entries come from the recursion (0 past a later coordinate 1, the
        segment lift's closed form past later 0s) or from kyfan_rho: each
        equals rho by evaluation."""
        rng = random.Random(11)
        for dim, grid in product((1, 2, 3), (2, 3, 4, 5)):
            space = gen.rand_space(rng, rng.randint(2, 5))
            corners = tuple(gen.rand_measure(rng, space) for _ in range(dim + 1))
            path = tmp_path / f"corners{dim}-{grid}.json"
            path.write_text(dumps({"space": space_to_obj(space),
                                   "corners": [weights_to_obj(c) for c in corners]}))
            out = tmp_path / f"report{dim}-{grid}.json"
            assert main(["cube", str(path), "--grid", str(grid), "--out", str(out)]) == 0
            entries = json.loads(out.read_text())["adjacent_rho"]
            assert len(entries) == dim * (grid - 1) * grid ** (dim - 1)
            lift = CubeLift(CubeInterpolation(space, corners))
            for entry in entries:
                ends = (tuple(map(F, entry[key])) for key in ("from", "to"))
                assert F(entry["rho"]) == kyfan_rho(*map(lift.eval, ends))


class TestPrefixTree:
    """eval is the paper's recursion: one segment lift per prefix point."""

    def test_equals_the_chain_in_any_order_off_any_grid(self):
        rng = random.Random(8)
        space = gen.rand_space(rng, 4)
        for dim in (1, 2, 3):
            corners = tuple(gen.rand_measure(rng, space) for _ in range(dim + 1))
            interp = CubeInterpolation(space, corners)
            # few values per axis over mixed denominators, so prefixes repeat
            pools = [
                [Z, F(1)] + [F(rng.randint(0, d), d) for d in rng.sample((3, 7, 10, 13), 2)]
                for _ in range(dim)
            ]
            points = list(product(*pools))
            rng.shuffle(points)
            lift = CubeLift(interp)
            for point in points[:24]:
                assert lift.eval(point) == cube_chain_oracle(interp, point)

    def test_grid_builds_one_segment_lift_per_prefix_point(self, monkeypatch):
        built, evaluated = [], []

        class Counted(SegmentLift):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

            def _at(self, num, q):
                evaluated.append((num, q))
                return super()._at(num, q)

        monkeypatch.setattr(cube, "SegmentLift", Counted)
        rng = random.Random(9)
        space = gen.rand_space(rng, 3)
        corners = tuple(gen.rand_measure(rng, space) for _ in range(4))
        lift = CubeLift(CubeInterpolation(space, corners))
        axis = [F(k, 4) for k in range(5)]
        for point in product(axis, repeat=3):
            lift.eval(point)
        # 1 + 5 + 25 prefix points; 125 points plus 5 + 25 prefix values
        assert (len(built), len(evaluated)) == (31, 155)
        for point in product(axis, repeat=3):
            lift.eval(point)
        assert (len(built), len(evaluated)) == (31, 280)

    def test_grid_makes_no_public_segment_evaluation(self, monkeypatch):
        """Points reach their segment lifts as checked pairs, through ``_at``."""
        calls, eval_ = [], SegmentLift.eval
        monkeypatch.setattr(SegmentLift, "eval", lambda seg, s: calls.append(s) or eval_(seg, s))
        rng = random.Random(12)
        space = gen.rand_space(rng, 4)
        corners = tuple(gen.rand_measure(rng, space) for _ in range(4))
        points, gaps, adjacent = cube.cube_grid(CubeLift(CubeInterpolation(space, corners)), 5)
        assert (len(points), len(gaps), len(adjacent)) == (125, 125, 300)
        assert calls == []

    def test_grid_mixes_and_takes_the_closed_form_once_per_prefix_point(self, monkeypatch):
        mixed, apart = [], []
        mix, rho_apart = cube._mix, SegmentLift.rho_apart
        monkeypatch.setattr(cube, "_mix", lambda *args: mixed.append(args) or mix(*args))
        monkeypatch.setattr(
            SegmentLift, "rho_apart", lambda seg, *args: apart.append(args) or rho_apart(seg, *args)
        )
        rng = random.Random(14)
        space = gen.rand_space(rng, 4)
        corners = tuple(gen.rand_measure(rng, space) for _ in range(4))
        cube.cube_grid(CubeLift(CubeInterpolation(space, corners)), 5)
        # one mixture per prefix point, 5 + 25 + 125; one closed form per
        # prefix that precedes a step, 1 + 5 + 25
        assert (len(mixed), len(apart)) == (155, 31)

    def test_two_lifts_of_one_interpolation_agree(self):
        rng = random.Random(10)
        space = gen.rand_space(rng, 4)
        corners = tuple(gen.rand_measure(rng, space) for _ in range(3))
        interp = CubeInterpolation(space, corners)
        first, second = CubeLift(interp), CubeLift(interp)
        points = list(product([Z, F(1, 3), F(3, 4), F(1)], repeat=2))
        values = [first.eval(point) for point in points]
        assert [second.eval(point) for point in reversed(points)] == values[::-1]
        assert first == second and hash(first) == hash(second)
