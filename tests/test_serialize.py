import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import interval_sets, intervals_to_obj, space_with
from pathlift import (
    PolygonalPath,
    PreconditionError,
    SampledPath,
    canonical_rv,
    lift_polygonal,
    validate_space,
)
from pathlift import gen
from pathlift.lifting import verify_lift
from pathlift.serialize import (
    blocks_to_obj,
    certificate_from_obj,
    certificate_to_obj,
    dumps,
    frac_str,
    intervals_from_obj,
    lift_from_obj,
    lift_to_obj,
    measure_from_obj,
    measure_to_obj,
    parse_frac,
    path_from_obj,
    polygonal_to_obj,
    ratio_str,
    rv_from_obj,
    rv_to_obj,
    sampled_to_obj,
    space_from_obj,
    space_to_obj,
    weights_to_obj,
)

F = Fraction
Z = F(0)

SPACE_MUTATIONS = (
    None, "zero denominator", "not a string", "ragged", "diagonal",
    "negative", "asymmetric", "triangle",
)


@st.composite
def space_documents(draw):
    """(mutation, document): distances in [1/2, 1], so that every triangle
    holds, each written over a k-fold denominator such as "2/4"; then the
    mutation, if any, which makes the document invalid."""
    mutation = draw(st.sampled_from(SPACE_MUTATIONS))
    low = 2 if mutation in ("negative", "asymmetric") else 1
    if mutation == "triangle":
        m = draw(st.integers(20, 24))
    else:
        m = draw(st.integers(low, 6) | st.integers(20, 24))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = [[Z] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            q = rng.randint(1, 12)
            d[i][j] = d[j][i] = F(rng.randint((q + 1) // 2, q), q)
    i, j, k = sorted(rng.sample(range(m), 3)) if m > 2 else (0, m - 1, m - 1)
    if mutation == "diagonal":
        d[j][j] = F(1, rng.randint(1, 9))
    elif mutation == "negative":
        d[i][k] = d[k][i] = -d[i][k]
    elif mutation == "asymmetric":
        a, b = rng.choice(((i, k), (k, i)))
        d[a][b] += F(1, rng.randint(2, 9))
    elif mutation == "triangle":
        d[i][k] = d[k][i] = d[i][j] + d[j][k] + F(1, rng.randint(1, 50))
    rows = []
    for row in d:
        scales = [rng.randint(1, 3) for _ in row]
        rows.append([f"{x.numerator * c}/{x.denominator * c}" for x, c in zip(row, scales)])
    r, c = rng.randrange(m), rng.randrange(m)
    if mutation == "zero denominator":
        rows[r][c] = f"{rng.randint(0, 3)}/0"
    elif mutation == "not a string":
        rows[r][c] = rng.choice([1, 0.5, None, ["1/2"], "1/2/3", "0.5", "1", " 1/2"])
    elif mutation == "ragged":
        rows[r] = rows[r][:-1] if rng.random() < 0.5 else rows[r] + ["1/1"]
    return mutation, {"points": [f"p{n}" for n in range(m)], "dist": rows}


class TestFractionStrings:
    def test_round_trip(self):
        for x in (Z, F(1), F(-3, 7), F(22, 8)):
            assert parse_frac(frac_str(x)) == x

    @given(st.integers(-50, 50), st.integers(1, 60))
    def test_ratio_matches_the_fraction(self, num, den):
        assert ratio_str(num, den) == frac_str(F(num, den))

    def test_zero_formats_with_denominator(self):
        assert frac_str(Z) == "0/1"
        assert frac_str(F(1)) == "1/1"

    def test_rejects_floats_and_garbage(self):
        for bad in ("0.5", "1", "a/b", "1/0", 1, None, "1/2/3"):
            with pytest.raises(PreconditionError):
                parse_frac(bad)


class TestIntervalSets:
    @given(interval_sets())
    def test_round_trip(self, s):
        assert intervals_from_obj(intervals_to_obj(s)) == s

    def test_normalizes_on_read(self):
        obj = [["1/2", "3/4"], ["0/1", "1/2"]]
        s = intervals_from_obj(obj)
        assert s.intervals == ((Z, F(3, 4)),)


class TestSpacesAndMeasures:
    @given(space_with(n_measures=1))
    def test_round_trip(self, bundle):
        space, mu = bundle
        assert space_from_obj(space_to_obj(space)) == space
        assert measure_from_obj(measure_to_obj(mu)) == mu

    @given(space_with(n_measures=1))
    def test_weights_written_from_nums_match_the_fractions(self, bundle):
        _, mu = bundle
        assert weights_to_obj(mu) == [frac_str(w) for w in mu.weights]

    def test_bad_space_rejected(self):
        with pytest.raises(PreconditionError):
            space_from_obj({"points": ["a"], "dist": [["0/1", "1/2"]]})

    @settings(max_examples=200, deadline=None)
    @given(space_documents())
    def test_integer_reader_matches_the_fraction_route(self, drawn):
        mutation, doc = drawn
        try:
            fractions = [[parse_frac(x) for x in row] for row in doc["dist"]]
            expected = validate_space(doc["points"], fractions)
        except PreconditionError as exc:
            assert mutation is not None
            with pytest.raises(PreconditionError) as got:
                space_from_obj(doc)
            assert str(got.value) == str(exc)
        else:
            assert mutation is None
            space = space_from_obj(doc)
            assert space.dist == expected.dist
            assert (space.den, space.ints) == (expected.den, expected.ints)


class TestRandomVariables:
    @given(space_with(n_rvs=1))
    def test_round_trip(self, bundle):
        _, x = bundle
        assert rv_from_obj(rv_to_obj(x)) == x

    @given(space_with(n_rvs=1, max_slabs=8))
    def test_blocks_written_from_slabs_match_the_interval_sets(self, bundle):
        _, x = bundle
        assert blocks_to_obj(x) == {
            point: intervals_to_obj(block) for point, block in zip(x.space.points, x.blocks)
        }

    def test_missing_points_default_to_empty_blocks(self):
        rng = random.Random(1)
        space = gen.rand_space(rng, 3)
        from pathlift import Measure

        x = canonical_rv(Measure.from_weights(space, (F(1, 2), F(1, 2), Z)))
        obj = rv_to_obj(x)
        obj["blocks"].pop(space.points[-1])
        assert rv_from_obj(obj) == x

    def test_unknown_point_rejected(self):
        rng = random.Random(1)
        space = gen.rand_space(rng, 2)
        x = canonical_rv(gen.rand_measure(rng, space))
        obj = rv_to_obj(x)
        obj["blocks"]["zz"] = []
        with pytest.raises(PreconditionError, match="unknown"):
            rv_from_obj(obj)


class TestPaths:
    def test_polygonal_round_trip(self):
        rng = random.Random(2)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 4)
        rebuilt = path_from_obj(polygonal_to_obj(beta))
        assert isinstance(rebuilt, PolygonalPath)
        assert rebuilt == beta

    def test_sampled_round_trip_evaluates_equal(self):
        rng = random.Random(3)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 3)
        alpha = SampledPath.from_polygonal(beta)
        rebuilt = path_from_obj(sampled_to_obj(alpha, beta))
        assert isinstance(rebuilt, SampledPath)
        assert rebuilt.lipschitz == alpha.lipschitz
        for k in range(9):
            t = F(k, 8)
            assert rebuilt.eval(t) == alpha.eval(t)

    def test_unknown_kind(self):
        rng = random.Random(4)
        space = gen.rand_space(rng, 2)
        with pytest.raises(PreconditionError, match="kind"):
            path_from_obj({"space": space_to_obj(space), "kind": "spline"})


class TestLifts:
    def test_round_trip(self):
        rng = random.Random(5)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 4)
        lift = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        rebuilt = lift_from_obj(lift_to_obj(lift))
        assert rebuilt == lift

    def test_certificate_round_trip(self):
        rng = random.Random(6)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 3)
        lift = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        cert = verify_lift(lift, beta, grid_n=9)
        assert certificate_from_obj(certificate_to_obj(cert)) == cert


class TestDeterminism:
    def test_dumps_stable(self):
        rng = random.Random(7)
        space = gen.rand_space(rng, 3)
        mu = gen.rand_measure(rng, space)
        first = dumps(measure_to_obj(mu))
        second = dumps(measure_to_obj(mu))
        assert first == second
        assert first.endswith("\n")
        json.loads(first)

    def test_certificate_key_order(self):
        rng = random.Random(8)
        space = gen.rand_space(rng, 2)
        beta = gen.rand_polygonal(rng, space, 3)
        lift = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        cert = verify_lift(lift, beta, grid_n=5)
        keys = list(certificate_to_obj(cert))
        assert keys == [
            "grid",
            "max_law_gap",
            "continuity_table",
            "endpoint_ok",
            "decay_table",
        ]
