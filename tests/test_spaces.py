import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import coupling_from_mass, distinct_space, fractions01, measures_on, space_with
from pathlift import Measure, PreconditionError, dirac, joint_coupling, mixture, validate_space
from pathlift.spaces import CouplingMatrix, FiniteMetricSpace

F = Fraction
Z = F(0)


class TestValidateSpace:
    def test_two_points(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        assert space.size == 2

    def test_triangle_violation_names_witness(self):
        d = [
            [Z, F(1), F(3)],
            [F(1), Z, F(1)],
            [F(3), F(1), Z],
        ]
        with pytest.raises(PreconditionError, match="triangle violation"):
            validate_space(["a", "b", "c"], d)

    def test_triangle_violation_witness_at_larger_sizes(self):
        # the check runs on integers over the common denominator; the
        # message still names the first violated triple as Fractions
        rng = random.Random(316)
        for m in range(5, 17):
            space = distinct_space(rng, m)
            d = [list(row) for row in space.dist]
            # stretch d(i, k) just past its shortest detour, so that few
            # triples break; every other size puts k on the last point
            k = m - 1 if m % 2 else rng.randrange(1, m)
            i = rng.randrange(k)
            detour = min(d[i][j] + d[j][k] for j in range(m) if j not in (i, k))
            d[i][k] = d[k][i] = detour + F(1, 1000 * rng.choice((7, 9, 11, 13)))
            p = space.points
            first = next(
                (a, b, c)
                for a in range(m)
                for b in range(m)
                for c in range(m)
                if d[a][c] > d[a][b] + d[b][c]
            )
            a, b, c = first
            expected = (
                f"triangle violation ({p[a]},{p[b]},{p[c]}): "
                f"{d[a][c]} > {d[a][b]} + {d[b][c]}"
            )
            with pytest.raises(PreconditionError) as exc:
                validate_space(p, d)
            assert str(exc.value) == expected

    def test_asymmetry(self):
        with pytest.raises(PreconditionError, match="asymmetry"):
            validate_space(["a", "b"], [[Z, F(1, 2)], [F(1, 3), Z]])

    def test_nonzero_diagonal(self):
        with pytest.raises(PreconditionError, match="diagonal"):
            validate_space(["a", "b"], [[F(1, 8), F(1)], [F(1), Z]])

    def test_zero_off_diagonal(self):
        with pytest.raises(PreconditionError, match="non-positive"):
            validate_space(["a", "b"], [[Z, Z], [Z, Z]])

    def test_lowest_terms_required(self):
        with pytest.raises(PreconditionError, match="^distances over 4 not in lowest terms$"):
            FiniteMetricSpace(("a", "b"), 4, ((0, 2), (2, 0)))
        with pytest.raises(PreconditionError, match="^distances over 0 not in lowest terms$"):
            FiniteMetricSpace(("a",), 0, ((0,),))
        h, t = F(1, 2), F(1, 3)
        space = validate_space(["a", "b", "c"], [[Z, h, t], [h, Z, h], [t, h, Z]])
        assert (space.den, space.ints) == (6, ((0, 3, 2), (3, 0, 3), (2, 3, 0)))
        assert space.dist[0][2] == F(1, 3)


class TestMeasure:
    def test_weights_must_sum_to_one(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        with pytest.raises(PreconditionError, match="^weights must sum to 1 exactly$"):
            Measure.from_weights(space, (F(1, 2), F(1, 4)))

    def test_negative_weight(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        with pytest.raises(PreconditionError, match="^negative weight -1/2$"):
            Measure.from_weights(space, (F(3, 2), F(-1, 2)))

    def test_length_mismatch(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        with pytest.raises(
            PreconditionError, match="^weight vector length does not match the space$"
        ):
            Measure.from_weights(space, (F(1, 2), F(1, 4), F(1, 4)))

    def test_lowest_terms_required(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        with pytest.raises(PreconditionError, match="^weights over 4 not in lowest terms$"):
            Measure(space, 4, (2, 2))
        assert Measure.reduced(space, 4, (2, 2)) == Measure(space, 2, (1, 1))

    def test_reduced_keeps_a_wrong_total(self):
        # dividing by the gcd of the weights alone would turn 3/7 + 3/7 into 1/2 + 1/2
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        with pytest.raises(PreconditionError, match="^weights must sum to 1 exactly$"):
            Measure.reduced(space, 7, (3, 3))
        with pytest.raises(PreconditionError, match="^weights must sum to 1 exactly$"):
            Measure.reduced(space, 4, (4, 4))

    @given(st.integers(1, 30), st.lists(st.integers(0, 30), min_size=2, max_size=2))
    def test_reduced_is_valid_exactly_when_the_weights_sum_to_den(self, den, nums):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        if sum(nums) == den:
            assert Measure.reduced(space, den, nums).weights == tuple(F(w, den) for w in nums)
        else:
            with pytest.raises(PreconditionError, match="^weights must sum to 1 exactly$"):
                Measure.reduced(space, den, nums)

    @given(space_with(n_measures=2), st.integers(1, 12))
    def test_equality_is_equality_of_weights(self, bundle, k):
        _, mu, nu = bundle
        assert Measure.from_weights(mu.space, mu.weights) == mu
        # the same law over a k-fold denominator is the same measure
        assert Measure.reduced(mu.space, k * mu.den, [k * w for w in mu.nums]) == mu
        assert (mu == nu) == (mu.weights == nu.weights)


class TestMixture:
    def test_left_endpoint(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        mu = Measure.from_weights(space, (F(2, 3), F(1, 3)))
        nu = Measure.from_weights(space, (F(1, 6), F(5, 6)))
        assert mixture(mu, nu, Z) == mu
        assert mixture(mu, nu, F(1)) == nu

    def test_midpoint_of_diracs(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        mid = mixture(dirac(space, "a"), dirac(space, "b"), F(1, 2))
        assert mid.weights == (F(1, 2), F(1, 2))

    def test_hand_value(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        mu = Measure.from_weights(space, (F(3, 4), F(1, 4)))
        nu = Measure.from_weights(space, (F(1, 4), F(3, 4)))
        assert mixture(mu, nu, F(1, 3)).weights == (F(7, 12), F(5, 12))

    def test_parameter_range(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        mu = dirac(space, "a")
        with pytest.raises(PreconditionError, match=r"^time 3/2 outside \[0, 1\]$"):
            mixture(mu, mu, F(3, 2))

    @given(space_with(n_measures=2), fractions01())
    def test_affine_in_weights(self, bundle, t):
        _, mu, nu = bundle
        mixed = mixture(mu, nu, t)
        for w, a, b in zip(mixed.weights, mu.weights, nu.weights):
            assert w == (1 - t) * a + t * b

    @given(space_with(), st.data(), st.integers(1, 6))
    def test_ends_equal_the_affine_formula(self, bundle, data, k):
        """At t = 0 and 1 (as 0/k, k/k, int or text) mixture equals the
        reduced affine combination over q * mu.den * nu.den, here q = 1."""
        space, = bundle
        mu = data.draw(measures_on(space, den=data.draw(st.integers(1, 30))))
        nu = data.draw(measures_on(space, den=data.draw(st.integers(1, 30))))
        den = mu.den * nu.den
        for p, ts in ((0, (F(0, k), 0, f"0/{k}")), (1, (F(k, k), 1, f"{k}/{k}"))):
            nums = [(1 - p) * x * nu.den + p * y * mu.den for x, y in zip(mu.nums, nu.nums)]
            for t in ts:
                assert mixture(mu, nu, t) == Measure.reduced(space, den, nums)


class TestCouplingMatrix:
    @given(space_with(n_measures=1))
    def test_product_coupling_marginals(self, bundle):
        space, mu = bundle
        uniform = Measure.from_weights(space, tuple(F(1, space.size) for _ in space.points))
        mass = tuple(
            tuple(mu.weights[i] * uniform.weights[j] for j in range(space.size))
            for i in range(space.size)
        )
        pi = coupling_from_mass(space, mass)
        assert pi.row_marginal() == mu
        assert pi.col_marginal() == uniform

    @given(space_with(n_rvs=2))
    def test_marginals_are_row_and_column_sums(self, bundle):
        space, x, y = bundle
        pi = joint_coupling(x, y)
        m = space.size
        assert pi.row_marginal().weights == tuple(sum(row, Z) for row in pi.mass)
        assert pi.col_marginal().weights == tuple(
            sum((pi.mass[i][j] for i in range(m)), Z) for j in range(m)
        )

    def test_lowest_terms_required(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        with pytest.raises(
            PreconditionError, match="^coupling masses over 4 not in lowest terms$"
        ):
            CouplingMatrix(space, 4, ((2, 0), (0, 2)))
        assert CouplingMatrix.reduced(space, 4, ((2, 0), (0, 2))) == CouplingMatrix(
            space, 2, ((1, 0), (0, 1))
        )

    def test_reduced_keeps_a_wrong_total(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        with pytest.raises(PreconditionError, match="^coupling total mass 6/7 != 1$"):
            CouplingMatrix.reduced(space, 7, ((3, 0), (0, 3)))
        with pytest.raises(PreconditionError, match="^coupling total mass 2 != 1$"):
            CouplingMatrix.reduced(space, 3, ((3, 0), (0, 3)))

    def test_total_mass_checked(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        with pytest.raises(PreconditionError, match="^coupling total mass 3/4 != 1$"):
            coupling_from_mass(space, ((F(1, 2), Z), (Z, F(1, 4))))

    def test_negative_mass_checked(self):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        with pytest.raises(PreconditionError, match="^negative coupling mass -1/4$"):
            coupling_from_mass(space, ((F(1, 2), F(-1, 4)), (F(1, 4), F(1, 2))))
