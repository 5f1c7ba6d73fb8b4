import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    clustered_pair,
    coupling_from_mass,
    distinct_space,
    fractions01,
    kyfan_bruteforce,
    prokhorov_subsets_reference,
    space_with,
    vertex_couplings,
)
from pathlift import (
    Measure,
    PreconditionError,
    dirac,
    kyfan_functional,
    mixture,
    prokhorov,
    prokhorov_coupling,
    prokhorov_subsets,
    validate_space,
)
from pathlift import gen
from pathlift.prokhorov import total_variation

F = Fraction
Z = F(0)


def two_point_space(distance):
    return validate_space(["a", "b"], [[Z, distance], [distance, Z]])


class TestKyfanFunctional:
    def test_diagonal_coupling_is_zero(self):
        space = two_point_space(F(1))
        pi = coupling_from_mass(space, ((F(1, 2), Z), (Z, F(1, 2))))
        assert kyfan_functional(pi) == 0

    def test_all_mass_at_half(self):
        # m(eps) = 1 up to 1/2, then 0; the feasible set is (1/2, inf)
        space = two_point_space(F(1, 2))
        pi = coupling_from_mass(space, ((Z, F(1)), (Z, Z)))
        assert kyfan_functional(pi) == F(1, 2)

    def test_quarter_mass_at_one(self):
        space = two_point_space(F(1))
        pi = coupling_from_mass(space, ((F(1, 2), F(1, 4)), (Z, F(1, 4))))
        assert kyfan_functional(pi) == F(1, 4)


class TestProkhorovCoupling:
    def test_identical_measures(self):
        space = two_point_space(F(1))
        mu = Measure.from_weights(space, (F(1, 3), F(2, 3)))
        value, witness = prokhorov_coupling(mu, mu)
        assert value == 0
        assert kyfan_functional(witness) == 0

    def test_diracs_at_small_distance(self):
        space = two_point_space(F(1, 2))
        assert prokhorov(dirac(space, "a"), dirac(space, "b")) == F(1, 2)

    def test_crossing_masses(self):
        space = two_point_space(F(1))
        mu = Measure.from_weights(space, (F(3, 4), F(1, 4)))
        nu = Measure.from_weights(space, (F(1, 4), F(3, 4)))
        value, witness = prokhorov_coupling(mu, nu)
        assert value == F(1, 2)
        assert witness.row_marginal() == mu
        assert witness.col_marginal() == nu

    def test_space_mismatch(self):
        mu = dirac(two_point_space(F(1)), "a")
        nu = dirac(two_point_space(F(1, 2)), "a")
        with pytest.raises(PreconditionError):
            prokhorov(mu, nu)

    @given(space_with(n_measures=2))
    @settings(max_examples=80)
    def test_witness_attains_value(self, bundle):
        _, mu, nu = bundle
        value, witness = prokhorov_coupling(mu, nu)
        assert kyfan_functional(witness) == value
        assert witness.row_marginal() == mu
        assert witness.col_marginal() == nu


ORACLE_FAMILIES = ["random", "equal", "diracs", "zero weights", "one point", "clustered"]


def oracle_instance(family, m, seed):
    """A pair of measures of the named family on at most m points."""
    rng = random.Random(seed)
    if family == "clustered":
        return clustered_pair(rng, max(1, m // 2))
    space = gen.rand_space(rng, 1 if family == "one point" else m)
    if family == "diracs":
        return dirac(space, rng.choice(space.points)), dirac(space, rng.choice(space.points))
    if family == "zero weights":
        return tuple(sparse_measure(rng, space) for _ in range(2))
    mu = gen.rand_measure(rng, space)
    return mu, mu if family == "equal" else gen.rand_measure(rng, space)


def sparse_measure(rng, space):
    """A measure with weight on a random nonempty subset of the points only."""
    support = rng.sample(range(space.size), rng.randint(1, space.size))
    nums = [rng.randint(1, 6) if i in support else 0 for i in range(space.size)]
    return Measure.reduced(space, sum(nums), nums)


class TestSubsetsOracle:
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_families_match_reference(self, family):
        for seed in range(48):
            mu, nu = oracle_instance(family, 1 + seed % 8, seed)
            value = prokhorov_subsets(mu, nu)
            assert value == prokhorov_subsets_reference(mu, nu) == prokhorov_coupling(mu, nu)[0]

    @given(st.sampled_from(ORACLE_FAMILIES), st.integers(1, 8), st.integers(0, 2**32))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_and_coupling(self, family, m, seed):
        mu, nu = oracle_instance(family, m, seed)
        value = prokhorov_subsets(mu, nu)
        assert value == prokhorov_subsets_reference(mu, nu) == prokhorov_coupling(mu, nu)[0]
        if family == "equal":
            assert value == 0  # every subset is pruned

    def test_identical(self):
        space = two_point_space(F(1))
        mu = Measure.from_weights(space, (F(1, 3), F(2, 3)))
        assert prokhorov_subsets(mu, mu) == 0

    def test_diracs_by_enumeration(self):
        space = two_point_space(F(1, 2))
        assert prokhorov_subsets(dirac(space, "a"), dirac(space, "b")) == F(1, 2)

    def test_guard(self):
        names = [f"p{i}" for i in range(17)]
        d = [[Z if i == j else F(1) for j in range(17)] for i in range(17)]
        space = validate_space(names, d)
        mu = dirac(space, "p0")
        with pytest.raises(PreconditionError, match="oracle"):
            prokhorov_subsets(mu, mu)


class TestStrassenEquality:
    @given(space_with(n_measures=2))
    @settings(max_examples=100, deadline=None)
    def test_two_routes_agree(self, bundle):
        _, mu, nu = bundle
        assert prokhorov(mu, nu) == prokhorov_subsets(mu, nu)

    def test_varied_metrics(self):
        rng = random.Random(20240809)
        for _ in range(120):
            space = gen.rand_space(rng, rng.randint(2, 6))
            mu = gen.rand_measure(rng, space)
            nu = gen.rand_measure(rng, space)
            assert prokhorov(mu, nu) == prokhorov_subsets(mu, nu)


class TestMetricAxioms:
    @given(space_with(n_measures=2))
    @settings(max_examples=60)
    def test_symmetry_and_identity(self, bundle):
        _, mu, nu = bundle
        assert prokhorov(mu, nu) == prokhorov(nu, mu)
        # on the max-flow route: prokhorov itself returns 0 for mu == nu
        # without running it
        assert (prokhorov_coupling(mu, nu)[0] == 0) == (mu == nu)
        assert prokhorov_coupling(mu, mu)[0] == 0

    @given(space_with(n_measures=3))
    @settings(max_examples=60, deadline=None)
    def test_triangle(self, bundle):
        _, mu, nu, pi = bundle
        assert prokhorov(mu, pi) <= prokhorov(mu, nu) + prokhorov(nu, pi)

    @given(space_with(n_measures=2))
    @settings(max_examples=40)
    def test_bounded_by_one(self, bundle):
        _, mu, nu = bundle
        assert prokhorov(mu, nu) <= 1

    def test_dirac_pair_formula(self):
        rng = random.Random(7)
        for _ in range(60):
            space = gen.rand_space(rng, rng.randint(2, 5))
            i, j = rng.sample(range(space.size), 2)
            mu = dirac(space, space.points[i])
            nu = dirac(space, space.points[j])
            expected = min(space.dist[i][j], F(1))
            assert prokhorov(mu, nu) == expected
            assert prokhorov_subsets(mu, nu) == expected


class TestMixtureContraction:
    @given(space_with(n_measures=2), fractions01())
    @settings(max_examples=80)
    def test_contraction(self, bundle, t):
        _, mu, nu = bundle
        assert prokhorov(nu, mixture(nu, mu, t)) <= prokhorov(nu, mu)


class TestVertexCouplings:
    def test_kyfan_never_below_optimum(self):
        rng = random.Random(99)
        for _ in range(25):
            space = gen.rand_space(rng, rng.randint(2, 3))
            mu = gen.rand_measure(rng, space, den=8)
            nu = gen.rand_measure(rng, space, den=8)
            q = prokhorov(mu, nu)
            vertices = vertex_couplings(mu, nu)
            assert vertices
            for mass in vertices:
                assert kyfan_functional(coupling_from_mass(space, mass)) >= q


def random_coupling(rng, space, den):
    """A coupling with about 2m nonzero cells, masses over `den`."""
    m = space.size
    cells = rng.sample(range(m * m), 2 * m)
    cuts = sorted(rng.randint(0, den) for _ in range(len(cells) - 1))
    amounts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    mass = [[Z] * m for _ in range(m)]
    for cell, amount in zip(cells, amounts):
        mass[cell // m][cell % m] = F(amount, den)
    return coupling_from_mass(space, tuple(tuple(row) for row in mass))


class TestLargerSpaces:
    """m = 5..16, beyond the sizes of helpers.metric_spaces: distances
    nearly all distinct, weights over the coprime denominators 7, 9, 11
    and 13, so the common-denominator scaling of the flow is exercised."""

    SIZES = range(5, 17)

    def test_kyfan_matches_bruteforce(self):
        rng = random.Random(5016)
        for m in self.SIZES:
            space = distinct_space(rng, m)
            for den in (7 * 9, 11 * 13, 7 * 11 * 13):
                pi = random_coupling(rng, space, den)
                assert kyfan_functional(pi) == kyfan_bruteforce(pi)
            mu = gen.rand_measure(rng, space, 7 * 11)
            nu = gen.rand_measure(rng, space, 9 * 13)
            value, witness = prokhorov_coupling(mu, nu)
            assert kyfan_bruteforce(witness) == value
            assert witness.row_marginal() == mu
            assert witness.col_marginal() == nu

    def test_coupling_matches_subsets(self):
        # one oracle call takes ~2 ms at m = 12 and ~20 ms at m = 16 on the
        # random pairs, ~0.35 s on the clustered pair at m = 16, where the
        # prune skips only the subsets with no more mu- than nu-points
        # (Python 3.11, 2-core VM)
        rng = random.Random(1657)
        for m in self.SIZES:
            space = distinct_space(rng, m)
            pairs = [(gen.rand_measure(rng, space, a), gen.rand_measure(rng, space, b))
                     for a, b in ((7, 13), (9 * 11, 7 * 13))]
            if m >= 10 and m % 2 == 0:
                pairs.append(clustered_pair(random.Random(m), m // 2))
            for mu, nu in pairs:
                value, witness = prokhorov_coupling(mu, nu)
                assert value == prokhorov_subsets(mu, nu)
                assert kyfan_bruteforce(witness) == value


class TestTotalVariation:
    """q <= TV: every A lies inside A^eps, so the maximal coupling, with
    min(mu_i, nu_i) on the diagonal, meets the Ky Fan condition at TV."""

    def test_diracs(self):
        space = two_point_space(F(1, 10))
        mu, nu = dirac(space, "a"), dirac(space, "b")
        assert total_variation(mu, nu) == 1
        assert total_variation(mu, mu) == 0

    @given(
        st.integers(2, 64),
        st.integers(0, 2**32),
        st.sampled_from([F(1), F(1, 4), F(1, 16)]),
        fractions01(),
    )
    @settings(max_examples=40, deadline=None)
    def test_prokhorov_at_most_total_variation(self, m, seed, scale, share):
        rng = random.Random(seed)
        base = distinct_space(rng, m)
        # scaling a metric keeps it a metric, and moves distances below TV
        space = validate_space(base.points, [[d * scale for d in row] for row in base.dist])
        mu = gen.rand_measure(rng, space, 7 * 11)
        nu = mixture(mu, gen.rand_measure(rng, space, 9 * 13), share)
        tv = sum(abs(a - b) for a, b in zip(mu.weights, nu.weights)) / 2
        assert total_variation(mu, nu) == tv
        assert prokhorov(mu, nu) <= tv
