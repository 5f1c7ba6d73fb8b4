from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import (
    complement,
    coupling_from_mass,
    difference,
    empty,
    fractions01,
    from_pairs,
    full,
    measure,
    oracle_canonical,
    oracle_cells,
    oracle_joint,
    oracle_law,
    oracle_realize,
    oracle_transfer,
    rv_from_blocks,
    space_with,
)
from pathlift import (
    LiftedPath,
    Measure,
    PreconditionError,
    SegmentLift,
    SimpleRandomVariable,
    canonical_rv,
    dirac,
    joint_coupling,
    kyfan_rho,
    law,
    match_to_law,
    prokhorov,
    prokhorov_coupling,
    realize_coupling,
    validate_space,
)
from pathlift.selftest import rho_scan_oracle
from pathlift.serialize import rv_from_blocks_obj

F = Fraction
Z = F(0)


def two_point_space(distance):
    return validate_space(["a", "b"], [[Z, distance], [distance, Z]])


def iset(*pairs):
    return from_pairs([(F(a), F(b)) for a, b in pairs])


class TestConstruction:
    def test_blocks_must_partition(self):
        space = two_point_space(F(1))
        for blocks in ({"a": [["0/1", "1/2"]], "b": [["0/1", "1/2"]]}, {"a": [["0/1", "1/2"]]}):
            with pytest.raises(PreconditionError, match="must partition"):
                rv_from_blocks_obj(space, blocks)

    @pytest.mark.parametrize(
        "den, cuts, labels",
        [
            (4, (1, 4), (0,)),
            (2, (0, 1), (0,)),
            (2, (0, 1, 1, 2), (0, 1, 0)),
            (4, (0, 3, 2, 4), (0, 1, 0)),
            (2, (0, 1, 2), (0, 2)),
            (2, (0, 1, 2), (-1, 0)),
            (2, (0, 1, 2), (1, 1)),
            (2, (0, 1, 2), (0,)),
            (4, (0, 2, 4), (0, 1)),
        ],
        ids=[
            "start-not-0",
            "end-not-1",
            "repeated-cut",
            "decreasing-cut",
            "label-too-large",
            "label-negative",
            "equal-adjacent-labels",
            "label-count",
            "not-lowest-terms",
        ],
    )
    def test_slab_contract(self, den, cuts, labels):
        with pytest.raises(PreconditionError):
            SimpleRandomVariable(two_point_space(F(1)), den, cuts, labels)

    def test_slabs_and_blocks_agree(self):
        space = two_point_space(F(1))
        x = SimpleRandomVariable(space, 4, (0, 1, 2, 4), (1, 0, 1))
        assert x.blocks == (iset((F(1, 4), F(1, 2))), iset((0, F(1, 4)), (F(1, 2), 1)))
        assert rv_from_blocks(space, x.blocks) == x

    def test_from_slabs_divides_out_the_gcd(self):
        space = two_point_space(F(1))
        x = SimpleRandomVariable.from_slabs(space, 4, [(1, 1), (2, 1), (4, 0)])
        y = SimpleRandomVariable.from_slabs(space, 2, [(1, 1), (2, 0)])
        assert x == y
        assert (x.den, x.cuts, x.labels) == (2, (0, 1, 2), (1, 0))
        assert x.blocks == y.blocks == (iset((F(1, 2), 1)), iset((0, F(1, 2))))

    def test_empty_blocks_allowed(self):
        space = two_point_space(F(1))
        x = rv_from_blocks_obj(space, {"a": [["0/1", "1/1"]], "b": []})
        assert x == rv_from_blocks(space, (full(), empty()))
        assert law(x) == dirac(space, "a")


class TestLaw:
    def test_constant_variable(self):
        space = two_point_space(F(1))
        assert law(canonical_rv(dirac(space, "a"))) == dirac(space, "a")

    def test_block_measures(self):
        space = two_point_space(F(1))
        x = rv_from_blocks(space, (iset((0, F(3, 4))), iset((F(3, 4), 1))))
        assert law(x).weights == (F(3, 4), F(1, 4))

    def test_invariant_under_relabeling(self):
        space = two_point_space(F(1))
        first = iset((0, F(1, 4)), (F(1, 2), F(3, 4)))
        rest = complement(first)
        # build the same sets through different boolean expressions
        rebuilt = difference(full(), rest)
        assert rebuilt == first
        x = rv_from_blocks(space, (first, rest))
        y = rv_from_blocks(space, (rebuilt, difference(full(), first)))
        assert x == y
        assert law(x) == law(y)


class TestKyfanRho:
    def test_self_distance(self):
        space = two_point_space(F(1))
        x = canonical_rv(Measure.from_weights(space, (F(1, 3), F(2, 3))))
        assert kyfan_rho(x, x) == 0

    def test_quarter_disagreement(self):
        space = two_point_space(F(1))
        x = canonical_rv(dirac(space, "a"))
        y = rv_from_blocks(space, (iset((F(1, 4), 1)), iset((0, F(1, 4)))))
        assert kyfan_rho(x, y) == F(1, 4)

    def test_total_disagreement_small_distance(self):
        space = two_point_space(F(1, 2))
        x = canonical_rv(dirac(space, "a"))
        y = canonical_rv(dirac(space, "b"))
        assert kyfan_rho(x, y) == F(1, 2)

    @given(space_with(n_rvs=2))
    @settings(max_examples=60)
    def test_matches_scan_oracle(self, bundle):
        _, x, y = bundle
        assert kyfan_rho(x, y) == rho_scan_oracle(x, y)

    @given(space_with(n_rvs=3))
    @settings(max_examples=40, deadline=None)
    def test_metric_axioms(self, bundle):
        _, x, y, z = bundle
        assert kyfan_rho(x, y) == kyfan_rho(y, x)
        # null discrepancies are empty here, so a.s. equality is equality
        assert (kyfan_rho(x, y) == 0) == (x == y)
        assert kyfan_rho(x, z) <= kyfan_rho(x, y) + kyfan_rho(y, z)

    @given(space_with(n_rvs=2))
    @settings(max_examples=60)
    def test_law_distance_below_rho(self, bundle):
        _, x, y = bundle
        assert prokhorov(law(x), law(y)) <= kyfan_rho(x, y)


class TestRealizeCoupling:
    def test_identity_coupling(self):
        space = two_point_space(F(1))
        x = canonical_rv(Measure.from_weights(space, (F(1, 2), F(1, 2))))
        pi = joint_coupling(x, x)
        assert realize_coupling(x, pi) == x

    def test_even_split_of_constant(self):
        space = two_point_space(F(1))
        x = canonical_rv(dirac(space, "a"))
        pi = coupling_from_mass(space, ((F(1, 2), F(1, 2)), (Z, Z)))
        y = realize_coupling(x, pi)
        assert y.blocks == (iset((0, F(1, 2))), iset((F(1, 2), 1)))

    def test_marginal_mismatch(self):
        space = two_point_space(F(1))
        x = canonical_rv(dirac(space, "a"))
        pi = coupling_from_mass(space, ((F(1, 2), Z), (Z, F(1, 2))))
        with pytest.raises(PreconditionError):
            realize_coupling(x, pi)

    @given(space_with(n_rvs=2))
    @settings(max_examples=60)
    def test_joint_mass_reproduced(self, bundle):
        _, x, y = bundle
        pi = joint_coupling(x, y)
        rebuilt = realize_coupling(x, pi)
        assert joint_coupling(x, rebuilt).mass == pi.mass
        assert law(rebuilt) == law(y)


class TestMatchToLaw:
    def test_match_own_law_is_identity(self):
        space = two_point_space(F(1))
        x = canonical_rv(Measure.from_weights(space, (F(2, 3), F(1, 3))))
        y = match_to_law(x, law(x))
        assert kyfan_rho(x, y) == 0
        assert y == x

    def test_constant_to_even(self):
        space = two_point_space(F(1))
        x = canonical_rv(dirac(space, "a"))
        nu = Measure.from_weights(space, (F(1, 2), F(1, 2)))
        y = match_to_law(x, nu)
        assert y.blocks == (iset((0, F(1, 2))), iset((F(1, 2), 1)))
        assert kyfan_rho(x, y) == F(1, 2) == prokhorov(law(x), nu)

    @given(space_with(n_measures=1, n_rvs=1))
    @settings(max_examples=60, deadline=None)
    def test_optimality(self, bundle):
        _, nu, x = bundle
        y = match_to_law(x, nu)
        assert law(y) == nu
        assert kyfan_rho(x, y) == prokhorov(law(x), nu)


class TestCanonicalRv:
    def test_dirac(self):
        space = two_point_space(F(1))
        assert canonical_rv(dirac(space, "a")).blocks == (
            full(),
            empty(),
        )

    def test_slab_order(self):
        space = validate_space(
            ["a", "b", "c"],
            [
                [Z, F(1), F(1)],
                [F(1), Z, F(1)],
                [F(1), F(1), Z],
            ],
        )
        nu = Measure.from_weights(space, (F(1, 2), F(1, 4), F(1, 4)))
        assert canonical_rv(nu).blocks == (
            iset((0, F(1, 2))),
            iset((F(1, 2), F(3, 4))),
            iset((F(3, 4), 1)),
        )

    @given(space_with(n_measures=1))
    def test_law_round_trip(self, bundle):
        _, nu = bundle
        assert law(canonical_rv(nu)) == nu


SLAB_BUNDLES = space_with(n_measures=1, n_rvs=2, max_size=6, max_slabs=12)


class TestSlabsAgainstBlockOracle:
    """Every slab walk gives the blocks the IntervalSet algebra gives."""

    @given(SLAB_BUNDLES)
    @settings(max_examples=80, deadline=None)
    def test_law_joint_coupling_and_blocks(self, bundle):
        space, _, x, y = bundle
        assert law(x).weights == oracle_law(x)
        assert joint_coupling(x, y).mass == oracle_joint(x, y)
        assert rv_from_blocks(space, x.blocks) == x

    @given(SLAB_BUNDLES, fractions01(max_den=60))
    @settings(max_examples=60, deadline=None)
    def test_segment_eval(self, bundle, r):
        _, _, x, y = bundle
        seg = SegmentLift(x, y)
        times = {Z, F(1), r} | {F(c, x.den) for c in x.cuts} | {F(c, y.den) for c in y.cuts}
        # times at which a cell's moved mass reaches one of its piece ends
        for row in oracle_cells(x, y):
            for cell in row:
                reached = Z
                for lo, hi in cell.intervals:
                    reached += hi - lo
                    times.add(reached / measure(cell))
        for t in times:
            assert seg.eval(t).blocks == oracle_transfer(x, y, t)
        shifted = LiftedPath(x.space, (Z, F(1, 3), F(1)), (x, x, y))
        assert shifted.eval(F(1, 3) + r * F(2, 3)).blocks == oracle_transfer(x, y, r)

    @given(SLAB_BUNDLES)
    @settings(max_examples=80, deadline=None)
    def test_realize_coupling(self, bundle):
        _, nu, x, y = bundle
        for pi in (joint_coupling(x, y), prokhorov_coupling(law(x), nu)[1]):
            assert realize_coupling(x, pi).blocks == oracle_realize(x, pi)

    @given(SLAB_BUNDLES)
    @settings(max_examples=80, deadline=None)
    def test_canonical_rv(self, bundle):
        _, nu, _, _ = bundle
        assert canonical_rv(nu).blocks == oracle_canonical(nu)
