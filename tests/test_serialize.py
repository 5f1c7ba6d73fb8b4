import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    complement,
    interval_sets,
    intervals_to_obj,
    rv_from_blocks_obj_oracle,
    space_with,
    weights_from_obj_oracle,
)
from pathlift import (
    Measure,
    PolygonalPath,
    PreconditionError,
    SampledPath,
    canonical_rv,
    dirac,
    law,
    lift_polygonal,
    validate_space,
)
from pathlift import gen
from pathlift.lifting import verify_lift
from pathlift.serialize import (
    blocks_to_obj,
    certificate_to_obj,
    dumps,
    frac_str,
    lift_from_obj,
    lift_to_obj,
    measure_from_obj,
    measure_to_obj,
    parse_frac,
    path_from_obj,
    polygonal_to_obj,
    ratio_str,
    rv_from_blocks_obj,
    rv_from_obj,
    rv_to_obj,
    sampled_to_obj,
    space_from_obj,
    space_to_obj,
    weights_from_obj,
    weights_to_obj,
)
from pathlift import serialize

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

    def test_past_the_digit_limit_is_a_precondition(self):
        huge = 10**5000 + 1
        for write in (lambda: frac_str(F(1, huge)), lambda: ratio_str(2, 2 * huge)):
            with pytest.raises(PreconditionError, match="^result has too many digits to write$"):
                write()

    def test_rejects_floats_and_garbage(self):
        for bad in ("0.5", "1", "a/b", "1/0", 1, None, "1/2/3"):
            with pytest.raises(PreconditionError):
                parse_frac(bad)

    @pytest.mark.parametrize(
        "text", ["1/2\n", "\u0661/\u0662", "\uff11/\uff12", " 1/2", "+1/2"],
        ids=["trailing-newline", "arabic-indic-digits", "fullwidth-digits", "space", "plus"],
    )
    def test_only_ascii_digits_and_the_whole_string(self, text):
        with pytest.raises(PreconditionError) as got:
            parse_frac(text)
        assert str(got.value) == f'rational expected as "p/q" string, got {text!r}'


TWO_POINTS = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])


class TestIntervalSets:
    @given(interval_sets())
    def test_round_trip(self, s):
        blocks = {"a": intervals_to_obj(s), "b": intervals_to_obj(complement(s))}
        assert rv_from_blocks_obj(TWO_POINTS, blocks).blocks == (s, complement(s))

    def test_normalizes_on_read(self):
        obj = {"a": [["1/2", "3/4"], ["0/1", "1/2"]], "b": [["3/4", "1/1"]]}
        x = rv_from_blocks_obj(TWO_POINTS, obj)
        assert x.blocks[0].intervals == ((Z, F(3, 4)),)
        assert (x.den, x.cuts, x.labels) == (4, (0, 3, 4), (0, 1))


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


BLOCK_MUTATIONS = (
    "escape", "overlap", "gap", "malformed entry", "bad rational", "not a list",
    "missing point", "unknown point",
)
WEIGHT_MUTATIONS = ("negative weight", "mis-summed", "bad weight", "weights not a list")


def k_fold(rng, x):
    """x as "p/q" over a k-fold denominator, such as "2/4"."""
    k = rng.randint(1, 3)
    return f"{x.numerator * k}/{x.denominator * k}"


@st.composite
def block_documents(draw):
    """(mutations, space, blocks, weights): a variable's blocks and a weight
    list as files may write them.  Pairs are shuffled, a slab may be cut
    into two pieces that overlap or touch, empty pairs (some outside
    [0, 1)) are mixed in, and every end is over a k-fold denominator.
    Then up to two mutations, each of which may make a document invalid."""
    mutations = draw(st.lists(st.sampled_from(BLOCK_MUTATIONS + WEIGHT_MUTATIONS),
                              max_size=2, unique=True))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = rng.randint(1, 5)
    points = [f"p{n}" for n in range(m)]
    space = validate_space(points, [[F(int(i != j)) for j in range(m)] for i in range(m)])
    den = rng.randint(1, 24)
    cuts = [0, *sorted(rng.sample(range(1, den), min(den - 1, rng.randint(0, 6)))), den]
    slabs = [(F(lo, den), F(hi, den), rng.choice(points)) for lo, hi in zip(cuts, cuts[1:])]
    entries = []  # (point, [left, right], slab index or None)
    for k, (lo, hi, point) in enumerate(slabs):
        mid = lo + (hi - lo) * F(rng.randint(1, 3), 4)
        back = (mid - lo) * F(rng.randint(0, 2), 4)
        pieces = [(lo, hi)] if rng.random() < 0.5 else [(lo, mid), (mid - back, hi)]
        entries += [(point, [k_fold(rng, a), k_fold(rng, b)], k) for a, b in pieces]
    for _ in range(rng.randint(0, 2)):
        a = F(rng.randint(-4, 8), 4)
        b = a - F(rng.randint(0, 2), 4)
        entries.append((rng.choice(points), [k_fold(rng, a), k_fold(rng, b)], None))
    k = rng.randrange(len(entries))
    if "escape" in mutations:
        entries.append((rng.choice(points), rng.choice([["-1/4", "1/4"], ["3/4", "5/4"]]), None))
    if "overlap" in mutations:
        lo, hi, point = rng.choice(slabs)
        other = rng.choice([p for p in points if p != point] or points)
        entries.append((other, [k_fold(rng, lo), k_fold(rng, (lo + hi) / 2)], None))
    if "gap" in mutations:
        gone = rng.randrange(len(slabs))
        entries = [e for e in entries if e[2] != gone]
    if "malformed entry" in mutations and entries:
        entries[k % len(entries)] = (entries[k % len(entries)][0], rng.choice(
            [["1/2"], "1/2", ["0/1", "1/2", "1/1"], None, 5]), None)
    if "bad rational" in mutations and entries:
        point, pair, _ = entries[k % len(entries)]
        if isinstance(pair, list) and len(pair) == 2:
            pair[rng.randrange(2)] = rng.choice(["1/0", "0.5", 1, None, "a/b", " 1/2"])
    rng.shuffle(entries)
    blocks = {point: [] for point in points}
    for point, pair, _ in entries:
        blocks[point].append(pair)
    if "not a list" in mutations:
        blocks[rng.choice(points)] = rng.choice([{"0/1": "1/1"}, "0/1", 1])
    if "missing point" in mutations:
        del blocks[rng.choice(points)]
    if "unknown point" in mutations:
        blocks[rng.choice(["zz", "p9"])] = []
    nums = [0, *sorted(rng.randint(0, den) for _ in range(m - 1)), den]
    weights = [F(hi - lo, den) for lo, hi in zip(nums, nums[1:])]
    i, j = rng.randrange(m), rng.randrange(m)
    if "negative weight" in mutations and i != j:
        shift = weights[i] + F(1, rng.randint(1, 9))
        weights[i] -= shift
        weights[j] += shift
    if "mis-summed" in mutations:
        weights[i] += F(rng.choice([-1, 1]), rng.randint(2, 9))
    weights = [k_fold(rng, w) for w in weights]
    if "bad weight" in mutations:
        weights[j] = rng.choice(["1/0", "0.5", 1, None, "a/b"])
    if "weights not a list" in mutations:
        weights = {"p0": weights[0]}
    return mutations, space, blocks, weights


def read_alike(read, oracle, space, obj, fields) -> bool:
    """Whether obj is valid, asserting that read gives the oracle's fields
    or raises the oracle's error text."""
    try:
        expected = oracle(space, obj)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as got:
            read(space, obj)
        assert str(got.value) == str(exc)
        return False
    value = read(space, obj)
    assert [getattr(value, f) for f in fields] == [getattr(expected, f) for f in fields]
    return True


class TestBlocksAndWeightsReader:
    @settings(max_examples=300, deadline=None)
    @given(block_documents())
    def test_integer_reader_matches_the_fraction_route(self, drawn):
        mutations, space, blocks, weights = drawn
        valid = read_alike(rv_from_blocks_obj, rv_from_blocks_obj_oracle, space, blocks,
                           ("den", "cuts", "labels"))
        assert valid or set(mutations) & set(BLOCK_MUTATIONS)
        valid = read_alike(weights_from_obj, weights_from_obj_oracle, space, weights,
                           ("den", "nums"))
        assert valid or set(mutations) & set(WEIGHT_MUTATIONS)

    @pytest.mark.parametrize(
        "blocks, error",
        [
            ({"zz": 5, "a": [["1/0", "1/1"]]}, "blocks name unknown points ['zz']"),
            ({"a": [["0/1", "3/2"]], "b": [["x", "1/1"]]}, "interval [0, 3/2) escapes [0, 1)"),
            ({"a": [["0/1", "3/2"], ["1/0", "1/1"]]}, "zero denominator in '1/0'"),
            ({"a": [["0/1", "3/2"], "0/1"]}, "bad interval entry '0/1'"),
            ({"a": [["-1/2", "1/2"]], "b": [["1/2", "3/2"]]},
             "interval [-1/2, 1/2) escapes [0, 1)"),
            ({"a": [["3/2", "3/2"], ["2/1", "-1/1"]], "b": [["0/1", "1/1"]]}, None),
            ({"a": [["0/1", "1/2"]], "b": [["1/4", "1/1"]]},
             "blocks must partition [0, 1) exactly"),
        ],
        ids=["unknown-first", "point-order", "parse-before-escape", "shape-before-escape",
             "first-escape", "empty-pairs-dropped", "cross-point-overlap"],
    )
    def test_error_precedence(self, blocks, error):
        if error is None:
            assert rv_from_blocks_obj(TWO_POINTS, blocks).labels == (1,)
        else:
            with pytest.raises(PreconditionError) as got:
                rv_from_blocks_obj(TWO_POINTS, blocks)
            assert str(got.value) == error

    def test_reading_builds_no_fraction(self, monkeypatch):
        x = canonical_rv(gen.rand_measure(random.Random(9), TWO_POINTS))
        doc = {**rv_to_obj(x), "weights": weights_to_obj(law(x))}

        def no_fraction(*args):
            raise AssertionError("the reader built a Fraction")

        monkeypatch.setattr(serialize, "Fraction", no_fraction)
        assert rv_from_obj(doc) == x
        assert measure_from_obj(doc) == law(x)


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
        rebuilt = path_from_obj(sampled_to_obj(alpha))
        assert isinstance(rebuilt, SampledPath)
        assert rebuilt.lipschitz == alpha.lipschitz
        for k in range(9):
            t = F(k, 8)
            assert rebuilt.eval(t) == alpha.eval(t)

    @pytest.mark.parametrize("table", ["samples", "breakpoints"])
    def test_sampled_document_goes_through_from_polygonal(self, table, monkeypatch):
        """The path of a sampled document is from_polygonal of its table, so
        its backbone is the table polygonal and its values are the table's."""
        beta = gen.rand_polygonal(random.Random(3), TWO_POINTS, 3)
        doc = sampled_to_obj(SampledPath.from_polygonal(beta, F(9)))
        if table == "breakpoints":
            del doc["samples"]
            doc.update(breakpoints=polygonal_to_obj(beta)["breakpoints"],
                       vertices=polygonal_to_obj(beta)["vertices"])
        wrapped, original = [], SampledPath.from_polygonal.__func__
        monkeypatch.setattr(SampledPath, "from_polygonal", classmethod(
            lambda cls, *args: wrapped.append(args) or original(cls, *args)))
        alpha = path_from_obj(doc)
        assert wrapped == [(beta, F(9))]
        assert alpha.backbone == beta and alpha.fn == alpha.backbone.eval

    def test_sampled_path_needs_a_backbone_to_be_written(self):
        beta = gen.rand_polygonal(random.Random(3), TWO_POINTS, 3)
        with pytest.raises(PreconditionError) as got:
            sampled_to_obj(SampledPath(TWO_POINTS, beta.eval, F(9)))
        assert str(got.value) == "sampled path has no polygonal backbone"

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

    def test_written_lift_reads_each_vertex_once(self, monkeypatch):
        rng = random.Random(6)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 6)
        lift = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        calls = []

        def counting(space, obj):
            calls.append(obj)
            return rv_from_blocks_obj(space, obj)

        monkeypatch.setattr(serialize, "rv_from_blocks_obj", counting)
        assert lift_from_obj(lift_to_obj(lift)) == lift
        assert len(calls) == len(lift.vertices)

    def test_vertex_written_in_other_text_is_still_shared(self):
        half = Measure.from_weights(TWO_POINTS, (F(1, 2), F(1, 2)))
        beta = PolygonalPath(TWO_POINTS, (Z, F(1, 2), F(1)), (half, half, half))
        lift = lift_polygonal(beta, canonical_rv(half), canonical_rv(half))
        doc = lift_to_obj(lift)
        assert doc["segments"][0]["y"] == {"a": [["0/1", "1/2"]], "b": [["1/2", "1/1"]]}
        doc["segments"][1]["x"] = {"a": [["0/1", "2/4"]], "b": [["2/4", "1/1"]]}
        assert lift_from_obj(doc) == lift

    # x_0 = dirac a; an edit (k, key, value) sets segments[k][key], DROP deletes it
    DROP = object()
    DIRAC_A = {"a": [["0/1", "1/1"]]}

    @pytest.mark.parametrize(
        "edits, error",
        [
            (None, "a lifted path needs at least one segment"),
            ([(0, "a", "1/8")], "lifted path must cover [0, 1]"),
            ([(2, "b", "3/4")], "lifted path must cover [0, 1]"),
            ([(1, "a", "3/8")], "segments must tile [0, 1] contiguously"),
            ([(0, "y", DIRAC_A)], "consecutive segments must share their vertex"),
            ([(0, "a", "1/8"), (1, "a", "3/8")], "lifted path must cover [0, 1]"),
            ([(0, "y", DIRAC_A), (2, "a", "5/8")], "consecutive segments must share their vertex"),
            ([(1, "a", "3/8"), (2, "x", DIRAC_A)], "segments must tile [0, 1] contiguously"),
            ([(1, "a", "3/8"), (1, "x", DIRAC_A)], "segments must tile [0, 1] contiguously"),
            ([(1, "a", "1/2")], "empty segment [1/2, 1/2]"),
            ([(0, "a", "1/8"), (2, "a", "1/1")], "empty segment [1, 1]"),
            ([(0, "a", "1/2"), (1, "x", DROP)], "empty segment [1/2, 1/4]"),
            ([(0, "y", DROP), (1, "a", "1/2")], 'segments[0] has no "y"'),
            ([(0, "a", "1/2"), (0, "y", {"zz": []})], "blocks name unknown points ['zz']"),
        ],
        ids=["no-segments", "first-a", "last-b", "gap", "vertex", "cover-before-gap",
             "vertex-before-later-gap", "gap-before-later-vertex", "gap-before-vertex",
             "empty-before-gap", "empty-before-cover", "empty-before-later-shape",
             "shape-before-later-empty", "blocks-before-empty"],
    )
    def test_reader_error_precedence(self, edits, error):
        """Per segment its shape, then its blocks, then a < b; then the
        path: at least one segment, the cover, and for each consecutive
        pair contiguity before the shared vertex."""
        a, b = dirac(TWO_POINTS, "a"), dirac(TWO_POINTS, "b")
        half = Measure.from_weights(TWO_POINTS, (F(1, 2), F(1, 2)))
        beta = PolygonalPath(TWO_POINTS, (Z, F(1, 4), F(1, 2), F(1)), (a, half, b, half))
        doc = lift_to_obj(lift_polygonal(beta, canonical_rv(a), canonical_rv(half)))
        assert lift_from_obj(doc).law_path() == beta
        segments = [dict(seg) for seg in doc["segments"]]
        for k, key, value in edits or ():
            if value is self.DROP:
                del segments[k][key]
            else:
                segments[k][key] = value
        with pytest.raises(PreconditionError) as got:
            lift_from_obj({**doc, "segments": segments if edits else []})
        assert str(got.value) == error


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

    @settings(max_examples=100, deadline=None)
    @given(
        st.recursive(
            st.text() | st.integers() | st.booleans() | st.none(),
            lambda children: st.lists(children)
            | st.lists(children).map(tuple)
            | st.dictionaries(st.text(), children),
            max_leaves=30,
        )
    )
    def test_dumps_is_json_indent_2(self, value):
        """Strings with any characters, ints, bools, None, and empty or
        nested lists, tuples and dicts give json's indent-2 text."""
        assert dumps(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("key", [1, True, None, 1.5])
    def test_dumps_refuses_a_key_that_is_not_a_string(self, key):
        """json would write such a key as a string; reports never hold one,
        so dumps raises TypeError instead."""
        with pytest.raises(TypeError):
            dumps({"ok": [{key: "1/2"}]})

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
