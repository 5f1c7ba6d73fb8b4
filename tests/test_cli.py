import contextlib
import copy
import functools
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathlift import canonical_rv, dirac, lift_polygonal, validate_space
from pathlift import cli, gen, lifting
from pathlift.cli import build_parser, main
from pathlift.lifting import PolygonalPath, SampledPath
from pathlift.serialize import (
    SPACES_READ,
    blocks_to_obj,
    dumps,
    lift_to_obj,
    measure_to_obj,
    polygonal_to_obj,
    sampled_to_obj,
    space_from_obj,
    space_to_obj,
    weights_to_obj,
)

F = Fraction
Z = F(0)


def write(path, obj):
    path.write_text(dumps(obj))
    return str(path)


@pytest.fixture
def crossing_pair(tmp_path):
    space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
    from pathlift import Measure

    mu = Measure.from_weights(space, (F(3, 4), F(1, 4)))
    nu = Measure.from_weights(space, (F(1, 4), F(3, 4)))
    mu_file = write(tmp_path / "mu.json", measure_to_obj(mu))
    nu_file = write(tmp_path / "nu.json", measure_to_obj(nu))
    return space, mu, nu, mu_file, nu_file


class TestProkhorovCommand:
    def test_identical_measures(self, tmp_path, crossing_pair, capsys):
        _, mu, _, mu_file, _ = crossing_pair
        assert main(["prokhorov", mu_file, mu_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q_coupling"] == "0/1"
        assert doc["q_subsets"] == "0/1"
        assert doc["equal"] is True

    def test_hand_instance(self, crossing_pair, capsys):
        _, _, _, mu_file, nu_file = crossing_pair
        assert main(["prokhorov", mu_file, nu_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q_coupling"] == "1/2"
        assert doc["q_subsets"] == "1/2"
        assert doc["equal"] is True

    def test_oracle_disabled_above_sixteen_points(self, tmp_path, capsys):
        names = [f"p{i:02d}" for i in range(17)]
        d = [[Z if i == j else F(1) for j in range(17)] for i in range(17)]
        space = validate_space(names, d)
        mu = dirac(space, "p00")
        mu_file = write(tmp_path / "big.json", measure_to_obj(mu))
        assert main(["prokhorov", mu_file, mu_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q_subsets"] is None
        assert "disabled" in doc["subsets_note"]

    def test_parse_error_points_to_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "space": ,\n}\n')
        assert main(["prokhorov", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.json:2" in err

    @pytest.mark.parametrize(
        "content, reason",
        [(b'{"space": "\xff\xfe"}', "codec can't decode"), (b"[" * 100000, "recursion depth")],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_unreadable_json_exit_two(self, tmp_path, capsys, content, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["prokhorov", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and reason in err

    def test_space_mismatch_is_precondition(self, tmp_path, crossing_pair, capsys):
        _, mu, _, mu_file, _ = crossing_pair
        other_space = validate_space(["a", "b"], [[Z, F(1, 2)], [F(1, 2), Z]])
        other = write(tmp_path / "other.json", measure_to_obj(dirac(other_space, "a")))
        assert main(["prokhorov", mu_file, other]) == 2


class TestKyfanAndMatch:
    def test_kyfan(self, tmp_path, capsys):
        space = validate_space(["a", "b"], [[Z, F(1, 2)], [F(1, 2), Z]])
        x = canonical_rv(dirac(space, "a"))
        y = canonical_rv(dirac(space, "b"))
        xf = write(tmp_path / "x.json", {"space": space_to_obj(space), "blocks": blocks_to_obj(x)})
        yf = write(tmp_path / "y.json", {"space": space_to_obj(space), "blocks": blocks_to_obj(y)})
        assert main(["kyfan", xf, yf]) == 0
        assert json.loads(capsys.readouterr().out)["rho"] == "1/2"

    def test_match(self, tmp_path, crossing_pair, capsys):
        space, mu, nu, _, nu_file = crossing_pair
        x = canonical_rv(mu)
        xf = write(tmp_path / "x.json", {"space": space_to_obj(space), "blocks": blocks_to_obj(x)})
        assert main(["match", xf, nu_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rho"] == "1/2"
        assert doc["law_matched"] is True


class TestSegmentCommand:
    def test_certificate_zero_gap(self, tmp_path, capsys):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        x = canonical_rv(dirac(space, "a"))
        y = canonical_rv(dirac(space, "b"))
        xf = write(tmp_path / "x.json", {"space": space_to_obj(space), "blocks": blocks_to_obj(x)})
        yf = write(tmp_path / "y.json", {"space": space_to_obj(space), "blocks": blocks_to_obj(y)})
        assert main(["segment", xf, yf, "--grid", "9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["max_law_gap"] == "0/1"
        assert doc["certificate"]["endpoint_ok"] == [True, True]


class TestLiftCommand:
    def _endpoint_file(self, tmp_path, space, start, end):
        return write(
            tmp_path / "ends.json",
            {
                "space": space_to_obj(space),
                "start": blocks_to_obj(start),
                "end": blocks_to_obj(end),
            },
        )

    def test_polygonal_lift_exact(self, tmp_path, capsys):
        rng = random.Random(61)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 4)
        start = canonical_rv(beta.vertices[0])
        end = canonical_rv(beta.vertices[-1])
        pf = write(tmp_path / "path.json", polygonal_to_obj(beta))
        ef = self._endpoint_file(tmp_path, space, start, end)
        out = tmp_path / "lift.json"
        assert main(["lift", pf, ef, "--grid", "17", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["max_law_gap"] == "0/1"
        assert doc["certificate"]["endpoint_ok"] == [True, True]

    def test_sampled_lift_with_budgets(self, tmp_path, capsys):
        rng = random.Random(62)
        space = gen.rand_space(rng, 3)
        alpha = gen.rand_sampled(rng, space)
        pf = write(tmp_path / "path.json", sampled_to_obj(alpha))
        start = canonical_rv(alpha.eval(Z))
        end = canonical_rv(alpha.eval(F(1)))
        ef = self._endpoint_file(tmp_path, space, start, end)
        out = tmp_path / "lift.json"
        code = main(
            ["lift", pf, ef, "--tol", "1/25", "--iters", "3", "--grid", "17", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        cert = doc["certificate"]
        assert len(cert["decay_table"]) == 2
        assert cert["endpoint_ok"] == [True, True]

    def test_sampled_grid_one_exits_before_any_round(self, tmp_path, capsys, monkeypatch):
        rng = random.Random(62)
        space = gen.rand_space(rng, 3)
        alpha = gen.rand_sampled(rng, space)
        pf = write(tmp_path / "path.json", sampled_to_obj(alpha))
        ef = self._endpoint_file(
            tmp_path, space, canonical_rv(alpha.eval(Z)), canonical_rv(alpha.eval(F(1)))
        )

        def no_rounds(*args, **kwargs):
            raise AssertionError("approximate_polygonal ran before the grid check")

        monkeypatch.setattr(lifting, "approximate_polygonal", no_rounds)
        assert main(["lift", pf, ef, "--grid", "1"]) == 2
        assert capsys.readouterr().err == "error: grid needs at least 2 points\n"

    def test_lift_laws_and_target_share_one_space(self, tmp_path, capsys, monkeypatch):
        # both files carry the same space document, so they share one space object
        rng = random.Random(67)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 3)
        start, end = canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        pf = write(tmp_path / "path.json", polygonal_to_obj(beta))
        ef = self._endpoint_file(tmp_path, space, start, end)
        seen = []
        verify = cli.verify_lift

        def spy(lift, target, **kwargs):
            seen.append((lift, target))
            return verify(lift, target, **kwargs)

        monkeypatch.setattr(cli, "verify_lift", spy)
        assert main(["lift", pf, ef, "--grid", "9"]) == 0
        (lift, target), = seen
        assert lift.space is target.space
        assert all(v.space is target.space for v in target.vertices)
        assert all(s.x.space is target.space for s in lift.segments)

    def test_endpoint_mismatch_exit_two(self, tmp_path, capsys):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        beta = PolygonalPath(space, (Z, F(1)), (dirac(space, "a"), dirac(space, "b")))
        x = canonical_rv(dirac(space, "a"))
        pf = write(tmp_path / "path.json", polygonal_to_obj(beta))
        ef = self._endpoint_file(tmp_path, space, x, x)
        assert main(["lift", pf, ef]) == 2
        assert "endpoint law" in capsys.readouterr().err

    def test_lipschitz_too_small_exit_two(self, tmp_path, capsys):
        space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
        beta = PolygonalPath(space, (Z, F(1)), (dirac(space, "a"), dirac(space, "b")))
        doc = polygonal_to_obj(beta)
        doc["kind"] = "sampled"
        doc["lipschitz"] = "1/10"
        pf = write(tmp_path / "path.json", doc)
        start = canonical_rv(dirac(space, "a"))
        end = canonical_rv(dirac(space, "b"))
        ef = self._endpoint_file(tmp_path, space, start, end)
        assert main(["lift", pf, ef, "--tol", "1/4", "--iters", "2"]) == 2
        assert "Lipschitz" in capsys.readouterr().err


class TestVerifyAndRelift:
    def test_verify_round_trip_idempotent(self, tmp_path, capsys):
        rng = random.Random(63)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 3)
        lift = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        lf = write(tmp_path / "lift.json", lift_to_obj(lift))
        pf = write(tmp_path / "path.json", polygonal_to_obj(beta))
        assert main(["verify", lf, pf, "--grid", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", lf, pf, "--grid", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_relift_within_budget(self, tmp_path, capsys):
        rng = random.Random(64)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 3)
        lift = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        lf = write(tmp_path / "lift.json", lift_to_obj(lift))
        pf = write(tmp_path / "path.json", polygonal_to_obj(beta))
        assert main(["relift", lf, pf, "--tol", "1/4", "--grid", "9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["max_law_gap"] == "0/1"


class TestParserOnce:
    def test_two_calls_share_the_parser_and_no_state(self, tmp_path, capsys):
        rng = random.Random(65)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 3)
        start, end = canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        pf = write(tmp_path / "path.json", polygonal_to_obj(beta))
        ends = {"space": space_to_obj(space), "start": blocks_to_obj(start), "end": blocks_to_obj(end)}
        ef = write(tmp_path / "ends.json", ends)
        out = tmp_path / "lift.json"
        build_parser.cache_clear()
        assert main(["lift", pf, ef, "--grid", "9", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["certificate"]["grid"]) < 20
        lf = write(tmp_path / "lift_only.json", doc["lift"])
        # no --grid: the default, not the 9 of the call before
        assert main(["verify", lf, pf]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert len(cert["grid"]) >= 257
        assert build_parser.cache_info().misses == 1
        assert build_parser.cache_info().hits == 1

    def test_a_handler_rebound_after_the_build_runs(self, tmp_path, capsys, monkeypatch):
        space = validate_space(["a", "b"], [[Z, F(1, 2)], [F(1, 2), Z]])
        x = canonical_rv(dirac(space, "a"))
        xf = write(tmp_path / "x.json", {"space": space_to_obj(space), "blocks": blocks_to_obj(x)})
        build_parser()
        original, calls = cli.cmd_kyfan, []

        def recording(args):
            calls.append(args.command)
            return original(args)

        monkeypatch.setattr(cli, "cmd_kyfan", recording)
        assert main(["kyfan", xf, xf]) == 0
        assert calls == ["kyfan"]
        assert json.loads(capsys.readouterr().out)["rho"] == "0/1"


class TestSpaceReadOncePerCommand:
    """Within one command, JSON-equal space documents give one validated space."""

    @pytest.fixture
    def validations(self, monkeypatch):
        from pathlift.spaces import FiniteMetricSpace

        calls = []
        original = FiniteMetricSpace.__post_init__

        def counted(space):
            calls.append(space)
            original(space)

        monkeypatch.setattr(FiniteMetricSpace, "__post_init__", counted)
        return calls

    def test_same_document_validated_once_per_command(self, crossing_pair, capsys, validations):
        _, _, _, mu_file, nu_file = crossing_pair
        assert main(["prokhorov", mu_file, nu_file]) == 0
        first = capsys.readouterr().out
        assert len(validations) == 1
        # the next command reads its space again
        assert main(["prokhorov", mu_file, nu_file]) == 0
        assert capsys.readouterr().out == first
        assert len(validations) == 2
        assert SPACES_READ.get() is None

    def test_equal_values_in_other_text_still_match(self, tmp_path, capsys, validations):
        def law_file(name, half):
            space = {"points": ["a", "b"], "dist": [["0/1", half], [half, "0/1"]]}
            doc = {"space": space, "weights": ["3/4", "1/4"] if name == "mu" else ["1/4", "3/4"]}
            return write(tmp_path / f"{name}_{half.replace('/', '_')}.json", doc)

        assert main(["prokhorov", law_file("mu", "1/2"), law_file("nu", "1/2")]) == 0
        expected = capsys.readouterr().out
        assert len(validations) == 1
        assert main(["prokhorov", law_file("mu", "1/2"), law_file("nu", "2/4")]) == 0
        assert capsys.readouterr().out == expected
        assert len(validations) == 3

    @pytest.mark.parametrize(
        "command, first, second",
        [("prokhorov", "law", "law"), ("kyfan", "rv", "rv"), ("match", "rv", "law"),
         ("segment", "rv", "rv")],
    )
    def test_different_values_still_refused(
        self, tmp_path, capsys, validations, command, first, second
    ):
        files = {}
        for name, d in (("one", "1/1"), ("half", "2/4")):
            space = {"points": ["a", "b"], "dist": [["0/1", d], [d, "0/1"]]}
            files[name, "rv"] = write(
                tmp_path / f"{name}_rv.json", {"space": space, "blocks": {"a": [["0/1", "1/1"]]}}
            )
            files[name, "law"] = write(
                tmp_path / f"{name}_law.json", {"space": space, "weights": ["1/2", "1/2"]}
            )
        assert main([command, files["one", first], files["half", second]]) == 2
        assert capsys.readouterr().err == "error: operands live on different metric spaces\n"
        assert len(validations) == 2

    def test_library_calls_outside_a_command_keep_no_memo(self):
        doc = space_to_obj(validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]]))
        assert SPACES_READ.get() is None
        assert space_from_obj(doc) is not space_from_obj(doc)
        assert space_from_obj(doc) == space_from_obj(doc)


class TestCubeCommand:
    def test_base_case_reduces_to_segment(self, tmp_path, capsys):
        rng = random.Random(65)
        space = gen.rand_space(rng, 3)
        mu, nu = gen.rand_measure(rng, space), gen.rand_measure(rng, space)
        cf = write(
            tmp_path / "corners.json",
            {
                "space": space_to_obj(space),
                "corners": [weights_to_obj(mu), weights_to_obj(nu)],
            },
        )
        assert main(["cube", cf, "--grid", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == 1
        assert all(g == "0/1" for g in doc["law_gap"])
        assert len(doc["adjacent_rho"]) == 4

    def test_dimension_cap(self, tmp_path, capsys):
        rng = random.Random(66)
        space = gen.rand_space(rng, 2)
        weights = [["1/2", "1/2"]] * 6
        cf = write(
            tmp_path / "corners.json",
            {"space": space_to_obj(space), "corners": weights},
        )
        assert main(["cube", cf]) == 2
        assert "dimension" in capsys.readouterr().err


@pytest.fixture
def two_point_files(tmp_path):
    """Input files of every grid-taking command, for the path a -> b."""
    space = validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]])
    x, y = canonical_rv(dirac(space, "a")), canonical_rv(dirac(space, "b"))
    beta = PolygonalPath(space, (Z, F(1)), (dirac(space, "a"), dirac(space, "b")))
    sp = space_to_obj(space)
    return {
        "x": write(tmp_path / "x.json", {"space": sp, "blocks": blocks_to_obj(x)}),
        "y": write(tmp_path / "y.json", {"space": sp, "blocks": blocks_to_obj(y)}),
        "path": write(tmp_path / "path.json", polygonal_to_obj(beta)),
        "ends": write(
            tmp_path / "ends.json",
            {"space": sp, "start": blocks_to_obj(x), "end": blocks_to_obj(y)},
        ),
        "lift": write(tmp_path / "lift.json", lift_to_obj(lift_polygonal(beta, x, y))),
        "corners": write(
            tmp_path / "corners.json",
            {"space": sp, "corners": [weights_to_obj(law) for law in beta.vertices]},
        ),
    }


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, inputs",
        [
            ("segment", ["x", "y"]),
            ("lift", ["path", "ends"]),
            ("relift", ["lift", "path"]),
            ("verify", ["lift", "path"]),
            ("cube", ["corners"]),
        ],
        ids=["segment", "lift", "relift", "verify", "cube"],
    )
    def test_grid_zero_exit_two(self, two_point_files, capsys, command, inputs):
        argv = [command] + [two_point_files[k] for k in inputs] + ["--grid", "0"]
        assert main(argv) == 2
        assert "at least 2 points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, inputs, key",
        [
            ("lift", ["path", "ends"], "breakpoints"),
            ("lift", ["path", "ends"], "vertices"),
            ("cube", ["corners"], "corners"),
        ],
        ids=["path-breakpoints", "path-vertices", "cube-corners"],
    )
    def test_table_not_a_list_exit_two(self, two_point_files, capsys, command, inputs, key):
        doc = Path(two_point_files[inputs[0]])
        obj = json.loads(doc.read_text())
        obj[key] = 5
        write(doc, obj)
        assert main([command] + [two_point_files[k] for k in inputs]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_dist_not_a_matrix_exit_two(self, tmp_path, capsys):
        doc = {"space": {"points": ["a", "b"], "dist": 5}, "weights": ["1/2", "1/2"]}
        mu_file = write(tmp_path / "mu.json", doc)
        assert main(["prokhorov", mu_file, mu_file]) == 2
        assert "space.dist" in capsys.readouterr().err

    def test_weight_with_trailing_newline_exit_two(self, crossing_pair, capsys):
        _, _, _, mu_file, _ = crossing_pair
        doc = json.loads(Path(mu_file).read_text())
        doc["weights"][0] = "3/4\n"
        write(Path(mu_file), doc)
        assert main(["prokhorov", mu_file, mu_file]) == 2
        err = capsys.readouterr().err
        assert err == "error: rational expected as \"p/q\" string, got '3/4\\n'\n"

    def test_segment_without_b_exit_two(self, tmp_path, capsys):
        rng = random.Random(67)
        space = gen.rand_space(rng, 3)
        beta = gen.rand_polygonal(rng, space, 3)
        lift = lift_polygonal(
            beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
        )
        doc = lift_to_obj(lift)
        del doc["segments"][1]["b"]
        lf = write(tmp_path / "lift.json", doc)
        pf = write(tmp_path / "path.json", polygonal_to_obj(beta))
        assert main(["verify", lf, pf]) == 2
        assert 'segments[1] has no "b"' in capsys.readouterr().err


    @pytest.mark.parametrize(
        "a_block, b_block",
        [([["0/1", "1/2"]], [["1/4", "1/1"]]), ([["0/1", "1/4"]], [["1/2", "1/1"]])],
        ids=["overlap", "gap"],
    )
    def test_kyfan_blocks_not_a_partition_exit_two(self, tmp_path, capsys, a_block, b_block):
        space = space_to_obj(validate_space(["a", "b"], [[Z, F(1)], [F(1), Z]]))
        x_file = write(tmp_path / "x.json", {"space": space, "blocks": {"a": a_block, "b": b_block}})
        y_file = write(tmp_path / "y.json", {"space": space, "blocks": {"a": [["0/1", "1/1"]]}})
        assert main(["kyfan", x_file, y_file]) == 2
        assert "blocks must partition [0, 1) exactly" in capsys.readouterr().err


@functools.cache
def valid_documents():
    """One valid input document of each kind, over a 3-point space."""
    rng = random.Random(68)
    space = gen.rand_space(rng, 3)
    beta = gen.rand_polygonal(rng, space, 3)
    x, y = canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1])
    sp = space_to_obj(space)
    return {
        "mu": measure_to_obj(beta.vertices[0]),
        "nu": measure_to_obj(beta.vertices[1]),
        "x": {"space": sp, "blocks": blocks_to_obj(x)},
        "y": {"space": sp, "blocks": blocks_to_obj(y)},
        "path": polygonal_to_obj(beta),
        "sampled": sampled_to_obj(SampledPath.from_polygonal(beta)),
        "ends": {"space": sp, "start": blocks_to_obj(x), "end": blocks_to_obj(y)},
        "lift": lift_to_obj(lift_polygonal(beta, x, y)),
        "corners": {"space": sp, "corners": [weights_to_obj(v) for v in beta.vertices]},
    }


# command -> (the documents it reads, each a choice of kinds; its options)
FILE_COMMANDS = {
    "prokhorov": ([["mu"], ["nu"]], []),
    "kyfan": ([["x"], ["y"]], []),
    "match": ([["x"], ["nu"]], []),
    "segment": ([["x"], ["y"]], ["--grid", "5"]),
    "lift": ([["path", "sampled"], ["ends"]], ["--tol", "1/2", "--iters", "1", "--grid", "5"]),
    "relift": ([["lift"], ["path"]], ["--tol", "1/4", "--grid", "5"]),
    "verify": ([["lift"], ["path"]], ["--grid", "5"]),
    "cube": ([["corners"]], ["--grid", "3"]),
}
FUZZ_VALUES = (
    None, True, 0, -1, 0.5, "", "x", "0/1", "1/2", "-1/2", "3/2", "1/0",
    [], {}, ["0/1", "1/1"], [["0/1", "1/1"]],
)


def node_paths(obj, path=()):
    """The path of keys and indices to every node of a JSON document."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from node_paths(value, path + (key,))


def mutated(obj, path, how, value):
    """A copy of obj with the node at path replaced by value, deleted, or
    duplicated (next to itself in a list, under a new key in an object)."""
    if not path:
        return value
    obj = copy.deepcopy(obj)
    *head, last = path
    parent = functools.reduce(lambda node, key: node[key], head, obj)
    if how == "replace":
        parent[last] = value
    elif how == "delete":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    else:
        parent[f"{last}2"] = copy.deepcopy(parent[last])
    return obj


class TestInputContract:
    """Any file a command reads, one node mutated, gives exit 0 or 2 and no traceback."""

    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_one_mutated_node_exits_zero_or_two(self, command, data):
        kinds, options = FILE_COMMANDS[command]
        docs = [valid_documents()[data.draw(st.sampled_from(choice))] for choice in kinds]
        k = data.draw(st.integers(0, len(docs) - 1))
        path = data.draw(st.sampled_from(list(node_paths(docs[k]))))
        how = data.draw(st.sampled_from(["replace", "delete", "duplicate"][:3 if path else 1]))
        docs[k] = mutated(docs[k], path, how, data.draw(st.sampled_from(FUZZ_VALUES)))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            files = [write(Path(tmp) / f"in{n}.json", doc) for n, doc in enumerate(docs)]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *files, *options])
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestSelftestCommand:
    def test_passes_and_prints_suites(self, capsys):
        assert main(["selftest", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "prokhorov-two-routes" in out
