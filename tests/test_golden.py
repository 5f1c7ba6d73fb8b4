"""Golden digests of CLI reports.

Each case writes seeded inputs built with ``pathlift.gen``, runs one CLI
subcommand in-process and compares the sha256 of its ``--out`` report
with the digest recorded in ``golden/digests.json``.  The demo scripts
are covered the same way: the stdout of ``demo_cube.py`` at each
dimension, and each file ``demo_lift.py`` writes (its stdout names the
output directory, so it is not compared).  Changes to the arithmetic
must keep every report byte-identical.  After an intended
change of output, record the digests again with

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import distinct_space, subprocess_env
from pathlift import canonical_rv, lift_polygonal, match_to_law, mixture
from pathlift import gen
from pathlift.cli import main
from pathlift.lifting import PolygonalPath, SampledPath
from pathlift.serialize import (
    blocks_to_obj,
    dumps,
    lift_to_obj,
    measure_to_obj,
    polygonal_to_obj,
    sampled_to_obj,
    space_to_obj,
    weights_to_obj,
)

F = Fraction
DIGESTS = Path(__file__).with_name("golden") / "digests.json"
ROOT = Path(__file__).resolve().parent.parent


def _write(directory, name, obj):
    path = directory / name
    path.write_text(dumps(obj))
    return str(path)


def _rv_file(directory, name, x):
    return _write(directory, name, {"space": space_to_obj(x.space), "blocks": blocks_to_obj(x)})


def _perturbed(rng, beta, eps):
    """beta with interior vertices mixed toward random measures by <= eps."""
    verts = [beta.vertices[0]]
    for v in beta.vertices[1:-1]:
        verts.append(mixture(v, gen.rand_measure(rng, beta.space), eps * rng.randint(1, 4) / 4))
    verts.append(beta.vertices[-1])
    return PolygonalPath(beta.space, beta.breakpoints, tuple(verts))


def _prokhorov_pair(directory, space, mu, nu):
    return [
        "prokhorov",
        _write(directory, "mu.json", measure_to_obj(mu)),
        _write(directory, "nu.json", measure_to_obj(nu)),
    ]


def case_prokhorov_oracle(rng, directory):
    space = gen.rand_space(rng, 7)
    mu = gen.rand_measure(rng, space, den=35)
    nu = gen.rand_measure(rng, space, den=33)
    return _prokhorov_pair(directory, space, mu, nu)


def case_prokhorov_wide(rng, directory):
    space = distinct_space(rng, 20)
    mu = gen.rand_measure(rng, space, den=91)
    nu = gen.rand_measure(rng, space, den=99)
    return _prokhorov_pair(directory, space, mu, nu)


def case_kyfan(rng, directory):
    space = gen.rand_space(rng, 5)
    x, y = gen.rand_rv(rng, space), gen.rand_rv(rng, space)
    return ["kyfan", _rv_file(directory, "x.json", x), _rv_file(directory, "y.json", y)]


def case_match(rng, directory):
    space = gen.rand_space(rng, 6)
    x = gen.rand_rv(rng, space, slabs=10)
    nu = gen.rand_measure(rng, space, den=39)
    return [
        "match",
        _rv_file(directory, "x.json", x),
        _write(directory, "nu.json", measure_to_obj(nu)),
    ]


def case_match_wide(rng, directory):
    """Benchmark-sized match: 24 points, a variable of ~48 pieces."""
    space = distinct_space(rng, 24)
    x = gen.rand_rv(rng, space, slabs=48, den=24 * 48)
    nu = gen.rand_measure(rng, space, den=24 * 24)
    return [
        "match",
        _rv_file(directory, "x.json", x),
        _write(directory, "nu.json", measure_to_obj(nu)),
    ]


def case_segment(rng, directory):
    space = gen.rand_space(rng, 4)
    x, y = gen.rand_rv(rng, space), gen.rand_rv(rng, space)
    return ["segment", _rv_file(directory, "x.json", x), _rv_file(directory, "y.json", y), "--grid", "9"]


def _endpoints(directory, space, start, end):
    return _write(
        directory,
        "ends.json",
        {"space": space_to_obj(space), "start": blocks_to_obj(start), "end": blocks_to_obj(end)},
    )


def case_lift_polygonal(rng, directory):
    space = gen.rand_space(rng, 3)
    beta = gen.rand_polygonal(rng, space, 4)
    start = canonical_rv(beta.vertices[0])
    end = match_to_law(gen.rand_rv(rng, space), beta.vertices[-1])
    return [
        "lift",
        _write(directory, "path.json", polygonal_to_obj(beta)),
        _endpoints(directory, space, start, end),
        "--grid", "9",
    ]


def case_lift_sampled(rng, directory):
    space = gen.rand_space(rng, 3)
    alpha = gen.rand_sampled(rng, space, max_lipschitz=2)
    start = canonical_rv(alpha.eval(F(0)))
    end = match_to_law(gen.rand_rv(rng, space), alpha.eval(F(1)))
    return [
        "lift",
        _write(directory, "path.json", sampled_to_obj(alpha)),
        _endpoints(directory, space, start, end),
        "--tol", "1/6", "--iters", "2", "--grid", "9",
    ]


def case_lift_criterion8(rng, directory):
    """Criterion-8 pipeline at benchmark size: a 3-point sampled path of
    modulus 13/5 (pieces 5/13 and 8/13), tol 1/25, 3 rounds, grid 65."""
    space = gen.rand_space(rng, 3)
    bps = (F(0), F(5, 13), F(1))
    beta = PolygonalPath(space, bps, tuple(gen.rand_measure(rng, space) for _ in bps))
    alpha = SampledPath.from_polygonal(beta)
    start = canonical_rv(alpha.eval(F(0)))
    end = match_to_law(gen.rand_rv(rng, space), alpha.eval(F(1)))
    return [
        "lift",
        _write(directory, "path.json", sampled_to_obj(alpha)),
        _endpoints(directory, space, start, end),
        "--tol", "1/25", "--iters", "3", "--grid", "65",
    ]


def case_lift_four_rounds(rng, directory):
    """The criterion-8 instance run for 4 rounds: deeper denominators."""
    argv = case_lift_criterion8(rng, directory)
    argv[argv.index("--iters") + 1] = "4"
    return argv


def _polygonal_lift_files(rng, directory):
    space = gen.rand_space(rng, 3)
    beta = gen.rand_polygonal(rng, space, 3)
    lift = lift_polygonal(beta, canonical_rv(beta.vertices[0]), canonical_rv(beta.vertices[-1]))
    eps = F(1, 4)
    target = _perturbed(rng, beta, eps)
    return (
        _write(directory, "lift.json", lift_to_obj(lift)),
        _write(directory, "path.json", polygonal_to_obj(target)),
        eps,
    )


def case_relift(rng, directory):
    lift_file, path_file, eps = _polygonal_lift_files(rng, directory)
    return ["relift", lift_file, path_file, "--tol", f"{eps.numerator}/{eps.denominator}", "--grid", "9"]


def case_verify(rng, directory):
    lift_file, path_file, eps = _polygonal_lift_files(rng, directory)
    return ["verify", lift_file, path_file, "--tol", f"{eps.numerator}/{eps.denominator}", "--grid", "9"]


def _cube(rng, directory, dim, grid):
    space = gen.rand_space(rng, 4)
    corners = [weights_to_obj(gen.rand_measure(rng, space)) for _ in range(dim + 1)]
    return [
        "cube",
        _write(directory, "corners.json", {"space": space_to_obj(space), "corners": corners}),
        "--grid", str(grid),
    ]


def case_cube(rng, directory):
    return _cube(rng, directory, 3, 3)


def case_cube_dim1(rng, directory):
    return _cube(rng, directory, 1, 9)


def case_cube_dim2(rng, directory):
    return _cube(rng, directory, 2, 5)


CASES = {
    name[len("case_"):]: fn for name, fn in sorted(globals().items()) if name.startswith("case_")
}
SEEDS = (1, 2, 3)


def report_digest(name: str, seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        argv = CASES[name](random.Random(f"golden:{name}:{seed}"), directory)
        out = directory / "report.json"
        code = main(argv + ["--out", str(out)])
        if code != 0:
            raise AssertionError(f"{name} seed {seed}: exit {code}")
        return hashlib.sha256(out.read_bytes()).hexdigest()


def _run_script(name: str, *args: str) -> bytes:
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        check=True,
        env=subprocess_env(),
    )
    return result.stdout


def demo_cube_digest(dim: int) -> str:
    return hashlib.sha256(_run_script("demo_cube.py", "--dim", str(dim))).hexdigest()


def demo_lift_digests() -> dict[str, str]:
    """sha256 of every file ``demo_lift.py --seed 0`` writes, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        _run_script("demo_lift.py", "--seed", "0", "--out", tmp)
        return {
            f"demo_lift:0:{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(tmp).iterdir())
        }


DEMO_CUBE_DIMS = (1, 2, 3)


def all_digests() -> dict[str, str]:
    digests = {f"{name}:{seed}": report_digest(name, seed) for name in CASES for seed in SEEDS}
    digests.update({f"demo_cube:{dim}": demo_cube_digest(dim) for dim in DEMO_CUBE_DIMS})
    digests.update(demo_lift_digests())
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_digest(name):
    golden = json.loads(DIGESTS.read_text())
    for seed in SEEDS:
        assert report_digest(name, seed) == golden[f"{name}:{seed}"], f"{name} seed {seed}"


@pytest.mark.parametrize("dim", DEMO_CUBE_DIMS)
def test_demo_cube_stdout_matches_golden_digest(dim):
    golden = json.loads(DIGESTS.read_text())
    assert demo_cube_digest(dim) == golden[f"demo_cube:{dim}"]


@pytest.mark.parametrize(
    "args, error",
    [
        (["--tol", "1"], """--tol: rational expected as "p/q" string, got '1'"""),
        (["--tol", "0/1"], "--tol: tolerance must be positive, got '0/1'"),
        (["--iters", "0"], "--iters: at least one iteration is required"),
    ],
    ids=["tol-not-a-ratio", "tol-zero", "iters-zero"],
)
def test_demo_lift_bad_option_is_a_usage_error(tmp_path, args, error):
    script = ROOT / "scripts" / "demo_lift.py"
    result = subprocess.run(
        [sys.executable, str(script), *args, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert result.returncode == 2
    assert result.stderr.endswith(f"error: {error}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args, error",
    [
        (["--grid", "1"], "--grid: at least 2 points per axis are required, got 1"),
        (["--grid", "0"], "--grid: at least 2 points per axis are required, got 0"),
        (["--points", "0"], "--points: space size must be 1 to 16, got 0"),
        (["--points", "17"], "--points: space size must be 1 to 16, got 17"),
    ],
    ids=["grid-one", "grid-zero", "points-zero", "points-seventeen"],
)
def test_demo_cube_bad_option_is_a_usage_error(args, error):
    script = ROOT / "scripts" / "demo_cube.py"
    result = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"error: {error}\n")


def test_demo_lift_files_match_golden_digests():
    golden = json.loads(DIGESTS.read_text())
    expected = {key: value for key, value in golden.items() if key.startswith("demo_lift:")}
    assert demo_lift_digests() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    DIGESTS.write_text(json.dumps(all_digests(), indent=2, sort_keys=True) + "\n")
