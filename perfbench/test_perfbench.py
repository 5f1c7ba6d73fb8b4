"""Checks on the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import run
import workloads
from tracer import Tracer, self_times

sys.path.insert(0, str(run.ROOT / "src"))

HERE = Path(__file__).resolve().parent

# One small op per workload, so that a traced pass takes seconds.
TINY = {
    "pipeline": partial(workloads.pipeline_ops, pieces=((1,),)),
    "wide": partial(workloads.wide_ops, sizes=(6,)),
    "cube3": partial(workloads.cube_ops, count=1),
}

COUNT_SUFFIXES = (".calls", "lifting.segments", "max_den_bits", "max_intervals_per_block",
                  "distinct_distances_max", "bytes_written")


def test_self_times_on_synthetic_tree():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 2 [2, 3]
    #   +- 3 [3.5, 6]   overlaps 1, so 0's children cover [1, 6]
    #   +- 4 [9, 12]    sticks out of 0, so it covers [9, 10] of it
    #   5 [20, 21]      a second root
    starts = [0.0, 1.0, 2.0, 3.5, 9.0, 20.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0, 21.0]
    parents = [-1, 0, 1, 0, 0, -1]
    assert list(self_times(starts, ends, parents)) == [4.0, 2.0, 1.0, 2.5, 3.0, 1.0]


def test_latency_is_divided_by_the_adjacent_reference_times():
    # op 0 ran between refs 0.02 and 0.04, op 1 between 0.04 and 0.01
    assert run.normalised([1.5, 0.25], [0.02, 0.04, 0.01]) == [50.0, 10.0]
    assert run.reference_s() > 0


def test_tracer_records_parents_and_restores_originals():
    lib = run.import_library()
    lifting, prokhorov = lib.modules["pathlift.lifting"], lib.modules["pathlift.prokhorov"]
    omega, spaces = lib.modules["pathlift.omega"], lib.modules["pathlift.spaces"]
    original_init = vars(omega.IntervalSet)["__post_init__"]
    original_prokhorov = prokhorov.prokhorov
    space = lib.gen.rand_space(random.Random(0), 3)
    mu = spaces.dirac(space, space.points[0])
    nu = spaces.dirac(space, space.points[1])
    tracer = Tracer(lib.modules)
    tracer.install()
    try:
        assert lifting.prokhorov is not original_prokhorov
        assert lifting.prokhorov(mu, nu) == original_prokhorov(mu, nu)
    finally:
        tracer.uninstall()
    assert lifting.prokhorov is original_prokhorov
    assert vars(omega.IntervalSet)["__post_init__"] is original_init
    names = [tracer.names[n] for n in tracer.span_name]
    assert names[0] == "prokhorov.prokhorov"
    assert names[1] == "prokhorov.prokhorov_coupling"
    assert tracer.span_parent[1] == 0
    assert "prokhorov.kyfan_functional" in names


def test_checks_reject_bad_reports():
    cert = {"max_law_gap": "1/20", "endpoint_ok": [True, True], "decay_table": ["0/1", "0/1"]}
    assert workloads.check_lift({"certificate": cert}) is not None
    cert = {"max_law_gap": "1/25", "endpoint_ok": [True, False], "decay_table": ["0/1", "0/1"]}
    assert workloads.check_lift({"certificate": cert}) is not None
    # budgets are 5 * (1 + 1/5) = 6 and 5 * (1/5 + 1/25) = 6/5
    cert = {"max_law_gap": "0/1", "endpoint_ok": [True, True], "decay_table": ["0/1", "31/25"]}
    assert workloads.check_lift({"certificate": cert}) is not None
    cert = {"max_law_gap": "1/25", "endpoint_ok": [True, True], "decay_table": ["6/1", "6/5"]}
    assert workloads.check_lift({"certificate": cert}) is None
    gaps = ["0/1"] * (workloads.CUBE_GRID ** workloads.CUBE_DIM)
    assert workloads.check_cube({"dimension": 3, "law_gap": gaps}) is None
    assert workloads.check_cube({"dimension": 3, "law_gap": gaps[:-1] + ["1/7"]}) is not None


def test_failing_op_is_counted(tmp_path):
    workload = dataclasses.replace(run.WORKLOADS["cube3"], make_ops=TINY["cube3"])
    lib, ops, _ = run.set_up(workload, 0, tmp_path)
    ops.append(dataclasses.replace(ops[0], argv=list(ops[0].argv),
                                   check=lambda report: report["no such key"]))
    ops[0].argv[1] = str(tmp_path / "missing.json")
    runner = run.Runner(lib, ops)
    for slot in (0, 1):
        _, report, _ = runner.run(slot)
        assert report is None
    assert runner.attempted == 2 and len(runner.failures) == 2
    assert "exit code 2" in runner.failures[0] and "malformed" in runner.failures[1]


def tiny_counts(workdir: str) -> None:
    """Print the count metrics of one traced tiny pass per workload."""
    counts = {}
    for name, make_ops in TINY.items():
        directory = Path(workdir) / name
        directory.mkdir()
        workload = dataclasses.replace(run.WORKLOADS[name], make_ops=make_ops)
        lib, ops, _ = run.set_up(workload, 7, directory)
        runner = run.Runner(lib, ops)
        metrics, _ = run.measure_per_layer(runner)
        assert not runner.failures, runner.failures
        counts[name] = {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
    print(json.dumps(counts, sort_keys=True))


def test_counts_repeat_exactly_across_runs(tmp_path):
    """Two processes with different string-hash seeds do the same work."""
    outputs = []
    for k, hash_seed in enumerate(("1", "2")):
        workdir = tmp_path / f"run{k}"
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", f"import test_perfbench as t; t.tiny_counts({str(workdir)!r})"],
            cwd=HERE, capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = outputs
    assert first == second
    assert first["pipeline"]["lifting.segments"] > 0
    assert first["wide"]["prokhorov.prokhorov_subsets.calls"] == 1
    assert first["cube3"]["cube.CubeLift.eval.calls"] == workloads.CUBE_GRID ** workloads.CUBE_DIM


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for w in spec["workloads"]:
        assert f"p{run.WORKLOADS[w['name']].tail_pct}" in w["why"]


def test_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cube3", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
