"""Closed-loop benchmark of the pathlift command line.

One client in one process and thread: each op is one CLI command called
in-process through `pathlift.cli.main(argv)`, and starts only after the
previous one has finished and been checked.  Inputs are generated from
the seed before timing starts; the program sees only the input files.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 36 --trace 0

With `--trace 0` the ops cycle through the workload's op list until
`--seconds` have passed, and the end-to-end metrics are printed.  With
`--trace 1` one pass over the first TRACED_OPS ops runs untraced, as the
baseline for `trace.overhead_ratio`, and then the same pass runs under
the tracer and the per-layer metrics are printed.  A traced run is two
such passes long whatever `--seconds` says, because a fixed amount of
work is what makes every count repeat exactly.  `--workload all` runs
every workload, one process each, one after another.

The host's speed drifts: on a shared 2-core VM the same pass took from
13.7 to 25.6 s within ten minutes, with CPU time tracking wall time.  So
op latencies are reported in units of a fixed reference loop (standard
library only, see `reference_s`) timed between every two ops: each op's
wall time is divided by the mean of the reference times just before and
just after it.  Raw wall-clock figures are printed as well, but not as
metrics.

Human-readable lines come first; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  The exit
code is 0 only when every op passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 9
# Ops in each pass of a traced run: every workload's first 8 ops hold its
# whole mix, and two passes of them take about a minute; 16 took two.
TRACED_OPS = 8

END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "ops_per_kref": "1/kref",
    "peak_rss_mib": "MiB",
}

# Span names whose inclusive time (self plus children) is reported.
INCLUSIVE = ("lifting.lift_path", "lifting.sup_rho_on_grid", "lifting.verify_lift",
             "lifting.relift_near")

PER_LAYER = {
    "omega.IntervalSet.init.calls": "count",
    "omega.IntervalSet.intersect.calls": "count",
    "omega.IntervalSet.intersect.self_s": "s",
    "omega.IntervalSet.union_all.self_s": "s",
    "omega.IntervalSet.prefix.calls": "count",
    "omega.IntervalSet.split.calls": "count",
    "omega.inverse_prefix_mass.calls": "count",
    "omega.inverse_prefix_mass.self_s": "s",
    "omega.self_s": "s",
    "randomvars.SimpleRandomVariable.init.calls": "count",
    "randomvars.SimpleRandomVariable.init.self_s": "s",
    "randomvars.joint_coupling.calls": "count",
    "randomvars.joint_coupling.self_s": "s",
    "randomvars.kyfan_rho.calls": "count",
    "randomvars.match_to_law.calls": "count",
    "randomvars.realize_coupling.self_s": "s",
    "randomvars.max_intervals_per_block": "count",
    "randomvars.max_den_bits": "bits",
    "randomvars.self_s": "s",
    "lifting.SegmentLift.eval.calls": "count",
    "lifting.SegmentLift.eval.self_s": "s",
    "lifting.transfer_blocks.self_s": "s",
    "lifting.relift_near.self_s": "s",
    "lifting.relift_near.total_s": "s",
    "lifting.sup_rho_on_grid.self_s": "s",
    "lifting.sup_rho_on_grid.total_s": "s",
    "lifting.verify_lift.self_s": "s",
    "lifting.verify_lift.total_s": "s",
    "lifting.lift_path.total_s": "s",
    "lifting.approximate_polygonal.self_s": "s",
    "lifting.SampledPath.eval.calls": "count",
    "lifting.segments": "count",
    "lifting.verify_exact_law_share": "ratio",
    "lifting.self_s": "s",
    "prokhorov.prokhorov_coupling.calls": "count",
    "prokhorov.prokhorov_coupling.self_s": "s",
    "prokhorov.coupling_distinct_ratio": "ratio",
    "prokhorov.kyfan_functional.calls": "count",
    "prokhorov.kyfan_functional.self_s": "s",
    "prokhorov.prokhorov_subsets.calls": "count",
    "prokhorov.prokhorov_subsets.self_s": "s",
    "prokhorov.distinct_distances_max": "count",
    "prokhorov.self_s": "s",
    "spaces.FiniteMetricSpace.init.self_s": "s",
    "spaces.mixture.calls": "count",
    "spaces.CouplingMatrix.init.calls": "count",
    "spaces.self_s": "s",
    "cube.CubeLift.eval.calls": "count",
    "cube.CubeLift.eval.self_s": "s",
    "cube.g_eval.self_s": "s",
    "cube.self_s": "s",
    "serialize.read_s": "s",
    "serialize.write_s": "s",
    "serialize.bytes_written": "bytes",
    "serialize.self_s": "s",
    "cli.main.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


# -- library and set-up ----------------------------------------------------

def import_library() -> SimpleNamespace:
    """Import pathlift afresh from the checkout's src/ (timed as set-up)."""
    for name in [n for n in sys.modules if n == "pathlift" or n.startswith("pathlift.")]:
        del sys.modules[name]
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"pathlift.{name}")
           for name in ("cli", "gen", "serialize", "randomvars", "lifting")}
    )
    lib.modules = {n: m for n, m in sys.modules.items()
                   if n == "pathlift" or n.startswith("pathlift.")}
    return lib


def set_up(workload, seed: int, work: Path):
    """Import the library and write the inputs, SETUP_REPS times from
    scratch; returns the last library, its ops and the median time."""
    times = []
    for rep in range(SETUP_REPS):
        directory = work / f"setup{rep}"
        directory.mkdir()
        gc.collect()  # the modules dropped by the previous rep
        began = perf_counter()
        lib = import_library()
        ops = workload.make_ops(lib, random.Random(seed), directory)
        times.append(perf_counter() - began)
        if rep:
            shutil.rmtree(work / f"setup{rep - 1}")
    return lib, ops, statistics.median(times)


# -- ops -------------------------------------------------------------------

class Runner:
    """Runs ops, checks their reports, and keeps what the metrics need."""

    def __init__(self, lib: SimpleNamespace, ops: list):
        self.lib = lib
        self.ops = ops
        self.first_digest: dict[int, str] = {}
        self.digests: list[tuple[int, str, str]] = []
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, slot: int) -> tuple[float, dict | None, int]:
        """Run ops[slot]; returns latency, the report when it passed, and
        the report size in bytes."""
        op = self.ops[slot]
        op.out.unlink(missing_ok=True)
        self.attempted += 1
        reason = None
        began = perf_counter()
        try:
            code = self.lib.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # any exception fails the op, and the run goes on
            code, reason = None, "raised\n" + traceback.format_exc()
        latency = perf_counter() - began

        report, size = None, 0
        if reason is None and code != 0:
            reason = f"exit code {code}"
        if reason is None and not op.out.is_file():
            reason = "no report written"
        if reason is None:
            data = op.out.read_bytes()
            size = len(data)
            digest = hashlib.sha256(data).hexdigest()
            self.digests.append((slot, op.label, digest))
            if self.first_digest.setdefault(slot, digest) != digest:
                reason = "report differs from the same op's first report"
            else:
                try:
                    report = json.loads(data)
                    reason = op.check(report)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    reason = f"malformed report: {exc!r}"
        if reason is not None:
            self.failures.append(f"op {slot} ({op.label}): {reason}")
            report = None
        return latency, report, size

    def reports_digest(self) -> str:
        """sha256 over the first report of every slot, in slot order."""
        joined = "".join(self.first_digest[s] for s in sorted(self.first_digest))
        return hashlib.sha256(joined.encode()).hexdigest()


# -- reference loop --------------------------------------------------------

def _reference_data(seed: int = 0, size: int = 40_000):
    """Fixed inputs of the reference loop: 750 rationals with 3-digit terms,
    and a dict of `size` rationals, larger than a core's private caches as
    the library's interval lists, couplings and reports are."""
    small = [Fraction((i * 7919) % 1009 + 1, (i * 104729) % 997 + 1) for i in range(1, 751)]
    rng = random.Random(seed)
    table = {Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)): i for i in range(size)}
    keys = rng.sample(list(table), 2000)
    return small, table, keys, list(table)[:750]


REF_SMALL, REF_TABLE, REF_KEYS, REF_SORT = _reference_data()


def reference_s() -> float:
    """Wall time of one pass of a fixed loop that uses only the standard
    library (~20 to 35 ms).  Half is Fraction arithmetic and comparisons on
    small, hot data; half is dict lookups keyed by rationals, whose hashes
    Fraction computes afresh, and a sort of rationals from the large table.
    Either half alone tracked some workloads worse.  The collector is off,
    so that the size of the library's heap stays out."""
    gc.disable()
    try:
        began = perf_counter()
        below = 0
        for a, b in zip(REF_SMALL, REF_SMALL[1:]):
            if a * b + a - b < a:
                below += 1
        total = 0
        for key in REF_KEYS:
            total += REF_TABLE[key]
        ranked = sorted(REF_SORT)
        elapsed = perf_counter() - began
    finally:
        gc.enable()
    assert below > 0 and total > 0 and len(ranked) == len(REF_SORT)
    return elapsed


def normalised(latencies: list[float], refs: list[float]) -> list[float]:
    """Op i ran between refs[i] and refs[i + 1]; divide its latency by the
    mean of those two.  The host's speed switches within seconds, so the
    nearest two track an op better than a wider window does."""
    return [2 * latency / (refs[i] + refs[i + 1]) for i, latency in enumerate(latencies)]


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_end_to_end(runner: Runner, workload, seconds: float) -> dict:
    """Cycle through the ops until `seconds` have passed, with a reference
    loop before each op and after the last."""
    for _ in range(3):  # warm-up
        reference_s()
    latencies, passed, refs = [], [], [reference_s()]
    deadline = perf_counter() + seconds
    slot = 0
    while perf_counter() < deadline:
        latency, report, _ = runner.run(slot % len(runner.ops))
        latencies.append(latency)
        passed.append(report is not None)
        refs.append(reference_s())
        slot += 1
    ratios = normalised(latencies, refs)
    good = [r for r, ok in zip(ratios, passed) if ok]
    wall = [x for x, ok in zip(latencies, passed) if ok]
    if not good:
        return {}
    print(f"{len(good)} ops passed; wall clock: op p50 {statistics.median(wall):.4f} s, "
          f"p{workload.tail_pct} {percentile(wall, workload.tail_pct):.4f} s, "
          f"reference loop median {statistics.median(refs) * 1000:.2f} ms")
    return {
        "op_p50_ref": statistics.median(good),
        "op_tail_ref": percentile(good, workload.tail_pct),
        "ops_per_kref": 1000 * len(good) / sum(ratios),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# -- tracing ---------------------------------------------------------------

def _probe_variable(tracer, parent, args, result):
    blocks = args[0].blocks
    tally = tracer.tally()
    widest = max(len(b.intervals) for b in blocks)
    bits = max((x.denominator.bit_length() for b in blocks for pair in b.intervals
                for x in pair), default=0)
    tally["max_intervals_per_block"] = max(tally.get("max_intervals_per_block", 0), widest)
    tally["max_den_bits"] = max(tally.get("max_den_bits", 0), bits)


def _probe_coupling(tracer, parent, args, result):
    mu, nu = args
    tally = tracer.tally()
    tally.setdefault("pairs", set()).add((mu.weights, nu.weights))
    distinct = len({d for row in mu.space.dist for d in row}) - 1
    tally["distinct_distances_max"] = max(tally.get("distinct_distances_max", 0), distinct)


def _probe_prokhorov(tracer, parent, args, result):
    if tracer.parent_name(parent) == "lifting.verify_lift":
        tally = tracer.tally()
        tally["verify_gaps"] = tally.get("verify_gaps", 0) + 1
        tally["verify_exact"] = tally.get("verify_exact", 0) + (args[0] == args[1])


PROBES = {
    "randomvars.SimpleRandomVariable.init": _probe_variable,
    "prokhorov.prokhorov_coupling": _probe_coupling,
    "prokhorov.prokhorov": _probe_prokhorov,
}


def _serialize_kind(function: str) -> str | None:
    if function == "load_json" or function.endswith("_from_obj"):
        return "read"
    if function in ("dumps", "write_json_atomic") or function.endswith("_to_obj"):
        return "write"
    return None


def layer_metrics(tracer: Tracer) -> dict:
    """Calls, self and inclusive times, layer totals and probe tallies."""
    names, name_of = tracer.names, tracer.span_name
    parents, starts, ends = tracer.span_parent, tracer.span_start, tracer.span_end
    selfs = self_times(starts, ends, parents)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    out: defaultdict = defaultdict(float)  # a name never called reads 0
    for i, nid in enumerate(name_of):
        name = names[nid]
        calls[name] += 1
        self_s[name] += selfs[i]
        layer, function = name.split(".", 1)
        out[f"{layer}.self_s"] += selfs[i]
        if name in INCLUSIVE:
            p = parents[i]
            while p >= 0 and names[name_of[p]] != name:
                p = parents[p]
            if p < 0:
                out[f"{name}.total_s"] += ends[i] - starts[i]
        if layer == "serialize":
            p = parents[i]
            kind = _serialize_kind(function.rsplit(".", 1)[-1])
            if kind and (p < 0 or not names[name_of[p]].startswith("serialize.")):
                out[f"serialize.{kind}_s"] += ends[i] - starts[i]
    for name, count in calls.items():
        out[f"{name}.calls"] = count
        out[f"{name}.self_s"] = self_s[name]

    tallies = tracer.tallies.values()
    for key in ("max_intervals_per_block", "max_den_bits", "distinct_distances_max"):
        layer = "prokhorov" if key == "distinct_distances_max" else "randomvars"
        out[f"{layer}.{key}"] = max((t.get(key, 0) for t in tallies), default=0)
    coupling_calls = calls["prokhorov.prokhorov_coupling"]
    distinct_pairs = sum(len(t.get("pairs", ())) for t in tallies)
    out["prokhorov.coupling_distinct_ratio"] = (
        distinct_pairs / coupling_calls if coupling_calls else 0.0
    )
    gaps = sum(t.get("verify_gaps", 0) for t in tallies)
    exact = sum(t.get("verify_exact", 0) for t in tallies)
    out["lifting.verify_exact_law_share"] = exact / gaps if gaps else 0.0
    return out


def measure_per_layer(runner: Runner) -> tuple[dict, Tracer]:
    """One untraced pass over the first TRACED_OPS ops, then the same pass
    traced, each with the reference loop between ops so that drift in the
    host's speed stays out of `trace.overhead_ratio`."""
    slots = range(min(TRACED_OPS, len(runner.ops)))
    untraced, refs = [], [reference_s()]
    for slot in slots:
        untraced.append(runner.run(slot)[0])
        refs.append(reference_s())
    untraced = normalised(untraced, refs)

    tracer = Tracer(runner.lib.modules, PROBES)
    traced, refs = [], [reference_s()]
    segments = written = 0
    tracer.install()
    try:
        for slot in slots:
            tracer.op_id = slot
            latency, report, size = runner.run(slot)
            traced.append(latency)
            refs.append(reference_s())
            written += size
            if report is not None and "lift" in report:
                segments += len(report["lift"]["segments"])
    finally:
        tracer.uninstall()
    traced = normalised(traced, refs)

    metrics = layer_metrics(tracer)
    metrics["lifting.segments"] = segments
    metrics["serialize.bytes_written"] = written
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    return metrics, tracer


# -- entry -----------------------------------------------------------------

def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "pathlift" / "cli.py").is_file():
        print(f"error: no pathlift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{workload.name}-"))
    try:
        lib, ops, setup_s = set_up(workload, args.seed, work)
        runner = Runner(lib, ops)
        if args.trace:
            metrics, tracer = measure_per_layer(runner)
            units = PER_LAYER
        else:
            metrics = measure_end_to_end(runner, workload, args.seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.digests.json").write_text(json.dumps(
        [{"slot": s, "op": label, "sha256": d} for s, label, d in runner.digests], indent=1))
    if args.trace:
        tracer.write(OUT / f"{workload.name}.spans")

    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(runner.failures)
    correct = failed == 0 and (args.trace == 1 or set(units) <= set(metrics))
    print(f"workload {workload.name} seed {args.seed}: {runner.attempted} ops, "
          f"{failed} failed, reports sha256 {runner.reports_digest()}")
    if not args.trace:
        print(f"op_tail_ref is p{workload.tail_pct} of op latency")
    result = {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()}
    for name, entry in result.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
