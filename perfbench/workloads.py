"""Seeded inputs, op lists and per-op output checks for each workload.

A workload turns a seed into input files and a fixed list of ops; the
benchmark cycles through that list.  Each op is one CLI command
whose inputs come only from the generated files, and each op's report
is checked by a function that returns the reason for a failure, or None.

The sizes of every pass are fixed below and only the random contents
depend on the seed, so different seeds give passes of similar cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

# Criterion-8 pipeline settings: tolerance, rounds, certification grid.
LIFT_TOL = Fraction(1, 25)
LIFT_ITERS = 3
LIFT_GRID = 65

# One pipeline op per entry and pass: the piece lengths of the path's
# backbone over an odd prime denominator, so uniform approximation grids
# miss its breakpoints.  The modulus is denominator / shortest piece: 1,
# 13/5 or 7/2 (a single piece has modulus 1), giving ~50 to ~175 output
# segments.  Within a modulus the cost still varies by up to +-30% with
# the random measures, so a pass holds 48 distinct instances: a run
# covers 25 to 47 of them without repeating one, and its median rests on
# that many instances rather than on 16 seen twice.  Cheap and costly
# entries alternate, so a run that stops part-way through a pass still
# sees the whole mix.
_LADDER = ((1,), (5, 8), (2, 5), (8, 5), (1,), (5, 2), (5, 8), (2, 5))
PIPELINE_PIECES = _LADDER * 6

# One prokhorov op and one match op per entry and pass.  The subset
# oracle runs up to 16 points, so 10 exercises it and 24 and 28 exercise
# only the max-flow route; distances are nearly all distinct.  match at
# 24 points costs about as much as prokhorov at 28, and that band holds
# both the median and the tail percentile, so neither jumps between cost
# bands from one run to the next.
WIDE_SIZES = (10, 24, 28, 28, 24, 28, 24) * 2
WIDE_DIST_DEN = 2000

CUBE_OPS = 16
CUBE_SPACE = 5
CUBE_DIM = 3
CUBE_GRID = 5


@dataclass
class Op:
    """One CLI command; `check` maps its parsed report to a failure reason."""

    label: str
    argv: list[str]
    out: Path
    check: Callable[[dict], str | None]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    tail_pct: int  # highest percentile with >= 10 ops beyond it per run
    make_ops: Callable[[SimpleNamespace, random.Random, Path], list[Op]]


def _write(lib: SimpleNamespace, path: Path, doc: dict) -> str:
    path.write_text(lib.serialize.dumps(doc), encoding="utf-8")
    return str(path)


# -- pipeline ----------------------------------------------------------

def check_lift(report: dict) -> str | None:
    cert = report["certificate"]
    if Fraction(cert["max_law_gap"]) > LIFT_TOL:
        return f"max_law_gap {cert['max_law_gap']} > {LIFT_TOL}"
    if cert["endpoint_ok"] != [True, True]:
        return f"endpoint_ok {cert['endpoint_ok']}"
    eps = [LIFT_TOL * 5 ** (LIFT_ITERS - 1 - n) for n in range(LIFT_ITERS)]
    budgets = [5 * (eps[n - 1] + eps[n]) for n in range(1, LIFT_ITERS)]
    decay = [Fraction(d) for d in cert["decay_table"]]
    if len(decay) != len(budgets) or any(d > b for d, b in zip(decay, budgets)):
        return f"decay {cert['decay_table']} exceeds budgets {budgets}"
    return None


def pipeline_ops(lib, rng: random.Random, directory: Path, pieces=PIPELINE_PIECES) -> list[Op]:
    """Criterion-8 instances: a 3-point space, a sampled path through
    random measures, the canonical variable of its start and a random
    variable matched to its end."""
    gen, rv, ser = lib.gen, lib.randomvars, lib.serialize
    ops = []
    for k, lengths in enumerate(pieces):
        space = gen.rand_space(rng, 3)
        den, cuts = sum(lengths), [0]
        for length in lengths:
            cuts.append(cuts[-1] + length)
        bps = tuple(Fraction(c, den) for c in cuts)
        verts = tuple(gen.rand_measure(rng, space) for _ in bps)
        alpha = lib.lifting.SampledPath.from_polygonal(lib.lifting.PolygonalPath(space, bps, verts))
        x_start = rv.canonical_rv(alpha.eval(Fraction(0)))
        x_end = rv.match_to_law(gen.rand_rv(rng, space), alpha.eval(Fraction(1)))
        path = _write(lib, directory / f"path{k}.json", ser.sampled_to_obj(alpha))
        ends = _write(
            lib,
            directory / f"ends{k}.json",
            {
                "space": ser.space_to_obj(space),
                "start": ser.blocks_to_obj(x_start),
                "end": ser.blocks_to_obj(x_end),
            },
        )
        out = directory / f"lift{k}.out.json"
        argv = ["lift", path, ends, "--tol", str(LIFT_TOL), "--iters", str(LIFT_ITERS),
                "--grid", str(LIFT_GRID), "--out", str(out)]
        ops.append(Op(f"lift L={alpha.lipschitz}", argv, out, check_lift))
    return ops


# -- wide --------------------------------------------------------------

def wide_space(lib, rng: random.Random, size: int) -> dict:
    """Distances drawn from [1/2, 1] on a fine grid: the triangle
    inequality holds automatically and almost every distance is distinct.
    Written straight to JSON, so that set-up skips the O(m^3) check."""
    frac = lib.serialize.frac_str
    dist = [[frac(Fraction(0))] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d = Fraction(WIDE_DIST_DEN + rng.randint(0, WIDE_DIST_DEN), 2 * WIDE_DIST_DEN)
            dist[i][j] = dist[j][i] = frac(d)
    return {"points": [f"p{i:02d}" for i in range(size)], "dist": dist}


def wide_weights(rng: random.Random, size: int) -> list[Fraction]:
    """Random weights on a grid of 1/(24 m), as gen.rand_measure draws them."""
    den = 24 * size
    cuts = [0] + sorted(rng.randint(0, den) for _ in range(size - 1)) + [den]
    return [Fraction(hi - lo, den) for lo, hi in zip(cuts, cuts[1:])]


def wide_blocks(lib, rng: random.Random, points: list[str], weights: list[Fraction]) -> dict:
    """Blocks of a variable with these weights as its law: each point's
    mass in two pieces, laid out on [0, 1) in random order."""
    frac = lib.serialize.frac_str
    pieces = []
    for point, w in zip(points, weights):
        if w:
            first = w * Fraction(rng.randint(1, 3), 4)
            pieces += [(point, first), (point, w - first)]
    rng.shuffle(pieces)
    blocks: dict[str, list] = {point: [] for point in points}
    cursor = Fraction(0)
    for point, w in pieces:
        blocks[point].append([frac(cursor), frac(cursor + w)])
        cursor += w
    return blocks


def wide_ops(lib, rng: random.Random, directory: Path, sizes=WIDE_SIZES) -> list[Op]:
    ser = lib.serialize
    q_of_pair: dict[int, Fraction] = {}
    ops = []
    for k, size in enumerate(sizes):
        space = wide_space(lib, rng, size)
        mu, nu = wide_weights(rng, size), wide_weights(rng, size)
        blocks = wide_blocks(lib, rng, space["points"], mu)
        mu_path = _write(lib, directory / f"mu{k}.json",
                         {"space": space, "weights": [ser.frac_str(w) for w in mu]})
        nu_path = _write(lib, directory / f"nu{k}.json",
                         {"space": space, "weights": [ser.frac_str(w) for w in nu]})
        x_path = _write(lib, directory / f"x{k}.json", {"space": space, "blocks": blocks})

        def check_prokhorov(report, k=k):
            q = Fraction(report["q_coupling"])
            q_of_pair[k] = q
            if report["q_subsets"] is not None and Fraction(report["q_subsets"]) != q:
                return f"q_subsets {report['q_subsets']} != q_coupling {q}"
            return None

        def check_match(report, k=k):
            if report["law_matched"] is not True:
                return "law_matched is not true"
            if k not in q_of_pair:
                return "no prokhorov report for this pair"
            if Fraction(report["rho"]) != q_of_pair[k]:
                return f"rho {report['rho']} != q {q_of_pair[k]}"
            return None

        out = directory / f"prokhorov{k}.out.json"
        ops.append(Op(f"prokhorov m={size}", ["prokhorov", mu_path, nu_path, "--out", str(out)],
                      out, check_prokhorov))
        out = directory / f"match{k}.out.json"
        ops.append(Op(f"match m={size}", ["match", x_path, nu_path, "--out", str(out)],
                      out, check_match))
    return ops


# -- cube3 -------------------------------------------------------------

def check_cube(report: dict) -> str | None:
    if report["dimension"] != CUBE_DIM or len(report["law_gap"]) != CUBE_GRID ** CUBE_DIM:
        return f"unexpected cube shape {report['dimension']}, {len(report['law_gap'])}"
    bad = [g for g in report["law_gap"] if g != "0/1"]
    return f"{len(bad)} nonzero law gaps" if bad else None


def cube_ops(lib, rng: random.Random, directory: Path, count: int = CUBE_OPS) -> list[Op]:
    ser = lib.serialize
    ops = []
    for k in range(count):
        space = lib.gen.rand_space(rng, CUBE_SPACE)
        corners = [lib.gen.rand_measure(rng, space) for _ in range(CUBE_DIM + 1)]
        doc = {"space": ser.space_to_obj(space), "corners": [ser.weights_to_obj(c) for c in corners]}
        path = _write(lib, directory / f"corners{k}.json", doc)
        out = directory / f"cube{k}.out.json"
        ops.append(Op(f"cube #{k}", ["cube", path, "--grid", str(CUBE_GRID), "--out", str(out)],
                      out, check_cube))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline", 60, pipeline_ops),
        Workload("wide", 70, wide_ops),
        Workload("cube3", 60, cube_ops),
    )
}
