"""Command-line front end.

Subcommands: prokhorov, kyfan, match, segment, lift, relift, verify,
cube, selftest.  All rationals in files and reports are "p/q" strings;
reports are deterministic, so identical inputs give byte-identical
outputs.  Exit codes: 0 success, 2 precondition violation (bad inputs
or unmet hypotheses), 3 internal invariant failure (always a bug).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .cube import CubeLift, cube_grid
from .errors import InvariantError, PreconditionError
from .lifting import (
    DEFAULT_GRID,
    PolygonalPath,
    decay_budgets,
    lift_path,
    lift_polygonal,
    relift_near,
    verify_lift,
)
from .prokhorov import (
    SUBSET_ORACLE_LIMIT,
    prokhorov,
    prokhorov_coupling,
    prokhorov_subsets,
)
from .randomvars import kyfan_rho, law, match_to_law
from .serialize import (
    SPACES_READ,
    blocks_to_obj,
    certificate_to_obj,
    dumps,
    endpoints_from_obj,
    frac_str,
    interpolation_from_obj,
    lift_from_obj,
    lift_to_obj,
    load_json,
    measure_from_obj,
    parse_frac,
    path_from_obj,
    ratio_str,
    rv_from_obj,
    write_json_atomic,
)
from .spaces import ONE, ZERO

MAX_CUBE_DIM = 3


def _emit(doc, out_path):
    if out_path:
        write_json_atomic(out_path, doc)
    else:
        sys.stdout.write(dumps(doc))


def _read(reader, path):
    """reader's value on the document at path, whose errors name the file."""
    obj = load_json(path)
    try:
        return reader(obj)
    except PreconditionError as exc:
        raise PreconditionError(f"{path}: {exc}") from None


def cmd_prokhorov(args):
    mu = _read(measure_from_obj, args.mu)
    nu = _read(measure_from_obj, args.nu)
    value, witness = prokhorov_coupling(mu, nu)
    doc = {"q_coupling": frac_str(value)}
    if mu.space.size <= SUBSET_ORACLE_LIMIT:
        oracle = prokhorov_subsets(mu, nu)
        doc["q_subsets"] = frac_str(oracle)
        doc["equal"] = oracle == value
        if oracle != value:
            raise InvariantError(
                f"coupling route gives {value}, subset route gives {oracle}"
            )
    else:
        doc["q_subsets"] = None
        doc["subsets_note"] = (
            f"oracle disabled: space has {mu.space.size} > "
            f"{SUBSET_ORACLE_LIMIT} points"
        )
    doc["coupling"] = [[ratio_str(x, witness.den) for x in row] for row in witness.ints]
    _emit(doc, args.out)
    return 0


def cmd_kyfan(args):
    x = _read(rv_from_obj, args.x)
    y = _read(rv_from_obj, args.y)
    _emit({"rho": frac_str(kyfan_rho(x, y))}, args.out)
    return 0


def cmd_match(args):
    x = _read(rv_from_obj, args.x)
    nu = _read(measure_from_obj, args.nu)
    y = match_to_law(x, nu)
    rho = kyfan_rho(x, y)
    doc = {
        "blocks": blocks_to_obj(y),
        "rho": frac_str(rho),
        "law_matched": law(y) == nu,
    }
    if law(y) != nu:
        raise InvariantError("matched variable misses the target law")
    _emit(doc, args.out)
    return 0


def _lift_exactly(beta, x_start, x_end, grid_n):
    """Lift a polygonal with both endpoint variables prescribed, verified:
    (lift, certificate, whether the lift is exact)."""
    lift = lift_polygonal(beta, x_start, x_end)
    cert = verify_lift(lift, beta, grid_n=grid_n, endpoints=(x_start, x_end))
    return lift, cert, cert.max_law_gap == ZERO and all(cert.endpoint_ok)


def _emit_lift(lift, cert, ok, out_path):
    _emit({"lift": lift_to_obj(lift), "certificate": certificate_to_obj(cert)}, out_path)
    return 0 if ok else 3


def cmd_segment(args):
    x = _read(rv_from_obj, args.x)
    y = _read(rv_from_obj, args.y)
    beta = PolygonalPath(x.space, (ZERO, ONE), (law(x), law(y)))
    return _emit_lift(*_lift_exactly(beta, x, y, args.grid), args.out)


def cmd_lift(args):
    target = _read(path_from_obj, args.path)
    x_start, x_end = _read(endpoints_from_obj, args.endpoints)
    if isinstance(target, PolygonalPath):
        return _emit_lift(*_lift_exactly(target, x_start, x_end, args.grid), args.out)
    tol = parse_frac(args.tol)
    lift, cert = lift_path(target, x_start, x_end, tol, args.iters, grid_n=args.grid)
    _, budgets = decay_budgets(tol, args.iters)
    ok = (
        cert.max_law_gap <= tol
        and all(cert.endpoint_ok)
        and all(d <= b for d, b in zip(cert.decay_table, budgets))
    )
    return _emit_lift(lift, cert, ok, args.out)


def cmd_relift(args):
    prev = _read(lift_from_obj, args.lift)
    target = _read(path_from_obj, args.path)
    if not isinstance(target, PolygonalPath):
        raise PreconditionError("relift expects a polygonal target path")
    eps = parse_frac(args.tol)
    relifted, drift = relift_near(prev, target, eps)
    ends = (prev.vertices[0], prev.vertices[-1])  # a relift keeps prev's endpoint variables
    cert = verify_lift(relifted, target, grid_n=args.grid, endpoints=ends, decay_table=(drift,))
    ok = cert.max_law_gap == ZERO and all(cert.endpoint_ok) and drift <= 5 * eps
    return _emit_lift(relifted, cert, ok, args.out)


def cmd_verify(args):
    tol = parse_frac(args.tol) if args.tol is not None else ZERO
    lift = _read(lift_from_obj, args.lift)
    target = _read(path_from_obj, args.path)
    cert = verify_lift(lift, target, grid_n=args.grid)
    _emit(certificate_to_obj(cert), args.out)
    ok = cert.max_law_gap <= tol and all(cert.endpoint_ok)
    return 0 if ok else 2


def cmd_cube(args):
    interp = _read(interpolation_from_obj, args.corners)
    if interp.dimension > MAX_CUBE_DIM:
        raise PreconditionError(
            f"cube dimension {interp.dimension} exceeds the cap {MAX_CUBE_DIM}"
        )
    points, gaps, adjacent = cube_grid(CubeLift(interp), args.grid)
    texts = [[frac_str(t) for t in point] for point in points]
    doc = {
        "dimension": interp.dimension,
        "grid_per_axis": args.grid,
        "points": texts,
        "law_gap": [frac_str(gap) for gap in gaps],
        "adjacent_rho": [
            {"from": texts[k], "to": texts[j], "rho": frac_str(rho)} for k, j, rho in adjacent
        ],
    }
    _emit(doc, args.out)
    return 3 if any(gaps) else 0


def cmd_selftest(args):
    from .selftest import run_selftest  # here, so no other command compiles the suites
    report, ok = run_selftest(args.seed)
    sys.stdout.write(report)
    return 0 if ok else 3


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves no
    state in it, and each build leaves its objects in reference cycles.
    It holds no handlers: ``main`` runs ``cmd_<command>`` of this module."""
    parser = argparse.ArgumentParser(
        prog="pathlift",
        description=(
            "Exact liftings of measure paths to random-variable paths, "
            "with verifiable certificates"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=False, iters=False, grid=None, seed=False, out=True):
        if tol:
            p.add_argument("--tol", default="1/25", help="rational tolerance, p/q")
        if iters:
            p.add_argument("--iters", type=int, default=3)
        if grid is not None:
            p.add_argument("--grid", type=int, default=grid)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("prokhorov", help="distance between two measures, both routes")
    p.add_argument("mu")
    p.add_argument("nu")
    common(p)

    p = sub.add_parser("kyfan", help="rho distance between two random variables")
    p.add_argument("x")
    p.add_argument("y")
    common(p)

    p = sub.add_parser("match", help="rearrange a variable to a target law")
    p.add_argument("x")
    p.add_argument("nu")
    common(p)

    p = sub.add_parser("segment", help="lift the segment joining two variables")
    p.add_argument("x")
    p.add_argument("y")
    common(p, grid=DEFAULT_GRID)

    p = sub.add_parser("lift", help="lift a measure path with prescribed endpoints")
    p.add_argument("path")
    p.add_argument("endpoints")
    common(p, tol=True, iters=True, grid=DEFAULT_GRID)

    p = sub.add_parser("relift", help="relift a polygonal near an existing lifting")
    p.add_argument("lift")
    p.add_argument("path")
    common(p, tol=True, grid=DEFAULT_GRID)

    p = sub.add_parser("verify", help="recompute the certificate of a lifting")
    p.add_argument("lift")
    p.add_argument("path")
    p.add_argument("--tol", default=None, help="allowed law gap, default exact")
    common(p, grid=DEFAULT_GRID)

    p = sub.add_parser("cube", help="lift a multi-affine corner interpolation")
    p.add_argument("corners")
    common(p, grid=9)

    p = sub.add_parser("selftest", help="run the randomized property suites")
    common(p, seed=True, out=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    token = SPACES_READ.set([])  # each distinct space document is read once per command
    try:
        return globals()[f"cmd_{args.command}"](args)  # looked up per call: a rebound cmd_* runs
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        SPACES_READ.reset(token)


if __name__ == "__main__":
    sys.exit(main())
