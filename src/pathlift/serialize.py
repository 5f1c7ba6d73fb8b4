"""JSON schemas for every artifact, with rationals as "p/q" strings.

No floating point appears anywhere in I/O.  Writers emit keys in a
fixed order and indent-2 text ending in one newline, so identical
values serialize byte-identically and outputs are golden-file friendly.
Readers parse each "p/q" to an integer pair: a space, a weight list and
a variable's blocks are each scaled to integers over the lcm of their
denominators and handed to one validating constructor, with no
``Fraction`` built; times and tolerances are read as ``Fraction``s.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from contextvars import ContextVar
from fractions import Fraction
from typing import Any

from .errors import PreconditionError
from .lifting import Certificate, LiftedPath, PolygonalPath, SampledPath
from .randomvars import SimpleRandomVariable
from .spaces import FiniteMetricSpace, Measure

_FRACTION_RE = re.compile(r"(-?[0-9]+)/([0-9]+)")


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def ratio_str(num: int, den: int) -> str:
    """frac_str(Fraction(num, den)), reduced by the gcd without a Fraction."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def _ratio(text: Any) -> tuple[int, int]:
    """The integers p and q > 0 of a "p/q" string, as written."""
    if not isinstance(text, str) or not (match := _FRACTION_RE.fullmatch(text)):
        raise PreconditionError(f'rational expected as "p/q" string, got {text!r}')
    num, den = int(match[1]), int(match[2])
    if den == 0:
        raise PreconditionError(f"zero denominator in {text!r}")
    return num, den


def parse_frac(text: Any) -> Fraction:
    return Fraction(*_ratio(text))


# -- spaces and measures ----------------------------------------------

def space_to_obj(space: FiniteMetricSpace) -> dict:
    return {
        "points": list(space.points),
        "dist": [[ratio_str(x, space.den) for x in row] for row in space.ints],
    }


# (document, space) pairs read by the running command, None outside one:
# JSON-equal documents parse to the same value or error, so they share one space.
SPACES_READ: ContextVar[list | None] = ContextVar("SPACES_READ", default=None)


def space_from_obj(obj: Any) -> FiniteMetricSpace:
    """Read the "space" entry of a document, on integers over the lcm of its denominators."""
    memo = SPACES_READ.get()
    for doc, space in memo or ():
        if doc == obj:
            return space
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise PreconditionError('space must be {"points": [...], "dist": [[...]]}')
    points = obj["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise PreconditionError("space points must be strings")
    rows = obj["dist"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise PreconditionError(f"space.dist must be a list of rows, got {rows!r}")
    pairs = [[_ratio(x) for x in row] for row in rows]
    den = math.lcm(*(q for row in pairs for _, q in row))
    ints = [[p * (den // q) for p, q in row] for row in pairs]
    g = math.gcd(den, *(x for row in ints for x in row))
    ints = tuple(tuple(x // g for x in row) for row in ints)
    space = FiniteMetricSpace(tuple(points), den // g, ints)
    if memo is not None:
        memo.append((obj, space))
    return space


def weights_to_obj(mu: Measure) -> list[str]:
    return [ratio_str(w, mu.den) for w in mu.nums]


def weights_from_obj(space: FiniteMetricSpace, obj: Any) -> Measure:
    """Read a weight list, on integers over the lcm of its denominators."""
    if not isinstance(obj, list):
        raise PreconditionError("weights must be a list of rationals")
    pairs = [_ratio(w) for w in obj]
    den = math.lcm(*(q for _, q in pairs))
    return Measure.reduced(space, den, [p * (den // q) for p, q in pairs])


def measure_to_obj(mu: Measure) -> dict:
    return {"space": space_to_obj(mu.space), "weights": weights_to_obj(mu)}


def measure_from_obj(obj: Any) -> Measure:
    if not isinstance(obj, dict) or "space" not in obj or "weights" not in obj:
        raise PreconditionError('measure must be {"space": ..., "weights": [...]}')
    space = space_from_obj(obj["space"])
    return weights_from_obj(space, obj["weights"])


# -- random variables -------------------------------------------------

def blocks_to_obj(x: SimpleRandomVariable) -> dict:
    """Each point's slabs in order: its canonical intervals, as adjacent slabs differ."""
    ends = [ratio_str(cut, x.den) for cut in x.cuts]
    obj: dict[str, list] = {point: [] for point in x.space.points}
    for k, label in enumerate(x.labels):
        obj[x.space.points[label]].append(ends[k:k + 2])
    return obj


def rv_from_blocks_obj(space: FiniteMetricSpace, obj: Any) -> SimpleRandomVariable:
    """Read per-point lists of [left, right] pairs, on integers over the lcm
    of their denominators.  Empty pairs are dropped; pairs of one point may
    overlap or touch; the pairs of different points must tile [0, 1)."""
    if not isinstance(obj, dict):
        raise PreconditionError("blocks must map point names to interval lists")
    unknown = set(obj) - set(space.points)
    if unknown:
        raise PreconditionError(f"blocks name unknown points {sorted(unknown)}")
    pairs = []  # (a, b, c, d, label): the piece [a/b, c/d) of point `label`
    for label, point in enumerate(space.points):
        items = obj.get(point, [])
        if not isinstance(items, list):
            raise PreconditionError("interval set must be a list of [left, right] pairs")
        ends = []
        for item in items:
            if not (isinstance(item, list) and len(item) == 2):
                raise PreconditionError(f"bad interval entry {item!r}")
            ends.append(_ratio(item[0]) + _ratio(item[1]))
        for a, b, c, d in ends:
            if a * d < c * b:
                if a < 0 or c > d:
                    raise PreconditionError(
                        f"interval [{Fraction(a, b)}, {Fraction(c, d)}) escapes [0, 1)"
                    )
                pairs.append((a, b, c, d, label))
    den = math.lcm(*(q for _, b, _, d, _ in pairs for q in (b, d)))
    pieces = sorted((a * (den // b), c * (den // d), label) for a, b, c, d, label in pairs)
    # a piece starts where the slabs so far end, or inside the last slab, of its own point
    end, slabs = 0, []
    for left, right, label in pieces:
        if left > end or (left < end and label != slabs[-1][1]):
            raise PreconditionError("blocks must partition [0, 1) exactly")
        end = max(end, right)
        slabs.append((end, label))
    if end != den:
        raise PreconditionError("blocks must partition [0, 1) exactly")
    return SimpleRandomVariable.from_slabs(space, den, slabs)


def rv_to_obj(x: SimpleRandomVariable) -> dict:
    return {"space": space_to_obj(x.space), "blocks": blocks_to_obj(x)}


def rv_from_obj(obj: Any) -> SimpleRandomVariable:
    if not isinstance(obj, dict) or "space" not in obj or "blocks" not in obj:
        raise PreconditionError('random variable must be {"space": ..., "blocks": ...}')
    return rv_from_blocks_obj(space_from_obj(obj["space"]), obj["blocks"])


# -- measure paths ----------------------------------------------------

def polygonal_to_obj(beta: PolygonalPath) -> dict:
    return {
        "space": space_to_obj(beta.space),
        "kind": "polygonal",
        "breakpoints": [frac_str(t) for t in beta.breakpoints],
        "vertices": [weights_to_obj(v) for v in beta.vertices],
    }


def path_from_obj(obj: Any) -> PolygonalPath | SampledPath:
    """Read a path file.

    kind "polygonal" needs breakpoints and vertices.  kind "sampled"
    additionally needs "lipschitz"; the path is the piecewise-affine
    interpolation of the "samples" table when present, else of
    breakpoints/vertices, spot-checked against the declared modulus.
    """
    if not isinstance(obj, dict) or "space" not in obj or "kind" not in obj:
        raise PreconditionError('path must carry "space" and "kind"')
    space = space_from_obj(obj["space"])
    kind = obj["kind"]

    def table_polygonal(bps_obj, verts_obj):
        for key, value in (("breakpoints", bps_obj), ("vertices", verts_obj)):
            if not isinstance(value, list):
                raise PreconditionError(f"path {key} must be a list, got {value!r}")
        bps = tuple(parse_frac(t) for t in bps_obj)
        verts = tuple(weights_from_obj(space, w) for w in verts_obj)
        return PolygonalPath(space, bps, verts)

    if kind == "polygonal":
        if "breakpoints" not in obj or "vertices" not in obj:
            raise PreconditionError("polygonal path needs breakpoints and vertices")
        return table_polygonal(obj["breakpoints"], obj["vertices"])
    if kind == "sampled":
        if "lipschitz" not in obj:
            raise PreconditionError("sampled path needs a declared lipschitz constant")
        lipschitz = parse_frac(obj["lipschitz"])
        if "samples" in obj:
            rows = obj["samples"]
            if not isinstance(rows, list) or not all(
                isinstance(r, list) and len(r) == 2 for r in rows
            ):
                raise PreconditionError("samples must be a list of [time, weights] rows")
            backbone = table_polygonal([r[0] for r in rows], [r[1] for r in rows])
        elif "breakpoints" in obj and "vertices" in obj:
            backbone = table_polygonal(obj["breakpoints"], obj["vertices"])
        else:
            raise PreconditionError("sampled path needs samples or breakpoints/vertices")
        return SampledPath(space, backbone.eval, lipschitz, backbone=backbone)
    raise PreconditionError(f'unknown path kind {kind!r}')


def sampled_to_obj(alpha: SampledPath) -> dict:
    backbone = alpha.backbone
    if backbone is None:
        raise PreconditionError("sampled path has no polygonal backbone")
    return {
        "space": space_to_obj(alpha.space),
        "kind": "sampled",
        "lipschitz": frac_str(alpha.lipschitz),
        "samples": [
            [frac_str(t), weights_to_obj(v)]
            for t, v in zip(backbone.breakpoints, backbone.vertices)
        ],
    }


# -- lifted paths ------------------------------------------------------

def lift_to_obj(lift: LiftedPath) -> dict:
    """One segment per piece; each vertex's blocks are encoded once, as y
    of the segment before it and x of the segment after it."""
    ts = [frac_str(t) for t in lift.breakpoints]
    xs = [blocks_to_obj(x) for x in lift.vertices]
    return {
        "space": space_to_obj(lift.space),
        "segments": [
            {"a": a, "b": b, "x": x, "y": y} for a, b, x, y in zip(ts, ts[1:], xs, xs[1:])
        ],
    }


def lift_from_obj(obj: Any) -> LiftedPath:
    if not isinstance(obj, dict) or "space" not in obj or "segments" not in obj:
        raise PreconditionError('lift must be {"space": ..., "segments": [...]}')
    space = space_from_obj(obj["space"])
    if not isinstance(obj["segments"], list):
        raise PreconditionError("segments must be a list")
    docs, segments = obj["segments"], []  # segments as (a, b, x, y)
    for k, seg in enumerate(docs):
        if not isinstance(seg, dict):
            raise PreconditionError(f"segments[{k}] must be an object")
        for key in ("a", "b", "x", "y"):
            if key not in seg:
                raise PreconditionError(f'segments[{k}] has no "{key}"')
        a, b = parse_frac(seg["a"]), parse_frac(seg["b"])
        shared = k and seg["x"] == docs[k - 1]["y"]  # JSON-equal blocks parse alike
        x = segments[-1][3] if shared else rv_from_blocks_obj(space, seg["x"])
        y = rv_from_blocks_obj(space, seg["y"])
        if not a < b:
            raise PreconditionError(f"empty segment [{a}, {b}]")
        segments.append((a, b, x, y))
    if not segments:
        raise PreconditionError("a lifted path needs at least one segment")
    if segments[0][0] != 0 or segments[-1][1] != 1:
        raise PreconditionError("lifted path must cover [0, 1]")
    for (_, b, _, y), (a, _, x, _) in zip(segments, segments[1:]):
        if b != a:
            raise PreconditionError("segments must tile [0, 1] contiguously")
        if y != x:
            raise PreconditionError("consecutive segments must share their vertex")
    breakpoints = (segments[0][0], *(b for _, b, _, _ in segments))
    return LiftedPath(space, breakpoints, (segments[0][2], *(y for _, _, _, y in segments)))


# -- certificates ------------------------------------------------------

def certificate_to_obj(cert: Certificate) -> dict:
    return {
        "grid": [frac_str(t) for t in cert.grid],
        "max_law_gap": frac_str(cert.max_law_gap),
        "continuity_table": [frac_str(x) for x in cert.continuity_table],
        "endpoint_ok": list(cert.endpoint_ok),
        "decay_table": [frac_str(x) for x in cert.decay_table],
    }


# -- files -------------------------------------------------------------

def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise PreconditionError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise PreconditionError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deeply
        raise PreconditionError(f"{path}: {exc}") from exc


def write_json_atomic(path: str, obj: Any) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    handle, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            out.write(dumps(obj))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
