"""JSON schemas for every artifact, with rationals as "p/q" strings.

No floating point appears anywhere in I/O.  Writers emit keys in a
fixed order and indent-2 text ending in one newline, so identical
values serialize byte-identically and outputs are golden-file friendly.
Readers parse each "p/q" to an integer pair: a space, a weight list and
a variable's blocks are each scaled to integers over the lcm of their
denominators and handed to one validating constructor, with no
``Fraction`` built; times and tolerances are read as ``Fraction``s.
The text is ``json.dumps(obj, indent=2)``'s, built in one recursive pass
into a list of strings: strings go through json's C encoder
``encode_basestring_ascii``, a list of strings is one join, and other
scalars take ``json.dumps``.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
import tempfile
from contextvars import ContextVar
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .cube import CubeInterpolation
from .errors import PreconditionError
from .lifting import Certificate, LiftedPath, PolygonalPath, SampledPath
from .randomvars import SimpleRandomVariable
from .spaces import FiniteMetricSpace, Measure

_FRACTION_RE = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _text(num: int, den: int) -> str:
    try:
        return f"{num}/{den}"
    except ValueError:  # an integer past the interpreter's str() digit limit
        raise PreconditionError("result has too many digits to write") from None


def frac_str(x: Fraction) -> str:
    return _text(x.numerator, x.denominator)


def ratio_str(num: int, den: int) -> str:
    """frac_str(Fraction(num, den)), reduced by the gcd without a Fraction."""
    g = math.gcd(num, den)
    return _text(num // g, den // g)


def _ratio(text: Any) -> tuple[int, int]:
    """The integers p and q > 0 of a "p/q" string, as written."""
    if not isinstance(text, str) or not (match := _FRACTION_RE.fullmatch(text)):
        raise PreconditionError(f'rational expected as "p/q" string, got {text!r}')
    try:
        num, den = int(match[1]), int(match[2])
    except ValueError:  # more digits than int() converts
        raise PreconditionError(f"too many digits in rational {text[:20]}...") from None
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


def _space_of(obj: Any, kind: str, *keys: str) -> FiniteMetricSpace:
    """The space of a document of this kind, a dict holding "space" and keys."""
    if not isinstance(obj, dict) or not {"space", *keys} <= obj.keys():
        shape = ", ".join(f'"{key}": ...' for key in ("space", *keys))
        raise PreconditionError(f"{kind} must be {{{shape}}}")
    return space_from_obj(obj["space"])


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
    return weights_from_obj(_space_of(obj, "measure", "weights"), obj["weights"])


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
    return rv_from_blocks_obj(_space_of(obj, "random variable", "blocks"), obj["blocks"])


def endpoints_from_obj(obj: Any) -> tuple[SimpleRandomVariable, SimpleRandomVariable]:
    """Read the start and end variables of a path, on one space."""
    space = _space_of(obj, "endpoints", "start", "end")
    return rv_from_blocks_obj(space, obj["start"]), rv_from_blocks_obj(space, obj["end"])


# -- measure paths and cube corners -----------------------------------

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
    breakpoints/vertices, its declared modulus checked once by ``from_polygonal``.
    """
    space = _space_of(obj, "path", "kind")
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
        return SampledPath.from_polygonal(backbone, lipschitz)
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


def interpolation_from_obj(obj: Any) -> CubeInterpolation:
    """Read the corner measures of a cube interpolation."""
    space = _space_of(obj, "corners", "corners")
    if not isinstance(obj["corners"], list):
        raise PreconditionError('"corners" must be a list of weight lists')
    return CubeInterpolation(space, tuple(weights_from_obj(space, w) for w in obj["corners"]))


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
    space = _space_of(obj, "lift", "segments")
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
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte.  A dict key
    that is not a ``str`` raises ``TypeError``."""
    out: list[str] = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(value: Any, pad: str, out: list[str]) -> None:
    """Append the indent-2 text of value, whose line starts with pad, to out."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        if all(isinstance(item, str) for item in value):
            out.append("[" + inner + ("," + inner).join(map(_quote, value)) + pad + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + _quote(key) + ": ")
            _encode(item, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    else:  # int, bool, None, and the empty list or dict
        out.append(json.dumps(value))


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
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer longer than int() converts, or nested too deeply
        raise PreconditionError(f"{path}: {exc}") from exc


def write_json_atomic(path: str, obj: Any) -> None:
    """Write obj as JSON to a temporary file renamed over path, or over the
    file a symlink at path names, so no reader sees half a report.  An existing
    path that is not a regular file (a FIFO, a device) is written in place."""
    target = os.path.realpath(path)
    umask = os.umask(0)  # read by setting and restoring: the CLI is single-threaded
    os.umask(umask)
    try:
        try:
            in_place = not stat.S_ISREG(os.stat(path).st_mode)
        except OSError:
            in_place = False  # a new path; any other fault is reported below
        if in_place:
            with open(path, "w", encoding="utf-8") as out:
                out.write(dumps(obj))
            return
        handle, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as out:
                os.chmod(tmp, 0o666 & ~umask)  # the mode open() gives, not mkstemp's 0600
                out.write(dumps(obj))
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise PreconditionError(f"{path}: {exc.strerror or exc}") from exc
