"""JSON file formats and canonical report serialization.

Rationals travel as strings "p/q" (or "p" for integers) and are parsed
exactly; floats are rejected wherever exactness matters.  Canonical dumps
sort keys and use compact separators so identical inputs and seeds produce
byte-identical reports.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .cones import PolyhedralCone, cone_from_facets, cone_from_generators
from .errors import ParseError
from .iso import (
    AffineIso,
    AffineMap,
    ComposeIso,
    DiagonalIso,
    IsoSpec,
    LinearIso,
    MonotoneBijection,
    OddPowerMap,
    PiecewiseLinearMap,
    ProductLiftIso,
    compose_isos,
    make_affine_iso,
    make_diagonal_iso,
    make_linear_iso,
    make_product_lift,
)
from .linalg import MAX_RATIONAL_DIGITS, frac
from .order import InfSupExpr, inf_expr, leaf, sup_expr
from .psd import SymMatrix


def parse_rational(x) -> Fraction:
    """A JSON int or rational string, read by ``linalg.frac``."""
    if isinstance(x, bool):
        raise ParseError(f"expected a rational, got {x!r}")
    if isinstance(x, (int, str)):
        try:
            return frac(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {x!r}") from exc
    if isinstance(x, float):
        raise ParseError(f"floats are not exact; write {x!r} as a 'p/q' string")
    raise ParseError(f"expected a rational, got {type(x).__name__}")


def fmt_rational(q: Fraction) -> str:
    """"p/q", or "p" for an integer; a ValueError that names the limit when
    p or q has more digits than the interpreter prints."""
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError as exc:
        raise ValueError(f"a report value has more than {MAX_RATIONAL_DIGITS} digits "
                         "(linalg.MAX_RATIONAL_DIGITS)") from exc


def parse_vec(obj) -> tuple[Fraction, ...]:
    if not isinstance(obj, list):
        raise ParseError("vector must be a JSON list")
    return tuple(parse_rational(x) for x in obj)


def vec_to_json(v) -> list[str]:
    return [fmt_rational(c) for c in v]


def _reject_unknown(obj: dict, allowed: set[str], what: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown fields in {what}: {sorted(unknown)}")


def _typed(x, kind: type, what: str):
    """x; ParseError unless it is a JSON ``kind`` (a bool is no int)."""
    if not isinstance(x, kind) or (kind is int and isinstance(x, bool)):
        raise ParseError(f"{what} must be a JSON {kind.__name__}")
    return x


def _field(obj: dict, key: str, what: str, kind: type = object):
    """obj[key]; ParseError when it is missing or is not a ``kind``."""
    if key not in obj:
        raise ParseError(f"{what} needs {key!r}")
    return _typed(obj[key], kind, f"{key!r} of {what}")


def _single_key(obj, what: str):
    """The (key, value) of a single-key object; ParseError for anything else."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParseError(f"{what} must be a single-key object")
    return next(iter(obj.items()))


# A cone builds dim x dim exact matrices (a lineality basis, an
# elimination) even from no generators, so a short file must not name a
# huge dim.  Every test and benchmark cone has dim at most 7.
MAX_DIM = 256


def parse_cone(obj) -> PolyhedralCone:
    """Cone file: {"dim": d, "generators": [...]} or {"dim": d, "facets": [...]},
    with 1 <= d <= MAX_DIM."""
    _reject_unknown(obj, {"dim", "generators", "facets"}, "cone")
    dim = _field(obj, "dim", "cone", int)
    if dim < 1:
        raise ParseError("cone needs a positive integer 'dim'")
    if dim > MAX_DIM:
        raise ParseError(f"cone dim {dim} exceeds the limit {MAX_DIM}")
    has_g = "generators" in obj
    if has_g == ("facets" in obj):
        raise ParseError("cone needs exactly one of 'generators' or 'facets'")
    vecs = _field(obj, "generators" if has_g else "facets", "cone", list)
    return (cone_from_generators if has_g else cone_from_facets)(dim, [parse_vec(v) for v in vecs])


def cone_to_json(cone: PolyhedralCone) -> dict:
    return {"dim": cone.dim, "generators": [vec_to_json(g) for g in cone.generators]}


def cone_report(cone: PolyhedralCone) -> dict:
    return {
        **cone_to_json(cone),
        "facets": [vec_to_json(f) for f in cone.facets],
        "pointed": cone.pointed,
        "generating": cone.generating,
    }


# Parsing and evaluation recurse per nesting level (eval_infsup takes two
# frames a level), so the depth is bounded well inside the interpreter's
# default recursion limit of 1000.
MAX_EXPR_DEPTH = 400


def parse_expr(obj) -> InfSupExpr:
    """Expression file: nested {"sup": [...]}, {"inf": [...]}, {"leaf": [...]},
    with at most MAX_EXPR_DEPTH sup/inf nodes on any path to a leaf."""
    return _parse_expr(obj, MAX_EXPR_DEPTH)


def _parse_expr(obj, depth_left: int) -> InfSupExpr:
    key, val = _single_key(obj, "expression node")
    if key == "leaf":
        return leaf(parse_vec(val))
    if key in ("sup", "inf"):
        if not isinstance(val, list) or not val:
            raise ParseError(f"'{key}' needs a nonempty list of children")
        if depth_left == 0:
            raise ParseError(f"expression nests more than {MAX_EXPR_DEPTH} sup/inf nodes deep")
        children = [_parse_expr(c, depth_left - 1) for c in val]
        return sup_expr(*children) if key == "sup" else inf_expr(*children)
    raise ParseError(f"unknown expression node {key!r}")


def expr_to_json(e: InfSupExpr) -> dict:
    if e.kind == "leaf":
        return {"leaf": vec_to_json(e.vec)}
    return {e.kind: [expr_to_json(c) for c in e.children]}


# An odd power multiplies the digits of its argument by the exponent, and
# far above this one, reports hit the interpreter's limit on the digits of
# an int printed in decimal.
MAX_ODD_POWER = 999


def parse_bijection(obj) -> MonotoneBijection:
    key, val = _single_key(obj, "bijection")
    if key == "affine":
        _reject_unknown(val, {"slope", "intercept"}, "affine bijection")
        return AffineMap(parse_rational(_field(val, "slope", "affine bijection")),
                         parse_rational(val.get("intercept", 0)))
    if key == "piecewise":
        _reject_unknown(val, {"breakpoints"}, "piecewise bijection")
        bps = [parse_vec(bp) for bp in _field(val, "breakpoints", "piecewise bijection", list)]
        if any(len(bp) != 2 for bp in bps):
            raise ParseError("each breakpoint must be a [t, value] pair")
        return PiecewiseLinearMap(tuple(bps))
    if key == "odd_power":
        exponent = _typed(val, int, "odd_power exponent")
        if exponent > MAX_ODD_POWER:
            raise ParseError(f"odd_power exponent {exponent} exceeds the limit {MAX_ODD_POWER}")
        return OddPowerMap(exponent)
    raise ParseError(f"unknown bijection kind {key!r}")


def bijection_to_json(m: MonotoneBijection) -> dict:
    if isinstance(m, AffineMap):
        return {"affine": {"slope": fmt_rational(m.slope),
                           "intercept": fmt_rational(m.intercept)}}
    if isinstance(m, PiecewiseLinearMap):
        return {"piecewise": {"breakpoints": [[fmt_rational(a), fmt_rational(b)]
                                              for a, b in m.breakpoints]}}
    if isinstance(m, OddPowerMap):
        return {"odd_power": m.exponent}
    raise TypeError(f"unknown bijection {type(m).__name__}")


# Checking a spec recurses a few frames per nesting level (a certified
# composition certifies its parts in a generator), so the depth is bounded
# well inside the interpreter's default recursion limit of 1000; a spec
# nested this deep still runs check-iso to the end.
MAX_ISO_DEPTH = 100


def cone_key(obj) -> str:
    """The text that identifies a cone JSON object to ``parse_iso``.

    JSON text, not ``==``: 2 == 2.0 == True in Python, and a cone with
    "dim": 2.0 or a true entry must still be refused, not read as the cone
    with 2 or 1.  RecursionError for an object nested past the stack."""
    return json.dumps(obj, sort_keys=True)


def parse_iso(obj, cones: dict[str, PolyhedralCone] | None = None) -> IsoSpec:
    """Iso spec file mirroring the kind tree, validated on construction, with
    at most MAX_ISO_DEPTH specs on any path from the root to a leaf spec.

    Each distinct cone JSON in the spec is built once per call: the cone
    fields are read through a table from ``cone_key`` to built cone, which
    ``cones`` seeds with cones the caller has built already."""
    return _parse_iso(obj, MAX_ISO_DEPTH, dict(cones or {}))


def _cone(obj, cones: dict[str, PolyhedralCone]) -> PolyhedralCone:
    """parse_cone(obj), built only when its key is not in the table."""
    try:
        key = cone_key(obj)
    except RecursionError:  # far too deep to be a cone: parse_cone says why
        return parse_cone(obj)
    if key not in cones:
        cones[key] = parse_cone(obj)
    return cones[key]


def _parse_iso(obj, depth_left: int, cones: dict[str, PolyhedralCone]) -> IsoSpec:
    if depth_left == 0:
        raise ParseError(f"iso spec nests more than {MAX_ISO_DEPTH} specs deep")
    key, val = _single_key(obj, "iso spec")
    if key == "linear":
        what = "linear iso"
        _reject_unknown(val, {"matrix", "source", "target"}, what)
        matrix = [parse_vec(r) for r in _field(val, "matrix", what, list)]
        return make_linear_iso(matrix, _cone(_field(val, "source", what), cones),
                               _cone(_field(val, "target", what), cones))
    if key == "affine":
        what = "affine iso"
        _reject_unknown(val, {"linear", "source_base", "target_base"}, what)
        return make_affine_iso(_parse_iso(_field(val, "linear", what), depth_left - 1, cones),
                               parse_vec(_field(val, "source_base", what)),
                               parse_vec(_field(val, "target_base", what)))
    if key == "diagonal":
        what = "diagonal iso"
        _reject_unknown(val, {"source", "target_frame", "maps"}, what)
        return make_diagonal_iso(_cone(_field(val, "source", what), cones),
                                 [parse_vec(w) for w in _field(val, "target_frame", what, list)],
                                 [parse_bijection(m) for m in _field(val, "maps", what, list)])
    if key == "product_lift":
        what = "product lift"
        _reject_unknown(val, {"cone", "ray_index", "ray_map", "sub"}, what)
        ray_index = _field(val, "ray_index", what, int)
        return make_product_lift(_cone(_field(val, "cone", what), cones), ray_index,
                                 parse_bijection(_field(val, "ray_map", what)),
                                 _parse_iso(_field(val, "sub", what), depth_left - 1, cones))
    if key == "compose":
        if not isinstance(val, list) or not val:
            raise ParseError("compose needs a nonempty list of specs")
        return compose_isos(*[_parse_iso(p, depth_left - 1, cones) for p in val])
    raise ParseError(f"unknown iso kind {key!r}")


def iso_to_json(spec: IsoSpec) -> dict:
    """The iso spec file of spec, which ``parse_iso`` reads back as the same
    map.  The file keeps a linear spec's matrix alone, and a diagonal's maps
    and target frame over its source cone's generators, so a ValueError
    names the reason for a spec that ``make_linear_iso`` or
    ``make_diagonal_iso`` would not rebuild: a linear or diagonal spec that
    is not certified, or a diagonal whose source frame is not its source
    cone's ``generators``."""
    if isinstance(spec, (LinearIso, DiagonalIso)) and not spec._certified():
        raise ValueError(f"{type(spec).__name__} is not certified; parse_iso would not rebuild it")
    if isinstance(spec, LinearIso):
        return {"linear": {"matrix": [vec_to_json(r) for r in spec.matrix],
                           "source": cone_to_json(spec.source_cone),
                           "target": cone_to_json(spec.target_cone)}}
    if isinstance(spec, AffineIso):
        return {"affine": {"linear": iso_to_json(spec.inner),
                           "source_base": vec_to_json(spec.source_base),
                           "target_base": vec_to_json(spec.target_base)}}
    if isinstance(spec, DiagonalIso):
        if spec.source_frame != spec.source_cone.generators:
            raise ValueError("DiagonalIso source frame is not its source cone's generators")
        return {"diagonal": {"source": cone_to_json(spec.source_cone),
                             "target_frame": [vec_to_json(w) for w in spec.target_frame],
                             "maps": [bijection_to_json(m) for m in spec.maps]}}
    if isinstance(spec, ProductLiftIso):
        return {"product_lift": {"cone": cone_to_json(spec.source_cone),
                                 "ray_index": spec.ray_index,
                                 "ray_map": bijection_to_json(spec.ray_map),
                                 "sub": iso_to_json(spec.sub)}}
    if isinstance(spec, ComposeIso):
        return {"compose": [iso_to_json(p) for p in spec.parts]}
    raise TypeError(f"unknown iso spec {type(spec).__name__}")


def parse_points(obj) -> list[tuple[Fraction, ...]]:
    _reject_unknown(obj, {"points"}, "points file")
    return [parse_vec(p) for p in _field(obj, "points", "points file", list)]


def parse_matrix(obj) -> SymMatrix:
    """Matrix file: {"n": n, "rows": [[...float...]]}."""
    _reject_unknown(obj, {"n", "rows"}, "matrix")
    n = _field(obj, "n", "matrix", int)
    rows = _field(obj, "rows", "matrix", list)
    if len(rows) != n:
        raise ParseError("'rows' must be an n x n array")
    try:
        return SymMatrix(rows)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"bad matrix rows: {exc}") from exc


def matrix_to_json(m: SymMatrix) -> dict:
    return {"n": m.n, "rows": [[float(x) for x in row] for row in m.array]}


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"cannot read {path}: JSON nested too deep") from exc
