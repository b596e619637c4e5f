"""Closed-form example hypersurfaces, grid-sampled immersions, and the JSON
schema of every operator input the CLI reads: spec, grid and matrix documents."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import GeometryError, GridError, SchemaError
from .jsonio import DECODE_ERRORS, load_path
from .limits import CATALOG_KINDS, MAX_DIMENSION, SPEC_FIELDS
from .shape import SYMMETRY_RTOL, ShapeOperator

#: Condition-number threshold above which the first fundamental form is
#: treated as degenerate.
METRIC_COND_LIMIT = 1e8


@dataclass(frozen=True)
class SurfaceSpec:
    """Closed-form catalog entry evaluated at a distinguished point."""

    kind: str
    n: int
    p: Optional[int] = None
    radius: Optional[float] = None
    hessian: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self):
        if self.kind not in CATALOG_KINDS:
            raise GeometryError(f"unknown catalog kind {self.kind!r}")
        required, optional = SPEC_FIELDS[self.kind]
        for name in ("n", "p", "radius", "hessian"):
            given = getattr(self, name) is not None
            if not given and name in required:
                raise GeometryError(f"field {name!r} missing for kind {self.kind!r}")
            if given and name not in required + optional:
                raise GeometryError(
                    f"field {name!r} does not apply to kind {self.kind!r}"
                )
        if not 2 <= self.n <= MAX_DIMENSION:
            raise GeometryError(f"dimension must satisfy 2 <= n <= {MAX_DIMENSION}, got {self.n}")
        if self.p is not None and not 1 <= self.p <= self.n - 1:
            raise GeometryError(
                f"spherical cylinder needs 1 <= p <= n-1, got p={self.p}, n={self.n}"
            )
        if self.radius is not None and not (math.isfinite(self.radius) and self.radius > 0):
            raise GeometryError(f"radius must be positive and finite, got {self.radius}")
        if self.hessian is not None and (
            len(self.hessian) != self.n or any(len(row) != self.n for row in self.hessian)
        ):
            raise GeometryError(
                f"graph hessian must be {self.n}x{self.n} to match n={self.n}"
            )

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "n": self.n}
        if self.p is not None:
            out["p"] = self.p
        if self.radius is not None:
            out["radius"] = self.radius
        if self.hessian is not None:
            out["hessian"] = [list(row) for row in self.hessian]
        return out


class ImmersionGrid:
    """Uniform lattice of samples of an immersion into (n+1)-space."""

    __slots__ = ("n", "h", "base", "shape", "points")

    def __init__(self, n: int, h, base, shape, points):
        if n < 2:
            raise GridError(f"parameter dimension must be >= 2, got {n}")
        h = tuple(float(x) for x in h)
        base = tuple(int(x) for x in base)
        shape = tuple(int(x) for x in shape)
        if len(h) != n or len(base) != n or len(shape) != n:
            raise GridError(
                f"h, base, shape must each have length n={n}; "
                f"got {len(h)}, {len(base)}, {len(shape)}"
            )
        if any(x <= 0 for x in h):
            raise GridError(f"grid spacings must be positive, got {h}")
        if any(x <= 0 for x in shape):
            raise GridError(f"grid shape entries must be positive, got {shape}")
        pts = np.array(points, dtype=float)
        expected = math.prod(shape) * (n + 1)
        if pts.size != expected:
            raise GridError(
                f"points array has {pts.size} values, expected {expected} "
                f"(prod(shape) * (n+1))"
            )
        pts = pts.reshape(*shape, n + 1)
        # every axis must admit a centered 5-point stencil around the base
        for axis in range(n):
            if base[axis] - 2 < 0 or base[axis] + 2 >= shape[axis]:
                raise GridError(
                    f"insufficient stencil on axis {axis}: base {base[axis]} "
                    f"needs two neighbors on each side within size {shape[axis]}"
                )
        pts.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "points", pts)

    def __setattr__(self, *_):  # pragma: no cover - guard
        raise AttributeError("ImmersionGrid is immutable")

    def at(self, offset: tuple[int, ...]) -> np.ndarray:
        index = tuple(b + o for b, o in zip(self.base, offset))
        return self.points[index]


# -- catalog ---------------------------------------------------------------------


def catalog_shape_operator(spec: SurfaceSpec) -> ShapeOperator:
    """Shape operator of a catalog surface at its distinguished point.

    Normals are oriented so the spherical cylinder has curvature +1/r on its
    curved directions; the round sphere then gets +1/r on every direction.
    """
    n = spec.n
    if spec.kind == "spherical-cylinder":
        diag = [1.0 / spec.radius] * spec.p + [0.0] * (n - spec.p)
        return ShapeOperator(np.diag(diag))
    if spec.kind == "round-sphere":
        return ShapeOperator(np.diag([1.0 / spec.radius] * n))
    if spec.kind == "hyperplane":
        return ShapeOperator(np.zeros((n, n)))
    if spec.kind == "graph":
        return ShapeOperator(np.array(spec.hessian, dtype=float))
    raise GeometryError(f"unknown catalog kind {spec.kind!r}")  # pragma: no cover


# -- grid ingestion -----------------------------------------------------------------


def shape_operator_from_grid(grid: ImmersionGrid) -> ShapeOperator:
    """Shape operator at the base point by O(h^2) central differences.

    Builds the first fundamental form from first differences, the second
    fundamental form from second differences against the unit normal, and
    returns the symmetrized operator I^(-1/2) * II * I^(-1/2), which is
    similar to I^(-1) * II.  The normal sign is chosen so the trace is
    nonnegative, matching the catalog's cylinder orientation.
    """
    n = grid.n
    h = grid.h

    def offset(steps: dict[int, int] | None = None) -> tuple[int, ...]:
        out = [0] * n
        for axis, step in (steps or {}).items():
            out[axis] = step
        return tuple(out)

    center = grid.at(offset())
    # differences of large samples over small spacings may overflow: a
    # non-finite metric is rejected here, a non-finite operator by ShapeOperator
    with np.errstate(all="ignore"):
        tangents = np.zeros((n + 1, n))
        for i in range(n):
            plus = grid.at(offset({i: +1}))
            minus = grid.at(offset({i: -1}))
            tangents[:, i] = (plus - minus) / (2.0 * h[i])

        metric = tangents.T @ tangents
        if not np.isfinite(metric).all():  # also when a tangent is not finite
            raise GridError("first fundamental form is not finite: the differences overflow")
        cond = float(np.linalg.cond(metric))
        if not np.isfinite(cond) or cond > METRIC_COND_LIMIT:
            raise GridError(
                f"first fundamental form is degenerate (condition number {cond:.3e})"
            )

        # unit normal: the column of the full orthonormal basis not spanned by
        # the tangents
        q_full, _ = np.linalg.qr(tangents, mode="complete")
        normal = q_full[:, n]

        second = np.zeros((n, n))
        for i in range(n):
            plus = grid.at(offset({i: +1}))
            minus = grid.at(offset({i: -1}))
            dd = (plus - 2.0 * center + minus) / (h[i] * h[i])
            second[i, i] = float(dd @ normal)
            for j in range(i + 1, n):
                pp = grid.at(offset({i: +1, j: +1}))
                pm = grid.at(offset({i: +1, j: -1}))
                mp = grid.at(offset({i: -1, j: +1}))
                mm = grid.at(offset({i: -1, j: -1}))
                dd = (pp - pm - mp + mm) / (4.0 * h[i] * h[j])
                second[i, j] = second[j, i] = float(dd @ normal)

        eigenvalues, vectors = np.linalg.eigh(metric)
        inv_sqrt = vectors @ np.diag(1.0 / np.sqrt(eigenvalues)) @ vectors.T
        operator = inv_sqrt @ second @ inv_sqrt
        operator = 0.5 * (operator + operator.T)
    if float(np.trace(operator)) < 0.0:
        operator = -operator
    return ShapeOperator(operator)


# -- JSON schemas ---------------------------------------------------------------------


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SchemaError(
            f"unknown field(s) {', '.join(repr(k) for k in unknown)} in {where}",
            positions=[f"$.{k}" for k in unknown],
        )


def _require(data: dict, keys: set[str], where: str) -> None:
    missing = sorted(keys - set(data))
    if missing:
        raise SchemaError(
            f"missing field(s) {', '.join(repr(k) for k in missing)} in {where}",
            positions=[f"$.{k}" for k in missing],
        )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """True for a JSON number, not a bool, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


#: Field -> (type check, what the field must be), for every scalar and list
#: field of the spec and grid documents; matrices go through ``_expect_matrix``.
_FIELD_TYPES = {
    "n": (_is_int, "an integer"),
    "p": (_is_int, "an integer"),
    "radius": (_is_finite_number, "a finite number"),
    "h": (_list_of(_is_finite_number), "a list of finite numbers"),
    "base": (_list_of(_is_int), "a list of integers"),
    "shape": (_list_of(_is_int), "a list of integers"),
    "points": (_list_of(_is_finite_number), "a list of finite numbers"),
}


def _expect_matrix(data: dict, key: str) -> np.ndarray:
    """A nonempty square symmetric matrix of finite numbers matching a declared ``n``."""
    rows = data[key]
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"field {key!r} must be a nonempty matrix", positions=[f"$.{key}"])
    size = len(rows)
    if size > MAX_DIMENSION:
        raise SchemaError(
            f"{key} must have at most {MAX_DIMENSION} rows, got {size}",
            positions=[f"$.{key}"],
        )
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != size:
            raise SchemaError(
                f"{key} row {i} must be a list of length {size}",
                positions=[f"$.{key}[{i}]"],
            )
        for j, value in enumerate(row):
            if not _is_finite_number(value):
                raise SchemaError(
                    f"{key} entry [{i}][{j}] must be a finite number",
                    positions=[f"$.{key}[{i}][{j}]"],
                )
    matrix = np.array(rows, dtype=float)
    scale = max(1.0, float(np.max(np.abs(matrix))))
    with np.errstate(over="ignore"):  # an infinite skew is still a skew
        skew = np.argwhere(np.abs(matrix - matrix.T) > SYMMETRY_RTOL * scale)
    if skew.size:
        i, j = skew[0]  # row-major first, so i < j
        raise SchemaError(
            f"{key} must be symmetric; entries [{i}][{j}] and [{j}][{i}] differ",
            positions=[f"$.{key}[{i}][{j}]", f"$.{key}[{j}][{i}]"],
        )
    declared_n = data.get("n", size)
    if declared_n != size:
        raise SchemaError(
            f"declared n={declared_n} does not match {key} size {size}",
            positions=["$.n"],
        )
    return matrix


def _parse_fields(data: dict, required, optional, where: str) -> dict:
    """Check the field names of ``data`` and the type of each field present.

    Returns the fields other than ``kind``, with a matrix field as an array.
    """
    _require(data, set(required), where)
    _reject_unknown(data, {*required, *optional}, where)
    for key, (check, what) in _FIELD_TYPES.items():
        if key in data and not check(data[key]):
            raise SchemaError(f"field {key!r} must be {what}", positions=[f"$.{key}"])
    fields = {key: value for key, value in data.items() if key != "kind"}
    for key in ("hessian", "matrix"):
        if key in data:
            fields[key] = _expect_matrix(data, key)
    return fields


def parse_surface_spec(data: dict) -> SurfaceSpec:
    """Validate a surface spec document (a spec file or ``catalog --kind`` flags)."""
    kind = data.get("kind")
    if kind not in CATALOG_KINDS:
        raise SchemaError(
            f"unknown catalog kind {kind!r}; expected one of {CATALOG_KINDS}",
            positions=["$.kind"],
        )
    required, optional = SPEC_FIELDS[kind]
    fields = _parse_fields(
        data, ("kind", *required), optional, f"surface spec of kind {kind!r}"
    )
    if "hessian" in fields:
        fields.setdefault("n", len(fields["hessian"]))
        fields["hessian"] = tuple(tuple(row) for row in fields["hessian"].tolist())
    try:
        return SurfaceSpec(kind=kind, **fields)
    except GeometryError as exc:
        raise SchemaError(str(exc), positions=["$"]) from exc


def _parse_grid(data: dict) -> ImmersionGrid:
    fields = _parse_fields(data, ("n", "h", "base", "shape", "points"), (), "immersion grid")
    try:
        return ImmersionGrid(**fields)
    except GridError as exc:
        raise SchemaError(str(exc), positions=["$"]) from exc


def parse_case(data) -> Union[SurfaceSpec, ImmersionGrid]:
    """Validate a parsed case document: a catalog surface spec or an immersion grid."""
    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object", positions=["$"])
    if "kind" in data:
        return parse_surface_spec(data)
    if "points" in data:
        return _parse_grid(data)
    raise SchemaError(
        "object is neither a surface spec (missing 'kind') nor a grid (missing 'points')",
        positions=["$"],
    )


def parse_matrix(data) -> ShapeOperator:
    """Validate a parsed matrix document ``{"n": N, "matrix": [[...]]}``."""
    if not isinstance(data, dict):
        raise SchemaError("matrix file must hold a JSON object", positions=["$"])
    fields = _parse_fields(data, ("matrix",), ("n",), "matrix file")
    return ShapeOperator(fields["matrix"])


def load_case(path) -> Union[SurfaceSpec, ImmersionGrid]:
    """Load either a catalog surface spec or an immersion grid from JSON."""
    try:
        data = load_path(path)
    except DECODE_ERRORS as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}", positions=["$"]) from exc
    return parse_case(data)
