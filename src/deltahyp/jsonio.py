"""Canonical JSON serialization: sorted keys, 17-significant-digit floats.

Reports are compared byte-for-byte in golden tests, so this module renders
JSON itself instead of relying on library float formatting.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .poly import fraction_text

#: What decoding a JSON document from outside can raise: ValueError for bad
#: JSON or UTF-8 and for an overlong integer, RecursionError for deep nesting.
DECODE_ERRORS = (ValueError, RecursionError)


def _render_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    text = format(x, ".17g")
    return text


def _render(value, level: int) -> str:
    """JSON text of a report value: objects through ``to_json_dict``,
    ``Fraction``s as "p/q" strings, tuples as lists, NumPy values through
    ``tolist()`` (so NumPy need not be imported here)."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, int):
        return fraction_text(value)
    if isinstance(value, Fraction):
        return f'"{fraction_text(value)}"'
    if isinstance(value, float):
        return _render_float(value)
    pad = "  " * (level + 1)
    closing_pad = "  " * level
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_render(v, level + 1) for v in value]
        return "[\n" + ",\n".join(pad + s for s in items) + "\n" + closing_pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        parts = []
        for key in sorted(value):
            rendered = _render(value[key], level + 1)
            parts.append(pad + json.dumps(key, ensure_ascii=True) + ": " + rendered)
        return "{\n" + ",\n".join(parts) + "\n" + closing_pad + "}"
    if hasattr(value, "to_json_dict"):
        return _render(value.to_json_dict(), level)
    if hasattr(value, "tolist"):
        return _render(value.tolist(), level)
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def canonical_dumps(obj) -> str:
    """Deterministic JSON text for a report object."""
    return _render(obj, 0) + "\n"


def dump_path(path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def load_path(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
