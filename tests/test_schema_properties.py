"""Property test: the document parsers raise only typed errors on any JSON value."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from deltahyp import GeometryError, SchemaError  # noqa: E402
from deltahyp.surfaces import (  # noqa: E402
    CATALOG_KINDS,
    _parse_grid,
    parse_case,
    parse_matrix,
    parse_surface_spec,
)

KEYS = st.sampled_from(
    ["kind", "n", "p", "radius", "hessian", "matrix", "h", "base", "shape", "points", "zz"]
)
EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, 1e308, -1, 0, True, False])
NUMBERS = st.one_of(st.floats(-10, 10), st.integers(-3, 6), EXTREMES)
SCALARS = st.one_of(
    NUMBERS, st.none(), st.sampled_from(CATALOG_KINDS), st.text(max_size=3)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=20,
)


@st.composite
def matrices(draw):
    size = draw(st.integers(0, 3))
    return [draw(st.lists(NUMBERS, min_size=size, max_size=size)) for _ in range(size)]


@st.composite
def grids(draw):
    """Grids whose point count matches ``prod(shape) * (n + 1)`` whenever that is small."""
    n = draw(st.integers(-1, 3))
    shape = draw(st.lists(st.integers(-6, 6), max_size=3))
    count = math.prod(shape) * (n + 1)
    if not 0 <= count <= 200:
        count = draw(st.integers(0, 5))
    return {
        "n": n,
        "h": draw(st.lists(NUMBERS, max_size=3)),
        "base": draw(st.lists(st.integers(-3, 5), max_size=3)),
        "shape": shape,
        "points": draw(st.lists(NUMBERS, min_size=count, max_size=count)),
    }


DOCUMENTS = st.one_of(
    st.dictionaries(KEYS, VALUES, max_size=6),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(CATALOG_KINDS), "hessian": matrices()},
        optional={"n": NUMBERS, "p": NUMBERS, "radius": NUMBERS},
    ),
    st.fixed_dictionaries({"matrix": matrices()}, optional={"n": NUMBERS}),
    grids(),
    VALUES,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_parsers_raise_only_typed_errors(doc):
    parsers = [parse_case, parse_matrix]
    if isinstance(doc, dict):
        parsers += [parse_surface_spec, _parse_grid]
    for parse in parsers:
        try:
            parse(doc)
        except (SchemaError, GeometryError):
            pass
