"""Catalog surfaces, sampled immersion grids, and the JSON case schema."""

import json

import numpy as np
import pytest

from deltahyp import (
    GeometryError,
    GridError,
    SchemaError,
    ShapeOperator,
    SurfaceSpec,
    catalog_shape_operator,
    dump_path,
    load_case,
    load_path,
    shape_operator_from_grid,
)
from deltahyp.surfaces import ImmersionGrid


# -- helpers ----------------------------------------------------------------------


def cylinder_points(n, h, shape, radius=1.0):
    """Sample (cos u, sin u, x2, ..., xn) * radius chart around u = x_i = 0."""
    base = tuple(s // 2 for s in shape)
    pts = np.zeros(shape + (n + 1,))
    for idx in np.ndindex(*shape):
        coords = [(idx[k] - base[k]) * h for k in range(n)]
        u = coords[0]
        pts[idx] = [radius * np.cos(u), radius * np.sin(u)] + coords[1:]
    return pts.reshape(-1), base


def grid_json(n, h, shape, points, base):
    return {
        "n": n,
        "h": [h] * n,
        "base": list(base),
        "shape": list(shape),
        "points": [float(x) for x in points],
    }


def write_case(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# -- catalog -----------------------------------------------------------------------


class TestSurfaceSpec:
    def test_cylinder_requires_p_and_radius(self):
        with pytest.raises(GeometryError):
            SurfaceSpec(kind="spherical-cylinder", n=4, p=None, radius=1.0)
        with pytest.raises(GeometryError):
            SurfaceSpec(kind="spherical-cylinder", n=4, p=1, radius=None)

    def test_cylinder_p_range(self):
        with pytest.raises(GeometryError):
            SurfaceSpec(kind="spherical-cylinder", n=4, p=4, radius=1.0)
        with pytest.raises(GeometryError):
            SurfaceSpec(kind="spherical-cylinder", n=4, p=0, radius=1.0)

    def test_sphere_rejects_p(self):
        with pytest.raises(GeometryError):
            SurfaceSpec(kind="round-sphere", n=4, p=1, radius=1.0)

    def test_graph_requires_hessian(self):
        with pytest.raises(GeometryError):
            SurfaceSpec(kind="graph", n=3)

    def test_unknown_kind(self):
        with pytest.raises(GeometryError):
            SurfaceSpec(kind="torus", n=4)


class TestCatalogOperators:
    def test_cylinder_spectrum(self):
        spec = SurfaceSpec(kind="spherical-cylinder", n=4, p=2, radius=2.0)
        A = catalog_shape_operator(spec)
        assert np.allclose(sorted(A.eigenvalues()), [0.0, 0.0, 0.5, 0.5])

    def test_sphere_spectrum(self):
        spec = SurfaceSpec(kind="round-sphere", n=5, radius=4.0)
        A = catalog_shape_operator(spec)
        assert np.allclose(A.eigenvalues(), [0.25] * 5)

    def test_hyperplane_spectrum(self):
        spec = SurfaceSpec(kind="hyperplane", n=3)
        A = catalog_shape_operator(spec)
        assert np.allclose(A.matrix, 0.0)

    def test_graph_operator_at_origin(self):
        hessian = ((1.0, 0.0), (0.0, 2.0))
        spec = SurfaceSpec(kind="graph", n=2, hessian=hessian)
        A = catalog_shape_operator(spec)
        # at the critical point of the graph, A equals the Hessian
        assert np.allclose(A.matrix, np.array(hessian))


# -- grids --------------------------------------------------------------------------


class TestImmersionGrid:
    def test_stencil_bounds_validated(self):
        points = np.zeros(5 * 5 * 3)
        with pytest.raises(GridError):
            ImmersionGrid(
                n=2, h=(0.1, 0.1), base=(0, 2), shape=(5, 5), points=points
            )

    def test_point_count_validated(self):
        with pytest.raises(GridError):
            ImmersionGrid(
                n=2, h=(0.1, 0.1), base=(2, 2), shape=(5, 5), points=np.zeros(10)
            )

    def test_positive_spacing_required(self):
        with pytest.raises(GridError):
            ImmersionGrid(
                n=2,
                h=(0.1, -0.1),
                base=(2, 2),
                shape=(5, 5),
                points=np.zeros(5 * 5 * 3),
            )


class TestGridShapeOperator:
    def test_cylinder_chart(self):
        n, h = 4, 1e-3
        shape = (5, 5, 5, 5)
        points, base = cylinder_points(n, h, shape)
        grid = ImmersionGrid(
            n=n, h=(h,) * n, base=base, shape=shape, points=points
        )
        A = shape_operator_from_grid(grid)
        lam = np.sort(np.abs(A.eigenvalues()))
        assert np.max(np.abs(lam - np.array([0, 0, 0, 1.0]))) <= 1e-4

    def test_quadratic_graph(self):
        n, h = 4, 1e-3
        shape = (5, 5, 5, 5)
        base = (2, 2, 2, 2)
        diag = np.array([1.0, 2.0, 3.0, 6.0])
        pts = np.zeros(shape + (n + 1,))
        for idx in np.ndindex(*shape):
            x = (np.array(idx) - np.array(base)) * h
            pts[idx] = list(x) + [0.5 * float(np.dot(diag * x, x))]
        grid = ImmersionGrid(
            n=n, h=(h,) * n, base=base, shape=shape, points=pts.reshape(-1)
        )
        A = shape_operator_from_grid(grid)
        assert np.max(np.abs(np.sort(A.eigenvalues()) - diag)) <= 1e-4

    def test_quadratic_convergence(self):
        errors = []
        for h in (1e-2, 5e-3, 2.5e-3):
            points, base = cylinder_points(4, h, (5, 5, 5, 5))
            grid = ImmersionGrid(
                n=4, h=(h,) * 4, base=base, shape=(5, 5, 5, 5), points=points
            )
            A = shape_operator_from_grid(grid)
            lam = np.sort(np.abs(A.eigenvalues()))
            errors.append(np.max(np.abs(lam - np.array([0, 0, 0, 1.0]))))
        ratio1 = errors[0] / errors[1]
        ratio2 = errors[1] / errors[2]
        assert 3.5 <= ratio1 <= 4.5
        assert 3.5 <= ratio2 <= 4.5

    def test_degenerate_metric_rejected(self):
        # tangent vectors nearly parallel: condition number blows past the cap
        n, h = 2, 1e-2
        shape = (5, 5)
        base = (2, 2)
        pts = np.zeros(shape + (3,))
        for idx in np.ndindex(*shape):
            x = (np.array(idx) - np.array(base)) * h
            pts[idx] = [x[0], x[0] + 1e-12 * x[1], 0.0]
        grid = ImmersionGrid(
            n=n, h=(h,) * n, base=base, shape=shape, points=pts.reshape(-1)
        )
        with pytest.raises(GridError):
            shape_operator_from_grid(grid)


# -- JSON schema -------------------------------------------------------------------


class TestCaseSchema:
    def test_load_spec(self, tmp_path):
        path = write_case(
            tmp_path,
            "spec.json",
            {"kind": "spherical-cylinder", "n": 4, "p": 1, "radius": 1.0},
        )
        case = load_case(path)
        assert isinstance(case, SurfaceSpec)
        assert case.p == 1

    def test_load_grid(self, tmp_path):
        points, base = cylinder_points(2, 1e-2, (5, 5))
        path = write_case(
            tmp_path, "grid.json", grid_json(2, 1e-2, (5, 5), points, base)
        )
        case = load_case(path)
        assert isinstance(case, ImmersionGrid)

    def test_unknown_field_position(self, tmp_path):
        path = write_case(
            tmp_path,
            "bad.json",
            {"kind": "round-sphere", "n": 4, "radius": 1.0, "color": "red"},
        )
        with pytest.raises(SchemaError) as err:
            load_case(path)
        assert "$.color" in err.value.positions

    def test_asymmetric_hessian_position(self, tmp_path):
        path = write_case(
            tmp_path,
            "hess.json",
            {"kind": "graph", "n": 2, "hessian": [[1.0, 0.5], [0.0, 2.0]]},
        )
        with pytest.raises(SchemaError) as err:
            load_case(path)
        assert any("hessian" in pos for pos in err.value.positions)

    def test_bool_is_not_a_number(self, tmp_path):
        path = write_case(
            tmp_path,
            "bool.json",
            {"kind": "round-sphere", "n": 4, "radius": True},
        )
        with pytest.raises(SchemaError):
            load_case(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_case(path)

    def test_neither_spec_nor_grid(self, tmp_path):
        path = write_case(tmp_path, "what.json", {"hello": 1})
        with pytest.raises(SchemaError):
            load_case(path)


class TestReportRoundTrip:
    def test_save_and_load(self, tmp_path):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0, 6.0]))
        payload = {"operator": A.to_json_dict(), "note": "round trip"}
        path = tmp_path / "report.json"
        dump_path(path, payload)
        loaded = load_path(path)
        assert loaded["note"] == "round trip"
        assert loaded["operator"]["matrix"][3][3] == 6.0

    def test_saved_reports_are_byte_stable(self, tmp_path):
        payload = {"b": 2, "a": 1, "nested": {"y": [1.5, 2.5], "x": None}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        dump_path(p1, payload)
        dump_path(p2, payload)
        assert p1.read_bytes() == p2.read_bytes()
