"""The benchmark's tracer hooks still bind to the package names they patch.

``bench/tracer.py`` rebinds module attributes by name for ``bench/run.py
--trace 1``; a renamed or unused name in the package would break that run
without any other test failing.
"""

import importlib.util
import json
import pathlib

from deltahyp import cli, delta, poly, replay, resultant, surfaces
from deltahyp.cli import main

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_boundary_patches_trace_the_cli_and_restore(tmp_path, capsys):
    tracer_module = load_tracer()
    patched = (cli, replay, resultant, poly, delta, surfaces, poly.Polynomial)
    before = [dict(vars(target)) for target in patched]

    case = tmp_path / "case.json"
    case.write_text(json.dumps({"kind": "round-sphere", "n": 3, "radius": 2.0}))
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"matrix": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]}))
    grid = tmp_path / "grid.json"
    plane = [[0.1 * (i - 2), 0.1 * (j - 2), 0.0] for i in range(5) for j in range(5)]
    grid.write_text(json.dumps({
        "n": 2, "h": [0.1, 0.1], "base": [2, 2], "shape": [5, 5],
        "points": [x for point in plane for x in point],
    }))

    tracer = tracer_module.Tracer()
    with tracer_module.Patches() as patches:
        tracer_module.boundary_patches(tracer, patches)
        assert cli.load_case is not before[0]["load_case"]
        assert main(["null2", "--case", str(case)]) == 1
        assert main(["delta", "--r", "2", "--matrix", str(matrix), "--no-optimizer"]) == 0
        assert main(["delta", "--r", "2", "--matrix", str(matrix)]) == 0
        assert main(["catalog", "--case", str(grid)]) == 0
        assert main(["catalog", "--kind", "hyperplane", "--n", "3"]) == 0
        assert main(["replay", "--n", "4"]) == 0
        # the kept checkpoint text reduces the connection-quotient relations,
        # the replay's calls of poly_gcd when every sample point settles mod P
        assert main(["replay", "--n", "4", "--keep-intermediates"]) == 0
    capsys.readouterr()

    spans = {span[tracer_module.NAME] for span in tracer.spans}
    assert {
        "cli.parse",
        "jsonio.load_path",
        "jsonio.dumps",
        "surfaces.load_case",
        "surfaces.catalog",
        "surfaces.grid",
        "shape.curvature_report",
        "delta.invariant",
        "delta.null2",
        "stiefel.minimize",
        "replay.replay_all",
        "derivation.build_algebra",
        "resultant.resultant",
        "resultant.sylvester_matrix",
        "poly.gcd",
        "poly.mul",
        "poly.exact_div",
    } <= spans
    assert tracer.maxima["resultant.sylvester_dim_max"] == 15
    assert tracer.stats["stiefel.restarts"] == 32
    for target, saved in zip(patched, before):
        now = vars(target)
        assert now.keys() == saved.keys()
        assert all(now[name] is value for name, value in saved.items())


def test_stage_rows_and_hot_path_counts_are_filled(tmp_path, capsys):
    tracer_module = load_tracer()
    stages = tracer_module.stage_self_seconds([4])
    assert list(stages) == [stage for stage, _ in tracer_module.STAGE_FUNCTIONS]

    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"matrix": [[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0]]}))

    def run_items():
        assert main(["delta", "--r", "2", "--matrix", str(matrix)]) == 0
        assert main(["delta", "--r", "2", "--spectrum", "1,2,3,6"]) == 0

    counts = tracer_module.hot_path_counts(run_items)
    capsys.readouterr()
    assert set(counts) == {"fraction_new", "objective_evals", "iterations", "qr_retractions"}
    assert all(count > 0 for count in counts.values())
