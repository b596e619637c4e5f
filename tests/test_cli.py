"""End-to-end CLI tests: contract examples, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import deltahyp
from conftest import time_limit
from deltahyp import reference_forms, tau_from_spectrum
from deltahyp.cli import main
from deltahyp.surfaces import MAX_DIMENSION


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def cylinder_case(tmp_path):
    path = tmp_path / "cylinder.json"
    path.write_text(
        json.dumps({"kind": "spherical-cylinder", "n": 4, "p": 1, "radius": 1.0}),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture()
def matrix_case(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(
        json.dumps({"n": 4, "matrix": np.diag([1.0, 2.0, 3.0, 6.0]).tolist()}),
        encoding="utf-8",
    )
    return str(path)


class TestContractExamples:
    def test_replay_n4_json(self, capsys):
        code, out, _ = run(capsys, "replay", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "H-locally-constant"
        assert payload["final_resultant"].startswith("7179604301661146273242925472")

    def test_delta_r3_spectrum(self, capsys):
        code, out, _ = run(capsys, "delta", "--r", "3", "--spectrum", "1,2,3,6")
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"]["delta"] == 36
        assert payload["ideal"] is True
        assert payload["exact"]["delta"] == "36"

    def test_delta_r10_on_200_values(self, capsys):
        # C(200, 10) is about 2.2e16 subsets; the end sets answer at once
        values = [Fraction((7 * k) % 23 - 11, 1 + k % 3) for k in range(200)]
        spectrum = "--spectrum=" + ",".join(map(str, values))
        code, out, _ = run(capsys, "delta", "--no-optimizer", "--r", "10", spectrum)
        assert code == 0
        exact = json.loads(out)["exact"]
        ordered = sorted(values)
        end_sets = [ordered[:j] + ordered[len(ordered) - 10 + j:] for j in range(11)]
        inf = min(tau_from_spectrum(subset) for subset in end_sets)
        assert exact["inf_tau_L"] == str(inf)
        assert tau_from_spectrum([values[i] for i in exact["witness"]]) == inf
        assert Fraction(exact["tau"]) == tau_from_spectrum(values)

    def test_delta_witnesses_index_sorted_and_input_order(self, capsys):
        # delta.witness indexes the sorted eigenvalues (-4e6 is position 0);
        # exact.witness indexes the --spectrum values as given (-4e6 is 4)
        spectrum = "1e6,2.5e6,3.1e6,6.7e6,-4e6"
        code, out, _ = run(capsys, "delta", "--r", "2", "--spectrum", spectrum)
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"]["witness"] == [0, 4]
        assert payload["exact"]["witness"] == [3, 4]

    @pytest.mark.parametrize(
        "r, spectrum, inf",
        [(2, "10000,20000,30000,60000", 200000000), (3, "1e5,2e5,3e5,6e5", 110000000000)],
    )
    def test_delta_at_large_scale_reports_the_exact_minimum(self, capsys, r, spectrum, inf):
        # the optimizer's float rounding grows with max|lambda|^2; coming
        # within tol * scale^2 of the exact minimum from below is no win
        code, out, _ = run(capsys, "delta", "--r", str(r), "--spectrum", spectrum)
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"]["inf_tau_L"] == inf
        assert payload["delta"]["method"] != "optimizer"
        assert payload["exact"]["inf_tau_L"] == str(inf)

    @pytest.mark.parametrize("scale", [1e3, 1e5])
    def test_ideal_matrix_at_large_scale(self, capsys, tmp_path, scale):
        # the gap to the bound is quadratic in the eigenvalues, so its float
        # rounding (6.1e-05 at scale 1e5) is judged on tol * max|lambda|^2
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        matrix = q @ np.diag([1.0, 2.0, 3.0, 6.0]) @ q.T * scale
        path = tmp_path / "rotated.json"
        path.write_text(json.dumps({"n": 4, "matrix": ((matrix + matrix.T) / 2).tolist()}),
                        encoding="utf-8")
        code, out, _ = run(capsys, "ideal", "--r", "3", "--matrix", str(path))
        payload = json.loads(out)
        assert payload["pattern"] is not None
        assert payload["ideal"] is True
        assert code == 0

    def test_null2_rejects_a_large_rotated_minimal_operator(self, capsys, tmp_path):
        # H is float rounding at this scale (about 5e-08, above tol = 1e-8), so
        # the minimal test scales tol by max|lambda| like every linear quantity
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        matrix = q @ np.diag([1.0, -1.0, 3.0, -3.0]) @ q.T * 1e8
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({"n": 4, "matrix": ((matrix + matrix.T) / 2).tolist()}),
                        encoding="utf-8")
        code, out, _ = run(capsys, "null2", "--matrix", str(path))
        assert json.loads(out)["status"] == "rejected-minimal"
        assert code == 1

    def test_python_dash_m_runs_the_cli(self, capsys):
        code, out, _ = run(capsys, "replay", "--n", "4", "--format", "json")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(deltahyp.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "deltahyp", "replay", "--n", "4", "--format", "json"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (done.returncode, done.stdout) == (code, out)

    def test_replay_renders_coefficients_past_the_digit_limit(self, capsys):
        code, out, _ = run(capsys, "replay", "--n", str(10**20))
        assert code == 0
        assert json.loads(out)["verdict"] == "H-locally-constant"

    def test_delta_writes_exact_values_past_the_digit_limit(self, capsys):
        # tau's numerator and denominator have about 4,400 digits each, past
        # the int-to-str limit
        values = ["0." + "1" * 2200, "0." + "3" * 2199 + "7", "1", "2"]
        spectrum = "--spectrum=" + ",".join(values)
        code, out, _ = run(capsys, "delta", "--no-optimizer", "--r", "2", spectrum)
        assert code == 0
        tau = tau_from_spectrum([Fraction(v) for v in values])
        # Decimal writes an int without the digit limit
        expected = f"{Decimal(tau.numerator)}/{Decimal(tau.denominator)}"
        assert json.loads(out)["exact"]["tau"] == expected

    def test_replay_n3_usage_error(self, capsys):
        code, _, err = run(capsys, "replay", "--n", "3")
        assert code == 2
        assert ">= 4" in err


class TestExitCodes:
    def test_negative_verdicts_exit_one(self, capsys):
        code, _, _ = run(capsys, "ideal", "--r", "3", "--spectrum", "1,2,3,7")
        assert code == 1
        code, _, _ = run(capsys, "null2", "--spectrum", "2,2,2,2")
        assert code == 1

    def test_ideal_on_a_long_distinct_spectrum_exits_one(self, capsys):
        spectrum = ",".join(str(k) for k in range(1, MAX_DIMENSION + 1))
        with time_limit(30):
            code, out, _ = run(capsys, "ideal", "--no-optimizer", "--r", "3",
                               "--spectrum", spectrum)
        assert code == 1
        assert json.loads(out)["ideal"] is False

    def test_ideal_takes_the_eigenvalues_once(self, capsys, monkeypatch):
        # curvature_report and detect_ideal_pattern share the operator's
        # cached eigenvalues
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(matrix):
            calls.append(matrix.shape)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        code, _, _ = run(capsys, "ideal", "--no-optimizer", "--r", "3", "--spectrum", "1,2,3,6")
        assert code == 0
        assert calls == [(4, 4)]

    def test_positive_verdicts_exit_zero(self, capsys):
        code, _, _ = run(capsys, "ideal", "--r", "3", "--spectrum", "1,2,3,6")
        assert code == 0
        code, _, _ = run(capsys, "null2", "--spectrum", "1,0,0,0")
        assert code == 0

    def test_unknown_flag_exits_two(self, capsys):
        assert run(capsys, "replay", "--breakfast")[0] == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(capsys, "transmogrify")[0] == 2

    def test_missing_operator_input_exits_two(self, capsys):
        assert run(capsys, "delta", "--r", "3")[0] == 2

    def test_schema_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "round-sphere", "n": 4}', encoding="utf-8")
        code, _, err = run(capsys, "null2", "--case", str(path))
        assert code == 2
        assert "error:" in err

    def test_schema_error_reports_position(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            '{"kind": "round-sphere", "n": 4, "radius": 1.0, "zz": 0}',
            encoding="utf-8",
        )
        code, _, err = run(capsys, "catalog", "--case", str(path))
        assert code == 2
        assert "$.zz" in err

    def test_missing_file_exits_two(self, capsys):
        assert run(capsys, "null2", "--case", "/nonexistent/case.json")[0] == 2

    def test_bad_spectrum_exits_two(self, capsys):
        assert run(capsys, "delta", "--r", "3", "--spectrum", "1,zebra,3")[0] == 2

    def test_bad_a_value_exits_two(self, capsys):
        code, _, err = run(
            capsys, "replay", "--n", "4", "--a-mode", "numeric", "--a-value", "x"
        )
        assert code == 2

    def test_near_limit_operator_prints_no_warning(self):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(deltahyp.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "deltahyp", "catalog", "--kind", "graph",
             "--hessian", "[[1e308,0],[0,1e308]]"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 2
        assert done.stderr == "error: curvature invariants overflow the float range\n"

    def test_subnormal_sphere_radius_prints_no_warning(self):
        # 1 / radius overflows to inf: refused as non-finite, with no numpy warning first
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(deltahyp.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "deltahyp", "catalog", "--kind", "round-sphere", "--n", "3",
             "--radius", "1e-320"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 2
        assert done.stderr == "error: shape operator entries must be finite\n"

    def test_checkpoint_failure_exits_three(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(reference_forms, "TEMPLATE_CUBIC_FORM", frozenset())
        out = tmp_path / "partial.json"
        code, _, err = run(capsys, "replay", "--n", "4", "--out", str(out))
        assert code == 3
        assert "checkpoint failure" in err
        # the partial report survives the halt: on disk and summarized on stderr
        partial = json.loads(out.read_text(encoding="utf-8"))
        assert partial["verdict"] == "inconclusive"
        assert partial["checkpoints"][-1]["id"] == "3.61-M"
        count = len(partial["checkpoints"])
        assert f"partial report: {count} checkpoint(s) passed, last 3.61-M" in err
        # an unwritable --out is reported without masking the checkpoint exit code
        unwritable = tmp_path / "missing-dir" / "partial.json"
        code, _, err = run(capsys, "replay", "--n", "4", "--out", str(unwritable))
        assert code == 3
        assert "cannot write the partial report" in err


def _grid_doc(h, point):
    """A 5 x 5 grid around (2, 2) with spacing h; ``point(i, j)`` at offset (i, j)."""
    points = [x for i in range(-2, 3) for j in range(-2, 3) for x in point(i, j)]
    return {"n": 2, "h": [h, h], "base": [2, 2], "shape": [5, 5], "points": points}


# argv with "{doc}" standing for a file that holds the document (JSON-encoded
# unless given as raw text or bytes), and a fragment the error line must hold
MALFORMED_INPUT = {
    "ragged-matrix": (["null2", "--matrix", "{doc}"], {"matrix": [[1, 2], [3]]}, "$.matrix[1]"),
    "string-matrix-entry": (["null2", "--matrix", "{doc}"], {"matrix": [["a"]]}, "$.matrix[0][0]"),
    "nan-matrix-entry": (
        ["null2", "--matrix", "{doc}"],
        {"matrix": [[float("nan"), 0], [0, 1]]},
        "$.matrix[0][0]",
    ),
    "overflowing-invariants": (
        ["null2", "--matrix", "{doc}"],
        {"matrix": [[1e200, 0], [0, 1e200]]},
        "overflow",
    ),
    "matrix-not-utf8": (["null2", "--matrix", "{doc}"], b"\xff\xfe{", "invalid JSON"),
    "overlong-integer": (
        ["null2", "--matrix", "{doc}"],
        '{"matrix": [[' + "1" * 5000 + "]]}",
        "invalid JSON",
    ),
    "deeply-nested-case": (["catalog", "--case", "{doc}"], "[" * 200_000, "invalid JSON"),
    "deeply-nested-hessian": (
        ["catalog", "--kind", "graph", "--hessian", "[" * 200_000],
        None,
        "cannot parse --hessian",
    ),
    "string-hessian-entry": (
        ["catalog", "--kind", "graph", "--hessian", '[[1,"x"],[2,3]]'],
        None,
        "$.hessian[0][1]",
    ),
    "scalar-hessian": (["catalog", "--kind", "graph", "--hessian", "5"], None, "$.hessian"),
    "unparsable-hessian": (
        ["catalog", "--kind", "graph", "--hessian", "[[1,"],
        None,
        "cannot parse --hessian",
    ),
    "catalog-without-case-or-kind": (
        ["catalog", "--n", "3"],
        None,
        "catalog needs either --case or --kind",
    ),
    "one-value-spectrum": (
        ["delta", "--r", "2", "--spectrum", "5"],
        None,
        "spectrum needs at least two values",
    ),
    # entries near the float limit: symmetrizing must not overflow, and an
    # overflowing skew is still a skew (a numpy warning would fail the test)
    "near-limit-hessian": (
        ["catalog", "--kind", "graph", "--hessian", "[[1e308,0],[0,1e308]]"],
        None,
        "curvature invariants overflow",
    ),
    "near-limit-skew-matrix": (
        ["null2", "--matrix", "{doc}"],
        {"matrix": [[0, 1e308], [-1e308, 0]]},
        "must be symmetric",
    ),
    "negative-grid-shape": (
        ["catalog", "--case", "{doc}"],
        {"n": 2, "h": [0.1, 0.1], "base": [2, 2], "shape": [-1, -5], "points": [0.0] * 15},
        "shape entries must be positive",
    ),
    # finite samples whose differences overflow: the tangents (1e300 apart
    # over 2e-10), the metric (tangents of 1e200), the second differences
    "overflowing-grid-tangents": (
        ["catalog", "--case", "{doc}"],
        _grid_doc(1e-10, lambda i, j: [1e300 * i, 1e300 * j, 0.0]),
        "first fundamental form is not finite",
    ),
    "overflowing-grid-metric": (
        ["catalog", "--case", "{doc}"],
        _grid_doc(1e-200, lambda i, j: [float(i), float(j), 0.0]),
        "first fundamental form is not finite",
    ),
    "overflowing-grid-curvature": (
        ["catalog", "--case", "{doc}"],
        _grid_doc(1e-160, lambda i, j: [1e-6 * i, 1e-6 * j, 1e-6 * (i * i + j * j)]),
        "shape operator entries must be finite",
    ),
    "infinite-radius": (
        ["catalog", "--case", "{doc}"],
        {"kind": "round-sphere", "n": 4, "radius": float("inf")},
        "$.radius",
    ),
    "subnormal-sphere-radius": (
        ["catalog", "--kind", "round-sphere", "--n", "3", "--radius", "1e-320"],
        None,
        "entries must be finite",
    ),
    "nan-radius-flag": (
        ["catalog", "--kind", "round-sphere", "--n", "4", "--radius", "nan"],
        None,
        "$.radius",
    ),
    "overflowing-spectrum": (
        ["delta", "--r", "2", "--spectrum", "1e400,1,2"],
        None,
        "beyond the float range",
    ),
    # rounds to the largest float, but its exact value lies beyond it
    "spectrum-past-the-largest-float": (
        ["delta", "--r", "2", "--spectrum", "1.7976931348623158e308,1,2"],
        None,
        "beyond the float range",
    ),
    "zero-restarts": (
        ["delta", "--r", "2", "--spectrum", "1,2,3", "--restarts", "0"],
        None,
        "at least one restart",
    ),
    "negative-restarts": (
        ["ideal", "--r", "2", "--spectrum", "1,2,3", "--restarts", "-1"],
        None,
        "at least one restart",
    ),
    "negative-seed": (
        ["delta", "--r", "2", "--spectrum", "1,2,3,6", "--seed", "-1"],
        None,
        "seed must be non-negative",
    ),
    # refused before the (restarts, n, r) frame stack is allocated
    "huge-restarts": (
        ["delta", "--r", "2", "--spectrum", "1,2,3,4", "--restarts", "1000000000000000"],
        None,
        "restarts * n * r must be at most",
    ),
    **{
        f"{label}-tol-{argv[0]}": (argv + ["--tol", value], None, "--tol must be finite")
        for argv in (
            ["delta", "--r", "2", "--spectrum", "1,2,3", "--no-optimizer"],
            ["ideal", "--r", "3", "--spectrum", "1,2,3,6", "--no-optimizer"],
            ["null2", "--spectrum", "0,0,0,0"],
        )
        for label, value in (("nan", "nan"), ("infinite", "inf"), ("negative", "-1"))
    },
    # one past the dimension cap: refused before any n x n array is built
    "oversized-hyperplane": (
        ["catalog", "--kind", "hyperplane", "--n", str(MAX_DIMENSION + 1)],
        None,
        f"n <= {MAX_DIMENSION}",
    ),
    "oversized-round-sphere": (
        ["catalog", "--kind", "round-sphere", "--n", str(MAX_DIMENSION + 1), "--radius", "1"],
        None,
        f"n <= {MAX_DIMENSION}",
    ),
    "oversized-spectrum": (
        ["delta", "--r", "2", "--spectrum", ",".join(["1"] * (MAX_DIMENSION + 1))],
        None,
        f"at most {MAX_DIMENSION}",
    ),
    "oversized-matrix": (
        ["null2", "--matrix", "{doc}"],
        {"matrix": [[0]] * (MAX_DIMENSION + 1)},
        f"at most {MAX_DIMENSION} rows",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUT))
def test_malformed_input_exits_two(capsys, tmp_path, name):
    argv, doc, fragment = MALFORMED_INPUT[name]
    path = tmp_path / "doc.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, *(arg.replace("{doc}", str(path)) for arg in argv))
    assert code == 2
    assert err.startswith("error:")
    assert fragment in err
    assert "Traceback" not in err
    assert out == ""


def test_spectrum_beyond_the_float_range_is_refused_before_it_is_built(capsys):
    # the exact value of 1e10000000 is a 33-million-bit integer
    with time_limit(2):
        code, out, err = run(
            capsys, "delta", "--r", "2", "--no-optimizer", "--spectrum", "1e10000000,1,2"
        )
    assert code == 2
    assert err.startswith("error:") and "beyond the float range" in err
    assert out == ""


@pytest.mark.parametrize("part", ["1e-99999999999", "1e-10000000"])
def test_spectrum_below_the_float_range_is_refused_before_it_is_built(capsys, part):
    # a nonzero part that rounds to 0.0; its exact denominator is 10**|exponent|
    with time_limit(2):
        code, out, err = run(
            capsys, "delta", "--r", "2", "--no-optimizer", "--spectrum", f"{part},1,2"
        )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "below the float range" in err
    assert out == ""


@pytest.mark.parametrize("zero", ["0e99999999999", "0e-99999999999"])
def test_spectrum_zero_reads_as_zero_whatever_its_exponent(capsys, zero):
    expected = run(capsys, "delta", "--r", "2", "--no-optimizer", "--spectrum", "0,1,2")
    with time_limit(2):
        got = run(capsys, "delta", "--r", "2", "--no-optimizer", "--spectrum", f"{zero},1,2")
    assert got == expected
    assert got[0] == 0


class TestInputSources:
    def test_case_file(self, capsys, cylinder_case):
        code, out, _ = run(capsys, "null2", "--case", cylinder_case)
        assert code == 0
        assert json.loads(out)["a"] == 1

    def test_matrix_file(self, capsys, matrix_case):
        code, out, _ = run(capsys, "delta", "--r", "3", "--matrix", matrix_case)
        assert code == 0
        assert json.loads(out)["delta"]["delta"] == pytest.approx(36.0, abs=1e-9)

    def test_matrix_file_dimension_mismatch(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"n": 3, "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
            encoding="utf-8",
        )
        assert run(capsys, "delta", "--r", "2", "--matrix", str(path))[0] == 2

    def test_catalog_inline(self, capsys):
        code, out, _ = run(
            capsys, "catalog", "--kind", "round-sphere", "--n", "4", "--radius", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["spectrum"]["H"] == pytest.approx(0.5)


    def test_catalog_negative_radius_exits_two(self, capsys):
        code, out, err = run(
            capsys, "catalog", "--kind", "round-sphere", "--n", "3", "--radius", "-1"
        )
        assert code == 2
        assert err.startswith("error: radius must be positive") and "(at $)" in err
        assert out == ""

    def test_catalog_cylinder_echoes_p(self, capsys):
        code, out, _ = run(
            capsys, "catalog", "--kind", "spherical-cylinder", "--n", "4", "--p", "2",
            "--radius", "2",
        )
        assert code == 0
        assert json.loads(out)["spec"] == {
            "kind": "spherical-cylinder", "n": 4, "p": 2, "radius": 2
        }


class TestDeterminism:
    def test_same_invocation_byte_identical(self, capsys):
        argv = ["delta", "--r", "2", "--spectrum", "0.3,1.7,2.9,5.1"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_env_seed_matches_flag(self, capsys, monkeypatch):
        argv = ["delta", "--r", "2", "--spectrum", "0.3,1.7,2.9,5.1"]
        monkeypatch.setenv("DELTAHYP_SEED", "12345")
        _, via_env, _ = run(capsys, *argv)
        monkeypatch.delenv("DELTAHYP_SEED")
        _, via_flag, _ = run(capsys, *argv, "--seed", "12345")
        assert via_env == via_flag

    def test_bad_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTAHYP_SEED", "not-a-number")
        assert run(capsys, "delta", "--r", "2", "--spectrum", "1,2,3")[0] == 2

    def test_negative_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTAHYP_SEED", "-3")
        code, out, err = run(capsys, "ideal", "--r", "3", "--spectrum", "1,2,3,6")
        assert code == 2
        assert err.startswith("error:") and "seed must be non-negative" in err
        assert "Traceback" not in err and out == ""

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "null2",
            "--spectrum",
            "1,0,0,0",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == out

    def test_out_file_is_json_even_under_text_format(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "null2",
            "--spectrum",
            "1,0,0,0",
            "--format",
            "text",
            "--out",
            str(out_path),
        )
        assert code == 0
        saved = json.loads(out_path.read_text(encoding="utf-8"))
        assert saved["status"] == "null-2-type-candidate"
        assert "status: null-2-type-candidate" in out


class TestTextFormat:
    def test_replay_text_renders_polynomials(self, capsys):
        code, out, _ = run(capsys, "replay", "--n", "4", "--format", "text")
        assert code == 0
        assert "verdict: H-locally-constant" in out
        assert "*H^99" in out  # canonical ASCII polynomial rendering
        assert "checkpoint 3.54: exact-match" in out

    def test_delta_text(self, capsys):
        code, out, _ = run(
            capsys, "delta", "--r", "3", "--spectrum", "1,2,3,6", "--format", "text"
        )
        assert code == 0
        assert "delta(3) = 36" in out
        assert "ideal = true" in out
