"""Canonical JSON rendering: determinism, float format, type handling."""

import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from deltahyp import canonical_dumps


class TestToJsonable:
    def test_fractions_become_strings(self):
        assert canonical_dumps(Fraction(3, 2)) == '"3/2"\n'
        assert json.loads(canonical_dumps({"x": Fraction(-1, 4)})) == {"x": "-1/4"}

    def test_numpy_scalars_and_arrays(self):
        out = json.loads(canonical_dumps({
            "v": np.float64(1.5), "k": np.int64(3), "m": np.eye(2),
            "f": np.float32(0.25), "b": np.bool_(True), "z": np.array(7),
        }))
        assert out["v"] == 1.5
        assert out["k"] == 3
        assert out["m"] == [[1.0, 0.0], [0.0, 1.0]]
        assert out["f"] == 0.25 and type(out["f"]) is float
        assert out["b"] is True
        assert out["z"] == 7 and type(out["z"]) is int

    def test_tuples_become_lists(self):
        assert canonical_dumps((1, 2, (3,))) == canonical_dumps([1, 2, [3]])

    def test_objects_with_to_json_dict(self):
        class Thing:
            def to_json_dict(self):
                return {"kind": "thing"}

        assert canonical_dumps([Thing()]) == canonical_dumps([{"kind": "thing"}])

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_dumps(object())

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            canonical_dumps({1: "x"})


class TestCanonicalDumps:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_dumps({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_round_trips_through_json(self):
        payload = {"x": [1, 2.5, None, True, "s"], "y": {"z": -0.125}}
        assert json.loads(canonical_dumps(payload)) == payload

    def test_float_precision_is_shortest_faithful(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        text = canonical_dumps({"v": value})
        assert json.loads(text)["v"] == value

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                canonical_dumps({"v": bad})

    def test_exact_values_past_the_int_to_str_digit_limit(self):
        big = -(10**5000) - 3
        text = f"{Decimal(big)}"  # Decimal writes an int without the digit limit
        assert canonical_dumps({"k": big}) == '{\n  "k": ' + text + "\n}\n"
        assert canonical_dumps({"q": Fraction(big, 7)}) == '{\n  "q": "' + text + '/7"\n}\n'

    def test_byte_stability(self):
        payload = {"m": [[1.0, 2.0], [3.0, 4.0]], "f": "1/3", "deep": {"q": [None]}}
        assert canonical_dumps(payload) == canonical_dumps(payload)
