"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

Runs a tiny pass of every workload and requires it to pass, then tampers
with one output at a time (a flipped verdict, an altered coefficient or
exact delta string, a wrong exit code, a shifted eigenvalue) and requires
the gate to count the tampered item as failed.  Exits 0 when every case
behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run


def _edit(result, change):
    """Copy of ``result`` whose JSON output was passed through ``change``."""
    report = json.loads(result.out)
    change(report)
    return replace(result, out=json.dumps(report))


def _first(results, kind):
    """Index of the first item of ``kind``; replay items at n=4, where only the
    sympy oracle, not the golden n=5 report, can catch an altered resultant."""
    return next(i for i, r in enumerate(results)
                if r.item.kind == kind and (kind != "replay" or r.item.expect == 4))


def _bump_leading_digit(report):
    text = report["final_resultant"]
    at = 1 if text.startswith("-") else 0
    report["final_resultant"] = text[:at] + str(int(text[at]) % 9 + 1) + text[at + 1:]


def _set(path, value):
    def change(report):
        target = report
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]])
    return change


TAMPERING = {
    "replay-sweep": [
        ("flipped verdict", "replay",
         lambda r: _edit(r, _set(("verdict",), lambda v: "inconclusive"))),
        ("flipped branch verdict", "replay",
         lambda r: _edit(r, _set(("branches", "first-principles", "verdict"),
                                 lambda v: "inconclusive"))),
        ("altered final resultant", "replay", lambda r: _edit(r, _bump_leading_digit)),
        ("wrong exit code", "replay", lambda r: replace(r, code=1)),
    ],
    "delta-optimizer": [
        ("altered delta", "optimizer",
         lambda r: _edit(r, _set(("delta", "delta"), lambda v: v * 1.001))),
        ("wrong exit code", "anchor-ideal", lambda r: replace(r, code=1)),
    ],
    "pointwise-exact": [
        ("altered exact delta string", "exact-delta",
         lambda r: _edit(r, _set(("exact", "delta"), lambda v: v + "1"))),
        ("wrong exit code", "ideal-pattern", lambda r: replace(r, code=1)),
        ("altered cylinder a", "cylinder", lambda r: _edit(r, _set(("a",), lambda v: v * 1.01))),
        ("shifted grid eigenvalue", "grid",
         lambda r: _edit(r, _set(("spectrum", "principal_curvatures"),
                                 lambda v: [v[0] + 1e-3] + v[1:]))),
        ("traceback instead of a report", "cylinder", lambda r: replace(r, code=None, out="")),
    ],
}


def main() -> int:
    import deltahyp.cli
    from workloads import WORKLOADS

    ok = True
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as tmp:
        for name, cls in WORKLOADS.items():
            workload = cls(1, Path(tmp), run.ROOT, tiny=True)
            results, _, _ = run.closed_loop(deltahyp.cli.main, workload.passes[:1], 0)
            failures = run.check_all(workload, results)
            passed = not failures
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {name}: tiny run of {len(results)} items"
                  + ("" if passed else f" {failures}"))
            for label, kind, tamper in TAMPERING[name]:
                index = _first(results, kind)
                tampered = list(results)
                tampered[index] = tamper(results[index])
                caught = index in run.check_all(workload, tampered)
                ok &= caught
                print(f"{'ok  ' if caught else 'FAIL'} {name}: {label} counted as failed")
        workload = WORKLOADS["pointwise-exact"](1, Path(tmp), run.ROOT, tiny=True)
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for kind, measure in (
                ("end_to_end", lambda: run.end_to_end(deltahyp.cli.main, workload, 0, {})),
                ("per_layer", lambda: run.per_layer(deltahyp.cli.main, workload, 0, {}, None))):
            names = list(measure()[1])
            same = names == [m["name"] for m in declared[kind]]
            ok &= same
            print(f"{'ok  ' if same else 'FAIL'} {kind} metrics match BENCHMARK.json"
                  + ("" if same else f": {names}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run._prepare() or main())
