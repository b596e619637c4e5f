"""deltahyp benchmark: seeded workloads run through ``deltahyp.cli.main``.

    python3 bench/run.py --workload replay-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Load is one closed-loop client in one single-threaded process: each
item is sent when the previous one has finished, as a CLI caller waits for
its reply.  Passes, each the workload's whole item set in a seeded order, are
repeated until ``--seconds`` have elapsed, and the pass in progress is
finished.

A shared host runs the whole process up to half again slower for seconds at
a time.  Between items the benchmark times a fixed piece of reference work
(``reference_work``, no deltahyp code) and reports every time scaled to the
speed at which that work takes ``REFERENCE_S``: seconds on a machine held at
one speed.  The raw wall times are in the run record.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
reports the per-layer metrics: half the time untraced, half with spans at
the module boundaries, then a count pass over a few items for the paths too
hot to time.  Every line before the last names a record field or a metric
with its unit; the last line is the JSON result.  Outputs are checked after
the timed loop; ``failed`` counts items with a wrong exit code or output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 11
REFERENCE_S = 0.0025  # reference_seconds() on the 2-CPU VM the benchmark was built on
CALIBRATE_EVERY = 0.2  # seconds of items between two speed readings
TAIL_BEYOND = 10
QUIET_OTHER_CPU = 0.25  # CPUs used by other processes above which a run is "loaded"
SIZE_NS = (4, 8, 12, 16)

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
                    "item_tail_s": "s", "peak_rss_mb": "MB"}


# -- run record -------------------------------------------------------------------


def _cpu_busy_seconds() -> float | None:
    """Busy CPU seconds of the whole machine, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[:8])
    return (user + nice + system + irq + softirq + steal) / os.sysconf("SC_CLK_TCK")


def _own_cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _loadavg() -> list[float] | None:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "deltahyp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class RunRecord:
    """Machine state around one run, so numbers from a loaded machine say so."""

    def __init__(self):
        self.data = {
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": _loadavg(),
            "python": platform.python_version(),
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
        }
        self._wall = perf_counter()
        self._busy = _cpu_busy_seconds()
        self._own = _own_cpu_seconds()

    def finish(self) -> dict:
        wall = perf_counter() - self._wall
        busy = _cpu_busy_seconds()
        self.data["loadavg_after"] = _loadavg()
        if busy is None or self._busy is None:
            self.data["machine"] = "unknown"
        else:
            other = (busy - self._busy - (_own_cpu_seconds() - self._own)) / wall
            self.data["other_cpu"] = round(other, 3)
            self.data["machine"] = "loaded" if other > QUIET_OTHER_CPU else "quiet"
        return self.data


# -- machine speed -------------------------------------------------------------------


def reference_work():
    """Fixed work in the program's mix: big-integer Fraction sums, dict updates
    and small LAPACK calls.  No deltahyp code runs here."""
    import numpy as np

    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i * i
    m = np.eye(6) + 0.1
    for _ in range(60):
        q, _r = np.linalg.qr(m)
        m = q @ m * 0.5 + 1.0
    return acc, table, m


def reference_seconds() -> float:
    """Median of five timings of ``reference_work``: how fast the machine runs now."""
    times = []
    for _ in range(5):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def normalized(seconds: float, reference_s: float) -> float:
    """``seconds`` scaled to the speed at which ``reference_work`` takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s


# -- measuring ----------------------------------------------------------------------


def setup_seconds() -> list[float]:
    """Wall time of fresh interpreters that import deltahyp.cli and exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import deltahyp.cli"], env=env, cwd=ROOT,
                       check=True, stdin=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def invoke(main, argv) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:  # the loop must go on; the item counts as failed
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


# run once, untimed, before the timed loop: first-call set-up in NumPy and argparse
WARM_UP = ("delta", "--no-optimizer", "--r", "3", "--spectrum", "1,2,3,6")


def closed_loop(main, passes, seconds: float, tracer=None):
    """Whole passes, one item at a time, until ``seconds`` have elapsed.

    The machine's speed is read between items, at most every CALIBRATE_EVERY
    seconds; each result carries the mean of the readings just before and
    just after it.  Repeats share one copy of an output, so the memory the
    results take does not grow with the number of passes."""
    from workloads import Result

    results = []
    outputs: dict[str, str] = {}
    count = 0
    start = perf_counter()
    before, read_at, unread = reference_seconds(), perf_counter(), 0
    while True:
        for item in passes[count % len(passes)]:
            if tracer is not None:
                tracer.item = len(results)
            t0 = perf_counter()
            code, out, err = invoke(main, item.argv)
            took = perf_counter() - t0
            out = outputs.setdefault(out, out)
            results.append(Result(item, code, out, err, took))
            if perf_counter() - read_at >= CALIBRATE_EVERY:
                after = reference_seconds()
                for result in results[unread:]:
                    result.reference_s = (before + after) / 2
                before, read_at, unread = after, perf_counter(), len(results)
        count += 1
        if perf_counter() - start >= seconds:
            after = reference_seconds()
            for result in results[unread:]:
                result.reference_s = (before + after) / 2
            return results, perf_counter() - start, count


def item_medians(results) -> list[float]:
    """Each distinct item's median normalized latency over its repeats in the run."""
    repeats: dict[tuple[str, ...], list[float]] = {}
    for r in results:
        repeats.setdefault(r.item.argv, []).append(normalized(r.seconds, r.reference_s))
    return [statistics.median(v) for v in repeats.values()]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum when that percentile
    would not lie above the median."""
    ordered = sorted(latencies)
    if len(ordered) < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = len(ordered) - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / len(ordered), TAIL_BEYOND


def check_all(workload, results) -> dict[int, str]:
    failures = {}
    verdicts: dict[tuple, str | None] = {}  # repeats with identical output share a verdict
    for index, result in enumerate(results):
        key = (result.item.argv, result.code, result.out)
        if key not in verdicts:
            try:
                verdicts[key] = workload.check(result)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                verdicts[key] = f"malformed output: {type(exc).__name__}: {exc}"
        reason = verdicts[key]
        if reason:
            failures[index] = reason
    for index, reason in workload.check_run(results).items():
        failures.setdefault(index, reason)
    return failures


# -- the two kinds of run --------------------------------------------------------------


def end_to_end(main, workload, seconds: float, record: dict):
    setup = setup_seconds()
    invoke(main, WARM_UP)
    results, elapsed, passes = closed_loop(main, workload.passes, seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the checks
    latencies = [normalized(r.seconds, r.reference_s) for r in results]
    medians = item_medians(results)
    tail_value, tail_pct, beyond = tail(medians)
    readings = [r.reference_s for r in results]
    record.update(items=len(results), distinct_items=len(medians), passes=passes,
                  elapsed_s=round(elapsed, 4),
                  raw_items_per_s=round(len(results) / sum(r.seconds for r in results), 6),
                  reference_s={"median": round(statistics.median(readings), 6),
                               "min": round(min(readings), 6), "max": round(max(readings), 6)},
                  setup_samples_s=[round(t, 4) for t in setup],
                  tail_percentile=round(tail_pct, 2), tail_samples_beyond=beyond)
    record["raw_latency_by_kind_s"] = _by_kind(results)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_s": statistics.median(medians),
        "item_tail_s": tail_value,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return results, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def _by_kind(results) -> dict:
    kinds: dict[str, list[float]] = {}
    for r in results:
        kinds.setdefault(r.item.kind, []).append(r.seconds)
    return {k: {"n": len(v), "median": round(statistics.median(v), 6), "max": round(max(v), 6)}
            for k, v in sorted(kinds.items())}


def per_layer(main, workload, seconds: float, record: dict, spans_path: Path | None):
    import tracer as tr

    passes = workload.passes
    invoke(main, WARM_UP)
    plain, _, _ = closed_loop(main, passes, seconds / 2)
    tracer = tr.Tracer()
    t0 = perf_counter()
    with tr.Patches() as patches:
        tr.boundary_patches(tracer, patches)
        traced, _, _ = closed_loop(main, passes, seconds / 2, tracer)
    items = set(range(len(traced)))
    calls, secs = tracer.totals(items)
    replay_ns = sorted({r.item.expect for r in traced if r.item.kind == "replay"})
    stages = tr.stage_self_seconds(replay_ns) if replay_ns else {}
    counted = []
    counts = tr.hot_path_counts(
        lambda: counted.extend(invoke(main, item.argv) for item in workload.count_items))
    if spans_path is not None:
        tracer.write(spans_path, t0)
    per = len(traced)
    stats = tracer.stats
    evals, iters = counts["objective_evals"], counts["iterations"]
    opt_items = stats["delta.optimizer_items"]
    m = {}
    for stage, _ in tr.STAGE_FUNCTIONS:
        m[f"replay.{stage}_s"] = (stages.get(stage, 0.0), "s")
    m["derivation.build_algebra_s"] = (secs["derivation.build_algebra"] / per, "s")
    m["resultant.calls"] = (calls["resultant.resultant"] / per, "count")
    m["resultant.s"] = (secs["resultant.resultant"] / per, "s")
    m["resultant.det_bareiss_s"] = (secs["resultant.det_bareiss"] / per, "s")
    m["resultant.sylvester_dim_max"] = (
        tracer.maxima.get("resultant.sylvester_dim_max", 0), "count")
    for key in ("mul", "exact_div", "gcd"):
        m[f"poly.{key}_calls"] = (calls[f"poly.{key}"] / per, "count")
        m[f"poly.{key}_s"] = (secs[f"poly.{key}"] / per, "s")
    n_counted = len(counted)
    m["poly.fraction_new_calls"] = (counts["fraction_new"] / n_counted, "count")
    m["stiefel.minimize_s"] = (secs["stiefel.minimize"] / per, "s")
    m["stiefel.restarts"] = (stats["stiefel.restarts"] / per, "count")
    m["stiefel.iterations"] = (iters / n_counted, "count")
    m["stiefel.objective_evals"] = (evals / n_counted, "count")
    m["stiefel.qr_retractions"] = (counts["qr_retractions"] / n_counted, "count")
    m["stiefel.evals_per_iteration"] = (evals / iters if iters else 0.0, "ratio")
    m["delta.invariant_s"] = (secs["delta.invariant"] / per, "s")
    m["delta.optimizer_agree_ratio"] = (
        stats["delta.optimizer_agree"] / opt_items if opt_items else 0.0, "ratio")
    m["delta.combinatorial_s"] = (secs["delta.combinatorial"] / per, "s")
    m["delta.subsets_scanned"] = (stats["delta.subsets_scanned"] / per, "count")
    m["delta.ideal_pattern_s"] = (secs["delta.ideal_pattern"] / per, "s")
    m["shape.curvature_report_calls"] = (calls["shape.curvature_report"] / per, "count")
    m["shape.curvature_report_s"] = (secs["shape.curvature_report"] / per, "s")
    m["surfaces.load_case_s"] = (secs["surfaces.load_case"] / per, "s")
    m["surfaces.grid_s"] = (secs["surfaces.grid"] / per, "s")
    m["surfaces.catalog_s"] = (secs["surfaces.catalog"] / per, "s")
    m["cli.parse_s"] = (secs["cli.parse"] / per, "s")
    m["jsonio.dumps_s"] = (secs["jsonio.dumps"] / per, "s")
    m["jsonio.report_bytes"] = (stats["jsonio.report_bytes"] / per, "bytes")
    plain_ips, traced_ips = (len(rs) / sum(normalized(r.seconds, r.reference_s) for r in rs)
                             for rs in (plain, traced))
    m["trace.untraced_items_per_s"] = (plain_ips, "1/s")
    m["trace.traced_items_per_s"] = (traced_ips, "1/s")
    m["trace.overhead_ratio"] = (plain_ips / traced_ips, "ratio")
    sizes = workload.describe(traced).get("sizes", {})
    for n in SIZE_NS:
        size = sizes.get(n)
        for key, poly in (("curve9", "curve9"), ("curve12", "curve12"),
                          ("final", "final_resultant")):
            m[f"size.n{n}.{key}_bits"] = (size[poly]["coeff_bits"] if size else 0, "bits")
        m[f"size.n{n}.final_terms"] = (size["final_resultant"]["terms"] if size else 0, "count")
    record.update(items=len(plain) + len(traced) + n_counted, traced_items=per,
                  count_pass_items=n_counted, optimizer_items=opt_items,
                  spans=len(tracer.spans))
    record["self_s_per_item"] = {name: round(s / per, 6)
                                 for name, s in tracer.self_seconds().most_common()}
    from workloads import Result
    counted_results = [Result(item, code, out, err, 0.0)
                       for item, (code, out, err) in zip(workload.count_items, counted)]
    return plain + traced + counted_results, m


# -- entry point ------------------------------------------------------------------------


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy

    import deltahyp
    import deltahyp.cli

    if Path(deltahyp.__file__).resolve().parent != SRC / "deltahyp":
        print(f"error: imported deltahyp from {deltahyp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    run = RunRecord()
    run.data.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, numpy=numpy.__version__)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, ROOT)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            results, metrics = per_layer(deltahyp.cli.main, workload, args.seconds,
                                         run.data, spans)
        else:
            results, metrics = end_to_end(deltahyp.cli.main, workload, args.seconds, run.data)
        failures = check_all(workload, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = run.finish()
    record.update(workload.describe(results))
    record["failed_ratio"] = len(failures) / len(results)
    record["failures"] = [f"{results[i].item.kind} {' '.join(results[i].item.argv[:4])}: {why}"
                          for i, why in sorted(failures.items())[:10]]
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _prepare() -> int | None:
    """Pin thread pools and point imports at this checkout's ``src/``."""
    if not (SRC / "deltahyp" / "cli.py").is_file():
        print(f"error: {SRC / 'deltahyp'} not found; run from a deltahyp source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DELTAHYP_SEED", None)  # the CLI's default optimizer seed applies
    sys.path.insert(0, str(SRC))
    return None


if __name__ == "__main__":
    sys.exit(_prepare() or main())
