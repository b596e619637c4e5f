"""Span and count tracing of deltahyp, done entirely from outside the package.

Each traced function is wrapped where its caller looks the name up: a
``from .x import y`` copies the binding, so ``deltahyp.cli.replay_all`` and
``deltahyp.replay.replay_all`` are separate names and each caller's module is
patched.  Modules are fetched through ``importlib.import_module`` because
``deltahyp/__init__.py`` re-exports the function ``resultant``, which shadows
the submodule attribute of the same name.

Spans are kept in memory as tuples ``(index, name, start, end, parent, item,
outer)``, appended when the call returns, and written out when the run ends.
Tuples of numbers and strings are not tracked by the garbage collector, so a
long trace does not slow collections down.  ``outer`` is false for a call
nested inside a call of the same name (``poly_gcd`` recurses), so inclusive
times and call counts use outer spans only.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb
from time import perf_counter

INDEX, NAME, START, END, PARENT, ITEM, OUTER = range(7)


class Patches:
    """Rebinds attributes and restores every original on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, target, attr: str, value) -> None:
        # vars() keeps a class's staticmethod wrapper, so __new__ restores intact
        self._saved.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()
        return False


class Tracer:
    """In-memory span recorder plus the side counters the layers need."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item = None
        self.stats: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._next = 0

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._next
            self._next = index + 1
            parent = stack[-1] if stack else -1
            outer = open_[name] == 0
            stack.append(index)
            open_[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_[name] -= 1
                spans.append((index, name, start, end, parent, self.item, outer))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def note_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    # -- aggregation ------------------------------------------------------------

    def totals(self, items) -> tuple[Counter, Counter]:
        """Outer-call counts and inclusive seconds per span name, over ``items``."""
        calls: Counter = Counter()
        seconds: Counter = Counter()
        for span in self.spans:
            if span[OUTER] and span[ITEM] in items:
                calls[span[NAME]] += 1
                seconds[span[NAME]] += span[END] - span[START]
        return calls, seconds

    def self_seconds(self) -> Counter:
        """Span duration minus the time its direct children cover, per name."""
        child_time: defaultdict = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: Counter = Counter()
        for span in self.spans:
            out[span[NAME]] += span[END] - span[START] - child_time[span[INDEX]]
        return out

    def write(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, name, start, end, parent, item, _ in sorted(self.spans):
                fh.write(json.dumps([index, name, round(start - t0, 9), round(end - t0, 9),
                                     parent, item]))
                fh.write("\n")


def boundary_patches(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public functions at each module boundary the CLI crosses."""
    cli = importlib.import_module("deltahyp.cli")
    replay = importlib.import_module("deltahyp.replay")
    resultant = importlib.import_module("deltahyp.resultant")
    poly = importlib.import_module("deltahyp.poly")
    delta = importlib.import_module("deltahyp.delta")
    surfaces = importlib.import_module("deltahyp.surfaces")
    w = tracer.wrap

    def traced_parser():
        parser = build_parser()
        parser.parse_args = w("cli.parse", parser.parse_args)
        return parser

    build_parser = cli.build_parser
    patches.set(cli, "build_parser", w("cli.parse", traced_parser))

    def report_bytes(_a, _k, text):
        tracer.stats["jsonio.report_bytes"] += len(text.encode("utf-8"))

    patches.set(cli, "canonical_dumps", w("jsonio.dumps", cli.canonical_dumps, report_bytes))
    for mod in (cli, surfaces):
        patches.set(mod, "load_path", w("jsonio.load_path", mod.load_path))

    patches.set(cli, "replay_all", w("replay.replay_all", cli.replay_all))
    patches.set(replay, "build_algebra", w("derivation.build_algebra", replay.build_algebra))
    patches.set(replay, "resultant", w("resultant.resultant", replay.resultant))

    def sylvester_dim(_a, _k, matrix):
        tracer.note_max("resultant.sylvester_dim_max", len(matrix))

    patches.set(resultant, "sylvester_matrix",
                w("resultant.sylvester_matrix", resultant.sylvester_matrix, sylvester_dim))
    patches.set(resultant, "det_bareiss", w("resultant.det_bareiss", resultant.det_bareiss))
    gcd = w("poly.gcd", poly.poly_gcd)
    patches.set(poly, "poly_gcd", gcd)
    patches.set(replay, "poly_gcd", gcd)
    patches.set(poly.Polynomial, "__mul__", w("poly.mul", poly.Polynomial.__mul__))
    patches.set(poly.Polynomial, "exact_div", w("poly.exact_div", poly.Polynomial.exact_div))

    def optimizer_outcome(_a, kwargs, result):
        if kwargs.get("use_optimizer", True):
            tracer.stats["delta.optimizer_items"] += 1
            tracer.stats["delta.optimizer_agree"] += result.method == "both-agree"

    for mod in (cli, delta):
        patches.set(mod, "delta_invariant",
                    w("delta.invariant", mod.delta_invariant, optimizer_outcome))
        patches.set(mod, "curvature_report", w("shape.curvature_report", mod.curvature_report))
    patches.set(cli, "ideality_gap", w("delta.ideality_gap", cli.ideality_gap))
    patches.set(cli, "delta_from_spectrum", w("delta.from_spectrum", cli.delta_from_spectrum))
    patches.set(cli, "detect_ideal_pattern", w("delta.ideal_pattern", cli.detect_ideal_pattern))
    patches.set(cli, "null2type_check", w("delta.null2", cli.null2type_check))

    def subsets(args, kwargs, _result):
        spectrum, r = args[0], args[1] if len(args) > 1 else kwargs["r"]
        tracer.stats["delta.subsets_scanned"] += comb(len(spectrum), r)

    patches.set(delta, "combinatorial_inf",
                w("delta.combinatorial", delta.combinatorial_inf, subsets))

    def restarts(_a, kwargs, _result):
        tracer.stats["stiefel.restarts"] += kwargs.get("restarts", 32)

    patches.set(delta, "minimize_tau", w("stiefel.minimize", delta.minimize_tau, restarts))
    patches.set(cli, "load_case", w("surfaces.load_case", cli.load_case))
    patches.set(cli, "shape_operator_from_grid",
                w("surfaces.grid", cli.shape_operator_from_grid))
    patches.set(cli, "catalog_shape_operator",
                w("surfaces.catalog", cli.catalog_shape_operator))


STAGE_FUNCTIONS = (
    ("lemma31", "verify_lemma31"),
    ("omega", "verify_omega_identities"),
    ("lemma32", "verify_lemma32"),
    ("masters", "derive_master_equations"),
    ("first_integrals", "derive_first_integrals"),
    ("tangency", "derive_tangency_curve"),
    ("prolonged", "derive_prolonged_curve"),
    ("eliminate", "eliminate_beta"),
)


def stage_self_seconds(n_values) -> dict[str, float]:
    """Mean self time per replay stage over ``n_values``, from the public stage functions.

    Each public function builds a fresh pipeline and runs the stage with its
    prerequisites: omega -> masters -> first_integrals -> tangency ->
    prolonged, and eliminate also runs lemma31 and lemma32.  A stage's self
    time is its function's time minus its prerequisites' times; the roots of
    the chain subtract their own ``build_algebra`` time instead.
    """
    replay = importlib.import_module("deltahyp.replay")
    config = importlib.import_module("deltahyp.derivation").ReplayConfig
    sums: Counter = Counter()
    for n in n_values:
        tracer = Tracer()
        with Patches() as patches:
            patches.set(replay, "build_algebra",
                        tracer.wrap("build_algebra", replay.build_algebra))
            for stage, fn_name in STAGE_FUNCTIONS:
                tracer.item = stage
                tracer.wrap(stage, getattr(replay, fn_name))(config(n=n))
        total = {}
        build = {}
        for span in tracer.spans:
            duration = span[END] - span[START]
            if span[NAME] == "build_algebra":
                build[span[ITEM]] = duration
            else:
                total[span[NAME]] = duration
        own = {s: total[s] - build[s] for s in ("lemma31", "omega", "lemma32")}
        own["masters"] = total["masters"] - total["omega"]
        own["first_integrals"] = total["first_integrals"] - total["masters"]
        own["tangency"] = total["tangency"] - total["first_integrals"]
        own["prolonged"] = total["prolonged"] - total["tangency"]
        own["eliminate"] = (total["eliminate"] - total["prolonged"]
                            - own["lemma31"] - own["lemma32"])
        sums.update(own)
    return {stage: sums[stage] / len(n_values) for stage, _ in STAGE_FUNCTIONS}


def hot_path_counts(run_items) -> Counter:
    """Call counts on paths too hot to time: ``Fraction.__new__`` and the
    per-call optimizer functions.  Times from this pass are not used."""
    stiefel = importlib.import_module("deltahyp.stiefel")
    counts: Counter = Counter()
    fraction_new = Fraction.__dict__["__new__"].__func__

    def counting_new(cls, *args, **kwargs):
        counts["fraction_new"] += 1
        return fraction_new(cls, *args, **kwargs)

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    with Patches() as patches:
        patches.set(Fraction, "__new__", staticmethod(counting_new))
        patches.set(stiefel, "tau_of_frame", counting("objective_evals", stiefel.tau_of_frame))
        patches.set(stiefel, "tau_gradient", counting("iterations", stiefel.tau_gradient))
        patches.set(stiefel, "retract_qf", counting("qr_retractions", stiefel.retract_qf))
        run_items()
    return counts
