"""Seeded workloads for the deltahyp benchmark.

A workload is a fixed set of CLI items (argv plus what the checker expects)
and a list of passes, each the whole set in a seeded order.  Every input,
including the ``--matrix`` and ``--case`` files, is generated from the seed
before timing starts; the program sees only those inputs.  The runner cycles
through the passes and always finishes the pass it is in, so every run
measures whole passes, the same input mix, and every item the same number of
times.

The expected values are computed here, independently of the package:
integer brute force for exact delta(r), NumPy eigenvalues plus a subset scan
for the optimizer items, closed forms for cylinders and grids, and sympy's
resultant (when sympy is installed) for the replay's final eliminant.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np

VERDICT = "H-locally-constant"
FINAL_SHAPE = (26, 99, 25)  # terms, H-degree and a-degree of every final resultant
REPLAY_VARS = ("H", "beta", "a")


@dataclass(frozen=True)
class Item:
    kind: str
    argv: tuple[str, ...]
    expect: object = None


@dataclass
class Result:
    item: Item
    code: int | None
    out: str
    err: str
    seconds: float
    reference_s: float = 0.0  # the machine-speed reading around the call, see run.py


PASSES = 16  # seeded orders of the item set; a run cycles through them


def _orders(rng: random.Random, items: list[Item]) -> list[list[Item]]:
    return [rng.sample(items, len(items)) for _ in range(PASSES)]


class Workload:
    """Base: ``passes``, ``count_items`` and the per-kind checkers."""

    name = ""
    passes: list[list[Item]]
    count_items: list[Item]

    def check(self, result: Result) -> str | None:
        """Reason the item's exit code or output is wrong, or None."""
        return getattr(self, "_check_" + result.item.kind.replace("-", "_"))(result)

    def check_run(self, results: list[Result]) -> dict[int, str]:
        """Checks that span several items, keyed by result index."""
        return {}

    def describe(self, results: list[Result]) -> dict:
        return {}


def _expect_exit(result: Result, code: int) -> str | None:
    if result.code != code:
        return f"exit code {result.code}, expected {code}"
    return None


def _close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * max(1.0, abs(expected))


# -- replay-sweep -------------------------------------------------------------------


def parse_poly(text: str) -> dict[tuple[int, ...], Fraction]:
    """Parse the canonical render (``3/2*H^2*beta - a + 7``) over H, beta, a."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        factors = token.lstrip("-").split("*")
        coeff = Fraction(1)
        if factors[0][0].isdigit():
            coeff = Fraction(factors.pop(0))
        exp = [0, 0, 0]
        for factor in factors:
            name, _, power = factor.partition("^")
            exp[REPLAY_VARS.index(name)] += int(power or 1)
        terms[tuple(exp)] = sign * coeff
    return terms


def poly_size(terms: dict[tuple[int, ...], Fraction]) -> dict:
    return {
        "terms": len(terms),
        "degree": max(sum(e) for e in terms),
        "coeff_bits": max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                          for c in terms.values()),
    }


def sympy_oracle(report: dict) -> str | None:
    """sympy's resultant of the reported curves must equal the reported final
    resultant up to a nonzero rational; None when it does."""
    import sympy

    gens = sympy.symbols(REPLAY_VARS)
    H, beta, a = gens

    def as_expr(text):
        data = {e: sympy.Rational(c.numerator, c.denominator) for e, c in parse_poly(text).items()}
        return sympy.Poly.from_dict(data, *gens).as_expr()

    theirs = sympy.resultant(as_expr(report["curve9"]), as_expr(report["curve12"]), beta)
    theirs = sympy.Poly(theirs, H, a, domain="QQ")
    ours = sympy.Poly(as_expr(report["final_resultant"]), H, a, domain="QQ")
    if theirs.is_zero or ours.is_zero:
        return "sympy oracle: a resultant is zero"
    if theirs * ours.LC() != ours * theirs.LC():
        return "sympy oracle: final resultant is not sympy's resultant up to a unit"
    return None


class ReplaySweep(Workload):
    """``replay --n N --format json`` for N in ``N_VALUES``, symbolic a.

    Every n costs about the same (one replay is about a second), so eight
    values from 4 to 16 keep a pass short enough to repeat each n four times
    or more in a run; n = 5 is among them for the golden report.
    """

    name = "replay-sweep"
    N_VALUES = (4, 5, 6, 8, 10, 12, 14, 16)

    def __init__(self, seed: int, workdir: Path, root: Path, tiny: bool = False):
        rng = random.Random(seed)
        n_values = (4, 5) if tiny else self.N_VALUES
        self.passes = _orders(rng, [self._item(n) for n in n_values])
        self.count_items = [self._item(n) for n in ([4] if tiny else [4, 8, 12])]
        self.golden = (root / "tests" / "data" / "replay_n5_symbolic.json").read_text(
            encoding="utf-8")

    @staticmethod
    def _item(n: int) -> Item:
        return Item("replay", ("replay", "--n", str(n), "--format", "json"), n)

    def _check_replay(self, result: Result) -> str | None:
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        report = json.loads(result.out)
        if report["config"]["n"] != result.item.expect:
            return f"report is for n={report['config']['n']}"
        verdicts = [report["verdict"]] + [b["verdict"] for b in report["branches"].values()]
        if any(v != VERDICT for v in verdicts):
            return f"verdicts {verdicts!r}"
        terms = parse_poly(report["final_resultant"])
        shape = (len(terms), max(e[0] for e in terms), max(e[2] for e in terms))
        if shape != FINAL_SHAPE:
            return f"final resultant has (terms, H-degree, a-degree) = {shape}"
        return None

    def check_run(self, results: list[Result]) -> dict[int, str]:
        failures: dict[int, str] = {}
        first: dict[int, str] = {}
        for index, result in enumerate(results):
            n = result.item.expect
            if first.setdefault(n, result.out) != result.out:
                failures[index] = f"n={n} output differs between repeats"
            if n == 5 and result.out != self.golden:
                failures[index] = "n=5 output differs from tests/data/replay_n5_symbolic.json"
        try:
            import sympy  # noqa: F401
        except ImportError:
            self.oracle = "skipped: sympy not installed"
            return failures
        self.oracle = f"sympy resultant checked for n={sorted(first)}"
        for n, out in first.items():
            try:
                reason = sympy_oracle(json.loads(out))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"sympy oracle could not read the report: {exc}"
            if reason:
                for index, result in enumerate(results):
                    if result.item.expect == n:
                        failures.setdefault(index, reason)
        return failures

    def describe(self, results: list[Result]) -> dict:
        sizes = {}
        for result in results:
            n = result.item.expect
            if n in sizes or result.code != 0:
                continue
            try:
                report = json.loads(result.out)
                sizes[n] = {key: poly_size(parse_poly(report[key]))
                            for key in ("curve9", "curve12", "final_resultant")}
            except (ValueError, KeyError, TypeError):
                continue
        return {"sizes": dict(sorted(sizes.items())),
                "oracle": getattr(self, "oracle", "not run")}


# -- delta-optimizer -----------------------------------------------------------------


def reference_delta(eigenvalues, r: int) -> float:
    """tau minus the smallest pair sum over r-subsets of the eigenvalues."""
    values = [float(x) for x in eigenvalues]

    def e2(vals):
        return sum(x * y for x, y in combinations(vals, 2))

    return e2(values) - min(e2(sub) for sub in combinations(values, r))


class DeltaOptimizer(Workload):
    """``delta --r R --matrix FILE`` on random symmetric operators with default
    restarts, plus the ROADMAP anchor ``ideal --r 3 --spectrum 1,2,3,6``.

    The optimizer's cost differs by a factor of ten between operators of the
    same size (restarts that stop at the iteration cap), so a pool drawn anew
    for each seed would let the seed, not the program, set the figures.  The
    operators are therefore drawn once from ``POOL_ENTROPY``, one per
    ``(n, r)`` in ``SIZES``, each with the optimizer seed ``1000 + index``;
    the cheap (5, 2) operator also runs with seed 2001, so the set has an
    odd number of items and its median is one item's latency.  The seed sets
    the order of each pass and the sign of each operator: A and -A give the
    optimizer bit-identical work (tau and its gradient are even in A) but
    different spectra, H and reports to check.  A pass takes about six
    seconds, so a run repeats every item.  The r = 2 anchor
    ``delta --r 2 --spectrum 1,2,3,6`` is left out: at about ten seconds a
    call, a run could not repeat it.
    """

    name = "delta-optimizer"
    POOL_ENTROPY = 14127081
    # (n, r) by pool index; the index keys the operator's generator and its optimizer seed
    SIZES = {1: (5, 2), 2: (6, 2), 4: (8, 2), 7: (6, 3), 9: (8, 3)}
    EXTRA_SEEDS = {1: (2001,)}
    ANCHOR = Item("anchor-ideal", ("ideal", "--r", "3", "--spectrum", "1,2,3,6"))

    def __init__(self, seed: int, workdir: Path, root: Path, tiny: bool = False):
        rng = random.Random(seed)
        pool = []
        for index, (n, r) in self.SIZES.items():
            if tiny and index not in (1, 9):
                continue
            gen = np.random.default_rng([self.POOL_ENTROPY, index])
            m = gen.standard_normal((n, n))
            m = rng.choice((1.0, -1.0)) * (m + m.T) / 2.0
            path = workdir / f"operator{index}.json"
            path.write_text(json.dumps({"n": n, "matrix": m.tolist()}), encoding="utf-8")
            expected = (n, r, reference_delta(np.linalg.eigvalsh(m), r))
            for opt_seed in (1000 + index, *self.EXTRA_SEEDS.get(index, ())):
                argv = ("delta", "--r", str(r), "--matrix", str(path), "--seed", str(opt_seed))
                pool.append(Item("optimizer", argv, expected))
        self.passes = _orders(rng, pool + [self.ANCHOR])
        self.count_items = pool[:1] if tiny else pool[:3]

    def _check_optimizer(self, result: Result) -> str | None:
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        n, r, expected = result.item.expect
        report = json.loads(result.out)
        if (report["n"], report["r"]) != (n, r):
            return f"report is for n={report['n']}, r={report['r']}"
        if not _close(report["delta"]["delta"], expected, 1e-6):
            return f"delta {report['delta']['delta']!r}, reference {expected!r}"
        if report["gap"] < -1e-9:
            return f"delta exceeds the universal bound by {-report['gap']!r}"
        return None

    def _check_anchor_ideal(self, result: Result) -> str | None:
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        report = json.loads(result.out)
        if report["ideal"] is not True or not _close(report["delta"], 36.0, 1e-9):
            return f"delta(3) of 1,2,3,6 is {report['delta']!r}, expected 36 and ideal"
        return None


# -- pointwise-exact -------------------------------------------------------------------


def exact_delta(spectrum: list[Fraction], r: int) -> tuple[Fraction, Fraction]:
    """(delta, inf tau_L) by brute force over r-subsets, in integers."""
    scale = math.lcm(*(x.denominator for x in spectrum))
    ints = [int(x * scale) for x in spectrum]

    def e2(vals):
        total = sum(vals)
        return (total * total - sum(v * v for v in vals)) // 2

    inf = min(e2(sub) for sub in combinations(ints, r))
    return Fraction(e2(ints) - inf, scale * scale), Fraction(inf, scale * scale)


def exact_ideal(spectrum: list[Fraction], r: int) -> bool:
    """The CLI's ideality rule |bound - delta| <= 1e-8, evaluated exactly."""
    n = len(spectrum)
    H = sum(spectrum) / n
    bound = Fraction(n * n * (n - r), 2 * (n - r + 1)) * H * H
    return abs(bound - exact_delta(spectrum, r)[0]) <= Fraction(1, 10**8)


class PointwiseExact(Workload):
    """Exact-arithmetic and pointwise commands; none uses the optimizer.

    The item set is two groups, each of: 24 ``delta --no-optimizer`` and 12
    ``ideal --no-optimizer`` items on rational spectra (n 4..9), 12 ``ideal``
    items on ideal-pattern spectra, 12 ``null2`` items on catalog cylinders,
    12 ``catalog`` items on immersion grids, and one ``delta --no-optimizer``
    at n = 13, with R = 6 in one group and 7 in the other (C(13, 6) = 1716).
    The sizes (n, R, grid dimension) are fixed per slot and the seed draws
    the values, so every seed gives the same mix of costs.
    The two heavy items take about half of a pass, so the millisecond items'
    fixed per-invocation cost stays a large share of ``items_per_s``.
    """

    name = "pointwise-exact"
    DENOMINATORS = (1, 2, 3, 4, 5, 8)

    def __init__(self, seed: int, workdir: Path, root: Path, tiny: bool = False):
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.files = 0
        each = 1 if tiny else 12
        self.count_items = self._group(each, 0)
        items = self.count_items + ([] if tiny else self._group(each, 1))
        self.passes = _orders(self.rng, items)

    def _rational(self, low: int, high: int) -> Fraction:
        return Fraction(self.rng.randint(low, high), self.rng.choice(self.DENOMINATORS))

    def _write(self, payload: dict) -> str:
        self.files += 1
        path = self.workdir / f"case{self.files}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    @staticmethod
    def _spec_arg(spectrum: list[Fraction]) -> str:
        # the = form keeps a leading minus sign from reading as an option
        return "--spectrum=" + ",".join(str(x) for x in spectrum)

    def _delta_item(self, n: int, r: int) -> Item:
        spectrum = [self._rational(-12, 12) for _ in range(n)]
        argv = ("delta", "--no-optimizer", "--r", str(r), self._spec_arg(spectrum))
        return Item("exact-delta", argv, (spectrum, r))

    def _group(self, each: int, index: int) -> list[Item]:
        # sizes follow the slot, values follow the seed: the cost mix is the same for every seed
        rng = self.rng
        items = []
        for k in range(2 * each):
            n = 4 + k % 6
            items.append(self._delta_item(n, 2 + (k // 6 + index) % (n - 2)))
        for k in range(each):
            n = 4 + k % 6
            r = 2 + (k // 6 + index) % (n - 2)
            spectrum = [self._rational(-12, 12) for _ in range(n)]
            argv = ("ideal", "--no-optimizer", "--r", str(r), self._spec_arg(spectrum))
            items.append(Item("exact-ideal", argv, exact_ideal(spectrum, r)))
        for k in range(each):
            n = 4 + k % 6
            triple = [Fraction(rng.randint(1, 6), rng.choice((1, 2, 4))) for _ in range(3)]
            spectrum = triple + [sum(triple)] * (n - 3)
            rng.shuffle(spectrum)
            argv = ("ideal", "--no-optimizer", "--r", "3", self._spec_arg(spectrum))
            items.append(Item("ideal-pattern", argv))
        for k in range(each):
            n = 3 + k % 7
            p = 1 + (k + index) % (n - 1)
            radius = round(rng.uniform(0.5, 3.0), 4)
            case = {"kind": "spherical-cylinder", "n": n, "p": p, "radius": radius}
            items.append(Item("cylinder", ("null2", "--case", self._write(case)), p / radius**2))
        for k in range(each):
            items.append(self._grid_item(2 + k % 2))
        items.append(self._delta_item(13, 6 + index % 2))  # C(13,6) = C(13,7) = 1716
        return items

    def _grid_item(self, n: int) -> Item:
        """Graph of 1/2 x^T S x + sum q_i x_i^4 on a 5^n lattice around 0.

        At the origin the shape operator is S; the quartic term makes the
        central differences err by O(h^2), at most 2 |q| h^2 = 5e-5 here.
        """
        gen = self.np_rng
        kappa = gen.uniform(-1.0, 2.0, n)
        while abs(kappa.sum()) < 0.5:  # keep the normal's orientation unambiguous
            kappa = gen.uniform(-1.0, 2.0, n)
        q_mat, _ = np.linalg.qr(gen.standard_normal((n, n)))
        S = q_mat @ np.diag(kappa) @ q_mat.T
        S = (S + S.T) / 2.0
        quartic = gen.uniform(-1.0, 1.0, n)
        h = gen.uniform(2e-3, 5e-3, n)
        points = []
        for index in product(range(5), repeat=n):
            x = (np.array(index) - 2) * h
            points.extend([*x.tolist(), float(0.5 * x @ S @ x + quartic @ x**4)])
        case = {"n": n, "h": h.tolist(), "base": [2] * n, "shape": [5] * n, "points": points}
        expected = sorted(np.sign(kappa.sum()) * np.linalg.eigvalsh(S))
        return Item("grid", ("catalog", "--case", self._write(case)), expected)

    def _check_exact_delta(self, result: Result) -> str | None:
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        spectrum, r = result.item.expect
        delta, inf = exact_delta(spectrum, r)
        exact = json.loads(result.out)["exact"]
        if exact["delta"] != str(delta) or exact["inf_tau_L"] != str(inf):
            return (f"exact delta {exact['delta']} / inf {exact['inf_tau_L']}, "
                    f"expected {delta} / {inf}")
        return None

    def _check_exact_ideal(self, result: Result) -> str | None:
        ideal = result.item.expect
        bad = _expect_exit(result, 0 if ideal else 1)
        if bad:
            return bad
        if json.loads(result.out)["ideal"] is not ideal:
            return f"ideal flag differs from the exact rule ({ideal})"
        return None

    def _check_ideal_pattern(self, result: Result) -> str | None:
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        report = json.loads(result.out)
        if report["ideal"] is not True or report["pattern"] is None:
            return "ideal-pattern spectrum not reported ideal with its pattern"
        return None

    def _check_cylinder(self, result: Result) -> str | None:
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        report = json.loads(result.out)
        if report["status"] != "null-2-type-candidate" or not _close(
                report["a"], result.item.expect, 1e-12):
            return f"cylinder reports {report['status']}, a={report['a']!r}, expected p/r^2"
        return None

    def _check_grid(self, result: Result) -> str | None:
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        got = json.loads(result.out)["spectrum"]["principal_curvatures"]
        expected = result.item.expect
        if len(got) != len(expected) or max(abs(g - e) for g, e in zip(got, expected)) > 1e-4:
            return f"grid principal curvatures {got}, expected {expected}"
        return None


WORKLOADS = {cls.name: cls for cls in (ReplaySweep, DeltaOptimizer, PointwiseExact)}
