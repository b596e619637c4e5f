"""Exact replay of the curvature-flow elimination.

The pipeline drives a small ODE-like system of frame quantities through a
fixed table of algebraic stages (``_STAGES``).  Each row names a stage, the
stages it depends on, and the method that runs it:

    stage            depends on                       derives
    lemma31          -                                spectrum certificates
    omega            -                                connection-quotient identities
                                                      and the quadratic product relation
    lemma32          -                                eliminant certificates for the
                                                      two auxiliary directions
    masters          omega                            three master equations linear
                                                      in the second flow derivative
    first_integrals  masters                          first integrals solving for the
                                                      individual flow terms
    tangency         first_integrals                  tangency curve of total degree 9
    prolonged        tangency                         its degree-12 prolongation
    eliminate        lemma31, omega, lemma32,         final resultant eliminating the
                     prolonged                        off-trace eigenvalue

``_Pipeline.run(stage)`` runs a stage's dependencies first, each once and in
table order, and memoizes every result; running ``eliminate`` is therefore
the full replay.  A stage's result carries only the checkpoints it emitted.

Every stage emits checkpoints comparing the derived polynomial against a
closed-form reference table (`reference_forms`).  Coefficient disagreements
with the reference are recorded as ``flagged-mismatch`` and do not halt the
run; structural violations (wrong support, wrong degree, failed internal
identity) raise :class:`~deltahyp.errors.CheckpointFailure`, which carries the
partial report built up to that point.

Two sign branches of the quadratic product relation are carried throughout:
the replayed branch (primary, matching the reference chain downstream) and
the first-principles branch (the sign the quotient identities force).  The
final verdict is reported for the primary branch, with the other branch
summarized alongside.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NoReturn, Optional

from . import reference_forms as ref
from .derivation import Derivation, DerivationAlgebra, ReplayConfig, build_algebra
from .errors import CheckpointFailure, ExactDivisionError
from .poly import (
    MODULUS,
    Polynomial,
    PolynomialRing,
    RationalFunction,
    _from_image,
    gcd_degree_mod_p,
    poly_gcd,
    residue,
    residues,
)
from .resultant import resultant, resultant_is_zero

# Checkpoint statuses.
EXACT = "exact-match"
UP_TO_UNIT = "match-up-to-unit"
STRUCTURAL = "structural-only"
FLAGGED = "flagged-mismatch"

VERDICT_CONSTANT = "H-locally-constant"
VERDICT_INCONCLUSIVE = "inconclusive"

BRANCH_REPLAYED = "replayed"
BRANCH_FIRST_PRINCIPLES = "first-principles"


@dataclass(frozen=True)
class SideCondition:
    """A nonvanishing assumption consumed when a denominator was cleared."""

    expr: Polynomial
    origin: str

    def to_json_dict(self) -> dict:
        return {"expr": self.expr.render(), "origin": self.origin}


@dataclass
class Checkpoint:
    """Outcome of comparing one derived stage against its reference form.

    ``derived`` and ``expected`` hold text only in a run that keeps
    intermediates, the only report that prints them; otherwise they are None."""

    id: str
    status: str
    derived: Optional[str] = None
    expected: Optional[str] = None
    note: str = ""

    def to_json_dict(self, keep_intermediates: bool) -> dict:
        out = {"id": self.id, "status": self.status}
        if keep_intermediates:
            out["derived"] = self.derived
            out["expected"] = self.expected
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class ContradictionCertificate:
    """Named certificate rejecting the degenerate eigenvalue branch."""

    n: int
    vacuous: bool
    trace_from_sum: Optional[str]
    trace_from_pattern: Optional[str]
    consequence: Optional[str]
    conclusion: str
    spectrum: tuple[Polynomial, ...] = ()
    identities: dict[str, bool] = field(default_factory=dict)

    @property
    def accepted_spectrum(self) -> dict[str, str]:
        """The accepted spectrum as text, rendered on each read."""
        names = ("lambda_1", "lambda_2", "lambda_3", "lambda_tail")
        return {k: lam.render() for k, lam in zip(names, self.spectrum)}


@dataclass
class OmegaIdentityProof:
    """Residues and derived quadratic relations for the connection quotients;
    ``residues`` and ``relations`` render their forms on each read."""

    residue_forms: dict[str, RationalFunction]
    relation_forms: dict[str, RationalFunction | Polynomial]
    checkpoints: list[Checkpoint]

    @property
    def residues(self) -> dict[str, str]:
        return {k: form.render() for k, form in self.residue_forms.items()}

    @property
    def relations(self) -> dict[str, str]:
        return {k: form.render() for k, form in self.relation_forms.items()}


@dataclass
class EliminantCertificate:
    """Resultant certificate for one auxiliary-direction branch; ``eliminant``
    and ``pattern`` render their forms on each read."""

    label: str
    eliminant_form: Polynomial
    pattern_form: Polynomial
    unit: Fraction
    side_conditions: list[SideCondition]

    @property
    def eliminant(self) -> str:
        return self.eliminant_form.render()

    @property
    def pattern(self) -> str:
        return self.pattern_form.render()


@dataclass
class Lemma32Certificates:
    """Both auxiliary-direction certificates plus their checkpoints."""

    pair_branch: EliminantCertificate
    tail_branch: EliminantCertificate
    checkpoints: list[Checkpoint]


@dataclass
class MasterEquations:
    """The three derived master equations of the replayed branch."""

    unreduced_first: Polynomial
    unreduced_second: Polynomial
    first: Polynomial
    second: Polynomial
    third: Polynomial
    checkpoints: list[Checkpoint]


@dataclass
class FirstIntegrals:
    """Solved flow terms: each relation is (term) - (closed form in H, beta, a)."""

    sum_quotient: Polynomial
    lone_quotient: Polynomial
    product: Polynomial
    square: Polynomial
    checkpoints: list[Checkpoint]


@dataclass
class BranchSummary:
    label: str
    curve9: Polynomial
    curve12: Polynomial
    resultant_nonzero: bool
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "curve9": self.curve9.render(),
            "curve12": self.curve12.render(),
            "resultant_nonzero": self.resultant_nonzero,
            "verdict": self.verdict,
        }


@dataclass
class EliminationReport:
    """Full record of one replay run."""

    version: str
    config: ReplayConfig
    checkpoints: list[Checkpoint]
    side_conditions: list[SideCondition]
    curve9: Optional[Polynomial]
    curve12: Optional[Polynomial]
    final_resultant: Optional[Polynomial]
    verdict: str
    branches: dict[str, BranchSummary]
    notes: list[str]

    def to_json_dict(self) -> dict:
        cfg = {
            "n": self.config.n,
            "a_mode": self.config.a_mode,
            "a_value": None if self.config.a_value is None else str(self.config.a_value),
            "keep_intermediates": self.config.keep_intermediates,
        }
        return {
            "version": self.version,
            "config": cfg,
            "checkpoints": [
                c.to_json_dict(self.config.keep_intermediates) for c in self.checkpoints
            ],
            "side_conditions": [s.to_json_dict() for s in self.side_conditions],
            "curve9": None if self.curve9 is None else self.curve9.render(),
            "curve12": None if self.curve12 is None else self.curve12.render(),
            "final_resultant": (
                None if self.final_resultant is None else self.final_resultant.render()
            ),
            "verdict": self.verdict,
            "branches": {k: b.to_json_dict() for k, b in self.branches.items()},
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

# ring of the curves and the final resultant as they appear in reports
_CURVE_RING = PolynomialRing(("H", "beta", "a"))

_CARRIED_FORWARD = (
    "reference coefficient table for this tag is not reproducible "
    "from the master equations (see notes); derived relation is "
    "carried forward."
)


@dataclass
class _BranchState:
    """Per-branch intermediates (sign = +1 replayed, -1 first-principles)."""

    sign: int
    unreduced_first: Polynomial = None
    master_first: Polynomial = None
    X: Polynomial = None  # value of (w212 + w313) * E
    Y: Polynomial = None  # value of w414 * E
    S: Polynomial = None  # value of E^2
    Q: Polynomial = None  # value of w212 * w313
    L: Polynomial = None
    M: Polynomial = None
    N: Polynomial = None
    curve9: Polynomial = None  # restricted to _CURVE_RING by eliminate
    curve12: Polynomial = None
    final_resultant: Polynomial = None  # replayed branch only
    resultant_nonzero: bool = None  # first-principles branch only


class _Pipeline:
    """Runs the stage table for one configuration and collects the report."""

    def __init__(self, cfg: ReplayConfig):
        self.cfg = cfg
        self.alg: DerivationAlgebra = build_algebra(cfg)
        self.ring = self.alg.ring
        self.n = cfg.n
        self.c1 = self.alg.c1
        self.c2 = self.alg.c2
        self.checkpoints: list[Checkpoint] = []
        self.side_conditions: list[SideCondition] = []
        self.notes: list[str] = []
        self.branches = {
            BRANCH_REPLAYED: _BranchState(sign=+1),
            BRANCH_FIRST_PRINCIPLES: _BranchState(sign=-1),
        }
        self._allowed_conditions = [
            p.primitive() for p in ref.allowed_side_conditions(self.alg)
        ]
        self._results: dict[str, object] = {}
        self._stage_start = 0
        # frequently used generators
        r = self.ring
        self.H = r.var("H")
        self.E = r.var("E")
        self.EE = r.var("EE")
        self.u = r.var("w212")
        self.v = r.var("w313")
        self.w = r.var("w414")
        self.h = r.var("h")
        lam1, lam2, lam3, lam_tail = self.alg.spectrum
        self.p = lam1 - lam2
        self.q = lam1 - lam3
        self.K = (self.n - 3) * lam_tail * (lam2 + lam3) + lam2 * lam3
        if cfg.a_mode == "numeric":
            self.a_poly = r.const(cfg.a_value)
        else:
            self.a_poly = r.var("a")

    # -- driver -----------------------------------------------------------------

    def run(self, stage: str):
        """Run ``stage`` after its dependencies; every stage runs at most once."""
        if stage not in self._results:
            dependencies, method = _STAGES[stage]
            for dependency in dependencies:
                self.run(dependency)
            self._stage_start = len(self.checkpoints)
            self._results[stage] = method(self)
        return self._results[stage]

    def _stage_checkpoints(self) -> list[Checkpoint]:
        """The checkpoints emitted by the stage that is running."""
        return self.checkpoints[self._stage_start:]

    # -- bookkeeping ----------------------------------------------------------

    def _report(self, verdict: str, branches: dict[str, BranchSummary]) -> EliminationReport:
        """The report as it stands: final after ``eliminate``, partial on failure."""
        rep = self.branches[BRANCH_REPLAYED]
        curve9, curve12 = (
            None if c is None else c.restrict_ring(_CURVE_RING)
            for c in (rep.curve9, rep.curve12)
        )
        return EliminationReport(
            version="1",
            config=self.cfg,
            checkpoints=list(self.checkpoints),
            side_conditions=list(self.side_conditions),
            curve9=curve9,
            curve12=curve12,
            final_resultant=rep.final_resultant,
            verdict=verdict,
            branches=branches,
            notes=list(self.notes),
        )

    def _fail(self, message: str) -> NoReturn:
        """Halt the replay, attaching the partial report built so far."""
        raise CheckpointFailure(message, report=self._report(VERDICT_INCONCLUSIVE, {}))

    def _exact_div(self, num: Polynomial, den: Polynomial, what: str) -> Polynomial:
        try:
            return num.exact_div(den)
        except ExactDivisionError as exc:
            self._fail(f"{what}: {exc}")

    def _as_polynomial(self, value: RationalFunction, what: str) -> Polynomial:
        try:
            return value.as_polynomial()
        except ValueError:
            self._fail(f"{what} kept a denominator: {value.render()}")

    def _add_side_condition(self, expr: Polynomial, origin: str) -> SideCondition:
        """Record a cleared denominator; return its ledger entry.

        Every stage runs once and records each (origin, expression) pair at one
        call site, so the ledger holds no repeats."""
        prim = expr.primitive()
        if not any(prim == allowed for allowed in self._allowed_conditions):
            self._fail(
                f"side condition {prim.render()!r} (origin {origin}) is outside "
                "the fixed vocabulary of clearable denominators"
            )
        self.side_conditions.append(SideCondition(prim, origin))
        return self.side_conditions[-1]

    def _checkpoint(self, tag: str, status: str, derived, expected, note: str) -> None:
        """Append one checkpoint to the ledger; the only place one is built.

        ``derived`` and ``expected`` are text, None or forms with ``render``.
        Forms are rendered only when the report keeps intermediates, the only
        output that prints them; one form passed as both renders once."""
        if self.cfg.keep_intermediates:
            text = _text(derived)
            derived, expected = text, text if expected is derived else _text(expected)
        else:
            derived = expected = None
        self.checkpoints.append(Checkpoint(tag, status, derived, expected, note))

    def _checkpoint_compare(
        self,
        tag: str,
        derived: Polynomial,
        expected: Polynomial,
        note: str = "",
    ) -> str:
        """Compare up to a nonzero rational factor via lead-positive primitives;
        return the status recorded."""
        dp = derived.primitive()
        ep = expected.primitive()
        status = EXACT
        if dp != ep:
            status = FLAGGED
            diff = dp - ep
            reference = ep.support()
            # a reference term agrees exactly when the difference lacks its monomial
            agree = reference - diff.support()
            mismatch = (
                "derived relation does not reproduce the reference coefficient table; "
                f"{len(agree)} of {len(reference)} reference terms agree, "
                f"difference (primitive comparison) = {diff.render()}"
            )
            note = f"{note} {mismatch}" if note else mismatch
        self._checkpoint(tag, status, derived, expected, note)
        return status

    def _support_checkpoint(
        self, tag: str, poly: Polynomial, template: frozenset, degree: Optional[int], why: str
    ) -> None:
        """Halt unless ``poly`` is nonzero, its (H, beta, a)-support lies in
        ``template`` and, when ``degree`` is given, its joint (H, beta) degree
        is ``degree``; otherwise record a structural checkpoint.

        With a numeric type constant the a-slot folds into the (H, beta) part,
        and so does the template; because every template is weight-homogeneous
        (a counting twice), the folded exponent lifts back uniquely, so
        membership remains decidable.
        """
        support = self._form_part(poly).support(_CURVE_RING.vars)
        if self.cfg.a_mode == "numeric":
            template = {(i, j, 0) for i, j, _ in template}
        if not (support and support <= template and (
            degree is None or max(i + j for i, j, _ in support) == degree
        )):
            self._fail(f"checkpoint {tag}: structural requirement failed: {why}")
        self._checkpoint(tag, STRUCTURAL, poly, None, why)

    def _unit(self, poly: Polynomial, divisor: Polynomial, what: str) -> Fraction:
        """The nonzero rational u with poly = u * divisor; halt if there is none."""
        try:
            quotient = poly.exact_div(divisor)
            # total degree -1 for a zero quotient
            failure = quotient.total_degree() and f"quotient {quotient.render()}"
        except ExactDivisionError as exc:
            failure = str(exc)
        if failure:
            self._fail(f"{what} is not a nonzero constant times {divisor.render()}: {failure}")
        return quotient.leading_coefficient()

    def _form_part(self, poly: Polynomial) -> Polynomial:
        """Assert the remainder uses only H, beta, a and return it."""
        if not set(poly.variables_used()) <= set(_CURVE_RING.vars):
            self._fail(f"expected a pure (H, beta, a) form, got {poly.render()}")
        return poly

    # -- stage: spectrum certificates ------------------------------------------

    def lemma31(self) -> ContradictionCertificate:
        n = self.n
        if n == 4:
            # Degenerate branch: the three-value pattern (alpha, beta, gamma, s)
            # with the repeated value forced to -(n/2) H.  The trace computed
            # from the pattern then contradicts the trace computed from the sum.
            ring = PolynomialRing(("H", "alpha", "beta", "gamma"))
            H = ring.var("H")
            alpha, beta, gamma = ring.var("alpha"), ring.var("beta"), ring.var("gamma")
            s = alpha + beta + gamma
            trace_sum = Fraction(n) * H  # n*H, by definition of the mean
            trace_pattern = (2 * s).substitute(
                "gamma", self.c1 * H - alpha - beta
            )  # repeated value pinned to c1*H
            consequence = (trace_sum - trace_pattern).render()
            traces = (trace_sum.render(), trace_pattern.render(), consequence)
            conclusion = (
                "degenerate branch forces the mean curvature to vanish, "
                "contradicting the running nonvanishing hypothesis; rejected"
            )
            note = f"degenerate branch rejected: trace mismatch {consequence} = 0 forces H = 0"
        else:
            traces = (None, None, None)
            conclusion = (
                "degenerate branch is vacuous: a repeated value of "
                "multiplicity one only occurs when n = 4"
            )
            note = "degenerate branch vacuous for n >= 5"
        # Accepted branch: the spectrum used by the rest of the pipeline,
        # with its two exact consistency identities.
        cert = ContradictionCertificate(n, n != 4, *traces, conclusion, self.alg.spectrum)
        *first_three, lam_tail = self.alg.spectrum
        cert.identities = {
            "trace_equals_nH": (sum(first_three) + (n - 3) * lam_tail - n * self.H).is_zero(),
            "first_three_sum": (sum(first_three) - lam_tail).is_zero(),
        }
        if not all(cert.identities.values()):
            self._fail("accepted spectrum failed its trace identities")
        self._checkpoint("L3.1", EXACT, cert.consequence, None, note)
        return cert

    # -- stage: connection-quotient identities ----------------------------------

    def omega(self) -> OmegaIdentityProof:
        n, h = self.n, self.h
        u, v, w = self.u, self.v, self.w
        lam1, lam2, lam3, lam_tail = self.alg.spectrum
        B1 = lam1 + lam2
        B2 = lam2 - lam_tail
        B3 = lam2 - lam3
        rf = RationalFunction
        # quotient forms (each pair is antisymmetric in its two lower slots)
        q_23 = rf(-h, B1)  # and its partner q_2j3 = +h/B1
        q_2j3 = rf(h, B1)
        q_32 = rf(h, B2)
        q_3j2 = rf(-h, B2)
        q_j23 = rf(h, B3)
        q_j32 = rf(-h, B3)

        # the six quotient products every residue and relation below is built from
        p_2j3_j32 = q_2j3 * q_j32
        p_3j2_j23 = q_3j2 * q_j23
        p_23_3j2 = q_23 * q_3j2
        p_23_skew = (q_j23 - q_2j3) * q_3j2
        p_32_skew = (q_j32 - q_3j2) * q_2j3
        p_j2_skew = (q_32 - q_23) * q_j32

        residues = {
            "pair-23": -p_2j3_j32 - p_23_skew,
            "pair-32": -p_3j2_j23 - p_32_skew,
            "pair-j2": -p_23_3j2 - p_j2_skew,
            "cyclic": p_2j3_j32 + p_3j2_j23 + p_23_3j2,
        }
        for label, value in residues.items():
            if not value.is_zero():
                self._fail(f"quotient residue {label} did not vanish: {value.render()}")
        self._checkpoint("3.41-cyclic", EXACT, "0", "0",
                         "all three pairwise products and the cyclic sum reduce to zero "
                         "over the common denominators")

        # Two-product forms (3.42)-(3.44): the given relations (3.34)-(3.36)
        # with their pairwise residue (times n-3 for 3.36) folded in, so the
        # residue checks above check them.  Diagonal coefficients enter as the
        # antisymmetric partners of w414 resp. w313.
        derived = {
            "3.42": rf(-(w * u) - lam_tail * lam2) - 2 * p_2j3_j32,
            "3.43": rf(-(w * v) - lam_tail * lam3) - 2 * p_3j2_j23,
            "3.44": rf(-(v * u) - lam2 * lam3) - 2 * Fraction(n - 3) * p_23_3j2,
        }
        for tag, source in (("3.42", "3.34"), ("3.43", "3.35"), ("3.44", "3.36")):
            self._checkpoint(tag, EXACT, derived[tag], derived[tag],
                             f"two-product form coincides with {source} modulo the "
                             "verified pairwise residue")

        # Aggregate: (n-3)*(3.42) + (n-3)*(3.43) + (3.44); the cyclic residue
        # cancels every quotient product, leaving a polynomial relation.
        aggregate = (
            Fraction(n - 3) * derived["3.42"]
            + Fraction(n - 3) * derived["3.43"]
            + derived["3.44"]
        )
        product_rel = self._as_polynomial(aggregate, "aggregated quadratic relation")
        self._checkpoint_compare(
            "3.45",
            product_rel,
            ref.product_relation(self.alg),
            note=(
                "diagonal first-slot coefficients read as the antisymmetric "
                "partners (-w414, -w313); with that reading the aggregate of the "
                "three two-product relations reproduces the reference right side "
                "exactly."
            ),
        )
        return OmegaIdentityProof(
            residue_forms=residues,
            relation_forms={**derived, "3.45": product_rel},
            checkpoints=self._stage_checkpoints(),
        )

    # -- stage: auxiliary-direction eliminants ----------------------------------

    def lemma32(self) -> Lemma32Certificates:
        c1, c2 = self.c1, self.c2
        lam1, lam2, lam3, lam_tail = self.alg.spectrum
        # Pair branch: two relations linear in the shared quotient X.
        ring = PolynomialRing(("H", "beta", "X"))
        H, beta, X = ring.var("H"), ring.var("beta"), ring.var("X")
        q_local = (c1 - c2) * H + beta
        rel_a = X + (H * (2 * beta - c2 * H)) * q_local
        rel_b = X * (2 * (beta - c1 * H)) + (
            q_local * (H * (c2 * H - 2 * beta)) * ((2 * c1 - 3 * c2) * H + 4 * beta)
        )
        self._add_side_condition(self.p, "3.20")
        self._add_side_condition(self.q, "3.20")
        q_pair = [self._add_side_condition(self.q, "3.21")]
        elim = self._exact_div(
            resultant(rel_a, rel_b, "X"),
            q_local,
            "pair-branch eliminant not divisible by its cleared factor",
        )
        q_pair.append(self._add_side_condition(self.q, "3.22"))
        pattern = H * (2 * beta - c2 * H) ** 2
        unit_pair = self._unit(elim, pattern, "pair-branch eliminant")
        self._add_side_condition(lam3 - lam2, "3.18")
        pair_cert = EliminantCertificate(
            label="pair-directions",
            eliminant_form=elim,
            pattern_form=pattern,
            unit=unit_pair,
            side_conditions=q_pair,
        )
        self._checkpoint("3.22", UP_TO_UNIT, elim, pattern,
                         f"eliminant equals the reference pattern times the unit {unit_pair}")

        # Tail branch: differentiate the balanced quotient relation along a
        # tail direction; the whole bracket is stationary, leaving only the
        # derivative of the polynomial part.
        r = self.ring
        H_, E_ = self.H, self.E
        u_, v_ = self.u, self.v
        ekb = r.var("ekb")
        A_den = lam_tail - lam2
        B_den = lam1 + lam2
        F = RationalFunction((c1 + c2) * E_, lam2 + lam3)
        # the two stationary quotients
        g1 = (F + u_) / A_den
        g2 = (F + v_) / B_den
        lhs = (g1 - g2) * E_ + 2 * (H_ * (lam2 - lam3))
        zero = r.zero()
        tail_rules: dict[str, RationalFunction | Polynomial] = {
            "H": zero,
            "beta": ekb,
            "a": zero,
            "E": zero,
            "EE": zero,
            "w212": g1 * -ekb,
            "w313": g2 * ekb,
            "w414": zero,
            "h": zero,
            "ekb": zero,
        }
        tail = Derivation(r, tail_rules)
        tail_poly = self._as_polynomial(tail.of_rational(lhs), "tail-branch derivative")
        coeffs = tail_poly.coefficients_in("ekb")
        if len(coeffs) != 2 or not coeffs[0].is_zero():
            self._fail(
                "tail-branch derivative is not homogeneous of degree one in "
                "the differentiated slot"
            )
        coeff = coeffs[1]
        unit_tail = self._unit(coeff, self.H, "tail-branch coefficient")
        tail_conditions = [
            self._add_side_condition(A_den, "3.22"),
            self._add_side_condition(B_den, "3.23"),
        ]
        self._add_side_condition(lam2 + lam3, "3.22")
        tail_cert = EliminantCertificate(
            label="tail-directions",
            eliminant_form=coeff,
            pattern_form=self.H,
            unit=unit_tail,
            side_conditions=tail_conditions,
        )
        self._checkpoint("3.24", UP_TO_UNIT, coeff, self.H,
                         f"stationary bracket: coefficient equals H times the unit {unit_tail}")
        return Lemma32Certificates(pair_cert, tail_cert, self._stage_checkpoints())

    # -- stage: master equations -------------------------------------------------

    def masters(self) -> MasterEquations:
        n, c1, c2 = self.n, self.c1, self.c2
        H, E, EE = self.H, self.E, self.EE
        u, v, w = self.u, self.v, self.w
        p, q, K = self.p, self.q, self.K
        Ds = self.alg.scratch_derivation

        rel49 = p * u + q * v - c2 * E
        rel50 = c2 * (H * w) + (c1 + c2) * E

        # combined second-order relation with the cross term eliminated
        R = Ds.of_poly_strict(p * u) + Ds.of_poly_strict(q * v) - c2 * EE
        R = R - v * rel49
        R = R + 2 * ((u + v) * rel49)
        hw_value = (-(c1 + c2) / c2) * E
        for state in self.branches.values():
            # replace the quotient product by this branch's resolved form, then
            # clear the lone quotient against the mean-curvature flow relation
            uv_value = Fraction(state.sign) * ((n - 3) * (w * (u + v)) + K)
            state.unreduced_first = (
                R.rewrite_product("w212", "w313", uv_value)
                .rewrite_product("H", "w414", hw_value)
                .scale(-c2)
            )
            coeff_ee = state.unreduced_first.coefficient({"EE": 1})
            if coeff_ee == 0:
                self._fail("first master equation lost its second-order term")
            state.master_first = state.unreduced_first.scale(1 / coeff_ee)

        # second master equation: flow derivative of the mean-curvature relation
        rel48 = Ds.of_poly_strict(rel50) - w * rel50
        master_second_unreduced = rel48 + 2 * (w * rel50)
        master_second = master_second_unreduced.scale(1 / (c1 + c2))
        # third master equation: trace/type relation, H times the squared trace
        # of the spectrum
        master_third = (
            -EE
            - (u + v) * E
            - Fraction(n - 3) * (w * E)
            + H * self.alg.trace_sq()
            - self.a_poly * H
        )

        replayed = self.branches[BRANCH_REPLAYED]
        self._checkpoint_compare(
            "3.51", replayed.unreduced_first, ref.master_A_unreduced(self.alg)
        )
        self._checkpoint_compare(
            "3.52", master_second_unreduced, ref.master_B_unreduced(self.alg)
        )
        status_54 = self._checkpoint_compare(
            "3.54",
            replayed.master_first,
            ref.master_A(self.alg),
            note=(
                "replayed branch of the quotient-product relation; the "
                "first-principles branch yields a sign-variant recorded "
                "under branches."
            ),
        )
        self._checkpoint_compare("3.55", master_second, ref.master_B(self.alg))
        self._checkpoint_compare("3.56", master_third, ref.master_C(self.alg, self.a_poly))
        fp_first = self.branches[BRANCH_FIRST_PRINCIPLES].master_first
        self.notes.append(
            "first master equation replay "
            + ("DIVERGES from" if status_54 == FLAGGED else "matches")
            + " the reference table; first-principles sign branch stored alongside: "
            + fp_first.render()
        )
        return MasterEquations(
            unreduced_first=replayed.unreduced_first,
            unreduced_second=master_second_unreduced,
            first=replayed.master_first,
            second=master_second,
            third=master_third,
            checkpoints=self._stage_checkpoints(),
        )

    # -- stage: first integrals ----------------------------------------------------

    def first_integrals(self) -> FirstIntegrals:
        n, c1, c2 = self.n, self.c1, self.c2
        H, E = self.H, self.E
        u, v, w = self.u, self.v, self.w
        masters = self.run("masters")

        a21, b21, f2 = self._split_linear(masters.second + masters.third)
        for state in self.branches.values():
            a11, b11, f1 = self._split_linear(masters.second - state.master_first)
            det = a11 * b21 - b11 * a21
            if det == 0:
                self._fail("linear solve for the flow terms is singular")
            state.X = ((-f1) * b21 - (-f2) * b11).scale(1 / det)
            state.Y = (a11 * (-f2) - a21 * (-f1)).scale(1 / det)
            # value of E^2 from the lone-quotient integral
            state.S = (H * state.Y).scale(-c2 / (c1 + c2))
            # value of the quotient product, branch-resolved
            x_over_h = self._exact_div(
                state.X, H, "sum-quotient integral is not a multiple of H"
            )
            w_sum_value = x_over_h.scale(-(c1 + c2) / c2)
            state.Q = (Fraction(n - 3) * w_sum_value + self.K).scale(
                Fraction(state.sign)
            )
        lam2, lam3 = self.alg.spectrum[1:3]
        self._add_side_condition(lam2 + lam3, "3.59")

        rep = self.branches[BRANCH_REPLAYED]
        lone = w * E - rep.Y
        pair_sum = (u + v) * E - rep.X
        product = u * v - rep.Q
        square = E * E - rep.S
        statuses = [
            self._checkpoint_compare(
                tag, derived, table(self.alg, self.a_poly), note=_CARRIED_FORWARD
            )
            for tag, derived, table in (
                ("3.57", lone, ref.integral_lone_quotient),
                ("3.58", pair_sum, ref.integral_sum_quotient),
                ("3.59", product, ref.integral_product),
                ("3.60", square, ref.integral_square),
            )
        ]
        if FLAGGED in statuses:
            kap_ref = ref.kappa_reference(n)
            kap_fix = ref.kappa_corrected(n)
            self.notes.append(
                "first-integral reference tables disagree with the derived solve: "
                f"the tabulated cubic prefactor {kap_ref} re-parenthesizes to "
                f"{kap_fix}, which is the actual determinant of the linear solve; "
                "the other slots that differ are listed in the README erratum list "
                "(First integrals).  The derived relations are used downstream; "
                "the elimination outcome is unaffected (verified for both sign "
                "branches)."
            )
        return FirstIntegrals(
            sum_quotient=pair_sum,
            lone_quotient=lone,
            product=product,
            square=square,
            checkpoints=self._stage_checkpoints(),
        )

    def _split_linear(self, poly: Polynomial):
        """Write poly = aX*(u+v)*E + aY*w*E + form; return (aX, aY, form)."""
        E, u, v, w = self.E, self.u, self.v, self.w
        aX = poly.coefficient({"w212": 1, "E": 1})
        if aX != poly.coefficient({"w313": 1, "E": 1}):
            self._fail("flow-term relation is not symmetric in the paired quotients")
        aY = poly.coefficient({"w414": 1, "E": 1})
        form = poly - aX * ((u + v) * E) - aY * (w * E)
        return aX, aY, self._form_part(form)

    # -- stage: tangency curve -------------------------------------------------------

    def tangency(self):
        c2 = self.c2
        p, q = self.p, self.q
        # D(E) as the second master equation gives it, in terms of w414*E
        flow_E = self.EE - self.run("masters").second

        for state in self.branches.values():
            # flow derivative of (E^2 - S) along the tangency locus, over E:
            # 2*D(E) with w414*E replaced by this branch's value Y
            G = 2 * flow_E.rewrite_product("w414", "E", state.Y)
            dS_H = state.S.diff("H")
            dS_b = state.S.diff("beta")
            phi2 = G - dS_H
            phi1 = phi2 - dS_b.scale(c2)
            state.L = L = p * phi1
            state.M = M = q * phi2
            state.N = state.X.scale(c2)
            # internal identity: the antisymmetric combination collapses
            if (p * M - q * L) != ((p * q) * dS_b).scale(c2):
                self._fail(
                    "antisymmetric combination of the linear forms failed its "
                    "closed form"
                )
            curve_raw = state.Q * ((M - L) * (p * M - q * L)) + state.N * (L * M)
            bracket = self._exact_div(
                curve_raw, p * q, "tangency curve did not factor through the cleared pair"
            )
            state.curve9 = self._form_part(bracket).primitive()
        self._add_side_condition(self.E, "3.61")
        self._add_side_condition(p, "3.63")
        self._add_side_condition(q, "3.63")

        rep = self.branches[BRANCH_REPLAYED]
        for tag, poly_, template, what in (
            ("3.61-L", rep.L, ref.TEMPLATE_LINEAR_FORM, "first linear coefficient"),
            ("3.61-M", rep.M, ref.TEMPLATE_LINEAR_FORM, "second linear coefficient"),
            ("3.62-N", rep.N, ref.TEMPLATE_CUBIC_FORM, "product-side cubic form"),
        ):
            self._support_checkpoint(
                tag, poly_, template, None, f"{what}: support within the reference template"
            )
        self._support_checkpoint(
            "3.63", rep.curve9, ref.template_curve9(), 9,
            "tangency curve has exact joint degree 9 with support inside the "
            "odd-strata template",
        )
        return (rep.L, rep.M, rep.N, rep.curve9)

    # -- stage: prolonged curve ---------------------------------------------------------

    def prolonged(self) -> Polynomial:
        p, q = self.p, self.q
        for state in self.branches.values():
            raw = ((p * state.M) * state.curve9.diff("beta")).scale(self.c2) + (
                p * state.M - q * state.L
            ) * state.curve9.diff("H")
            reduced = self._exact_div(raw, self.H, "prolonged curve is not a multiple of H")
            state.curve12 = self._form_part(reduced).primitive()
        lam2, lam3 = self.alg.spectrum[1:3]
        self._add_side_condition(self.p, "3.64")
        self._add_side_condition(lam2 + lam3, "3.65")

        rep = self.branches[BRANCH_REPLAYED]
        self._support_checkpoint(
            "3.65", rep.curve12, ref.template_curve12(), 12,
            "prolonged curve has exact joint degree 12 with support inside the "
            "even-strata template",
        )
        return rep.curve12

    # -- stage: final elimination ----------------------------------------------------

    def eliminate(self) -> EliminationReport:
        for label, state in self.branches.items():
            state.curve9, state.curve12 = (
                c.restrict_ring(_CURVE_RING) for c in (state.curve9, state.curve12)
            )
            if state.curve9.degree("beta") < 1 or state.curve12.degree("beta") < 1:
                self._fail("both curves must be nonconstant in beta before elimination")
            if label == BRANCH_REPLAYED:
                state.final_resultant = self._final_resultant(state.curve9, state.curve12)
            else:
                f, g, _ = self._at_one(state.curve9, state.curve12)
                state.resultant_nonzero = not resultant_is_zero(f, g, "beta")

        rep = self.branches[BRANCH_REPLAYED]
        res = rep.final_resultant
        parity = {h % 2 for (h,) in res.support(("H",))}
        if len(parity) > 1:
            self._fail("final resultant mixes H-parities")
        self._consistency_spotcheck(rep.curve9, rep.curve12, res)

        nonzero = not res.is_zero()
        fp = self.branches[BRANCH_FIRST_PRINCIPLES]
        fp_nonzero = fp.resultant_nonzero
        self.notes.append(
            f"final resultant is {'nonzero' if nonzero else 'identically zero'} "
            f"(degree {res.degree('H')} in H); "
            + ("the same outcome holds in every other sign branch" if fp_nonzero == nonzero
               else "branch outcomes differ, see branches")
        )
        summary = BranchSummary(
            BRANCH_FIRST_PRINCIPLES, fp.curve9, fp.curve12, fp_nonzero,
            VERDICT_CONSTANT if fp_nonzero else VERDICT_INCONCLUSIVE,
        )
        return self._report(
            VERDICT_CONSTANT if nonzero else VERDICT_INCONCLUSIVE,
            {BRANCH_FIRST_PRINCIPLES: summary},
        )

    def _final_resultant(self, c9: Polynomial, c12: Polynomial) -> Polynomial:
        """Resultant of the two curves in beta, taken at H = 1 with H restored
        (``_at_one`` prepares and checks the curves).

        Both curves must be weighted-homogeneous for the weights H:1, beta:1,
        a:2, of weights D1 and D2; this is checked, never assumed.  Write
        f = c9 = sum f_i beta^i (beta-degree m) and g = c12 = sum g_i beta^i
        (beta-degree n), so f_i has weight D1 - i and g_i weight D2 - i in
        (H, a).  Row i < n of the Sylvester matrix holds f_{m-j+i} in column
        j, of weight D1 - m + j - i; row n + i holds g_{n-j+i}, of weight
        D2 - n + j - i.  Every product along a permutation therefore has weight
            n(D1 - m) + m(D2 - n) + sum_j j - sum_{i<n} i - sum_{i<m} i
              = n*D1 + m*D2 - m*n = D,
        so the resultant is sum_k r_k H^(D-2k) a^k.  Setting H = 1 maps the
        terms of one weight to distinct powers of a, so the lead coefficients
        f_m, g_n stay nonzero, the Sylvester matrix at H = 1 is the Sylvester
        matrix of the curves at H = 1, and its determinant is sum_k r_k a^k:
        each a^k is restored to H^(D-2k) a^k.

        A numeric type constant is folded into the coefficients: the term
        H^i beta^j stands for H^i beta^j a^k with i + j + 2k the curve's
        weight.  ``_unfold`` gives each term that power of a back and keeps
        its numeric coefficient.  The numeric curves are the unfolded ones at
        a = 1, with the same beta-degrees, so the numeric resultant is the
        unfolded one at a = 1; its terms r_k H^(D-2k) a^k have distinct
        powers of H, so setting a = 1 merges none of them.

        Only the replayed branch's resultant is built.  The first-principles
        branch is read only as nonzero or not, so ``eliminate`` runs the same
        preparation and checks on its curves and asks ``resultant_is_zero``,
        which stops at the first nonzero grid value.
        """
        f, g, top = self._at_one(c9, c12)
        numeric = self.cfg.a_mode == "numeric"
        at_one = resultant(f, g, "beta")
        return _from_image(
            _CURVE_RING,
            at_one.den,
            {(top - 2 * k, 0, 0 if numeric else k): c for (_, _, k), c in at_one.nums.items()},
        )

    def _at_one(self, c9: Polynomial, c12: Polynomial) -> tuple[Polynomial, Polynomial, int]:
        """The curves at H = 1 and the resultant's weight, after checking that
        both curves are weighted-homogeneous (a numeric type constant unfolded)."""
        if self.cfg.a_mode == "numeric":
            c9, c12 = self._unfold(c9), self._unfold(c12)
        d9 = self._weight(c9, "tangency curve")
        d12 = self._weight(c12, "prolonged curve")
        m, n = c9.degree("beta"), c12.degree("beta")
        top = n * d9 + m * d12 - m * n
        return c9.substitute("H", 1), c12.substitute("H", 1), top

    @staticmethod
    def _unfold(curve: Polynomial) -> Polynomial:
        """Give each term H^i beta^j the power a^k that makes its weight the
        curve's (H, beta)-degree; ``_weight`` rejects a term of the wrong parity."""
        top = max(h + b for h, b, _ in curve.nums)
        return _from_image(
            _CURVE_RING,
            curve.den,
            {(h, b, (top - h - b) // 2): c for (h, b, _), c in curve.nums.items()},
        )

    def _weight(self, curve: Polynomial, what: str) -> int:
        """The weight of a curve homogeneous for H:1, beta:1, a:2."""
        weights = {h + b + 2 * k for h, b, k in curve.nums}
        if len(weights) != 1:
            self._fail(
                f"{what} is not weighted-homogeneous for H:1, beta:1, a:2 "
                f"(term weights {sorted(weights)})"
            )
        return weights.pop()

    def _consistency_spotcheck(self, c9: Polynomial, c12: Polynomial, res: Polynomial) -> None:
        """At sample points, shared roots in beta of the curves must match zeros of res.

        A point (H0, a0) is admissible when both curves keep their beta-degree
        there.  Each point is first decided modulo the prime P = 2^61 - 1
        (``poly.MODULUS``), at one variable.  The curves and the resultant are
        weighted-homogeneous for H:1, beta:1, a:2, of weights D (checked by
        ``_t_image``, never assumed).  Put beta = H0*b and t = a0/H0^2
        (t = 1/H0^2 with a numeric type constant, on the ``_unfold``ed
        curves): each term c*H0^i beta^j a0^k of weight i + j + 2k = D becomes
        H0^D * c*b^j t^k, so
            c(H0, H0*b, a0) = H0^D * c(1, b, t),   res(H0, a0) = H0^D * R1(t).
        H0 is a unit mod P, and beta -> H0*b is an automorphism of GF(P)[beta].
        So each beta-leading coefficient, and r0 = res(H0, a0), is nonzero mod
        P at t exactly when it is at (H0, a0), and the gcd of the curves mod P
        has the same degree in b as in beta.  ``_t_image`` reduces c9, c12
        and res itself (R1 is read back from the reported polynomial) once to
        residue lists in t, one per power of beta; a point then costs a few
        Horner passes and ``gcd_degree_mod_p``.

        A point is settled mod P only when both beta-leading coefficients and
        r0 are nonzero mod P, and the gcd of the specialized curves over GF(P)
        has degree 0.  Such a point is admissible and consistent:

        - The specialized curves f, g have coefficients in the local ring
          Z_(P) (no denominator is a multiple of P), and reducing them mod P
          commutes with the specialization.  A leading coefficient nonzero
          mod P is nonzero, so the point is admissible.
        - Suppose f and g share a root, so gcd(f, g) over Q has degree d >= 1.
          By Gauss's lemma over Z_(P) it has a primitive representative h in
          Z_(P)[beta] with f = h*f1, g = h*g1, f1, g1 in Z_(P)[beta].  As P
          does not divide lc(f) = lc(h)*lc(f1), it does not divide lc(h), so
          h mod P has degree d and divides both f mod P and g mod P.  The
          gcd over GF(P) then has degree >= d >= 1.  Degree 0 there proves
          that f and g share no root.
        - r0 nonzero mod P proves r0 nonzero, so both statuses are False.

        Every other point (a leading coefficient, r0 or the gcd degree reads
        0 mod P; or one of c9, c12 and res has no image in t, because it is
        not weighted-homogeneous or P divides a denominator, which sends every
        point here) takes the exact path at (H0, a0): ``Fraction``
        substitution, the degree tests and ``poly_gcd`` over Q, compared with
        the resultant's exact zero status.  The random draws do not depend on
        the path, so both paths visit the same points.
        """
        numeric = self.cfg.a_mode == "numeric"
        rng = random.Random(1_000_003 * self.n + int(numeric))
        images = [_t_image(p, numeric) for p in (c9, c12, res)]
        modular = all(image is not None for image in images)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 200:
            attempts += 1
            H0 = Fraction(rng.randint(1, 60), rng.randint(1, 13))
            a0 = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            # the denominator of t divides 9 * 60^2, so its residue exists
            if modular and _settled_mod_p(images, residue((1 if numeric else a0) / H0**2)):
                checked += 1
                continue
            s9 = c9.substitute("H", H0).substitute("a", a0)
            s12 = c12.substitute("H", H0).substitute("a", a0)
            if s9.degree("beta") != c9.degree("beta"):
                continue
            if s12.degree("beta") != c12.degree("beta"):
                continue
            g = poly_gcd(s9, s12)
            r0 = res.substitute("H", H0).substitute("a", a0)
            share_root = g.degree("beta") >= 1
            res_zero = r0.is_zero()
            if share_root != res_zero:
                self._fail(
                    "specialization cross-check failed at "
                    f"H={H0}, a={a0}: shared-root status {share_root} vs "
                    f"resultant-zero status {res_zero}"
                )
            checked += 1
        if checked < 20:
            self._fail(
                "could not find enough admissible sample points for the "
                "specialization cross-check"
            )
        self.notes.append(
            f"specialization cross-check: {checked} sample points consistent "
            "with the resultant's vanishing locus"
        )


def _text(form) -> Optional[str]:
    """``form`` rendered, unless it is already text or None."""
    return form if form is None or isinstance(form, str) else form.render()


def _t_image(p: Polynomial, numeric: bool) -> Optional[list[list[int]]]:
    """Residue coefficient lists of p(1, beta, t), one per power of beta up to
    p's beta-degree, each dense in t (constant terms first).

    None when p is zero, when MODULUS divides its denominator, or when p is
    not weighted-homogeneous for H:1, beta:1, a:2.  With a numeric type
    constant p must be free of a; it is unfolded as ``_Pipeline._unfold``
    does, and a term whose (H, beta)-degree has the wrong parity leaves it
    inhomogeneous.  The weight fixes the power of H of each (beta, t) slot,
    so no two terms share one."""
    image = residues(p)
    if not image or (numeric and any(k for _, _, k in image)):
        return None
    if numeric:
        top = max(h + b for h, b, _ in image)
        image = {(h, b, (top - h - b) // 2): c for (h, b, _), c in image.items()}
    if len({h + b + 2 * k for h, b, k in image}) != 1:
        return None
    dense = [[0] * (1 + max(k for _, _, k in image))
             for _ in range(1 + max(b for _, b, _ in image))]
    for (_, b, k), c in image.items():
        dense[b][k] = c
    return dense


def _horner(coeffs: list[int], t: int) -> int:
    """The residue list ``coeffs`` (constant term first) at t, mod MODULUS."""
    value = 0
    for c in reversed(coeffs):
        value = (value * t + c) % MODULUS
    return value


def _settled_mod_p(images: list[list[list[int]]], t: int) -> bool:
    """True when the t-images of (c9, c12, res) at the residue t keep both
    beta-leading coefficients, give a nonzero r0 and coprime curves mod P."""
    s9, s12, r0 = ([_horner(coeffs, t) for coeffs in image] for image in images)
    return bool(s9[-1] and s12[-1] and any(r0)) and gcd_degree_mod_p(s9, s12) == 0


# The stage table: name -> (dependencies, method).  Dependencies are listed in
# table order, so every run executes the stages it needs in this order.
_STAGES = {
    "lemma31": ((), _Pipeline.lemma31),
    "omega": ((), _Pipeline.omega),
    "lemma32": ((), _Pipeline.lemma32),
    "masters": (("omega",), _Pipeline.masters),
    "first_integrals": (("masters",), _Pipeline.first_integrals),
    "tangency": (("first_integrals",), _Pipeline.tangency),
    "prolonged": (("tangency",), _Pipeline.prolonged),
    "eliminate": (("lemma31", "omega", "lemma32", "prolonged"), _Pipeline.eliminate),
}


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def verify_lemma31(cfg: ReplayConfig) -> ContradictionCertificate:
    """Certify the accepted eigenvalue pattern and reject the degenerate branch."""
    return _Pipeline(cfg).run("lemma31")


def verify_omega_identities(cfg: ReplayConfig) -> OmegaIdentityProof:
    """Verify the connection-quotient residues and derive the quadratic relations."""
    return _Pipeline(cfg).run("omega")


def verify_lemma32(cfg: ReplayConfig) -> Lemma32Certificates:
    """Produce eliminant certificates for both auxiliary-direction branches."""
    return _Pipeline(cfg).run("lemma32")


def derive_master_equations(cfg: ReplayConfig) -> MasterEquations:
    """Derive the three master equations and check them against the reference."""
    return _Pipeline(cfg).run("masters")


def fixes_scalar_curvature(third: Polynomial, alg: DerivationAlgebra, a: Polynomial) -> bool:
    """The paper's second conclusion, read off a third master equation: at
    E = EE = 0 it is H * (tr A^2 - a), tr A^2 from ``alg.trace_sq``.  Where H is
    a nonzero constant, tr A^2 = a, so the scalar curvature
    (n^2 H^2 - tr A^2) / 2 is constant."""
    at_rest = third.substitute("E", 0).substitute("EE", 0)
    return at_rest == alg.ring.var("H") * (alg.trace_sq() - a)


def derive_first_integrals(cfg: ReplayConfig) -> FirstIntegrals:
    """Solve the master equations for the individual flow terms."""
    return _Pipeline(cfg).run("first_integrals")


def derive_tangency_curve(cfg: ReplayConfig):
    """Return (L, M, N, curve9) for the replayed branch."""
    return _Pipeline(cfg).run("tangency")


def derive_prolonged_curve(cfg: ReplayConfig) -> Polynomial:
    """Return the degree-12 prolongation of the tangency curve."""
    return _Pipeline(cfg).run("prolonged")


def replay_all(cfg: ReplayConfig) -> EliminationReport:
    """Run every stage in table order and return the aggregated report."""
    return _Pipeline(cfg).run("eliminate")


# The final elimination depends on every other stage, so it is the full replay.
eliminate_beta = replay_all
