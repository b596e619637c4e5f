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
    Polynomial,
    PolynomialRing,
    RationalFunction,
    dense_mod_p,
    gcd_degree_mod_p,
    poly_gcd,
    residue,
    residues,
)
from .resultant import resultant

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
    """Outcome of comparing one derived stage against its reference form."""

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
    accepted_spectrum: dict[str, str] = field(default_factory=dict)
    identities: dict[str, bool] = field(default_factory=dict)


@dataclass
class OmegaIdentityProof:
    """Residues and derived quadratic relations for the connection quotients."""

    residues: dict[str, str]
    relations: dict[str, str]
    checkpoints: list[Checkpoint]


@dataclass
class EliminantCertificate:
    """Resultant certificate for one auxiliary-direction branch."""

    label: str
    eliminant: str
    pattern: str
    unit: Fraction
    side_conditions: list[SideCondition]


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
    master_first: Polynomial = None
    X: Polynomial = None  # value of (w212 + w313) * E
    Y: Polynomial = None  # value of w414 * E
    S: Polynomial = None  # value of E^2
    Q: Polynomial = None  # value of w212 * w313
    L: Polynomial = None
    M: Polynomial = None
    curve9: Polynomial = None
    curve12: Polynomial = None
    final_resultant: Polynomial = None


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
        self.beta = r.var("beta")
        self.E = r.var("E")
        self.EE = r.var("EE")
        self.u = r.var("w212")
        self.v = r.var("w313")
        self.w = r.var("w414")
        self.h = r.var("h")
        self.p = self.c1 * self.H - self.beta
        self.q = (self.c1 - self.c2) * self.H + self.beta
        n, c1, c2 = self.n, self.c1, self.c2
        self.K = (n - 3) * (c1 + c2) * c2 * self.H**2 + self.beta * (
            c2 * self.H - self.beta
        )
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
        """Record a cleared denominator; return its ledger entry."""
        prim = expr.primitive()
        if not any(prim == allowed for allowed in self._allowed_conditions):
            self._fail(
                f"side condition {prim.render()!r} (origin {origin}) is outside "
                "the fixed vocabulary of clearable denominators"
            )
        for sc in self.side_conditions:
            if sc.origin == origin and sc.expr == prim:
                return sc
        self.side_conditions.append(SideCondition(prim, origin))
        return self.side_conditions[-1]

    def _checkpoint(
        self, tag: str, status: str, derived: Optional[str], expected: Optional[str], note: str
    ) -> None:
        """Append one checkpoint to the ledger; the only place one is built."""
        self.checkpoints.append(Checkpoint(tag, status, derived, expected, note))

    def _checkpoint_compare(
        self,
        tag: str,
        derived: Polynomial,
        expected: Polynomial,
        note: str = "",
    ) -> None:
        """Compare up to a nonzero rational factor via lead-positive primitives."""
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
        self._checkpoint(tag, status, derived.render(), expected.render(), note)

    def _structural_checkpoint(self, tag: str, ok: bool, derived: str, why: str) -> None:
        if not ok:
            self._fail(f"checkpoint {tag}: structural requirement failed: {why}")
        self._checkpoint(tag, STRUCTURAL, derived, None, why)

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
        cert = ContradictionCertificate(n, n != 4, *traces, conclusion)
        # Accepted branch: the spectrum used by the rest of the pipeline,
        # with its two exact consistency identities.
        c1, c2 = self.c1, self.c2
        lam1 = c1 * self.H
        lam2 = self.beta
        lam3 = c2 * self.H - self.beta
        lam_tail = (c1 + c2) * self.H
        total = lam1 + lam2 + lam3 + (n - 3) * lam_tail
        ident_trace = total - n * self.H
        ident_sum3 = (lam1 + lam2 + lam3) - (c1 + c2) * self.H
        cert.accepted_spectrum = {
            "lambda_1": lam1.render(),
            "lambda_2": lam2.render(),
            "lambda_3": lam3.render(),
            "lambda_tail": lam_tail.render(),
        }
        cert.identities = {
            "trace_equals_nH": ident_trace.is_zero(),
            "first_three_sum": ident_sum3.is_zero(),
        }
        if not all(cert.identities.values()):
            self._fail("accepted spectrum failed its trace identities")
        self._checkpoint("L3.1", EXACT, cert.consequence, None, note)
        return cert

    # -- stage: connection-quotient identities ----------------------------------

    def omega(self) -> OmegaIdentityProof:
        n, c1, c2 = self.n, self.c1, self.c2
        H, beta, h = self.H, self.beta, self.h
        u, v, w = self.u, self.v, self.w
        B1 = beta + c1 * H
        B2 = beta - (c1 + c2) * H
        B3 = 2 * beta - c2 * H
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
            "3.42": rf(-(w * u) - (c1 + c2) * (beta * H)) - 2 * p_2j3_j32,
            "3.43": rf(-(w * v) - (c1 + c2) * (H * (c2 * H - beta))) - 2 * p_3j2_j23,
            "3.44": rf(-(v * u) - beta * (c2 * H - beta)) - 2 * Fraction(n - 3) * p_23_3j2,
        }
        relations: dict[str, str] = {}
        for tag, source in (("3.42", "3.34"), ("3.43", "3.35"), ("3.44", "3.36")):
            relations[tag] = derived[tag].render()
            self._checkpoint(tag, EXACT, relations[tag], relations[tag],
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
        relations["3.45"] = product_rel.render()
        return OmegaIdentityProof(
            residues={k: val.render() for k, val in residues.items()},
            relations=relations,
            checkpoints=self._stage_checkpoints(),
        )

    # -- stage: auxiliary-direction eliminants ----------------------------------

    def lemma32(self) -> Lemma32Certificates:
        c1, c2 = self.c1, self.c2
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
        unit_poly = self._exact_div(
            elim, pattern, "pair-branch eliminant does not match the reference pattern"
        )
        if unit_poly.total_degree() != 0 or unit_poly.is_zero():
            self._fail(
                "pair-branch eliminant / pattern is not a nonzero constant: "
                f"{unit_poly.render()}"
            )
        unit_pair = unit_poly.leading_coefficient()
        self._add_side_condition(self.c2 * self.H - 2 * self.beta, "3.18")
        pair_cert = EliminantCertificate(
            label="pair-directions",
            eliminant=elim.render(),
            pattern=pattern.render(),
            unit=unit_pair,
            side_conditions=q_pair,
        )
        self._checkpoint("3.22", UP_TO_UNIT, pair_cert.eliminant, pair_cert.pattern,
                         f"eliminant equals the reference pattern times the unit {unit_pair}")

        # Tail branch: differentiate the balanced quotient relation along a
        # tail direction; the whole bracket is stationary, leaving only the
        # derivative of the polynomial part.
        r = self.ring
        H_, beta_, E_ = self.H, self.beta, self.E
        u_, v_ = self.u, self.v
        ekb = r.var("ekb")
        A_den = (c1 + c2) * H_ - beta_
        B_den = c1 * H_ + beta_
        F = RationalFunction((c1 + c2) * E_, c2 * H_)
        # the two stationary quotients
        g1 = (F + u_) / A_den
        g2 = (F + v_) / B_den
        lhs = (g1 - g2) * E_ + 2 * (H_ * (2 * beta_ - c2 * H_))
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
        unit_tail_poly = self._exact_div(
            coeff, self.H, "tail-branch coefficient not a multiple of H"
        )
        if unit_tail_poly.total_degree() != 0 or unit_tail_poly.is_zero():
            self._fail(
                "tail-branch coefficient / H is not a nonzero constant: "
                f"{unit_tail_poly.render()}"
            )
        unit_tail = unit_tail_poly.leading_coefficient()
        tail_conditions = [
            self._add_side_condition(A_den, "3.22"),
            self._add_side_condition(B_den, "3.23"),
        ]
        self._add_side_condition(self.c2 * self.H, "3.22")
        tail_cert = EliminantCertificate(
            label="tail-directions",
            eliminant=coeff.render(),
            pattern=self.H.render(),
            unit=unit_tail,
            side_conditions=tail_conditions,
        )
        self._checkpoint("3.24", UP_TO_UNIT, tail_cert.eliminant, tail_cert.pattern,
                         f"stationary bracket: coefficient equals H times the unit {unit_tail}")
        return Lemma32Certificates(pair_cert, tail_cert, self._stage_checkpoints())

    # -- stage: master equations -------------------------------------------------

    def masters(self) -> MasterEquations:
        n, c1, c2 = self.n, self.c1, self.c2
        H, beta, E, EE = self.H, self.beta, self.E, self.EE
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
        unreduced_first = {}
        for label, state in self.branches.items():
            # replace the quotient product by this branch's resolved form, then
            # clear the lone quotient against the mean-curvature flow relation
            uv_value = Fraction(state.sign) * ((n - 3) * (w * (u + v)) + K)
            unreduced_first[label] = (
                R.rewrite_product("w212", "w313", uv_value)
                .rewrite_product("H", "w414", hw_value)
                .scale(-c2)
            )
            coeff_ee = unreduced_first[label].coefficient({"EE": 1})
            if coeff_ee == 0:
                self._fail("first master equation lost its second-order term")
            state.master_first = unreduced_first[label].scale(1 / coeff_ee)

        # second master equation: flow derivative of the mean-curvature relation
        rel48 = Ds.of_poly_strict(rel50) - w * rel50
        master_second_unreduced = rel48 + 2 * (w * rel50)
        master_second = master_second_unreduced.scale(1 / (c1 + c2))
        # third master equation: trace/type relation assembled from the spectrum
        trace_sq = c1**2 + c2**2 + (n - 3) * (c1 + c2) ** 2
        master_third = (
            -EE
            - (u + v) * E
            - Fraction(n - 3) * (w * E)
            + trace_sq * H**3
            - 2 * c2 * (H**2 * beta)
            + 2 * (H * beta**2)
            - self.a_poly * H
        )

        replayed = self.branches[BRANCH_REPLAYED]
        self._checkpoint_compare(
            "3.51", unreduced_first[BRANCH_REPLAYED], ref.master_A_unreduced(self.alg)
        )
        self._checkpoint_compare(
            "3.52", master_second_unreduced, ref.master_B_unreduced(self.alg)
        )
        self._checkpoint_compare(
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
        cps = self._stage_checkpoints()
        mismatch_54 = any(c.id == "3.54" and c.status == FLAGGED for c in cps)
        fp_first = self.branches[BRANCH_FIRST_PRINCIPLES].master_first
        self.notes.append(
            "first master equation replay "
            + ("DIVERGES from" if mismatch_54 else "matches")
            + " the reference table; first-principles sign branch stored alongside: "
            + fp_first.render()
        )
        return MasterEquations(
            unreduced_first=unreduced_first[BRANCH_REPLAYED],
            unreduced_second=master_second_unreduced,
            first=replayed.master_first,
            second=master_second,
            third=master_third,
            checkpoints=cps,
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
        self._add_side_condition(self.c2 * self.H, "3.59")

        rep = self.branches[BRANCH_REPLAYED]
        lone = w * E - rep.Y
        pair_sum = (u + v) * E - rep.X
        product = u * v - rep.Q
        square = E * E - rep.S
        for tag, derived, table in (
            ("3.57", lone, ref.integral_lone_quotient),
            ("3.58", pair_sum, ref.integral_sum_quotient),
            ("3.59", product, ref.integral_product),
            ("3.60", square, ref.integral_square),
        ):
            self._checkpoint_compare(
                tag, derived, table(self.alg, self.a_poly), note=_CARRIED_FORWARD
            )
        cps = self._stage_checkpoints()
        if any(c.status == FLAGGED for c in cps):
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
            checkpoints=cps,
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
        n, c2 = self.n, self.c2
        H = self.H
        p, q = self.p, self.q

        N = {}
        for label, state in self.branches.items():
            # flow derivative of (E^2 - S) along the tangency locus
            G = state.Y.scale(Fraction(-(n + 2))) + (
                Fraction(-(n**3), 2 * (n - 2)) * H**3
            )
            dS_H = state.S.diff("H")
            dS_b = state.S.diff("beta")
            phi2 = G - dS_H
            phi1 = phi2 - dS_b.scale(c2)
            L = p * phi1
            M = q * phi2
            N[label] = state.X.scale(c2)
            # internal identity: the antisymmetric combination collapses
            if (p * M - q * L) != ((p * q) * dS_b).scale(c2):
                self._fail(
                    "antisymmetric combination of the linear forms failed its "
                    "closed form"
                )
            curve_raw = state.Q * ((M - L) * (p * M - q * L)) + N[label] * (L * M)
            bracket = self._exact_div(
                curve_raw, p * q, "tangency curve did not factor through the cleared pair"
            )
            state.L, state.M = L, M
            state.curve9 = self._form_part(bracket).primitive()
        self._add_side_condition(self.E, "3.61")
        self._add_side_condition(p, "3.63")
        self._add_side_condition(q, "3.63")

        rep = self.branches[BRANCH_REPLAYED]
        for tag, poly_, template, what in (
            ("3.61-L", rep.L, ref.TEMPLATE_LINEAR_FORM, "first linear coefficient"),
            ("3.61-M", rep.M, ref.TEMPLATE_LINEAR_FORM, "second linear coefficient"),
            ("3.62-N", N[BRANCH_REPLAYED], ref.TEMPLATE_CUBIC_FORM,
             "product-side cubic form"),
        ):
            ok = self._support_ok(poly_, template) and not poly_.is_zero()
            self._structural_checkpoint(
                tag,
                ok,
                poly_.render(),
                f"{what}: support within the reference template",
            )
        deg9 = self._hb_degree(rep.curve9)
        ok9 = deg9 == 9 and self._support_ok(rep.curve9, ref.template_curve9())
        self._structural_checkpoint(
            "3.63",
            ok9,
            rep.curve9.render(),
            "tangency curve has exact joint degree 9 with support inside the "
            "odd-strata template",
        )
        return (rep.L, rep.M, N[BRANCH_REPLAYED], rep.curve9)

    def _support_ok(self, poly: Polynomial, template: frozenset) -> bool:
        """Check the (H, beta, a)-support against a reference template.

        With a numeric type constant the a-slot folds into the (H, beta) part;
        because every template is weight-homogeneous (a counting twice), the
        folded exponent lifts back uniquely, so membership remains decidable.
        """
        support = self._form_part(poly).support(_CURVE_RING.vars)
        if self.cfg.a_mode == "symbolic":
            return support <= set(template)
        return all(
            any(i == ti and j == tj for (ti, tj, _) in template) for (i, j, _) in support
        )

    @staticmethod
    def _hb_degree(poly: Polynomial) -> int:
        """Joint degree in (H, beta); -1 for the zero polynomial."""
        return max((i + j for i, j in poly.support(("H", "beta"))), default=-1)

    # -- stage: prolonged curve ---------------------------------------------------------

    def prolonged(self) -> Polynomial:
        p, q = self.p, self.q
        for state in self.branches.values():
            raw = ((p * state.M) * state.curve9.diff("beta")).scale(self.c2) + (
                p * state.M - q * state.L
            ) * state.curve9.diff("H")
            reduced = self._exact_div(raw, self.H, "prolonged curve is not a multiple of H")
            state.curve12 = self._form_part(reduced).primitive()
        self._add_side_condition(self.p, "3.64")
        self._add_side_condition(self.c2 * self.H, "3.65")

        rep = self.branches[BRANCH_REPLAYED]
        deg12 = self._hb_degree(rep.curve12)
        ok12 = deg12 == 12 and self._support_ok(rep.curve12, ref.template_curve12())
        self._structural_checkpoint(
            "3.65",
            ok12,
            rep.curve12.render(),
            "prolonged curve has exact joint degree 12 with support inside the "
            "even-strata template",
        )
        return rep.curve12

    # -- stage: final elimination ----------------------------------------------------

    def eliminate(self) -> EliminationReport:
        curves = {}
        for label, state in self.branches.items():
            c9, c12 = (c.restrict_ring(_CURVE_RING) for c in (state.curve9, state.curve12))
            curves[label] = c9, c12
            if c9.degree("beta") < 1 or c12.degree("beta") < 1:
                self._fail("both curves must be nonconstant in beta before elimination")
            state.final_resultant = self._final_resultant(c9, c12)

        rep = self.branches[BRANCH_REPLAYED]
        res = rep.final_resultant
        parity = {h % 2 for (h,) in res.support(("H",))}
        if len(parity) > 1:
            self._fail("final resultant mixes H-parities")
        self._consistency_spotcheck(*curves[BRANCH_REPLAYED], res)

        verdict = VERDICT_INCONCLUSIVE if res.is_zero() else VERDICT_CONSTANT
        branches_out = {}
        for label, state in self.branches.items():
            if label == BRANCH_REPLAYED:
                continue
            nz = not state.final_resultant.is_zero()
            branches_out[label] = BranchSummary(
                label, *curves[label], nz, VERDICT_CONSTANT if nz else VERDICT_INCONCLUSIVE
            )
        same_outcome = all(
            b.resultant_nonzero == (not res.is_zero()) for b in branches_out.values()
        )
        note = (
            "final resultant is "
            + ("nonzero" if not res.is_zero() else "identically zero")
            + f" (degree {res.degree('H')} in H)"
        )
        if branches_out:
            note += (
                "; the same outcome holds in every other sign branch"
                if same_outcome
                else "; branch outcomes differ, see branches"
            )
        self.notes.append(note)
        return self._report(verdict, branches_out)

    def _final_resultant(self, c9: Polynomial, c12: Polynomial) -> Polynomial:
        """Resultant of the two curves in beta, taken at H = 1 with H restored.

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
        """
        numeric = self.cfg.a_mode == "numeric"
        if numeric:
            c9, c12 = self._unfold(c9), self._unfold(c12)
        d9 = self._weight(c9, "tangency curve")
        d12 = self._weight(c12, "prolonged curve")
        m, n = c9.degree("beta"), c12.degree("beta")
        top = n * d9 + m * d12 - m * n
        at_one = resultant(c9.substitute("H", 1), c12.substitute("H", 1), "beta")
        return Polynomial(
            _CURVE_RING,
            {(top - 2 * k, 0, 0 if numeric else k): c for (_, _, k), c in at_one.terms.items()},
        )

    @staticmethod
    def _unfold(curve: Polynomial) -> Polynomial:
        """Give each term H^i beta^j the power a^k that makes its weight the
        curve's (H, beta)-degree; ``_weight`` rejects a term of the wrong parity."""
        top = max(h + b for h, b, _ in curve.terms)
        return Polynomial(
            _CURVE_RING,
            {(h, b, (top - h - b) // 2): c for (h, b, _), c in curve.terms.items()},
        )

    def _weight(self, curve: Polynomial, what: str) -> int:
        """The weight of a curve homogeneous for H:1, beta:1, a:2."""
        weights = {h + b + 2 * k for h, b, k in curve.terms}
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
        (``poly.MODULUS``).  It is settled there only when both beta-leading
        coefficients and the resultant's value r0 are nonzero mod P, and the
        gcd of the specialized curves over GF(P) has degree 0.  Such a point
        is admissible and consistent:

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
        0 mod P; or P divides a denominator of c9, c12 or res, which sends
        every point here) takes the exact path: ``Fraction`` substitution,
        the degree tests and ``poly_gcd`` over Q, compared with the
        resultant's exact zero status.  The random draws do not depend on
        the path, so both paths visit the same points.
        """
        rng = random.Random(1_000_003 * self.n + (0 if self.cfg.a_mode == "symbolic" else 1))
        images = [residues(p) for p in (c9, c12, res)]
        modular = all(image is not None for image in images)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 200:
            attempts += 1
            H0 = Fraction(rng.randint(1, 60), rng.randint(1, 13))
            a0 = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            if modular and _settled_mod_p(images, H0, a0):
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


def _settled_mod_p(images: list[dict], H0: Fraction, a0: Fraction) -> bool:
    """True when the residue images of (c9, c12, res) at (H0, a0) keep both
    beta-leading coefficients, give a nonzero r0 and coprime curves mod P."""
    point = {"H": residue(H0), "a": residue(a0)}  # sample denominators are below 14
    s9, s12, r0 = (dense_mod_p(image, _CURVE_RING, "beta", point) for image in images)
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


def derive_first_integrals(cfg: ReplayConfig) -> FirstIntegrals:
    """Solve the master equations for the individual flow terms."""
    return _Pipeline(cfg).run("first_integrals")


def derive_tangency_curve(cfg: ReplayConfig):
    """Return (L, M, N, curve9) for the replayed branch."""
    return _Pipeline(cfg).run("tangency")


def derive_prolonged_curve(cfg: ReplayConfig) -> Polynomial:
    """Return the degree-12 prolongation of the tangency curve."""
    return _Pipeline(cfg).run("prolonged")


def eliminate_beta(cfg: ReplayConfig) -> EliminationReport:
    """Run the final resultant elimination and assemble the report.

    The elimination depends on every other stage, so this is the full replay.
    """
    return replay_all(cfg)


def replay_all(cfg: ReplayConfig) -> EliminationReport:
    """Run every stage in table order and return the aggregated report."""
    return _Pipeline(cfg).run("eliminate")
