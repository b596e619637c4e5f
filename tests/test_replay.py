"""Stage-by-stage tests of the symbolic elimination replay, plus golden reports.

The exact rendered forms asserted here were frozen from a verified run and
serve as regression anchors; every one of them is reproduced from first
principles by the pipeline (nothing is stored as a precomputed result inside
the package itself).
"""

import hashlib
import importlib
import json
import pathlib
from fractions import Fraction

import pytest

from deltahyp import (
    CheckpointFailure,
    ConfigError,
    RationalFunction,
    ReplayConfig,
    build_algebra,
    canonical_dumps,
    derive_first_integrals,
    derive_master_equations,
    derive_prolonged_curve,
    derive_tangency_curve,
    eliminate_beta,
    replay_all,
    verify_lemma31,
    verify_lemma32,
    verify_omega_identities,
)
from deltahyp import reference_forms
from deltahyp.cli import main
from deltahyp import replay as replay_module
from deltahyp.poly import MODULUS, residue
from deltahyp.resultant import det_bareiss, resultant, resultant_is_zero, sylvester_matrix
from deltahyp.replay import (
    BRANCH_FIRST_PRINCIPLES,
    BRANCH_REPLAYED,
    EXACT,
    FLAGGED,
    STRUCTURAL,
    UP_TO_UNIT,
    VERDICT_CONSTANT,
    VERDICT_INCONCLUSIVE,
    fixes_scalar_curvature,
)

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def report4():
    return replay_all(ReplayConfig(n=4, keep_intermediates=True))


@pytest.fixture(scope="module")
def report5():
    return replay_all(ReplayConfig(n=5))


@pytest.fixture(scope="module")
def report6num():
    return replay_all(ReplayConfig(n=6, a_mode="numeric", a_value=Fraction(1)))


@pytest.fixture(scope="module")
def report6num_keep():
    return replay_all(
        ReplayConfig(n=6, a_mode="numeric", a_value=Fraction(1), keep_intermediates=True)
    )


def checkpoint_map(report):
    return {cp.id: cp for cp in report.checkpoints}


class TestLemma31:
    def test_contradiction_certificate_at_n4(self):
        cert = verify_lemma31(ReplayConfig(n=4))
        assert not cert.vacuous
        assert cert.trace_from_sum == "4*H"
        assert cert.trace_from_pattern == "-4*H"
        assert cert.consequence == "8*H"
        assert "contradict" in cert.conclusion.lower()
        assert "rejected" in cert.conclusion.lower()

    def test_vacuous_for_higher_dimension(self):
        for n in (5, 6, 9):
            cert = verify_lemma31(ReplayConfig(n=n))
            assert cert.vacuous
            assert cert.trace_from_sum is None

    def test_accepted_spectrum_and_trace_identities(self):
        cert = verify_lemma31(ReplayConfig(n=4))
        assert cert.accepted_spectrum == {
            "lambda_1": "-2*H",
            "lambda_2": "beta",
            "lambda_3": "4*H - beta",
            "lambda_tail": "2*H",
        }
        assert all(cert.identities.values())


class TestOmegaIdentities:
    def test_residues_exactly_zero(self):
        proof = verify_omega_identities(ReplayConfig(n=4))
        assert set(proof.residues) == {"pair-23", "pair-32", "pair-j2", "cyclic"}
        assert all(res == "0" for res in proof.residues.values())

    def test_quadratic_relations_aggregate(self):
        proof = verify_omega_identities(ReplayConfig(n=5))
        statuses = {cp.id: cp.status for cp in proof.checkpoints}
        assert statuses["3.45"] == EXACT
        assert statuses["3.41-cyclic"] == EXACT

    @pytest.mark.parametrize("n", [4, 7, 11])
    def test_residues_zero_across_dimensions(self, n):
        proof = verify_omega_identities(ReplayConfig(n=n))
        assert all(res == "0" for res in proof.residues.values())

    @pytest.mark.parametrize("n", range(4, 17))
    def test_given_relations_are_the_two_product_forms(self, n):
        cfg = ReplayConfig(n=n)
        alg = build_algebra(cfg)
        ring, c1, c2 = alg.ring, alg.c1, alg.c2
        H, beta, h = ring.var("H"), ring.var("beta"), ring.var("h")
        u, v, w = ring.var("w212"), ring.var("w313"), ring.var("w414")
        B1, B2, B3 = beta + c1 * H, beta - (c1 + c2) * H, 2 * beta - c2 * H
        q_23, q_2j3 = RationalFunction(-h, B1), RationalFunction(h, B1)
        q_32, q_3j2 = RationalFunction(h, B2), RationalFunction(-h, B2)
        q_j23, q_j32 = RationalFunction(h, B3), RationalFunction(-h, B3)
        # (tag, polynomial part, product p, skew product s, weight): the given
        # relation (3.34)-(3.36) is base - weight p + weight s, its pair
        # residue -p - s
        rows = [
            ("3.42", -(w * u) - (c1 + c2) * (beta * H),
             q_2j3 * q_j32, (q_j23 - q_2j3) * q_3j2, 1),
            ("3.43", -(w * v) - (c1 + c2) * (H * (c2 * H - beta)),
             q_3j2 * q_j23, (q_j32 - q_3j2) * q_2j3, 1),
            ("3.44", -(v * u) - beta * (c2 * H - beta),
             q_23 * q_3j2, (q_32 - q_23) * q_j32, Fraction(n - 3)),
        ]
        relations = verify_omega_identities(cfg).relations
        for tag, base, p, s, weight in rows:
            given = RationalFunction(base) - weight * p + weight * s
            num, den = relations[tag][1:-1].split(") / (")
            derived = RationalFunction(ring.parse(num), ring.parse(den))
            assert given == derived
            assert derived - given == weight * (-p - s)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_omega_reduces_each_residue_and_relation_once(self, monkeypatch, n):
        calls = []
        reduced = RationalFunction.reduced

        def counting_reduced(self):
            calls.append(self)
            return reduced(self)

        monkeypatch.setattr(RationalFunction, "reduced", counting_reduced)
        proof = verify_omega_identities(ReplayConfig(n=n))
        assert calls == []  # nothing is rendered until the text is read
        assert len(proof.residues) == 4 and len(proof.relations) == 4
        assert len(calls) == 7  # four residues, three two-product relations


class TestLemma32:
    def test_pair_branch_eliminant_n4(self):
        certs = verify_lemma32(ReplayConfig(n=4))
        pair = certs.pair_branch
        assert pair.eliminant == "-48*H^3 + 48*H^2*beta - 12*H*beta^2"
        assert pair.pattern == "16*H^3 - 16*H^2*beta + 4*H*beta^2"
        assert pair.unit == Fraction(-3)

    def test_tail_branch_coefficient_n4(self):
        certs = verify_lemma32(ReplayConfig(n=4))
        tail = certs.tail_branch
        assert tail.eliminant == "4*H"
        assert tail.pattern == "H"
        assert tail.unit == Fraction(4)

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_units_nonzero_across_dimensions(self, n):
        certs = verify_lemma32(ReplayConfig(n=n))
        assert certs.pair_branch.unit != 0
        assert certs.tail_branch.unit == Fraction(4)
        statuses = {cp.id: cp.status for cp in certs.checkpoints}
        assert statuses["3.22"] == UP_TO_UNIT
        assert statuses["3.24"] == UP_TO_UNIT


class TestMasterEquations:
    def test_exact_renders_at_n4(self):
        masters = derive_master_equations(ReplayConfig(n=4))
        assert masters.first.render() == (
            "44*H^3 + 12*H^2*beta - 3*H*beta^2 + 1/2*E*w212 + 1/2*E*w313 + EE"
        )
        assert masters.second.render() == "8*H^3 + 3*E*w414 + EE"
        assert masters.third.render() == (
            "24*H^3 - 8*H^2*beta + 2*H*beta^2 - H*a"
            " - E*w212 - E*w313 - E*w414 - EE"
        )

    def test_checkpoints_exact_at_n4(self):
        masters = derive_master_equations(ReplayConfig(n=4))
        statuses = {cp.id: cp.status for cp in masters.checkpoints}
        for tag in ("3.51", "3.52", "3.54", "3.55", "3.56"):
            assert statuses[tag] == EXACT, tag

    @pytest.mark.parametrize("n", [5, 9, 12])
    def test_checkpoints_exact_other_dimensions(self, n):
        masters = derive_master_equations(ReplayConfig(n=n))
        statuses = {cp.id: cp.status for cp in masters.checkpoints}
        for tag in ("3.54", "3.55", "3.56"):
            assert statuses[tag] == EXACT, (n, tag)

    # The paper's second conclusion: at E = EE = 0 the third master equation
    # is H * (tr A^2 - a), so where H is a nonzero constant tr A^2 = a, and the
    # scalar curvature (n^2 H^2 - tr A^2) / 2 is constant.
    A_VALUES = pytest.mark.parametrize("a_value", [None, Fraction(3, 2)],
                                       ids=["symbolic-a", "numeric-a"])

    @staticmethod
    def a_poly(alg, a_value):
        return alg.ring.var("a") if a_value is None else alg.ring.const(a_value)

    @A_VALUES
    def test_reference_third_equation_fixes_the_scalar_curvature(self, a_value):
        for n in range(4, 41):
            alg = build_algebra(ReplayConfig(n=n))
            third = reference_forms.master_C(alg, self.a_poly(alg, a_value))
            assert fixes_scalar_curvature(third, alg, self.a_poly(alg, a_value)), n

    @A_VALUES
    @pytest.mark.parametrize("n", range(4, 13))
    def test_derived_third_equation_fixes_the_scalar_curvature(self, n, a_value):
        cfg = (ReplayConfig(n=n) if a_value is None
               else ReplayConfig(n=n, a_mode="numeric", a_value=a_value))
        alg = build_algebra(cfg)
        # the stages keep a as a variable; a numeric run compares at a = a_value
        third = derive_master_equations(cfg).third
        if a_value is not None:
            third = third.substitute("a", a_value)
        assert fixes_scalar_curvature(third, alg, self.a_poly(alg, a_value)), n

    def test_the_check_rejects_a_shifted_trace(self):
        # a third equation off by H * a at rest fails the check
        alg = build_algebra(ReplayConfig(n=5))
        a = alg.ring.var("a")
        third = reference_forms.master_C(alg, a)
        assert not fixes_scalar_curvature(third + alg.ring.var("H") * a, alg, a)
        assert not fixes_scalar_curvature(third, alg, 2 * a)


class TestFirstIntegrals:
    def test_derived_forms_at_n4(self):
        integrals = derive_first_integrals(ReplayConfig(n=4))
        assert integrals.sum_quotient.render() == (
            "-84*H^3 + 3/2*H*a + E*w212 + E*w313"
        )
        assert integrals.lone_quotient.render() == (
            "-26*H^3 - 4*H^2*beta + H*beta^2 + 1/4*H*a + E*w414"
        )
        assert integrals.product.render() == (
            "34*H^2 - 4*H*beta + beta^2 + w212*w313 - 3/4*a"
        )
        assert integrals.square.render() == (
            "52*H^4 + 8*H^3*beta - 2*H^2*beta^2 - 1/2*H^2*a + E^2"
        )

    def test_reference_tables_flagged_not_fatal(self):
        # the printed coefficient tables for these four tags do not agree with
        # what the master equations force; the pipeline records the mismatch
        # and keeps going with the derived forms
        integrals = derive_first_integrals(ReplayConfig(n=4))
        statuses = {cp.id: cp.status for cp in integrals.checkpoints}
        for tag in ("3.57", "3.58", "3.59", "3.60"):
            assert statuses[tag] == FLAGGED, tag

    def test_mismatch_notes_present(self):
        integrals = derive_first_integrals(ReplayConfig(n=6))
        flagged = [cp for cp in integrals.checkpoints if cp.status == FLAGGED]
        assert flagged
        assert all(cp.note for cp in flagged)


class TestTangencyCurves:
    def test_quartic_forms_at_n4(self):
        L, M, N, curve9 = derive_tangency_curve(ReplayConfig(n=4))
        assert L.render() == (
            "-136*H^4 - 36*H^3*beta + 12*H^2*beta^2 - 2*H*beta^3"
            " - H^2*a - 1/2*H*beta*a"
        )
        assert M.render() == (
            "-216*H^4 + 36*H^3*beta - 12*H^2*beta^2 + 2*H*beta^3"
            " - 3*H^2*a + 1/2*H*beta*a"
        )
        assert N.render() == "336*H^3 - 6*H*a"
        assert len(curve9.terms) == 13
        assert curve9.total_degree() == 9

    def test_prolonged_curve_at_n4(self):
        curve12 = derive_prolonged_curve(ReplayConfig(n=4))
        assert len(curve12.terms) == 28
        assert curve12.total_degree() == 12

    def test_supports_lie_in_templates(self):
        for n in (4, 6):
            L, M, N, curve9 = derive_tangency_curve(ReplayConfig(n=n))
            lin = reference_forms.TEMPLATE_LINEAR_FORM
            cub = reference_forms.TEMPLATE_CUBIC_FORM
            for poly in (L, M):
                for exp in poly.terms:
                    reduced = _hba(poly, exp)
                    assert reduced in lin, (n, reduced)
            for exp in N.terms:
                assert _hba(N, exp) in cub


def _hba(poly, exp):
    ring = poly.ring
    return (
        exp[ring.index("H")],
        exp[ring.index("beta")],
        exp[ring.index("a")],
    )


class TestElimination:
    def test_verdict_and_resultant_shape_n4(self, report4):
        assert report4.verdict == VERDICT_CONSTANT
        res = report4.final_resultant
        assert len(res.terms) == 26
        assert res.degree("H") == 99
        assert res.degree("a") == 25
        # weighted homogeneity: every monomial has deg_H + 2*deg_a = 99
        for exp in res.terms:
            h = exp[res.ring.index("H")]
            a = exp[res.ring.index("a")]
            assert h + 2 * a == 99

    def test_both_branches_recorded(self, report4):
        assert set(report4.branches) == {BRANCH_FIRST_PRINCIPLES}
        branch = report4.branches[BRANCH_FIRST_PRINCIPLES]
        assert branch.resultant_nonzero
        assert branch.verdict == VERDICT_CONSTANT

    def test_side_condition_ledger(self, report4):
        rendered = {(sc.origin, sc.expr.render()) for sc in report4.side_conditions}
        assert ("3.20", "2*H + beta") in rendered
        assert ("3.18", "2*H - beta") in rendered
        assert ("3.61", "E") in rendered
        assert ("3.65", "H") in rendered

    @pytest.mark.parametrize("n", range(4, 13))
    def test_side_condition_vocabulary(self, n):
        # the seven clearable denominators, written out in the constants c1, c2
        alg = build_algebra(ReplayConfig(n=n))
        c1, c2 = alg.c1, alg.c2
        H, beta, E = (alg.ring.var(v) for v in ("H", "beta", "E"))
        assert reference_forms.allowed_side_conditions(alg) == [
            c1 * H - beta,
            c2 * H - 2 * beta,
            (c1 - c2) * H + beta,
            (c1 + c2) * H - beta,
            c1 * H + beta,
            c2 * H,
            E,
        ]

    def test_checkpoint_census_n4(self, report4):
        by_status = {}
        for cp in report4.checkpoints:
            by_status.setdefault(cp.status, []).append(cp.id)
        assert len(by_status[EXACT]) == 11
        assert len(by_status[UP_TO_UNIT]) == 2
        assert sorted(by_status[FLAGGED]) == ["3.57", "3.58", "3.59", "3.60"]
        assert len(by_status[STRUCTURAL]) == 5

    def test_spotcheck_note_present(self, report4):
        assert any("cross-check" in note for note in report4.notes)

    @pytest.mark.parametrize("a", [Fraction(0), Fraction(-3, 2)])
    def test_numeric_resultant_is_the_symbolic_one_at_a(self, report5, a):
        # the curves are normalized to primitive parts in either mode, so the
        # two resultants agree up to a nonzero rational factor
        numeric = replay_all(ReplayConfig(n=5, a_mode="numeric", a_value=a))
        symbolic = report5.final_resultant.substitute("a", a)
        assert not symbolic.is_zero()
        assert numeric.final_resultant.primitive() == symbolic.primitive()

    def test_numeric_mode_n6(self, report6num):
        assert report6num.verdict == VERDICT_CONSTANT
        res = report6num.final_resultant
        assert res.degree("a") == 0  # specialized away
        assert res.degree("H") % 2 == 1

    @pytest.mark.parametrize("n", range(4, 41))
    def test_a_free_strata_survive_every_specialization(self, n):
        # the a^0 part of a weighted-homogeneous form is its top (H, beta)
        # stratum, which a -> a0 leaves alone: so a numeric run keeps both
        # curves' beta-degrees (its degree guard cannot fire) and the joint
        # degree and nonzero support its support checks read
        pipeline = replay_module._Pipeline(ReplayConfig(n=n))
        pipeline.run("prolonged")
        for state in pipeline.branches.values():
            for form in (state.L, state.M, state.N, state.curve9, state.curve12):
                assert not form.substitute("a", 0).is_zero()
            for curve in (state.curve9, state.curve12):
                assert not curve.coefficients_in("beta")[-1].substitute("a", 0).is_zero()

    def test_a_value_past_the_digit_limit_renders(self):
        # str() of an int past 4,300 digits raises ValueError
        cfg = ReplayConfig(n=4, a_mode="numeric", a_value=Fraction(10**5000, 3))
        report = replay_module.EliminationReport(
            "1", cfg, [], [], None, None, None, VERDICT_INCONCLUSIVE, {}, []
        )
        assert report.to_json_dict()["config"]["a_value"] == "1" + "0" * 5000 + "/3"

    def test_eliminate_beta_entrypoint(self):
        report = eliminate_beta(ReplayConfig(n=4))
        assert report.verdict == VERDICT_CONSTANT

    @pytest.mark.parametrize("n", [4, 5])
    def test_eliminate_beta_is_the_full_replay(self, n):
        # the elimination depends on every other stage, so both entry points
        # run the same stages in the same order and report the same bytes
        cfg = ReplayConfig(n=n)
        assert canonical_dumps(eliminate_beta(cfg).to_json_dict()) == canonical_dumps(
            replay_all(cfg).to_json_dict()
        )


class TestGoldenReports:
    @pytest.mark.parametrize(
        "fixture_name, filename",
        [
            ("report4", "replay_n4_symbolic_keep.json"),
            ("report5", "replay_n5_symbolic.json"),
            ("report6num", "replay_n6_numeric_a1.json"),
            ("report6num_keep", "replay_n6_numeric_a1_keep.json"),
        ],
    )
    def test_byte_identical_to_golden(self, request, fixture_name, filename):
        report = request.getfixturevalue(fixture_name)
        text = canonical_dumps(report.to_json_dict())
        golden = (DATA / filename).read_text(encoding="utf-8")
        assert text == golden

    # sha256 of the stdout of replays beyond the golden files; each exits 0
    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("--n 7", "573794b8fba29a197d14913b311333acf1cd3d27e8e7d04d6a90f8fbd812e754"),
            ("--n 8", "a90c65edd36e53e6bdfba78ec107d3f6bf90dd64b39425cd8c56bf64c9269ee8"),
            ("--n 10", "6879272fcd88643611528eefd3519529f3927c0bb767fce40297c89706eb7de1"),
            ("--n 12", "be9a020f1cfd38a562112c17a46af3005a95b7995a99079f928589e701c444e1"),
            ("--n 16", "92ad03cf37a3c1d84fdf2ef313bcbe2a05da0c5e1880d211fd8d9212ec62424e"),
            ("--n 5 --a-mode numeric --a-value 3/2",
             "c65bbf67e4c3d0366293e2fbd3f9f9c59e31a2ad632b76550b1885743edb74c2"),
            ("--n 7 --a-mode numeric --a-value 0",
             "a9c9ec59e26122be0b17802eec4ff9fcc44efde7497aac8f1b5420ab4dea29fa"),
            ("--n 9 --a-mode numeric --a-value=-2/3",
             "88a3192959bedb779691f06928a1145094f6eb93ab65bfa27c71930507b3bf92"),
            # recorded from the numeric mode that carried a0 through every
            # stage, before it became the specialized symbolic replay
            ("--n 5 --a-mode numeric --a-value=-2/3 --keep-intermediates",
             "5cd99cd7da82acdc0fb98549d58090883d563fa8edc040a27990451878430c46"),
            ("--n 4 --a-mode numeric --a-value 7 --keep-intermediates",
             "ce61e7276d87a289ab82c65cd6560996af723fb8a2cd9dcd528f8c8b65eb641a"),
            ("--n 9 --keep-intermediates",
             "b7c9f08ca0c7e7622e6da74f841dfe2ef62147524ad80375d9f6d5a547f226c1"),
            ("--n 4 --a-mode numeric --a-value 0",
             "b8cb2fbfc8ef8fb1bf1aac1e3850b3f167802c732f72f6d04910eb4b4cc69aff"),
            ("--n 12 --a-mode numeric --a-value 10000000000000000000000000000000000000007/3",
             "48093f38a96b551067f6081c458f799b6f1d40185e8671df5d7af3b44bd5b82c"),
            ("--n 5 --a-mode numeric --a-value 1e100",
             "3f79999edc602ef5c96632e004019adfc16d39b377bf07efbdf722e8a237456b"),
            ("--n 16 --a-mode numeric --a-value=-40/9",
             "8c7dcce5d3ab53c82928f4a5537d7ec4b37a6f17fb9f1b1af6a6e7cb1848418f"),
            ("--n 7 --a-mode numeric --a-value 3/2 --format text",
             "f2ec988425e8a4c9a9769519c9ea284e046d9d9f3fd5ae8282076bafaa147dcd"),
        ],
    )
    def test_cli_stdout_digest(self, capsys, argv, digest):
        assert main(["replay", *argv.split()]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    def test_rerun_is_byte_identical(self):
        cfg = ReplayConfig(n=4)
        first = canonical_dumps(replay_all(cfg).to_json_dict())
        second = canonical_dumps(replay_all(cfg).to_json_dict())
        assert first == second

    def test_intermediates_toggle(self, report4, report5):
        with_inter = report4.to_json_dict()
        without = report5.to_json_dict()
        cp_with = {c["id"]: c for c in with_inter["checkpoints"]}
        cp_without = {c["id"]: c for c in without["checkpoints"]}
        assert "derived" in cp_with["3.54"]
        assert "derived" not in cp_without["3.54"]

    def test_renders_only_what_the_report_prints(self, monkeypatch, capsys):
        # checkpoint and certificate text is built only when it is printed:
        # without --keep-intermediates the JSON report prints the side
        # conditions, the curves and the resultant, the other branch's curves,
        # its master equation in the notes and one difference per flagged note
        rendered = []
        render = replay_module.Polynomial.render

        def recording_render(poly):
            rendered.append(render(poly))
            return rendered[-1]

        monkeypatch.setattr(replay_module.Polynomial, "render", recording_render)
        assert main(["replay", "--n", "8"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        printed = (
            len(doc["side_conditions"]) + 3 + 2 * len(doc["branches"]) + 1
            + sum(cp["status"] == FLAGGED for cp in doc["checkpoints"])
        )
        assert len(rendered) <= printed
        assert all(text in out for text in rendered)


class TestFailureModes:
    def test_dimension_below_four_rejected(self):
        with pytest.raises(ConfigError, match=">= 4"):
            ReplayConfig(n=3)

    def test_numeric_mode_without_value_rejected(self):
        with pytest.raises(ConfigError):
            ReplayConfig(n=4, a_mode="numeric")

    def test_structural_checkpoint_failure_halts(self, monkeypatch):
        # sabotage the cubic-form template: the N-form support check must
        # then fail hard, carrying a partial report for diagnostics
        monkeypatch.setattr(reference_forms, "TEMPLATE_CUBIC_FORM", frozenset())
        with pytest.raises(CheckpointFailure) as err:
            derive_tangency_curve(ReplayConfig(n=4))
        report = err.value.report
        assert report is not None
        # the tangency stage's dependencies ran in full; lemma31 and lemma32 did not
        assert [cp.id for cp in report.checkpoints] == [
            "3.41-cyclic", "3.42", "3.43", "3.44", "3.45",
            "3.51", "3.52", "3.54", "3.55", "3.56",
            "3.57", "3.58", "3.59", "3.60",
            "3.61-L", "3.61-M",
        ]
        assert report.branches == {}
        assert report.verdict == VERDICT_INCONCLUSIVE

    def test_quotient_that_kept_a_denominator_halts(self):
        pipeline = replay_module._Pipeline(ReplayConfig(n=4))
        with pytest.raises(CheckpointFailure) as err:
            pipeline._as_polynomial(
                RationalFunction(pipeline.ring.var("beta"), pipeline.H), "relation"
            )
        assert str(err.value) == "relation kept a denominator: (beta) / (H)"
        assert err.value.report.verdict == VERDICT_INCONCLUSIVE

    def test_side_condition_outside_the_vocabulary_exits_three(
        self, monkeypatch, capsys, tmp_path
    ):
        # without E in the vocabulary, clearing E at 3.61 must halt the replay
        vocabulary = reference_forms.allowed_side_conditions

        def without_e(alg):
            return [p for p in vocabulary(alg) if p != alg.ring.var("E")]

        monkeypatch.setattr(reference_forms, "allowed_side_conditions", without_e)
        out = tmp_path / "partial.json"
        code = main(["replay", "--n", "4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "outside the fixed vocabulary" in err
        partial = json.loads(out.read_text(encoding="utf-8"))
        assert partial["verdict"] == "inconclusive"
        assert partial["checkpoints"][-1]["id"] == "3.60"

    def test_curve_constant_in_beta_halts_with_partial_report(self, monkeypatch):
        # a prolonged curve that has lost beta cannot be eliminated: the replay
        # halts like any other structural failure and keeps its partial report
        dependencies, prolonged = replay_module._STAGES["prolonged"]

        def prolonged_without_beta(pipeline):
            curve = prolonged(pipeline)
            for state in pipeline.branches.values():
                state.curve12 = state.curve12.substitute("beta", 1)
            return curve

        monkeypatch.setitem(
            replay_module._STAGES, "prolonged", (dependencies, prolonged_without_beta)
        )
        with pytest.raises(CheckpointFailure, match="nonconstant in beta") as err:
            replay_all(ReplayConfig(n=4))
        report = err.value.report
        assert report.checkpoints[-1].id == "3.65"
        assert report.branches == {}
        assert report.verdict == VERDICT_INCONCLUSIVE

    @staticmethod
    def add_to_curve9(monkeypatch, term):
        """Add ``term(pipeline)`` to the replayed tangency curve after it is prolonged."""
        dependencies, prolonged = replay_module._STAGES["prolonged"]

        def prolonged_with_stray_term(pipeline):
            curve = prolonged(pipeline)
            state = pipeline.branches[BRANCH_REPLAYED]
            state.curve9 = state.curve9 + term(pipeline)
            return curve

        monkeypatch.setitem(
            replay_module._STAGES, "prolonged", (dependencies, prolonged_with_stray_term)
        )

    def test_inhomogeneous_curve_halts_with_partial_report(self, monkeypatch):
        # the final resultant is taken at H = 1 and H restored from the
        # weights; a curve off its weight must halt, never be rehomogenized
        self.add_to_curve9(monkeypatch, lambda p: p.H * p.ring.var("beta")**2)
        with pytest.raises(CheckpointFailure, match="tangency curve is not weighted-homogeneous"
                           ) as err:
            replay_all(ReplayConfig(n=5))
        report = err.value.report
        assert report.checkpoints[-1].id == "3.65"
        assert report.final_resultant is None
        assert report.branches == {}
        assert report.verdict == VERDICT_INCONCLUSIVE

    def test_inhomogeneous_curve_exits_three(self, monkeypatch, capsys, tmp_path):
        self.add_to_curve9(monkeypatch, lambda p: p.H * p.ring.var("beta")**2)
        out = tmp_path / "partial.json"
        code = main(["replay", "--n", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "checkpoint failure: tangency curve is not weighted-homogeneous" in err
        partial = json.loads(out.read_text(encoding="utf-8"))
        assert partial["verdict"] == "inconclusive"
        assert partial["final_resultant"] is None
        assert partial["checkpoints"][-1]["id"] == "3.65"
        assert f"partial report: {len(partial['checkpoints'])} checkpoint(s) passed" in err

    def test_numeric_curve_of_the_wrong_parity_halts(self, monkeypatch):
        # a numeric run checks the weights of the symbolic curves, so a term
        # of weight 2 in the weight-9 curve halts it as it halts a symbolic run
        self.add_to_curve9(monkeypatch, lambda p: p.H * p.ring.var("beta"))
        with pytest.raises(CheckpointFailure, match="tangency curve is not weighted-homogeneous"):
            replay_all(ReplayConfig(n=5, a_mode="numeric", a_value=Fraction(3, 2)))


CURVE_RING = replay_module._CURVE_RING
_H, _BETA, _A = (CURVE_RING.var(v) for v in ("H", "beta", "a"))
# (c9, c12) pairs, weighted-homogeneous for H:1, beta:1, a:2, whose points no
# check mod P can settle
FORCED_FALLBACKS = {
    # the leading coefficient in beta is a multiple of P
    "leading-coefficient": (MODULUS * _BETA**2 + _H * _BETA - _A, _BETA - _H),
    # coprime over Q, yet beta = H is a shared root mod P
    "unlucky-prime": (_BETA - _H, _BETA - _H + MODULUS * _H),
    # P divides a denominator: every point takes the exact path
    "denominator": (_BETA**2 * Fraction(1, MODULUS) - _A, _BETA + _H),
}
# The first point drawn at n = 4 is (H, a) = (20, 38/9), where t = a/H^2 = 19/1800
# and this weight-2 form vanishes; it is nonzero at the other points drawn.
FIRST_POINT_FORM = 1800 * _A - 19 * _H**2


class TestFinalResultantKernel:
    """The final resultant takes each grid point from the two curves'
    coefficient lists (a subresultant PRS), never from a Bareiss determinant."""

    def test_replay_makes_no_bareiss_determinant(self, monkeypatch, capsys):
        # ``deltahyp.resultant`` as an attribute is the re-exported function
        module = importlib.import_module("deltahyp.resultant")
        calls = []
        inner = module.det_bareiss

        def counting_det(matrix):
            calls.append(len(matrix))
            return inner(matrix)

        monkeypatch.setattr(module, "det_bareiss", counting_det)
        assert main(["replay", "--n", "4"]) == 0
        assert calls == []

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_final_resultants_equal_the_bareiss_determinant(self, monkeypatch, n):
        taken, tested = [], []

        def recording(f, g, var, **kwargs):
            value = resultant(f, g, var, **kwargs)
            if var == "beta":
                taken.append((f, g, value))
            return value

        def recording_zero_test(f, g, var):
            tested.append((f, g))
            return resultant_is_zero(f, g, var)

        monkeypatch.setattr(replay_module, "resultant", recording)
        monkeypatch.setattr(replay_module, "resultant_is_zero", recording_zero_test)
        report = replay_all(ReplayConfig(n=n))
        # only the replayed branch's resultant is built; the first-principles
        # branch is read as nonzero or not
        assert len(taken) == len(tested) == 1
        (f, g, value), = taken
        assert f.support(("H",)) == g.support(("H",)) == {(0,)}  # taken at H = 1
        assert value == det_bareiss(sylvester_matrix(f, g, "beta"))
        assert not value.is_zero()
        (f, g), = tested
        assert f.support(("H",)) == g.support(("H",)) == {(0,)}
        assert report.branches[BRANCH_FIRST_PRINCIPLES].resultant_nonzero == (
            not det_bareiss(sylvester_matrix(f, g, "beta")).is_zero()
        )

    @staticmethod
    def count_grid_points(monkeypatch, name):
        """Wrap replay's ``name`` so that each of its calls appends the number of
        grid points it evaluates: the outermost ``_int_resultant`` calls."""
        module = importlib.import_module("deltahyp.resultant")
        inner_value, inner = module._int_resultant, getattr(replay_module, name)
        counts, depth = [], [0]

        def counting_value(f, g):
            # _int_resultant recurses through this name; count the outermost calls
            if not depth[0]:
                counts[-1] += 1
            depth[0] += 1
            try:
                return inner_value(f, g)
            finally:
                depth[0] -= 1

        def counted(f, g, var):
            counts.append(0)
            monkeypatch.setattr(module, "_int_resultant", counting_value)
            try:
                return inner(f, g, var)
            finally:
                monkeypatch.setattr(module, "_int_resultant", inner_value)

        monkeypatch.setattr(replay_module, name, counted)
        return counts

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_first_principles_decision_reads_one_grid_point(self, monkeypatch, n):
        counts = self.count_grid_points(monkeypatch, "resultant_is_zero")
        report = replay_all(ReplayConfig(n=n))
        assert report.branches[BRANCH_FIRST_PRINCIPLES].resultant_nonzero
        assert counts == [1]

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_final_resultant_reads_the_polygon_bounded_grid(self, monkeypatch, n):
        # lemma32's pair-branch resultant is linear in X, so it takes the closed
        # form and no grid point; the final resultant's a-degree is 25, and the
        # Newton polygons bound it by 27 (28 points) where the Sylvester row
        # and column sums give 33 (34 points)
        counts = self.count_grid_points(monkeypatch, "resultant")
        replay_all(ReplayConfig(n=n))
        assert counts == [0, 28]

    def test_lemma32_makes_no_grid_resultant(self, monkeypatch):
        module = importlib.import_module("deltahyp.resultant")
        calls = []
        inner = module._int_resultant

        def counting_value(f, g):
            calls.append((f, g))
            return inner(f, g)

        monkeypatch.setattr(module, "_int_resultant", counting_value)
        for n in (4, 5, 8):
            verify_lemma32(ReplayConfig(n=n))
        assert calls == []


class TestSpotcheck:
    """The 20-point cross-check decides each point mod P = 2^61 - 1 first and
    falls back to the exact gcd for every point it cannot settle there."""

    @staticmethod
    def spotcheck(c9, c12, res):
        """Run the cross-check alone; return its note or the failure message."""
        pipeline = replay_module._Pipeline(ReplayConfig(n=4))
        try:
            pipeline._consistency_spotcheck(c9, c12, res)
        except CheckpointFailure as exc:
            return str(exc)
        return pipeline.notes[-1]

    @staticmethod
    def count_exact_gcds(monkeypatch):
        calls = []
        inner = replay_module.poly_gcd

        def counting_gcd(f, g):
            calls.append((f, g))
            return inner(f, g)

        monkeypatch.setattr(replay_module, "poly_gcd", counting_gcd)
        return calls

    def test_n4_makes_no_exact_gcd(self, monkeypatch, report4):
        calls = self.count_exact_gcds(monkeypatch)
        note = self.spotcheck(report4.curve9, report4.curve12, report4.final_resultant)
        assert note.startswith("specialization cross-check: 20 sample points consistent")
        assert calls == []

    @pytest.mark.parametrize("case", sorted(FORCED_FALLBACKS))
    @pytest.mark.parametrize("tampered", [False, True])
    def test_forced_fallback_matches_the_exact_path(self, monkeypatch, case, tampered):
        c9, c12 = FORCED_FALLBACKS[case]
        res = CURVE_RING.zero() if tampered else resultant(c9, c12, "beta")
        calls = self.count_exact_gcds(monkeypatch)
        verdict = self.spotcheck(c9, c12, res)
        assert len(calls) == (1 if tampered else 20)
        monkeypatch.setattr(replay_module, "residues", lambda p: None)
        assert verdict == self.spotcheck(c9, c12, res)
        assert verdict.startswith(
            "specialization cross-check failed at" if tampered
            else "specialization cross-check: 20 sample points consistent"
        )

    @pytest.mark.parametrize(
        "c9, c12",
        [
            (FIRST_POINT_FORM * _BETA + _H**3, _BETA**2 - _A),
            (_BETA**2 - _A, FIRST_POINT_FORM * _BETA + _H**3),
        ],
        ids=["c9-loses-its-beta-degree", "c12-loses-its-beta-degree"],
    )
    def test_inadmissible_point_is_skipped(self, monkeypatch, c9, c12):
        # at the first point drawn, the beta-leading coefficient of the first
        # curve vanishes: mod P it is not settled, and the exact path skips it
        settled = []
        inner = replay_module._settled_mod_p

        def counting_settled(images, t):
            settled.append(t)
            return inner(images, t)

        monkeypatch.setattr(replay_module, "_settled_mod_p", counting_settled)
        calls = self.count_exact_gcds(monkeypatch)
        note = self.spotcheck(c9, c12, resultant(c9, c12, "beta"))
        assert note.startswith("specialization cross-check: 20 sample points consistent")
        assert settled[0] == residue(Fraction(19, 1800)) and len(settled) == 21
        assert calls == []

    @pytest.mark.parametrize(
        "c12, tampered, status",
        [
            # the curves share the root beta = H at the first point, where their
            # resultant FIRST_POINT_FORM vanishes; the tampered one does not
            (_BETA**2 - _H**2 + FIRST_POINT_FORM, FIRST_POINT_FORM + _H**2,
             "shared-root status True vs resultant-zero status False"),
            (_BETA**2 - _H**2 + FIRST_POINT_FORM, 1800 * _A * _H - 19 * _H**2,
             "shared-root status True vs resultant-zero status False"),
            # coprime curves at the first point, where the tampered resultant
            # vanishes: r0 is read from the reported res, never from the curves
            (_BETA**2 + FIRST_POINT_FORM, FIRST_POINT_FORM,
             "shared-root status False vs resultant-zero status True"),
        ],
        ids=["coefficient-off-by-one", "term-off-its-weight", "off-by-one-to-zero"],
    )
    def test_tampered_resultant_fails(self, c12, tampered, status):
        c9 = _BETA - _H
        res = resultant(c9, c12, "beta")
        assert res == c12.substitute("beta", _H)  # c9 is monic and linear
        assert self.spotcheck(c9, c12, res).startswith(
            "specialization cross-check: 20 sample points consistent"
        )
        assert self.spotcheck(c9, c12, tampered) == (
            f"specialization cross-check failed at H=20, a=38/9: {status}"
        )

    def test_a_value_with_p_in_its_denominator_takes_the_exact_path(self, monkeypatch):
        # t = a_value / H0^2 has no residue mod P at any point
        calls = self.count_exact_gcds(monkeypatch)
        report = replay_all(ReplayConfig(n=4, a_mode="numeric", a_value=Fraction(1, MODULUS)))
        assert report.verdict == VERDICT_CONSTANT
        assert len(calls) == 20

    def test_specialization_halts_when_a_beta_degree_drops(self):
        # the beta-leading coefficient a of c9 vanishes at a = 0
        pipeline = replay_module._Pipeline(ReplayConfig(n=4, a_mode="numeric", a_value=0))
        c9, c12 = _A * _BETA + _H**3, _BETA - _H
        for state in pipeline.branches.values():
            state.curve9, state.curve12 = c9, c12
            state.final_resultant = resultant(c9, c12, "beta")
        with pytest.raises(CheckpointFailure, match="a curve loses its beta-degree"):
            pipeline._specialize()

    def test_zero_resultant_fails(self, report4):
        with pytest.raises(CheckpointFailure, match="resultant-zero status True"):
            replay_module._Pipeline(ReplayConfig(n=4))._consistency_spotcheck(
                report4.curve9, report4.curve12, CURVE_RING.zero()
            )

    def test_shared_factor_fails(self, report4):
        factor = CURVE_RING.parse("beta - 2*H")
        with pytest.raises(CheckpointFailure, match="shared-root status True"):
            replay_module._Pipeline(ReplayConfig(n=4))._consistency_spotcheck(
                report4.curve9 * factor, report4.curve12 * factor, report4.final_resultant
            )

    def test_tampered_resultant_exits_three(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(
            replay_module._Pipeline, "_final_resultant", lambda self, c9, c12: c9.ring.zero()
        )
        out = tmp_path / "partial.json"
        code = main(["replay", "--n", "4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "checkpoint failure: specialization cross-check failed at" in err
        partial = json.loads(out.read_text(encoding="utf-8"))
        assert partial["verdict"] == "inconclusive"
        assert partial["final_resultant"] == "0"
        assert partial["checkpoints"][-1]["id"] == "3.65"
        assert f"partial report: {len(partial['checkpoints'])} checkpoint(s) passed" in err
