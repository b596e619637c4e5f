"""Command-line front end: replay and pointwise analysis with stable exit codes.

Exit codes: 0 success / positive verdict; 1 negative verdict; 2 usage or
schema error; 3 internal checkpoint failure, whose partial report goes to
--out when given.  Reports go to stdout (JSON by default), diagnostics to
stderr.  The default random seed can be overridden with the DELTAHYP_SEED
environment variable; an explicit --seed flag wins.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING

from .derivation import ReplayConfig
from .errors import CheckpointFailure, ConfigError, DeltahypError
from .jsonio import DECODE_ERRORS, canonical_dumps, dump_path, load_path
from .limits import CATALOG_KINDS, DEFAULT_RESTARTS, DEFAULT_SEED, DEFAULT_TOL, MAX_DIMENSION
from .replay import VERDICT_CONSTANT, replay_all

if TYPE_CHECKING:
    from .shape import ShapeOperator


def _deferred(module: str, name: str):
    """``deltahyp.<module>.<name>``, imported when it is first called.

    The geometry modules load NumPy, which ``replay`` and ``--help`` never
    need.  Each stand-in is a module global, so bench/tracer.py can rebind it.
    """
    path = f"{__package__}.{module}"

    def call(*args, **kwargs):
        return getattr(importlib.import_module(path), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


delta_from_spectrum = _deferred("delta", "delta_from_spectrum")
delta_invariant = _deferred("delta", "delta_invariant")  # unused here; bench/tracer.py wraps it
detect_ideal_pattern = _deferred("delta", "detect_ideal_pattern")
ideality_gap = _deferred("delta", "ideality_gap")
null2type_check = _deferred("delta", "null2type_check")
curvature_report = _deferred("shape", "curvature_report")
catalog_shape_operator = _deferred("surfaces", "catalog_shape_operator")
load_case = _deferred("surfaces", "load_case")
parse_matrix = _deferred("surfaces", "parse_matrix")
parse_surface_spec = _deferred("surfaces", "parse_surface_spec")
shape_operator_from_grid = _deferred("surfaces", "shape_operator_from_grid")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CHECKPOINT = 3


def _default_seed() -> int:
    raw = os.environ.get("DELTAHYP_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"DELTAHYP_SEED must be an integer, got {raw!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="also write the canonical JSON report to PATH (independent of --format)",
    )


def _add_operator_inputs(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--spectrum", help="comma-separated principal curvatures, e.g. 1,2,3,6"
    )
    group.add_argument(
        "--matrix", metavar="PATH", help="JSON file {\"n\": ..., \"matrix\": [[...]]}"
    )
    group.add_argument(
        "--case", metavar="PATH", help="JSON surface spec or immersion grid"
    )


def _add_numeric_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help="tolerance")
    parser.add_argument(
        "--restarts", type=int, default=DEFAULT_RESTARTS, help="optimizer restarts"
    )
    parser.add_argument("--seed", type=int, default=None, help="optimizer seed")
    parser.add_argument(
        "--no-optimizer",
        action="store_true",
        help="skip the frame optimizer and use only the combinatorial scan",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltahyp",
        description=(
            "Exact replay of the curvature-flow elimination and pointwise "
            "delta-invariant analysis of hypersurface shape operators."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    rp = sub.add_parser("replay", help="run the symbolic elimination replay")
    rp.add_argument("--n", type=int, required=True, help="dimension (>= 4)")
    rp.add_argument(
        "--a-mode", choices=("symbolic", "numeric"), default="symbolic",
        help="treat the type constant symbolically or as a fixed rational",
    )
    rp.add_argument(
        "--a-value", default=None,
        help="rational value for --a-mode numeric, e.g. 3/2",
    )
    rp.add_argument(
        "--keep-intermediates", action="store_true",
        help="include derived/expected polynomial text in every checkpoint "
             "(the text is built only when kept)",
    )
    _add_common(rp)

    dp = sub.add_parser("delta", help="delta(r) invariant and the universal bound")
    dp.add_argument("--r", type=int, required=True, help="subspace dimension")
    _add_operator_inputs(dp)
    _add_numeric_opts(dp)
    _add_common(dp)

    ip = sub.add_parser("ideal", help="test delta(r) ideality (equality in the bound)")
    ip.add_argument("--r", type=int, default=3, help="subspace dimension (default 3)")
    _add_operator_inputs(ip)
    _add_numeric_opts(ip)
    _add_common(ip)

    np_ = sub.add_parser("null2", help="pointwise null-2-type screen")
    _add_operator_inputs(np_)
    np_.add_argument("--tol", type=float, default=DEFAULT_TOL, help="tolerance")
    _add_common(np_)

    cp = sub.add_parser("catalog", help="shape operator of a catalog surface")
    cp.add_argument("--case", metavar="PATH", help="JSON surface spec or grid")
    cp.add_argument("--kind", choices=CATALOG_KINDS)
    cp.add_argument("--n", type=int, help="dimension")
    cp.add_argument("--p", type=int, help="curved factor dimension (cylinders)")
    cp.add_argument("--radius", type=float, help="radius (cylinders and spheres)")
    cp.add_argument("--hessian", help="JSON matrix for graph kind, e.g. [[1,0],[0,2]]")
    _add_common(cp)

    return parser


# -- input assembly ---------------------------------------------------------------


def _parse_spectrum(text: str) -> list[Fraction]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if len(parts) > MAX_DIMENSION:
        raise ConfigError(
            f"spectrum must have at most {MAX_DIMENSION} values, got {len(parts)}"
        )
    # A decimal part is range-checked on its float, then read exactly through
    # Decimal in time linear in the text (Fraction(part) builds 10**|exponent|
    # first).  One that rounds to 0.0 is 0 if its mantissa is zero, whatever
    # its exponent, and below the float range otherwise.
    decimals = {}
    for part in parts:
        try:
            approx = float(part)
        except ValueError:  # "1/3" or malformed: left to the exact parse below
            continue
        if math.isinf(approx):
            raise ConfigError(f"spectrum {text!r} has a value beyond the float range")
        if approx == 0 and Decimal(part.lower().partition("e")[0]):
            raise ConfigError(f"spectrum {text!r} has a value below the float range")
        if not math.isnan(approx):  # NaN is left to the exact parse, which refuses it
            decimals[part] = Fraction(Decimal(part)) if approx else Fraction(0)
    try:
        values = [decimals[part] if part in decimals else Fraction(part) for part in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse spectrum {text!r}: {exc}") from None
    if len(values) < 2:
        raise ConfigError("spectrum needs at least two values")
    if any(abs(x) > sys.float_info.max for x in values):
        raise ConfigError(f"spectrum {text!r} has a value beyond the float range")
    return values


def _spec_from_flags(args) -> dict:
    """The surface spec document that the ``catalog --kind`` flags describe."""
    flags = {"kind": args.kind, "n": args.n, "p": args.p, "radius": args.radius}
    data = {key: value for key, value in flags.items() if value is not None}
    if args.hessian is not None:
        try:
            data["hessian"] = json.loads(args.hessian)
        except DECODE_ERRORS as exc:
            raise ConfigError(f"cannot parse --hessian: {exc}") from None
    return data


def _is_grid(case) -> bool:
    from .surfaces import ImmersionGrid  # loaded already: the case came from surfaces

    return isinstance(case, ImmersionGrid)


def _case_operator(case) -> ShapeOperator:
    """Shape operator of a case: a catalog surface or a sampled immersion grid."""
    if _is_grid(case):
        return shape_operator_from_grid(case)
    return catalog_shape_operator(case)


def _operator_from_args(args) -> tuple[ShapeOperator, list[Fraction] | None]:
    """Build the operator; also return the exact spectrum when given inline."""
    if getattr(args, "spectrum", None):
        from .shape import ShapeOperator

        exact = _parse_spectrum(args.spectrum)
        return ShapeOperator.from_spectrum([float(x) for x in exact]), exact
    if getattr(args, "matrix", None):
        try:
            data = load_path(args.matrix)
        except DECODE_ERRORS as exc:
            raise ConfigError(f"invalid JSON in {args.matrix}: {exc}") from None
        return parse_matrix(data), None
    return _case_operator(load_case(args.case)), None


# -- report rendering ----------------------------------------------------------------


def _emit(args, report: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(canonical_dumps(report))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")
    if args.out:
        dump_path(args.out, report)


def _keep_partial_report(args, report) -> None:
    """Summarize a halted replay on stderr and write its report to --out."""
    passed = report.checkpoints
    last = passed[-1].id if passed else "none"
    print(
        f"partial report: {len(passed)} checkpoint(s) passed, last {last}",
        file=sys.stderr,
    )
    if args.out:
        try:
            dump_path(args.out, report.to_json_dict())
        except OSError as exc:
            print(f"error: cannot write the partial report: {exc}", file=sys.stderr)


# -- subcommands ------------------------------------------------------------------------


def _cmd_replay(args) -> int:
    a_value = None
    if args.a_value is not None:
        try:
            a_value = Fraction(args.a_value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse --a-value {args.a_value!r}: {exc}") from None
    cfg = ReplayConfig(
        n=args.n,
        a_mode=args.a_mode,
        a_value=a_value,
        keep_intermediates=args.keep_intermediates,
    )
    report = replay_all(cfg)
    # the text lines render every curve again; JSON output does not read them
    lines = _replay_lines(args, report) if args.format == "text" else []
    _emit(args, report.to_json_dict(), lines)
    return EXIT_OK if report.verdict == VERDICT_CONSTANT else EXIT_NEGATIVE


def _replay_lines(args, report) -> list[str]:
    lines = [f"replay n={args.n} a_mode={args.a_mode}"]
    for cp in report.checkpoints:
        lines.append(f"  checkpoint {cp.id}: {cp.status}")
    lines.append("side conditions:")
    for sc in report.side_conditions:
        lines.append(f"  {sc.origin}: {sc.expr.render()} != 0")
    lines.append(f"curve9: {report.curve9.render()}")
    lines.append(f"curve12: {report.curve12.render()}")
    lines.append(f"final resultant: {report.final_resultant.render()}")
    lines.append(f"verdict: {report.verdict}")
    return lines


def _check_tol(args) -> None:
    """Reject a --tol that the ``|gap| <= tol`` tests cannot use."""
    tol = getattr(args, "tol", DEFAULT_TOL)
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"--tol must be finite and at least 0, got {tol}")


def _resolve_seed(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


def _ideality_gap(args, operator: ShapeOperator) -> dict:
    return ideality_gap(
        operator,
        args.r,
        restarts=args.restarts,
        seed=_resolve_seed(args),
        tol=args.tol,
        use_optimizer=not args.no_optimizer,
    )


def _cmd_delta(args) -> int:
    operator, exact = _operator_from_args(args)
    outcome = _ideality_gap(args, operator)
    result = outcome["result"]
    payload = {
        "n": operator.n,
        "r": args.r,
        "spectrum": result.spectrum.to_json_dict(),
        "delta": result.to_json_dict(),
        "chen_bound": outcome["bound"],
        "gap": outcome["gap"],
        "ideal": outcome["ideal"],
    }
    if exact is not None:
        exact_delta, exact_inf, witness = delta_from_spectrum(exact, args.r)
        payload["exact"] = {
            "tau": exact_delta + exact_inf,
            "delta": exact_delta,
            "inf_tau_L": exact_inf,
            "witness": list(witness),
        }
    lines = [
        f"delta({args.r}) = {result.delta:.12g}   (inf tau_L = {result.inf_tau_L:.12g}, "
        f"method {result.method})",
        f"chen bound = {outcome['bound']:.12g}, gap = {outcome['gap']:.12g}, ideal = "
        + ("true" if payload["ideal"] else "false"),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_ideal(args) -> int:
    operator, _ = _operator_from_args(args)
    outcome = _ideality_gap(args, operator)
    pattern = detect_ideal_pattern(operator, tol=args.tol)
    payload = {
        "n": operator.n,
        "r": args.r,
        "delta": outcome["delta"],
        "bound": outcome["bound"],
        "gap": outcome["gap"],
        "ideal": outcome["ideal"],
        "pattern": None if pattern is None else pattern.to_json_dict(),
    }
    lines = [
        f"delta({args.r}) = {outcome['delta']:.12g}, bound = {outcome['bound']:.12g}",
        f"ideal: {'true' if outcome['ideal'] else 'false'}",
        f"pattern: {payload['pattern']}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if outcome["ideal"] else EXIT_NEGATIVE


def _cmd_null2(args) -> int:
    operator, _ = _operator_from_args(args)
    report = null2type_check(operator, tol=args.tol)
    payload = report.to_json_dict()
    lines = [
        f"status: {report.status}",
        f"H = {report.H:.12g}, trA2 = {report.trA2:.12g}"
        + (f", a = {report.a:.12g}" if report.a is not None else ""),
    ]
    _emit(args, payload, lines)
    return EXIT_OK if report.status == "null-2-type-candidate" else EXIT_NEGATIVE


def _cmd_catalog(args) -> int:
    if args.case:
        case = load_case(args.case)
    elif args.kind:
        case = parse_surface_spec(_spec_from_flags(args))
    else:
        raise ConfigError("catalog needs either --case or --kind")
    operator = _case_operator(case)
    spec_payload = {"source": "grid"} if _is_grid(case) else case.to_json_dict()
    payload = {
        "spec": spec_payload,
        "operator": operator.to_json_dict(),
        "spectrum": curvature_report(operator).to_json_dict(),
    }
    eig = ", ".join(f"{x:.12g}" for x in payload["spectrum"]["principal_curvatures"])
    lines = [f"principal curvatures: {eig}", f"H = {payload['spectrum']['H']:.12g}"]
    _emit(args, payload, lines)
    return EXIT_OK


_COMMANDS = {
    "replay": _cmd_replay,
    "delta": _cmd_delta,
    "ideal": _cmd_ideal,
    "null2": _cmd_null2,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage message
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_tol(args)
        return _COMMANDS[args.subcommand](args)
    except CheckpointFailure as exc:
        print(f"checkpoint failure: {exc}", file=sys.stderr)
        if exc.report is not None:
            _keep_partial_report(args, exc.report)
        return EXIT_CHECKPOINT
    except (DeltahypError, OSError) as exc:
        positions = getattr(exc, "positions", None)
        where = f" (at {', '.join(positions)})" if positions else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
