"""Command-line front end: verification suites, product and invariant
queries, scenarios, the derivation pipeline, and spectral checks.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage or data
error, 141 stdout closed by its reader.  CG_DATA_DIR sets the data directory.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cached_property

from .exactmath import parse_rational
from .schubert import (DEGREES, LABELS, DataFormatError, MultiplicationTable,
                       VerificationReport, default_data_dir, gw_invariant,
                       verify_table)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE: stdout was closed by its reader


def _resolve(path: str) -> str:
    if os.path.isabs(path) or os.path.exists(path):
        return path
    return os.path.join(default_data_dir(), path)


def _load_table(path: str) -> MultiplicationTable:
    return MultiplicationTable.load(_resolve(path))


def _print_report(name: str, report, as_json: bool) -> int:
    if as_json:
        payload = report.to_dict()
        payload["suite"] = name
        print(json.dumps(payload, indent=1))
    else:
        for check in report.checks:
            status = "pass" if check.passed else "fail"
            line = f"[{status}] {name}:{check.check_id}"
            if check.detail and not check.passed:
                line += f" -- {check.detail}"
            print(line)
    return EXIT_OK if report.ok else EXIT_FAIL


class _Inputs:
    """What the suites of one verify call share: the table and the scenario
    results, each computed on first use and then kept, and the presentation
    suite's products as close_loop takes them."""

    def __init__(self, args):
        self._args = args
        self.products = None

    @cached_property
    def table(self) -> MultiplicationTable:
        return _load_table(self._args.table_file)

    @cached_property
    def scenarios(self) -> dict:
        from .intersection import run_all_scenarios
        return run_all_scenarios()


def _suite_table(args, inputs: _Inputs) -> int:
    return _print_report("table", verify_table(inputs.table), args.json)


def _suite_presentation(args, inputs: _Inputs) -> int:
    from .presentation import (DimensionMismatch, build_graded_basis,
                               cross_check_presentation, load_giambelli,
                               mismatched_products, products_key)
    try:
        quotient = build_graded_basis()
        giambelli = load_giambelli(_resolve(args.giambelli_file),
                                   ring=quotient.ring)
    except DimensionMismatch as exc:
        report = VerificationReport()
        report.add("graded_dimensions", False, str(exc))
        return _print_report("presentation", report, args.json)
    found = list(mismatched_products(inputs.table, quotient, giambelli))
    inputs.products = products_key(quotient, giambelli), found
    report = cross_check_presentation(inputs.table, quotient, giambelli, found)
    return _print_report("presentation", report, args.json)


def _suite_scenarios(args, inputs: _Inputs) -> int:
    from .intersection import verify_scenarios
    return _print_report("scenarios", verify_scenarios(inputs.scenarios),
                         args.json)


def _suite_pipeline(args, inputs: _Inputs) -> int:
    from .exactmath import InconsistentSystem, UnderdeterminedSystem
    from .pipeline import run_pipeline
    values = {sid: res.value for sid, res in inputs.scenarios.items()}
    report = VerificationReport()
    try:
        result = run_pipeline(inputs.table, values, inputs.products)
    except (InconsistentSystem, UnderdeterminedSystem) as exc:
        report.add("loop_closed", False, f"{type(exc).__name__}: {exc}")
        return _print_report("pipeline", report, args.json)
    report.add("chevalley_solved", True,
               " ".join(f"{k}={v}" for k, v in result["unknowns"].items()))
    report.add("top_q2_coefficient_zero", result["unknowns"]["a7"] == "0",
               f"a7 = {result['unknowns']['a7']}")
    report.add("loop_closed", result["ok"],
               "" if result["ok"] else f"{result['diff_count']} differing "
               f"products, first: {result['diffs'][:3]}")
    return _print_report("pipeline", report, args.json)


def _suite_spectral(args, inputs: _Inputs) -> int:
    from .spectral import (check_semisimple, covariance_check,
                           galkin_bound_check, nilpotency_index)
    table = inputs.table
    t_cg, bound_ok, spec = galkin_bound_check(table)
    report = VerificationReport()
    report.add("charpoly_shape", spec.shape_ok, str(spec.char_poly))
    report.add("dominant_real_simple", spec.dominant_real_simple,
               f"y_max = {spec.y_max!r}")
    report.add("modulus_set_fourth_roots", spec.modulus_set_is_fourth_roots)
    report.add("trace_form_nondegenerate", spec.trace_form_nondegenerate)
    report.add("spectral_radius_bound", bound_ok, f"T = {t_cg!r} > 9")
    report.add("classical_nilpotent", nilpotency_index(table, 0) > 0)
    report.add("classical_not_semisimple", not check_semisimple(table, 0)[0])
    report.add("charpoly_covariance",
               covariance_check(table, 16, spec.char_poly))
    return _print_report("spectral", report, args.json)


_SUITES = {
    "table": _suite_table,
    "presentation": _suite_presentation,
    "scenarios": _suite_scenarios,
    "pipeline": _suite_pipeline,
    "spectral": _suite_spectral,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    inputs = _Inputs(args)
    return max([_SUITES[name](args, inputs) for name in names])


def cmd_product(args) -> int:
    for label in (args.a, args.b):
        if label not in DEGREES:
            print(f"unknown label: {label}", file=sys.stderr)
            return EXIT_USAGE
    product = _load_table(args.table_file).basis_product(args.a, args.b)
    if args.json:
        # the table file's term schema, ordered as plain: q, then class
        terms = sorted(product.terms().items(), key=lambda t: t[0][::-1])
        print(json.dumps([{"label": LABELS[k], "q": e, "coeff": str(c)}
                          for (k, e), c in terms]))
    else:
        print(product)
    return EXIT_OK


def cmd_gw(args) -> int:
    for label in (args.a, args.b, args.c):
        if label not in DEGREES:
            print(f"unknown label: {label}", file=sys.stderr)
            return EXIT_USAGE
    if not 0 <= args.d <= 4:
        print("degree must be between 0 and 4", file=sys.stderr)
        return EXIT_USAGE
    table = _load_table(args.table_file)
    value = gw_invariant(table, args.d, args.a, args.b, args.c)
    print(json.dumps(str(value)) if args.json else value)
    return EXIT_OK


def cmd_scenario(args) -> int:
    from .intersection import SCENARIO_IDS, UnknownScenario, run_scenario
    ids = SCENARIO_IDS if args.all else [args.id]
    if not args.all and args.id is None:
        print("scenario id required (or --all)", file=sys.stderr)
        return EXIT_USAGE
    results = []
    for sid in ids:
        try:
            results.append(run_scenario(sid))
        except UnknownScenario:
            print(f"unknown scenario: {sid}", file=sys.stderr)
            return EXIT_USAGE
    if args.json:
        print(json.dumps({r.scenario_id: {"main": str(r.main),
                                          "correction": str(r.correction),
                                          "value": str(r.value)}
                          for r in results}, indent=1))
    else:
        for r in results:
            prefix = f"{r.scenario_id}: " if args.all else ""
            print(f"{prefix}main={r.main} correction={r.correction} "
                  f"value={r.value}")
    return EXIT_OK


def cmd_derive(args) -> int:
    from .exactmath import InconsistentSystem, UnderdeterminedSystem
    from .pipeline import run_pipeline
    table = _load_table(args.table_file)
    try:
        result = run_pipeline(table)
    except (InconsistentSystem, UnderdeterminedSystem) as exc:
        print(f"derivation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_FAIL
    if args.json:
        print(json.dumps(result, indent=1))
    else:
        print("unknowns: " + " ".join(f"{k}={v}"
                                      for k, v in result["unknowns"].items()))
        for rel in result["relations"]:
            print("relation: " + rel)
        print(f"diff against shipped table: {result['diff_count']} entries")
    return EXIT_OK if result["ok"] else EXIT_FAIL


def cmd_charpoly(args) -> int:
    from .spectral import sigma1_charpoly
    table = _load_table(args.table_file)
    try:
        qv = parse_rational(args.q)
    except (ValueError, ZeroDivisionError):
        print(f"bad q value: {args.q}", file=sys.stderr)
        return EXIT_USAGE
    poly = sigma1_charpoly(table, qv)
    if args.json:
        print(json.dumps({str(e): str(c)
                          for e, c in sorted(poly.coeffs.items())}))
    else:
        print(poly.format(" "))
    return EXIT_OK


def cmd_conjecture_o(args) -> int:
    from .spectral import galkin_bound_check
    table = _load_table(args.table_file)
    t_cg, bound_ok, report = galkin_bound_check(table)
    if args.json:
        payload = report.to_dict()
        payload["T"] = repr(t_cg)
        payload["bound_T_gt_9"] = bound_ok
        print(json.dumps(payload, indent=1))
    else:
        lo, hi = report.y_max_bracket
        print(f"charpoly: {report.char_poly.format(' ')}")
        print(f"shape t^3*f(t^4): {report.shape_ok}")
        print(f"y_max = {report.y_max!r} (certified within {float(hi - lo):.1e})")
        print(f"dominant eigenvalue real and simple: "
              f"{report.dominant_real_simple}")
        print(f"modulus-maximal set is T times fourth roots of unity: "
              f"{report.modulus_set_is_fourth_roots}")
        print(f"trace form nondegenerate at q=1: "
              f"{report.trace_form_nondegenerate}")
        print(f"T = {t_cg!r}; strict bound T > 9: {bound_ok}")
    return EXIT_OK if (report.ok and bound_ok) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgq",
        description="Exact quantum cohomology engine for the Cayley "
                    "Grassmannian")
    parser.add_argument("--table-file", default="cg_table.json",
                        help="multiplication table (JSON)")
    parser.add_argument("--giambelli-file", default="cg_giambelli.json",
                        help="generator dictionary (JSON)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=["table", "presentation", "scenarios", "pipeline",
                            "spectral", "all"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("product", help="quantum product of two classes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("gw", help="three-point invariant I_d(a, b, c)")
    p.add_argument("d", type=int)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("scenario", help="run a curve-count scenario")
    p.add_argument("id", nargs="?")
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("derive", help="full derivation pipeline")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("charpoly",
                       help="characteristic polynomial of hyperplane "
                            "multiplication")
    p.add_argument("--q", default="1")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("conjecture-o", help="spectral checks at q = 1")
    p.set_defaults(func=cmd_conjecture_o)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: the rest, flushed at exit, goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
