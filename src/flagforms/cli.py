"""Command-line front end.

Exit status: 0 when all requested checks pass, 1 on a check failure, 2 on a
usage error.  ``--json`` switches every report to a canonical JSON encoding
(sorted keys), so identical seeds and flags produce byte-identical output.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .charpoly import schur, schur_decompose, segre_polys
from .combinat import DimensionSequence, Partition
from .conegeom import builtin_families, cone_membership_2d, ray_hull_2d
from .exprs import ParseError, parse
from .flagnum import ChartPoint, FlagChart, curvature_at, curvature_center
from .formlab import CurvatureTensor
from .gysin import convention_report, pushforward_dp
from .rootcalc import UniversalBundleSpec, expand_expression
from .verify import MAX_SEED, SUITES, rank4_identity_checks, run_suite


def _parse_rho(text):
    try:
        return DimensionSequence(int(x) for x in text.split(","))
    except ValueError as exc:
        raise SystemExit(f"bad --rho value {text!r}: {exc}") from None


def _parse_ints(text, flag, count=None):
    try:
        values = tuple(int(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise SystemExit(f"bad {flag} value {text!r}: {exc}") from None
    if count is not None and len(values) != count:
        raise SystemExit(f"{flag} needs {count} comma-separated integers, got {text!r}")
    return values


def _require_positive(flag, value):
    if value < 1:
        raise SystemExit(f"{flag} must be a positive integer, got {value}")


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        _emit_plain(payload)


def _is_leaf(value):
    if isinstance(value, dict):
        return False
    if isinstance(value, list):
        return all(_is_leaf(v) for v in value)
    return True


def _emit_plain(payload, indent=""):
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and not _is_leaf(value):
                print(f"{indent}{key}:")
                _emit_plain(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
    elif isinstance(payload, list):
        for item in payload:
            if _is_leaf(item):
                print(f"{indent}{item}")
            else:
                _emit_plain(item, indent)
    else:
        print(f"{indent}{payload}")


def _checks_report(checks, as_json):
    report = {
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "conventions": convention_report(),
    }
    if as_json:
        print(json.dumps(report, sort_keys=True, default=str))
    else:
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            detail = {k: v for k, v in c.items() if k not in ("name", "passed")}
            extra = f"  {detail}" if not c["passed"] else ""
            print(f"[{status}] {c['name']}{extra}")
    return 0 if report["passed"] else 1


def cmd_schur(args):
    _require_positive("--rank", args.rank)
    sigma = Partition(_parse_ints(args.sigma, "--sigma"))
    poly = schur(sigma, args.rank)
    payload = {"sigma": list(sigma.parts), "rank": args.rank, "polynomial": str(poly)}
    if args.json:
        payload["terms"] = poly.to_json()
    _emit(payload, args.json)
    return 0


def cmd_segre(args):
    _require_positive("--rank", args.rank)
    polys = segre_polys(args.rank, args.max_deg)
    payload = {
        "rank": args.rank,
        "segre": {f"s{i}": str(p) for i, p in enumerate(polys)},
    }
    _emit(payload, args.json)
    return 0


def cmd_pushforward(args):
    rho = _parse_rho(args.rho)
    expr = parse(args.expr)
    expanded = expand_expression(expr, rho)
    pushed = pushforward_dp(expanded, rho)
    payload = {
        "rho": rho.to_json(),
        "expr": args.expr,
        "pushforward": str(pushed),
        "provenance": "determinantal push-forward rule",
        "conventions": convention_report(),
    }
    if not pushed.is_zero() and pushed.is_homogeneous():
        vec = schur_decompose(pushed)
        payload["schur_coordinates"] = [
            [list(p.parts), str(Fraction(c))] for p, c in vec.items()
        ]
    if args.json:
        payload["terms"] = pushed.to_json()
    _emit(payload, args.json)
    return 0


def cmd_schur_decompose(args):
    _require_positive("--rank", args.rank)
    rho = DimensionSequence((0, args.rank))
    expr = parse(args.expr)
    expanded = expand_expression(expr, rho)
    poly = pushforward_dp(expanded, rho)
    vec = schur_decompose(poly)
    payload = {
        "rank": args.rank,
        "expr": args.expr,
        "degree": vec.degree,
        "coordinates": [[list(p.parts), str(Fraction(c))] for p, c in vec.items()],
    }
    _emit(payload, args.json)
    return 0


def cmd_cone(args):
    _require_positive("--grid", args.grid)
    fams = builtin_families()
    names = args.family.split(",")
    unknown = [n for n in names if n not in fams]
    if unknown:
        raise SystemExit(f"unknown families {unknown}; available: {sorted(fams)}")
    hull = ray_hull_2d([fams[n] for n in names], denom=args.grid)
    payload = {
        "families": names,
        "grid_denominator": args.grid,
        "hull_lo": list(hull.lo),
        "hull_hi": list(hull.hi),
        "rays_sampled": len(hull.rays),
    }
    exit_code = 0
    if args.target:
        target = _parse_ints(args.target, "--target", 2)
        inside, margin = cone_membership_2d(target, hull)
        payload["target"] = list(target)
        payload["inside_sampled_hull"] = inside
        payload["margin"] = str(margin)
        payload["note"] = (
            "the sampled hull is an inner approximation; non-membership is "
            "relative to this grid"
        )
    _emit(payload, args.json)
    return exit_code


def cmd_curvature(args):
    rho = _parse_rho(args.rho)
    ell, l = _parse_ints(args.spec, "--spec", 2)
    spec = UniversalBundleSpec(rho, ell, l)
    with open(args.tensor) as fh:
        C = CurvatureTensor.from_json(json.load(fh))
    if C.r != rho.r:
        raise SystemExit(f"the tensor has rank {C.r}, but --rho needs r = {rho.r}")
    chart = FlagChart(rho, C.n)
    point = (
        ChartPoint(_complex_list(args.point))
        if args.point
        else ChartPoint.center(chart)
    )
    exact = curvature_center(spec, C)
    try:
        fd, rep = curvature_at(spec, C, point, with_report=True)
    except ArithmeticError as exc:
        raise SystemExit(str(exc)) from None
    diff = 0.0
    for b in range(spec.rank):
        for a in range(spec.rank):
            diff = max(diff, (exact.entries[b][a] - fd.entries[b][a]).norm())
    payload = {
        "rho": rho.to_json(),
        "spec": [ell, l],
        "rank": spec.rank,
        "hermitian_defect": rep["hermitian_defect"],
        "max_center_formula_deviation": diff,
        "note": "center formula applies at zeta = 0 only",
        "entries": {
            f"({b + 1},{a + 1})": repr(fd.entries[b][a])
            for b in range(spec.rank)
            for a in range(spec.rank)
        },
    }
    _emit(payload, args.json)
    return 0


def _complex_list(text):
    vals = []
    for piece in text.split(","):
        vals.append(complex(piece))
    return vals


STOCHASTIC_SUITES = {"gysin-numeric", "positivity"}


def cmd_verify(args):
    if args.suite not in STOCHASTIC_SUITES and (args.seed, args.samples) != (None, None):
        raise SystemExit(f"suite {args.suite!r} is not stochastic; it takes no --seed or --samples")
    if (
        os.environ.get("FLAGFORMS_CI")
        and args.suite in STOCHASTIC_SUITES
        and args.seed is None
    ):
        raise SystemExit(
            f"suite {args.suite!r} is stochastic; --seed is mandatory in CI mode"
        )
    kwargs = {}
    if args.seed is not None:
        if args.seed < 0:
            raise SystemExit(f"--seed must be a non-negative integer, got {args.seed}")
        if args.seed > MAX_SEED.get(args.suite, args.seed):
            raise SystemExit(f"--seed of suite {args.suite!r} must be at most {MAX_SEED[args.suite]}, got {args.seed}")
        kwargs["seed"] = args.seed
    if args.samples is not None:
        _require_positive("--samples", args.samples)
        if args.samples < 2:
            raise SystemExit(f"--samples must be at least 2, got {args.samples}")
        kwargs["samples"] = args.samples
    checks = run_suite(args.suite, **kwargs)
    return _checks_report(checks, args.json)


def cmd_examples_paper(args):
    return _checks_report(rank4_identity_checks(), args.json)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="flagforms",
        description="characteristic-form calculus on flag bundles",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON reports")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", help="Schur polynomial of a partition")
    p.add_argument("--sigma", required=True, help="comma-separated parts")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("segre", help="Segre polynomials up to a degree")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-deg", type=int, default=4)
    p.set_defaults(func=cmd_segre)

    p = sub.add_parser("pushforward", help="push an expression down to the base")
    p.add_argument("--rho", required=True, help="dimension sequence, e.g. 0,1,4")
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser(
        "schur-decompose", help="Schur coordinates of a polynomial in c_j(E)"
    )
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_schur_decompose)

    p = sub.add_parser("cone", help="sampled 2D cone hulls and membership")
    p.add_argument("--family", required=True, help="comma-separated dataset names")
    p.add_argument("--target", help="exact 2-vector, e.g. 1,0")
    p.add_argument("--grid", type=int, default=64, help="grid denominator")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("curvature", help="curvature of a universal bundle")
    p.add_argument("--rho", required=True)
    p.add_argument("--spec", required=True, help="ell,l filtration indices")
    p.add_argument("--tensor", required=True, help="curvature tensor JSON file")
    p.add_argument("--point", help="comma-separated complex fiber coordinates")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "examples-paper", help="reproduce the built-in rank-4 identities"
    )
    p.set_defaults(func=cmd_examples_paper)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return 2
        raise
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
