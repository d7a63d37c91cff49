"""Command line front end.  One JSON document per invocation.

Every subcommand prints a single schema-versioned JSON object ("schema":
"fuchskit/1") and exits 0.  Domain failures print a structured error
object and exit 1; bad flags or unreadable input exit 2 with usage text.
Output is deterministic: keys are sorted and no timestamps are emitted.
"""

import argparse
import json
import sys
from pathlib import Path

from .algebra import AlgebraError, scalar
from .connection import (
    build_companion,
    bundle_type,
    companion_rigidity_check,
    exponent_data,
    genericity_check,
)
from .cyclic import find_cyclic, roundtrip_check
from .frobenius import (
    annihilator_from_solutions,
    apparent_check,
    frobenius_oracle,
    special_apparent_check,
)
from .moduli import (
    build_constraints,
    dimensions,
    gen_vandermonde,
    hodge_parameters,
    vdm_closed_form,
    verify_rank,
)
from .operator import DomainError, parse_operator, validate_fuchsian

SCHEMA = "fuchskit/1"


def _read_doc(raw: str, parser: argparse.ArgumentParser):
    """Accept a file path, '-' for stdin, or inline JSON text."""
    s = raw.strip()
    try:
        if s.startswith("{") or s.startswith("["):
            return json.loads(raw)
        if s == "-":
            return json.loads(sys.stdin.read())
        return json.loads(Path(raw).read_text())
    except FileNotFoundError:
        parser.error(f"input file not found: {raw}")
    except json.JSONDecodeError as exc:
        parser.error(f"input is not valid JSON: {exc}")


def _operator_arg(args, parser):
    if args.input is None:
        parser.error("this subcommand requires --input")
    return parse_operator(_read_doc(args.input, parser))


def _scalar_arg(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = text
    return scalar(doc)


def _json_list(text: str, parser, flag: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        parser.error(f"{flag} must be a JSON array: {exc}")
    if not isinstance(doc, list):
        parser.error(f"{flag} must be a JSON array")
    return doc


# --- subcommand bodies -----------------------------------------------------


def _cmd_validate(args, parser):
    op = _operator_arg(args, parser)
    report = validate_fuchsian(op)
    return {"ok": report.ok, "report": report.to_json(),
            "operator": op.to_json()}


def _cmd_companion(args, parser):
    op = _operator_arg(args, parser)
    conn = build_companion(op)
    out = {"connection": conn.to_json()}
    if not op.num_apparent:  # splitting type is only defined without them
        out["bundle_type"] = bundle_type(op).to_json()
    if args.against is not None:
        other = parse_operator(_read_doc(args.against, parser))
        out["rigidity"] = companion_rigidity_check(op, other).to_json()
    return out


def _cmd_exponents(args, parser):
    op = _operator_arg(args, parser)
    conn = build_companion(op)
    wanted = list(conn.pole_points) + ["infinity"]
    if args.point is not None:
        wanted = [args.point if args.point.lower() in ("infinity", "inf", "oo")
                  else _scalar_arg(args.point)]
    return {"points": [exponent_data(conn, p).to_json() for p in wanted]}


def _cmd_genericity(args, parser):
    if args.exponents is not None:
        rows = _json_list(args.exponents, parser, "--exponents")
    else:
        if args.input is None:
            parser.error("genericity needs --exponents or --input")
        doc = _read_doc(args.input, parser)
        rows = doc.get("exponents") if isinstance(doc, dict) else doc
        if not isinstance(rows, list):
            parser.error("input must be a JSON array of exponent rows "
                         "or an object with an \"exponents\" key")
    return {"genericity": genericity_check(rows).to_json()}


def _cmd_apparent(args, parser):
    op = _operator_arg(args, parser)
    verdict = apparent_check(op, _scalar_arg(args.point), run_oracle=args.oracle)
    return {"point": _scalar_arg(args.point).to_json(), **verdict.to_json()}


def _cmd_special_apparent(args, parser):
    op = _operator_arg(args, parser)
    verdict = special_apparent_check(op, _scalar_arg(args.point))
    return {"point": _scalar_arg(args.point).to_json(), **verdict.to_json()}


def _cmd_oracle(args, parser):
    op = _operator_arg(args, parser)
    verdict = frobenius_oracle(op, _scalar_arg(args.point),
                               truncation=args.truncation)
    return {"oracle": verdict.to_json()}


def _cmd_annihilate(args, parser):
    doc = _read_doc(args.input, parser) if args.input else None
    if not isinstance(doc, dict) or "basis" not in doc:
        parser.error("annihilate expects --input with {\"basis\": [[...], ...]}")
    op = annihilator_from_solutions(doc["basis"])
    return {"operator": op.to_json(),
            "validation": validate_fuchsian(op).to_json()}


def _cmd_cyclic(args, parser):
    op = _operator_arg(args, parser)
    result = find_cyclic(build_companion(op))
    return {"cyclic": result.to_json(), "roundtrip": roundtrip_check(op).to_json()}


def _cmd_dimensions(args, parser):
    report = dimensions(args.m, args.n, args.apparent)
    out = report.to_json()
    # short aliases for the headline numbers
    out["e"] = report.net_dimension
    out["c"] = report.doubled_dimension
    return out


def _cmd_constraints(args, parser):
    points = [_scalar_arg(json.dumps(p)) for p in
              _json_list(args.points, parser, "--points")]
    app = [_scalar_arg(json.dumps(p)) for p in
           _json_list(args.apparent_points, parser, "--apparent-points")]
    system = build_constraints(args.m, points, app)
    return {"system": system.to_json(), "rank": verify_rank(system).to_json()}


def _cmd_vandermonde(args, parser):
    points = [_scalar_arg(json.dumps(p)) for p in
              _json_list(args.points, parser, "--points")]
    plan = _json_list(args.plan, parser, "--plan")
    det = gen_vandermonde(points, plan).det()
    closed = vdm_closed_form(points, plan)
    return {"determinant": det.to_json(), "closed_form": closed.to_json(),
            "agree": det == closed}


def _cmd_hodge_params(args, parser):
    exps = []
    if args.exponents is not None:
        exps = [_scalar_arg(json.dumps(e)) for e in
                _json_list(args.exponents, parser, "--exponents")]
    return {"weights": hodge_parameters(args.m, args.n, exps).to_json()}


# The numeric commands import .monodromy (numpy and scipy) on first use, so
# the exact commands start without them.


def _cmd_monodromy(args, parser):
    from .monodromy import (
        anchored_monodromy,
        global_product,
        is_apparent_numeric,
        monodromy,
    )

    op = _operator_arg(args, parser)
    conn = build_companion(op)
    base = complex(args.base) if args.base is not None else None
    if args.point is None:
        g = global_product(conn, base_point=base,
                           rtol=args.rtol, atol=args.atol)
        return {"global": g.to_json()}
    point = _scalar_arg(args.point)
    if base is not None:
        res = anchored_monodromy(conn, point, base,
                                 radius=args.radius, rtol=args.rtol, atol=args.atol)
    else:
        res = monodromy(conn, point, radius=args.radius,
                        rtol=args.rtol, atol=args.atol)
    return {"monodromy": res.to_json(),
            "apparent_numeric": is_apparent_numeric(res.matrix).to_json()}


def _cmd_sweep(args, parser):
    from .monodromy import isomonodromy_sweep

    doc = _read_doc(args.input, parser) if args.input else None
    if not isinstance(doc, dict) or "operators" not in doc:
        parser.error("sweep expects --input with {\"operators\": [...]}")
    ops = [parse_operator(d) for d in doc["operators"]]
    point = doc.get("point")
    if args.point is not None:
        point = args.point
    if point is not None:
        point = _scalar_arg(point if isinstance(point, str) else json.dumps(point))
    sw = isomonodromy_sweep(ops, point=point, rtol=args.rtol, atol=args.atol)
    return {"sweep": sw.to_json()}


# --- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuchskit",
        description="Exact arithmetic for Fuchsian operators: validation, "
                    "companion connections, local exponents, apparency tests, "
                    "series oracle, cyclic vectors, moduli counts, and numeric "
                    "monodromy.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default="-",
                        help="output path, or - for standard output (default)")
    common.add_argument("--rtol", type=float, default=1e-11,
                        help="relative tolerance for numeric transport")
    common.add_argument("--atol", type=float, default=1e-13,
                        help="absolute tolerance for numeric transport")
    common.add_argument("--truncation", type=int, default=None,
                        help="series depth override where a subcommand expands")

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, fn, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(fn=fn)
        if needs_input:
            p.add_argument("--input", default=None,
                           help="operator document: path, '-', or inline JSON")
        return p

    add("validate", _cmd_validate, "check the infinity degree bounds")
    p = add("companion", _cmd_companion, "build the companion connection")
    p.add_argument("--against", default=None,
                   help="second operator document; also run the rigidity check")
    p = add("exponents", _cmd_exponents, "residue matrices and local exponents")
    p.add_argument("--point", default=None,
                   help="restrict to one point (finite scalar or 'infinity')")
    p = add("genericity", _cmd_genericity,
            "resonance and partial-sum integrality test on exponent rows")
    p.add_argument("--exponents", default=None,
                   help="inline JSON array of exponent rows, one row per point")
    p = add("apparent", _cmd_apparent, "decide apparency at a point")
    p.add_argument("--point", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the verdict with the series oracle")
    p = add("special-apparent", _cmd_special_apparent,
            "decide apparency for the special exponent ladder")
    p.add_argument("--point", required=True)
    p = add("oracle", _cmd_oracle, "series solutions and obstruction scan")
    p.add_argument("--point", required=True)
    add("annihilate", _cmd_annihilate,
        "smallest monic operator annihilating a polynomial basis")
    add("cyclic", _cmd_cyclic, "cyclic vector search and roundtrip report")
    p = add("dimensions", _cmd_dimensions,
            "parameter and condition counts for a family", needs_input=False)
    p.add_argument("--m", type=int, required=True, help="operator order")
    p.add_argument("--n", type=int, required=True, help="number of real points")
    p.add_argument("--apparent", type=int, default=0,
                   help="number of apparent points (net dimension ignores it)")
    p = add("constraints", _cmd_constraints,
            "assemble the coefficient constraint matrix and verify its rank",
            needs_input=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--points", required=True,
                   help="JSON array of real points")
    p.add_argument("--apparent-points", default="[]",
                   help="JSON array of apparent points")
    p = add("vandermonde", _cmd_vandermonde,
            "confluent block determinant against its closed form",
            needs_input=False)
    p.add_argument("--points", required=True, help="JSON array of points")
    p.add_argument("--plan", required=True,
                   help="JSON array of row counts per point")
    p = add("hodge-params", _cmd_hodge_params,
            "weight bookkeeping for an exponent list", needs_input=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exponents", default=None, help="JSON array of exponents")
    p = add("monodromy", _cmd_monodromy,
            "numeric loop transport; global product when no point is given")
    p.add_argument("--point", default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--base", default=None,
                   help="base point as a Python complex literal, e.g. '-2-3j'")
    p = add("sweep", _cmd_sweep, "characteristic-polynomial drift over a family")
    p.add_argument("--point", default=None)
    return parser


def _emit(doc: dict, output: str) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signalled usage (2) or --help (0)
        return int(exc.code or 0)
    try:
        payload = args.fn(args, parser)
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code or 0)
    except (DomainError, AlgebraError, ValueError) as exc:
        _emit({"schema": SCHEMA, "command": args.command,
               "error": {"type": type(exc).__name__, "message": str(exc)}},
              args.output)
        return 1
    doc = {"schema": SCHEMA, "command": args.command}
    doc.update(payload)
    _emit(doc, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
