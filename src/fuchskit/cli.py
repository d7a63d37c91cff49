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
    INFINITY_NAMES,
    build_companion,
    bundle_type,
    companion_rigidity_check,
    exponent_data,
    genericity_check,
)
from .cyclic import find_cyclic, roundtrip_report
from .frobenius import (
    MAX_TRUNCATION,
    annihilator_from_solutions,
    apparent_check,
    frobenius_oracle,
    special_apparent_check,
)
from .moduli import (
    MAX_JET_SIZE,
    build_constraints,
    dimensions,
    gen_vandermonde,
    hodge_parameters,
    vdm_closed_form,
    vdm_log10,
    verify_rank,
)
from .operator import (
    _TOO_DEEP,
    DomainError,
    json_array,
    parse_operator,
    validate_fuchsian,
)

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
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read input {raw}: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"input is not valid JSON: {exc}")
    except RecursionError:
        parser.error(f"input {_TOO_DEEP}")


def _operator_arg(args, parser):
    if args.input is None:
        parser.error("this subcommand requires --input")
    return parse_operator(_read_doc(args.input, parser))


def _scalar_arg(text: str):
    """A scalar from a flag: JSON text, or a bare fraction such as 1/2."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        doc = text
    return scalar(doc)


def _json_list(text: str, parser, flag: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        parser.error(f"{flag} must be a JSON array: {exc}")
    except RecursionError:
        parser.error(f"{flag} {_TOO_DEEP}")
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
        wanted = [args.point if args.point.lower() in INFINITY_NAMES
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
    point = _scalar_arg(args.point)
    verdict = apparent_check(op, point, run_oracle=args.oracle)
    return {"point": point.to_json(), **verdict.to_json()}


def _cmd_special_apparent(args, parser):
    op = _operator_arg(args, parser)
    point = _scalar_arg(args.point)
    verdict = special_apparent_check(op, point)
    return {"point": point.to_json(), **verdict.to_json()}


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
    return {"cyclic": result.to_json(),
            "roundtrip": roundtrip_report(op, result).to_json()}


def _cmd_dimensions(args, parser):
    report = dimensions(args.m, args.n, args.apparent)
    out = report.to_json()
    # short aliases for the headline numbers
    out["e"] = report.net_dimension
    out["c"] = report.doubled_dimension
    return out


def _cmd_constraints(args, parser):
    points = _json_list(args.points, parser, "--points")
    app = _json_list(args.apparent_points, parser, "--apparent-points")
    system = build_constraints(args.m, points, app)
    return {"system": system.to_json(), "rank": verify_rank(system).to_json()}


def _digit_limit() -> int:
    """The most digits Python converts an int to text with
    (sys.get_int_max_str_digits); 0, or a Python without the limit, means
    none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _unprintable(limit: int) -> DomainError:
    return DomainError(f"the result has a number of more than {limit} "
                       "digits, the output digit limit of Python's "
                       "int-to-text conversion")


def _check_printable(value) -> None:
    """DomainError when a numerator or denominator of the scalar value has
    more digits than the output digit limit."""
    limit = _digit_limit()
    if limit and any(abs(n) >= 10 ** limit for f in (value.re, value.im)
                     for n in (f.numerator, f.denominator)):
        raise _unprintable(limit)


def _cmd_vandermonde(args, parser):
    points = _json_list(args.points, parser, "--points")
    plan = _json_list(args.plan, parser, "--plan")
    # A nonzero value with parts of at most `limit` digits lies between
    # 10^-limit and 2^(1/2) 10^limit in modulus, so this refuses nothing
    # printable, and it runs before the closed form is multiplied out.
    limit, size = _digit_limit(), vdm_log10(points, plan)
    if limit and size is not None and abs(size) > limit + 1:
        raise _unprintable(limit)
    closed = vdm_closed_form(points, plan)
    _check_printable(closed)  # before the elimination, the slow part
    det = gen_vandermonde(points, plan).det()
    _check_printable(det)
    return {"determinant": det.to_json(), "closed_form": closed.to_json(),
            "agree": det == closed}


def _cmd_hodge_params(args, parser):
    exps = []
    if args.exponents is not None:
        exps = _json_list(args.exponents, parser, "--exponents")
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
    if args.point is None:
        g = global_product(conn, base_point=args.base,
                           rtol=args.rtol, atol=args.atol)
        return {"global": g.to_json()}
    point = _scalar_arg(args.point)
    if args.base is not None:
        res = anchored_monodromy(conn, point, args.base,
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
    ops = [parse_operator(d) for d in json_array(doc["operators"], "operators")]
    point = doc.get("point") if args.point is None else args.point
    if point is not None:
        point = _scalar_arg(point) if isinstance(point, str) else scalar(point)
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
    numeric = argparse.ArgumentParser(add_help=False)
    numeric.add_argument("--rtol", type=float, default=1e-11,
                         help="relative tolerance for numeric transport")
    numeric.add_argument("--atol", type=float, default=1e-13,
                         help="absolute tolerance for numeric transport")

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, fn, help_text, needs_input=True, parents=()):
        p = sub.add_parser(name, help=help_text, parents=[common, *parents])
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
    p.add_argument("--truncation", type=int, default=None,
                   help=f"series depth, at most {MAX_TRUNCATION}; raised to "
                        "cover every resonance")
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
            "constraint blocks, one per numerator, and their exact rank",
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
                   help="JSON array of row counts per point, summing to "
                        f"at most {MAX_JET_SIZE}")
    p = add("hodge-params", _cmd_hodge_params,
            "weight bookkeeping for an exponent list", needs_input=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exponents", default=None, help="JSON array of exponents")
    p = add("monodromy", _cmd_monodromy,
            "numeric loop transport; global product when no point is given",
            parents=[numeric])
    p.add_argument("--point", default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--base", type=complex, default=None,
                   help="base point as a Python complex literal, e.g. '-2-3j'")
    p = add("sweep", _cmd_sweep, "characteristic-polynomial drift over a family",
            parents=[numeric])
    p.add_argument("--point", default=None)
    return parser


def _emit(doc: dict, output: str, parser) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output == "-":
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text)
    except OSError as exc:
        parser.error(f"cannot write output {output}: {exc}")


def _join_dash_values(argv: list, parser) -> list:
    """`--point -1/2` as `--point=-1/2`: argparse takes a value that starts
    with '-' for an option name.  Options match by name or prefix, as there."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for p in sub.choices.values() for a in p._actions]
    takes = [s for a in actions if a.nargs is None for s in a.option_strings]
    names = [s for a in actions for s in a.option_strings]
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (len(prev) > 2 and prev[:2] == "--" and any(s.startswith(prev) for s in takes)
                and tok[:1] == "-" and not any(s.startswith(tok) for s in names)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_dash_values(sys.argv[1:] if argv is None else list(argv), parser)
    try:  # argparse and parser.error signal usage (2) or --help (0)
        args = parser.parse_args(argv)
        code, doc = 0, {"schema": SCHEMA, "command": args.command}
        try:
            doc.update(args.fn(args, parser))
        except (DomainError, AlgebraError, ValueError) as exc:
            code, doc["error"] = 1, {"type": type(exc).__name__, "message": str(exc)}
        _emit(doc, args.output, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    return code


if __name__ == "__main__":
    sys.exit(main())
