"""Command line front end.  One JSON document per invocation.

Every subcommand prints a single schema-versioned JSON object ("schema":
"fuchskit/1") and exits 0.  Domain failures print a structured error
object and exit 1; bad flags or unreadable input exit 2 with usage text.
Output is deterministic: keys are sorted and no timestamps are emitted.
"""

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from .algebra import MAX_DIGITS, AlgebraError, check_digits, scalar
from .operator import (
    _ATOL,
    _RTOL,
    _TOO_DEEP,
    MAX_JET_SIZE,
    MAX_TRUNCATION,
    DomainError,
    json_array,
    parse_operator,
    validate_fuchsian,
)

SCHEMA = "fuchskit/1"


def _decode(text: str, prefix: str):
    """json.loads, with each failure an argparse type error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"{prefix}is not valid JSON: {exc}")
    except RecursionError:
        raise argparse.ArgumentTypeError(f"{prefix}{_TOO_DEEP}")
    except ValueError as exc:  # a number past Python's int-from-text limit
        raise argparse.ArgumentTypeError(f"{prefix}cannot be decoded: {exc}")


def _document(text: str):
    """Type of --input and --against: a path, '-' for stdin, or inline JSON."""
    if text.strip().startswith(("{", "[")):
        return _decode(text, "input ")
    try:
        raw = sys.stdin.read() if text.strip() == "-" else Path(text).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read input {text}: {exc}")
    return _decode(raw, "input ")


def _object_with(key: str, text: str) -> dict:
    """Type of an --input: an object with the one key `key` (via partial)."""
    doc = _document(text)
    if not isinstance(doc, dict) or set(doc) != {key}:
        raise argparse.ArgumentTypeError(f'expected an object with the one key "{key}"')
    return doc


def _exponent_rows(text: str) -> list:
    """Type of genericity's --input: the rows, or {"exponents": rows}."""
    doc = _document(text)
    rows = doc.get("exponents") if isinstance(doc, dict) else doc
    if not isinstance(rows, list):
        raise argparse.ArgumentTypeError('expected rows or {"exponents": rows}')
    return rows


def _array(text: str) -> list:
    """Type of the array flags: inline JSON text of an array."""
    doc = _decode(text, "")
    if not isinstance(doc, list):
        raise argparse.ArgumentTypeError("must be a JSON array")
    return doc


def _scalar_arg(text: str):
    """A scalar from a flag: JSON text, or a bare fraction such as 1/2.  A
    run of more than MAX_DIGITS digits is refused, as in the text form."""
    try:
        doc = json.loads(check_digits(text, "point"))
    except (json.JSONDecodeError, RecursionError):
        doc = text
    return scalar(doc)


# --- subcommand bodies -----------------------------------------------------

# Each command imports what it calls on first use, so a cold call loads only
# the modules it runs; only the numeric commands' .monodromy loads numpy,
# and they parse every input before they import it.


def _cmd_validate(args):
    op = parse_operator(args.input)
    report = validate_fuchsian(op)
    return {"ok": report.ok, "report": report.to_json(),
            "operator": op.to_json()}


def _cmd_companion(args):
    from .connection import build_companion, bundle_type, companion_rigidity_check

    op = parse_operator(args.input)
    conn = build_companion(op)
    out = {"connection": conn.to_json()}
    if not op.num_apparent:  # splitting type is only defined without them
        out["bundle_type"] = bundle_type(op).to_json()
    if args.against is not None:
        other = parse_operator(args.against)
        out["rigidity"] = companion_rigidity_check(op, other).to_json()
    return out


def _cmd_exponents(args):
    from .connection import INFINITY_NAMES, build_companion, exponent_data

    op = parse_operator(args.input)
    conn = build_companion(op)
    wanted = list(conn.pole_points) + ["infinity"]
    if args.point is not None:
        wanted = [args.point if args.point.lower() in INFINITY_NAMES
                  else _scalar_arg(args.point)]
    return {"points": [exponent_data(conn, p).to_json() for p in wanted]}


def _cmd_genericity(args):
    from .connection import genericity_check

    return {"genericity": genericity_check(args.rows).to_json()}


def _cmd_apparent(args):
    from .frobenius import apparent_check

    op = parse_operator(args.input)
    point = _scalar_arg(args.point)
    verdict = apparent_check(op, point, run_oracle=args.oracle)
    return {"point": point.to_json(), **verdict.to_json()}


def _cmd_special_apparent(args):
    from .frobenius import special_apparent_check

    op = parse_operator(args.input)
    point = _scalar_arg(args.point)
    verdict = special_apparent_check(op, point)
    return {"point": point.to_json(), **verdict.to_json()}


def _cmd_oracle(args):
    from .frobenius import frobenius_oracle

    op = parse_operator(args.input)
    verdict = frobenius_oracle(op, _scalar_arg(args.point),
                               truncation=args.truncation)
    return {"oracle": verdict.to_json()}


def _cmd_annihilate(args):
    from .frobenius import annihilator_from_solutions

    op = annihilator_from_solutions(args.input["basis"])
    return {"operator": op.to_json(),
            "validation": validate_fuchsian(op).to_json()}


def _cmd_cyclic(args):
    from .connection import build_companion
    from .cyclic import find_cyclic, roundtrip_report

    op = parse_operator(args.input)
    result = find_cyclic(build_companion(op))
    return {"cyclic": result.to_json(),
            "roundtrip": roundtrip_report(op, result).to_json()}


def _cmd_dimensions(args):
    from .moduli import dimensions

    report = dimensions(args.m, args.n, args.apparent)
    out = report.to_json()
    # short aliases for the headline numbers
    out["e"] = report.net_dimension
    out["c"] = report.doubled_dimension
    return out


def _cmd_constraints(args):
    from .moduli import build_constraints, verify_rank

    system = build_constraints(args.m, args.points, args.apparent_points)
    return {"system": system.to_json(), "rank": verify_rank(system).to_json()}


_UNPRINTABLE = (f"the result has a number of more than {MAX_DIGITS} digits, "
                "the bound on the numbers that fuchskit reads and prints")


def _check_printable(value) -> None:
    """DomainError when a part of the scalar value's document has more than
    MAX_DIGITS digits; a real value prints its canonical a and d, no gcd."""
    parts = ((value.a, value.d) if not value.b else
             (n for f in (value.re, value.im) for n in (f.numerator, f.denominator)))
    if any(abs(n) >= 10 ** MAX_DIGITS for n in parts):
        raise DomainError(_UNPRINTABLE)


def _cmd_vandermonde(args):
    from .moduli import gen_vandermonde, vdm_closed_form, vdm_log10

    # A nonzero value with parts of at most MAX_DIGITS digits lies between
    # 10^-MAX_DIGITS and 2^(1/2) 10^MAX_DIGITS in modulus, so this refuses
    # nothing printable, and it runs before the closed form is multiplied out.
    size = vdm_log10(args.points, args.plan)
    if size is not None and abs(size) > MAX_DIGITS + 1:
        raise DomainError(_UNPRINTABLE)
    closed = vdm_closed_form(args.points, args.plan)
    _check_printable(closed)  # before the elimination, the slow part
    det = gen_vandermonde(args.points, args.plan).det()
    _check_printable(det)
    return {"determinant": det.to_json(), "closed_form": closed.to_json(),
            "agree": det == closed}


def _cmd_monodromy(args):
    if args.radius is not None and args.point is None:
        raise argparse.ArgumentError(None, "--radius needs --point")
    from .connection import build_companion

    conn = build_companion(parse_operator(args.input))
    point = None if args.point is None else _scalar_arg(args.point)
    from .monodromy import (
        anchored_monodromy,
        global_product,
        is_apparent_numeric,
        monodromy,
    )

    if point is None:
        g = global_product(conn, base_point=args.base,
                           rtol=args.rtol, atol=args.atol)
        return {"global": g.to_json()}
    if args.base is not None:
        res = anchored_monodromy(conn, point, args.base,
                                 radius=args.radius, rtol=args.rtol, atol=args.atol)
    else:
        res = monodromy(conn, point, radius=args.radius,
                        rtol=args.rtol, atol=args.atol)
    return {"monodromy": res.to_json(),
            "apparent_numeric": is_apparent_numeric(res.matrix).to_json()}


def _cmd_sweep(args):
    ops = [parse_operator(d) for d in json_array(args.input["operators"], "operators")]
    from .monodromy import isomonodromy_sweep

    return {"sweep": isomonodromy_sweep(ops, rtol=args.rtol, atol=args.atol).to_json()}


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
    numeric.add_argument("--rtol", type=float, default=_RTOL,
                         help="relative tolerance for numeric transport")
    numeric.add_argument("--atol", type=float, default=_ATOL,
                         help="absolute tolerance for numeric transport")

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, fn, help_text, input_type=_document, parents=()):
        p = sub.add_parser(name, help=help_text, parents=[common, *parents])
        p.set_defaults(fn=fn)
        if input_type:
            p.add_argument("--input", type=input_type, required=True,
                           help="input document: path, '-', or inline JSON")
        return p

    add("validate", _cmd_validate, "check the infinity degree bounds")
    p = add("companion", _cmd_companion, "build the companion connection")
    p.add_argument("--against", type=_document, default=None,
                   help="second operator document; also run the rigidity check")
    p = add("exponents", _cmd_exponents, "residue matrices and local exponents")
    p.add_argument("--point", default=None,
                   help="restrict to one point (finite scalar or 'infinity')")
    p = add("genericity", _cmd_genericity,
            "resonance and partial-sum integrality test on exponent rows",
            input_type=None)
    rows = p.add_mutually_exclusive_group(required=True)
    rows.add_argument("--exponents", dest="rows", type=_array,
                      help="inline JSON array of exponent rows, one row per point")
    rows.add_argument("--input", dest="rows", type=_exponent_rows,
                      help='path, "-" or inline JSON of the rows or {"exponents": rows}')
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
        "smallest monic operator annihilating a polynomial basis",
        input_type=partial(_object_with, "basis"))
    add("cyclic", _cmd_cyclic, "cyclic vector search and roundtrip report")
    p = add("dimensions", _cmd_dimensions,
            "parameter and condition counts for a family", input_type=None)
    p.add_argument("--m", type=int, required=True, help="operator order")
    p.add_argument("--n", type=int, required=True, help="number of real points")
    p.add_argument("--apparent", type=int, default=0,
                   help="number of apparent points (net dimension ignores it)")
    p = add("constraints", _cmd_constraints,
            "constraint blocks, one per numerator, and their exact rank",
            input_type=None)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--points", type=_array, required=True,
                   help="JSON array of real points")
    p.add_argument("--apparent-points", type=_array, default=[],
                   help="JSON array of apparent points")
    p = add("vandermonde", _cmd_vandermonde,
            "confluent block determinant against its closed form",
            input_type=None)
    p.add_argument("--points", type=_array, required=True, help="JSON array of points")
    p.add_argument("--plan", type=_array, required=True,
                   help="JSON array of row counts per point, summing to "
                        f"at most {MAX_JET_SIZE}")
    p = add("monodromy", _cmd_monodromy,
            "numeric loop transport; global product when no point is given",
            parents=[numeric])
    p.add_argument("--point", default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--base", type=complex, default=None,
                   help="base point as a Python complex literal, e.g. '-2-3j'")
    add("sweep", _cmd_sweep, "drift of the loops' trace words over a family",
        input_type=partial(_object_with, "operators"), parents=[numeric])
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
            doc.update(args.fn(args))
        except (DomainError, AlgebraError, ValueError) as exc:
            code, doc["error"] = 1, {"type": type(exc).__name__, "message": str(exc)}
        except argparse.ArgumentError as exc:  # an input the command would drop
            parser.error(f"{args.command}: {exc}")
        _emit(doc, args.output, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    return code


if __name__ == "__main__":
    sys.exit(main())
