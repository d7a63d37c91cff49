"""The four benchmark workloads.

Each workload is a fixed cycle of input classes.  Op i draws its input for
class ``cycle[i % len(cycle)]`` from a random stream seeded by the workload
name and the seed, so a seed fixes every input; runs cover whole cycles so
the class mix is the same in every run.  No input repeats within a run.

A workload factory imports only the fuchskit modules its ops need, so the
worker's set-up time shows the import cost that workload really pays.  Ops
call library functions through their modules (``frobenius.apparent_check``),
so the tracer's module bindings see every call.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An op returned, but its result is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple           # input classes; a run is a whole number of cycles
    cycle_s: float         # rough seconds per cycle at the baseline
    make: Callable         # (rng, tag, index) -> input, untimed
    run: Callable          # (input, traced) -> output, the timed op; only
                           # child-process ops need to know if traced
    check: Callable        # (input, output) -> (digest doc, label)
    labels: frozenset = field(default_factory=frozenset)  # must all occur
    in_children: bool = False  # ops run in child processes


def traced_op_count(wl: Workload, seconds: float) -> int:
    """Ops in the traced set: whole cycles filling about 30% of a run at
    the baseline, at least one cycle.  The same set feeds exact_digest."""
    return len(wl.cycle) * max(1, round(0.3 * seconds / wl.cycle_s))


def _nonzero_points(rng, count, gaussian=False):
    from fuchskit.sampling import distinct_points
    while True:
        pts = distinct_points(rng, count, gaussian=gaussian)
        if not any(p.is_zero() for p in pts):
            return pts


def _monomial_annihilator(rng, degrees, gaussian=False):
    """Annihilator of {f z^d : d in degrees} for a random f with roots in
    Q(i).  Its Wronskian is f^m times a monomial, so it always splits, and
    the exponents at 0 are exactly the degrees: apparent by construction."""
    from fuchskit.algebra import Polynomial, scalar
    from fuchskit.frobenius import annihilator_from_solutions
    f = Polynomial.from_roots(_nonzero_points(rng, rng.choice((1, 2)), gaussian))
    basis = [f * Polynomial.from_list([scalar(0)] * d + [scalar(1)])
             for d in sorted(degrees)]
    return annihilator_from_solutions(basis)


# ---------------------------------------------------------------------------
# apparency: exact apparency verdicts at a point with integer exponents


def apparency() -> Workload:
    from fuchskit import frobenius
    from fuchskit.algebra import scalar
    from fuchskit.sampling import prescribed_exponent_operator

    # exponent sets at 0, by order; spreads run from 2 to 6
    ladder = {2: ((2, 0), (3, 0), (4, 1), (4, 0)),
              3: ((4, 2, 0), (5, 3, 1), (4, 3, 0)),
              4: ((5, 3, 1, 0), (5, 4, 2, 0))}
    wide = {2: ((5, 0), (6, 0), (6, 1)),
            3: ((5, 2, 0), (6, 1, 0), (6, 4, 0))}

    def make(rng, tag, index):
        kind, m, shape = tag
        if shape == "special":
            exps = tuple(e.as_int() for e in frobenius.special_exponents(m))
        else:
            exps = rng.choice((wide if shape == "wide" else ladder)[m])
        if kind == "annihilator":
            op = _monomial_annihilator(rng, exps, gaussian=rng.random() < 0.3)
        else:
            op = prescribed_exponent_operator(
                rng, m, exps, extra_points=_nonzero_points(rng, 1))
        return kind, op, exps

    def run(inp, traced=False):
        _, op, _ = inp
        verdict = frobenius.apparent_check(op, 0)
        oracle = frobenius.frobenius_oracle(op, 0)
        special = (frobenius.special_apparent_check(op, 0)
                   if verdict.exponents == frobenius.special_exponents(op.order)
                   else None)
        return verdict, oracle, special

    def check(inp, out):
        kind, op, exps = inp
        verdict, oracle, special = out
        want = tuple(scalar(e) for e in sorted(exps, reverse=True))
        require(verdict.exponents == want, "exponents at 0 differ from the construction")
        require(oracle.is_apparent == verdict.is_apparent,
                "determinant route and series oracle disagree")
        require(kind == "prescribed" or verdict.is_apparent,
                "annihilator of a polynomial basis judged not apparent")
        if want == frobenius.special_exponents(op.order):
            require(special is not None
                    and special.is_apparent == verdict.is_apparent,
                    "special-ladder test disagrees with the determinant route")
        doc = [verdict.to_json(), oracle.to_json(),
               special.to_json() if special else None]
        return doc, verdict.is_apparent

    cycle = (("annihilator", 2, "ladder"), ("annihilator", 3, "special"),
             ("annihilator", 4, "special"), ("annihilator", 3, "wide"),
             ("prescribed", 2, "ladder"), ("prescribed", 2, "wide"),
             ("prescribed", 3, "special"), ("prescribed", 3, "ladder"),
             ("prescribed", 4, "special"), ("prescribed", 4, "ladder"))
    return Workload("apparency", cycle, 1.3, make, run, check,
                    labels=frozenset((True, False)))


# ---------------------------------------------------------------------------
# structure: companion form, exponents, cyclic roundtrip, ranks, genericity


def _genericity_table(rng, m, passes):
    """Four points of m exponents each, with distinct prime denominators
    (23, 7, 11, 13) and distinct nonzero residues per point, so no two
    exponents at a point differ by an integer.  A total over one k-selection
    per point is an integer only if every point's partial numerator sum is
    0 mod its prime.  Passing tables keep the first point's residues below
    23 in total, so its partial sums never are; failing tables pair the
    last two residues at every point to 0 mod the prime."""
    rows = []
    for j, p in enumerate((23, 7, 11, 13)):
        guard = passes and j == 0
        while True:
            res = rng.sample(range(1, 9 if guard else p), m)
            if guard and sum(res) >= p:
                continue
            if not passes:
                res[-1] = p - res[-2]
                if len(set(res)) < m:
                    continue
            break
        rows.append([Fraction(r + p * rng.randint(-2, 2), p) for r in res])
    return rows


def structure() -> Workload:
    from fuchskit import connection, cyclic, moduli
    from fuchskit.algebra import scalar
    from fuchskit.sampling import random_operator

    def make(rng, tag, index):
        if tag[0] == "genericity":
            return tag, _genericity_table(rng, tag[1], tag[2])
        _, m, n, N = tag
        return tag, random_operator(rng, m, n, N, gaussian=index % 5 == 0)

    def run(inp, traced=False):
        tag, arg = inp
        if tag[0] == "genericity":
            return connection.genericity_check(arg)
        op = arg
        conn = connection.build_companion(op)
        data = [connection.exponent_data(conn, p) for p in conn.pole_points]
        data.append(connection.exponent_data(conn, "infinity"))
        trip = None if op.apparent_points else cyclic.roundtrip_check(op)
        system = moduli.build_constraints(op.order, op.real_points,
                                          op.apparent_points)
        return conn, data, trip, system, moduli.verify_rank(system)

    def check(inp, out):
        tag, arg = inp
        if tag[0] == "genericity":
            require(out.passes == tag[2], "genericity verdict differs from the construction")
            if not out.passes:
                require(out.witness["kind"] == "integer-sum"
                        and out.witness["total"].is_integer(),
                        "genericity witness is not an integer total")
            return out.to_json(), None
        _, m, n, N = tag
        conn, data, trip, system, rank = out
        total = scalar(0)
        for d in data:
            total = total + d.exponent_matrix.trace()
        require(total == scalar((n + N - 1) * m * (m - 1)) / scalar(2),
                "exponent traces break the trace identity")
        require(trip is None or trip.ok, "cyclic roundtrip did not reproduce the operator")
        require(rank.ok and rank.total_rank == system.expected_rank,
                "constraint rank differs from the expected rank")
        doc = [conn.to_json(), [d.to_json() for d in data],
               trip.to_json() if trip else None, system.to_json(), rank.to_json()]
        return doc, None

    cycle = tuple(("operator", m, n, N)
                  for m in (1, 2, 3) for n in (2, 3, 4) for N in (0, 1))
    cycle += (("genericity", 4, True), ("genericity", 5, True),
              ("genericity", 5, False))
    return Workload("structure", cycle, 3.6, make, run, check)


# ---------------------------------------------------------------------------
# monodromy: numeric transport


def monodromy() -> Workload:
    from fuchskit import connection, frobenius
    from fuchskit import monodromy as numeric
    from fuchskit.sampling import distinct_points, second_order_with_exponents

    def fraction(rng, dens):
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(dens))

    # exponents at 0 of the annihilator loops, by order
    degrees = {2: ((0, 2), (0, 3), (1, 3)), 3: ((0, 1, 3), (0, 2, 3))}

    def make(rng, tag, index):
        kind, shape = tag[:2]
        if kind == "global":
            # exponents q with 0 < |q| < 1, the range in which
            # second_order_with_exponents keeps the local monodromy well
            # conditioned; integer or larger ones lose the closure to
            # cancellation in float64 (see perfbench/README.md)
            pts = distinct_points(rng, shape)
            qs = [fraction(rng, (4, 5, 7)) for _ in pts]
            op = second_order_with_exponents(
                pts, qs, quadratic_part=fraction(rng, (1, 2, 4, 8)))
            return tag, op, None
        if shape == "annihilator":
            op = _monomial_annihilator(rng, rng.choice(degrees[tag[2]]))
        else:
            far = _nonzero_points(rng, 1)[0]
            q = fraction(rng, (4, 5, 7))
            op = second_order_with_exponents(
                (0, far), (rng.choice((2, 3)), q),
                quadratic_part=fraction(rng, (1, 2, 4)))
        # the exact verdict the numeric one must match; untimed
        return tag, op, frobenius.apparent_check(op, 0).is_apparent

    def run(inp, traced=False):
        tag, op, _ = inp
        conn = connection.build_companion(op)
        if tag[0] == "global":
            return numeric.global_product(conn)
        return numeric.is_apparent_numeric(numeric.monodromy(conn, 0).matrix)

    def check(inp, out):
        tag, _, exact = inp
        if tag[0] == "global":
            # criterion 10's closure tolerance, judged against the scale
            require(out.closure_error <= 1e-5 * out.scale,
                    f"closure error {out.closure_error:.3g} at scale {out.scale:.3g}")
        else:
            require(out.ok == exact, "numeric apparency differs from apparent_check")
        return None, None

    # global products are 4 ops of 7; three poles twice puts p75, the
    # tail, inside one class of ops rather than between two
    cycle = (("global", 2), ("global", 3), ("global", 4), ("global", 3),
             ("loop", "annihilator", 2), ("loop", "annihilator", 3),
             ("loop", "blocked"))
    return Workload("monodromy", cycle, 2.1, make, run, check)


# ---------------------------------------------------------------------------
# cli: cold `python -m fuchskit.cli` calls, one at a time

TRACE_MARK = "perfbench-trace "


def cli() -> Workload:
    from fuchskit.sampling import (distinct_points, prescribed_exponent_operator,
                                   random_operator, second_order_with_exponents)

    def doc(op):
        return json.dumps(op.to_json())

    def make(rng, tag, index):
        if tag == "dimensions":
            return tag, ["--m", str(rng.randint(1, 5)), "--n", str(rng.randint(2, 6))]
        if tag == "vandermonde":
            pts = distinct_points(rng, rng.randint(2, 4))
            plan = [rng.randint(1, 2) for _ in pts]
            return tag, ["--points", json.dumps([str(p) for p in pts]),
                         "--plan", json.dumps(plan)]
        if tag == "exponents":
            return tag, ["--input", doc(random_operator(rng, 2, 3))]
        if tag == "apparent":
            exps = rng.choice(((2, 0), (3, 0), (3, 1)))
            op = prescribed_exponent_operator(rng, 2, exps,
                                              extra_points=_nonzero_points(rng, 1))
            return tag, ["--input", doc(op), "--point", "0", "--oracle"]
        if tag == "cyclic":
            return tag, ["--input", doc(random_operator(rng, 2, rng.randint(2, 3)))]
        pts = distinct_points(rng, 3)
        qs = [Fraction(rng.choice((-3, -1, 1, 3)), 4) for _ in pts]
        op = second_order_with_exponents(pts, qs, quadratic_part=Fraction(1, 8))
        return tag, ["--input", doc(op)]

    def run(inp, traced=False):
        tag, argv = inp
        if traced:
            head = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py")]
        else:
            head = [sys.executable, "-m", "fuchskit.cli"]
        return subprocess.run(head + [tag] + argv,
                              capture_output=True, text=True, timeout=120)

    def check(inp, proc):
        tag, _ = inp
        require(proc.returncode == 0,
                f"{tag} exited {proc.returncode}: {proc.stderr[-300:]}")
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{tag} printed no JSON document: {exc}") from exc
        require(out.get("schema") == "fuchskit/1", f"{tag} document has no fuchskit/1 schema")
        # monodromy documents hold floats; the exact documents are digested
        return (None if tag == "monodromy" else proc.stdout), None

    cycle = ("dimensions", "vandermonde", "exponents", "apparent", "cyclic",
             "monodromy")
    return Workload("cli", cycle, 6.3, make, run, check, in_children=True)


def child_summary(stderr: str) -> dict:
    """Per-layer figures of one traced CLI child: its span summary, and the
    cumulative import times of fuchskit.cli and scipy.integrate from
    ``-X importtime``."""
    out = {"cli.import_s": 0.0, "cli.import_scipy_s": 0.0}
    names = {"fuchskit.cli": "cli.import_s", "scipy.integrate": "cli.import_scipy_s"}
    for line in stderr.splitlines():
        if line.startswith(TRACE_MARK):
            out.update(json.loads(line[len(TRACE_MARK):]))
        elif line.startswith("import time:"):
            cols = line.split("|")
            key = names.get(cols[-1].strip()) if len(cols) == 3 else None
            if key:
                out[key] += int(cols[1]) / 1e6
    return out


WORKLOADS = {"apparency": apparency, "structure": structure,
             "monodromy": monodromy, "cli": cli}
