"""Scalar-form recovery through cyclic vectors: the one route from a
connection to an equation.

Pairing the flat row sections of a logarithmic connection against a fixed
polynomial column v produces scalar functions.  When v, dv, d^2 v, ...
span, every such pairing satisfies a single scalar equation; this module
finds such a v deterministically and rebuilds the equation exactly.  Here
d acts on columns as d(v) = v' + B v, the companion of the row-side rule.

For B = num/den the tower stays over the one denominator: d^k v is
P_k/den^k with polynomial columns P_k, and the determinant of the span
is D/den^(m(m-1)/2) for the polynomial determinant D of [P_0 ... P_(m-1)].
By Cramer's rule the coefficients of d^m v = sum_k c_k d^(m-k) v are
c_k = D_(m-k)/(D den^k), D_j the determinant with column j replaced by
P_m, so the recovered numerators are exact polynomial quotients.  D and
every D_j come from one fraction-free solve of [P_0 ... P_(m-1) | P_m]:
D_j is entry j of adj(span) P_m.  Zeros of the spanning determinant that
are not poles of the connection surface as extra apparent points of the
recovered scalar form.

The annihilator of a polynomial basis is the flat case B = 0 with the
basis as the column v: the tower is the basis and its derivatives, the
span is the Wronskian matrix, and its zeros are the apparent points
(`frobenius.annihilator_from_solutions`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ExactMatrix, Polynomial, RationalFunction, Report, poly_root_search
from .connection import LogConnection, build_companion
from .operator import DomainError, FuchsianOperator


def connection_derivative(conn: LogConnection, column, k: int) -> tuple:
    """The numerators of d(v) over den^(k+1) for v = column/den^k:
    den P' - k den' P + num P on the polynomial column P."""
    if len(column) != conn.size:
        raise DomainError("column length does not match the connection size")
    den = conn.den
    step = den.derivative() * -k
    return tuple(den * p.derivative() + step * p
                 + sum((a * q for a, q in zip(row, column)), Polynomial.zero())
                 for p, row in zip(column, conn.num.rows))


def standard_candidates(size: int) -> tuple:
    """Basis columns first, then the windows e_s + z e_(s+1) + ... ordered
    by (length, start): size(size+1)/2 candidates in all."""
    zero = Polynomial.zero()
    x = Polynomial.x()
    cands = []
    for s in range(size):
        v = [zero] * size
        v[s] = Polynomial.one()
        cands.append(tuple(v))
    for length in range(2, size + 1):
        for s in range(size - length + 1):
            v = [zero] * size
            power = Polynomial.one()
            for i in range(length):
                v[s + i] = power
                power = power * x
            cands.append(tuple(v))
    return tuple(cands)


@dataclass(frozen=True)
class CyclicResult(Report):
    vector: tuple             # the cyclic column, polynomial entries
    determinant: RationalFunction
    coefficients: tuple       # c_1..c_m in d^m v = sum_k c_k d^(m-k) v
    operator: FuchsianOperator
    apparent_locus: tuple     # determinant zeros away from the poles
    unfactored: Polynomial    # constant: find_cyclic refuses a numerator that does not split
    tried: int


def find_cyclic(conn: LogConnection, candidates=None) -> CyclicResult:
    """First spanning candidate wins; the scan order is fixed, so the result
    is deterministic for a given connection."""
    m = conn.size
    if candidates is None:
        cands = standard_candidates(m)
    else:
        cands = tuple(tuple(v) for v in candidates)
    if not cands:
        raise DomainError("no candidate vectors supplied")
    tried = 0
    for cand in cands:
        tried += 1
        tower = [tuple(Polynomial.zero() + c for c in cand)]  # scalars as constants
        for k in range(m):
            tower.append(connection_derivative(conn, tower[-1], k))
        span = ExactMatrix.from_rows(zip(*tower[:m]))
        d, cramer = span.det_adjugate(ExactMatrix.from_rows(zip(tower[m])))
        if d.is_zero():
            continue
        det = RationalFunction.make(d, conn.den ** (m * (m - 1) // 2))
        found = poly_root_search(det.num)
        if not found.complete:
            raise DomainError(
                "the span determinant does not split over Q(i), so the "
                "recovered form would keep a pole at a point outside Q(i); "
                f"unfactored part {found.remainder}")
        locus = tuple(r for r, _ in found.roots if r not in conn.pole_points)
        psi = Polynomial.from_roots(tuple(conn.pole_points) + locus)
        numerators, coeffs_c, over = [], [], d
        for k in range(1, m + 1):
            dk = cramer.entry(m - k, 0)
            over = over * conn.den  # c_k = D_(m-k)/(D den^k)
            # a regular singular form has poles of order at most k in c_k
            numerators.append((dk * psi ** k).exact_div(over))
            coeffs_c.append(RationalFunction.make(dk, over))
        op = FuchsianOperator(order=m,
                              real_points=tuple(conn.pole_points),
                              apparent_points=locus,
                              coeffs=tuple(numerators))
        return CyclicResult(vector=cand, determinant=det,
                            coefficients=tuple(coeffs_c), operator=op,
                            apparent_locus=locus,
                            unfactored=found.remainder, tried=tried)
    raise DomainError(
        f"none of the {tried} candidate vectors spans: the tower v, dv, ... "
        "of each is linearly dependent")


@dataclass(frozen=True)
class RoundtripReport(Report):
    ok: bool
    coeffs_match: bool
    points_match: bool
    vector: tuple
    recovered: FuchsianOperator
    apparent_locus: tuple


def roundtrip_report(op: FuchsianOperator, result: CyclicResult) -> RoundtripReport:
    """Whether the cyclic recovery `result` of op's companion gives back
    op's numerators and point set."""
    rec = result.operator
    coeffs_match = rec.coeffs == op.coeffs
    points_match = set(rec.all_points) == set(op.all_points)
    return RoundtripReport(ok=coeffs_match and points_match and rec.order == op.order,
                           coeffs_match=coeffs_match, points_match=points_match,
                           vector=result.vector, recovered=rec,
                           apparent_locus=result.apparent_locus)


def roundtrip_check(op: FuchsianOperator) -> RoundtripReport:
    """Companion form, then cyclic recovery; the numerators and the point
    set must come back unchanged."""
    return roundtrip_report(op, find_cyclic(build_companion(op)))
