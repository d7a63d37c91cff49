"""Series analysis at a finite point of a Fuchsian operator.

Everything here works with the shifted local form: writing t = z - a and
expanding t^k * coeffs[k-1] / psi^k = sum_l table[k][l] t^l, the indicial
polynomial and its higher companions are

    f_0(s) = [s]_m - sum_k table[k][0] [s]_{m-k}
    f_l(s) =         sum_k table[k][l] [s]_{m-k}     (l >= 1)

with [s]_j the falling factorial.  A series sum c_t t^(s+t) solves the
equation iff  c_t f_0(s+t) = sum_{l=1}^{t} f_l(s+t-l) c_{t-l}  for all t.

The resonance matrices negate every f_l with l >= 1, which makes their
determinant equal the recursion obstruction; with the f_l entries as they
stand it would not, as direct series computation shows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from math import lcm
from operator import mul

from .algebra import (
    ExactMatrix,
    GaussianRational,
    Polynomial,
    RationalFunction,
    Report,
    RootSearchResult,
    ZERO,
    falling_factorial,
    poly_root_search,
    scalar,
    series_of_rational,
)
from .connection import LogConnection
from .cyclic import find_cyclic
from .operator import (
    MAX_TRUNCATION,
    DomainError,
    FuchsianOperator,
    as_polynomial,
    json_array,
    psi_all,
    validate_fuchsian,
)


@dataclass(frozen=True)
class LocalAnalysis:
    point: GaussianRational
    table: tuple          # table[k-1][l], k = 1..order, l = 0..truncation
    indicial: Polynomial  # f_0, in the exponent variable
    higher: tuple         # higher[l-1] = f_l, l = 1..truncation
    roots: RootSearchResult  # the exponents: the roots of f_0 in Q(i)
    truncation: int
    ordinary: bool        # point was not among the operator's listed points

    def f(self, l: int) -> Polynomial:
        if l == 0:
            return self.indicial
        if l > self.truncation:
            raise DomainError(
                f"table truncated at {self.truncation}, asked for f_{l}")
        return self.higher[l - 1]


def _check_cap(truncation: int) -> None:
    if truncation > MAX_TRUNCATION:
        raise DomainError(f"truncation {truncation} exceeds the cap of "
                          f"{MAX_TRUNCATION}")


def local_expansion(op: FuchsianOperator, point, truncation: int) -> LocalAnalysis:
    if truncation < 1:
        raise DomainError("truncation must be at least 1")
    _check_cap(truncation)
    a = scalar(point)
    psi = psi_all(op)
    lin = Polynomial.of(-a, 1)
    table = []
    for k in range(1, op.order + 1):
        rf = RationalFunction.make(op.coeffs[k - 1] * lin ** k, psi ** k)
        table.append(series_of_rational(rf, a, truncation + 1))
    f0 = _on_falling([scalar(1)] + [-row[0] for row in table])
    higher = [_on_falling([ZERO] + [row[l] for row in table])
              for l in range(1, truncation + 1)]
    return LocalAnalysis(point=a,
                         table=tuple(table),
                         indicial=f0,
                         higher=tuple(higher),
                         roots=poly_root_search(f0),
                         truncation=truncation,
                         ordinary=a not in op.all_points)


@functools.lru_cache(maxsize=64)
def _falling_columns(m: int) -> tuple:
    """Column j: the coefficients of s^j in [s]_m, [s]_(m-1), ..., [s]_0."""
    rows = [falling_factorial(Polynomial.x(), m - k).re for k in range(m + 1)]
    return tuple(zip(*(row + (0,) * k for k, row in enumerate(rows))))


def _on_falling(weights: list) -> Polynomial:
    """sum_k weights[k] [s]_(m-k), k = 0..m, on integer columns over one den."""
    den = lcm(*(w.d for w in weights))
    re, im = [w.a * (den // w.d) for w in weights], [w.b * (den // w.d) for w in weights]
    cols = _falling_columns(len(weights) - 1)
    return Polynomial([sum(map(mul, re, c)) for c in cols],
                      [sum(map(mul, im, c)) for c in cols], den)


@dataclass(frozen=True)
class ResonanceMatrix:
    nu: int
    symbolic: ExactMatrix       # Polynomial entries in the exponent variable
    determinant: Polynomial


def f_matrices(analysis: LocalAnalysis, nu: int) -> ResonanceMatrix:
    """nu x nu resonance matrix.  First row -f_1(s+nu-1) ... -f_nu(s);
    below, f_0 runs down the subdiagonal with shorter negated f-rows to its
    right.  Its determinant is the series obstruction that apparency
    uses."""
    if nu < 1:
        raise DomainError("nu must be at least 1")
    if analysis.truncation < nu:
        raise DomainError(
            f"insufficient truncation depth {analysis.truncation} for nu={nu}")
    rows = [[Polynomial.zero() for _ in range(nu)] for _ in range(nu)]
    for c in range(nu):
        rows[0][c] = -analysis.f(c + 1).shift(scalar(nu - 1 - c))
    for r in range(1, nu):
        rows[r][r - 1] = analysis.f(0).shift(scalar(nu - r))
        for c in range(r, nu):
            rows[r][c] = -analysis.f(c - r + 1).shift(scalar(nu - 1 - c))
    sym = ExactMatrix.from_rows(rows)
    return ResonanceMatrix(nu=nu, symbolic=sym, determinant=sym.det())


@dataclass(frozen=True)
class ConditionResidual(Report):
    mu: int
    kind: str  # "linear" | "quadratic" | "det_order"
    value: GaussianRational
    required_order: int


@dataclass(frozen=True)
class ApparentVerdict(Report):
    is_apparent: bool
    is_special_apparent: bool
    exponents: tuple  # descending when extracted
    condition_residuals: tuple
    oracle_agrees: bool | None = None
    reason: str | None = None


def special_exponents(m: int) -> tuple:
    """m, m-2, m-3, ..., 1, 0 (length m)."""
    return (scalar(m),) + tuple(scalar(j) for j in range(m - 2, -1, -1))


def _integer_exponents(analysis: LocalAnalysis):
    """Descending integer exponents, or (None, reason)."""
    if not analysis.roots.complete:
        return None, "non-integral exponents"
    vals = analysis.roots.root_list()
    if any(not v.is_integer() for v in vals):
        return None, "non-integral exponents"
    if len(set(vals)) != len(vals):
        return None, "repeated exponents"
    if any(v.as_int() < 0 for v in vals):
        return None, "negative exponents"
    return tuple(sorted(vals, key=lambda v: -v.as_int())), None


def apparent_check(op: FuchsianOperator, point,
                   run_oracle: bool = False) -> ApparentVerdict:
    """Determinant-ladder apparency test.  For exponents r_1 > ... > r_m the
    condition indexed (mu, kappa) is that the resonance determinant of
    size r_{mu-kappa} - r_mu vanishes at r_mu to order kappa.  With
    run_oracle, `oracle_agrees` records whether the series oracle reaches
    the same verdict."""
    verdict = _ladder_verdict(op, point)
    if run_oracle:
        oracle = frobenius_oracle(op, point)
        verdict = replace(verdict,
                          oracle_agrees=oracle.is_apparent == verdict.is_apparent)
    return verdict


def _ladder_exponents(op: FuchsianOperator, point) -> tuple:
    """The prologue of the ladder and the oracle, on a depth-1 expansion:
    (descending integer exponents, None), or (every exponent found, reason)."""
    first = local_expansion(op, point, 1)
    exps, reason = _integer_exponents(first)
    return (tuple(first.roots.root_list()), reason) if reason else (exps, None)


def _ladder_verdict(op: FuchsianOperator, point) -> ApparentVerdict:
    exps, reason = _ladder_exponents(op, point)
    if reason:
        return ApparentVerdict(False, False, exps, (), reason=reason)
    m = op.order
    spread = exps[0].as_int() - exps[-1].as_int()
    analysis = local_expansion(op, point, spread + 2)
    det_cache: dict[int, Polynomial] = {}
    residuals = []
    for mu in range(2, m + 1):
        for kappa in range(1, mu):
            nu = exps[mu - 1 - kappa].as_int() - exps[mu - 1].as_int()
            if nu not in det_cache:
                det_cache[nu] = f_matrices(analysis, nu).determinant
            shifted = det_cache[nu].shift(exps[mu - 1])
            # the lowest nonzero coefficient below order kappa, if any
            value = next((c for c in map(shifted.coeff, range(kappa)) if not c.is_zero()),
                         ZERO)
            residuals.append(ConditionResidual(mu=mu, kind="det_order",
                                               value=value,
                                               required_order=kappa))
    all_ok = all(r.value.is_zero() for r in residuals)
    special = exps == special_exponents(m)
    return ApparentVerdict(is_apparent=all_ok,
                           is_special_apparent=all_ok and special,
                           exponents=exps,
                           condition_residuals=tuple(residuals))


def special_apparent_check(op: FuchsianOperator, point) -> ApparentVerdict:
    """Reduced condition set for exponents m, m-2, ..., 1, 0: per mu the
    linear vanishings f_l(m-mu) = 0 for l = 1..mu-2 plus one quadratic,
    m(m-1)/2 residuals in total."""
    m = op.order
    analysis = local_expansion(op, point, m + 2)
    exps, _ = _integer_exponents(analysis)
    want = special_exponents(m)
    if exps != want:
        raise DomainError(
            f"exponents not special: expected {[str(e) for e in want]}, "
            f"got {[str(e) for e in analysis.roots.root_list()]}")
    residuals = []
    f0_top = analysis.f(0)(scalar(m - 1))
    f1_top = analysis.f(1)(scalar(m - 1))
    for mu in range(2, m + 1):
        at = scalar(m - mu)
        for l in range(1, mu - 1):
            residuals.append(ConditionResidual(mu=mu, kind="linear",
                                               value=analysis.f(l)(at), required_order=1))
        quad = f1_top * analysis.f(mu - 1)(at) + analysis.f(mu)(at) * f0_top
        residuals.append(ConditionResidual(mu=mu, kind="quadratic",
                                           value=quad, required_order=1))
    all_ok = all(r.value.is_zero() for r in residuals)
    return ApparentVerdict(is_apparent=all_ok,
                           is_special_apparent=all_ok,
                           exponents=exps,
                           condition_residuals=tuple(residuals))


# ---------------------------------------------------------------------------
# direct series oracle


@dataclass(frozen=True)
class SeriesSolution(Report):
    exponent: GaussianRational
    coeffs: tuple        # c_0 .. c_truncation in powers of (z - point)
    obstructions: tuple  # {"offset", "value"} at each resonance crossed


@dataclass(frozen=True)
class OracleVerdict(Report):
    is_apparent: bool
    exponents: tuple
    solutions: tuple
    truncation: int
    reason: str | None = None


def frobenius_oracle(op: FuchsianOperator, point, truncation: int | None = None) -> OracleVerdict:
    """Ground-truth apparency: run the recursion for every exponent and
    demand each resonance obstruction vanish.  A vanished obstruction leaves
    the resonant coefficient free; it is pinned to 0.  The default depth
    covers every resonance with margin; a smaller request is raised, and a
    larger one than MAX_TRUNCATION is refused before any expansion."""
    if truncation is not None:
        _check_cap(truncation)
    exps, reason = _ladder_exponents(op, point)
    if reason:
        return OracleVerdict(False, exps, (), 0, reason=reason)
    spread = exps[0].as_int() - exps[-1].as_int()
    depth = spread + 4 if truncation is None else max(truncation, spread + 1)
    analysis = local_expansion(op, point, depth)
    # f_l(j) at an integer j is the same in the recursion of every exponent
    f_at = functools.cache(lambda l, j: analysis.f(l)(scalar(j)))
    solutions = []
    ok = True
    for rho in reversed(exps):  # ascending
        r = rho.as_int()
        coeffs = [scalar(1)]
        obstructions = []
        for t in range(1, depth + 1):
            rhs = ZERO
            for l in range(1, t + 1):
                rhs = rhs + f_at(l, r + t - l) * coeffs[t - l]
            lead = f_at(0, r + t)
            if lead.is_zero():
                obstructions.append({"offset": t, "value": rhs})
                if not rhs.is_zero():
                    ok = False
                coeffs.append(ZERO)
            else:
                coeffs.append(rhs / lead)
        solutions.append(SeriesSolution(exponent=rho, coeffs=tuple(coeffs),
                                        obstructions=tuple(obstructions)))
    return OracleVerdict(is_apparent=ok, exponents=exps,
                         solutions=tuple(solutions), truncation=depth)


# ---------------------------------------------------------------------------
# instance generation


def annihilator_from_solutions(basis) -> FuchsianOperator:
    """Monic operator annihilating the given polynomial basis, with every
    finite singular point (a Wronskian zero) apparent by construction:
    cyclic recovery on the flat connection, the zero matrix over 1, with
    the basis as the cyclic column, whose span is the Wronskian matrix."""
    polys = [as_polynomial(b) for b in json_array(basis, "basis")]
    m = len(polys)
    if m < 1:
        raise DomainError("empty basis")
    flat = LogConnection(ExactMatrix.from_rows([[Polynomial.zero()] * m] * m),
                         Polynomial.one(), ())
    out = find_cyclic(flat, candidates=[polys]).operator
    assert validate_fuchsian(out).ok
    return out
