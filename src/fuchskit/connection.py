"""Logarithmic connections in companion form and their local exponent data.

A horizontal section is the ROW vector w = (w, psi*w', psi^2*w'', ...) and
satisfies w' = w . num/den, for one polynomial matrix `num` over one monic
polynomial `den` with gcd(den, every entry) = 1: the poles are the roots of
den, and equal connections have equal parts.  A companion is the modified
companion matrix A over psi, and a gauge g gives adj(g)(num g + den g')
over den det(g), both from one fraction-free solve, made canonical by the
constructor's one gcd.  Residue matrices, whose eigenvalues are the local
exponents, are read off this form without a gcd; the entries as reduced
rational functions are built only for printing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .algebra import (
    ZERO,
    ExactMatrix,
    Polynomial,
    RationalFunction,
    Report,
    poly_gcd,
    poly_root_search,
    scalar,
    series_divide,
)
from .operator import (
    DomainError,
    FuchsianOperator,
    json_array,
    psi_all,
    validate_fuchsian,
)

INFINITY = "infinity"
INFINITY_NAMES = (INFINITY, "inf", "oo")  # accepted spellings, any case

RESIDUE_GUARD = 10 ** 6  # residue keys one genericity_check may form


@dataclass(frozen=True)
class LogConnection:
    """num/den for a square Polynomial matrix num, in the module's form."""

    num: ExactMatrix
    den: Polynomial
    pole_points: tuple

    def __post_init__(self):
        rows, cols = self.num.shape()
        if rows != cols or self.den.is_zero():
            raise DomainError(f"need a square matrix over a nonzero den, got {rows}x{cols}")
        g = self.den
        for e in sorted(itertools.chain(*self.num.rows), key=Polynomial.degree):
            if g.degree() > 0 and not e.is_zero():
                g = poly_gcd(g, e)  # lowest degree first: a constant answers at once
        q = g * self.den.lc()
        if q != Polynomial.one():
            object.__setattr__(self, "num", self.num.map(lambda e: e.exact_div(q)))
            object.__setattr__(self, "den", self.den.exact_div(q))
        object.__setattr__(self, "pole_points", tuple(scalar(p) for p in self.pole_points))

    @property
    def size(self) -> int:
        return len(self.num.rows)

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "chart": "affine",
            "pole_points": [p.to_json() for p in self.pole_points],
            "matrix": self.num.map(lambda e: RationalFunction.make(e, self.den)).to_json(),
        }


def companion_poly_matrix(op: FuchsianOperator) -> ExactMatrix:
    """The polynomial numerator matrix A: sub-diagonal ones, diagonal
    (0, psi', 2psi', ...) with coeff(1) added to the last entry, and the
    remaining coefficients running up the last column."""
    m = op.order
    dpsi = psi_all(op).derivative()
    rows = [[Polynomial.zero() for _ in range(m)] for _ in range(m)]
    for r in range(1, m):
        rows[r][r - 1] = Polynomial.one()
    for j in range(m - 1):
        rows[j][j] = dpsi * scalar(j)
    rows[m - 1][m - 1] = dpsi * scalar(m - 1) + op.coeff(1)
    for j in range(m - 1):
        rows[j][m - 1] = rows[j][m - 1] + op.coeff(m - j)
    return ExactMatrix.from_rows(rows)


def build_companion(op: FuchsianOperator) -> LogConnection:
    report = validate_fuchsian(op)
    if not report.ok:
        raise DomainError("operator fails the infinity degree bounds: "
                          + "; ".join(report.messages))
    return LogConnection(companion_poly_matrix(op), psi_all(op), op.all_points)


def apply_gauge(conn: LogConnection, g: ExactMatrix) -> LogConnection:
    """New frame w~ = w.g: the coefficient matrix g^{-1} B g + g^{-1} g' of
    B = num/den is adj(g)(num g + den g') over den det(g), both from one
    fraction-free solve, with poles at the roots of the canonical den."""
    g = g.map(lambda e: Polynomial.zero() + e)  # scalars as constants
    if g.shape() != (conn.size, conn.size):
        raise DomainError("gauge matrix shape does not match the connection")
    det, num = g.det_adjugate(conn.num * g + g.map(Polynomial.derivative).scale(conn.den))
    if det.is_zero():
        raise DomainError("gauge matrix not invertible: matrix is singular")
    new = LogConnection(num, conn.den * det, ())
    found = poly_root_search(new.den)
    if not found.complete:
        raise DomainError("the gauged connection has a pole outside Q(i); "
                          f"unfactored denominator part {found.remainder}")
    return LogConnection(new.num, new.den,
                         sorted((r for r, _ in found.roots), key=lambda s: s.sort_key()))


@dataclass(frozen=True)
class ExponentData(Report):
    point: object  # GaussianRational, or the string INFINITY
    exponent_matrix: ExactMatrix
    char_poly: Polynomial
    eigenvalues: tuple  # roots with multiplicity, sorted; may be partial
    complete: bool
    remainder: Polynomial  # unfactored part of char_poly, 1 when complete
    ordinary: bool


def _product_coeff(cs, inv: list, k: int):
    """Coefficient k < len(inv) of the product of two series, 0 if k < 0."""
    return sum((cs[j] * inv[k - j] for j in range(min(k + 1, len(cs)))), ZERO)


def residue_matrix(conn: LogConnection, point) -> tuple:
    """(residue matrix, ordinary) at a finite point or at INFINITY (that
    spelling); `ordinary` says that no entry has a pole there.

    At a finite p, one Taylor shift gives den(p + t) = t^e u(t), u(0) != 0,
    and entry (i, j) is the coefficient of t^(e-1) in num_ij(p + t)/u(t),
    num_ij(p)/den'(p) at a simple pole; p is ordinary when e = 0.

    At infinity, with s = (number of poles) - 1, entry (i, j) regauged and
    in the chart zeta = 1/z has residue -(-1)^(i+j) q_k + [i = j] i s: q is
    the series of the reversed num_ij over the reversed den, and
    k = deg num_ij + (i-j)s - deg den + 1 (no term when k < 0).  Infinity
    is ordinary when every such k is below 1 and the residues vanish.
    """
    if point != INFINITY:
        p = scalar(point)
        shifted = conn.den.shift(p)
        e = 0
        while not (shifted.re[e] or shifted.im[e]):
            e += 1
        unit = Polynomial(shifted.re[e:], shifted.im[e:], shifted.den)
        inv = series_divide(Polynomial.one(), unit, e - 1)
        return conn.num.map(lambda a: _product_coeff(a.shift(p).coeffs, inv, e - 1)), e == 0
    if not conn.pole_points:
        raise DomainError("need at least one finite pole to fix the lattice at infinity")
    s, n = len(conn.pole_points) - 1, conn.den.degree()
    ks = [[a.degree() + (i - j) * s - n + 1 if not a.is_zero() else -1
           for j, a in enumerate(row)] for i, row in enumerate(conn.num.rows)]
    top = max(max(row) for row in ks)
    inv = series_divide(Polynomial.one(), conn.den.reversed_coeffs(), top)
    res = ExactMatrix.from_rows(
        [[_product_coeff(a.coeffs[::-1], inv, k) * (-1) ** (i + j + 1) + (i * s if i == j else 0)
          for j, (a, k) in enumerate(zip(row, krow))]
         for i, (row, krow) in enumerate(zip(conn.num.rows, ks))])
    return res, top < 1 and all(r.is_zero() for row in res.rows for r in row)


def exponent_data(conn: LogConnection, point) -> ExponentData:
    """Residue matrix and its eigenvalue data at a finite point or INFINITY."""
    if isinstance(point, str) and point.lower() in INFINITY_NAMES:
        point = INFINITY
    mat, ordinary = residue_matrix(conn, point)
    cp = mat.char_poly()
    found = poly_root_search(cp)
    return ExponentData(point=point if point == INFINITY else scalar(point),
                        exponent_matrix=mat,
                        char_poly=cp,
                        eigenvalues=tuple(found.root_list()),
                        complete=found.complete,
                        remainder=found.remainder,
                        ordinary=ordinary)


@dataclass(frozen=True)
class BundleType(Report):
    degrees: tuple
    total: int


def bundle_type(op: FuchsianOperator) -> BundleType:
    """Splitting degrees (0, 1-n, 2(1-n), ...) of the lattice the companion
    connection extends over; defined for operators without apparent points."""
    if op.num_apparent:
        raise DomainError("bundle_type is defined for operators without apparent points")
    n = op.num_real
    degrees = tuple(k * (1 - n) for k in range(op.order))
    return BundleType(degrees=degrees, total=sum(degrees))


# ---------------------------------------------------------------------------
# genericity


@dataclass(frozen=True)
class GenericityReport(Report):
    passes: bool
    witness: dict | None


def genericity_check(exponents) -> GenericityReport:
    """Fail if two exponents at one point differ by an integer, or if some
    choice of k of the m exponents at every point (1 <= k < m) has an
    integer grand total.

    The integer differences are scanned first.  Whether a total is an
    integer depends only on its residue key (re mod 1, im), kept as a pair
    of integers over the common denominator d of the table.  For each k,
    every k-combination at every point is mapped to its key, and the
    suffix sets R[j] of the key sums reachable from points j..n-1 are built
    from the last point back, R[n] = {(0, 0)}.  The witness is then picked
    from point 0 on: at point j, the first combination in
    `itertools.combinations` order whose remaining need lies in R[j+1].
    That is the first integer selection in `itertools.product` order at the
    smallest k, the one an enumeration of every selection would report;
    its total is summed from the chosen exponents.  The cost follows the
    number of combinations and of distinct residues, not of selections.
    Every key formed counts against RESIDUE_GUARD, for the whole call: one
    per combination and one per sum in a suffix set.  The cost of each step
    is checked before the step runs, and a call that would form more keys
    than the guard raises DomainError.
    """
    table = [[scalar(v) for v in json_array(row, "exponent row")]
             for row in json_array(exponents, "exponent table")]
    if not table:
        raise DomainError("no exponent data supplied")
    m = len(table[0])
    if any(len(row) != m for row in table):
        raise DomainError("every point must carry the same number of exponents")
    if m == 0:
        raise DomainError("every point must carry at least one exponent")
    for pt_idx, row in enumerate(table):
        for i in range(m):
            for j in range(i + 1, m):
                if (row[i] - row[j]).is_integer():
                    return GenericityReport(passes=False, witness={
                        "kind": "integer-difference",
                        "point_index": pt_idx,
                        "indices": (i, j),
                        "difference": row[i] - row[j],
                    })
    d = math.lcm(*(v.d for row in table for v in row))
    keys = [[(v.a * (d // v.d) % d, v.b * (d // v.d)) for v in row]
            for row in table]
    spent = 0
    for k in range(1, m):
        spent = _spend(spent, len(table) * math.comb(m, k))
        picks, spent = _first_integer_selection(keys, k, d, spent)
        if picks is not None:
            total = scalar(0)
            for row, idx in zip(table, picks):
                for i in idx:
                    total = total + row[i]
            return GenericityReport(passes=False, witness={
                "kind": "integer-sum",
                "k": k,
                "selection": [list(idx) for idx in picks],
                "total": total,
            })
    return GenericityReport(passes=True, witness=None)


def _spend(spent: int, cost: int) -> int:
    if spent + cost > RESIDUE_GUARD:
        raise DomainError(f"genericity check needs more than the residue guard "
                          f"of {RESIDUE_GUARD} keys")
    return spent + cost


def _combination_keys(point, k: int, d: int):
    """(combination, residue key) for every k-combination of the keys at
    one point, in `itertools.combinations` order."""
    for idx in itertools.combinations(range(len(point)), k):
        yield idx, (sum(point[i][0] for i in idx) % d,
                    sum(point[i][1] for i in idx))


def _first_integer_selection(keys, k: int, d: int, spent: int):
    """The suffix sets and the pick of `genericity_check`: the first choice
    of one k-combination per point, in `itertools.product` order, whose
    keys sum to (0 mod d, 0), or None; and `spent` plus the keys formed
    by the suffix sets.  Only distinct keys are kept, never the
    combinations themselves."""
    suffix = [{(0, 0)}]  # R[n], R[n-1], ..., R[1]
    for point in reversed(keys[1:]):
        row = {key for _, key in _combination_keys(point, k, d)}
        spent = _spend(spent, len(row) * len(suffix[-1]))
        suffix.append({((a + x) % d, b + y)
                       for a, b in row for x, y in suffix[-1]})
    need, picks = (0, 0), []
    for point, later in zip(keys, reversed(suffix)):
        for idx, (a, b) in _combination_keys(point, k, d):
            rest = ((need[0] - a) % d, need[1] - b)
            if rest in later:
                picks.append(idx)
                need = rest
                break
        else:
            return None, spent  # reached only at point 0
    return picks, spent


# ---------------------------------------------------------------------------
# rigidity


@dataclass(frozen=True)
class RigidityReport(Report):
    dimension: int
    scalar_only: bool
    basis: tuple  # gauge matrices with Polynomial entries


def companion_rigidity_check(op1: FuchsianOperator, op2: FuchsianOperator) -> RigidityReport:
    """Dimension of the space of triangular gauges carrying the companion
    connection of op1 to that of op2.  Equal operators admit exactly the
    scalars; distinct ones admit nothing.

    A gauge G is lower triangular, its (r, c) entry of degree at most
    (r-c)(n-1), so its diagonal is constant.  Its unknowns are the
    coefficients of those entries; the linear system is read off the
    residuals A1 G + psi G' - G A2 of the unit gauges, one unknown set to
    1, and its null space gives the basis.
    """
    if op1.order != op2.order:
        raise DomainError("operators have different orders")
    if op1.order > 3:
        raise DomainError("rigidity check supports order <= 3")
    if op1.num_apparent or op2.num_apparent:
        raise DomainError("rigidity check expects no apparent points")
    if set(op1.real_points) != set(op2.real_points):
        raise DomainError("operators must share their singular points")
    m, n = op1.order, op1.num_real
    psi = psi_all(op1)
    a1, a2 = companion_poly_matrix(op1), companion_poly_matrix(op2)
    slots = [(r, c, j) for r in range(m) for c in range(r + 1)
             for j in range((r - c) * (n - 1) + 1)]

    def gauge(vec) -> ExactMatrix:
        cs = [[[] for _ in range(m)] for _ in range(m)]
        for (r, c, _), x in zip(slots, vec):  # the powers of an entry ascend
            cs[r][c].append(x)
        return ExactMatrix.from_rows(map(Polynomial.from_list, row) for row in cs)

    resid = [a1 * g + g.map(Polynomial.derivative).scale(psi) - g * a2
             for g in map(gauge, ExactMatrix.identity(len(slots)).rows)]
    top = max(e.degree() for r in resid for row in r.rows for e in row)
    system = ExactMatrix.from_rows(
        [r.entry(i, j).coeff(d) for r in resid]
        for i in range(m) for j in range(m) for d in range(max(top, 0) + 1))
    basis = tuple(gauge(vec) for vec in system.nullspace())
    scalar_only = (len(basis) == 1
                   and basis[0] == ExactMatrix.identity(m, basis[0].entry(0, 0)))
    return RigidityReport(dimension=len(basis), scalar_only=scalar_only,
                          basis=basis)
