"""Companion-form logarithmic connections and their local exponent data.

Convention used throughout: a horizontal section is the ROW vector
w = (w, psi*w', psi^2*w'', ...) and satisfies w' = w . matrix, where
matrix = A/psi for the modified companion matrix A.  Column-vector users
should transpose.  Residue matrices at the finite poles, and at infinity
after the diagonal regauging plus the chart swap zeta = 1/z, carry the
local exponents as eigenvalues.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .algebra import (
    AlgebraError,
    ExactMatrix,
    Polynomial,
    RationalFunction,
    as_rf,
    poly_root_search,
    scalar,
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
    size: int
    matrix: ExactMatrix  # RationalFunction entries, acting on row vectors
    pole_points: tuple

    def __post_init__(self):
        rows, cols = self.matrix.shape()
        if rows != self.size or cols != self.size:
            raise DomainError(f"matrix shape {rows}x{cols} does not match size {self.size}")
        object.__setattr__(self, "matrix", self.matrix.map(as_rf))
        object.__setattr__(self, "pole_points", tuple(scalar(p) for p in self.pole_points))

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "chart": "affine",
            "pole_points": [p.to_json() for p in self.pole_points],
            "matrix": self.matrix.to_json(),
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
    psi = psi_all(op)
    a = companion_poly_matrix(op)
    b = a.map(lambda e: RationalFunction.make(e, psi))
    return LogConnection(size=op.order, matrix=b, pole_points=op.all_points)


def infinity_gauge(m: int, n: int) -> ExactMatrix:
    """Diagonal frame change diag(1, -z^(n-1), z^(2(n-1)), ...) linking the
    affine lattice to the one regular at infinity."""
    if m < 1 or n < 1:
        raise DomainError("infinity_gauge needs m >= 1 and n >= 1")
    rows = [[Polynomial.zero() for _ in range(m)] for _ in range(m)]
    for k in range(m):
        c = scalar((-1) ** k)
        rows[k][k] = Polynomial.from_list([scalar(0)] * (k * (n - 1)) + [c])
    return ExactMatrix.from_rows(rows)


def _pole_points_of(mat: ExactMatrix, candidates) -> tuple:
    pts = set(scalar(p) for p in candidates)
    for row in mat.rows:
        for e in row:
            if e.den.degree() >= 1:
                found = poly_root_search(e.den)
                if not found.complete:
                    raise DomainError("the gauged connection has a pole outside "
                                      "Q(i); unfactored denominator part "
                                      f"{found.remainder}")
                pts.update(r for r, _ in found.roots)
    keep = [p for p in sorted(pts, key=lambda s: s.sort_key())
            if any(e.pole_order_at(p) > 0 for row in mat.rows for e in row)]
    return tuple(keep)


def apply_gauge(conn: LogConnection, g: ExactMatrix) -> LogConnection:
    """New frame w~ = w.g; the coefficient matrix becomes
    g^{-1} . matrix . g + g^{-1} . g'."""
    gm = g.map(as_rf)
    rows, cols = gm.shape()
    if rows != conn.size or cols != conn.size:
        raise DomainError("gauge matrix shape does not match the connection")
    try:
        ginv = gm.inverse()
    except AlgebraError as exc:
        raise DomainError(f"gauge matrix not invertible: {exc}") from exc
    gprime = gm.map(lambda e: e.derivative())
    new = ginv * conn.matrix * gm + ginv * gprime
    return LogConnection(size=conn.size, matrix=new,
                         pole_points=_pole_points_of(new, conn.pole_points))


@dataclass(frozen=True)
class ExponentData:
    point: object  # GaussianRational, or the string INFINITY
    exponent_matrix: ExactMatrix
    char_poly: Polynomial
    eigenvalues: tuple  # roots with multiplicity, sorted; may be partial
    complete: bool
    remainder: Polynomial  # unfactored part of char_poly, 1 when complete
    ordinary: bool

    def to_json(self) -> dict:
        return {
            "point": self.point if self.point == INFINITY else scalar(self.point).to_json(),
            "exponent_matrix": self.exponent_matrix.to_json(),
            "char_poly": self.char_poly.to_json(),
            "eigenvalues": [e.to_json() for e in self.eigenvalues],
            "complete": self.complete,
            "remainder": self.remainder.to_json(),
            "ordinary": self.ordinary,
        }


def _residue_data(point, mat: ExactMatrix, ordinary: bool) -> ExponentData:
    cp = mat.char_poly()
    found = poly_root_search(cp)
    return ExponentData(point=point,
                        exponent_matrix=mat,
                        char_poly=cp,
                        eigenvalues=tuple(found.root_list()),
                        complete=found.complete,
                        remainder=found.remainder,
                        ordinary=ordinary)


def _minus_inv_sq() -> RationalFunction:
    return RationalFunction.make(Polynomial.constant(-1), Polynomial.of(0, 0, 1))


def infinity_chart_matrix(conn: LogConnection) -> ExactMatrix:
    """Coefficient matrix in the chart zeta = 1/z after regauging into the
    lattice that extends across infinity (shift n-1 per row, n = number of
    listed finite poles).  Entries are rational functions of zeta."""
    d = len(conn.pole_points)
    if d < 1:
        raise DomainError("need at least one finite pole to fix the lattice at infinity")
    shift = d - 1
    m = conn.size
    zpow = [Polynomial.from_list([scalar(0)] * (k * shift) + [scalar(1)])
            for k in range(m)]
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            sign = scalar((-1) ** (i + j))
            e = conn.matrix.entry(i, j) * RationalFunction.make(zpow[i] * sign, zpow[j])
            if i == j:
                e = e + RationalFunction.make(Polynomial.constant(-i * shift),
                                              Polynomial.x())
            row.append(e)
        rows.append(row)
    flip = _minus_inv_sq()
    return ExactMatrix.from_rows(
        [[e.subst_reciprocal() * flip for e in row] for row in rows])


def exponent_data(conn: LogConnection, point) -> ExponentData:
    """Residue matrix and its eigenvalue data at a finite point or INFINITY."""
    if isinstance(point, str) and point.lower() in INFINITY_NAMES:
        label, p, mat = INFINITY, scalar(0), infinity_chart_matrix(conn)
    else:
        label = p = scalar(point)
        mat = conn.matrix
    polar = [[e.order_and_residue_at(p) for e in row] for row in mat.rows]
    res = ExactMatrix.from_rows([[r for _, r in row] for row in polar])
    ordinary = all(k == 0 for row in polar for k, _ in row)
    return _residue_data(label, res, ordinary)


@dataclass(frozen=True)
class BundleType:
    degrees: tuple
    total: int

    def to_json(self) -> dict:
        return {"degrees": list(self.degrees), "total": self.total}


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
class GenericityReport:
    passes: bool
    witness: dict | None

    def to_json(self) -> dict:
        return {"passes": self.passes, "witness": _witness_json(self.witness)}


def _witness_json(w):
    if w is None:
        return None
    out = dict(w)
    for key in ("difference", "total"):
        if key in out:
            out[key] = out[key].to_json()
    return out


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
class RigidityReport:
    dimension: int
    scalar_only: bool
    basis: tuple  # gauge matrices with Polynomial entries

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "scalar_only": self.scalar_only,
            "basis": [g.to_json() for g in self.basis],
        }


def _gauge_slots(m: int, n: int):
    """Unknown slots (row, col, z-power) of a lower-triangular gauge whose
    (k,l) entry has degree <= (k-l)(n-1) and whose diagonal is constant."""
    slots = []
    for r in range(m):
        for c in range(r + 1):
            top = (r - c) * (n - 1)
            for j in range(top + 1):
                slots.append((r, c, j))
    return slots


def companion_rigidity_check(op1: FuchsianOperator, op2: FuchsianOperator) -> RigidityReport:
    """Dimension of the space of triangular gauges carrying the companion
    connection of op1 to that of op2.  Equal operators admit exactly the
    scalars; distinct ones admit nothing."""
    if op1.order != op2.order:
        raise DomainError("operators have different orders")
    if op1.order > 3:
        raise DomainError("rigidity check supports order <= 3")
    if op1.num_apparent or op2.num_apparent:
        raise DomainError("rigidity check expects no apparent points")
    if set(op1.real_points) != set(op2.real_points):
        raise DomainError("operators must share their singular points")
    m = op1.order
    n = op1.num_real
    psi = psi_all(op1)
    a1 = companion_poly_matrix(op1)
    a2 = companion_poly_matrix(op2)
    slots = _gauge_slots(m, n)
    columns = []
    max_deg = 0
    for (r, c, j) in slots:
        g = [[Polynomial.zero() for _ in range(m)] for _ in range(m)]
        g[r][c] = Polynomial.from_list([scalar(0)] * j + [scalar(1)])
        gm = ExactMatrix.from_rows(g)
        resid = a1 * gm + gm.map(lambda e: e.derivative()).scale(psi) - gm * a2
        columns.append(resid)
        for row in resid.rows:
            for e in row:
                max_deg = max(max_deg, e.degree())
    rows = []
    for i in range(m):
        for jj in range(m):
            for d in range(max_deg + 1):
                rows.append([col.entry(i, jj).coeff(d) for col in columns])
    system = ExactMatrix.from_rows(rows) if rows else ExactMatrix.from_rows([[scalar(0)] * len(slots)])
    null = system.nullspace()
    basis = []
    for vec in null:
        g = [[Polynomial.zero() for _ in range(m)] for _ in range(m)]
        for (r, c, j), coeff in zip(slots, vec):
            g[r][c] = g[r][c] + Polynomial.from_list([scalar(0)] * j + [coeff])
        basis.append(ExactMatrix.from_rows(g))
    scalar_only = len(null) == 1 and _is_scalar_matrix(basis[0])
    return RigidityReport(dimension=len(null), scalar_only=scalar_only,
                          basis=tuple(basis))


def _is_scalar_matrix(g: ExactMatrix) -> bool:
    m, _ = g.shape()
    diag = g.entry(0, 0)
    if diag.degree() > 0:
        return False
    for i in range(m):
        for j in range(m):
            want = diag if i == j else Polynomial.zero()
            if g.entry(i, j) != want:
                return False
    return True
