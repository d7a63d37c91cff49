"""Numeric transport around singular points.

Everything else in the package is exact; this module is the one numeric
layer.  Flat row sections satisfy w' = w B, so the column form u' = B(z)^T u
is integrated along circles and anchored loops by Taylor series in Python
complex numbers (`solve_ivp`; Chudnovsky & Chudnovsky 1990, van der Hoeven
1999).  Counterclockwise transport around a point with local exponent mu
produces the eigenvalue exp(+2 pi i mu).

The series follow from the connection's own form B = A/D, one polynomial
matrix A over one monic polynomial D: D u' = A^T u is a recurrence in the
coefficients of A and D, shifted once to each node of the path.  The
m x m results are handled by small private kernels on tuples of rows of
complex numbers: per loop one solve, the eigenvalues (Hessenberg reduction
and shifted QR), the characteristic polynomial and the determinant, and
the traces of words in the loops of a family.  One routine, `_loop`,
builds every loop.

Each result carries a self-diagnosed error estimate: the determinant of the
transport matrix is compared against the exponential of the exact trace
residues of every pole inside the loop.  On an anchored loop the leg
cancels in the determinant, so the estimate sees only the circle; leg error
shows in the closure error of the global product.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from operator import itemgetter, mul

from .algebra import Report, document, scalar
from .connection import LogConnection, build_companion, residue_matrix
from .operator import _ATOL, _RTOL, DomainError

_RTOL_FLOOR = 100 * sys.float_info.epsilon  # below it rounding, not rtol, sets the error
_CLEARANCE = 1e-9  # closest a straight leg or a node of a walk may come to a pole
_APPARENT_TOL = 1e-6  # largest distance at which a loop still counts as trivial


class _NumericConnection:
    """Complex view of the connection A/D, the one checked conversion of its
    exact values to floats: the coefficients of A^T (each row-major) and of
    D, lowest power first, and the poles; with the exact poles and traces
    of their residue matrices."""

    def __init__(self, conn: LogConnection):
        m = self.size = conn.size
        deg = max(max(a.degree() for row in conn.num.rows for a in row), 0)
        flat = [[0j] * (m * m) for _ in range(deg + 1)]
        try:
            for i, row in enumerate(conn.num.rows):
                for j, a in enumerate(row):
                    for k, c in enumerate(a.coeffs):
                        flat[k][j * m + i] = complex(c)
            self._den = [[complex(c)] for c in conn.den.coeffs]
            self.poles = [complex(p) for p in conn.pole_points]
        except OverflowError:
            raise DomainError("a coefficient or pole of the connection is out of "
                              "double range") from None
        first = {}
        for p, z in zip(conn.pole_points, self.poles):
            if first.setdefault(z, p) != p:
                raise DomainError(f"the distinct poles {first[z]} and {p} are equal "
                                  "in double precision")
        self._num = flat
        self.points = conn.pole_points
        self.traces = [residue_matrix(conn, p)[0].trace() for p in conn.pole_points]

    def det_reference(self, center: complex, radius: float) -> complex:
        """exp of the loop integral of tr B around the circle, from the
        exact residues at every pole strictly inside it."""
        total = sum((t for z, t in zip(self.poles, self.traces)
                     if abs(z - center) < radius), scalar(0))
        return cmath.exp(2j * math.pi * complex(total))

    def expansion(self, z0: complex, h: complex) -> tuple:
        """(alpha, delta) with h B^T(z0 + h s) = sum_j alpha_j s^j / sum_j
        delta_j s^j: alpha_j = h^(j+1) a_j^T / d_0 and delta_j = h^j d_j /
        d_0 for the Taylor coefficients a_j, d_j of A and D at z0."""
        a, d = _shift(self._num, z0), [c for c, in _shift(self._den, z0)]
        p = [h ** j / d[0] for j in range(max(len(a), len(d)) + 1)]
        return ([[c * p[j + 1] for c in v] for j, v in enumerate(a)],
                [c * p[j] for j, c in enumerate(d)])


def _shift(coeffs: list, z0: complex) -> list:
    """The coefficient vectors of p(z0 + s) from those of p(z)."""
    out = [list(c) for c in coeffs]
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] = [x + z0 * y for x, y in zip(out[k], out[k + 1])]
    return out


# nodes, the columns of Y at the end, and Taylor coefficients computed
_Walk = namedtuple("_Walk", "t y nfev")


def solve_ivp(num: _NumericConnection, path, rtol: float, atol: float) -> _Walk:
    """The fundamental solution Y of Y' = B^T Y, Y = 1 at the start, along
    a path t -> (z, dz/dt), 0 <= t <= 1, of constant speed.

    From a node z0 at distance rho from the nearest pole, the next node
    lies an arc length rho/2 further on, or is the end.  Arc and chord stay
    in the disc of radius rho/2 about z0, inside the disc of convergence,
    so the chords are homotopic to the path.  A node within _CLEARANCE of
    a pole raises DomainError.  On the chord z0 + h s the terms y_k = Y_k h^k
    start from the current state y_0 and follow (`_series`)
        (k+1) y_{k+1} = sum_j alpha_j y_{k-j} - sum_{j>=1} delta_j (k+1-j) y_{k+1-j};
    they fall at least like 2^-k, so after two small terms the rest is
    about one more.  The sum stops at the first k, largest entries, with
        |y_(k-1)| + |y_k| <= share (rtol |y_0| + atol) / 4,
    share being the chord's part of the path's length: the truncation
    errors of a path add up to a quarter of the tolerance, a margin
    measured on the closure of `global_product`, whose legs amplify them."""
    m = num.size
    cols = [[complex(i == l) for i in range(m)] for l in range(m)]
    t, (z, dz) = 0.0, path(0.0)
    nodes, nfev = [z], 0
    while t < 1.0:
        rho = min((abs(z - p) for p in num.poles), default=math.inf)
        if rho <= _CLEARANCE:
            raise DomainError(f"transport path meets a pole or overflows at {z}")
        share = min(1.0 - t, rho / (2 * abs(dz)))
        t = min(1.0, t + share)
        end = path(t)[0]
        tol = share * (rtol * max(abs(x) for y in cols for x in y) + atol) / 4
        cols, used = _series(num.expansion(z, end - z), cols, tol)
        if not all(cmath.isfinite(x) for y in cols for x in y):
            raise DomainError(f"transport path meets a pole or overflows at {end}")
        z, nfev = end, nfev + used
        nodes.append(z)
    return _Walk(nodes, cols, nfev)


def _series(expansion: tuple, cols: list, tol: float) -> tuple:
    """The columns of the state at the end of a chord from their values
    `cols` at its start, and the number of terms.  The m columns share one
    state: term i is a block of the m^2 entries y_i, column by column, then
    the m^2 entries i y_i, after w zero blocks.  Entry r of column c of
    (k+1) y_(k+1) sums, for j = w-1 down to 0, row r of alpha_j times
    column c of y_(k-j), then -delta_(j+1) times entry r of (k-j) y_(k-j);
    each entry keeps only its nonzero coefficients and picks their partners
    by negative offset from the end of the state.  A product by an exact
    zero leaves a sum as it was, so every float is that of the sum over
    all coefficients, taken in the same order."""
    alpha, delta = expansion
    m = len(cols)
    mm, w = m * m, max(len(alpha), len(delta) - 1)
    alpha = alpha + [[]] * (w - len(alpha))
    gamma = [-d for d in delta[1:]]
    # row r: its nonzero coefficients, in the order of that sum, each with
    # the offset of its partner in column 0 of the state
    rows = [[(a, i - 2 * mm * (j + 1)) for j in reversed(range(w))
             for a, i in [*zip(alpha[j][r * m:r * m + m], range(m)),
                          *zip(gamma[j:j + 1], [mm + r])] if a != 0]
            for r in range(m)]
    entries = [([a for a, _ in row], _picker([i + c * m for _, i in row]))
               for c in range(m) for row in rows]
    span = 2 * mm * w
    state = [0j] * span + [x for y in cols for x in y] + [0j] * mm
    last, k = max(abs(x) for y in cols for x in y), 0
    while True:
        k += 1
        scaled = [sum(map(mul, coef, pick(state)), 0j) for coef, pick in entries]
        new = [s / k for s in scaled]
        state += new
        state += scaled
        size = max(map(abs, new))
        if last + size <= tol or not math.isfinite(size):
            return [[sum(state[span + c * m + r::2 * mm]) for r in range(m)]
                    for c in range(m)], k
        last = size


def _picker(offsets: list):
    """itemgetter(*offsets), a sequence also for one offset or none."""
    return itemgetter(*offsets) if len(offsets) > 1 else lambda s: [s[i] for i in offsets]


# ---------------------------------------------------------------------------
# m x m kernels on tuples of rows of complex numbers


def _rows(mat) -> tuple:
    """Any square matrix, rows first, as a tuple of rows of complex."""
    return tuple(tuple(map(complex, row)) for row in mat)


def _identity(m: int) -> tuple:
    return tuple(tuple(complex(i == j) for j in range(m)) for i in range(m))


def _matmul(a, b) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col), 0j) for col in cols) for row in a)


def _lu(a) -> tuple:
    """Row-pivoted LU: L below the diagonal (its unit diagonal implied) and
    U on and above it in one list of rows, the row order and the sign of
    the permutation.  A column that is zero from the diagonal down is
    passed over and leaves a zero pivot."""
    lu, m, sign = [list(row) for row in _rows(a)], len(a), 1
    order = list(range(m))
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(lu[i][k]))
        if p != k:
            lu[k], lu[p], order[k], order[p], sign = lu[p], lu[k], order[p], order[k], -sign
        pivot = lu[k][k]
        if pivot == 0:
            continue
        for row in lu[k + 1:]:
            f = row[k] = row[k] / pivot
            for j in range(k + 1, m):
                row[j] -= f * lu[k][j]
    return lu, order, sign


def _det(a) -> complex:
    lu, _, sign = _lu(a)
    return functools.reduce(mul, (lu[k][k] for k in range(len(lu))), complex(sign))


def _solve(a, b) -> tuple:
    """X with A X = B; an exactly zero pivot raises DomainError."""
    lu, order, _ = _lu(a)
    m = len(lu)
    if any(lu[k][k] == 0 for k in range(m)):
        raise DomainError(f"the {m} x {m} matrix to solve with is singular")
    b = _rows(b)
    x = [list(b[i]) for i in order]
    for i in range(m):
        for k in range(i):
            x[i] = [s - lu[i][k] * t for s, t in zip(x[i], x[k])]
    for i in reversed(range(m)):
        for k in range(i + 1, m):
            x[i] = [s - lu[i][k] * t for s, t in zip(x[i], x[k])]
        x[i] = [s / lu[i][i] for s in x[i]]
    return tuple(map(tuple, x))


def _hessenberg(a) -> list:
    """A unitarily similar upper Hessenberg matrix, by Householder
    reflections I - 2 v v^H / |v|^2 that clear each column below its
    subdiagonal."""
    h = [list(row) for row in _rows(a)]
    m = len(h)
    for k in range(m - 2):
        v = [h[i][k] for i in range(k + 1, m)]
        norm = math.hypot(*map(abs, v))
        if norm == 0:
            continue
        v[0] += norm * (v[0] / abs(v[0]) if v[0] else 1)
        scale = 2 / sum(abs(x) ** 2 for x in v)
        for j in range(k, m):  # from the left, on rows k+1..
            f = scale * sum(x.conjugate() * h[k + 1 + i][j] for i, x in enumerate(v))
            for i, x in enumerate(v):
                h[k + 1 + i][j] -= f * x
        for row in h:  # from the right, on columns k+1..
            f = scale * sum(row[k + 1 + i] * x for i, x in enumerate(v))
            for i, x in enumerate(v):
                row[k + 1 + i] -= f * x.conjugate()
        for i in range(k + 2, m):
            h[i][k] = 0j
    return h


_QR_SWEEPS = 30  # sweeps per eigenvalue before _eigvals gives up


def _eigvals(a) -> list:
    """The eigenvalues of a square matrix: Hessenberg reduction, then
    complex QR sweeps with the Wilkinson shift on the active block h[lo..hi]
    (Francis 1961; Golub & Van Loan, Matrix Computations, ch. 7).  A
    subdiagonal entry below eps times its two diagonal neighbours splits the
    block; each tenth sweep without a split takes an exceptional shift.
    No split after _QR_SWEEPS sweeps per eigenvalue raises DomainError."""
    h, eps = _hessenberg(a), sys.float_info.epsilon
    out, hi, sweeps = [], len(h) - 1, 0
    while hi >= 0:
        lo = hi
        while lo > 0 and not abs(h[lo][lo - 1]) <= eps * (
                abs(h[lo - 1][lo - 1]) + abs(h[lo][lo])
                or max(abs(x) for row in h for x in row)):
            lo -= 1
        if lo == hi:
            out.append(h[hi][hi])
            hi, sweeps = hi - 1, 0
            continue
        sweeps += 1
        if sweeps > _QR_SWEEPS * len(h):
            raise DomainError(f"the eigenvalues of a {len(h)} x {len(h)} matrix did "
                              f"not converge in {_QR_SWEEPS * len(h)} QR sweeps")
        p, q, r, d = h[hi - 1][hi - 1], h[hi - 1][hi], h[hi][hi - 1], h[hi][hi]
        if sweeps % 10 == 0:
            shift = d + 0.75 * abs(r)
        else:  # the eigenvalue of the trailing 2 x 2 block nearer to d
            half = (p - d) / 2
            root = cmath.sqrt(half * half + q * r)
            den = max(half + root, half - root, key=abs)
            shift = d - q * r / den if den else d
        for k in range(lo, hi + 1):
            h[k][k] -= shift
        turns = []
        for k in range(lo, hi):  # H - shift = QR by Givens rotations ...
            x, y = h[k][k], h[k + 1][k]
            n = math.hypot(abs(x), abs(y))
            c, s = (abs(x) / n, (x / abs(x) if x else 1) * y.conjugate() / n) if n else (1.0, 0j)
            turns.append((c, s))
            for j in range(k, hi + 1):
                u, w = h[k][j], h[k + 1][j]
                h[k][j], h[k + 1][j] = c * u + s * w, c * w - s.conjugate() * u
        for k, (c, s) in zip(range(lo, hi), turns):  # ... then RQ + shift
            for i in range(lo, k + 2):
                u, w = h[i][k], h[i][k + 1]
                h[i][k], h[i][k + 1] = c * u + s.conjugate() * w, c * w - s * u
        for k in range(lo, hi + 1):
            h[k][k] += shift
    return out


def _poly(roots) -> tuple:
    """The coefficients of prod (x - root), highest power first."""
    coeffs = [1 + 0j]
    for root in roots:
        coeffs = [a - root * b for a, b in zip(coeffs + [0j], [0j] + coeffs)]
    return tuple(coeffs)


def _transport(num: _NumericConnection, path, rtol: float, atol: float) -> tuple:
    """Y of `solve_ivp` at the end of the path, as a tuple of rows."""
    return tuple(zip(*solve_ivp(num, path, rtol, atol).y))


def _line(z0: complex, z1: complex):
    d = z1 - z0
    return lambda t: (z0 + t * d, d)


def _circle(center: complex, radius: float, start_angle: float):
    def path(t):
        e = radius * cmath.exp(1j * (start_angle + 2 * math.pi * t))
        return center + e, 2j * math.pi * e

    return path


def _check_tolerances(rtol: float, atol: float) -> None:
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (math.isfinite(tol) and tol > 0):
            raise DomainError(f"{name} must be finite and positive, got {tol}")
    if rtol < _RTOL_FLOOR:
        raise DomainError(f"rtol must be at least {_RTOL_FLOOR:.3g}, the "
                          f"double-precision floor of 100 machine epsilons, got {rtol}")


@dataclass(frozen=True)
class LoopSpec:
    center: complex
    radius: float
    base_point: complex | None = None

    def to_json(self) -> dict:
        out = {"center": document(self.center), "radius": self.radius}
        if self.base_point is not None:
            out["base_point"] = document(self.base_point)
        return out


@dataclass(frozen=True)
class MonodromyResult(Report):
    loop: LoopSpec
    matrix: tuple       # rows of complex
    char_poly: tuple    # complex, highest power first, length size+1
    eigenvalues: tuple  # sorted by real, then imaginary part (9 places)
    est_error: float


def _default_radius(poles: list, z: complex) -> float:
    """Half the distance from the pole z to the nearest other one, or 1."""
    dists = [abs(z - q) for q in poles if q != z]
    return min(dists) / 2.0 if dists else 1.0


def _loop_geometry(conn: LogConnection, point, radius) -> tuple:
    """The view, the pole to encircle as a float and the checked radius."""
    num, p = _NumericConnection(conn), scalar(point)
    if p not in num.points:
        raise DomainError(f"{p} is not a pole of the connection")
    z = num.poles[num.points.index(p)]
    r = _default_radius(num.poles, z) if radius is None else float(radius)
    return num, z, _check_radius(r, z)


def _check_radius(r: float, z: complex) -> float:
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"radius must be finite and positive, got {r}")
    if r <= _CLEARANCE:
        raise DomainError(f"the loop radius {r:.3g} around {z} is at or below the "
                          f"clearance {_CLEARANCE:.3g} that a path keeps from a pole")
    return r


def _base(base_point) -> complex:
    try:
        b = complex(base_point)
    except OverflowError:
        raise DomainError("base point is out of double range") from None
    if not cmath.isfinite(b):
        raise DomainError(f"base point must be finite, got {b}")
    return b


def _segment_distance(b: complex, end: complex, q: complex) -> float:
    seg = end - b
    if seg == 0:
        return abs(q - b)
    t = max(0.0, min(1.0, ((q - b) * seg.conjugate()).real / abs(seg) ** 2))
    return abs(b + t * seg - q)


def _lollipop(center: complex, radius: float, b: complex, poles) -> tuple:
    """The leg from b straight to the circle and the circle once around, as
    (leg, circle); the loop returns along the leg, which _loop solves for
    instead of integrating.  Refuses a base point inside the circle and
    a straight leg passing within _CLEARANCE of one of `poles`."""
    d = b - center
    if abs(d) <= radius:
        raise DomainError("base point sits inside the loop")
    start = center + radius * d / abs(d)
    for q in poles:
        if _segment_distance(b, start, q) <= _CLEARANCE:
            raise DomainError(f"the straight leg from the base point {b} to the "
                              f"loop around {center} passes through the pole {q}")
    return _line(b, start), _circle(center, radius, cmath.phase(d))


def _loop(num: _NumericConnection, center: complex, radius: float,
          base: complex | None, rtol: float, atol: float) -> MonodromyResult:
    """The one loop routine: the circle alone from angle 0 when `base` is
    None, else the anchored loop of `_lollipop`, its leg integrated once
    and the way back, the inverse of the way in, solved for."""
    if base is None:
        mat = _transport(num, _circle(center, radius, 0.0), rtol, atol)
    else:
        leg, circle = _lollipop(center, radius, base, num.poles)
        inward = _transport(num, leg, rtol, atol)
        around = _transport(num, circle, rtol, atol)
        mat = _solve(inward, _matmul(around, inward))
    mat = tuple(zip(*mat))  # back from the column form to the row-section action
    loop = LoopSpec(center=center, radius=radius, base_point=base)
    eigenvalues = tuple(sorted(_eigvals(mat),
                               key=lambda w: (round(w.real, 9), round(w.imag, 9))))
    err = abs(_det(mat) - num.det_reference(center, radius))
    return MonodromyResult(loop=loop, matrix=mat, char_poly=_poly(eigenvalues),
                           eigenvalues=eigenvalues, est_error=err)


def monodromy(conn: LogConnection, point, radius: float | None = None,
              rtol: float = _RTOL, atol: float = _ATOL) -> MonodromyResult:
    """Counterclockwise transport around one singular point.

    The default radius is half the distance to the nearest other pole, so
    the circle encloses nothing else.
    """
    _check_tolerances(rtol, atol)
    num, center, r = _loop_geometry(conn, point, radius)
    return _loop(num, center, r, None, rtol, atol)


def anchored_monodromy(conn: LogConnection, point, base_point: complex,
                       radius: float | None = None,
                       rtol: float = _RTOL, atol: float = _ATOL) -> MonodromyResult:
    """Loop from the base point: straight in, once around, straight back."""
    _check_tolerances(rtol, atol)
    num, center, r = _loop_geometry(conn, point, radius)
    return _loop(num, center, r, _base(base_point), rtol, atol)


@dataclass(frozen=True)
class ApparentNumericReport(Report):
    ok: bool
    identity_distance: float
    char_poly_distance: float
    tol: float = _APPARENT_TOL


def is_apparent_numeric(matrix) -> ApparentNumericReport:
    """Trivial-monodromy test: the matrix must be close to the identity AND
    its characteristic polynomial close to (x - 1)^size.  The second check
    alone would also accept unipotent matrices, so both are required."""
    mat = _rows(matrix)
    m = len(mat)
    ident = max(abs(x - y) for r, e in zip(mat, _identity(m)) for x, y in zip(r, e))
    want = [math.comb(m, k) * (-1.0) ** k for k in range(m + 1)]
    cp = max(abs(x - y) for x, y in zip(_poly(_eigvals(mat)), want))
    return ApparentNumericReport(ok=ident <= _APPARENT_TOL and cp <= _APPARENT_TOL,
                                 identity_distance=ident, char_poly_distance=cp)


# ---------------------------------------------------------------------------
# global structure


@dataclass(frozen=True)
class GlobalMonodromy(Report):
    base_point: complex
    order_of_loops: tuple     # pole indices sorted by departure angle
    loops: tuple              # MonodromyResult per pole, same order
    product: tuple            # right-to-left over the loop order
    outer: MonodromyResult    # one loop around everything, same base
    closure_error: float      # max |product - outer matrix|
    scale: float              # largest entry met; judge closure_error against it


def _plan_loops(poles) -> tuple:
    """Base point plus one loop radius per pole, with every sight line from
    the base staying clear of every other loop (so the composed lollipops
    are homotopic to one outer circle).  Two poles within twice
    _CLEARANCE of each other leave no loop room around either."""
    for p, q in itertools.combinations(poles, 2):
        if abs(p - q) <= 2 * _CLEARANCE:
            raise DomainError(f"the poles {p} and {q} are closer than twice the "
                              f"clearance {_CLEARANCE:.3g} that a path keeps from a pole")
    lo = min(z.real for z in poles)
    hi = max(z.real for z in poles)
    bot = min(z.imag for z in poles)
    top = max(z.imag for z in poles)
    span = max(hi - lo, top - bot, 1.0)
    for shift in (0.0, 0.37 * span, -0.29 * span, 0.61 * span, -0.53 * span):
        b = complex((lo + hi) / 2 + shift, bot - 2 * span - 3)
        clearance = [math.inf] * len(poles)
        for i, p in enumerate(poles):
            for k, q in enumerate(poles):
                if k != i:
                    clearance[k] = min(clearance[k], _segment_distance(b, p, q))
        if all(c > _CLEARANCE for c in clearance):
            radii = [min(0.8 * _default_radius(poles, p), 0.45 * c)
                     for p, c in zip(poles, clearance)]
            return b, radii
    raise DomainError("could not place a base point with clear sight lines")


def global_product(conn: LogConnection, base_point: complex | None = None,
                   rtol: float = _RTOL, atol: float = _ATOL) -> GlobalMonodromy:
    """Anchored loops around every finite pole, composed in departure-angle
    order, against a single outer loop around everything.

    The product runs right-to-left: the smallest-angle loop acts first.
    For a connection with no pole at infinity the two transports agree up
    to integration error; `closure_error` reports the gap.
    """
    _check_tolerances(rtol, atol)
    return _global(_NumericConnection(conn), base_point, rtol, atol)


def _global(num: _NumericConnection, base_point, rtol: float, atol: float) -> GlobalMonodromy:
    """`global_product` on the view."""
    poles = num.poles
    if not poles:
        raise DomainError("connection has no finite poles to encircle")
    if base_point is not None:
        b = _base(base_point)
        radii = [_default_radius(poles, z) for z in poles]
    else:
        b, radii = _plan_loops(poles)
    center = complex(sum(poles) / len(poles))
    outer_radius = max(abs(p - center) for p in poles) + 1.0
    if abs(b - center) <= outer_radius:
        raise DomainError("base point sits inside the outer loop")
    for p, r in zip(poles, radii):  # every loop is checked before any transport
        _lollipop(p, _check_radius(r, p), b, poles)
    results = [_loop(num, p, r, b, rtol, atol) for p, r in zip(poles, radii)]
    # departure angles are measured from the direction of the outer center:
    # the base sees the whole outer circle, and so every pole, within a
    # quarter turn of it, far from the branch cut of the phase at +-pi
    order = sorted(range(len(poles)),
                   key=lambda i: cmath.phase((poles[i] - b) / (center - b)))
    # rows compose left-to-right along the path, so the smallest departure
    # angle sits leftmost and the rightmost factor acts first
    product = _identity(num.size)
    for i in order:
        product = _matmul(product, results[i].matrix)
    outer = _loop(num, center, outer_radius, b, rtol, atol)
    closure = max(abs(x - y) for r, s in zip(product, outer.matrix) for x, y in zip(r, s))
    scale = max([abs(x) for r in [*results, outer] for row in r.matrix for x in row]
                + [1.0])
    return GlobalMonodromy(base_point=b, order_of_loops=tuple(order),
                           loops=tuple(results), product=product,
                           outer=outer, closure_error=closure, scale=scale)


# ---------------------------------------------------------------------------
# families


def word_traces(matrices) -> tuple:
    """The trace of every word of length 1 to 3 in the letters M_1, M_1^-1,
    M_2, ..., shorter words first; a common conjugation leaves them fixed."""
    mats = [_rows(mat) for mat in matrices]
    letters = [x for mat in mats for x in (mat, _solve(mat, _identity(len(mat))))]
    return tuple(sum(row[i] for i, row in enumerate(functools.reduce(_matmul, word)))
                 for length in (1, 2, 3)
                 for word in itertools.product(letters, repeat=length))


@dataclass(frozen=True)
class SweepResult(Report):
    count: int
    base_point: complex
    words: int              # trace words compared per member
    max_drift: float        # largest deviation from the first member's traces
    closure_rel_max: float  # the members' worst closure_error / scale


def isomonodromy_sweep(operators, rtol: float = _RTOL, atol: float = _ATOL) -> SweepResult:
    """Drift of the `word_traces` of the members' loops around their real
    points, matched by point.  One base point, planned on the union of all
    members' poles, serves every member.  Loops around the listed apparent
    points must pass `is_apparent_numeric` and are left out.  For m = 2
    the words fix an irreducible tuple up to conjugation (Fricke); for
    m >= 3 a drift disproves isomonodromy, a small one proves nothing."""
    _check_tolerances(rtol, atol)
    ops = list(operators)
    if not ops:
        raise DomainError("empty operator family")
    points = ops[0].real_points
    if any(set(op.real_points) != set(points) for op in ops):
        raise DomainError("the members of a family must have the same real points")
    nums = [_NumericConnection(build_companion(op)) for op in ops]
    poles = {z for num in nums for z in num.poles}
    if not poles:
        raise DomainError("the family has no finite poles to encircle")
    base = _plan_loops(list(poles))[0]
    traces, closure = [], 0.0
    for op, num in zip(ops, nums):
        g = _global(num, base, rtol, atol)
        loops = {p: r.matrix for p, r in zip(num.points, g.loops)}
        for p in op.apparent_points:
            if not is_apparent_numeric(loops[p]).ok:
                raise DomainError(f"the loop around the apparent point {p} is not trivial")
        traces.append(word_traces([loops[p] for p in points]))
        closure = max(closure, g.closure_error / g.scale)
    drift = max(max((abs(x - y) for x, y in zip(t, traces[0])), default=0.0)
                for t in traces)
    return SweepResult(count=len(ops), base_point=base, words=len(traces[0]),
                       max_drift=drift, closure_rel_max=closure)
