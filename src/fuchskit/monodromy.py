"""Numeric transport around singular points.

Everything else in the package is exact; this module is the one numeric
layer.  Flat row sections satisfy w' = w B, so the column form u' = B(z)^T u
is integrated along circles and anchored loops by Taylor series in Python
complex numbers (`solve_ivp`; Chudnovsky & Chudnovsky 1990, van der Hoeven
1999).  Counterclockwise transport around a point with local exponent mu
produces the eigenvalue exp(+2 pi i mu).

The series follow from the connection's own form B = A/D, one polynomial
matrix A over one monic polynomial D: D u' = A^T u is a recurrence in the
coefficients of A and D, shifted once to each node of the path.  numpy
only handles the results: per loop one solve, the eigenvalues, the
characteristic polynomial and the determinant, and the traces of words in
the loops of a family.  One routine, `_loop`, builds every loop.

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
from operator import mul

import numpy as np

from .algebra import Report, document, scalar
from .connection import LogConnection, build_companion, residue_matrix
from .operator import _ATOL, _RTOL, DomainError

_RTOL_FLOOR = 100 * sys.float_info.epsilon  # below it rounding, not rtol, sets the error
_CLEARANCE = 1e-9  # closest a straight leg or a node of a walk may come to a pole
_APPARENT_TOL = 1e-6  # largest distance at which a loop still counts as trivial


class _NumericConnection:
    """Complex view of the connection A/D: the coefficients of A^T, each
    flattened row-major, and of D, lowest power first, and the poles."""

    def __init__(self, conn: LogConnection):
        m = self.size = conn.size
        deg = max(max(a.degree() for row in conn.num.rows for a in row), 0)
        flat = [[0j] * (m * m) for _ in range(deg + 1)]
        for i, row in enumerate(conn.num.rows):
            for j, a in enumerate(row):
                for k, c in enumerate(a.coeffs):
                    flat[k][j * m + i] = complex(c)
        self._num = flat
        self._den = [[complex(c)] for c in conn.den.coeffs]
        self.poles = [complex(p) for p in conn.pole_points]

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
    `cols` at its start, and the number of terms.  A column keeps its terms
    as blocks (y_i, i y_i); row r holds, for j = w-1 down to 0, row r of
    alpha_j and -delta_(j+1) in place r, so that entry r of (k+1) y_{k+1}
    is one dot product with the last w blocks."""
    alpha, delta = expansion
    m = len(cols)
    w = max(len(alpha), len(delta) - 1)
    alpha = alpha + [[0j] * (m * m)] * (w - len(alpha))
    gamma = delta[1:] + [0j] * (w + 1 - len(delta))
    rows = [[x for j in reversed(range(w)) for x in alpha[j][r * m:r * m + m]
             + [-gamma[j] if c == r else 0j for c in range(m)]] for r in range(m)]
    span = 2 * m * w
    terms = [[0j] * span + y + [0j] * m for y in cols]  # w zero blocks first
    last, k = max(abs(x) for y in cols for x in y), 0
    while True:
        k += 1
        size = 0.0
        for col in terms:
            scaled = [sum(map(mul, row, col[-span:])) for row in rows]
            new = [s / k for s in scaled]
            col += new
            col += scaled
            size = max(size, *map(abs, new))
        if last + size <= tol or not math.isfinite(size):
            return [[sum(col[span + r::2 * m]) for r in range(m)] for col in terms], k
        last = size


def _transport(num: _NumericConnection, path, rtol: float, atol: float) -> np.ndarray:
    """Y of `solve_ivp` at the end of the path, as an m x m array."""
    return np.array(solve_ivp(num, path, rtol, atol).y).T


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
    matrix: np.ndarray
    char_poly: np.ndarray    # complex, highest power first, length size+1
    eigenvalues: np.ndarray  # sorted by real, then imaginary part (9 places)
    est_error: float


def _det_reference(conn: LogConnection, loop: LoopSpec) -> complex:
    """exp of the loop integral of tr B, from the exact residues at every
    pole strictly inside the loop's circle."""
    total = scalar(0)
    for p in conn.pole_points:
        if abs(complex(p) - loop.center) < loop.radius:
            total = total + residue_matrix(conn, p)[0].trace()
    return cmath.exp(2j * math.pi * complex(total))


def _default_radius(conn: LogConnection, p) -> float:
    z = complex(p)
    dists = [abs(z - complex(q)) for q in conn.pole_points if q != p]
    return min(dists) / 2.0 if dists else 1.0


def _loop_geometry(conn: LogConnection, point, radius) -> tuple:
    """The complex value of the pole to encircle and the checked radius."""
    p = scalar(point)
    if p not in conn.pole_points:
        raise DomainError(f"{p} is not a pole of the connection")
    r = _default_radius(conn, p) if radius is None else float(radius)
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"radius must be finite and positive, got {r}")
    return complex(p), r


def _base(base_point) -> complex:
    b = complex(base_point)
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


def _loop(conn: LogConnection, center: complex, radius: float,
          base: complex | None, rtol: float, atol: float) -> MonodromyResult:
    """The one loop routine: the circle alone from angle 0 when `base` is
    None, else the anchored loop of `_lollipop`, its leg integrated once
    and the way back, the inverse of the way in, solved for."""
    num = _NumericConnection(conn)
    if base is None:
        mat = _transport(num, _circle(center, radius, 0.0), rtol, atol)
    else:
        leg, circle = _lollipop(center, radius, base,
                                [complex(q) for q in conn.pole_points])
        inward = _transport(num, leg, rtol, atol)
        around = _transport(num, circle, rtol, atol)
        mat = np.linalg.solve(inward, around @ inward)
    mat = mat.T  # back from the column form to the row-section action
    loop = LoopSpec(center=center, radius=radius, base_point=base)
    eigenvalues = sorted(np.linalg.eigvals(mat),
                         key=lambda w: (round(w.real, 9), round(w.imag, 9)))
    err = abs(complex(np.linalg.det(mat)) - _det_reference(conn, loop))
    return MonodromyResult(loop=loop, matrix=mat,
                           char_poly=np.poly(mat).astype(complex),
                           eigenvalues=np.array(eigenvalues),
                           est_error=float(err))


def monodromy(conn: LogConnection, point, radius: float | None = None,
              rtol: float = _RTOL, atol: float = _ATOL) -> MonodromyResult:
    """Counterclockwise transport around one singular point.

    The default radius is half the distance to the nearest other pole, so
    the circle encloses nothing else.
    """
    _check_tolerances(rtol, atol)
    center, r = _loop_geometry(conn, point, radius)
    return _loop(conn, center, r, None, rtol, atol)


def anchored_monodromy(conn: LogConnection, point, base_point: complex,
                       radius: float | None = None,
                       rtol: float = _RTOL, atol: float = _ATOL) -> MonodromyResult:
    """Loop from the base point: straight in, once around, straight back."""
    _check_tolerances(rtol, atol)
    center, r = _loop_geometry(conn, point, radius)
    return _loop(conn, center, r, _base(base_point), rtol, atol)


@dataclass(frozen=True)
class ApparentNumericReport(Report):
    ok: bool
    identity_distance: float
    char_poly_distance: float
    tol: float = _APPARENT_TOL


def is_apparent_numeric(matrix: np.ndarray) -> ApparentNumericReport:
    """Trivial-monodromy test: the matrix must be close to the identity AND
    its characteristic polynomial close to (x - 1)^size.  The second check
    alone would also accept unipotent matrices, so both are required."""
    mat = np.asarray(matrix, dtype=complex)
    m = mat.shape[0]
    ident = float(np.max(np.abs(mat - np.eye(m))))
    want = np.array([math.comb(m, k) * (-1.0) ** k for k in range(m + 1)],
                    dtype=complex)
    cp = float(np.max(np.abs(np.poly(mat) - want)))
    return ApparentNumericReport(ok=ident <= _APPARENT_TOL and cp <= _APPARENT_TOL,
                                 identity_distance=ident, char_poly_distance=cp)


# ---------------------------------------------------------------------------
# global structure


@dataclass(frozen=True)
class GlobalMonodromy(Report):
    base_point: complex
    order_of_loops: tuple     # pole indices sorted by departure angle
    loops: tuple              # MonodromyResult per pole, same order
    product: np.ndarray       # right-to-left over the loop order
    outer: MonodromyResult    # one loop around everything, same base
    closure_error: float      # max |product - outer matrix|
    scale: float              # largest entry met; judge closure_error against it


def _plan_loops(poles) -> tuple:
    """Base point plus one loop radius per pole, with every sight line from
    the base staying clear of every other loop (so the composed lollipops
    are homotopic to one outer circle)."""
    lo = min(z.real for z in poles)
    hi = max(z.real for z in poles)
    bot = min(z.imag for z in poles)
    top = max(z.imag for z in poles)
    span = max(hi - lo, top - bot, 1.0)
    nearest = []
    for i, p in enumerate(poles):
        d = [abs(p - q) for j, q in enumerate(poles) if j != i]
        nearest.append(min(d) if d else 2.0)
    for shift in (0.0, 0.37 * span, -0.29 * span, 0.61 * span, -0.53 * span):
        b = complex((lo + hi) / 2 + shift, bot - 2 * span - 3)
        clearance = [math.inf] * len(poles)
        for i, p in enumerate(poles):
            for k, q in enumerate(poles):
                if k != i:
                    clearance[k] = min(clearance[k], _segment_distance(b, p, q))
        if all(c > _CLEARANCE for c in clearance):
            radii = [min(0.4 * nearest[i], 0.45 * clearance[i])
                     for i in range(len(poles))]
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
    if not conn.pole_points:
        raise DomainError("connection has no finite poles to encircle")
    poles = [complex(p) for p in conn.pole_points]
    if base_point is not None:
        b = _base(base_point)
        radii = [_default_radius(conn, p) for p in conn.pole_points]
    else:
        b, radii = _plan_loops(poles)
    center = complex(sum(poles) / len(poles))
    outer_radius = max(abs(p - center) for p in poles) + 1.0
    if abs(b - center) <= outer_radius:
        raise DomainError("base point sits inside the outer loop")
    for p, r in zip(poles, radii):  # every leg is checked before any transport
        _lollipop(p, r, b, poles)
    results = [anchored_monodromy(conn, p, b, radius=r, rtol=rtol, atol=atol)
               for p, r in zip(conn.pole_points, radii)]
    # departure angles are measured from the direction of the outer center:
    # the base sees the whole outer circle, and so every pole, within a
    # quarter turn of it, far from the branch cut of the phase at +-pi
    order = sorted(range(len(poles)),
                   key=lambda i: cmath.phase((poles[i] - b) / (center - b)))
    # rows compose left-to-right along the path, so the smallest departure
    # angle sits leftmost and the rightmost factor acts first
    product = np.eye(conn.size, dtype=complex)
    for i in order:
        product = product @ results[i].matrix
    outer = _loop(conn, center, outer_radius, b, rtol, atol)
    closure = float(np.max(np.abs(product - outer.matrix)))
    scale = max([float(np.max(np.abs(r.matrix))) for r in results]
                + [float(np.max(np.abs(outer.matrix))), 1.0])
    return GlobalMonodromy(base_point=b, order_of_loops=tuple(order),
                           loops=tuple(results), product=product,
                           outer=outer, closure_error=closure, scale=scale)


# ---------------------------------------------------------------------------
# families


def word_traces(matrices) -> np.ndarray:
    """The trace of every word of length 1 to 3 in the letters M_1, M_1^-1,
    M_2, ..., shorter words first; a common conjugation leaves them fixed."""
    letters = [x for mat in matrices for x in (mat, np.linalg.inv(mat))]
    return np.array([np.trace(functools.reduce(np.matmul, word))
                     for length in (1, 2, 3)
                     for word in itertools.product(letters, repeat=length)], dtype=complex)


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
    conns = [build_companion(op) for op in ops]
    poles = {complex(p) for conn in conns for p in conn.pole_points}
    if not poles:
        raise DomainError("the family has no finite poles to encircle")
    base = _plan_loops(list(poles))[0]
    traces, closure = [], 0.0
    for op, conn in zip(ops, conns):
        g = global_product(conn, base_point=base, rtol=rtol, atol=atol)
        loops = {p: r.matrix for p, r in zip(conn.pole_points, g.loops)}
        for p in op.apparent_points:
            if not is_apparent_numeric(loops[p]).ok:
                raise DomainError(f"the loop around the apparent point {p} is not trivial")
        traces.append(word_traces([loops[p] for p in points]))
        closure = max(closure, g.closure_error / g.scale)
    drift = max(float(np.max(np.abs(t - traces[0]), initial=0.0)) for t in traces)
    return SweepResult(count=len(ops), base_point=base, words=len(traces[0]),
                       max_drift=drift, closure_rel_max=closure)
