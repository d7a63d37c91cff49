"""Numeric transport around singular points.

Everything else in the package is exact; this module is the one numeric
layer.  Flat row sections satisfy w' = w B, so the column form u' = B(z)^T u
is integrated with a high-order Runge-Kutta scheme along circles and
anchored loops.  Counterclockwise transport around a point with local
exponent mu produces the eigenvalue exp(+2 pi i mu).

The right-hand side is evaluated from one common-denominator stack.  The
numeric view writes B = N / L exactly, where L is the monic lcm of the
entry denominators (for a companion connection it divides psi) and N is a
polynomial matrix.  The coefficients of N are kept as one complex array of
shape (deg N + 1, m, m), highest power first and already transposed, so an
evaluation of B(z)^T is one Horner pass over that stack, one scalar Horner
pass for L(z) and one division.

Each result carries a self-diagnosed error estimate: the determinant of the
transport matrix is compared against the exponential of the exact trace
residues of every pole inside the loop, which the exact layer supplies for
free.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .algebra import Polynomial, poly_gcd, scalar
from .connection import LogConnection
from .operator import DomainError

_RTOL = 1e-11
_ATOL = 1e-13


def _to_complex(g) -> complex:
    return complex(float(g.re), float(g.im))


class _NumericConnection:
    """Complex-coefficient view of the connection matrix over one common
    denominator, Horner-ready (see the module docstring)."""

    def __init__(self, conn: LogConnection):
        m = self.size = conn.size
        entries = [conn.matrix.entry(i, j) for i in range(m) for j in range(m)]
        den = Polynomial.one()
        for rf in entries:
            den = den * rf.den.exact_div(poly_gcd(den, rf.den))
        nums = [rf.num * den.exact_div(rf.den) for rf in entries]
        deg = max(max(n.degree() for n in nums), 0)
        stack = np.zeros((deg + 1, m, m), dtype=complex)
        for idx, n in enumerate(nums):
            i, j = divmod(idx, m)
            for k, c in enumerate(n.coeffs):
                stack[deg - k, j, i] = _to_complex(c)
        self._stack = stack
        self._den = [_to_complex(c) for c in reversed(den.coeffs)]

    def at(self, z: complex) -> np.ndarray:
        """B(z)^T, the matrix of the column form u' = B^T u."""
        den = 0j
        for c in self._den:
            den = den * z + c
        if den == 0 or not cmath.isfinite(den):
            raise DomainError(f"transport path meets a pole or overflows at {z}")
        acc = self._stack[0]
        for c in self._stack[1:]:
            acc = acc * z + c
        return acc / den


def _transport(num: _NumericConnection, segments, rtol: float, atol: float) -> np.ndarray:
    """Chain the fundamental solution of u' = B^T u along parametrized
    segments; each segment maps t in [0, 1] to (z(t), dz/dt(t))."""
    m = num.size
    u = np.eye(m, dtype=complex).reshape(-1)

    for path in segments:
        def rhs(t, y):
            z, dz = path(t)
            return (num.at(z) @ y.reshape(m, m)).reshape(-1) * dz

        sol = solve_ivp(rhs, (0.0, 1.0), u, method="DOP853",
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise DomainError(f"transport integration failed: {sol.message}")
        u = sol.y[:, -1]
    return u.reshape(m, m)


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


@dataclass(frozen=True)
class LoopSpec:
    center: complex
    radius: float
    base_point: complex | None = None

    def to_json(self) -> dict:
        out = {"center": [self.center.real, self.center.imag],
               "radius": self.radius}
        if self.base_point is not None:
            out["base_point"] = [self.base_point.real, self.base_point.imag]
        return out


@dataclass(frozen=True)
class MonodromyResult:
    loop: LoopSpec
    matrix: np.ndarray
    char_poly: np.ndarray    # highest power first, length size+1
    eigenvalues: np.ndarray
    est_error: float

    def to_json(self) -> dict:
        def cx(v):
            return [float(np.real(v)), float(np.imag(v))]

        return {
            "loop": self.loop.to_json(),
            "matrix": [[cx(v) for v in row] for row in self.matrix],
            "char_poly": [cx(v) for v in self.char_poly],
            "eigenvalues": [cx(v) for v in sorted(
                self.eigenvalues, key=lambda w: (round(np.real(w), 9),
                                                 round(np.imag(w), 9)))],
            "est_error": self.est_error,
        }


def _det_reference(conn: LogConnection, loop: LoopSpec) -> complex:
    """exp of the loop integral of tr B, from the exact residues at every
    pole strictly inside the loop's circle."""
    total = scalar(0)
    for p in conn.pole_points:
        if abs(_to_complex(p) - loop.center) < loop.radius:
            for i in range(conn.size):
                total = total + conn.matrix.entry(i, i).residue_at(p)
    return cmath.exp(2j * math.pi * _to_complex(total))


def _default_radius(conn: LogConnection, p) -> float:
    z = _to_complex(p)
    dists = [abs(z - _to_complex(q)) for q in conn.pole_points if q != p]
    return min(dists) / 2.0 if dists else 1.0


def _loop_geometry(conn: LogConnection, point, radius) -> tuple:
    """The complex value of the pole to encircle and the checked radius."""
    p = scalar(point)
    if p not in conn.pole_points:
        raise DomainError(f"{p} is not a pole of the connection")
    r = _default_radius(conn, p) if radius is None else float(radius)
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"radius must be finite and positive, got {r}")
    return _to_complex(p), r


def _base(base_point) -> complex:
    b = complex(base_point)
    if not cmath.isfinite(b):
        raise DomainError(f"base point must be finite, got {b}")
    return b


def _lollipop(center: complex, radius: float, b: complex) -> list:
    """Segments from b straight to the circle, once around, and back."""
    d = b - center
    start = center + radius * d / abs(d)
    return [_line(b, start), _circle(center, radius, cmath.phase(d)),
            _line(start, b)]


def _finish(conn: LogConnection, loop: LoopSpec,
            mat: np.ndarray) -> MonodromyResult:
    err = abs(complex(np.linalg.det(mat)) - _det_reference(conn, loop))
    return MonodromyResult(loop=loop, matrix=mat,
                           char_poly=np.poly(mat),
                           eigenvalues=np.linalg.eigvals(mat),
                           est_error=float(err))


def monodromy(conn: LogConnection, point, radius: float | None = None,
              rtol: float = _RTOL, atol: float = _ATOL) -> MonodromyResult:
    """Counterclockwise transport around one singular point.

    The default radius is half the distance to the nearest other pole, so
    the circle encloses nothing else.
    """
    _check_tolerances(rtol, atol)
    center, r = _loop_geometry(conn, point, radius)
    mat = _transport(_NumericConnection(conn), [_circle(center, r, 0.0)],
                     rtol, atol)
    # transpose back to the row-section action
    return _finish(conn, LoopSpec(center=center, radius=r), mat.T)


def anchored_monodromy(conn: LogConnection, point, base_point: complex,
                       radius: float | None = None,
                       rtol: float = _RTOL, atol: float = _ATOL, *,
                       numeric: _NumericConnection | None = None) -> MonodromyResult:
    """Loop from the base point: straight in, once around, straight back.

    `numeric` is a numeric view of `conn` built by the caller, so that
    several loops on one connection share it.
    """
    _check_tolerances(rtol, atol)
    center, r = _loop_geometry(conn, point, radius)
    b = _base(base_point)
    if abs(b - center) <= r:
        raise DomainError("base point sits inside the loop")
    num = _NumericConnection(conn) if numeric is None else numeric
    mat = _transport(num, _lollipop(center, r, b), rtol, atol).T
    return _finish(conn, LoopSpec(center=center, radius=r, base_point=b), mat)


@dataclass(frozen=True)
class ApparentNumericReport:
    ok: bool
    identity_distance: float
    char_poly_distance: float
    tol: float

    def to_json(self) -> dict:
        return {"ok": self.ok, "identity_distance": self.identity_distance,
                "char_poly_distance": self.char_poly_distance, "tol": self.tol}


def is_apparent_numeric(matrix: np.ndarray, tol: float = 1e-6) -> ApparentNumericReport:
    """Trivial-monodromy test: the matrix must be close to the identity AND
    its characteristic polynomial close to (x - 1)^size.  The second check
    alone would also accept unipotent matrices, so both are required."""
    mat = np.asarray(matrix, dtype=complex)
    m = mat.shape[0]
    ident = float(np.max(np.abs(mat - np.eye(m))))
    want = np.array([math.comb(m, k) * (-1.0) ** k for k in range(m + 1)],
                    dtype=complex)
    cp = float(np.max(np.abs(np.poly(mat) - want)))
    return ApparentNumericReport(ok=ident <= tol and cp <= tol,
                                 identity_distance=ident,
                                 char_poly_distance=cp, tol=tol)


# ---------------------------------------------------------------------------
# global structure


@dataclass(frozen=True)
class GlobalMonodromy:
    base_point: complex
    order_of_loops: tuple     # pole indices sorted by departure angle
    loops: tuple              # MonodromyResult per pole, same order
    product: np.ndarray       # right-to-left over the loop order
    outer: MonodromyResult    # one loop around everything, same base
    closure_error: float      # max |product - outer matrix|
    scale: float              # largest entry met along the way; cancellation
                              # makes closure_error meaningful only against it

    def to_json(self) -> dict:
        def cx(v):
            return [float(np.real(v)), float(np.imag(v))]

        return {
            "base_point": [self.base_point.real, self.base_point.imag],
            "order_of_loops": list(self.order_of_loops),
            "loops": [r.to_json() for r in self.loops],
            "product": [[cx(v) for v in row] for row in self.product],
            "outer": self.outer.to_json(),
            "closure_error": self.closure_error,
            "scale": self.scale,
        }


def _segment_distance(b: complex, end: complex, q: complex) -> float:
    seg = end - b
    if seg == 0:
        return abs(q - b)
    t = max(0.0, min(1.0, ((q - b) * seg.conjugate()).real / abs(seg) ** 2))
    return abs(b + t * seg - q)


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
        if all(c > 1e-9 for c in clearance):
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
    poles = [_to_complex(p) for p in conn.pole_points]
    if base_point is not None:
        b = _base(base_point)
        radii = [_default_radius(conn, p) for p in conn.pole_points]
    else:
        b, radii = _plan_loops(poles)
    center = complex(sum(poles) / len(poles))
    outer_radius = max(abs(p - center) for p in poles) + 1.0
    if abs(b - center) <= outer_radius:
        raise DomainError("base point sits inside the outer loop")
    num = _NumericConnection(conn)
    results = [anchored_monodromy(conn, p, b, radius=r, rtol=rtol, atol=atol,
                                  numeric=num)
               for p, r in zip(conn.pole_points, radii)]
    order = sorted(range(len(poles)),
                   key=lambda i: cmath.phase(poles[i] - b))
    # rows compose left-to-right along the path, so the smallest departure
    # angle sits leftmost and the rightmost factor acts first
    product = np.eye(conn.size, dtype=complex)
    for i in order:
        product = product @ results[i].matrix
    outer_mat = _transport(num, _lollipop(center, outer_radius, b), rtol, atol).T
    outer = _finish(conn, LoopSpec(center=center, radius=outer_radius,
                                   base_point=b), outer_mat)
    ordered = tuple(int(i) for i in order)
    closure = float(np.max(np.abs(product - outer.matrix)))
    scale = max([float(np.max(np.abs(r.matrix))) for r in results]
                + [float(np.max(np.abs(outer.matrix))), 1.0])
    return GlobalMonodromy(base_point=b, order_of_loops=ordered,
                           loops=tuple(results), product=product,
                           outer=outer, closure_error=closure, scale=scale)


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class SweepResult:
    count: int
    point: str | None         # None means the global product was compared
    char_polys: tuple         # one coefficient tuple per sample
    max_drift: float          # largest deviation from the first sample

    def to_json(self) -> dict:
        def cx(v):
            return [float(np.real(v)), float(np.imag(v))]

        return {"count": self.count, "point": self.point,
                "char_polys": [[cx(v) for v in cp] for cp in self.char_polys],
                "max_drift": self.max_drift}


def isomonodromy_sweep(operators, point=None, rtol: float = _RTOL,
                       atol: float = _ATOL) -> SweepResult:
    """Characteristic-polynomial drift across a family of operators.

    With a point given, the loop runs around that point of each member;
    otherwise each member's global product is used.  Members of an
    isomonodromic family should show drift at the integration-error level.
    """
    from .connection import build_companion

    _check_tolerances(rtol, atol)
    ops = list(operators)
    if not ops:
        raise DomainError("empty operator family")
    cps = []
    for op in ops:
        conn = build_companion(op)
        if point is not None:
            res = monodromy(conn, point, rtol=rtol, atol=atol)
            cps.append(tuple(res.char_poly))
        else:
            glob = global_product(conn, rtol=rtol, atol=atol)
            cps.append(tuple(np.poly(glob.product)))
    base = np.array(cps[0])
    drift = 0.0
    for cp in cps[1:]:
        drift = max(drift, float(np.max(np.abs(np.array(cp) - base))))
    return SweepResult(count=len(ops),
                       point=None if point is None else str(scalar(point)),
                       char_polys=tuple(cps), max_drift=drift)
