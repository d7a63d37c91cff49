"""Reference routes for the tests, kept apart from the package.

They work entry by entry on reduced rational functions, each result the
`RationalFunction.make` of the naive numerator/denominator pair, the way
the package computed before connections, gauges and cyclic towers became
polynomials over one denominator, so the tests can hold the package's
fast paths against them.  `block_diagonal` pads the constraint blocks into
one matrix, so that its rank can be held against the sum of the block ranks.
`series_dense` is the Taylor recurrence of the numeric stepper on dense
rows, one column at a time, for bit-for-bit tests of `monodromy._series`.
"""
import math
import operator

from fuchskit.algebra import (
    ZERO,
    AlgebraError,
    ExactMatrix,
    Polynomial,
    RationalFunction,
    scalar,
    series_divide,
)

make = RationalFunction.make


def _rf(x) -> RationalFunction:
    return x if isinstance(x, RationalFunction) else make(x)


def rf_add(a, b) -> RationalFunction:
    a, b = _rf(a), _rf(b)
    return make(a.num * b.den + b.num * a.den, a.den * b.den)


def rf_neg(a) -> RationalFunction:
    a = _rf(a)
    return make(-a.num, a.den)


def rf_mul(a, b) -> RationalFunction:
    a, b = _rf(a), _rf(b)
    return make(a.num * b.num, a.den * b.den)


def rf_div(a, b) -> RationalFunction:
    a, b = _rf(a), _rf(b)
    return make(a.num * b.den, a.den * b.num)


def rf_derivative(a) -> RationalFunction:
    """The quotient rule (n/d)' = (n'd - nd')/d^2."""
    a = _rf(a)
    return make(a.num.derivative() * a.den - a.num * a.den.derivative(), a.den * a.den)


def rf_eval(a, x):
    x = scalar(x)
    d = a.den(x)
    if d.is_zero():
        raise AlgebraError(f"evaluation at a pole: {x}")
    return a.num(x) / d


def entries(conn) -> ExactMatrix:
    """The entries num_ij/den of a connection as reduced rational functions."""
    return conn.num.map(lambda e: make(e, conn.den))


def block_diagonal(blocks) -> ExactMatrix:
    """The direct sum of scalar matrices as one matrix, zero off the blocks."""
    width = sum(b.shape()[1] for b in blocks)
    rows, start = [], 0
    for b in blocks:
        stop = start + b.shape()[1]
        rows += [[ZERO] * start + list(r) + [ZERO] * (width - stop) for r in b.rows]
        start = stop
    return ExactMatrix.from_rows(rows)


def det_cofactor(rows, add=operator.add, mul=operator.mul, neg=operator.neg):
    """Laplace expansion along the first row, with the given ring operations."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = None
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = mul(rows[0][j], det_cofactor(minor, add, mul, neg))
        if j % 2:
            term = neg(term)
        out = term if out is None else add(out, term)
    return out


def rf_det(rows) -> RationalFunction:
    return det_cofactor([[_rf(e) for e in row] for row in rows], rf_add, rf_mul, rf_neg)


def random_gauge(rng, m, points):
    """Lower triangular, with powers of (z - c) on the diagonal for points
    c that are mostly poles, so the gauged denominator gets zeros of order
    above 1, and small random polynomials below it."""
    rows = [[Polynomial.zero()] * m for _ in range(m)]
    for i in range(m):
        c = rng.choice(tuple(points) + (scalar(rng.randint(-3, 3)),))
        rows[i][i] = Polynomial.of(-c, 1) ** rng.randint(0, 2)
        for j in range(i):
            rows[i][j] = Polynomial.from_list(
                [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))])
    return ExactMatrix.from_rows(rows)


def order_and_residue_at(rf: RationalFunction, p) -> tuple:
    """(pole order, residue) at p from one Taylor shift of num and den.

    den(z + p) = z^e r(z) with r(0) != 0 gives the order e, the valuation
    of the shifted den; the residue is the coefficient of z^(e-1) in
    num(z + p)/r(z), and zero when e = 0.
    """
    den = rf.den.shift(p)
    e = 0
    while not (den.re[e] or den.im[e]):
        e += 1
    if e == 0:
        return 0, ZERO
    rest = Polynomial(den.re[e:], den.im[e:], den.den)
    return e, series_divide(rf.num.shift(p), rest, e - 1)[-1]


def subst_reciprocal(rf: RationalFunction) -> RationalFunction:
    """f(1/z) as a rational function of z."""
    if rf.num.is_zero():
        return rf
    d = max(rf.num.degree(), rf.den.degree())
    return make(rf.num.reversed_coeffs(d), rf.den.reversed_coeffs(d))


def series_dense(expansion: tuple, cols: list, tol: float) -> tuple:
    """`monodromy._series` on dense rows: each column keeps its terms as
    blocks (y_i, i y_i); row r holds, for j = w-1 down to 0, row r of
    alpha_j and -delta_(j+1) in place r, so that entry r of (k+1) y_(k+1)
    is one dot product with the last w blocks, zero products included."""
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
            scaled = [sum(map(operator.mul, row, col[-span:])) for row in rows]
            new = [s / k for s in scaled]
            col += new
            col += scaled
            size = max(size, *map(abs, new))
        if last + size <= tol or not math.isfinite(size):
            return [[sum(col[span + r::2 * m]) for r in range(m)] for col in terms], k
        last = size
