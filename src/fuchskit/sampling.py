"""Deterministic random instance generators.

Used by the property-test suite and the benchmark.  Everything is driven
by a caller-supplied random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import GaussianRational, Polynomial, falling_factorial, scalar
from .operator import FuchsianOperator, degree_budget


def random_scalar(rng: random.Random, max_num: int = 6,
                  dens=(1, 1, 1, 2, 3), gaussian: bool = False) -> GaussianRational:
    def frac():
        return Fraction(rng.randint(-max_num, max_num), rng.choice(dens))
    im = frac() if gaussian and rng.random() < 0.5 else Fraction(0)
    return GaussianRational(frac(), im)


def distinct_points(rng: random.Random, count: int, gaussian: bool = False,
                    max_num: int = 5) -> tuple:
    pts = set()
    while len(pts) < count:
        pts.add(random_scalar(rng, max_num=max_num, gaussian=gaussian))
    return tuple(sorted(pts, key=lambda s: s.sort_key()))


def random_polynomial(rng: random.Random, max_degree: int,
                      gaussian: bool = False, max_num: int = 6) -> Polynomial:
    if max_degree < 0:
        return Polynomial.zero()
    cs = []
    for _ in range(max_degree + 1):
        if rng.random() < 0.25:
            cs.append(GaussianRational(Fraction(0), Fraction(0)))
        else:
            cs.append(random_scalar(rng, max_num=max_num, gaussian=gaussian))
    return Polynomial.from_list(cs)


def random_operator(rng: random.Random, order: int, num_real: int,
                    num_apparent: int = 0, gaussian: bool = False) -> FuchsianOperator:
    """Random operator satisfying the infinity degree bounds by construction."""
    pts = distinct_points(rng, num_real + num_apparent, gaussian=gaussian)
    budget = degree_budget(order, num_real, num_apparent)
    coeffs = [random_polynomial(rng, budget.degrees[k - 1], gaussian=gaussian)
              for k in range(1, order + 1)]
    return FuchsianOperator(order=order,
                            real_points=pts[:num_real],
                            apparent_points=pts[num_real:],
                            coeffs=tuple(coeffs))


def _falling_basis_coeffs(target: Polynomial, order: int) -> list:
    """Write falling(x, order) - target as sum_k c_k * falling(x, order-k)."""
    x = Polynomial.x()
    rem = falling_factorial(x, order) - target
    out = []
    for k in range(1, order + 1):
        c = rem.coeff(order - k)
        out.append(c)
        rem = rem - falling_factorial(x, order - k) * c
    assert rem.is_zero()
    return out


def prescribed_exponent_operator(rng: random.Random, order: int, exponents,
                                 extra_points=(1,)) -> FuchsianOperator:
    """Operator with singular point 0 whose indicial roots there are the
    given rationals; the higher expansion coefficients are randomized, so
    apparency of the point is not prescribed."""
    exps = [scalar(e) for e in exponents]
    if len(set(exps)) != len(exps) or len(exps) != order:
        raise ValueError("need order-many distinct exponents")
    pts = tuple(scalar(p) for p in extra_points)
    if any(p.is_zero() for p in pts):
        raise ValueError("extra points must avoid 0")
    rest = Polynomial.from_roots(pts)  # psi / z
    head = _falling_basis_coeffs(Polynomial.from_roots(exps), order)
    coeffs = []
    for k in range(1, order + 1):
        bound = k * len(pts)  # n_tot - 1 = len(extra_points)
        tail = [random_scalar(rng, max_num=4) for _ in range(bound)]
        coeffs.append(Polynomial.from_list([head[k - 1] * rest(0) ** k] + tail))
    return FuchsianOperator(order=order, real_points=(scalar(0),) + pts,
                            apparent_points=(), coeffs=tuple(coeffs))


def hypergeometric(a, b) -> FuchsianOperator:
    """The equation of nF_{n-1}(a; b; z): prod_j (theta + b_j - 1) -
    z prod_j (theta + a_j) with theta = z d/dz, n = len(a), and b the n - 1
    lower parameters followed by b_n = 1.

    Its singular points are 0, 1 and infinity, with exponents 1 - b_j at 0,
    0, 1, ..., n - 2 and sum(b) - sum(a) - 1 at 1, and a_j at infinity.
    Writing z^j d^j/dz^j = falling(theta, j), the two theta polynomials
    have coefficients c_j and e_j in that basis, and numerator k over
    psi^k = (z(z - 1))^k is (c_{n-k} - e_{n-k} z)(z - 1)^(k - 1).
    Exact; for the Levelt oracle of the numeric layer."""
    tops = [scalar(v) for v in a]
    bottoms = [scalar(v) for v in b] + [scalar(1)]
    n = len(tops)
    if n < 1 or len(bottoms) != n:
        raise ValueError("need n upper and n - 1 lower parameters, n >= 1")
    # index k - 1 of these lists holds -c_{n-k} and -e_{n-k}
    c = _falling_basis_coeffs(Polynomial.from_roots([1 - v for v in bottoms]), n)
    e = _falling_basis_coeffs(Polynomial.from_roots([-v for v in tops]), n)
    z = Polynomial.x()
    coeffs = tuple((z * e[k - 1] - Polynomial.constant(c[k - 1]))
                   * (z - Polynomial.one()) ** (k - 1) for k in range(1, n + 1))
    return FuchsianOperator(order=n, real_points=(scalar(0), scalar(1)),
                            apparent_points=(), coeffs=coeffs)


def second_order_with_exponents(points, local_exponents,
                                quadratic_part=None) -> FuchsianOperator:
    """Order-2 operator with exponent pair {0, q_j} at the j-th point.

    Deterministic and exact: the first numerator interpolates the values
    (q_j - 1) psi'(p_j), the second is psi times the scalar quadratic_part,
    which only moves the data at infinity.  Small q_j keep every finite local
    monodromy matrix well conditioned."""
    pts = tuple(scalar(p) for p in points)
    if len(set(pts)) != len(pts):
        raise ValueError("points not distinct")
    qs = [scalar(q) for q in local_exponents]
    if len(qs) != len(pts):
        raise ValueError("need one exponent per point")
    psi = Polynomial.from_roots(pts)
    dpsi = psi.derivative()
    h1 = Polynomial.zero()
    for j, p in enumerate(pts):
        basis = Polynomial.from_roots(tuple(x for x in pts if x != p))
        h1 = h1 + basis * ((qs[j] - scalar(1)) * dpsi(p) / basis(p))
    if quadratic_part is None:
        g = Polynomial.zero()
    else:
        g = Polynomial.constant(scalar(quadratic_part))
    if g.degree() > len(pts) - 2:
        raise ValueError("quadratic part too large for the degree bounds")
    return FuchsianOperator(order=2, real_points=pts, apparent_points=(),
                            coeffs=(h1, psi * g))
