"""Exact-arithmetic kernel tests.

Derived expected values are checked against independent oracles (cofactor
determinants, quotient-rule differentiation for series, here and in
oracles.py), not against the code under test.
"""
import ctypes
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuchskit import algebra
from oracles import (
    det_cofactor as _det_cofactor,
    order_and_residue_at,
    rf_derivative,
    rf_eval,
    subst_reciprocal,
)
from fuchskit.algebra import (
    ONE, ZERO, I, AlgebraError, ExactMatrix, GaussianRational, Polynomial,
    RationalFunction, document, falling_factorial, poly_gcd,
    poly_root_search, scalar, series_of_rational,
)

fractions = st.fractions(min_value=-40, max_value=40, max_denominator=12)
scalars = st.builds(GaussianRational, fractions, fractions)
small_polys = st.lists(scalars, min_size=0, max_size=5).map(Polynomial.from_list)


# ---------------------------------------------------------------- documents

class TestDocument:
    def test_each_kind_of_value(self):
        z = GaussianRational(Fraction(1, 2), Fraction(-3))
        assert document(z) == z.to_json() == {"re": "1/2", "im": "-3"}
        assert document((1, (scalar(2), "a"), [])) == [1, ["2", "a"], []]
        assert document({"a": {"b": (scalar("1/3"), None)}, "c": z}) == {
            "a": {"b": ["1/3", None]}, "c": {"re": "1/2", "im": "-3"}}
        for v in (None, True, False, 0, -5, 2.5, "infinity"):
            got = document(v)
            assert got is v or (got == v and type(got) is type(v))
        # the numeric layer: complex numbers as [re, im] floats, numpy values
        # through their tolist
        assert document(complex(1, -2.5)) == [1.0, -2.5]
        assert document(np.complex128(3)) == [3.0, 0.0]
        got = document(np.array([[1, 2j], [0.5, -1 + 1j]]))
        assert got == [[[1.0, 0.0], [0.0, 2.0]], [[0.5, 0.0], [-1.0, 1.0]]]
        assert document(np.array([4.0, -0.5])) == [4.0, -0.5]
        assert type(document(np.float64(2.5))) is float
        assert document(np.arange(3)) == [0, 1, 2]


# ------------------------------------------------------------------ scalars

class TestScalar:
    def test_field_ops(self):
        a = scalar("2/3") + I * scalar(4)
        b = GaussianRational(Fraction(-1, 2), Fraction(5, 7))
        assert (a * b) / b == a
        assert a - a == ZERO
        assert (a / b) * b == a

    def test_parse_round_trip(self):
        for x in [scalar(3), scalar("-7/2"), GaussianRational(Fraction(1, 3), Fraction(-2))]:
            assert scalar(x.to_json()) == x

    @pytest.mark.parametrize("bad", ["[" * 3000, {"re": "x" * 3000}, "9" * 3000 + "/0",
                                     "x" * 5000])
    def test_long_rejected_input_is_quoted_in_part(self, bad):
        # Fraction's message repeats the input, so it was quoted twice
        with pytest.raises(AlgebraError) as info:
            scalar(bad)
        msg = str(info.value)
        assert f"({len(repr(bad))} characters)" in msg
        assert len(msg) <= 2 * algebra.EXCERPT + 100

    @pytest.mark.parametrize("text", ["9" * (algebra.MAX_DIGITS + 1),
                                      "-1/" + "9" * (algebra.MAX_DIGITS + 1),
                                      {"re": 0, "im": "9" * (algebra.MAX_DIGITS + 1)}])
    def test_digit_string_past_the_bound_is_a_domain_error(self, text):
        bound = algebra.MAX_DIGITS
        with pytest.raises(algebra.DomainError, match=f"a number of {bound + 1} digits, "
                                                      f"past the bound of {bound} digits"):
            scalar(text)

    def test_digit_bound_spares_exact_values(self):
        # only text is checked: ints and Fractions of any size pass
        big = 10 ** (algebra.MAX_DIGITS + 10)
        assert scalar(big).a == big
        assert scalar(Fraction(1, big)).d == big
        assert scalar("9" * algebra.MAX_DIGITS).a == 10 ** algebra.MAX_DIGITS - 1

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_is_not_a_scalar(self, flag):
        with pytest.raises(AlgebraError):
            scalar(flag)

    def test_integrality(self):
        assert scalar(5).is_integer()
        assert not scalar("5/2").is_integer()
        assert not I.is_integer()
        assert scalar(-3).as_int() == -3

    @given(scalars, scalars, scalars)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a

    @given(scalars)
    @settings(max_examples=60)
    def test_inverse(self, a):
        if not a.is_zero():
            assert a * (ONE / a) == ONE

    def test_falling_factorial(self):
        assert falling_factorial(scalar(5), 3) == scalar(60)
        assert falling_factorial(scalar(2), 0) == ONE
        # recurrence [x]_{k+1} = [x]_k * (x - k)
        x = scalar("7/3")
        for k in range(4):
            assert falling_factorial(x, k + 1) == falling_factorial(x, k) * (x - k)


# ----------------------------------------- scalars against a Fraction pair

def _pair_sum(p, q):
    return p[0] + q[0], p[1] + q[1]


def _pair_diff(p, q):
    return p[0] - q[0], p[1] - q[1]


def _pair_prod(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _pair_quot(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return (p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n


def _pair_pow(p, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = _pair_prod(out, p)
    return out if k >= 0 else _pair_quot((Fraction(1), Fraction(0)), out)


def _pair_str(re, im):
    if im == 0:
        return str(re)
    ims = f"{im}*i" if abs(im) != 1 else ("i" if im > 0 else "-i")
    if re == 0:
        return ims
    return f"{re}{'+' if im > 0 else ''}{ims}"


def _pair_json(re, im):
    return str(re) if im == 0 else {"re": str(re), "im": str(im)}


def _pair_hash(p):
    """Python's hash of the number re + i im: that of re when im = 0, and
    otherwise the complex rule on the Fraction hashes, wrapped to a signed
    machine word, with -1 taken to -2."""
    if p[1] == 0:
        return hash(p[0])
    h = ctypes.c_ssize_t(hash(p[0]) + sys.hash_info.imag * hash(p[1])).value
    return -2 if h == -1 else h


def _assert_is(x, pair):
    """x is a scalar in canonical form with the value of the pair."""
    assert type(x) is GaussianRational
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    assert (Fraction(x.a, x.d), Fraction(x.b, x.d)) == pair


# (reference pair, operand): Gaussian rationals, and ints and Fractions
gaussian_pairs = st.tuples(fractions, fractions).map(
    lambda p: (p, GaussianRational(*p)))
operand_pairs = st.one_of(
    gaussian_pairs,
    st.integers(-30, 30).map(lambda n: ((Fraction(n), Fraction(0)), n)),
    fractions.map(lambda f: ((f, Fraction(0)), f)))
half = (Fraction(1, 2), Fraction(1, 2))
half_conj = (Fraction(1, 2), Fraction(-1, 2))
sixth = (Fraction(1, 6), Fraction(0))


class TestScalarAgainstFractionPair:
    """The integer-triple scalar against a naive pair of Fractions."""

    @given(gaussian_pairs, operand_pairs)
    @example((half, GaussianRational(*half)), (half_conj, GaussianRational(*half_conj)))
    @example((sixth, GaussianRational(*sixth)), (sixth, GaussianRational(*sixth)))
    @example((sixth, GaussianRational(*sixth)), ((Fraction(1, 3), Fraction(0)), Fraction(1, 3)))
    @settings(max_examples=150)
    def test_arithmetic(self, x, y):
        (p, a), (q, b) = x, y
        _assert_is(a + b, _pair_sum(p, q))
        _assert_is(b + a, _pair_sum(p, q))
        _assert_is(a - b, _pair_diff(p, q))
        _assert_is(b - a, _pair_diff(q, p))
        _assert_is(a * b, _pair_prod(p, q))
        _assert_is(b * a, _pair_prod(p, q))
        _assert_is(-a, (-p[0], -p[1]))
        if any(q):
            _assert_is(a / b, _pair_quot(p, q))
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        if any(p):
            _assert_is(b / a, _pair_quot(q, p))

    @given(gaussian_pairs, st.integers(-7, 7))
    @example((half, GaussianRational(*half)), 2)
    @example((half, GaussianRational(*half)), -3)
    @settings(max_examples=100)
    def test_power(self, x, k):
        p, a = x
        if k < 0 and not any(p):
            with pytest.raises(ZeroDivisionError):
                a ** k
        else:
            _assert_is(a ** k, _pair_pow(p, k))

    @given(gaussian_pairs, operand_pairs)
    @example((sixth, GaussianRational(*sixth)), (sixth, Fraction(1, 6)))
    # hash(-1000004) + sys.hash_info.imag * hash(1) = -1, which Python
    # reports as -2
    @example(((Fraction(-1000004), Fraction(1)), GaussianRational(-1000004, 1)),
             ((Fraction(-1000004), Fraction(1)), GaussianRational(-1000004, 1)))
    @example(((Fraction(3), Fraction(0)), scalar(3)), ((Fraction(3), Fraction(0)), 3))
    @settings(max_examples=100)
    def test_equality_and_hash(self, x, y):
        (p, a), (q, b) = x, y
        assert (a == b) == (p == q)
        assert (b == a) == (p == q)
        assert (a != b) == (p != q)
        assert hash(a) == _pair_hash(p)
        if p == q:  # ints and Fractions included
            assert hash(a) == hash(b)

    @given(st.one_of(st.integers(), st.fractions()))
    @example(-1)
    @example(2 ** 64 + 3)
    @settings(max_examples=100)
    def test_hash_matches_int_and_fraction(self, x):
        assert scalar(x) == x
        assert hash(scalar(x)) == hash(x)
        assert len({scalar(x), x}) == 1

    @given(gaussian_pairs)
    @example(((Fraction(-1), Fraction(1)), GaussianRational(Fraction(-1), Fraction(1))))
    @example(((Fraction(0), Fraction(-1, 2)), GaussianRational(Fraction(0), Fraction(-1, 2))))
    @settings(max_examples=100)
    def test_views(self, x):
        p, a = x
        assert (a.re, a.im) == p
        assert type(a.re) is Fraction and type(a.im) is Fraction
        assert a.sort_key() == p
        assert a.to_json() == _pair_json(*p)
        assert str(a) == repr(a) == _pair_str(*p)
        assert complex(a) == complex(float(p[0]), float(p[1]))
        assert scalar(a.to_json()) == a
        assert a.is_zero() == (p == (0, 0))
        assert a.is_integer() == (p[1] == 0 and p[0].denominator == 1)
        if a.is_integer():
            assert a.as_int() == int(p[0]) and type(a.as_int()) is int
        else:
            with pytest.raises(AlgebraError):
                a.as_int()

    def test_canonical_parts(self):
        x = GaussianRational(Fraction(1, 6), Fraction(-1, 4))
        assert (x.a, x.b, x.d) == (2, -3, 12)
        y = GaussianRational(Fraction(1, 2), Fraction(1, 2)) * (ONE - I)
        assert (y.a, y.b, y.d) == (1, 0, 1) and y == 1
        z = GaussianRational(Fraction(1, 2), Fraction(1, 2)) ** 2
        assert (z.a, z.b, z.d) == (0, 1, 2)

    @given(gaussian_pairs)
    @settings(max_examples=40)
    def test_zero_is_unique(self, x):
        _, a = x
        zeros = [a - a, a * 0, 0 * a, a + (-a), ZERO, scalar(0), scalar("0/7"),
                 scalar({"re": "0", "im": "0"}), GaussianRational(0, 0),
                 GaussianRational(Fraction(0), Fraction(0))]
        for z in zeros:
            assert (z.a, z.b, z.d) == (0, 0, 1)
        assert len(set(zeros)) == 1


# -------------------------------------------------------------- polynomials

class TestPolynomial:
    def test_normalization(self):
        assert Polynomial.of(1, 2, 0, 0) == Polynomial.of(1, 2)
        assert Polynomial.of(0).is_zero()
        assert Polynomial.zero().degree() == -1

    def test_divmod_identity(self):
        a = Polynomial.of(1, "1/2", 0, 3, -2)
        b = Polynomial.of(-1, 1, 1)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree()

    @given(small_polys, small_polys)
    @settings(max_examples=60)
    def test_divmod_property(self, a, b):
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=40)
    def test_ring_axioms(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    def test_power_is_the_repeated_product(self):
        p = Polynomial.of("1/2", {"re": "-1", "im": "2/3"}, 0, I)
        product = Polynomial.one()
        for k in range(10):
            assert p ** k == product
            product = product * p
        with pytest.raises(AlgebraError, match="negative"):
            p ** -1

    def test_gcd(self):
        a = Polynomial.from_roots([scalar(1), scalar(2), I])
        b = Polynomial.from_roots([scalar(2), I, scalar(-5)])
        g = poly_gcd(a * 3, b * scalar("7/2"))
        assert g == Polynomial.from_roots([scalar(2), I])

    def test_shift_and_eval(self):
        p = Polynomial.of(1, -3, 0, 2)
        c = scalar("5/7")
        for x in [scalar(0), scalar(2), I]:
            assert p.shift(c)(x) == p(x + c)

    @given(small_polys, scalars)
    @settings(max_examples=40, deadline=None)
    def test_shift_matches_naive_expansion(self, p, c):
        # sum a_k (z + c)^k, expanded by repeated polynomial products
        zc = Polynomial.of(c, 1)
        naive = Polynomial.zero()
        for k, a in enumerate(p.coeffs):
            naive = naive + (zc ** k) * a
        assert p.shift(c) == naive

    @given(st.lists(scalars, max_size=3), st.lists(scalars, max_size=3),
           st.lists(scalars, max_size=3), scalars, scalars)
    @settings(max_examples=40, deadline=None)
    def test_gcd_recovers_planted_factor(self, common, only_a, only_b, ca, cb):
        only_b = [r for r in only_b if r not in only_a]
        if ca.is_zero() or cb.is_zero():
            return
        factor = Polynomial.from_roots(common)
        a = factor * Polynomial.from_roots(only_a) * ca
        b = factor * Polynomial.from_roots(only_b) * cb
        assert poly_gcd(a, b) == factor

    def test_derivative(self):
        p = Polynomial.of(4, 0, 3, 1)   # 4 + 3z^2 + z^3
        assert p.derivative() == Polynomial.of(0, 6, 3)

    def test_from_roots(self):
        p = Polynomial.from_roots([scalar(2), I])
        assert p(scalar(2)).is_zero() and p(I).is_zero()
        assert p.lc() == ONE

    def test_reversal(self):
        p = Polynomial.of(3, 0, 1)    # 3 + z^2
        assert p.reversed_coeffs() == Polynomial.of(1, 0, 3)
        assert p.reversed_coeffs(4) == Polynomial.of(0, 0, 1, 0, 3)


# ------------------------------------------- naive Fraction-pair reference

# An independent reference for the polynomial kernel: a polynomial is a list
# of (re, im) Fraction pairs, lowest degree first, without trailing zeros.
# Nothing here calls Polynomial arithmetic; results of the kernel are read
# through Polynomial.coeffs.

F0, F1 = Fraction(0), Fraction(1)


def _trim(v):
    v = list(v)
    while v and v[-1] == (F0, F0):
        v.pop()
    return v


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cdiv(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def _nadd(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [(F0, F0)] * (n - len(a)), b + [(F0, F0)] * (n - len(b))
    return _trim((x[0] + sign * y[0], x[1] + sign * y[1]) for x, y in zip(a, b))


def _nmul(a, b):
    out = [(F0, F0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            p = _cmul(x, y)
            out[i + j] = (out[i + j][0] + p[0], out[i + j][1] + p[1])
    return _trim(out)


def _ndivmod(a, b):
    q, r = [(F0, F0)] * max(len(a) - len(b) + 1, 0), a
    while len(r) >= len(b):
        k = len(r) - len(b)
        q[k] = _cdiv(r[-1], b[-1])
        r = _nadd(r, _nmul([(F0, F0)] * k + [q[k]], b), -1)
    return _trim(q), r


def _neval(a, x):
    out = (F0, F0)
    for c in reversed(a):
        p = _cmul(out, x)
        out = (p[0] + c[0], p[1] + c[1])
    return out


def _nshift(a, c):
    """sum a_k (z + c)^k, expanded term by term."""
    out = []
    for k, ak in enumerate(a):
        term = [ak]
        for _ in range(k):
            term = _nmul(term, [c, (F1, F0)])
        out = _nadd(out, term)
    return out


def _nmonic(a):
    return [_cdiv(x, a[-1]) for x in a]


def _ngcd(a, b):
    while b:
        a, b = b, _ndivmod(a, b)[1]
    return _nmonic(a) if a else a


def _ndet(rows):
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    out = []
    for j in range(len(rows)):
        minor = [[r[k] for k in range(len(rows)) if k != j] for r in rows[1:]]
        out = _nadd(out, _nmul(rows[0][j], _ndet(minor)), -1 if j % 2 else 1)
    return out


def _poly(pairs) -> Polynomial:
    return Polynomial.from_list([GaussianRational(a, b) for a, b in pairs])


def _pairs(p: Polynomial) -> list:
    return [(c.re, c.im) for c in p.coeffs]


pair_scalars = st.tuples(fractions, fractions)
pair_polys = st.lists(pair_scalars, max_size=5).map(_trim)
# products with a shared factor, so that gcds of positive degree are common
pair_poly_pairs = st.tuples(pair_polys, pair_polys, pair_polys).map(
    lambda fgh: (_nmul(fgh[0], fgh[1]), _nmul(fgh[0], fgh[2])))
small_pair_polys = st.lists(
    st.tuples(st.fractions(-3, 3, max_denominator=3),
              st.sampled_from([F0, F0, F1, -F1])), max_size=3).map(_trim)
pair_poly_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(small_pair_polys, min_size=n, max_size=n),
                       min_size=n, max_size=n))


class TestAgainstNaiveKernel:
    @given(pair_polys, pair_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_operations(self, a, b):
        pa, pb = _poly(a), _poly(b)
        assert _pairs(pa + pb) == _nadd(a, b)
        assert _pairs(pa - pb) == _nadd(a, b, -1)
        assert _pairs(pa * pb) == _nmul(a, b)
        assert _pairs(-pa) == _nadd([], a, -1)

    @given(pair_poly_pairs)
    @settings(max_examples=60, deadline=None)
    def test_divmod_and_gcd(self, ab):
        a, b = ab
        if b:
            q, r = divmod(_poly(a), _poly(b))
            assert (_pairs(q), _pairs(r)) == _ndivmod(a, b)
        assert _pairs(poly_gcd(_poly(a), _poly(b))) == _ngcd(a, b)

    @given(pair_polys, pair_scalars)
    @settings(max_examples=60, deadline=None)
    def test_shift_evaluation_and_monic(self, a, c):
        p, x = _poly(a), GaussianRational(*c)
        assert _pairs(p.shift(x)) == _nshift(a, c)
        value = p(x)
        assert (value.re, value.im) == _neval(a, c)
        if a:
            assert _pairs(p.monic()) == _nmonic(a)

    @given(pair_poly_matrices)
    @settings(max_examples=40, deadline=None)
    def test_polynomial_det(self, rows):
        m = ExactMatrix.from_rows([[_poly(e) for e in row] for row in rows])
        assert _pairs(m.det()) == _ndet(rows)

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    max_size=5),
           st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_canonical_form(self, numerators, den, k):
        # the same polynomial from numerators and denominator scaled by k,
        # from reduced Fractions, and from a padded vector
        re = [a for a, _ in numerators]
        im = [b for _, b in numerators]
        p = Polynomial(re, im, den)
        q = Polynomial([k * a for a in re] + [0], [k * b for b in im] + [0], k * den)
        r = Polynomial.from_list([GaussianRational(Fraction(a, den), Fraction(b, den))
                                  for a, b in numerators])
        for other in (q, r):
            assert other == p
            assert hash(other) == hash(p)
            assert other.to_json() == p.to_json()
            assert (other.re, other.im, other.den) == (p.re, p.im, p.den)
        assert p.den > 0 and math.gcd(p.den, *p.re, *p.im) == 1

    def test_canonical_examples(self):
        half = Polynomial.of("1/2")
        assert Polynomial((2,), (0,), 4) == half
        assert hash(Polynomial((2,), (0,), 4)) == hash(half)
        assert (half.re, half.im, half.den) == ((1,), (0,), 2)
        # numerators sharing a content 2 over the denominator 1 stay as they are
        p = Polynomial((2, 4), (0, 6))
        assert (p.re, p.im, p.den) == ((2, 4), (0, 6), 1)
        assert p == Polynomial.of(2, {"re": 4, "im": 6})
        assert Polynomial((0, 0), (0, 0), 7) == Polynomial.zero()
        assert Polynomial.zero().den == 1


# ------------------------------------------------------- rational functions

class TestRationalFunction:
    def test_normalized_form(self):
        r = RationalFunction.make(Polynomial.of(0, 2, 2), Polynomial.of(0, 0, 4, 4))
        # (2z + 2z^2) / (4z^2 + 4z^3) = 1/(2z)
        assert r.num == Polynomial.of("1/2")
        assert r.den == Polynomial.of(0, 1)
        assert r.den.lc() == ONE

    @given(small_polys, small_polys, st.integers(min_value=0, max_value=3),
           st.sampled_from([ZERO, ONE, scalar(-2), I, scalar("1/3")]))
    @settings(max_examples=40, deadline=None)
    def test_order_and_residue_against_series_oracle(self, num, den, e, p):
        # num/(den (z-p)^e) with num(p), den(p) != 0 has a pole of order e
        # at p, and its residue is coefficient e-1 of num/den at p
        if num(p).is_zero() or den(p).is_zero():
            return
        lin = Polynomial.of(-p, 1)
        rf = RationalFunction.make(num, den * lin ** e)
        order, residue = order_and_residue_at(rf, p)
        assert order == e
        want = _series_oracle(RationalFunction.make(num, den), p, e - 1)[-1] \
            if e else ZERO
        assert residue == want

    def test_derivative_quotient_rule(self):
        # the reference that _series_oracle differentiates with
        r = RationalFunction.make(Polynomial.of(1, 1), Polynomial.of(-1, 1))
        # d/dz (1+z)/(z-1) = -2/(z-1)^2
        assert rf_derivative(r) == RationalFunction.make(
            Polynomial.of(-2), Polynomial.of(1, -2, 1))

    def test_residues(self):
        r = RationalFunction.make(Polynomial.of(1, 1), Polynomial.of(0, -1, 1))
        assert order_and_residue_at(r, 0) == (1, scalar(-1))
        assert order_and_residue_at(r, 1) == (1, scalar(2))
        assert order_and_residue_at(r, 5) == (0, ZERO)

    def test_higher_order_residue(self):
        # 1/(z^2 (z-1)) = (residue at 0 is -1): 1/(z-1) = -1 - z - ... so coeff of z^1 is -1
        r = RationalFunction.make(Polynomial.one(),
                                  Polynomial.of(0, 0, -1, 1))
        assert order_and_residue_at(r, 0) == (2, scalar(-1))

    def test_reciprocal_substitution(self):
        r = RationalFunction.make(Polynomial.of(0, 1), Polynomial.of(-1, 0, 1))
        # z/(z^2-1) at 1/z: (1/z)/((1-z^2)/z^2) = z/(1-z^2)
        s = subst_reciprocal(r)
        for x in [scalar(2), scalar("1/3"), scalar(5)]:
            assert rf_eval(s, x) == rf_eval(r, ONE / x)


# ------------------------------------------------------------------- series

def _series_oracle(rf: RationalFunction, center, order):
    """Independent oracle: repeated quotient-rule differentiation, divided
    by factorials.  Slower than series division but structurally unrelated."""
    out = []
    cur = rf
    fact = 1
    for l in range(order + 1):
        if l > 0:
            cur = rf_derivative(cur)
            fact *= l
        out.append(rf_eval(cur, center) / fact)
    return out


class TestSeries:
    def test_frozen_example(self):
        # (z+1)/((z-2)(z-3)) at 0, order 5
        rf = RationalFunction.make(Polynomial.of(1, 1), Polynomial.of(6, -5, 1))
        got = series_of_rational(rf, 0, 5)
        frozen = ["1/6", "11/36", "49/216", "179/1296", "601/7776", "1931/46656"]
        assert list(got) == [scalar(s) for s in frozen]
        assert got == tuple(_series_oracle(rf, ZERO, 5))

    @given(small_polys, small_polys, st.sampled_from([0, 1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_against_derivative_oracle(self, a, b, center_pick):
        if b.is_zero():
            return
        center = scalar(center_pick)
        rf = RationalFunction.make(a, b)
        if rf.den(center).is_zero():
            return
        got = series_of_rational(rf, center, 4)
        assert list(got) == _series_oracle(rf, center, 4)

    def test_pole_rejected(self):
        rf = RationalFunction.make(Polynomial.one(), Polynomial.of(0, 1))
        with pytest.raises(AlgebraError):
            series_of_rational(rf, 0, 3)


# ----------------------------------------------------------------- matrices

matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(scalars, min_size=n, max_size=n),
                       min_size=n, max_size=n))

# entries from a short list, so that rank-deficient draws are common
rank_entries = st.sampled_from([ZERO, ZERO, ONE, -ONE, scalar(2), I, scalar("1/2")])
rectangular = st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(
    lambda mn: mn[0] != mn[1]).flatmap(
    lambda mn: st.lists(st.lists(rank_entries, min_size=mn[1], max_size=mn[1]),
                        min_size=mn[0], max_size=mn[0]))


# polynomial systems [M | B], M n x n and B with 1 or n columns; zero
# entries are common, so row swaps, skipped rows and singular M are drawn
# often, and M is upper Hessenberg in part of the draws
poly_entries = st.one_of(
    st.just(Polynomial.zero()),
    st.lists(scalars, min_size=1, max_size=3).map(Polynomial.from_list))


def _poly_system(n, hessenberg=False):
    def block(cols):
        return st.lists(st.lists(poly_entries, min_size=cols, max_size=cols),
                        min_size=n, max_size=n)

    def upper_hessenberg(rows):
        return [[Polynomial.zero() if i > j + 1 else e for j, e in enumerate(row)]
                for i, row in enumerate(rows)]
    m = block(n).map(upper_hessenberg) if hessenberg else block(n)
    return st.tuples(m, st.sampled_from([1, n]).flatmap(block))


poly_systems = st.one_of(
    st.integers(min_value=1, max_value=6).flatmap(_poly_system),
    st.integers(min_value=1, max_value=6).flatmap(lambda n: _poly_system(n, True)))
_z, _one, _zero = Polynomial.x(), Polynomial.one(), Polynomial.zero()
_i = Polynomial.constant(I)


class TestMatrix:
    @given(poly_systems)
    @example(([[_zero, _z], [_one, _z]], [[_one], [_z]]))            # swap
    @example(([[_zero, _z, _one], [_zero, _one, _z], [_one, _zero, _zero]],
              [[_one, _z, _zero], [_z, _one, _one], [_zero, _zero, _z]]))
    @example(([[_z, _one], [_z, _one]], [[_one], [_zero]]))          # singular
    @example(([[_zero]], [[_z]]))                                   # singular
    # row 2 is skipped at step 0, then swapped in as the pivot row of step 1
    @example(([[_z, _one, _zero], [_z, _one, _one], [_zero, _one, _z]],
              [[_one], [_z], [_zero]]))
    # row 3 is updated at step 0, skipped at step 1, updated at step 2
    @example(([[_z, _zero, _one, _one], [_one, _z, _zero, _one],
               [_zero, _one, _z, _zero], [_one, _zero, _one, _z]],
              [[_one], [_zero], [_z], [_one]]))
    # rows 0 and 1 are skipped in the last steps: their B columns catch up
    @example(([[_z, _one, _zero], [_zero, _z, _zero], [_zero, _zero, _one + _z]],
              [[_one, _z, _zero], [_z, _one, _one], [_one, _zero, _z]]))
    # here a catch-up of whole rows, stale columns too, divides inexactly
    @example(([[_zero, _zero, _i, _zero], [_zero, _i * _z, _zero, _i],
               [_zero, _i, _zero, _zero], [_i, _zero, _i, _zero]],
              [[_zero], [_zero], [_zero], [_zero]]))
    @settings(max_examples=50, deadline=None)
    def test_det_adjugate_matches_cofactor_oracle(self, system):
        rows, block = system
        det, adj_b = ExactMatrix.from_rows(rows).det_adjugate(
            ExactMatrix.from_rows(block))
        assert det == _det_cofactor(rows)
        if det.is_zero():
            assert adj_b is None
            return
        for j in range(len(rows)):
            for c in range(len(block[0])):
                cramer = [row[:j] + [b[c]] + row[j + 1:] for row, b in zip(rows, block)]
                assert adj_b.entry(j, c) == _det_cofactor(cramer)

    @given(poly_systems)
    @settings(max_examples=30, deadline=None)
    def test_adjugate_times_matrix_is_det_identity(self, system):
        g = ExactMatrix.from_rows(system[0])
        n = len(g.rows)
        det, adj = g.det_adjugate(ExactMatrix.identity(n, Polynomial.one()))
        if det.is_zero():
            return
        assert adj * g == g * adj == ExactMatrix.identity(n, det)

    def test_det_adjugate_shape_checks(self):
        g = ExactMatrix.from_rows([[Polynomial.x()]])
        for a, b in ((g, ExactMatrix.from_rows([[ONE], [ONE]])),
                     (ExactMatrix.from_rows([[ONE, ONE]]), g),
                     (ExactMatrix(()), ExactMatrix(()))):
            with pytest.raises(AlgebraError):
                a.det_adjugate(b)

    @given(matrices)
    @settings(max_examples=50, deadline=None)
    def test_det_matches_cofactor_oracle(self, rows):
        m = ExactMatrix.from_rows(rows)
        assert m.det() == _det_cofactor(rows)

    @given(matrices, matrices)
    @settings(max_examples=30, deadline=None)
    def test_det_multiplicative(self, r1, r2):
        if len(r1) != len(r2):
            return
        a, b = ExactMatrix.from_rows(r1), ExactMatrix.from_rows(r2)
        assert (a * b).det() == a.det() * b.det()

    def test_polynomial_entries(self):
        z = Polynomial.x()
        m = ExactMatrix.from_rows([[z, z * z + 1], [Polynomial.one(), z]])
        assert m.det() == Polynomial.of(-1)

    def test_polynomial_entries_allow_only_det(self):
        z = Polynomial.x()
        m = ExactMatrix.from_rows([[z, Polynomial.one()], [Polynomial.one(), z]])
        for method in (m.rank, m.rref, m.nullspace):
            with pytest.raises(AlgebraError):
                method()

    def test_rank(self):
        for rows in ([[1, 2, 3], [2, 4, 6], [0, 1, 1]],
                     [[1, 2], [2, 4], [0, 1], [1, 3]]):
            m = ExactMatrix.from_rows([[scalar(e) for e in r] for r in rows])
            assert m.rank() == 2
            assert ExactMatrix.from_rows(zip(*m.rows)).rank() == 2
        assert ExactMatrix.from_rows([[ZERO] * 3] * 2).rank() == 0

    @given(rectangular)
    @settings(max_examples=60, deadline=None)
    def test_rank_of_transpose(self, rows):
        rank = ExactMatrix.from_rows(rows).rank()
        assert rank == ExactMatrix.from_rows(zip(*rows)).rank()
        assert rank <= min(len(rows), len(rows[0]))

    @given(matrices)
    @settings(max_examples=30, deadline=None)
    def test_rank_vs_det(self, rows):
        m = ExactMatrix.from_rows(rows)
        full = not m.det().is_zero()
        assert (m.rank() == len(rows)) == full

    def test_nullspace(self):
        m = ExactMatrix.from_rows(
            [[scalar(1), scalar(2), scalar(3)], [scalar(2), scalar(4), scalar(6)]])
        basis = m.nullspace()
        assert len(basis) == 2
        for v in basis:
            for row in m.rows:
                s = sum((a * b for a, b in zip(row, v)), ZERO)
                assert s.is_zero()

    def test_char_poly(self):
        m = ExactMatrix.from_rows([[scalar(0), scalar(0)], [scalar(-1), scalar(1)]])
        # eigenvalues 0, 1
        assert m.char_poly() == Polynomial.of(0, -1, 1)

# -------------------------------------------------------------- root search

small_gaussian_roots = st.builds(
    GaussianRational,
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
    st.fractions(min_value=-6, max_value=6, max_denominator=9))
gaussian_integers = st.builds(GaussianRational, st.integers(-9, 9).map(Fraction),
                              st.integers(-2, 2).map(Fraction))
# quadratics and cubics over Z[i], mostly without a root in Q(i)
gaussian_integer_factors = st.lists(gaussian_integers, min_size=3, max_size=4).filter(
    lambda cs: not cs[-1].is_zero())
# the first twelve primes q = 3 mod 4
INERT_PRIMES = (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79)


def _norm_divisors(n: int) -> list:
    """Every Gaussian integer whose norm divides the positive integer n."""
    r = math.isqrt(n)
    return [GaussianRational(Fraction(a), Fraction(b))
            for a in range(-r, r + 1) for b in range(-r, r + 1)
            if (a or b) and n % (a * a + b * b) == 0]


def _exhaustive_roots(cs: list) -> set:
    """The roots in Q(i) of the polynomial with Gaussian-integer
    coefficients cs, lowest first: 0 if c_0 = 0, and every u/v with
    N(u) | N(c_0) and N(v) | N(lc) at which it vanishes."""
    found = set()
    while cs[0].is_zero():
        found.add(ZERO)
        cs = cs[1:]
    p = Polynomial.from_list(cs)
    norm = lambda c: int(c.re * c.re + c.im * c.im)
    for u in _norm_divisors(norm(cs[0])):
        for v in _norm_divisors(norm(cs[-1])):
            if p(u / v).is_zero():
                found.add(u / v)
    return found


def _multiplicity(p: Polynomial, r) -> int:
    k = 0
    while p(r).is_zero():
        p, k = p.derivative(), k + 1
    return k


class TestRootSearch:
    def test_planted_rational_roots(self):
        p = Polynomial.from_roots([scalar(2), scalar(2), scalar("-1/3")]) * scalar(9)
        res = poly_root_search(p)
        assert res.complete
        assert res.roots == ((scalar("-1/3"), 1), (scalar(2), 2))

    def test_gaussian_roots(self):
        p = Polynomial.from_roots([I, -I, GaussianRational(Fraction(1, 2), Fraction(3))])
        res = poly_root_search(p)
        assert res.complete
        got = {r for r, _ in res.roots}
        assert got == {I, -I, GaussianRational(Fraction(1, 2), Fraction(3))}

    def test_zero_roots(self):
        p = Polynomial.of(0, 0, 0, 1, 1)   # z^3 (1 + z)
        res = poly_root_search(p)
        assert (ZERO, 3) in res.roots and (scalar(-1), 1) in res.roots

    def test_irrational_remainder_flagged(self):
        p = Polynomial.of(-2, 0, 1) * Polynomial.from_roots([scalar(5)])  # (z^2-2)(z-5)
        res = poly_root_search(p)
        assert not res.complete
        assert res.roots == ((scalar(5), 1),)
        assert res.remainder == Polynomial.of(-2, 0, 1)

    @pytest.mark.parametrize("root", [
        Fraction(10 ** 19 + 3, 10 ** 20 + 7),
        Fraction(7 * 10 ** 22 + 1, 10 ** 23 + 9),
        Fraction(-31415926535897932384626, 99999999999999999989),
    ])
    def test_large_denominator_within_bound(self, root):
        p = Polynomial.from_roots([scalar(root), scalar(3), scalar("2/7")])
        res = poly_root_search(p)
        assert res.complete
        assert {r for r, _ in res.roots} == {scalar(root), scalar(3), scalar("2/7")}

    @pytest.mark.parametrize("root", [
        GaussianRational(Fraction(10 ** 25 + 13, 10 ** 25 + 7), Fraction(0)),
        GaussianRational(Fraction(7 ** 40 + 2, 11 ** 35), Fraction(-3, 7 ** 40)),
    ])
    def test_denominator_past_10_to_24(self, root):
        # next to z^2 - 2 no factor is linear, so no exact division finds it
        p = Polynomial.from_roots([root]) * Polynomial.of(-2, 0, 1)
        res = poly_root_search(p)
        assert res.roots == ((root, 1),)
        assert res.remainder == Polynomial.of(-2, 0, 1)

    def test_roots_congruent_modulo_the_first_inert_primes(self):
        # the three roots meet modulo each of the twelve primes, so the
        # search must pass over all of them to the thirteenth, 83
        step = math.prod(INERT_PRIMES)
        roots = [GaussianRational(Fraction(1, 2) + k * step, Fraction(k * step))
                 for k in range(3)]
        res = poly_root_search(Polynomial.from_roots(roots) * scalar(4))
        assert res.complete
        assert res.roots == tuple((r, 1) for r in roots)

    def test_roots_congruent_modulo_every_prime_in_the_budget_are_refused(self):
        # the roots meet at -1-i, the last residue tried, modulo each of the
        # 17 primes up to 131; the 18th, 139, would pass ROOT_SEARCH_BUDGET
        # (sixty such primes took 9.7 s before the budget)
        primes = [q for q in range(3, 132, 4) if all(q % k for k in range(3, q, 2))]
        assert sum(q * q for q in primes) <= algebra.ROOT_SEARCH_BUDGET < \
            sum(q * q for q in primes + [139])
        step = math.prod(primes)
        roots = [GaussianRational(Fraction(-1 + k * step), Fraction(-1)) for k in range(3)]
        start = time.perf_counter()
        with pytest.raises(AlgebraError, match=f"budget of {algebra.ROOT_SEARCH_BUDGET}"):
            poly_root_search(Polynomial.from_roots(roots))
        assert time.perf_counter() - start < 1.0

    def test_coefficient_beyond_a_float(self):
        p = Polynomial.from_roots([scalar(10 ** 400), scalar(3), scalar("2/7")])
        res = poly_root_search(p)
        assert res.complete
        assert {r for r, _ in res.roots} == {scalar(10 ** 400), scalar(3), scalar("2/7")}

    def test_runs_without_mpmath(self):
        # mpmath may be absent: with its import blocked, the inputs that
        # once needed it as a fallback are still answered in full
        code = """if True:
            import sys
            sys.modules["mpmath"] = None
            from fractions import Fraction
            from fuchskit.algebra import Polynomial, poly_root_search, scalar
            roots = [Fraction(10 ** 19 + 3, 10 ** 20 + 7),
                     Fraction(-31415926535897932384626, 99999999999999999989)]
            for rs in (roots, [10 ** 400, 3, Fraction(2, 7)]):
                res = poly_root_search(Polynomial.from_roots(rs))
                assert res.complete and [r for r, _ in res.roots] == sorted(map(scalar, rs), key=lambda s: s.sort_key())
            res = poly_root_search(Polynomial.of(-2, 0, 1) * Polynomial.from_roots(roots[:1]))
            assert not res.complete and res.remainder == Polynomial.of(-2, 0, 1)
        """
        src = str(Path(algebra.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    @given(st.lists(small_gaussian_roots, max_size=4),
           st.lists(gaussian_integer_factors, max_size=2))
    @example([scalar(2), scalar(2), scalar("-1/3")], [[-2, 0, 1]])
    @example([I, GaussianRational(Fraction(1, 2), Fraction(3))], [[1, 1, 1], [1, 0, 0, 1]])
    @example([], [[0, 4, 4, 1], [-1, 0, 0, 1]])  # z (z + 2)^2 and z^3 - 1
    @settings(max_examples=60, deadline=None)
    def test_matches_the_exhaustive_reference(self, roots, factors):
        p = Polynomial.from_roots(roots)
        want = set(roots)
        for cs in factors:
            cs = [scalar(c) for c in cs]
            p = p * Polynomial.from_list(cs)
            want |= _exhaustive_roots(cs)
        want = {r: _multiplicity(p, r) for r in want}
        res = poly_root_search(p)
        assert dict(res.roots) == want
        assert res.complete == (sum(want.values()) == p.degree())
        assert Polynomial.from_roots(res.root_list()) * res.remainder == p

    @pytest.mark.parametrize("coeffs", [(-2, 0, 1), (1, 1, 1)])
    def test_certificate_rules_out_roots(self, coeffs):
        # z^2 - 2 and z^2 + z + 1 have no root in Q(i)
        p = Polynomial.of(*coeffs)
        res = poly_root_search(p)
        assert res.roots == () and not res.complete and res.remainder == p

    @given(small_gaussian_roots, st.lists(scalars, min_size=0, max_size=3))
    @example(I, [-I])  # z^2 + 1
    @settings(max_examples=60, deadline=None)
    def test_certificate_never_accepts_a_planted_root(self, root, others):
        p = Polynomial.from_roots([root, *others]) * Polynomial.of(-2, 0, 1)
        assert root in dict(poly_root_search(p).roots)

    @pytest.mark.parametrize("lead", [scalar(3), scalar(21),
                                      GaussianRational(Fraction(3), Fraction(3)),
                                      scalar(3 * 7 * 11 * 19)])
    def test_certificate_skips_primes_dividing_the_top_numerator(self, lead):
        # the root 1/lead is seen by no inert prime dividing lead, so the
        # search moves on to the first prime that does not divide it
        p = Polynomial.from_list([-1, lead]) * Polynomial.of(-2, 0, 1)
        res = poly_root_search(p)
        assert res.roots == ((ONE / lead, 1),) and not res.complete

    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_recovers_planted_integer_roots(self, roots):
        p = Polynomial.from_roots([scalar(r) for r in roots])
        res = poly_root_search(p)
        assert res.complete
        assert sorted(res.root_list(), key=lambda s: s.sort_key()) == \
            sorted([scalar(r) for r in roots], key=lambda s: s.sort_key())
