"""Exact arithmetic kernel: Gaussian rationals, dense polynomials, the
printed form of rational functions, Taylor coefficients, and matrix
algebra by one elimination per entry ring: field elimination over Q(i),
fraction-free Bareiss over Q(i)[s] for a determinant and adjugate.
`document` and `Report` are the one rule by which a result becomes JSON.

Q(i) has one layout, that of FLINT's fmpq_poly (Hart, ICMS 2010):
Gaussian-integer numerators over one positive integer denominator, on
Python ints.  A scalar `GaussianRational` is (a + i b)/d and a polynomial
is its numerator vectors over one den, both in canonical form (den > 0,
coprime to the numerator parts), so equality compares parts.  Arithmetic,
Euclid, Bareiss and elimination run on ints, and the boundaries between
scalars and polynomials pass ints; `Fraction` appears only in parsing and
in the `re` and `im` views of a scalar.  Values in Q(i)(z) are computed
as polynomials over one common denominator by the modules that need them;
a `RationalFunction` is only their reduced, printed form (numerator and
denominator coprime, denominator monic), with no arithmetic of its own.

Every computation in this module is exact.  Floating point appears only in
`GaussianRational.__complex__`, the conversion for the numeric layer.
`poly_root_search` finds the roots in Q(i) by lifting them modulo powers of
an inert prime and reconstructing them as fractions, and verifies each by
exact substitution, so the part it leaves unfactored has no root in Q(i).
"""
from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Callable, Iterable, Sequence, Union


class AlgebraError(ValueError):
    pass


class DomainError(ValueError):
    """Invalid operator data or an operation outside its domain."""


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def document(v):
    """v's `to_json` when it has one, [re, im] floats for a complex number,
    the document of its `tolist` for a numpy value, a list for a tuple or
    list, a dict item by item, and any other value (a bool, an int, a
    float, a str or None) as it is."""
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, complex):
        return [float(v.real), float(v.imag)]
    if hasattr(v, "tolist"):
        return document(v.tolist())
    if isinstance(v, (tuple, list)):
        return [document(x) for x in v]
    if isinstance(v, dict):
        return {k: document(x) for k, x in v.items()}
    return v


class Report:
    """A dataclass whose document is its fields, each as its own document."""

    def to_json(self) -> dict:
        return {f.name: document(getattr(self, f.name)) for f in fields(self)}


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

ScalarLike = Union["GaussianRational", Fraction, int, str, dict]

_HASH_IMAG, _HASH_HALF = sys.hash_info.imag, 1 << (sys.hash_info.width - 1)
EXCERPT = 40  # characters of a rejected input quoted in an error message
# The most digits of a number that fuchskit reads or prints, whatever
# Python's own int-to-text limit is set to; 4300 is that limit's default.
MAX_DIGITS = 4300


def check_digits(text: str, what: str) -> str:
    """text, or DomainError when it holds a run of more than MAX_DIGITS
    digits; only a text longer than the bound is searched."""
    if len(text) > MAX_DIGITS:
        longest = max(map(len, re.findall(r"\d+", text)), default=0)
        if longest > MAX_DIGITS:
            raise DomainError(f"{what} has a number of {longest} digits, past "
                              f"the bound of {MAX_DIGITS} digits")
    return text


class GaussianRational:
    """Element (a + i b)/d of Q(i) on Python ints, the layout of one
    `Polynomial` coefficient.  The form is canonical: d > 0 and
    gcd(a, b, d) = 1, so zero is (0, 0, 1) and equal values have equal
    parts.  Each result takes one gcd of its three parts; `re` and `im`
    give the parts as Fractions."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re, im):
        """re + i im, for ints or Fractions re and im."""
        p, q, r, s = re.numerator, re.denominator, im.numerator, im.denominator
        d = q // gcd(q, s) * s
        self.a, self.b, self.d = p * (d // q), r * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = other if type(other) is GaussianRational else scalar(other)
        return _sum(self, o.a, o.b, o.d)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        o = other if type(other) is GaussianRational else scalar(other)
        return _sum(self, -o.a, -o.b, o.d)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return scalar(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = other if type(other) is GaussianRational else scalar(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        """Times conj(o) d_o / N, for N = a_o^2 + b_o^2."""
        o = other if type(other) is GaussianRational else scalar(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _reduced((a * c + b * e) * o.d, (b * c - a * e) * o.d, self.d * n)

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return scalar(other) / self

    def __neg__(self) -> "GaussianRational":
        return _gr(-self.a, -self.b, self.d)

    def __pow__(self, k: int) -> "GaussianRational":
        """Square and multiply on the numerator, then one gcd with d^k."""
        if k < 0:
            return (ONE / self) ** -k
        a, b, d = self.a, self.b, self.d ** k
        if b == 0:
            return _gr(a ** k, 0, d)  # gcd(a, d) = 1 carries over to the powers
        ra, rb = 1, 0
        while k:
            if k & 1:
                ra, rb = ra * a - rb * b, ra * b + rb * a
            k >>= 1
            if k:
                a, b = a * a - b * b, 2 * a * b
        return _reduced(ra, rb, d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = scalar(other)
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        """That of the equal int or Fraction when real, else Python's complex
        rule on the parts, wrapped to a machine word (Python maps -1 to -2)."""
        h = hash(self.a if self.d == 1 else self.re)
        if self.b:
            h = (h + _HASH_IMAG * hash(self.im) + _HASH_HALF) % (2 * _HASH_HALF) - _HASH_HALF
        return h

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def is_integer(self) -> bool:
        return self.d == 1 and not self.b

    def as_int(self) -> int:
        if not self.is_integer():
            raise AlgebraError(f"not an integer: {self}")
        return self.a

    def sort_key(self):
        return (self.re, self.im)

    def __complex__(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does
        return complex(self.a / self.d, self.b / self.d)

    def to_json(self):
        """'p/q' for rational values, {'re':..,'im':..} otherwise."""
        if not self.b:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        ims = f"{im}*i" if abs(im) != 1 else ("i" if im > 0 else "-i")
        if re == 0:
            return ims
        return f"{re}{'+' if im > 0 else ''}{ims}"

    __repr__ = __str__


_new = object.__new__


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """(a + i b)/d from parts already in canonical form."""
    x = _new(GaussianRational)
    x.a, x.b, x.d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The canonical form of (a + i b)/d, for d > 0."""
    g = gcd(a, b, d)
    if g == 1:
        return _gr(a, b, d)
    return _gr(a // g, b // g, d // g)


def _sum(x: GaussianRational, a: int, b: int, d: int) -> GaussianRational:
    """x + (a + i b)/d for canonical parts.  With g = gcd(x.d, d), a prime
    of x.d/g or d/g cannot divide both parts of the new numerator, so the
    common factor of the result divides g (Knuth, TAOCP vol. 2, 4.5.1)."""
    if x.d == d:
        return _reduced(x.a + a, x.b + b, d)
    g = gcd(x.d, d)
    s, t = d // g, x.d // g
    a, b = x.a * s + a * t, x.b * s + b * t
    h = gcd(a, b, g)
    return _gr(a // h, b // h, t * d // h)


def scalar(x: ScalarLike) -> GaussianRational:
    """Coerce int/Fraction/str/dict into a GaussianRational.

    Strings follow the serialization convention: 'p/q' is rational; complex
    values travel as {'re': 'p/q', 'im': 'r/s'}.  A bool is not a number.
    """
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, bool):
        raise AlgebraError(f"cannot coerce {x!r} to a scalar")
    if isinstance(x, int):
        return _gr(x, 0, 1)
    if isinstance(x, Fraction):
        return _gr(x.numerator, 0, x.denominator)
    texts = [x] if isinstance(x, str) else (
        [str(x.get("re", 0)), str(x.get("im", 0))] if isinstance(x, dict) else [])
    for text in texts:  # outside the try: a DomainError is a ValueError too
        check_digits(text, "scalar")
    try:
        if isinstance(x, str):
            return scalar(Fraction(x.strip()))
        if isinstance(x, dict):
            return GaussianRational(Fraction(str(x.get("re", 0)).strip()),
                                    Fraction(str(x.get("im", 0)).strip()))
    except (ZeroDivisionError, ValueError) as exc:
        raise AlgebraError(f"cannot coerce {_excerpt(repr(x))} to a scalar: "
                           f"{_excerpt(str(exc))}") from exc
    raise AlgebraError(f"cannot coerce {_excerpt(repr(x))} to a scalar")


def _excerpt(text: str) -> str:
    """text, or its first EXCERPT characters and its length when longer."""
    if len(text) <= EXCERPT:
        return text
    return f"{text[:EXCERPT]}... ({len(text)} characters)"


ZERO = _gr(0, 0, 1)
ONE = _gr(1, 0, 1)
I = _gr(0, 1, 1)


def falling_factorial(x, k: int):
    """x(x-1)...(x-k+1); works for scalars and for polynomial arguments."""
    if k < 0:
        raise AlgebraError("falling factorial needs k >= 0")
    out = x * 0 + 1
    for j in range(k):
        out = out * (x - j)
    return out


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Dense univariate polynomial over Q(i), coefficients lowest degree first.

    Coefficient j is (re[j] + i im[j]) / den.  The form is canonical: no
    trailing zero coefficient, den > 0, and den and all numerator parts
    coprime, so zero is ((), (), 1) and equality compares parts.  `coeffs`
    is the GaussianRational view, built on first use.
    """

    __slots__ = ("re", "im", "den", "_coeffs")

    def __init__(self, re: Sequence[int], im: Sequence[int], den: int = 1):
        """The canonical form of (re + i im)/den, for den > 0."""
        n = len(re)
        while n and not (re[n - 1] or im[n - 1]):
            n -= 1
        re, im = re[:n], im[:n]
        g = gcd(den, *re, *im)
        if g > 1:
            re, im, den = [x // g for x in re], [x // g for x in im], den // g
        self.re, self.im, self.den, self._coeffs = tuple(re), tuple(im), den, None

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(_reduced(a, b, den) for a, b in zip(self.re, self.im))
        return self._coeffs

    @staticmethod
    def of(*cs) -> "Polynomial":
        return Polynomial.from_list(cs)

    @staticmethod
    def from_list(cs: Iterable) -> "Polynomial":
        cs = [scalar(c) for c in cs]
        den = lcm(*(c.d for c in cs))
        return Polynomial([c.a * (den // c.d) for c in cs],
                          [c.b * (den // c.d) for c in cs], den)

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial((), ())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,), (0,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1), (0, 0))

    @staticmethod
    def constant(c) -> "Polynomial":
        c = scalar(c)
        return Polynomial((c.a,), (c.b,), c.d)

    @staticmethod
    def from_roots(roots: Sequence[ScalarLike]) -> "Polynomial":
        p = Polynomial.one()
        for r in roots:
            p = p * Polynomial.from_list([-scalar(r), ONE])
        return p

    def degree(self) -> int:
        return len(self.re) - 1

    def is_zero(self) -> bool:
        return not self.re

    def lc(self) -> GaussianRational:
        if self.is_zero():
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeff(len(self.re) - 1)

    def coeff(self, j: int) -> GaussianRational:
        if 0 <= j < len(self.re):
            return _reduced(self.re[j], self.im[j], self.den)
        return ZERO

    def __add__(self, other) -> "Polynomial":
        o = _as_poly(other)
        g = gcd(self.den, o.den)
        n = max(len(self.re), len(o.re))
        re, im = [0] * n, [0] * n
        for p, f in ((self, o.den // g), (o, self.den // g)):
            for j, (a, b) in enumerate(zip(p.re, p.im)):
                re[j] += a * f
                im[j] += b * f
        return Polynomial(re, im, self.den // g * o.den)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) - self

    def __neg__(self) -> "Polynomial":
        return Polynomial([-x for x in self.re], [-x for x in self.im], self.den)

    def __mul__(self, other) -> "Polynomial":
        o = _as_poly(other)
        n = len(self.re) + len(o.re) - 1
        re, im = [0] * n, [0] * n
        for i, (a, b) in enumerate(zip(self.re, self.im)):
            for j, (c, d) in enumerate(zip(o.re, o.im)):
                re[i + j] += a * c - b * d
                im[i + j] += a * d + b * c
        return Polynomial(re, im, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise AlgebraError("negative polynomial power")
        out, base = None, self  # square only while bits of k remain
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return Polynomial.one() if out is None else out

    def __eq__(self, other) -> bool:
        if isinstance(other, (Polynomial, GaussianRational, int, Fraction)):
            o = _as_poly(other)
            return self.den == o.den and self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def __divmod__(self, other):
        """Long division on integers: for self = A/a and other = B/b the loop
        keeps f*A = Q*B + R, s = f*a, giving Q*b/s and R/s.  Each quotient
        coefficient is R's top coefficient t over L = lc(B), t*conj(L)/|L|^2;
        Q and R are first scaled by the part of |L|^2 that t*conj(L) does
        not cancel, so f = 1 when B divides A in Z[i][z]."""
        o = _as_poly(other)
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        br, bi, m = o.re, o.im, o.degree()
        lr, li = br[-1], bi[-1]
        cr, ci, n = (lr, -li, lr * lr + li * li) if li else (1 if lr > 0 else -1, 0, abs(lr))
        rr, ri = list(self.re), list(self.im)
        qr, qi = [0] * (len(rr) - m), [0] * (len(rr) - m)
        s = self.den
        for k in range(len(rr) - m - 1, -1, -1):
            tr, ti = rr[k + m] * cr - ri[k + m] * ci, rr[k + m] * ci + ri[k + m] * cr
            g = gcd(tr, ti, n)
            if g != n:
                f = n // g
                s *= f
                rr, ri = [x * f for x in rr], [x * f for x in ri]
                qr, qi = [x * f for x in qr], [x * f for x in qi]
            tr, ti = qr[k], qi[k] = tr // g, ti // g
            for j in range(m):
                rr[k + j] -= tr * br[j] - ti * bi[j]
                ri[k + j] -= tr * bi[j] + ti * br[j]
        return (Polynomial([x * o.den for x in qr], [x * o.den for x in qi], s),
                Polynomial(rr[:m], ri[:m], s))

    def exact_div(self, other) -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise AlgebraError("inexact polynomial division")
        return q

    def monic(self) -> "Polynomial":
        """Numerators times conj(L) over |L|^2, L the top numerator: the
        primitive integer vector over its own (positive) top coefficient."""
        if self.is_zero():
            return self
        lr, li = self.re[-1], self.im[-1]
        return Polynomial([a * lr + b * li for a, b in zip(self.re, self.im)],
                          [b * lr - a * li for a, b in zip(self.re, self.im)],
                          lr * lr + li * li)

    def derivative(self) -> "Polynomial":
        return Polynomial([j * a for j, a in enumerate(self.re)][1:],
                          [j * b for j, b in enumerate(self.im)][1:], self.den)

    def __call__(self, x: ScalarLike) -> GaussianRational:
        """Horner's rule on integers: d^(n-1) p(x) for x = X/d, w = d^n."""
        x = scalar(x)
        if self.is_zero() or x.is_zero():
            return self.coeff(0)
        xr, xi, d = x.a, x.b, x.d
        ur = ui = 0
        w = 1
        for a, b in zip(reversed(self.re), reversed(self.im)):
            ur, ui = ur * xr - ui * xi + a * w, ur * xi + ui * xr + b * w
            w *= d
        return _reduced(ur, ui, self.den * w // d)

    def shift(self, c: ScalarLike) -> "Polynomial":
        """p(z + c) by synthetic division (Knuth, TAOCP vol. 2, 4.6.4) on
        integers: for c = C/d and n = deg p, shifting the numerators of
        d^n p(u/d) by C leaves d^(n-j) times coefficient j of p(z + c)."""
        c, n = scalar(c), len(self.re) - 1
        if n < 1 or c.is_zero():
            return self
        cr, ci, d = c.a, c.b, c.d
        ar = [a * d ** (n - j) for j, a in enumerate(self.re)]
        ai = [b * d ** (n - j) for j, b in enumerate(self.im)]
        for k in range(n):
            for j in range(n - 1, k - 1, -1):
                ar[j], ai[j] = (ar[j] + cr * ar[j + 1] - ci * ai[j + 1],
                                ai[j] + cr * ai[j + 1] + ci * ar[j + 1])
        return Polynomial([a * d ** j for j, a in enumerate(ar)],
                          [b * d ** j for j, b in enumerate(ai)], self.den * d ** n)

    def reversed_coeffs(self, upto: int | None = None) -> "Polynomial":
        """z^d * p(1/z) where d = upto (defaults to deg p)."""
        d = self.degree() if upto is None else upto
        if d < self.degree():
            raise AlgebraError("reversal degree below polynomial degree")
        pad = [0] * (d - self.degree())
        return Polynomial(pad + list(self.re[::-1]), pad + list(self.im[::-1]),
                          self.den)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            if j == 0:
                parts.append(cs)
            else:
                var = "z" if j == 1 else f"z^{j}"
                parts.append(var if cs == "1" else (f"-{var}" if cs == "-1" else f"{cs}*{var}"))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _as_poly(x) -> Polynomial:
    return x if isinstance(x, Polynomial) else Polynomial.constant(x)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid.  Each remainder is made monic (Brown, JACM 18,
    1971), which holds it as its primitive integer vector over its top
    coefficient (Knuth, TAOCP vol. 2, 4.6.1): the loop runs on primitive
    integer remainders.  A zero or constant operand answers at once."""
    if a.is_zero() or b.is_zero():
        return (b if a.is_zero() else a).monic()
    if a.degree() == 0 or b.degree() == 0:
        return Polynomial.one()
    b = b.monic()
    while not b.is_zero():
        a, b = b, divmod(a, b)[1].monic()
    return a


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFunction:
    """num/den in canonical form: num and den coprime, den monic, so zero is
    0/1 and equal functions have equal parts.  Built only by `make`, which
    reduces an arbitrary pair with one gcd: the printed form of a value in
    Q(i)(z), and the input of `series_of_rational`."""

    num: Polynomial
    den: Polynomial

    @staticmethod
    def make(num, den=None) -> "RationalFunction":
        num = _as_poly(num)
        den = Polynomial.one() if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.degree() > 0:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num, den = num.exact_div(g), den.exact_div(g)
        # num times den.den conj(L) / |L|^2, L the top numerator of den
        lr, li, f = den.re[-1], den.im[-1], den.den
        return RationalFunction(
            Polynomial([(a * lr + b * li) * f for a, b in zip(num.re, num.im)],
                       [(b * lr - a * li) * f for a, b in zip(num.re, num.im)],
                       num.den * (lr * lr + li * li)),
            den.monic())

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __str__(self) -> str:
        if self.den.degree() == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Taylor coefficients
# ---------------------------------------------------------------------------

def series_of_rational(rf: RationalFunction, center: ScalarLike,
                       order: int) -> tuple:
    """Taylor coefficients of rf at `center` through (z-center)^order, as a
    tuple from the constant term up.

    Errors out when the (already gcd-reduced) denominator vanishes at the
    center, i.e. on expansion at a genuine pole.
    """
    center = scalar(center)
    den = rf.den.shift(center)
    if not (den.re[0] or den.im[0]):
        raise AlgebraError(f"series expansion at a pole: {center}")
    return tuple(series_divide(rf.num.shift(center), den, order))


def series_divide(num: Polynomial, den: Polynomial, order: int) -> list:
    """Coefficients 0..order of the power series num/den, den(0) != 0: by
    the reversal z^d p(1/z), they are the quotient coefficients, top first,
    of the long division of num reversed at order + deg den by den reversed."""
    num = Polynomial(num.re[:order + 1], num.im[:order + 1], num.den)
    q = divmod(num.reversed_coeffs(order + den.degree()), den.reversed_coeffs())[0]
    return [q.coeff(order - j) for j in range(order + 1)]


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix over Q(i) or Q(i)[s]: scalar or polynomial entries.
    Field elimination over Q(i).  Q(i)[s] is not a field: only `det` and
    `det_adjugate` accept its entries, by one fraction-free Bareiss pass.
    """

    rows: tuple

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(n: int, one=None) -> "ExactMatrix":
        one = ONE if one is None else one
        zero = one - one
        return ExactMatrix(tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    def shape(self) -> tuple:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def map(self, fn: Callable) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(fn(e) for e in row) for row in self.rows))

    def __add__(self, o: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(map(add, r1, r2))
                                 for r1, r2 in zip(self.rows, o.rows)))

    def __sub__(self, o: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(map(sub, r1, r2))
                                 for r1, r2 in zip(self.rows, o.rows)))

    def __mul__(self, o: "ExactMatrix") -> "ExactMatrix":
        if self.shape()[1] != o.shape()[0]:
            raise AlgebraError("matrix shape mismatch")
        cols = list(zip(*o.rows))
        return ExactMatrix(tuple(tuple(functools.reduce(add, map(mul, row, col)) for col in cols)
                                 for row in self.rows))

    def scale(self, c) -> "ExactMatrix":
        return self.map(lambda e: e * c)

    def trace(self):
        m, n = self.shape()
        if m != n:
            raise AlgebraError("trace of a non-square matrix")
        return functools.reduce(add, (self.rows[i][i] for i in range(m)))

    def det(self):
        """Determinant, exact in the entry ring: Gaussian elimination over
        Q(i), fraction-free Bareiss elimination over Q(i)[s]."""
        m, n = self.shape()
        if m != n:
            raise AlgebraError("determinant of a non-square matrix")
        if m == 0:
            return ONE
        rows = [list(r) for r in self.rows]
        if _has_polynomial(rows):
            return _bareiss(rows)[0]
        return _echelon_det(*_eliminate(rows, n), n)

    def det_adjugate(self, b: "ExactMatrix") -> tuple:
        """(det M, adj(M) B) over Q(i)[s] from one fraction-free pass, or
        (0, None) for a singular M.  Entry (j, c) of adj(M) B is det M with
        column j replaced by column c of B, a Cramer numerator of M x = B."""
        m, n = self.shape()
        if m != n or m == 0 or b.shape()[0] != m:
            raise AlgebraError("det_adjugate needs a nonempty square matrix "
                               "and a block with as many rows")
        det, adj_b = _bareiss([list(r) + list(s) for r, s in zip(self.rows, b.rows)])
        return det, None if adj_b is None else ExactMatrix.from_rows(adj_b)

    def rank(self) -> int:
        """Row rank, by forward elimination over the entry field."""
        return len(_eliminate([list(r) for r in self.rows], self.shape()[1])[1])

    def rref(self) -> tuple:
        """Reduced row echelon form over the entry field; returns (matrix,
        pivot cols)."""
        rows, pivots, _ = _eliminate([list(r) for r in self.rows],
                                     self.shape()[1], reduce=True)
        return ExactMatrix.from_rows(rows), pivots

    def nullspace(self) -> list:
        """Basis of the right nullspace (field entries), as column vectors."""
        n = self.shape()[1]
        red, pivots = self.rref()
        free = [j for j in range(n) if j not in pivots]
        basis = []
        for f in free:
            vec = [ZERO] * n
            vec[f] = ONE
            for r, pc in enumerate(pivots):
                vec[pc] = -red.rows[r][f]
            basis.append(tuple(vec))
        return basis

    def char_poly(self) -> Polynomial:
        """det(x I - M) for a scalar matrix, monic, exact."""
        m, n = self.shape()
        if m != n:
            raise AlgebraError("characteristic polynomial of non-square matrix")
        x = Polynomial.x()
        mat = ExactMatrix.from_rows(
            [[(x if i == j else Polynomial.zero()) - Polynomial.constant(self.rows[i][j])
              for j in range(n)] for i in range(m)])
        return mat.det()

    def to_json(self) -> list:
        return document(self.rows)


def _has_polynomial(rows) -> bool:
    return any(isinstance(e, Polynomial) for row in rows for e in row)


def _echelon_det(rows: list, pivots: tuple, sign: int, n: int):
    """Determinant of the leading n x n block from its row echelon form:
    sign times the diagonal product, or zero when a pivot is missing."""
    if pivots != tuple(range(n)):
        return ZERO
    out = functools.reduce(mul, (rows[i][i] for i in range(n)))
    return out if sign == 1 else -out


def _eliminate(rows: list, ncols: int, reduce: bool = False) -> tuple:
    """Gaussian elimination over a field, in place on a list of row lists.

    The first nonzero entry of a column at or below the current row is its
    pivot; the entries below it are cleared, which leaves a row echelon
    form.  With reduce=True each pivot is also scaled to one and cleared
    above, which leaves the reduced row echelon form.  Returns (rows,
    pivot_cols, sign) with sign = (-1)^(row swaps).
    """
    if _has_polynomial(rows):
        raise AlgebraError("elimination needs field entries; "
                           "polynomial entries allow only det")
    m = len(rows)
    pivots = []
    sign = 1
    for col in range(ncols):
        top = len(pivots)
        if top == m:
            break
        piv = next((r for r in range(top, m) if not rows[r][col].is_zero()), None)
        if piv is None:
            continue
        if piv != top:
            rows[top], rows[piv] = rows[piv], rows[top]
            sign = -sign
        prow = rows[top]
        inv = ONE / prow[col]
        # only the pivot row's nonzero entries change the other rows
        rest = [j for j in range(col + 1, ncols) if not prow[j].is_zero()]
        if reduce:
            for j in rest:
                prow[j] = prow[j] * inv
            prow[col] = ONE
        for r in range(0 if reduce else top + 1, m):
            row = rows[r]
            if r == top or row[col].is_zero():
                continue
            f = row[col] if reduce else row[col] * inv
            for j in rest:
                row[j] = row[j] - f * prow[j]
            row[col] = ZERO
        pivots.append(col)
    return rows, tuple(pivots), sign


def _bareiss(a: list) -> tuple:
    """Fraction-free (Bareiss) elimination on the rows of [M | B], M square:
    (det M, adj(M) B as row lists), or (0, None) when a column of M has no
    pivot.  Rows are scaled to Z[i][s], so every exact_div divides
    integers, and the product of the scales divides out last.  A row swap negates one row, which keeps
    det M.  With B, rows above each pivot are cleared too (Nakos, Turner &
    Williams, SIGSAM Bull. 31(3), 1997), which leaves det(M) M^-1 B there.

    A row with a zero in the pivot column is left alone: step k would only
    scale it by P_k/P_(k-1), P_k the pivot of step k and P_-1 = 1.  These
    factors telescope, so a row at level L, last updated at step L-1, holds
    its step-k values over P_(k-1)/P_(L-1); its update divides by P_(L-1),
    and it is caught up, on the columns still read, before it pivots and at
    the end.  Each quotient is a minor of [M | B] (Sylvester), so exact."""
    m, ncols = len(a), len(a[0])
    scale = 1
    for i, row in enumerate(a):
        d = lcm(*(_as_poly(e).den for e in row))
        a[i] = [_as_poly(e) * d for e in row]
        scale *= d
    solve = ncols > m
    steps = m if solve else m - 1
    piv, level = [Polynomial.one()], [0] * m  # piv[L] = P_(L-1)

    def catch_up(i, k, cols):
        low, level[i] = level[i], k
        for j in cols if low < k else ():
            v = a[i][j] * piv[k]
            a[i][j] = v.exact_div(piv[low]) if low else v

    for r in range(steps):
        if a[r][r].is_zero():
            r2 = next((i for i in range(r + 1, m) if not a[i][r].is_zero()), None)
            if r2 is None:
                return Polynomial.zero(), None
            a[r], a[r2] = [-e for e in a[r2]], a[r]
            level[r], level[r2] = level[r2], level[r]
        catch_up(r, r, range(r, ncols))
        prow, p = a[r], a[r][r]
        for i in range(0 if solve else r + 1, m):
            row, low = a[i], level[i]
            if i == r or row[r].is_zero():
                continue
            for j in range(r + 1, ncols):
                v = row[j] * p - row[r] * prow[j]
                row[j] = v.exact_div(piv[low]) if low else v
            level[i] = r + 1
        level[r] = r + 1
        piv.append(p)
    for i in range(m) if solve else (m - 1,):
        catch_up(i, steps, range(m, ncols) if solve else (m - 1,))
    d = a[m - 1][m - 1]
    return (Polynomial(d.re, d.im, scale),
            [[Polynomial(e.re, e.im, scale) for e in row[m:]] for row in a])


# ---------------------------------------------------------------------------
# root search over Q(i)
# ---------------------------------------------------------------------------

# The most evaluations, the sum of q^2 over the primes tried, spent finding a
# prime at which the roots stay simple: the 17 primes q = 3 mod 4 up to 131.
ROOT_SEARCH_BUDGET = 10 ** 5


@dataclass(frozen=True)
class RootSearchResult:
    """The roots of a polynomial in Q(i) and what is left of it.  `remainder`
    has no root in Q(i), so `complete` (a constant remainder) means exactly
    that the polynomial splits into linear factors over Q(i)."""

    roots: tuple            # ((GaussianRational, multiplicity), ...)
    remainder: Polynomial   # unfactored part, constant when fully split
    complete: bool

    def root_list(self) -> list:
        return [r for r, mult in self.roots for _ in range(mult)]


def poly_root_search(p: Polynomial) -> RootSearchResult:
    """All roots of p lying in Q(i), with multiplicities, found exactly.

    The root 0 is split off.  The roots of the square-free part of the rest
    come from solving it when it is linear, and from `_lifted_roots`
    otherwise.  Each is verified by exact substitution, and its multiplicity
    comes from repeated exact division.  What is left is `remainder`, which
    has no root in Q(i), so `complete` is True exactly when p splits into
    linear factors over Q(i).
    """
    if p.is_zero():
        raise AlgebraError("root search on the zero polynomial")
    zmult = next(j for j, c in enumerate(zip(p.re, p.im)) if any(c))
    work = Polynomial(p.re[zmult:], p.im[zmult:], p.den)
    roots = [(ZERO, zmult)] if zmult else []
    if work.degree() >= 1:
        sf = work.exact_div(poly_gcd(work, work.derivative())) \
            if work.degree() >= 2 else work
        cands = [-sf.coeff(0) / sf.coeff(1)] if sf.degree() == 1 else _lifted_roots(sf)
        for cand in cands:
            if not work(cand).is_zero():
                continue
            lin, mult = Polynomial.from_roots([cand]), 0
            while (qr := divmod(work, lin))[1].is_zero():
                work, mult = qr[0], mult + 1
            roots.append((cand, mult))
    roots.sort(key=lambda t: t[0].sort_key())
    return RootSearchResult(tuple(roots), work, work.degree() <= 0)


def _lifted_roots(f: Polynomial) -> list:
    """Candidate roots in Q(i) of the square-free f, deg f >= 2, by q-adic
    lifting and rational reconstruction (Loos, SIAM J. Comput. 12, 1983;
    von zur Gathen and Gerhard, Modern Computer Algebra, 5.10 and ch. 15)
    on the Z[i] numerators c_0 ... c_n of f.

    A root u/v in lowest terms has u | c_0 and v | c_n, so its real and
    imaginary parts are fractions with numerators below
    x = isqrt(N(c_0) N(c_n)) + 1 and denominators N(v) <= d = N(c_n).  The
    prime q is the first q = 3 mod 4, inert in Z[i] so that Z[i]/q is the
    field F_{q^2}, that does not divide c_n and at which every root of f
    mod q is simple; the search is refused once the primes tried would cost
    more than ROOT_SEARCH_BUDGET evaluations.  Every root of f in Q(i)
    reduces to one of those roots, which Newton's iteration lifts uniquely
    modulo q^k; past 2xd, each part of the lift is the only fraction within
    those bounds.  So every root is a candidate, and a candidate is a root
    when exact substitution says so.
    """
    cs = list(zip(reversed(f.re), reversed(f.im)))  # top coefficient first
    # f' over the denominator of f: f.derivative() may divide out a content
    # divisible by q, which would change f' modulo q by more than a unit
    ds = [(j * a, j * b) for j, (a, b) in zip(range(len(cs) - 1, 0, -1), cs)]
    (lr, li), (cr, ci) = cs[0], cs[-1]
    d = lr * lr + li * li
    x = isqrt((cr * cr + ci * ci) * d) + 1
    spent = 0
    for q in _inert_primes():
        if lr % q or li % q:
            spent += q * q
            if spent > ROOT_SEARCH_BUDGET:
                raise AlgebraError("root search: the roots meet modulo every inert prime "
                                   f"in the budget of {ROOT_SEARCH_BUDGET} evaluations")
            if (zs := _simple_roots_mod(cs, ds, q)) is not None:
                break
    found = []
    for zr, zi in zs:
        m = q
        while m <= 2 * x * d:
            m *= m
            fr, fi = _eval_mod(cs, (zr, zi), m)
            dr, di = _eval_mod(ds, (zr, zi), m)
            n = pow(dr * dr + di * di, -1, m)  # f/f' = f conj(f') / N(f')
            zr, zi = (zr - (fr * dr + fi * di) * n) % m, (zi - (fi * dr - fr * di) * n) % m
        re, im = _reconstruct(zr, m, x, d), _reconstruct(zi, m, x, d)
        if re is not None and im is not None:
            found.append(_reduced(re[0] * im[1], im[0] * re[1], re[1] * im[1]))
    return found


def _inert_primes():
    """The primes q = 3 mod 4 in increasing order; they stay prime in Z[i]."""
    q = 3
    while True:
        if all(q % k for k in range(3, isqrt(q) + 1, 2)):
            yield q
        q += 4


def _simple_roots_mod(cs: list, ds: list, q: int) -> list | None:
    """The roots in Z[i]/q = F_{q^2} of the Z[i] coefficients cs, top first,
    by trying every element; None as soon as one is also a root of the
    derivative, whose coefficients are ds."""
    cs, ds = [(a % q, b % q) for a, b in cs], [(a % q, b % q) for a, b in ds]
    zs = []
    for z in product(range(q), repeat=2):
        if _eval_mod(cs, z, q) == (0, 0):
            if _eval_mod(ds, z, q) == (0, 0):
                return None
            zs.append(z)
    return zs


def _eval_mod(cs: list, z: tuple, m: int) -> tuple:
    """The Z[i] coefficients cs, top first, evaluated at z in Z[i]/m."""
    a, b = z
    vr = vi = 0
    for cr, ci in cs:
        vr, vi = (vr * a - vi * b + cr) % m, (vr * b + vi * a + ci) % m
    return vr, vi


def _reconstruct(t: int, m: int, x: int, d: int) -> tuple | None:
    """(a, b) with a/b = t mod m, |a| < x and 0 < b <= d, unique for
    m > 2xd, or None: the extended Euclidean algorithm on m and t, stopped
    at the first remainder below x (Modern Computer Algebra, 5.10)."""
    r0, r1, s0, s1 = m, t, 0, 1
    while r1 >= x:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    if abs(s1) > d:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)
