"""Reference routes for the residue tests, kept apart from the package.

They work entry by entry on reduced rational functions, the way the
package did before connections became one polynomial matrix over one
denominator, so the tests can hold the package's fast path against them.
"""
from fuchskit.algebra import ZERO, Polynomial, RationalFunction, series_divide


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
    if rf.is_zero():
        return rf
    d = max(rf.num.degree(), rf.den.degree())
    return RationalFunction.make(rf.num.reversed_coeffs(d),
                                 rf.den.reversed_coeffs(d))
