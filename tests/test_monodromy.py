"""Numeric transport: local loops, apparency detection, global closure."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fuchskit.algebra import ExactMatrix, Polynomial, RationalFunction, scalar
from fuchskit.connection import LogConnection, build_companion
from fuchskit.frobenius import annihilator_from_solutions
from fuchskit.monodromy import (
    _NumericConnection,
    anchored_monodromy,
    global_product,
    is_apparent_numeric,
    isomonodromy_sweep,
    monodromy,
)
from fuchskit.operator import DomainError, FuchsianOperator, validate_fuchsian
from fuchskit.sampling import (
    prescribed_exponent_operator,
    second_order_with_exponents,
)


def conn_of(op):
    return build_companion(op)


HALF = FuchsianOperator(order=1, real_points=(0,), apparent_points=(),
                        coeffs=([Fraction(1, 2)],))

# exponents {0,1/2} at 0 and {0,1/3} at 1; the two loop matrices do not
# commute, which pins down the composition order of the global product
TWO_POINT = FuchsianOperator(
    order=2, real_points=(0, 1), apparent_points=(),
    coeffs=([Fraction(1, 2), Fraction(-7, 6)],
            [0, Fraction(-1, 6), Fraction(1, 6)]))


class TestSingleLoop:
    def test_half_exponent_gives_minus_one(self):
        res = monodromy(conn_of(HALF), 0)
        assert abs(res.eigenvalues[0] + 1.0) < 1e-8
        assert res.est_error < 1e-9

    def test_imaginary_exponent_modulus(self):
        op = FuchsianOperator(order=1, real_points=(0,), apparent_points=(),
                              coeffs=([{"re": 0, "im": 1}],))
        res = monodromy(conn_of(op), 0)
        # counterclockwise: exponent i contracts by exp(-2 pi)
        assert abs(res.eigenvalues[0] - np.exp(-2 * np.pi)) < 1e-8

    def test_eigenvalues_match_prescribed_exponents(self):
        rng = random.Random(31)
        op = prescribed_exponent_operator(rng, 2, [Fraction(1, 2), Fraction(-1, 3)])
        res = monodromy(conn_of(op), 0)
        want = sorted([np.exp(1j * np.pi), np.exp(-2j * np.pi / 3)],
                      key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        got = sorted(res.eigenvalues,
                     key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        assert max(abs(a - b) for a, b in zip(want, got)) < 1e-7

    def test_default_radius(self):
        res = monodromy(conn_of(TWO_POINT), 0)
        assert res.loop.radius == pytest.approx(0.5)
        lone = monodromy(conn_of(HALF), 0)
        assert lone.loop.radius == pytest.approx(1.0)

    def test_guards(self):
        conn = conn_of(TWO_POINT)
        with pytest.raises(DomainError, match="not a pole"):
            monodromy(conn, 5)
        with pytest.raises(DomainError, match="radius"):
            monodromy(conn, 0, radius=0.0)


def _random_entry(rng, factors):
    """A Gaussian-rational numerator over a random product of factors."""
    def gauss():
        return scalar({"re": Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                       "im": Fraction(rng.randint(-9, 9), rng.randint(1, 7))})

    num = Polynomial.from_list([gauss() for _ in range(rng.randint(1, 4))])
    den = Polynomial.one()
    for f in factors:
        den = den * f ** rng.randint(0, 2)
    return RationalFunction.make(num, den)


class TestNumericView:
    POLES = (0, 1, {"re": 0, "im": 1}, {"re": -2, "im": "1/2"})
    POINTS = ({"re": "1/2", "im": "3/10"}, {"re": "-17/10", "im": "9/10"},
              {"re": "5/2", "im": "-6/5"}, {"re": "1/10", "im": -2},
              {"re": 7, "im": 4})

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_at_matches_exact_entries(self, m, seed):
        rng = random.Random(100 * m + seed)
        factors = [Polynomial.of(-scalar(p), 1) for p in self.POLES]
        rows = [[_random_entry(rng, factors) for _ in range(m)]
                for _ in range(m)]
        rows[0][m - 1] = RationalFunction.zero()   # a zero entry
        rows[m - 1][0] = _random_entry(rng, [])    # a polynomial entry
        dens = {rows[i][j].den.degree() for i in range(m) for j in range(m)}
        assert m == 1 or len(dens) > 1
        conn = LogConnection(size=m, matrix=ExactMatrix.from_rows(rows),
                             pole_points=self.POLES)
        num = _NumericConnection(conn)
        for pt in self.POINTS:
            z = scalar(pt)
            want = np.array([[complex(rows[i][j](z)) for i in range(m)]
                             for j in range(m)])   # B(z)^T
            got = num.at(complex(z))
            assert got.shape == (m, m)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_path_through_a_pole_is_refused(self):
        # the circle of radius 1 about 0 passes through the pole 1
        with pytest.raises(DomainError, match="meets a pole"):
            monodromy(conn_of(TWO_POINT), 0, radius=1.0)


class TestNumericParameters:
    """Non-finite or non-positive numeric parameters used to hang the
    integrator or be clamped by it; every entry point refuses them."""

    BAD = (0.0, -1.0, math.nan, math.inf)

    @pytest.mark.parametrize("bad", BAD)
    def test_radius(self, bad):
        conn = conn_of(TWO_POINT)
        with pytest.raises(DomainError, match="radius"):
            monodromy(conn, 0, radius=bad)
        with pytest.raises(DomainError, match="radius"):
            anchored_monodromy(conn, 0, base_point=-3, radius=bad)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf)])
    def test_base_point(self, bad):
        conn = conn_of(TWO_POINT)
        with pytest.raises(DomainError, match="base point"):
            anchored_monodromy(conn, 0, base_point=bad)
        with pytest.raises(DomainError, match="base point"):
            global_product(conn, base_point=bad)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("which", ["rtol", "atol"])
    def test_tolerances(self, bad, which):
        conn = conn_of(TWO_POINT)
        kw = {which: bad}
        for call in (lambda: monodromy(conn, 0, **kw),
                     lambda: anchored_monodromy(conn, 0, base_point=-3, **kw),
                     lambda: global_product(conn, **kw),
                     lambda: isomonodromy_sweep([TWO_POINT], point=0, **kw)):
            with pytest.raises(DomainError, match=which):
                call()


class TestApparentNumeric:
    def test_trivial_at_apparent_point(self):
        op = annihilator_from_solutions([[1], [0, 1], [0, 0, 0, 1]])
        res = monodromy(conn_of(op), 0)
        rep = is_apparent_numeric(res.matrix)
        assert rep.ok
        assert rep.identity_distance < 1e-8

    def test_unipotent_is_rejected(self):
        # integer exponents whose resonance does not cancel: the loop
        # matrix has eigenvalues (1, 1) yet is not the identity
        op = second_order_with_exponents((0, 1), (Fraction(2), Fraction(1, 3)),
                                         quadratic_part=Fraction(1))
        res = monodromy(conn_of(op), 0)
        rep = is_apparent_numeric(res.matrix)
        assert not rep.ok
        assert rep.char_poly_distance < 1e-6  # spectrum alone cannot tell
        assert rep.identity_distance > 1e-2

    def test_identity_accepts(self):
        rep = is_apparent_numeric(np.eye(3, dtype=complex))
        assert rep.ok and rep.identity_distance == 0.0


class TestAnchoredLoops:
    def test_conjugate_of_plain_loop(self):
        conn = conn_of(TWO_POINT)
        plain = monodromy(conn, 0)
        anchored = anchored_monodromy(conn, 0, base_point=-0.7 - 1.3j)
        assert np.max(np.abs(plain.char_poly - anchored.char_poly)) < 1e-8

    def test_est_error_sums_every_enclosed_pole(self):
        # radius 5 about 0 also encloses the pole 1; the determinant
        # reference must include its trace residue too
        conn = conn_of(TWO_POINT)
        anchored = anchored_monodromy(conn, 0, base_point=-20 - 3j, radius=5.0)
        assert anchored.est_error < 1e-8
        assert monodromy(conn, 0, radius=5.0).est_error < 1e-8

    def test_base_inside_loop_rejected(self):
        conn = conn_of(TWO_POINT)
        with pytest.raises(DomainError, match="inside"):
            anchored_monodromy(conn, 0, base_point=0.1 + 0.1j)


class TestGlobalProduct:
    def test_noncommuting_loops_close_up(self):
        g = global_product(conn_of(TWO_POINT))
        a, b = g.loops[0].matrix, g.loops[1].matrix
        assert np.max(np.abs(a @ b - b @ a)) > 1.0  # genuinely noncommutative
        assert g.closure_error < 1e-8
        assert g.scale < 50

    def test_three_points_with_bounded_exponents(self):
        op = second_order_with_exponents(
            (0, 1, -1), (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)),
            quadratic_part=Fraction(1, 8))
        assert validate_fuchsian(op).ok
        g = global_product(conn_of(op))
        assert g.closure_error < 1e-8
        assert len(g.loops) == 3
        assert sorted(g.order_of_loops) == [0, 1, 2]

    def test_no_poles(self):
        flat = FuchsianOperator(order=2, real_points=(), apparent_points=(),
                                coeffs=([0], [0]))
        with pytest.raises(DomainError, match="poles"):
            global_product(conn_of(flat))


class TestSweep:
    def test_polynomial_family_is_isomonodromic(self):
        fam = [annihilator_from_solutions([[1], [0, 1], [0, 0, t, 1]])
               for t in (1, 2, 3)]
        sw = isomonodromy_sweep(fam)
        assert sw.max_drift < 1e-9
        assert sw.count == 3

    def test_moving_infinity_data_drifts(self):
        fam = [second_order_with_exponents((0, 1), (Fraction(1, 2), Fraction(1, 2)),
                                           quadratic_part=None),
               second_order_with_exponents((0, 1), (Fraction(1, 2), Fraction(1, 2)),
                                           quadratic_part=Fraction(1, 4))]
        fixed_point = isomonodromy_sweep(fam, point=0)
        assert fixed_point.max_drift < 1e-8  # local spectra agree by design
        overall = isomonodromy_sweep(fam)
        assert overall.max_drift > 1e-3     # the global product does not

    def test_empty_family(self):
        with pytest.raises(DomainError):
            isomonodromy_sweep([])


def test_result_serializes():
    res = monodromy(conn_of(HALF), 0)
    doc = res.to_json()
    assert doc["loop"]["radius"] == pytest.approx(1.0)
    assert len(doc["char_poly"]) == 2
    g = global_product(conn_of(TWO_POINT)).to_json()
    assert g["closure_error"] < 1e-8
    assert len(g["loops"]) == 2
