"""Numeric transport: local loops, apparency detection, global closure."""

import cmath
import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import fuchskit.monodromy
from fuchskit.algebra import ExactMatrix, Polynomial, RationalFunction, scalar
from fuchskit.connection import LogConnection, build_companion, exponent_data
from fuchskit.frobenius import annihilator_from_solutions
from fuchskit.monodromy import (
    _ATOL,
    _RTOL,
    _det,
    _eigvals,
    _identity,
    _line,
    _lollipop,
    _matmul,
    _NumericConnection,
    _plan_loops,
    _poly,
    _series,
    _solve,
    _transport,
    anchored_monodromy,
    global_product,
    is_apparent_numeric,
    isomonodromy_sweep,
    monodromy,
    solve_ivp,
)
from fuchskit.operator import DomainError, FuchsianOperator, validate_fuchsian
from fuchskit.sampling import (
    distinct_points,
    prescribed_exponent_operator,
    random_operator,
    second_order_with_exponents,
)
from oracles import rf_eval, series_dense


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
        rows[0][m - 1] = RationalFunction.make(Polynomial.zero())   # a zero entry
        rows[m - 1][0] = _random_entry(rng, [])    # a polynomial entry
        dens = {rows[i][j].den.degree() for i in range(m) for j in range(m)}
        assert m == 1 or len(dens) > 1
        # every entry over the common den prod (z - p)^2
        den = functools.reduce(lambda d, f: d * f * f, factors, Polynomial.one())
        conn = LogConnection(ExactMatrix.from_rows(
            [[e.num * den.exact_div(e.den) for e in row] for row in rows]), den, self.POLES)
        num = _NumericConnection(conn)
        for pt, factor in itertools.product(self.POINTS, (1, -0.25 + 1.5j)):
            z = scalar(pt)
            want = np.array([[complex(rf_eval(rows[i][j], z)) for i in range(m)]
                             for j in range(m)])   # B(z)^T
            # the stepper's zeroth Taylor term on a chord of step `factor`
            got = np.array(num.expansion(complex(z), factor)[0][0]).reshape(m, m)
            assert got.shape == (m, m)
            assert np.max(np.abs(got - factor * want)) <= (
                1e-12 * np.max(np.abs(factor * want)))

    def test_path_through_a_pole_is_refused(self):
        # the circle of radius 1 about 0 passes through the pole 1
        with pytest.raises(DomainError, match="meets a pole"):
            monodromy(conn_of(TWO_POINT), 0, radius=1.0)


class TestSeries:
    """The chord recurrence on the nonzero coefficients only gives every
    float of the dense recurrence, and the same number of terms."""

    @staticmethod
    def expansion(rng, m, w, shape):
        """(alpha, delta) with w = max(len(alpha), len(delta) - 1), entries
        shrinking with j like those of a chord inside its disc."""
        density = {"dense": 1.0, "sparse": 0.4}.get(shape, 0.7)

        def entry(j):
            if rng.random() >= density:
                return 0j
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.3 ** j / m

        la, ld = (1, w + 1) if shape == "short alpha" else (w, rng.randint(1, w + 1))
        alpha = [[entry(j + 1) for _ in range(m * m)] for j in range(la)]
        delta = [1 + 0j] + [entry(j) for j in range(1, ld)]
        if shape in ("empty row", "one alpha", "one delta"):
            # row 0 of every alpha_j is zero, and so is delta past delta_0
            # but for one entry of one of them
            for a in alpha:
                a[:m] = [0j] * m
            delta[1:] = [0j] * (len(delta) - 1)
            if shape == "one alpha":
                alpha[rng.randrange(la)][rng.randrange(m)] = 0.1 - 0.2j
            elif shape == "one delta":
                delta += [0j] * (w + 1 - len(delta))
                delta[rng.randint(1, w)] = -0.05 + 0.1j
        return alpha, delta

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["dense", "sparse", "empty row", "one alpha",
                                       "one delta", "short alpha"])
    def test_against_the_dense_recurrence(self, m, shape):
        rng = random.Random(f"{m} {shape}")
        for w in (1, 2, 3, 4):
            for _ in range(5):
                alpha, delta = self.expansion(rng, m, w, shape)
                assert max(len(alpha), len(delta) - 1) == w
                cols = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                         for _ in range(m)] for _ in range(m)]
                tol = 10.0 ** rng.uniform(-14, -6)
                got, k = _series((alpha, delta), cols, tol)
                want, k_dense = series_dense((alpha, delta), cols, tol)
                assert k == k_dense > 1
                assert got == want
                # bit for bit, the signs of zeros included
                assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_global_product_bit_for_bit(self, monkeypatch):
        op = second_order_with_exponents(
            (0, 1, -1), (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)),
            quadratic_part=Fraction(1, 8))
        g = global_product(conn_of(op))
        monkeypatch.setattr(fuchskit.monodromy, "_series", series_dense)
        dense = global_product(conn_of(op))
        for got, want in zip([*g.loops, g.outer], [*dense.loops, dense.outer]):
            assert np.array(got.matrix).tobytes() == np.array(want.matrix).tobytes()
            assert got.est_error == want.est_error
        assert np.array(g.product).tobytes() == np.array(dense.product).tobytes()
        assert (g.closure_error, g.scale) == (dense.closure_error, dense.scale)

    def test_walk_that_overflows(self):
        # u' = 10^200 u has no pole, so the chord is the whole segment, and
        # its second Taylor term is past double range
        conn = LogConnection(ExactMatrix.from_rows([[Polynomial.constant(10 ** 200)]]),
                             Polynomial.one(), ())
        with pytest.raises(DomainError, match=r"overflows at \(1\+0j\)"):
            solve_ivp(_NumericConnection(conn), _line(0j, 1 + 0j), _RTOL, _ATOL)

    def test_coefficient_out_of_double_range(self):
        op = FuchsianOperator(order=2, real_points=(0, 1), apparent_points=(),
                              coeffs=([10 ** 400, 0], [0, Fraction(1, 2)]))
        conn = conn_of(op)
        with pytest.raises(DomainError, match="out of double range"):
            _NumericConnection(conn)
        with pytest.raises(DomainError, match="out of double range"):
            global_product(conn)


class TestKernels:
    """The m x m kernels against numpy as an independent oracle."""

    @staticmethod
    def matrices():
        """(name, matrix) for seeded m = 1..6: Gaussian entries, the identity
        plus 1e-12 noise, unit-modulus diagonals (a repeated one included)
        under a strictly upper triangular part, and one graded matrix."""
        rng = random.Random(20)

        def gauss(m, s=1.0):
            return np.array([[complex(rng.gauss(0, s), rng.gauss(0, s)) for _ in range(m)]
                             for _ in range(m)])

        for m in range(1, 7):
            for k in range(5):
                yield f"gaussian {m}.{k}", gauss(m)
            yield f"near identity {m}", np.eye(m) + gauss(m, 1e-12)
            phases = [cmath.exp(2j * math.pi * rng.random()) for _ in range(m)]
            phases[-1] = phases[0]
            yield f"jordan-like {m}", np.diag(phases) + np.triu(gauss(m), 1)
        grade = np.diag([1.0, 1e3, 1e6, 1e9])
        yield "graded", grade @ gauss(4) @ np.linalg.inv(grade)

    @staticmethod
    def bound(a) -> float:
        return 1e-12 * max(1.0, float(np.max(np.abs(a))))

    def test_eigenvalues(self):
        for name, a in self.matrices():
            got, want = _eigvals(tuple(map(tuple, a))), np.linalg.eigvals(a)
            err = min(max(abs(g - w) for g, w in zip(got, perm))
                      for perm in itertools.permutations(want))
            assert len(got) == len(a) and err <= self.bound(a), (name, err)
            want_poly = np.poly(got)  # the same roots
            assert np.max(np.abs(np.array(_poly(got)) - want_poly)) <= self.bound(want_poly), name

    def test_solve_det_and_inverse(self):
        for name, a in self.matrices():
            rows, m = tuple(map(tuple, a)), len(a)
            b = np.array([[complex(i - j, i * j) for j in range(3)] for i in range(m)])
            x = np.array(_solve(rows, tuple(map(tuple, b))))
            assert x.shape == (m, 3)
            assert np.max(np.abs(x - np.linalg.solve(a, b))) <= self.bound(a), name
            assert np.max(np.abs(a @ x - b)) <= self.bound(a), name
            assert abs(_det(rows) - np.linalg.det(a)) <= self.bound(a), name
            inv = _solve(rows, _identity(m))
            assert np.max(np.abs(np.array(_matmul(rows, inv)) - np.eye(m))) <= self.bound(a), name

    def test_loop_matrices(self):
        g = global_product(conn_of(TWO_POINT))
        for loop in [*g.loops, g.outer]:
            a = np.array(loop.matrix)
            got, want = loop.eigenvalues, np.linalg.eigvals(a)
            assert min(max(abs(x - y) for x, y in zip(got, perm))
                       for perm in itertools.permutations(want)) <= self.bound(a)
            assert np.max(np.abs(np.array(loop.char_poly) - np.poly(a))) <= 10 * self.bound(a)

    def test_zero_pivot(self):
        singular = ((1 + 0j, 2 + 0j), (2 + 0j, 4 + 0j))
        with pytest.raises(DomainError, match="singular"):
            _solve(singular, _identity(2))
        with pytest.raises(DomainError, match="singular"):
            _solve(((0j,),), ((1 + 0j,),))
        assert _det(singular) == 0

    def test_eigenvalues_that_do_not_converge(self):
        # no subdiagonal entry of a NaN matrix ever counts as small
        with pytest.raises(DomainError, match="did not converge in 90 QR sweeps"):
            _eigvals(((math.nan, 1 + 0j, 0j), (1 + 0j, 0j, 1 + 0j), (0j, 1 + 0j, 0j)))


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

    def test_base_point_out_of_double_range(self):
        conn = conn_of(TWO_POINT)
        with pytest.raises(DomainError, match="base point is out of double range"):
            anchored_monodromy(conn, 0, base_point=10 ** 400)
        with pytest.raises(DomainError, match="base point is out of double range"):
            global_product(conn, base_point=10 ** 400)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("which", ["rtol", "atol"])
    def test_tolerances(self, bad, which):
        conn = conn_of(TWO_POINT)
        kw = {which: bad}
        for call in (lambda: monodromy(conn, 0, **kw),
                     lambda: anchored_monodromy(conn, 0, base_point=-3, **kw),
                     lambda: global_product(conn, **kw),
                     lambda: isomonodromy_sweep([TWO_POINT], **kw)):
            with pytest.raises(DomainError, match=which):
                call()


    def test_rtol_below_integrator_floor(self):
        # below 100 eps the rounding of double precision, not rtol, sets the error
        conn = conn_of(TWO_POINT)
        for call in (lambda: monodromy(conn, 0, rtol=1e-15),
                     lambda: anchored_monodromy(conn, 0, base_point=-3, rtol=1e-15),
                     lambda: global_product(conn, rtol=1e-15),
                     lambda: isomonodromy_sweep([TWO_POINT], rtol=1e-15)):
            with pytest.raises(DomainError, match="floor"):
                call()


class TestLegClearance:
    """A straight leg through another pole used to run the integrator for
    seconds before failing; it is refused before any transport starts."""

    @pytest.fixture(autouse=True)
    def no_transport(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("transport started")

        monkeypatch.setattr(fuchskit.monodromy, "solve_ivp", fail)

    def test_anchored_leg_through_pole(self):
        with pytest.raises(DomainError, match="passes through the pole"):
            anchored_monodromy(conn_of(TWO_POINT), 0, base_point=2, radius=0.5)

    def test_global_product_leg_through_pole(self):
        # the leg from -3 to the loop around 0 is clear, the one to the
        # loop around 1 runs through the pole 0
        with pytest.raises(DomainError, match="passes through the pole"):
            global_product(conn_of(TWO_POINT), base_point=-3)


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
        assert rep.to_json()["tol"] == 1e-6  # the document still names its bound


class TestAnchoredLoops:
    def test_conjugate_of_plain_loop(self):
        conn = conn_of(TWO_POINT)
        plain = monodromy(conn, 0)
        anchored = anchored_monodromy(conn, 0, base_point=-0.7 - 1.3j)
        assert np.max(np.abs(np.array(plain.char_poly) - anchored.char_poly)) < 1e-8

    def test_est_error_sums_every_enclosed_pole(self):
        # radius 5 about 0 also encloses the pole 1; the determinant
        # reference must include its trace residue too
        conn = conn_of(TWO_POINT)
        anchored = anchored_monodromy(conn, 0, base_point=-20 - 3j, radius=5.0)
        assert anchored.est_error < 1e-8
        assert monodromy(conn, 0, radius=5.0).est_error < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_three_segment_path(self, seed):
        # the way back along the leg is solved for; integrating it, as a
        # third segment, must give the same loop
        rng = random.Random(seed)
        n = 2 + seed % 3
        points = rng.sample(range(-4, 5), n)
        exps = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(6, 9))
                for _ in points]
        op = second_order_with_exponents(points, exps, quadratic_part=Fraction(1, 8))
        conn = conn_of(op)
        num = _NumericConnection(conn)
        poles = [complex(p) for p in conn.pole_points]
        b, radii = _plan_loops(poles)
        for p, r in zip(conn.pole_points, radii):
            got = anchored_monodromy(conn, p, b, radius=r).matrix
            leg, circle = _lollipop(complex(p), r, b, poles)
            start = leg(1.0)[0]
            # column-form transports compose right to left along the path
            want = (np.array(_transport(num, _line(start, b), _RTOL, _ATOL))
                    @ np.array(_transport(num, circle, _RTOL, _ATOL))
                    @ np.array(_transport(num, leg, _RTOL, _ATOL))).T
            scale = max(float(np.max(np.abs(want))), 1.0)
            assert np.max(np.abs(np.array(got) - want)) <= 1e-9 * scale

    def test_base_inside_loop_rejected(self):
        conn = conn_of(TWO_POINT)
        with pytest.raises(DomainError, match="inside"):
            anchored_monodromy(conn, 0, base_point=0.1 + 0.1j)


class TestGlobalProduct:
    def test_noncommuting_loops_close_up(self):
        g = global_product(conn_of(TWO_POINT))
        a, b = np.array(g.loops[0].matrix), np.array(g.loops[1].matrix)
        assert np.max(np.abs(a @ b - b @ a)) > 1.0  # genuinely noncommutative
        assert g.closure_error < 1e-8
        assert g.scale < 50

    def test_three_points_with_bounded_exponents(self, monkeypatch):
        op = second_order_with_exponents(
            (0, 1, -1), (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)),
            quadratic_part=Fraction(1, 8))
        assert validate_fuchsian(op).ok
        calls = []
        integrate = fuchskit.monodromy.solve_ivp

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(fuchskit.monodromy, "solve_ivp", counted)
        g = global_product(conn_of(op))
        assert g.closure_error < 1e-8
        assert len(g.loops) == 3
        assert sorted(g.order_of_loops) == [0, 1, 2]
        # a leg and a circle for each pole loop and for the outer loop
        assert len(calls) == 2 * 3 + 2

    def test_one_view_per_product(self, monkeypatch):
        # the loops of a product share one numeric view, which takes the
        # residue at each pole once; each loop used to build a view of its
        # own, and the determinant references took 2n residues in all
        op = second_order_with_exponents(
            (0, 1, -1), (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)),
            quadratic_part=Fraction(1, 8))
        views, residues = [], []
        view = fuchskit.monodromy._NumericConnection
        residue = fuchskit.monodromy.residue_matrix
        monkeypatch.setattr(fuchskit.monodromy, "_NumericConnection",
                            lambda conn: views.append(conn) or view(conn))
        monkeypatch.setattr(fuchskit.monodromy, "residue_matrix",
                            lambda *args: residues.append(args) or residue(*args))
        g = global_product(conn_of(op))
        assert g.closure_error < 1e-8
        assert (len(views), len(residues)) == (1, 3)

    def test_poles_equal_in_double_precision(self):
        # 1/10^400 rounds to 0.0: the product could not place its base
        # point, and the loop at 0 got the radius 0.0
        tiny = Fraction(1, 10 ** 400)
        op = second_order_with_exponents(
            (0, tiny, 1), (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)))
        conn = conn_of(op)
        for call in (lambda: global_product(conn), lambda: monodromy(conn, 0),
                     lambda: anchored_monodromy(conn, 1, base_point=-5 - 5j),
                     lambda: isomonodromy_sweep([op])):
            with pytest.raises(DomainError, match=f"the distinct poles 0 and {tiny} "
                                                  "are equal in double precision"):
                call()

    def test_poles_closer_than_the_clearance(self):
        # distinct as floats, but 1e-12 apart: the product used to fail to
        # place its base point, and the loop at 0 to meet the other pole
        conn = conn_of(FuchsianOperator(
            order=2, real_points=(0, Fraction(1, 10 ** 12), 1), apparent_points=(),
            coeffs=([Fraction(1, 2), Fraction(-7, 6), 0], [0, Fraction(-1, 6), Fraction(1, 6)])))
        with pytest.raises(DomainError, match=r"the poles 0j and \(1e-12\+0j\) are closer "
                                              r"than twice the clearance 1e-09"):
            global_product(conn)
        for call in (lambda: monodromy(conn, 0),
                     lambda: anchored_monodromy(conn, 0, base_point=-3 - 3j),
                     lambda: global_product(conn, base_point=-3 - 3j)):
            with pytest.raises(DomainError, match=r"the loop radius 5e-13 around 0j is at "
                                                  r"or below the clearance 1e-09"):
                call()

    # poles i, -i and 2: from a base to the right of them, the phase of
    # pole - base jumps across the branch cut at +-pi
    STRADDLED = second_order_with_exponents(
        ({"re": 0, "im": 1}, {"re": 0, "im": -1}, 2),
        (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)),
        quadratic_part=Fraction(1, 8))

    @pytest.mark.parametrize("base, order", [
        (None, (2, 0, 1)),  # the planned base, below every pole
        (-5, (1, 2, 0)),
        (5, (0, 2, 1)),
        (5 + 0.2j, (0, 2, 1)),
        (5 - 0.2j, (0, 2, 1)),
    ])
    def test_loop_order_from_any_base(self, base, order):
        g = global_product(conn_of(self.STRADDLED), base_point=base)
        assert g.order_of_loops == order
        assert g.closure_error <= 1e-5 * g.scale

    def test_no_poles(self):
        flat = FuchsianOperator(order=2, real_points=(), apparent_points=(),
                                coeffs=([0], [0]))
        with pytest.raises(DomainError, match="poles"):
            global_product(conn_of(flat))


class TestNumericContract:
    """What the tolerances promise, and the loops against the exact layer."""

    def test_rtol_sets_the_work_and_the_closure(self, monkeypatch):
        # C = 100 in closure_error <= C rtol scale, fixed before the first run
        coefficients = {}
        integrate = fuchskit.monodromy.solve_ivp
        for rtol in (1e-6, 1e-11):
            counts = []

            def counted(*args, **kwargs):
                walk = integrate(*args, **kwargs)
                counts.append(walk.nfev)
                return walk

            monkeypatch.setattr(fuchskit.monodromy, "solve_ivp", counted)
            g = global_product(conn_of(TWO_POINT), rtol=rtol)
            assert g.closure_error <= 100 * rtol * g.scale
            coefficients[rtol] = sum(counts)
        assert coefficients[1e-6] < coefficients[1e-11]

    @staticmethod
    def eigenvalue_error(result, exponents) -> tuple:
        """Distance of the loop eigenvalues from exp(2 pi i mu), best
        matched, and the bound for it: 1e-8 where the exp(2 pi i mu) are
        distinct, 1e-5 where two coincide and a Jordan block makes them move
        with the square root of the transport error (fixed beforehand)."""
        want = [cmath.exp(2j * math.pi * complex(mu)) for mu in exponents]
        err = min(max(abs(g - w) for g, w in zip(result.eigenvalues, perm))
                  for perm in itertools.permutations(want))
        distinct = all(not (a - b).is_integer()
                       for a, b in itertools.combinations(exponents, 2))
        return err, 1e-8 if distinct else 1e-5

    # the classes of the monodromy workload of the benchmark: global
    # products of 2 to 4 poles with |q| < 1, a loop at the apparent point 0
    # of a monomial annihilator, and a loop at 0 with exponents 0 and 2 or 3
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("poles", [2, 3, 4])
    def test_global_product_loops(self, poles, seed):
        rng = random.Random(10 * poles + seed)
        pts = distinct_points(rng, poles)
        qs = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((4, 5, 7)))
              for _ in pts]
        conn = conn_of(second_order_with_exponents(
            pts, qs, quadratic_part=Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 4, 8)))))
        g = global_product(conn)
        for res, p in zip(g.loops, conn.pole_points):
            err, bound = self.eigenvalue_error(res, exponent_data(conn, p).eigenvalues)
            assert err <= bound, (p, err)

    @pytest.mark.parametrize("degrees", [(0, 2), (0, 3), (1, 3), (0, 1, 3), (0, 2, 3)])
    def test_annihilator_loop(self, degrees):
        f = Polynomial.from_roots([scalar(1), scalar({"re": -2, "im": 1})])
        op = annihilator_from_solutions(
            [f * Polynomial.from_list([0] * d + [1]) for d in degrees])
        conn = conn_of(op)
        err, bound = self.eigenvalue_error(monodromy(conn, 0),
                                           exponent_data(conn, 0).eigenvalues)
        assert err <= bound

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("q", [Fraction(-2, 5), Fraction(3, 7)])
    def test_blocked_loop(self, k, q):
        conn = conn_of(second_order_with_exponents((0, 3), (k, q),
                                                   quadratic_part=Fraction(1, 4)))
        err, bound = self.eigenvalue_error(monodromy(conn, 0),
                                           exponent_data(conn, 0).eigenvalues)
        assert bound == 1e-5 and err <= bound


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
        # the exponents at infinity move, and with them the loops' traces
        assert isomonodromy_sweep(fam).max_drift > 1e-3

    def test_empty_family(self):
        with pytest.raises(DomainError):
            isomonodromy_sweep([])
        with pytest.raises(DomainError, match="no finite poles"):
            isomonodromy_sweep([annihilator_from_solutions([[1], [0, 1]])])

    # Fixed before the first run.  With exponents 1/3, 1/5, -1/4 at 0, 1, -2,
    # the constant quadratic part is an accessory parameter: it keeps every
    # local class, the exponents at infinity included, and so the
    # characteristic polynomials of each loop and of their product.
    ACCESSORY = [second_order_with_exponents(
        (0, 1, -2), (Fraction(1, 3), Fraction(1, 5), Fraction(-1, 4)),
        quadratic_part=t) for t in (0, Fraction(1, 2), 1, Fraction(3, 2))]

    def test_accessory_parameter_moves_the_traces(self):
        sw = isomonodromy_sweep(self.ACCESSORY)
        assert sw.count == 4 and sw.words == 6 + 6 ** 2 + 6 ** 3
        assert sw.max_drift > 1
        assert sw.closure_rel_max < 1e-9

    def test_loops_are_matched_by_point(self):
        op = self.ACCESSORY[1]
        listed = FuchsianOperator(order=2, real_points=(1, -2, 0),
                                  apparent_points=(), coeffs=op.coeffs)
        assert isomonodromy_sweep([op, listed]).max_drift <= 1e-9

    def test_members_with_different_real_points(self):
        other = second_order_with_exponents(
            (0, 1, 2), (Fraction(1, 3), Fraction(1, 5), Fraction(-1, 4)))
        with pytest.raises(DomainError, match="same real points"):
            isomonodromy_sweep([self.ACCESSORY[0], other])

    def test_listed_apparent_point_that_is_not_apparent(self):
        op = random_operator(random.Random(3), 2, 2, 1)
        assert op.apparent_points == (scalar(3),)
        with pytest.raises(DomainError, match="apparent point 3 is not trivial"):
            isomonodromy_sweep([op])


def test_result_serializes():
    res = monodromy(conn_of(HALF), 0)
    doc = res.to_json()
    assert doc["loop"]["radius"] == pytest.approx(1.0)
    assert len(doc["char_poly"]) == 2
    # the eigenvalues are stored sorted and printed in that order: -1 (the
    # exponent 1/2) before 1
    loop = monodromy(conn_of(TWO_POINT), 0)
    printed = [complex(*w) for w in loop.to_json()["eigenvalues"]]
    assert printed == list(loop.eigenvalues)
    assert printed == pytest.approx([-1, 1], abs=1e-8)
    g = global_product(conn_of(TWO_POINT)).to_json()
    assert g["closure_error"] < 1e-8
    assert len(g["loops"]) == 2
