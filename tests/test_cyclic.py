"""Cyclic-vector recovery of scalar forms from companion connections."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchskit.algebra import (
    ExactMatrix,
    Polynomial,
    RationalFunction,
    poly_root_search,
    scalar,
)
from fuchskit.connection import apply_gauge, build_companion
from fuchskit.cyclic import (
    connection_derivative,
    find_cyclic,
    roundtrip_check,
    roundtrip_report,
    standard_candidates,
)
from fuchskit.frobenius import annihilator_from_solutions
from fuchskit.operator import DomainError, FuchsianOperator
from fuchskit.sampling import random_operator
from oracles import entries, random_gauge, rf_add, rf_derivative, rf_det, rf_div, rf_mul

X = Polynomial.x()
ONE = Polynomial.one()
NIL = Polynomial.zero()

MODEL = FuchsianOperator(order=2, real_points=(0,), apparent_points=(),
                         coeffs=([1], [0]))
FLAT2 = FuchsianOperator(order=2, real_points=(), apparent_points=(),
                         coeffs=([0], [0]))


class TestCandidates:
    def test_order_two(self):
        cands = standard_candidates(2)
        assert cands == ((ONE, NIL), (NIL, ONE), (ONE, X))

    def test_order_three_count_and_shapes(self):
        cands = standard_candidates(3)
        assert len(cands) == 6
        assert cands[0] == (ONE, NIL, NIL)
        assert cands[3] == (ONE, X, NIL)   # window of length 2 at the start
        assert cands[4] == (NIL, ONE, X)
        assert cands[5] == (ONE, X, X * X)

    def test_cap(self):
        assert len(standard_candidates(5)) <= 25


def _naive_step(mat, v) -> list:
    """d(v) = v' + B v on reduced rational functions."""
    return [functools.reduce(rf_add, (rf_mul(mat.entry(i, j), v[j]) for j in range(len(v))),
                             rf_derivative(v[i])) for i in range(len(v))]


class TestDerivative:
    def test_companion_shifts_basis_columns(self):
        # d(e_0) = (0, 1/psi): numerators (0, 1) over den = psi
        conn = build_companion(MODEL)
        assert conn.den == Polynomial.from_roots((scalar(0),))
        assert connection_derivative(conn, (ONE, NIL), 0) == (NIL, ONE)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_step_over_den_power(self, seed):
        # numerators over den^(k+1) against v' + B v on reduced entries,
        # for v = column/den^k
        rng = random.Random(seed)
        m, k = rng.randint(1, 3), rng.randint(0, 3)
        conn = build_companion(random_operator(rng, m, rng.randint(1, 3),
                                               gaussian=rng.random() < 0.3))
        column = tuple(Polynomial.from_list([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                       for _ in range(m))
        v = [RationalFunction.make(p, conn.den ** k) for p in column]
        got = connection_derivative(conn, column, k)
        assert [RationalFunction.make(p, conn.den ** (k + 1)) for p in got] == \
            _naive_step(entries(conn), v)

    def test_length_guard(self):
        conn = build_companion(MODEL)
        with pytest.raises(DomainError):
            connection_derivative(conn, (ONE,), 0)


class TestRoundtrip:
    def test_model(self):
        rep = roundtrip_check(MODEL)
        assert rep.ok
        assert rep.apparent_locus == ()
        assert rep.vector == (ONE, NIL)  # first candidate already spans

    def test_first_candidate_determinant(self):
        res = find_cyclic(build_companion(MODEL))
        assert res.tried == 1
        assert res.determinant == RationalFunction.make(ONE, X)

    def test_random_operators(self):
        rng = random.Random(7)
        for _ in range(25):
            m = rng.choice([1, 2, 3])
            op = random_operator(rng, m, rng.choice([2, 3]))
            rep = roundtrip_check(op)
            assert rep.ok and rep.apparent_locus == ()

    def test_apparent_points_survive(self):
        op = annihilator_from_solutions([[1], [0, 1], [0, 0, 0, 1]])
        rep = roundtrip_check(op)
        assert rep.ok
        # the recovered operator keeps 0 in its point set
        assert scalar(0) in rep.recovered.all_points

    def test_report_from_a_held_recovery(self):
        res = find_cyclic(build_companion(MODEL))
        assert roundtrip_report(MODEL, res) == roundtrip_check(MODEL)
        other = roundtrip_report(FLAT2, res)
        assert not other.ok and not other.coeffs_match and not other.points_match
        assert other.recovered == res.operator

    def test_constant_gauge_leaves_recovery_alone(self):
        conn = build_companion(MODEL)
        g = ExactMatrix.from_rows([[ONE, NIL], [NIL, Polynomial.constant(scalar(3))]])
        res = find_cyclic(apply_gauge(conn, g))
        assert res.operator.coeffs == MODEL.coeffs
        assert res.apparent_locus == ()


class TestApparentLocus:
    def test_forced_window_creates_locus(self):
        # pairing w'' = 0 against (z, 1) yields the span {z, z^2 + 1}
        conn = build_companion(FLAT2)
        res = find_cyclic(conn, candidates=[(X, ONE)])
        assert sorted(str(a) for a in res.apparent_locus) == ["-1", "1"]
        direct = annihilator_from_solutions([[0, 1], [1, 0, 1]])
        assert res.operator.coeffs == direct.coeffs
        assert set(res.operator.all_points) == set(direct.all_points)
        assert res.unfactored.degree() == 0

    def test_non_spanning_candidate_is_skipped(self):
        conn = build_companion(FLAT2)
        res = find_cyclic(conn, candidates=[(NIL, ONE), (ONE, NIL)])
        assert res.tried == 2
        assert res.operator.coeffs == FLAT2.coeffs

    def test_exhausted_candidates(self):
        conn = build_companion(FLAT2)
        with pytest.raises(DomainError, match="spans"):
            find_cyclic(conn, candidates=[(NIL, ONE)])

    def test_empty_candidate_list(self):
        conn = build_companion(FLAT2)
        with pytest.raises(DomainError, match="candidate"):
            find_cyclic(conn, candidates=[])


def _naive_recovery(conn, vector):
    """(determinant, coefficients) of the tower v, dv, ..., d^m v built on
    reduced entries, the determinants by cofactors and c_k by Cramer."""
    m = conn.size
    mat = entries(conn)
    tower = [[RationalFunction.make(p) for p in vector]]
    for _ in range(m):
        tower.append(_naive_step(mat, tower[-1]))
    span = [[tower[j][i] for j in range(m)] for i in range(m)]
    det = rf_det(span)
    coeffs = tuple(rf_div(rf_det([row[:m - k] + [p] + row[m - k + 1:]
                                  for row, p in zip(span, tower[m])]), det)
                   for k in range(1, m + 1))
    return det, coeffs


class TestAgainstNaiveTower:
    """find_cyclic over one denominator against the tower on reduced
    rational functions, for every vector it tries or is given."""

    def _check(self, conn, candidates=None):
        try:
            res = find_cyclic(conn, candidates)
        except DomainError as exc:
            if "outside Q(i)" not in str(exc):
                raise
            return self._check_refusal(conn, candidates)
        det, coeffs = _naive_recovery(conn, res.vector)
        assert res.determinant == det
        assert res.coefficients == coeffs
        op = res.operator
        assert op.real_points == tuple(conn.pole_points)
        assert set(res.apparent_locus).isdisjoint(conn.pole_points)
        for a in res.apparent_locus:
            assert det.num(a).is_zero()
        psi = Polynomial.from_roots(op.all_points)
        for k, c in enumerate(coeffs, start=1):
            assert rf_mul(c, psi ** k) == RationalFunction.make(op.coeff(k))
        return res

    def _check_refusal(self, conn, candidates):
        # the first spanning vector leaves a pole outside Q(i) in some c_k psi^k
        for vector in candidates or standard_candidates(conn.size):
            det, coeffs = _naive_recovery(conn, vector)
            if not det.num.is_zero():
                break
        pts = tuple(conn.pole_points) + tuple(
            r for r, _ in poly_root_search(det.num).roots if r not in conn.pole_points)
        psi = Polynomial.from_roots(pts)
        assert any(rf_mul(c, psi ** k).den.degree() > 0
                   for k, c in enumerate(coeffs, start=1))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_companion(self, seed):
        rng = random.Random(seed)
        m, n, na = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 1)
        conn = build_companion(random_operator(rng, m, n, na, gaussian=rng.random() < 0.3))
        self._check(conn)
        # forced apparent loci: u = p w solves the scalar form of (p, 0, ...),
        # so the roots of p off the poles are apparent points
        roots = [scalar({"re": rng.randint(-4, 4), "im": rng.randint(-1, 1)}) / rng.randint(1, 3)
                 for _ in range(rng.randint(1, 2))]
        p = Polynomial.from_roots(roots) * scalar(rng.randint(1, 3))
        res = self._check(conn, candidates=[(p,) + (NIL,) * (m - 1)])
        assert set(res.apparent_locus) == set(roots) - set(conn.pole_points)
        # a random polynomial vector: mostly a locus outside Q(i), refused
        vector = tuple(Polynomial.from_list([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
                       for _ in range(m))
        self._check(conn, candidates=[vector] + list(standard_candidates(m)))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_gauged(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        conn = build_companion(random_operator(rng, m, n))
        self._check(apply_gauge(conn, random_gauge(rng, m, conn.pole_points)))

    def test_forced_locus_example(self):
        res = self._check(build_companion(FLAT2), candidates=[(X, ONE)])
        assert len(res.apparent_locus) == 2


def test_result_serializes():
    res = find_cyclic(build_companion(MODEL))
    doc = res.to_json()
    assert doc["tried"] == 1
    assert doc["apparent_locus"] == []
    assert roundtrip_check(MODEL).to_json()["ok"] is True
