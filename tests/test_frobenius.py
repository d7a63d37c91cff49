"""Local series analysis: indicial data, resonance determinants, apparency."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuchskit.algebra import Polynomial, falling_factorial, scalar
from fuchskit.connection import build_companion, exponent_data
from fuchskit.frobenius import (
    MAX_TRUNCATION,
    annihilator_from_solutions,
    apparent_check,
    f_matrices,
    frobenius_oracle,
    local_expansion,
    special_apparent_check,
    special_exponents,
)
from fuchskit.operator import DomainError, FuchsianOperator, psi_all
from fuchskit.sampling import prescribed_exponent_operator, random_operator
from oracles import det_cofactor


def _op(order, points, coeffs, apparent=()):
    return FuchsianOperator(order=order, real_points=points,
                            apparent_points=apparent, coeffs=coeffs)


# w'' = w'/z, solved by 1 and z^2; the origin carries the steep exponent
# pattern and is apparent.
OP_MODEL = _op(2, (0,), ([1], [0]))

# Same head, but the second numerator picks up a -z; the resonance at the
# low exponent no longer cancels.
OP_BLOCKED = _op(2, (0,), ([1], [0, -1]))

BASIS_CUBIC = [[1], [0, 1], [0, 0, 0, 1]]              # 1, z, z^3
BASIS_QUARTIC = [[1], [0, 1], [0, 0, 1], [0, 0, 0, 0, 1]]  # 1, z, z^2, z^4


class TestLocalExpansion:
    def test_model_indicial_polynomial(self):
        la = local_expansion(OP_MODEL, 0, 2)
        assert la.indicial == Polynomial.of(0, -2, 1)  # s(s - 2)
        assert la.table[0][0] == scalar(1)
        assert la.roots.complete
        assert sorted(v.as_int() for v in la.roots.root_list()) == [0, 2]
        assert not la.ordinary

    def test_depth_one_coefficients(self):
        la = local_expansion(OP_BLOCKED, 0, 3)
        assert la.f(1) == Polynomial.constant(scalar(-1))
        assert la.f(2).is_zero()
        assert la.f(3).is_zero()

    def test_ordinary_point(self):
        # away from the listed points the exponents are 0..m-1
        la = local_expansion(OP_MODEL, 1, 1)
        assert la.ordinary
        assert la.indicial == falling_factorial(Polynomial.x(), 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_f_rows_against_falling_factorial_sums(self, m):
        # f_0 = [s]_m - sum_k table[k][0] [s]_{m-k} and, for l >= 1,
        # f_l = sum_k table[k][l] [s]_{m-k}, in plain Polynomial arithmetic
        op = random_operator(random.Random(m), m, 2, gaussian=True)
        gaussian = next(p for p in op.all_points if p.im)
        x = Polynomial.x()
        for point, ordinary in ((gaussian, False), (scalar("7/2"), True)):
            la = local_expansion(op, point, 4)
            assert la.ordinary == ordinary
            f0 = falling_factorial(x, m)
            for k in range(1, m + 1):
                f0 = f0 - falling_factorial(x, m - k) * la.table[k - 1][0]
            assert la.f(0) == f0
            for l in range(1, 5):
                fl = Polynomial.zero()
                for k in range(1, m + 1):
                    fl = fl + falling_factorial(x, m - k) * la.table[k - 1][l]
                assert la.f(l) == fl

    def test_truncation_floor(self):
        with pytest.raises(DomainError):
            local_expansion(OP_MODEL, 0, 0)

    def test_truncation_cap(self):
        assert local_expansion(OP_MODEL, 0, MAX_TRUNCATION).truncation == MAX_TRUNCATION
        with pytest.raises(DomainError, match=f"cap of {MAX_TRUNCATION}"):
            local_expansion(OP_MODEL, 0, MAX_TRUNCATION + 1)
        with pytest.raises(DomainError, match=f"cap of {MAX_TRUNCATION}"):
            frobenius_oracle(OP_MODEL, 0, truncation=10 ** 6)

    def test_f_beyond_truncation(self):
        la = local_expansion(OP_MODEL, 0, 2)
        with pytest.raises(DomainError):
            la.f(3)

    def test_subleading_coefficient_tracks_depth_zero_entry(self):
        # coeff of s^(m-1) in f_0 is -(m(m-1)/2 + T[1][0])
        rng = random.Random(61)
        for _ in range(12):
            m = rng.choice([2, 3])
            op = random_operator(rng, m, rng.choice([2, 3]))
            la = local_expansion(op, op.real_points[0], 1)
            assert la.indicial.coeff(m - 1) == -(scalar(m * (m - 1) // 2) + la.table[0][0])


class TestResonanceMatrices:
    def test_size_one(self):
        la = local_expansion(OP_BLOCKED, 0, 2)
        fm = f_matrices(la, 1)
        assert fm.symbolic.entry(0, 0) == -la.f(1)
        assert fm.determinant == -la.f(1)

    def test_size_two_layout(self):
        la = local_expansion(OP_MODEL, 0, 2)
        fm = f_matrices(la, 2)
        one = scalar(1)
        assert fm.symbolic.entry(0, 0) == -la.f(1).shift(one)
        assert fm.symbolic.entry(0, 1) == -la.f(2)
        assert fm.symbolic.entry(1, 0) == la.f(0).shift(one)
        assert fm.symbolic.entry(1, 1) == -la.f(1)

    def test_signed_flips_everything_but_the_subdiagonal(self):
        la = local_expansion(OP_BLOCKED, 0, 3)
        nu = 3
        fm = f_matrices(la, nu)
        for r in range(nu):
            for c in range(nu):
                if c == r - 1:
                    want = la.f(0).shift(scalar(nu - r))
                elif c >= r:
                    want = -la.f(c - r + 1).shift(scalar(nu - 1 - c))
                else:
                    want = Polynomial.zero()
                assert fm.symbolic.entry(r, c) == want

    def test_signed_determinant_is_the_obstruction(self):
        assert f_matrices(local_expansion(OP_BLOCKED, 0, 2),
                          2).determinant(scalar(0)) == scalar(1)
        assert f_matrices(local_expansion(OP_MODEL, 0, 2),
                          2).determinant(scalar(0)).is_zero()

    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 6])
    def test_determinant_matches_cofactor_oracle(self, nu):
        # the resonance matrices are upper Hessenberg, the case in which
        # Bareiss skips most rows
        op = random_operator(random.Random(70 + nu), 3, 2, gaussian=True)
        fm = f_matrices(local_expansion(op, op.real_points[0], nu), nu)
        rows = [list(r) for r in fm.symbolic.rows]
        assert fm.determinant == det_cofactor(rows)

    def test_depth_guard(self):
        la = local_expansion(OP_MODEL, 0, 1)
        with pytest.raises(DomainError):
            f_matrices(la, 2)
        with pytest.raises(DomainError):
            f_matrices(la, 0)


class TestApparentCheck:
    def test_model_is_special_apparent(self):
        v = apparent_check(OP_MODEL, 0, run_oracle=True)
        assert v.is_apparent and v.is_special_apparent
        assert v.exponents == (scalar(2), scalar(0))
        assert all(r.value.is_zero() for r in v.condition_residuals)
        assert v.oracle_agrees

    def test_blocked_model(self):
        v = apparent_check(OP_BLOCKED, 0, run_oracle=True)
        assert not v.is_apparent
        assert [r.value for r in v.condition_residuals] == [scalar(1)]
        assert v.oracle_agrees

    def test_condition_count(self):
        op = annihilator_from_solutions(BASIS_CUBIC)
        v = apparent_check(op, 0)
        assert v.is_apparent and v.is_special_apparent
        assert len(v.condition_residuals) == 3  # m(m-1)/2

    def test_non_integral_exponents(self):
        op = _op(2, (0, 1), ([Fraction(1, 2)], [0]))
        v = apparent_check(op, 0, run_oracle=True)
        assert not v.is_apparent
        assert v.reason == "non-integral exponents"
        assert v.oracle_agrees

    def test_repeated_exponents(self):
        v = apparent_check(_op(2, (0, 1), ([1], [0])), 0)
        assert not v.is_apparent
        assert v.reason == "repeated exponents"

    def test_negative_exponents(self):
        v = apparent_check(_op(2, (0, 1), ([2], [0])), 0)
        assert not v.is_apparent
        assert v.reason == "negative exponents"

    def test_first_order(self):
        # no determinant conditions; integrality of the exponent decides
        good = apparent_check(_op(1, (0,), ([3],)), 0, run_oracle=True)
        assert good.is_apparent and good.oracle_agrees
        assert good.exponents == (scalar(3),)
        bad = apparent_check(_op(1, (0,), ([Fraction(1, 3)],)), 0, run_oracle=True)
        assert not bad.is_apparent and bad.oracle_agrees

    def test_matches_oracle_on_prescribed_exponents(self):
        rng = random.Random(1009)
        for _ in range(25):
            m = rng.choice([2, 3])
            exps = sorted(rng.sample(range(7), m), reverse=True)
            op = prescribed_exponent_operator(rng, m, exps)
            v = apparent_check(op, 0, run_oracle=True)
            assert v.oracle_agrees
            assert v.exponents == tuple(scalar(e) for e in exps)

    def test_matches_oracle_on_annihilators(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(14):
            degs = sorted(rng.sample(range(6), rng.choice([2, 3])))
            basis = [[rng.randint(-3, 3) for _ in range(d)] + [1] for d in degs]
            try:
                op = annihilator_from_solutions(basis)
            except DomainError:
                continue  # the Wronskian need not split over Q(i)
            for p in op.apparent_points:
                v = apparent_check(op, p, run_oracle=True)
                assert v.is_apparent and v.oracle_agrees
                checked += 1
        assert checked >= 5


class TestSpecialApparentCheck:
    def test_model(self):
        v = special_apparent_check(OP_MODEL, 0)
        assert v.is_apparent and v.is_special_apparent
        assert [r.kind for r in v.condition_residuals] == ["quadratic"]
        assert v.condition_residuals[0].value.is_zero()

    def test_blocked_quadratic_value(self):
        v = special_apparent_check(OP_BLOCKED, 0)
        assert not v.is_apparent
        assert v.condition_residuals[0].value == scalar(1)

    def test_cubic_annihilator(self):
        v = special_apparent_check(annihilator_from_solutions(BASIS_CUBIC), 0)
        assert v.is_apparent
        assert [r.kind for r in v.condition_residuals] == \
            ["quadratic", "linear", "quadratic"]
        assert all(r.value.is_zero() for r in v.condition_residuals)

    def test_quartic_annihilator(self):
        v = special_apparent_check(annihilator_from_solutions(BASIS_QUARTIC), 0)
        assert v.is_apparent
        assert len(v.condition_residuals) == 6
        assert all(r.value.is_zero() for r in v.condition_residuals)

    def test_wrong_exponents_rejected(self):
        op = annihilator_from_solutions([[1], [0, 1]])  # w'' = 0
        with pytest.raises(DomainError, match="not special"):
            special_apparent_check(op, 5)

    def test_agrees_with_determinant_ladder(self):
        # randomized heads with the steep pattern pinned at 0; both routes
        # and the series oracle must return the same verdict
        rng = random.Random(4242)
        for _ in range(18):
            m = rng.choice([2, 3, 4])
            op = prescribed_exponent_operator(rng, m, special_exponents(m))
            v1 = special_apparent_check(op, 0)
            v2 = apparent_check(op, 0, run_oracle=True)
            assert v1.is_apparent == v2.is_apparent
            assert v2.oracle_agrees


class TestSeriesOracle:
    def test_model_resonance_cancels(self):
        v = frobenius_oracle(OP_MODEL, 0)
        assert v.is_apparent
        low = v.solutions[0]
        assert low.exponent == scalar(0)
        assert low.obstructions == ({"offset": 2, "value": scalar(0)},)

    def test_blocked_resonance(self):
        v = frobenius_oracle(OP_BLOCKED, 0)
        assert not v.is_apparent
        obstruction, = v.solutions[0].obstructions
        assert obstruction["offset"] == 2
        assert not obstruction["value"].is_zero()

    def test_ordinary_points_always_pass(self):
        rng = random.Random(5)
        for _ in range(8):
            op = random_operator(rng, rng.choice([2, 3]), 2)
            assert scalar(7) not in op.all_points  # generator stays below 7
            assert frobenius_oracle(op, 7).is_apparent

    def test_depth_floor(self):
        v = frobenius_oracle(OP_MODEL, 0, truncation=1)
        assert v.truncation >= 3

    def test_cap_holds_without_integer_exponents(self):
        # exponents 0 and 1/2 at 0: the verdict needs no deep expansion,
        # yet a request past the cap is refused as on any other input
        op = _op(2, (0, 1), ([Fraction(1, 2), 0], [Fraction(1, 3)]))
        assert frobenius_oracle(op, 0).reason
        assert frobenius_oracle(op, 0, truncation=MAX_TRUNCATION).truncation == 0
        with pytest.raises(DomainError, match=f"cap of {MAX_TRUNCATION}"):
            frobenius_oracle(op, 0, truncation=MAX_TRUNCATION + 1)


class TestAnnihilator:
    def test_even_pair(self):
        op = annihilator_from_solutions([[1], [0, 0, 1]])  # 1, z^2
        assert op.order == 2
        assert op.real_points == ()
        assert op.apparent_points == (scalar(0),)
        assert op.coeffs == (Polynomial.constant(scalar(1)), Polynomial.zero())

    def test_no_singular_points(self):
        op = annihilator_from_solutions([[1], [0, 1]])
        assert op.all_points == ()
        assert all(c.is_zero() for c in op.coeffs)

    def test_steep_cubic(self):
        op = annihilator_from_solutions(BASIS_CUBIC)
        assert op.order == 3
        assert op.apparent_points == (scalar(0),)
        v = frobenius_oracle(op, 0)
        assert v.is_apparent
        assert v.exponents == (scalar(3), scalar(1), scalar(0))

    def test_annihilation_is_exact(self):
        rng = random.Random(303)
        built = 0
        for _ in range(24):
            degs = sorted(rng.sample(range(5), rng.choice([2, 3])))
            basis = [Polynomial.from_list([rng.randint(-2, 2) for _ in range(d)] + [1])
                     for d in degs]
            try:
                op = annihilator_from_solutions(basis)
            except DomainError:
                continue
            psi = psi_all(op)
            m = op.order
            for b in basis:
                # psi^m b^(m) - sum_k H_k psi^(m-k) b^(m-k) must vanish
                derivs = [b]
                for _ in range(m):
                    derivs.append(derivs[-1].derivative())
                total = derivs[m] * psi ** m
                for k in range(1, m + 1):
                    total = total - op.coeff(k) * psi ** (m - k) * derivs[m - k]
                assert total.is_zero()
            built += 1
        assert built >= 4

    def test_dependent_basis(self):
        with pytest.raises(DomainError, match="dependent"):
            annihilator_from_solutions([[1], [0, 1], [1, 1]])

    def test_wronskian_must_split(self):
        # W(1 + z^3, z) = 1 - 2z^3 has no roots in Q(i)
        with pytest.raises(DomainError, match="split"):
            annihilator_from_solutions([[1, 0, 0, 1], [0, 1]])


class TestIndexOne:
    """The depth-0 coefficient at index 1, table[0][0], is an integer at an
    apparent point; the special exponent pattern makes it +1."""

    @staticmethod
    def index1(op):
        return local_expansion(op, 0, 1).table[0][0]

    def test_model_value(self):
        assert self.index1(OP_MODEL) == scalar(1)

    def test_special_instances_give_plus_one(self):
        for basis in (BASIS_CUBIC, BASIS_QUARTIC):
            value = self.index1(annihilator_from_solutions(basis))
            assert value.is_integer() and value == scalar(1)

    def test_zero_for_trivial_first_order(self):
        assert self.index1(_op(1, (0,), ([0],))) == scalar(0)


@given(st.integers(min_value=1, max_value=9))
def test_special_pattern_shape(m):
    exps = special_exponents(m)
    assert len(exps) == m
    assert exps[0] == scalar(m)
    assert len(set(exps)) == m
    assert list(exps) == sorted(exps, key=lambda e: -e.as_int())
    total = sum(e.as_int() for e in exps)
    assert total == m * (m - 1) // 2 + 1  # forces the index-1 entry to +1


class TestAgainstConnectionCharts:
    def test_indicial_polynomial_is_residue_charpoly(self):
        rng = random.Random(909)
        for _ in range(10):
            op = random_operator(rng, rng.choice([2, 3]), rng.choice([2, 3]))
            conn = build_companion(op)
            for p in op.all_points:
                data = exponent_data(conn, p)
                la = local_expansion(op, p, 1)
                assert data.char_poly == la.indicial
