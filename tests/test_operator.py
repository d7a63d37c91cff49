import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchskit.algebra import Polynomial, scalar
from fuchskit.operator import (
    MAX_DIGITS,
    MAX_NESTING,
    POWER_BITS,
    DomainError,
    FuchsianOperator,
    degree_budget,
    operator_to_text,
    parse_operator,
    parse_poly_expr,
    psi_all,
    validate_fuchsian,
)
from fuchskit.sampling import random_operator


def make(order, real, coeffs, apparent=()):
    return FuchsianOperator(order=order, real_points=tuple(real),
                            apparent_points=tuple(apparent), coeffs=tuple(coeffs))


W2_ZERO = make(2, (0, 1), (Polynomial.zero(), Polynomial.zero()))


class TestConstruction:
    def test_repeated_real_point_rejected(self):
        with pytest.raises(DomainError, match="points not distinct"):
            make(1, (0, 0), (Polynomial.zero(),))

    def test_real_apparent_overlap_rejected(self):
        with pytest.raises(DomainError, match="points not distinct"):
            make(1, (0, 1), (Polynomial.zero(),), apparent=(1,))

    def test_order_coeff_mismatch(self):
        with pytest.raises(DomainError, match="order mismatch"):
            make(2, (0, 1), (Polynomial.zero(),))

    def test_order_must_be_positive(self):
        with pytest.raises(DomainError):
            make(0, (0,), ())

    @pytest.mark.parametrize("order", [True, 1.0, "1"])
    def test_order_must_be_an_int(self, order):
        with pytest.raises(DomainError, match="positive integer"):
            make(order, (0,), ([0],))

    def test_coercion(self):
        op = make(1, ("1/2",), ([1, "2/3"],))
        assert op.real_points[0] == scalar("1/2")
        assert op.coeffs[0] == Polynomial.of(1, "2/3")


class TestPsiAll:
    def test_two_points(self):
        # {0,1} -> z^2 - z
        assert psi_all(W2_ZERO) == Polynomial.of(0, -1, 1)

    def test_with_apparent(self):
        op = make(1, (0,), (Polynomial.zero(),), apparent=(2,))
        assert psi_all(op) == Polynomial.of(0, -2, 1)

    def test_empty(self):
        op = make(1, (), (Polynomial.zero(),))
        assert psi_all(op) == Polynomial.one()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_degree_and_monic(self, seed):
        rng = random.Random(seed)
        op = random_operator(rng, rng.randint(1, 3), rng.randint(1, 4),
                             rng.randint(0, 2))
        p = psi_all(op)
        assert p.degree() == op.num_real + op.num_apparent
        assert p.lc() == scalar(1)


class TestDegrees:
    def test_budget_m2_n3_one_apparent(self):
        got = degree_budget(2, 3, 1)
        assert got.degrees == (3, 6)
        assert got.total == 11

    def test_budget_m1_n2(self):
        got = degree_budget(1, 2, 0)
        assert got.degrees == (1,)
        assert got.total == 2

    def test_budget_m2_n2(self):
        got = degree_budget(2, 2, 0)
        assert got.degrees == (1, 2)
        assert got.total == 5

    def test_total_is_coefficient_count(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for N in range(0, 3):
                    b = degree_budget(m, n, N)
                    assert b.total == sum(d + 1 for d in b.degrees)


class TestValidate:
    def test_all_bounds_hold(self):
        op = make(2, (0,), (Polynomial.one(), Polynomial.zero()))
        rep = validate_fuchsian(op)
        assert rep.infinity_regular and rep.ok
        assert [c.allowed for c in rep.fuchs_degree_ok] == [0, 0]
        assert not rep.messages

    def test_violation_flagged(self):
        # single point, second coefficient -z: degree 1 over the bound 0
        op = make(2, (0,), (Polynomial.zero(), Polynomial.of(0, -1)))
        rep = validate_fuchsian(op)
        assert not rep.infinity_regular
        bad = [c for c in rep.fuchs_degree_ok if not c.ok]
        assert len(bad) == 1 and bad[0].k == 2
        assert bad[0].observed == 1 and bad[0].allowed == 0
        assert rep.messages

    def test_first_order_constant(self):
        op = make(1, (0, 1), (Polynomial.constant(5),))
        assert validate_fuchsian(op).ok

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_point_permutation_invariance(self, seed):
        rng = random.Random(seed)
        op = random_operator(rng, rng.randint(1, 3), rng.randint(2, 4),
                             rng.randint(0, 2))
        perm_r = list(op.real_points)
        perm_a = list(op.apparent_points)
        rng.shuffle(perm_r)
        rng.shuffle(perm_a)
        shuffled = FuchsianOperator(op.order, tuple(perm_r), tuple(perm_a), op.coeffs)
        assert validate_fuchsian(shuffled) == validate_fuchsian(op)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_random_operators_valid(self, seed):
        rng = random.Random(seed)
        op = random_operator(rng, rng.randint(1, 4), rng.randint(1, 4),
                             rng.randint(0, 2), gaussian=True)
        assert validate_fuchsian(op).ok


class TestExprParser:
    def test_basic(self):
        assert parse_poly_expr("1/2 + 3*z - z^2") == Polynomial.of("1/2", 3, -1)

    def test_gaussian(self):
        got = parse_poly_expr("(1+i)*z")
        assert got == Polynomial.of(0, {"re": "1", "im": "1"})

    def test_nested(self):
        assert parse_poly_expr("-(z - 2)^2") == Polynomial.of(-4, 4, -1)

    def test_division_by_constant(self):
        assert parse_poly_expr("z/2") == Polynomial.of(0, "1/2")

    def test_division_by_poly_rejected(self):
        with pytest.raises(DomainError):
            parse_poly_expr("1/z")

    def test_trailing_junk(self):
        with pytest.raises(DomainError):
            parse_poly_expr("z )")


class TestParseJson:
    def test_w2_zero(self):
        doc = {"order": 2, "real_points": ["0", "1"], "apparent_points": [],
               "coeffs": [[], []]}
        op = parse_operator(doc)
        assert op == W2_ZERO
        assert psi_all(op) == Polynomial.of(0, -1, 1)

    def test_json_string(self):
        op = parse_operator('{"order": 1, "real_points": ["0"], "coeffs": [["2"]]}')
        assert op == make(1, (0,), (Polynomial.constant(2),))

    def test_deeply_nested_json_string(self):
        # json.loads raises RecursionError here, not JSONDecodeError
        with pytest.raises(DomainError, match="bad JSON"):
            parse_operator('{"order": ' + "[" * 100_000)
        # well-formed, so the message speaks of depth, not of recursion
        deep = '{"order": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(DomainError, match="bad JSON: input is nested "
                                              "deeper than the JSON decoder allows"):
            parse_operator(deep)

    def test_repeated_point(self):
        doc = {"order": 1, "real_points": ["0", "0"], "coeffs": [[]]}
        with pytest.raises(DomainError, match="points not distinct"):
            parse_operator(doc)

    def test_missing_key(self):
        with pytest.raises(DomainError, match="missing key"):
            parse_operator({"order": 1, "coeffs": [[]]})

    def test_malformed_number(self):
        doc = {"order": 1, "real_points": ["zero"], "coeffs": [[]]}
        with pytest.raises(DomainError, match="malformed"):
            parse_operator(doc)

    def test_coeff_count_mismatch(self):
        doc = {"order": 2, "real_points": ["0", "1"], "coeffs": [[]]}
        with pytest.raises(DomainError, match="order mismatch"):
            parse_operator(doc)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        op = random_operator(rng, rng.randint(1, 4), rng.randint(1, 4),
                             rng.randint(0, 2), gaussian=True)
        assert parse_operator(op.to_json()) == op

    def test_round_trip_through_json_text(self):
        import json
        rng = random.Random(7)
        op = random_operator(rng, 3, 3, 1, gaussian=True)
        assert parse_operator(json.dumps(op.to_json())) == op


class TestParseText:
    def test_w2_zero(self):
        op = parse_operator("points: 0, 1\nw'' = 0")
        assert op == W2_ZERO

    def test_full_second_order(self):
        text = "points: 0, 1\nw'' = (z+1)/psi w' + (-1/2)/psi^2 w"
        op = parse_operator(text)
        assert op.coeffs == (Polynomial.of(1, 1), Polynomial.of("-1/2"))

    def test_parenthesized_whole_fraction(self):
        # whole fraction inside one pair of parentheses
        op = parse_operator("points: 0, 1\nw'' = (z/psi) w' + (3/psi^2) w")
        assert op.coeffs == (Polynomial.x(), Polynomial.constant(3))

    def test_minus_between_terms(self):
        op = parse_operator("points: 0, 1\nw'' = (z)/psi w' - (3)/psi^2 w")
        assert op.coeffs[1] == Polynomial.constant(-3)

    def test_apparent_line_and_comments(self):
        text = """
        # a third-order instance
        points: 0, 1
        apparent: 1/2
        w''' = (1)/psi w'' + (z)/psi^2 w' + (z^2)/psi^3 w
        """
        op = parse_operator(text)
        assert op.order == 3
        assert op.apparent_points == (scalar("1/2"),)
        assert op.coeffs == (Polynomial.one(), Polynomial.x(), Polynomial.of(0, 0, 1))

    def test_gaussian_point(self):
        op = parse_operator("points: i, -i\nw' = (1)/psi w")
        assert op.real_points == (scalar({"im": "1"}), scalar({"im": "-1"}))

    def test_wrong_psi_power(self):
        with pytest.raises(DomainError, match="does not match"):
            parse_operator("points: 0, 1\nw'' = (z)/psi^2 w'")

    def test_duplicate_term(self):
        with pytest.raises(DomainError, match="duplicate"):
            parse_operator("points: 0, 1\nw'' = (z)/psi w' + (1)/psi w'")

    def test_power_beyond_the_degree_bound_is_refused_before_it_is_built(self):
        # z^100000 would take about half an hour to build
        with pytest.raises(DomainError, match="degree 100000 exceeds the degree bound 1"):
            parse_operator("points: 0, 1\nw' = z^100000/psi w")
        # the bound of the psi^2 term on three points is 4
        with pytest.raises(DomainError, match="degree 6 exceeds the degree bound 4"):
            parse_operator("points: 0, 1, 2\nw'' = (z^3)^2/psi^2 w")
        op = parse_operator("points: 0, 1, 2\nw'' = (z^2)^2/psi^2 w")
        assert op.coeffs[1] == Polynomial.of(0, 0, 0, 0, 1)
        with pytest.raises(DomainError, match="degree bound 0"):
            parse_operator("points: z^100000, 1\nw' = 0")

    def test_constant_power_needs_no_bound(self):
        op = parse_operator("points:\nw' = 2^10/psi w")
        assert op.coeffs == (Polynomial.constant(1024),)
        assert parse_poly_expr("(z - z)^7", 0).is_zero()

    def test_constant_power_past_the_bit_bound_is_refused_before_it_is_built(self):
        # 3^10000000 took 13.6 s to build; 9012 log2(3) < POWER_BITS < 9013 log2(3)
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"bound of {POWER_BITS} bits"):
            parse_operator("points: 0, 1\nw' = 3^10000000/psi w")
        assert time.perf_counter() - start < 2.0
        for text in ("3^9013", "(1/3)^9013", "(3*i)^9013", "(2 + 3*z)^9013"):
            with pytest.raises(DomainError, match=f"bound of {POWER_BITS} bits"):
                parse_poly_expr(text)
        assert parse_poly_expr("3^9012") == Polynomial.constant(3 ** 9012)
        for text in ("1^100000000", "(-1)^100000001", "i^100000000", "0^100000000"):
            assert parse_poly_expr(text).degree() <= 0

    def test_digit_strings_past_the_digit_bound_are_refused(self):
        # int() of more than 4300 digits raises ValueError; each token is
        # refused first, an exponent, a constant or a psi power
        long = "9" * (MAX_DIGITS + 1)
        for text, what in (("3^" + long + "/psi w", "exponent"),
                           (long + "/psi w", "constant"),
                           ("3/" + long + "/psi w", "constant"),
                           ("3/psi^" + long + " w", "psi power")):
            with pytest.raises(DomainError, match=f"{what} of {MAX_DIGITS + 1} digits "
                                                  f"exceeds the bound of {MAX_DIGITS} digits"):
                parse_operator("points: 0, 1\nw' = " + text)
        with pytest.raises(DomainError, match=f"bound of {MAX_DIGITS} digits"):
            parse_operator("points: " + long + ", 1\nw' = 3/psi w")
        # a constant of exactly MAX_DIGITS digits is still read
        assert parse_poly_expr("9" * MAX_DIGITS) == Polynomial.constant(10 ** MAX_DIGITS - 1)

    def test_nesting_past_its_bound_is_refused(self):
        # past about 200 parentheses or 1000 signs the parser hit the
        # recursion limit
        deep = MAX_NESTING + 1
        for expr in ("(" * deep + "1" + ")" * deep, "-" * deep + "1",
                     "(-" * (deep // 2 + 1) + "1" + ")" * (deep // 2 + 1),
                     "(" * 200 + "1" + ")" * 200, "-" * 1000 + "1"):
            with pytest.raises(DomainError, match=f"bound of {MAX_NESTING}"):
                parse_operator(f"points: 0, 1\nw' = {expr}/psi w")
            with pytest.raises(DomainError, match=f"bound of {MAX_NESTING}"):
                parse_operator(f"points: {expr}, 2\nw' = 0")
        # nesting at the bound is still read
        at = MAX_NESTING
        assert parse_poly_expr("(" * at + "z" + ")" * at) == Polynomial.x()
        assert parse_poly_expr("-" * at + "1") == Polynomial.constant(1)

    @pytest.mark.parametrize("spelling, plain", [
        ("(z)/psi w' + -3/psi^2 w", "(z)/psi w' - 3/psi^2 w"),
        ("(z)/psi w' +-3/psi^2 w", "(z)/psi w' - 3/psi^2 w"),
        ("(z)/psi w' - +3/psi^2 w", "(z)/psi w' - 3/psi^2 w"),
        ("(z)/psi w' - -3/psi^2 w", "(z)/psi w' + 3/psi^2 w"),
        ("(z)/psi w' + 2*-3/psi^2 w", "(z)/psi w' - 6/psi^2 w"),
        ("(z)/psi w' - 3/psi**2 w", "(z)/psi w' - 3/psi^2 w"),
        ("(z)/psi w' + (-3)/psi ** 2 * w", "(z)/psi w' - 3/psi^2 w"),
        ("-z/psi w' + 3/psi**2 w", "(-z)/psi w' + 3/psi^2 w"),
        ("-(z/psi) w'", "(-(z))/psi w'"),
        ("+(z/psi) w'", "(z)/psi w'"),
        ("(z)/psi w' - -(3/psi^2) w", "(z)/psi w' + 3/psi^2 w"),
        ("2*(z/psi) w'", "(2*z)/psi w'"),
        ("-2*(z/psi) w'", "(-2*z)/psi w'"),
        ("z/psi*2 w'", "(2*z)/psi w'"),
        ("(z/psi)*2 w'", "(2*z)/psi w'"),
        ("2/psi/3 w'", "(2/3)/psi w'"),
        ("(z/psi + 1/psi) w'", "(z+1)/psi w'"),
        ("(z/psi)^2 w", "(z^2)/psi^2 w"),
        ("z/psiw' + 3/psi^2w", "(z)/psi w' + 3/psi^2 w"),
    ])
    def test_signs_and_powers_spell_the_plain_form(self, spelling, plain):
        # the term splitter cut at a sign that follows an operator, and the
        # term tail read only ^ for a psi power
        assert (parse_operator("points: 0, 1\nw'' = " + spelling)
                == parse_operator("points: 0, 1\nw'' = " + plain))

    @pytest.mark.parametrize("term", ["(z - 3/psi) w", "(1/2 + z/psi) w",
                                      "(1 + z/psi) w", "(z+1/psi) w"])
    def test_a_sum_takes_one_power_of_psi(self, term):
        # each of these was read as the whole parenthesis over psi
        with pytest.raises(DomainError, match="a sum takes one power of psi"):
            parse_operator("points: 0, 1\nw' = " + term)

    @pytest.mark.parametrize("text", ["psi*z w'", "z/(psi) w'", "z/psi w' + 3*psi w"])
    def test_psi_only_as_a_divisor(self, text):
        with pytest.raises(DomainError, match="only as a divisor"):
            parse_operator("points: 0, 1\nw'' = " + text)

    def test_psi_is_not_a_point(self):
        with pytest.raises(DomainError, match="only in the equation"):
            parse_operator("points: 0, 1/psi\nw' = 0")

    @pytest.mark.parametrize("term", ["z w''", "z/psi^0 w''"])
    def test_w_of_the_equation_order_is_not_a_term(self, term):
        # its psi power 0 has no coefficient slot; z/psi^0 w'' raised KeyError
        with pytest.raises(DomainError, match="does not match"):
            parse_operator("points: 0, 1\nw'' = " + term)

    def test_coefficient_past_its_term_bound_is_left_to_validation(self):
        # the power guard is the equation's largest bound, 2 here; the
        # psi^1 term's own bound is 1
        op = parse_operator("points: 0, 1\nw'' = z^2/psi w'")
        assert op.coeffs == (Polynomial.of(0, 0, 1), Polynomial.zero())
        assert validate_fuchsian(op).messages == ("coefficient 1: degree 2 exceeds bound 1",)

    @pytest.mark.parametrize("text", ["points 0, 1\nw' = 0", "apparently: 2\nw' = 0",
                                      "point: 0\nw' = 0"])
    def test_header_needs_its_exact_keyword(self, text):
        with pytest.raises(DomainError, match="unrecognized line"):
            parse_operator(text)

    @pytest.mark.parametrize("rhs", ["0/psi w + z/psi w", "z/psi w + 0/psi w"])
    def test_duplicate_power_in_either_order(self, rhs):
        with pytest.raises(DomainError, match="duplicate term for psi\\^1"):
            parse_operator("points: 0, 1\nw' = " + rhs)

    @pytest.mark.parametrize("term", ["z/psi) w'", "((z/psi) w'", "2*z/psi) w'"])
    def test_unbalanced_wrapped_term(self, term):
        with pytest.raises(DomainError, match="unbalanced parentheses"):
            parse_operator("points: 0, 1\nw'' = " + term)

    def test_dangling_sign_is_an_empty_term(self):
        with pytest.raises(DomainError, match="empty term"):
            parse_operator("points: 0, 1\nw'' = (z)/psi w' +")

    def test_order_cap(self):
        with pytest.raises(DomainError, match="order <= 3"):
            parse_operator("points: 0\nw'''' = 0")

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_text_round_trip(self, seed):
        rng = random.Random(seed)
        op = random_operator(rng, rng.randint(1, 3), rng.randint(1, 3),
                             rng.randint(0, 1), gaussian=True)
        assert parse_operator(operator_to_text(op)) == op

    def test_text_rejects_high_order(self):
        rng = random.Random(1)
        op = random_operator(rng, 4, 2)
        with pytest.raises(DomainError):
            operator_to_text(op)
