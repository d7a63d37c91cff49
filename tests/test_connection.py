import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuchskit.algebra import (
    ZERO,
    ExactMatrix,
    GaussianRational,
    Polynomial,
    RationalFunction,
    poly_gcd,
    poly_root_search,
    scalar,
)
from fuchskit import connection
from fuchskit.connection import (
    INFINITY,
    GenericityReport,
    LogConnection,
    apply_gauge,
    build_companion,
    bundle_type,
    companion_poly_matrix,
    companion_rigidity_check,
    exponent_data,
    genericity_check,
    residue_matrix,
)
from fuchskit.operator import DomainError, FuchsianOperator, psi_all
from fuchskit.sampling import random_operator
from oracles import (
    entries,
    order_and_residue_at,
    random_gauge,
    rf_add,
    rf_det,
    rf_derivative,
    rf_div,
    rf_mul,
    rf_neg,
    subst_reciprocal,
)

PZ = Polynomial.zero()


def op_of(order, real, coeffs, apparent=()):
    return FuchsianOperator(order=order, real_points=tuple(real),
                            apparent_points=tuple(apparent), coeffs=tuple(coeffs))


W2_ZERO = op_of(2, (0, 1), (PZ, PZ))


def eig_strs(ed):
    return [str(v) for v in ed.eigenvalues]


class TestCompanion:
    def test_w2_zero_matrix(self):
        conn = build_companion(W2_ZERO)
        psi = Polynomial.of(0, -1, 1)
        mat = entries(conn)
        assert mat.entry(0, 0).num.is_zero()
        assert mat.entry(0, 1).num.is_zero()
        assert mat.entry(1, 0) == RationalFunction.make(Polynomial.one(), psi)
        # last diagonal entry (H_1 + psi')/psi with H_1 = 0
        assert mat.entry(1, 1) == RationalFunction.make(Polynomial.of(-1, 2), psi)

    def test_first_order_constant(self):
        op = op_of(1, (0, 1), (Polynomial.constant(3),))
        conn = build_companion(op)
        assert entries(conn).entry(0, 0) == RationalFunction.make(
            Polynomial.constant(3), Polynomial.of(0, -1, 1))

    def test_third_order_pattern(self):
        rng = random.Random(11)
        op = random_operator(rng, 3, 3)
        a = companion_poly_matrix(op)
        from fuchskit.operator import psi_all
        dpsi = psi_all(op).derivative()
        h1, h2, h3 = op.coeffs
        assert a.entry(1, 0) == Polynomial.one()
        assert a.entry(2, 1) == Polynomial.one()
        assert a.entry(0, 0) == PZ
        assert a.entry(1, 1) == dpsi
        assert a.entry(2, 2) == dpsi * 2 + h1
        assert a.entry(0, 2) == h3
        assert a.entry(1, 2) == h2
        assert a.entry(0, 1) == PZ
        assert a.entry(2, 0) == PZ

    def test_degree_violation_rejected(self):
        bad = op_of(2, (0,), (PZ, Polynomial.of(0, -1)))
        with pytest.raises(DomainError, match="degree"):
            build_companion(bad)

    def test_section_transport_second_order(self):
        # z^2 solves w'' = 1/psi w' + (2z^2-14z+24)/psi^2 w on psi = z(z-3)
        op = op_of(2, (0, 3), (Polynomial.one(), Polynomial.of(24, -14, 2)))
        conn = build_companion(op)
        psi = Polynomial.of(0, -3, 1)
        w = Polynomial.of(0, 0, 1)
        mat = entries(conn)
        vec = [RationalFunction.make(w), RationalFunction.make(psi * w.derivative())]
        lhs = [rf_derivative(e) for e in vec]
        rhs = [rf_add(rf_mul(vec[0], mat.entry(0, j)), rf_mul(vec[1], mat.entry(1, j)))
               for j in range(2)]
        assert lhs == rhs

    def test_section_transport_third_order(self):
        # polynomial solutions of w''' = 0 on three points
        op = op_of(3, (0, 1, 2), (PZ, PZ, PZ))
        conn = build_companion(op)
        from fuchskit.operator import psi_all
        psi = psi_all(op)
        mat = entries(conn)
        for w in (Polynomial.one(), Polynomial.x(), Polynomial.of(0, 0, 1)):
            vec = [RationalFunction.make(w),
                   RationalFunction.make(psi * w.derivative()),
                   RationalFunction.make(psi * psi * w.derivative().derivative())]
            lhs = [rf_derivative(e) for e in vec]
            rhs = []
            for j in range(3):
                acc = RationalFunction.make(PZ)
                for i in range(3):
                    acc = rf_add(acc, rf_mul(vec[i], mat.entry(i, j)))
                rhs.append(acc)
            assert lhs == rhs


class TestExponents:
    def test_w2_zero_at_0(self):
        conn = build_companion(W2_ZERO)
        ed = exponent_data(conn, 0)
        assert eig_strs(ed) == ["0", "1"]
        assert not ed.ordinary
        assert ed.complete
        assert ed.char_poly == Polynomial.of(0, -1, 1)

    def test_half_exponent_first_order(self):
        # w' = (1/2)/z w has solution z^(1/2)
        op = op_of(1, (0, 1), (Polynomial.of("-1/2", "1/2"),))
        conn = build_companion(op)
        assert eig_strs(exponent_data(conn, 0)) == ["1/2"]
        at1 = exponent_data(conn, 1)
        assert at1.ordinary  # the pole at 1 cancels
        assert eig_strs(at1) == ["0"]
        assert eig_strs(exponent_data(conn, INFINITY)) == ["-1/2"]

    def test_w2_zero_at_infinity(self):
        conn = build_companion(W2_ZERO)
        ed = exponent_data(conn, INFINITY)
        assert eig_strs(ed) == ["-1", "0"]
        assert not ed.ordinary

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_trace_identity_no_apparent(self, seed):
        rng = random.Random(seed)
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        op = random_operator(rng, m, n)
        conn = build_companion(op)
        total = exponent_data(conn, INFINITY).exponent_matrix.trace()
        for p in conn.pole_points:
            total = total + exponent_data(conn, p).exponent_matrix.trace()
        assert total == scalar((n - 1) * m * (m - 1)) / 2

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_trace_identity_with_apparent(self, seed):
        # apparent points enter the count like any finite pole
        rng = random.Random(seed)
        m = rng.randint(2, 3)
        n = rng.randint(1, 2)
        na = rng.randint(1, 2)
        op = random_operator(rng, m, n, na)
        conn = build_companion(op)
        total = exponent_data(conn, INFINITY).exponent_matrix.trace()
        for p in conn.pole_points:
            total = total + exponent_data(conn, p).exponent_matrix.trace()
        assert total == scalar((n + na - 1) * m * (m - 1)) / 2


def _polar_oracle(mat: ExactMatrix, p) -> tuple:
    """(residue matrix, ordinary) entry by entry on reduced rational
    functions, by `order_and_residue_at`."""
    polar = [[order_and_residue_at(e, p) for e in row] for row in mat.rows]
    return (ExactMatrix.from_rows([[r for _, r in row] for row in polar]),
            all(k == 0 for row in polar for k, _ in row))


def _infinity_oracle(conn) -> tuple:
    """The chart swap: regauge every reduced entry by diag(1, -z^s, z^2s,
    ...), s = (number of poles) - 1, substitute z = 1/zeta, multiply by
    dz/dzeta = -1/zeta^2, and read the polar data at zeta = 0."""
    s, m = len(conn.pole_points) - 1, conn.size
    zpow = [Polynomial.from_list([0] * (k * s) + [1]) for k in range(m)]
    flip = RationalFunction.make(Polynomial.constant(-1), Polynomial.of(0, 0, 1))
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            e = rf_mul(entries(conn).entry(i, j), RationalFunction.make(
                zpow[i] * scalar((-1) ** (i + j)), zpow[j]))
            if i == j:
                e = rf_add(e, RationalFunction.make(Polynomial.constant(-i * s), Polynomial.x()))
            row.append(rf_mul(subst_reciprocal(e), flip))
        rows.append(row)
    return _polar_oracle(ExactMatrix.from_rows(rows), 0)


class TestResidueMatrix:
    """Residues read off (num, den) against the entry-by-entry oracle, at
    every pole, at infinity and at one point off the poles."""

    def _check(self, conn):
        off = next(scalar(q) for q in range(-9, 20) if not conn.den(scalar(q)).is_zero())
        for p in conn.pole_points + (off,):
            got = residue_matrix(conn, p)
            assert got == _polar_oracle(entries(conn), p)
            ed = exponent_data(conn, p)
            assert (ed.exponent_matrix, ed.ordinary) == got
        if not conn.pole_points:
            with pytest.raises(DomainError, match="at least one finite pole"):
                residue_matrix(conn, INFINITY)
            return
        assert residue_matrix(conn, INFINITY) == _infinity_oracle(conn)
        ed = exponent_data(conn, INFINITY)
        assert (ed.exponent_matrix, ed.ordinary) == _infinity_oracle(conn)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_companion(self, seed):
        rng = random.Random(seed)
        m, n, na = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 1)
        op = random_operator(rng, m, n, na, gaussian=rng.random() < 0.3)
        conn = build_companion(op)
        # canonical: den monic and coprime to the numerators as a whole;
        # from order 2 on, the sub-diagonal ones make (A, psi) canonical
        assert conn.den.lc() == scalar(1)
        assert functools.reduce(poly_gcd, itertools.chain(*conn.num.rows),
                                conn.den) == Polynomial.one()
        assert m == 1 or conn.den == psi_all(op)
        self._check(conn)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_gauged(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        conn = build_companion(random_operator(rng, m, n))
        gauged = apply_gauge(conn, random_gauge(rng, m, conn.pole_points))
        self._check(gauged)

    def test_growth_at_infinity(self):
        # B = z has residue 0 at infinity but a pole of order 3 there in the
        # chart zeta = 1/z, so infinity is not ordinary
        conn = LogConnection(ExactMatrix.from_rows([[Polynomial.x()]]),
                             Polynomial.one(), (0,))
        assert residue_matrix(conn, INFINITY) == (ExactMatrix.from_rows([[ZERO]]), False)
        self._check(conn)

    def test_double_pole(self):
        # diag(1, z) on W2_ZERO leaves an entry 1/(z^2 (z - 1)) below the
        # diagonal: den has a double zero at 0
        gauged = apply_gauge(build_companion(W2_ZERO), ExactMatrix.from_rows(
            [[Polynomial.one(), PZ], [PZ, Polynomial.x()]]))
        assert gauged.den == Polynomial.of(0, 0, -1, 1)
        assert gauged.pole_points == (scalar(0), scalar(1))
        self._check(gauged)


class TestBundle:
    def test_m2_n3(self):
        op = op_of(2, (0, 1, 2), (PZ, PZ))
        assert bundle_type(op).degrees == (0, -2)
        assert bundle_type(op).total == -2

    def test_m1(self):
        op = op_of(1, (0,), (PZ,))
        assert bundle_type(op).degrees == (0,)
        assert bundle_type(op).total == 0

    def test_m3_n3(self):
        op = op_of(3, (0, 1, 2), (PZ, PZ, PZ))
        bt = bundle_type(op)
        assert bt.degrees == (0, -2, -4) and bt.total == -6

    def test_rejects_apparent(self):
        op = op_of(1, (0,), (PZ,), apparent=(1,))
        with pytest.raises(DomainError):
            bundle_type(op)


class TestGauge:
    def setup_method(self):
        self.conn = build_companion(W2_ZERO)

    def test_identity(self):
        g = ExactMatrix.identity(2, Polynomial.one())
        assert apply_gauge(self.conn, g) == self.conn

    def test_constant_scalar(self):
        g = ExactMatrix.identity(2, Polynomial.one()).scale(Polynomial.constant(5))
        assert entries(apply_gauge(self.conn, g)) == entries(self.conn)

    def test_constant_triangular_round_trip(self):
        g = ExactMatrix.from_rows([[scalar(1), scalar(0)], [scalar(7), scalar(2)]])
        there = apply_gauge(self.conn, g)
        assert entries(there) != entries(self.conn)
        ginv = ExactMatrix.from_rows([[scalar(1), scalar(0)], [scalar("-7/2"), scalar("1/2")]])
        back = apply_gauge(there, ginv)
        assert back == self.conn

    def test_polynomial_gauge_round_trip(self):
        g = ExactMatrix.from_rows([[Polynomial.one(), PZ],
                                   [Polynomial.x(), Polynomial.one()]])
        ginv = ExactMatrix.from_rows([[Polynomial.one(), PZ],
                                      [-Polynomial.x(), Polynomial.one()]])
        assert apply_gauge(apply_gauge(self.conn, g), ginv) == self.conn

    def test_singular_rejected(self):
        g = ExactMatrix.from_rows([[scalar(1), scalar(2)], [scalar(2), scalar(4)]])
        with pytest.raises(DomainError, match="invertible"):
            apply_gauge(self.conn, g)

    def test_pole_outside_q_i_rejected(self):
        # diag(1, z^2 - 2) puts z^2 - 2 into a denominator; its poles are
        # not in Q(i), so no list of pole points can name them
        g = ExactMatrix.from_rows([[Polynomial.one(), PZ],
                                   [PZ, Polynomial.of(-2, 0, 1)]])
        with pytest.raises(DomainError, match=r"outside Q\(i\).*z\^2"):
            apply_gauge(self.conn, g)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_matches_entrywise_route(self, seed):
        # g^{-1} B g + g^{-1} g' on reduced entries, g^{-1} by cofactors
        rng = random.Random(seed)
        m = rng.randint(1, 3)
        conn = build_companion(random_operator(rng, m, rng.randint(1, 3),
                                               gaussian=rng.random() < 0.3))
        g = random_gauge(rng, m, conn.pole_points)
        if rng.random() < 0.5:  # times a unipotent upper factor: same det g
            g = g * ExactMatrix.from_rows(
                [[Polynomial.one() if j == i else
                  Polynomial.constant(rng.randint(-2, 2)) if j == i + 1 else PZ
                  for j in range(m)] for i in range(m)])

        def adj(i, j):  # (-1)^(i+j) times the minor of g without row j, column i
            minor = [[e for c, e in enumerate(row) if c != i]
                     for r, row in enumerate(g.rows) if r != j]
            c = rf_det(minor) if minor else RationalFunction.make(Polynomial.one())
            return c if (i + j) % 2 == 0 else rf_neg(c)

        det = rf_det(g.rows)
        ginv = [[rf_div(adj(i, j), det) for j in range(m)] for i in range(m)]
        b = entries(conn).rows

        def prod(x, y):
            return [[functools.reduce(rf_add, (rf_mul(x[i][k], y[k][j]) for k in range(m)))
                     for j in range(m)] for i in range(m)]

        inner = [[rf_add(e, rf_derivative(g.rows[i][j])) for j, e in enumerate(row)]
                 for i, row in enumerate(prod(b, g.rows))]
        gauged = apply_gauge(conn, g)
        assert entries(gauged).rows == tuple(map(tuple, prod(ginv, inner)))
        assert gauged.pole_points == tuple(sorted(
            {r for r, _ in poly_root_search(gauged.den).roots}, key=lambda r: r.sort_key()))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_group_action(self, seed):
        rng = random.Random(seed)

        def rand_invertible():
            while True:
                g = ExactMatrix.from_rows(
                    [[scalar(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)])
                d = g.det()
                if not d.is_zero():
                    return g

        g, h = rand_invertible(), rand_invertible()
        one_step = apply_gauge(self.conn, g * h)
        two_step = apply_gauge(apply_gauge(self.conn, g), h)
        assert entries(one_step) == entries(two_step)


def _brute_force(table) -> GenericityReport:
    """Test oracle: the integer-difference scan, then every k-selection at
    every point in itertools.product order, smallest k first."""
    table = [[scalar(v) for v in row] for row in table]
    m = len(table[0])
    for pt_idx, row in enumerate(table):
        for i, j in itertools.combinations(range(m), 2):
            if (row[i] - row[j]).is_integer():
                return GenericityReport(passes=False, witness={
                    "kind": "integer-difference", "point_index": pt_idx,
                    "indices": (i, j), "difference": row[i] - row[j]})
    for k in range(1, m):
        per_point = [list(itertools.combinations(range(m), k)) for _ in table]
        for choice in itertools.product(*per_point):
            total = scalar(0)
            for row, idx in zip(table, choice):
                for i in idx:
                    total = total + row[i]
            if total.is_integer():
                return GenericityReport(passes=False, witness={
                    "kind": "integer-sum", "k": k,
                    "selection": [list(idx) for idx in choice], "total": total})
    return GenericityReport(passes=True, witness=None)


@st.composite
def exponent_tables(draw):
    """Up to 4 points of up to 4 exponents, over one shared real
    denominator or a denominator per entry, some with imaginary parts; half
    the tables with m >= 3 get a planted k = 2 integer total."""
    pts = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    shared = draw(st.sampled_from([None, 4, 6, 12]))
    rows = []
    for _ in range(pts):
        row = []
        for _ in range(m):
            den = shared or draw(st.sampled_from([2, 3, 4, 5, 6, 12]))
            re = Fraction(draw(st.integers(-12, 12)), den)
            im = Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2, 3])))
            row.append(GaussianRational(re, im if draw(st.booleans()) else Fraction(0)))
        rows.append(row)
    if m >= 3 and draw(st.booleans()):
        # plant an integer total on the selection {0, 1} at every point
        rest = sum((row[0] + row[1] for row in rows[:-1]), scalar(0))
        rows[-1][1] = scalar(draw(st.integers(-2, 2))) - rest - rows[-1][0]
    return rows


class TestGenericity:
    def test_half_integer_sum_fails(self):
        rep = genericity_check([["0", "1/2"]] * 3)
        assert not rep.passes
        assert rep.witness["kind"] == "integer-sum"
        assert rep.witness["k"] == 1

    def test_fifths_and_sevenths_pass(self):
        assert genericity_check([["1/5", "1/7"]] * 3).passes

    @pytest.mark.parametrize("table", [[[]], [[], []]])
    def test_empty_rows_are_refused(self, table):
        with pytest.raises(DomainError, match="at least one exponent"):
            genericity_check(table)

    def test_first_order_vacuous(self):
        assert genericity_check([["1/2"], ["347/2"]]).passes

    def test_integer_difference(self):
        rep = genericity_check([["1/3", "4/3"], ["1/5", "2/5"]])
        assert not rep.passes
        assert rep.witness["kind"] == "integer-difference"
        assert rep.witness["point_index"] == 0

    def test_equal_exponents_are_resonant(self):
        rep = genericity_check([["1/2", "1/2"]])
        assert not rep.passes

    def test_enumeration_guard(self):
        # 2^24 selections, once refused by an enumeration guard, but only
        # 35 residues: the first integer total takes 1/5 ten times, then
        # 1/7 fourteen times
        rep = genericity_check([["1/5", "1/7"]] * 24)
        assert not rep.passes
        assert rep.witness["kind"] == "integer-sum"
        assert rep.witness["k"] == 1
        assert rep.witness["selection"] == [[0]] * 10 + [[1]] * 14
        assert rep.witness["total"] == scalar(4)

    @pytest.mark.parametrize("table", [
        # imaginary parts 2^j make all 2^20 k = 1 totals distinct
        [["1/3", {"re": "1/3", "im": str(2 ** j)}] for j in range(20)],
        # at most 31 residues per k, but C(30, k) combinations per point
        [[{"re": f"{j}/31", "im": "1"} for j in range(1, 31)]] * 2,
        [[{"re": f"{j}/31", "im": "1"} for j in range(1, 31)]],
    ])
    def test_residue_guard(self, table):
        with pytest.raises(DomainError, match="residue guard"):
            genericity_check(table)

    def test_residue_guard_counts_before_forming(self, monkeypatch):
        # k = 1 only: 6 combination keys, then suffix sets of 2 * 1 and
        # 2 * 2 key sums, 12 keys in all
        table = [["1/5", "2/5"], ["1/7", "2/7"], ["1/11", "2/11"]]
        monkeypatch.setattr(connection, "RESIDUE_GUARD", 12)
        assert genericity_check(table).passes
        monkeypatch.setattr(connection, "RESIDUE_GUARD", 11)
        with pytest.raises(DomainError, match="residue guard of 11 keys"):
            genericity_check(table)

    @given(exponent_tables())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, table):
        assert genericity_check(table).to_json() == _brute_force(table).to_json()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = random.Random(seed)
        m = rng.randint(1, 3)
        pts = rng.randint(1, 3)
        table = [[scalar(rng.randint(-20, 20)) / rng.choice([7, 11, 13])
                  for _ in range(m)] for _ in range(pts)]
        base = genericity_check(table).passes
        shuffled = [list(row) for row in table]
        rng.shuffle(shuffled)
        for row in shuffled:
            rng.shuffle(row)
        assert genericity_check(shuffled).passes == base


class TestRigidity:
    def test_same_operator_scalars_only(self):
        rep = companion_rigidity_check(W2_ZERO, W2_ZERO)
        assert rep.dimension == 1
        assert rep.scalar_only

    def test_different_operator_empty(self):
        other = op_of(2, (0, 1), (PZ, Polynomial.one()))
        rep = companion_rigidity_check(W2_ZERO, other)
        assert rep.dimension == 0

    def test_first_order(self):
        op = op_of(1, (0, 1), (Polynomial.of(1, 2),))
        assert companion_rigidity_check(op, op).dimension == 1
        other = op_of(1, (0, 1), (Polynomial.of(1, 1),))
        assert companion_rigidity_check(op, other).dimension == 0

    def test_order_cap(self):
        rng = random.Random(3)
        op = random_operator(rng, 4, 2)
        with pytest.raises(DomainError, match="order <= 3"):
            companion_rigidity_check(op, op)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_random_m2_scalar_only(self, seed):
        rng = random.Random(seed)
        op = random_operator(rng, 2, rng.randint(2, 3))
        rep = companion_rigidity_check(op, op)
        assert rep.dimension == 1 and rep.scalar_only

    @given(st.integers(0, 10 ** 6))
    # points -2, -1/2: a rank-one gauge joins the scalars
    @example(321756)
    @settings(max_examples=10, deadline=None)
    def test_random_m3_basis_is_exact(self, seed):
        # not every random operator admits only the scalars, so check what
        # holds for all: each basis gauge G solves A G + psi G' - G A = 0,
        # and the identity lies in their span
        rng = random.Random(seed)
        op = random_operator(rng, 3, 2)
        rep = companion_rigidity_check(op, op)
        a, psi = companion_poly_matrix(op), psi_all(op)
        for g in rep.basis:
            resid = a * g + g.map(lambda e: e.derivative()).scale(psi) - g * a
            assert all(e.is_zero() for row in resid.rows for e in row)
        gauges = list(rep.basis) + [ExactMatrix.identity(3, Polynomial.one())]
        top = max(e.degree() for g in gauges for row in g.rows for e in row)
        flat = [[e.coeff(d) for row in g.rows for e in row for d in range(top + 1)]
                for g in gauges]
        assert ExactMatrix.from_rows(flat).rank() == len(rep.basis) == rep.dimension
        if seed == 321756:
            assert rep.dimension == 2 and not rep.scalar_only

