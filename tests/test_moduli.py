"""Dimension counts, constraint ranks, jet determinants."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuchskit.algebra import scalar
from fuchskit.moduli import (
    build_constraints,
    dimensions,
    gen_vandermonde,
    paired_plan,
    vdm_closed_form,
    vdm_log10,
    verify_rank,
)
from fuchskit.operator import DomainError
from fuchskit.sampling import random_scalar
from oracles import block_diagonal


class TestDimensions:
    # order, num_real -> net
    GRID = {(2, 2): 0, (2, 3): 1, (2, 4): 2, (2, 5): 3,
            (3, 2): 1, (3, 3): 4, (3, 4): 7,
            (4, 2): 3, (4, 3): 9,
            (5, 2): 6}

    def test_grid(self):
        for (m, n), net in self.GRID.items():
            rep = dimensions(m, n)
            assert rep.net_dimension == net
            assert rep.doubled_dimension == 2 * net
            assert rep.parameter_count - rep.condition_count == net

    def test_smallest_shape_is_rigid(self):
        rep = dimensions(2, 2)
        assert rep.parameter_count == 5
        assert rep.condition_count == 5
        assert rep.net_dimension == 0

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=5))
    def test_apparent_points_never_move_the_net(self, m, n, extra):
        assert dimensions(m, n, extra).net_dimension == dimensions(m, n).net_dimension

    def test_condition_count_grows_with_apparent_points(self):
        base = dimensions(3, 2)
        more = dimensions(3, 2, 2)
        assert more.condition_count == base.condition_count + 2 * 6  # m(m+1)/2 each

    def test_guards(self):
        with pytest.raises(DomainError):
            dimensions(0, 3)
        with pytest.raises(DomainError):
            dimensions(2, 1)
        with pytest.raises(DomainError):
            dimensions(2, 3, -1)

    @pytest.mark.parametrize("order", [0, -2, True, 2.0])
    def test_order_must_be_a_positive_int(self, order):
        for call in (lambda: dimensions(order, 3),
                     lambda: build_constraints(order, (0, 1))):
            with pytest.raises(DomainError, match="positive integer"):
                call()


def check_blocks(cs, n, extra):
    """Block k has n+N+1+N(k-1) rows, one per tag with that k, and the
    k(n+N-1)+1 coefficients of numerator k as columns; the document's counts
    and bounds are the running sums of the block shapes."""
    shapes = [b.shape() for b in cs.blocks]
    assert len(shapes) == cs.order
    for k, shape in enumerate(shapes, start=1):
        assert shape == (n + extra + 1 + extra * (k - 1), k * (n + extra - 1) + 1)
    assert [t.k for t in cs.tags] == [k for k, (rows, _) in enumerate(shapes, start=1)
                                      for _ in range(rows)]
    doc = cs.to_json()
    row_ends = [sum(r for r, _ in shapes[:k]) for k in range(len(shapes) + 1)]
    col_ends = [sum(c for _, c in shapes[:k]) for k in range(len(shapes) + 1)]
    assert (doc["rows"], doc["cols"]) == (row_ends[-1], col_ends[-1])
    assert doc["row_blocks"] == list(zip(row_ends, row_ends[1:]))
    assert doc["col_blocks"] == list(zip(col_ends, col_ends[1:]))


class TestConstraintMatrix:
    def test_shape_and_rank_plain(self):
        cs = build_constraints(2, (0, 1))
        check_blocks(cs, 2, 0)
        assert [b.shape() for b in cs.blocks] == [(3, 2), (3, 3)]
        assert block_diagonal(cs.blocks).shape() == (6, 5)
        assert cs.expected_rank == 5
        rep = verify_rank(cs)
        assert rep.ok
        assert rep.block_ranks == (2, 3)
        assert rep.block_dependencies == (1, 0)

    def test_shape_and_rank_with_apparent_point(self):
        cs = build_constraints(2, (0, 1), (2,))
        check_blocks(cs, 2, 1)
        assert block_diagonal(cs.blocks).shape() == (9, 8)
        rep = verify_rank(cs)
        assert rep.ok and rep.total_rank == 8
        assert rep.block_dependencies == (1, 0)

    def test_tags(self):
        cs = build_constraints(2, (0, 1), (2,))
        kinds = [t.kind for t in cs.tags]
        assert kinds.count("top-coefficient") == 2
        assert kinds.count("derivative") == 1
        jet = cs.tags[kinds.index("derivative")]
        assert jet.k == 2 and jet.point == scalar(2) and jet.derivative_order == 1
        top = cs.tags[kinds.index("top-coefficient")]
        assert top.point == "infinity"
        # value rows visit real points before apparent ones
        assert cs.tags[0].kind == "exponent" and cs.tags[0].point == scalar(0)

    def test_blocks_do_not_interact(self):
        # the padded matrix has the rank of its blocks' direct sum
        cs = build_constraints(3, (0, 1, -1))
        check_blocks(cs, 3, 0)
        rep = verify_rank(cs)
        assert block_diagonal(cs.blocks).rank() == sum(rep.block_ranks) == rep.total_rank
        assert rep.block_ranks == tuple(b.rank() for b in cs.blocks)

    def test_rank_sweep(self):
        # the acceptance suite runs the full grid; spot check here
        rng = random.Random(11)
        for m, n, extra in [(2, 2, 1), (3, 3, 0), (3, 2, 2), (1, 4, 3)]:
            pts = set()
            while len(pts) < n + extra:
                pts.add(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])))
            pts = sorted(pts)
            cs = build_constraints(m, pts[:n], pts[n:])
            check_blocks(cs, n, extra)
            rep = verify_rank(cs)
            assert rep.ok
            assert block_diagonal(cs.blocks).rank() == rep.total_rank
            assert rep.block_dependencies[0] == 1
            assert all(d == 0 for d in rep.block_dependencies[1:])

    def test_gaussian_points(self):
        cs = build_constraints(2, ("0", {"re": 0, "im": 1}, {"re": 0, "im": -1}))
        rep = verify_rank(cs)
        assert rep.ok
        assert block_diagonal(cs.blocks).rank() == rep.total_rank

    @pytest.mark.parametrize("real, apparent", [("01", ()), ((0, 1), "2")])
    def test_points_must_be_an_array(self, real, apparent):
        # a string is not read as its characters
        with pytest.raises(DomainError, match="must be an array, got str"):
            build_constraints(2, real, apparent)

    def test_guards(self):
        with pytest.raises(DomainError, match="distinct"):
            build_constraints(2, (0, 1), (1,))
        with pytest.raises(DomainError):
            build_constraints(2, (0,))


class TestJetDeterminants:
    def test_paired_plan(self):
        assert paired_plan(0) == (1, 1)
        assert paired_plan(3) == (2, 2, 2, 1, 1)
        with pytest.raises(DomainError):
            paired_plan(-1)

    def test_smallest_paired_case(self):
        pts = (0, 1, 2)
        det = gen_vandermonde(pts, paired_plan(1)).det()
        assert det == scalar(4)
        assert det == vdm_closed_form(pts, paired_plan(1))

    def test_plain_vandermonde(self):
        assert vdm_closed_form((0, 1), (1, 1)) == scalar(1)
        assert gen_vandermonde((0, 1), (1, 1)).det() == scalar(1)

    def test_matches_closed_form(self):
        rng = random.Random(4321)
        for _ in range(20):
            r = rng.randint(0, 4)
            pts = set()
            while len(pts) < r + 2:
                pts.add(Fraction(rng.randint(-6, 6), rng.choice([1, 2])))
            pts = tuple(pts)
            assert gen_vandermonde(pts, paired_plan(r)).det() == \
                vdm_closed_form(pts, paired_plan(r))

    def test_matches_closed_form_confluent(self):
        rng = random.Random(99)
        for _ in range(12):
            count = rng.randint(1, 4)
            pts = set()
            while len(pts) < count:
                pts.add(Fraction(rng.randint(-5, 5)))
            pts = tuple(pts)
            plan = tuple(rng.randint(1, 3) for _ in pts)
            assert gen_vandermonde(pts, plan).det() == vdm_closed_form(pts, plan)

    def test_float_cross_check(self):
        # independent numeric determinant for the sign convention
        pts = (Fraction(-2), Fraction(1, 2), Fraction(3))
        plan = (2, 2, 1)
        size = sum(plan)
        M = gen_vandermonde(pts, plan)
        A = np.array([[float(M.entry(i, j).re) for j in range(size)]
                      for i in range(size)])
        want = float(vdm_closed_form(pts, plan).re)
        assert abs(np.linalg.det(A) - want) <= 1e-8 * max(1.0, abs(want))

    def test_gaussian_points_stay_exact(self):
        i = {"re": 0, "im": 1}
        pts = (0, i, 1)
        assert gen_vandermonde(pts, (2, 1, 1)).det() == vdm_closed_form(pts, (2, 1, 1))

    def test_guards(self):
        with pytest.raises(DomainError, match="one multiplicity"):
            gen_vandermonde((0, 1), (1,))
        with pytest.raises(DomainError, match="positive"):
            gen_vandermonde((0, 1), (1, 0))

    @pytest.mark.parametrize("plan, message", [
        ((1,), "one multiplicity"),
        ((1, 2, 1), "one multiplicity"),
        ((1, 0), "positive"),
        ((1.9, 2.2), "integers"),
        ((True, 1), "integers"),
        ((Fraction(2), 1), "integers"),
        ((1000, 1), "exceeds the cap of 64"),
    ])
    def test_both_forms_share_the_plan_checks(self, plan, message):
        for form in (gen_vandermonde, vdm_closed_form, vdm_log10):
            with pytest.raises(DomainError, match=message):
                form((0, 1), plan)

    @pytest.mark.parametrize("points, plan", [("12", (1, 1)), ((1, 2), "11")])
    def test_both_forms_want_arrays(self, points, plan):
        for form in (gen_vandermonde, vdm_closed_form, vdm_log10):
            with pytest.raises(DomainError, match="must be an array, got str"):
                form(points, plan)

    def test_coincident_points_degenerate_to_zero(self):
        assert gen_vandermonde((0, 0), (1, 1)).det() == scalar(0)
        assert vdm_closed_form((0, 0), (1, 1)) == scalar(0)
        assert gen_vandermonde((2, 2, 1), (2, 1, 1)).det() == scalar(0)
        assert vdm_closed_form((2, 2, 1), (2, 1, 1)) == scalar(0)
        assert vdm_log10((0, 0), (1, 1)) is None
        assert vdm_log10((2, 2, 1), (2, 1, 1)) is None

    def test_log10_matches_the_closed_form(self):
        rng = random.Random(7)
        for _ in range(30):
            count = rng.randint(1, 5)
            pts = set()
            while len(pts) < count:
                pts.add(random_scalar(rng, max_num=40, dens=(1, 3, 7, 1000003),
                                      gaussian=True))
            pts = tuple(pts)
            plan = tuple(rng.randint(1, 4) for _ in pts)
            c = vdm_closed_form(pts, plan)
            re, im = c.re, c.im
            q = re.denominator * im.denominator
            want = (math.log10((re.numerator * im.denominator) ** 2
                               + (im.numerator * re.denominator) ** 2)
                    - math.log10(q * q)) / 2
            assert vdm_log10(pts, plan) == pytest.approx(want, abs=1e-9)
