"""Acceptance gate: ten headline checks, one test per criterion.

Each test prints a single PASS line on success; tolerances and instance
counts are stated inline and are not negotiable downstream.
"""

import random
import time
from fractions import Fraction

import numpy as np

from fuchskit.algebra import scalar
from fuchskit.connection import (
    build_companion,
    companion_rigidity_check,
    exponent_data,
)
from fuchskit.cyclic import roundtrip_check
from fuchskit.frobenius import (
    annihilator_from_solutions,
    apparent_check,
    frobenius_oracle,
    special_apparent_check,
    special_exponents,
)
from fuchskit.moduli import dimensions, gen_vandermonde, paired_plan, vdm_closed_form
from fuchskit.monodromy import global_product, is_apparent_numeric, monodromy
from fuchskit.moduli import build_constraints, verify_rank
from fuchskit.operator import DomainError, FuchsianOperator
from fuchskit.sampling import (
    distinct_points,
    prescribed_exponent_operator,
    random_operator,
    random_polynomial,
    second_order_with_exponents,
)


def _closed_form_net(m: int, n: int) -> int:
    num = 2 + m * (m - 1) * (n + 1) - 2 * m * m
    assert num % 2 == 0
    return num // 2


def test_criterion_01_dimension_grid():
    start = time.monotonic()
    for m in range(1, 6):
        for n in range(2, 7):
            rep = dimensions(m, n)
            assert rep.net_dimension == _closed_form_net(m, n)
            assert rep.doubled_dimension == 2 * rep.net_dimension
    assert dimensions(2, 2).net_dimension == 0
    assert dimensions(2, 3).net_dimension == 1
    assert dimensions(3, 3).net_dimension == 4
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: dimension grid exact on 5x5, {elapsed:.3f}s")


def test_criterion_02_apparent_count_independence():
    for m in range(1, 6):
        for n in range(2, 7):
            base = dimensions(m, n, 0).net_dimension
            for N in range(5):
                rep = dimensions(m, n, N)
                assert rep.parameter_count - rep.condition_count == base
    print("PASS criterion 2: net dimension blind to apparent count, N in 0..4")


def _integer_exponent_instances(count: int):
    """Mix of certainly-apparent operators (annihilators of polynomial
    bases) and prescribed-integer-exponent draws whose apparency is left
    to chance."""
    rng = random.Random(1001)
    out = []
    ladders = {2: [(2, 0), (3, 0), (3, 1)],
               3: [(3, 1, 0), (4, 2, 0), (4, 2, 1)]}
    while len(out) < count:
        m = rng.choice((2, 3))
        if rng.random() < 0.4:
            degs = sorted(rng.sample(range(m + 2), m))
            basis = []
            for d in degs:
                p = random_polynomial(rng, d - 1, max_num=3) if d else None
                cs = (list(p.coeffs) if p is not None else [])
                cs += [scalar(0)] * (d - len(cs)) + [scalar(1)]
                basis.append(cs)
            try:
                op = annihilator_from_solutions(basis)
            except Exception:
                continue
            if op.order != m or not op.apparent_points:
                continue
            out.append((op, op.apparent_points[0]))
        else:
            exps = rng.choice(ladders[m])
            op = prescribed_exponent_operator(rng, m, exps)
            out.append((op, scalar(0)))
    return out


def test_criterion_03_oracle_equivalence():
    start = time.monotonic()
    instances = _integer_exponent_instances(100)
    verdicts = set()
    for op, point in instances:
        det_route = apparent_check(op, point)
        series_route = frobenius_oracle(op, point)
        assert det_route.is_apparent == series_route.is_apparent
        verdicts.add(det_route.is_apparent)
    assert verdicts == {True, False}  # both outcomes genuinely exercised
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS criterion 3: determinant and series routes agree on "
          f"{len(instances)} instances, {elapsed:.1f}s")


def _special_ladder_annihilator(rng, m):
    """Annihilator of a polynomial basis whose valuations at 0 are the
    special ladder {m, m-2, ..., 1, 0}; its single extra point is special
    apparent by construction when the Wronskian splits."""
    vals = sorted(e.as_int() for e in special_exponents(m))
    basis = []
    for v in vals:
        cs = [scalar(0)] * v + [scalar(1)]
        for _ in range(rng.randint(0, 2)):
            cs.append(scalar(rng.randint(-2, 2)))
        basis.append(cs)
    return annihilator_from_solutions(basis)


def test_criterion_04_reduced_condition_equivalence():
    rng = random.Random(77)
    total = 0
    verdicts = set()
    while total < 50:
        m = rng.choice((3, 4))
        if rng.random() < 0.5:
            try:
                op = _special_ladder_annihilator(rng, m)
            except DomainError:  # non-splitting Wronskian draw
                continue
            if scalar(0) not in op.apparent_points:
                continue
        else:
            op = prescribed_exponent_operator(rng, m, special_exponents(m))
        reduced = special_apparent_check(op, 0)
        full = apparent_check(op, 0)
        assert reduced.is_apparent == full.is_apparent
        verdicts.add(full.is_apparent)
        total += 1
    assert verdicts == {True, False}
    print(f"PASS criterion 4: reduced special-ladder conditions match the "
          f"full determinant route on {total} instances")


def test_criterion_05_vandermonde_closed_form():
    rng = random.Random(5150)
    checked = 0
    while checked < 50:
        r = rng.randint(0, 4)
        plan = paired_plan(r)
        pts = distinct_points(rng, len(plan))
        det = gen_vandermonde(pts, plan).det()
        closed = vdm_closed_form(pts, plan)
        assert abs(det.re) == abs(closed.re) and abs(det.im) == abs(closed.im)
        assert det == closed  # the chosen row order gives the exact sign too
        checked += 1
    for pts, plan in (((1, 1), (1, 1)), ((0, 2, 2), (2, 2, 1))):
        assert gen_vandermonde(pts, plan).det() == scalar(0)
        assert vdm_closed_form(pts, plan) == scalar(0)
    print(f"PASS criterion 5: confluent determinant matches closed form on "
          f"{checked} instances, 0 at coincident points")


def test_criterion_06_constraint_ranks():
    rng = random.Random(424)
    for m in (1, 2, 3):
        for n in (2, 3, 4):
            for N in range(4):
                pts = distinct_points(rng, n + N)
                system = build_constraints(m, pts[:n], pts[n:])
                rep = verify_rank(system)
                assert rep.ok
                assert rep.total_rank == (n + 1) * m - 1 + N * m * (m + 1) // 2
                assert rep.block_dependencies[0] == 1
                assert all(d == 0 for d in rep.block_dependencies[1:])
    print("PASS criterion 6: constraint ranks exact for m<=3, n in 2..4, "
          "N<=3; k=1 block carries the single residue dependency")


def test_criterion_07_roundtrip():
    rng = random.Random(88)
    done = 0
    while done < 100:
        m = rng.choice((1, 2, 3))
        n = rng.randint(2, 4)
        N = rng.choice((0, 0, 1))
        op = random_operator(rng, m, n, N, gaussian=(rng.random() < 0.2))
        rep = roundtrip_check(op)
        assert rep.ok, f"roundtrip failed on {op}"
        assert rep.apparent_locus == ()
        done += 1
    print(f"PASS criterion 7: companion -> cyclic vector reproduces "
          f"{done} operators coefficient-exactly, empty extra locus")


def test_criterion_08_rigidity():
    rng = random.Random(99)
    ops = [random_operator(rng, 2, rng.randint(2, 4)) for _ in range(20)]
    for op in ops:
        rep = companion_rigidity_check(op, op)
        assert rep.dimension == 1
        assert rep.scalar_only
    # the check compares connections over a shared pole divisor, so the
    # distinct partner reuses each operator's points with fresh coefficients
    distinct_pairs = 0
    for a in ops:
        b = random_operator(rng, 2, a.num_real)
        b = FuchsianOperator(order=2, real_points=a.real_points,
                             apparent_points=(), coeffs=b.coeffs)
        if b.coeffs == a.coeffs:
            continue
        rep = companion_rigidity_check(a, b)
        assert rep.dimension == 0
        distinct_pairs += 1
    assert distinct_pairs >= 15
    print(f"PASS criterion 8: self-rigidity dimension 1 on {len(ops)} "
          f"operators; {distinct_pairs} distinct pairs give dimension 0")


def test_criterion_09_trace_identity():
    rng = random.Random(333)
    done = 0
    while done < 50:
        m = rng.randint(1, 3)
        n = rng.randint(2, 4)
        N = rng.choice((0, 1, 2))
        op = random_operator(rng, m, n, N, gaussian=(rng.random() < 0.25))
        conn = build_companion(op)
        total = scalar(0)
        for p in conn.pole_points:
            total = total + exponent_data(conn, p).exponent_matrix.trace()
        total = total + exponent_data(conn, "infinity").exponent_matrix.trace()
        assert total == scalar((n + N - 1) * m * (m - 1)) / scalar(2)
        done += 1
    print(f"PASS criterion 9: exponent-matrix traces sum to "
          f"(n-1)m(m-1)/2 on {done} operators, infinity included")


def test_criterion_10_numeric_monodromy():
    start = time.monotonic()

    half = FuchsianOperator(order=1, real_points=(0,), apparent_points=(),
                            coeffs=([Fraction(1, 2)],))
    res = monodromy(build_companion(half), 0)
    assert abs(res.eigenvalues[0] + 1.0) < 1e-8

    # exact detector vs numeric detector on integer-exponent instances
    agreeing = []
    apparent_ops = [
        annihilator_from_solutions([[1], [0, 0, 1]]),
        annihilator_from_solutions([[1], [0, 1], [0, 0, 0, 1]]),
        annihilator_from_solutions([[1], [0, 1], [0, 0, 1, 1]]),
    ]
    for op in apparent_ops:
        point = op.apparent_points[0]
        assert apparent_check(op, point).is_apparent
        loop = monodromy(build_companion(op), point)
        rep = is_apparent_numeric(loop.matrix)
        assert rep.ok
        agreeing.append(rep.identity_distance)
    blocked_ops = [
        second_order_with_exponents((0, 1), (Fraction(2), Fraction(1, 3)),
                                    quadratic_part=Fraction(1)),
        second_order_with_exponents((0, 1), (Fraction(3), Fraction(1, 2)),
                                    quadratic_part=Fraction(1, 2)),
    ]
    for op in blocked_ops:
        assert not apparent_check(op, 0).is_apparent
        loop = monodromy(build_companion(op), 0)
        assert not is_apparent_numeric(loop.matrix).ok

    # global product closes up to the identity comparison loop
    crafted = second_order_with_exponents(
        (0, 1, -1), (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)),
        quadratic_part=Fraction(1, 8))
    g = global_product(build_companion(crafted))
    assert g.closure_error < 1e-5
    outer_vs_product = np.max(np.abs(np.array(g.product) - g.outer.matrix))
    assert outer_vs_product < 1e-5

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS criterion 10: half-integer loop -1, numeric apparency "
          f"agrees (max identity distance {max(agreeing):.2e}), global "
          f"closure {g.closure_error:.2e}, {elapsed:.1f}s")
