"""Parameter counts and the exact linear algebra behind them.

Operators of a fixed shape form a finite-dimensional family: the numerator
polynomials contribute coefficients, and the prescriptions at the marked
points (exponent data at each finite point, top-coefficient data at
infinity, jet data at the apparent points) remove most of them.  This
module counts both sides, builds the linear part of the prescriptions as
one matrix per numerator, and verifies its rank exactly.

Only the linear layer lives here.  The handful of genuinely quadratic
apparency conditions are evaluated pointwise by the series machinery in
`frobenius`; for rank purposes they are represented by their linearization,
the jet rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

from .algebra import ExactMatrix, GaussianRational, ONE, Report, ZERO, document, scalar
from .operator import MAX_JET_SIZE, DomainError, check_order, degree_budget, json_array


def _check_points(num_real: int) -> None:
    if num_real < 2:
        raise DomainError("need at least two finite singular points")


def _condition_count(m: int, n: int, extra: int) -> int:
    """Linear conditions on an order-m family with n real and `extra`
    apparent points: (n+1)m - 1, plus m(m+1)/2 per apparent point."""
    return (n + 1) * m - 1 + extra * m * (m + 1) // 2


# ---------------------------------------------------------------------------
# dimension counts


@dataclass(frozen=True)
class DimensionReport(Report):
    order: int
    num_real: int
    num_apparent: int
    parameter_count: int
    condition_count: int
    net_dimension: int      # parameters minus conditions; blind to num_apparent
    doubled_dimension: int  # twice that, for the associated pair family


def dimensions(order: int, num_real: int, num_apparent: int = 0) -> DimensionReport:
    """Count free coefficients against linear-plus-apparency conditions.

    The net is independent of the number of apparent points: every extra
    such point brings exactly as many conditions as it brings coefficients.
    """
    m, n, extra = check_order(order), num_real, num_apparent
    _check_points(n)
    if extra < 0:
        raise DomainError("number of apparent points cannot be negative")
    params = degree_budget(m, n, extra).total
    conditions = _condition_count(m, n, extra)
    net = params - conditions
    assert net == 1 - m * m + m * (m - 1) * (n + 1) // 2  # closed form, no extra
    return DimensionReport(order=m, num_real=n, num_apparent=extra,
                           parameter_count=params, condition_count=conditions,
                           net_dimension=net, doubled_dimension=2 * net)


# ---------------------------------------------------------------------------
# the constraint blocks


@dataclass(frozen=True)
class ConstraintTag:
    """Provenance of one row: which numerator it constrains and at which
    point (derivative_order > 0 marks a jet row at an apparent point)."""
    k: int
    kind: str  # "exponent" | "top-coefficient" | "derivative"
    point: GaussianRational | str  # "infinity" for the top-coefficient row
    derivative_order: int = 0

    def to_json(self) -> dict:
        out = {"k": self.k, "kind": self.kind, "point": document(self.point)}
        if self.derivative_order:
            out["derivative_order"] = self.derivative_order
        return out


@dataclass(frozen=True)
class ConstraintSystem:
    """The prescriptions as blocks: blocks[k-1] acts on the coefficients of
    the k-th numerator only, and its rows are the tags with that k."""
    order: int
    real_points: tuple
    apparent_points: tuple
    blocks: tuple
    tags: tuple
    expected_rank: int

    def to_json(self) -> dict:
        """The direct sum's counts, with the (start, stop) of each block's
        rows and columns in it, from the running sums of the block shapes."""
        rows, cols = zip(*(b.shape() for b in self.blocks))
        row_ends = list(accumulate(rows, initial=0))
        col_ends = list(accumulate(cols, initial=0))
        return {
            "order": self.order,
            "real_points": document(self.real_points),
            "apparent_points": document(self.apparent_points),
            "rows": row_ends[-1],
            "cols": col_ends[-1],
            "tags": [t.to_json() for t in self.tags],
            "col_blocks": list(zip(col_ends, col_ends[1:])),
            "row_blocks": list(zip(row_ends, row_ends[1:])),
            "expected_rank": self.expected_rank,
        }


def build_constraints(order: int, real_points, apparent_points=()) -> ConstraintSystem:
    """The linear prescriptions on the numerators, one block per numerator.

    Block k acts on the coefficients of the k-th numerator and carries one
    value row per finite point, one top-coefficient row, and jet rows of
    orders 1..k-1 at each apparent point.  Blocks do not interact, so the
    whole system is their direct sum.
    """
    m = check_order(order)
    real = tuple(scalar(p) for p in json_array(real_points, "real points"))
    app = tuple(scalar(a) for a in json_array(apparent_points, "apparent points"))
    pts = real + app
    if len(set(pts)) != len(pts):
        raise DomainError("points not distinct")
    n, extra = len(real), len(app)
    _check_points(n)
    blocks: list = []
    tags: list = []
    for k, degree in enumerate(degree_budget(m, n, extra).degrees, start=1):
        rows = [list(accumulate(repeat(p, degree), mul, initial=ONE)) for p in pts]
        rows.append([ZERO] * degree + [ONE])
        tags += [ConstraintTag(k=k, kind="exponent", point=p) for p in pts]
        tags.append(ConstraintTag(k=k, kind="top-coefficient", point="infinity"))
        for a in app:
            for l in range(1, k):
                rows.append(_jet_row(a, l, degree + 1))
                tags.append(ConstraintTag(k=k, kind="derivative", point=a,
                                          derivative_order=l))
        blocks.append(ExactMatrix.from_rows(rows))
    return ConstraintSystem(order=m, real_points=real, apparent_points=app,
                            blocks=tuple(blocks), tags=tuple(tags),
                            expected_rank=_condition_count(m, n, extra))


@dataclass(frozen=True)
class RankReport(Report):
    total_rank: int
    expected_rank: int
    block_ranks: tuple
    block_dependencies: tuple  # rows minus rank, per block
    ok: bool


def verify_rank(system: ConstraintSystem) -> RankReport:
    """Exact rank of the constraint system: each block ranked once, and the
    total their sum, which is the rank of their direct sum.

    The first block always carries exactly one dependency (values at every
    finite point already determine the top coefficient there); the others
    are expected to be independent.
    """
    ranks = tuple(b.rank() for b in system.blocks)
    total = sum(ranks)
    return RankReport(total_rank=total, expected_rank=system.expected_rank,
                      block_ranks=ranks,
                      block_dependencies=tuple(b.shape()[0] - r
                                               for b, r in zip(system.blocks, ranks)),
                      ok=total == system.expected_rank)


# ---------------------------------------------------------------------------
# jet interpolation determinants


def _jet_row(b, l: int, width: int) -> list:
    """(d/dz)^l z^s at z = b for the powers s = 0..width-1."""
    return [b ** (s - l) * math.perm(s, l) if s >= l else ZERO
            for s in range(width)]


def _jet_plan(points, plan) -> tuple:
    """Points as scalars and the plan as positive ints, one per point."""
    pts = tuple(scalar(b) for b in json_array(points, "points"))
    plan = json_array(plan, "plan")
    if any(isinstance(u, bool) or not isinstance(u, int) for u in plan):
        raise DomainError(f"multiplicities must be integers, got {list(plan)!r}")
    if len(pts) != len(plan):
        raise DomainError("plan must give one multiplicity per point")
    if any(u < 1 for u in plan):
        raise DomainError("multiplicities must be positive")
    if sum(plan) > MAX_JET_SIZE:
        raise DomainError(f"sum(plan) = {sum(plan)} exceeds the cap of "
                          f"{MAX_JET_SIZE}")
    return pts, plan


def gen_vandermonde(points, plan) -> ExactMatrix:
    """Square jet-interpolation matrix.

    Point b with multiplicity u contributes the rows (d/dz)^l z^s |_{z=b}
    for l = 0..u-1; columns run over the powers s = 0..sum(plan)-1.  Rows
    are grouped by point, in the order given.
    """
    pts, plan = _jet_plan(points, plan)
    # coincident points are allowed: they duplicate row blocks and the
    # determinant degenerates to 0, matching the closed form
    size = sum(plan)
    return ExactMatrix.from_rows([_jet_row(b, l, size)
                                  for b, u in zip(pts, plan) for l in range(u)])


def vdm_closed_form(points, plan) -> GaussianRational:
    """Determinant of gen_vandermonde in closed form:
    prod over points of prod_{l<u} l!, times prod_{i<j} (b_j-b_i)^(u_i u_j)."""
    pts, plan = _jet_plan(points, plan)
    out = scalar(1)
    for u in plan:
        for l in range(u):
            out = out * scalar(math.factorial(l))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            out = out * (pts[j] - pts[i]) ** (plan[i] * plan[j])
    return out


def vdm_log10(points, plan) -> float | None:
    """log10 |vdm_closed_form| in floating point, summed from the factors
    without multiplying them out; None when two points coincide, since the
    determinant is then 0."""
    pts, plan = _jet_plan(points, plan)
    out = sum(math.log10(math.factorial(l)) for u in plan for l in range(u))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = pts[j] - pts[i]
            if d.is_zero():
                return None
            out += plan[i] * plan[j] * (math.log10(d.a * d.a + d.b * d.b) / 2
                                        - math.log10(d.d))
    return out


def paired_plan(r: int) -> tuple:
    """Multiplicity pattern (2,...,2,1,1): r doubled points plus two plain
    ones, the square shape that prices one apparent point against two
    exponent prescriptions."""
    if r < 0:
        raise DomainError("r must be non-negative")
    return (2,) * r + (1, 1)
