"""Levelt's theorem as an exact oracle for the global monodromy.

The equation of nF_{n-1}(a; b; z) (`sampling.hypergeometric`) has its
singular points at 0, 1 and infinity.  When no a_j - b_k is an integer
(b_n = 1 included), Levelt's theorem (Beukers & Heckman, Invent. Math. 95,
1989, Thm 3.5) fixes its monodromy group up to conjugation: the loop at
infinity and the loop at 0 are simultaneously conjugate to the companion
matrices of prod (x - exp(-2 pi i a_j)) and prod (x - exp(-2 pi i b_j)).

Convention, as in README's loop conventions: every loop runs
counterclockwise, and a loop around a point of exponent mu has the
eigenvalue exp(+2 pi i mu).  The exponents are a_j at infinity and 1 - b_j
at 0, so the outer loop of `global_product`, counterclockwise around 0 and
1 and so clockwise around infinity, has the eigenvalues exp(-2 pi i a_j),
and the loop at 0 has exp(2 pi i (1 - b_j)) = exp(-2 pi i b_j).  The outer
loop matches the companion of the a_j, the loop at 0 that of the b_j.

Traces of words are invariant under a common conjugation, so the check
compares the trace of every word of length <= 3 in the two matrices and
their inverses (84 words) against the same word in the companion pair.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from fuchskit.algebra import scalar
from fuchskit.connection import build_companion, exponent_data, genericity_check
from fuchskit.monodromy import _RTOL, global_product, word_traces
from fuchskit.operator import validate_fuchsian
from fuchskit.sampling import hypergeometric

# A pool of non-integer parameters in (-1, 1).
POOL = sorted({Fraction(p, q) for q in range(2, 8) for p in range(1 - q, q)
               if p % q})

# Fixed before the first run: each trace may differ from the companion
# pair's by at most TRACE_FACTOR times the closure error, plus rtol * scale
# for a closure that cancels by chance.  Traces do not see the conjugation
# that makes the loop entries large, so their error follows the closure
# error, not a power of the scale.
TRACE_FACTOR = 100


def draw(n: int, seed: int) -> tuple:
    """Upper parameters a (n) and lower ones b (n - 1), each distinct, with
    no integer a_j - b_k for b_n = 1 either."""
    rng = random.Random(1000 * n + seed)
    while True:
        a = rng.sample(POOL, n)
        b = rng.sample(POOL, n - 1)
        if not any((x - y).denominator == 1 for x in a for y in b + [1]):
            return a, b


def companion(roots) -> np.ndarray:
    """The companion matrix of prod (x - r): ones below the diagonal and
    minus the coefficients in the last column."""
    cp = np.poly(roots)
    n = len(roots)
    mat = np.zeros((n, n), dtype=complex)
    mat[1:, :-1] = np.eye(n - 1)
    mat[:, -1] = -cp[:0:-1]
    return mat


def exp_minus(params) -> list:
    return [np.exp(-2j * np.pi * float(v)) for v in params]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", range(3))
def test_global_monodromy_is_the_companion_pair(n, seed):
    a, b = draw(n, seed)
    g = global_product(build_companion(hypergeometric(a, b)))
    at_zero = next(r for r in g.loops if r.loop.center == 0)
    got = word_traces([g.outer.matrix, at_zero.matrix])
    want = word_traces([companion(exp_minus(a)), companion(exp_minus(b + [1]))])
    assert len(got) == 84
    bound = TRACE_FACTOR * (g.closure_error + _RTOL * g.scale)
    assert np.max(np.abs(got - want)) <= bound, (a, b, g.closure_error, g.scale)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", range(3))
def test_exponents_in_closed_form(n, seed):
    a, b = draw(n, seed)
    op = hypergeometric(a, b)
    assert validate_fuchsian(op).ok
    conn = build_companion(op)
    assert list(conn.pole_points) == [scalar(0), scalar(1)]
    gamma = sum(b) - sum(a)  # sum(b + [1]) - sum(a) - 1
    want = {0: [1 - v for v in b + [1]],
            1: list(range(n - 1)) + [gamma],
            "infinity": a}
    for point, exps in want.items():
        data = exponent_data(conn, point)
        assert data.complete
        assert sorted(data.eigenvalues, key=lambda s: s.sort_key()) == sorted(
            (scalar(v) for v in exps), key=lambda s: s.sort_key()), point


@pytest.mark.parametrize("n", [3, 4, 5])
def test_genericity_fails_at_one(n):
    """The exponents 0, 1, ..., n - 2 at 1 differ by integers, so the
    table of the three points is refused at point 1, and the witness names
    two of them and their difference."""
    a, b = draw(n, 0)
    conn = build_companion(hypergeometric(a, b))
    table = [list(exponent_data(conn, p).eigenvalues) for p in (0, 1, "infinity")]
    report = genericity_check(table)
    assert not report.passes
    witness = report.witness
    assert witness["kind"] == "integer-difference"
    assert witness["point_index"] == 1
    assert witness["difference"].is_integer()
    i, j = witness["indices"]
    assert table[1][i] - table[1][j] == witness["difference"]


def test_parameter_count_is_checked():
    with pytest.raises(ValueError):
        hypergeometric([Fraction(1, 3), Fraction(1, 5)], [])
