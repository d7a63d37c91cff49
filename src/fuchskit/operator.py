"""Data model for scalar Fuchsian operators on the projective line.

An operator of order m is stored by its finite singular points and the
numerator polynomials of its coefficients, under the fixed convention

    w^(m) = sum_{k=1}^{m}  coeffs[k-1] / psi^k * w^(m-k)

where psi is the monic product of (z - point) over real and apparent
points together.  Regularity at infinity holds exactly when
deg coeffs[k-1] <= k*(n + N - 1), with n real and N apparent points.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

from .algebra import (
    MAX_DIGITS,
    AlgebraError,
    DomainError,
    Polynomial,
    Report,
    scalar,
)


def check_order(order) -> int:
    """The order of an operator or family: a positive int, never a bool."""
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise DomainError(f"order must be a positive integer, got {order!r}")
    return order


def json_array(value, what: str) -> tuple:
    """The items of an array (a list or tuple); DomainError for any other
    value, such as a JSON scalar where the input needs an array."""
    if not isinstance(value, (list, tuple)):
        raise DomainError(f"{what} must be an array, got {type(value).__name__}")
    return tuple(value)


def _as_points(pts) -> tuple:
    pts = json_array(pts, "point list")
    try:
        return tuple(scalar(p) for p in pts)
    except (AlgebraError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed number in point list: {exc}") from exc


def as_polynomial(c) -> Polynomial:
    """A Polynomial, or an array of its coefficients from the constant up."""
    if isinstance(c, Polynomial):
        return c
    return Polynomial.from_list(json_array(c, "a polynomial's coefficient list"))


@dataclass(frozen=True)
class FuchsianOperator(Report):
    order: int
    real_points: tuple
    apparent_points: tuple
    coeffs: tuple  # numerator polynomials, index k-1 pairs with psi^k

    def __post_init__(self):
        check_order(self.order)
        object.__setattr__(self, "real_points", _as_points(self.real_points))
        object.__setattr__(self, "apparent_points", _as_points(self.apparent_points))
        coeffs = json_array(self.coeffs, "coeffs")
        try:
            object.__setattr__(self, "coeffs", tuple(as_polynomial(c) for c in coeffs))
        except (AlgebraError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed coefficient: {exc}") from exc
        if len(self.coeffs) != self.order:
            raise DomainError(
                f"order mismatch: order {self.order} needs {self.order} coefficient "
                f"polynomials, got {len(self.coeffs)}")
        pts = self.real_points + self.apparent_points
        if len(set(pts)) != len(pts):
            raise DomainError("points not distinct")

    @property
    def num_real(self) -> int:
        return len(self.real_points)

    @property
    def num_apparent(self) -> int:
        return len(self.apparent_points)

    @property
    def all_points(self) -> tuple:
        return self.real_points + self.apparent_points

    def coeff(self, k: int) -> Polynomial:
        """Numerator polynomial paired with psi^k, 1 <= k <= order."""
        if not 1 <= k <= self.order:
            raise DomainError(f"coefficient index {k} outside 1..{self.order}")
        return self.coeffs[k - 1]

    def __str__(self) -> str:
        pts = ", ".join(str(p) for p in self.real_points) or "no finite points"
        app = ", ".join(str(p) for p in self.apparent_points)
        tail = f"; apparent {app}" if app else ""
        return f"order-{self.order} operator at {pts}{tail}"

    __repr__ = __str__


def psi_all(op: FuchsianOperator) -> Polynomial:
    """Monic product of (z - q) over every listed finite point."""
    return Polynomial.from_roots(op.all_points)


@dataclass(frozen=True)
class DegreeCheck(Report):
    k: int
    observed: int
    allowed: int
    ok: bool


@dataclass(frozen=True)
class ValidationReport(Report):
    # one entry per coefficient, k ascending
    fuchs_degree_ok: tuple
    infinity_regular: bool
    messages: tuple

    @property
    def ok(self) -> bool:
        return self.infinity_regular

    def to_json(self) -> dict:
        return {"ok": self.ok, **super().to_json()}


def validate_fuchsian(op: FuchsianOperator) -> ValidationReport:
    """Check the degree bound deg coeffs[k-1] <= k*(n+N-1) for every k.

    Distinctness of points is already enforced at construction; the report
    only concerns regularity at infinity.
    """
    budget = degree_budget(op.order, op.num_real, op.num_apparent).degrees
    checks = []
    messages = []
    for k, allowed in enumerate(budget, 1):
        observed = op.coeffs[k - 1].degree()
        # the zero polynomial (degree -1) always passes, even when the
        # formal bound is negative (operators with no finite points)
        ok = observed <= allowed or observed < 0
        checks.append(DegreeCheck(k=k, observed=observed, allowed=allowed, ok=ok))
        if not ok:
            messages.append(
                f"coefficient {k}: degree {observed} exceeds bound {allowed}")
    return ValidationReport(fuchs_degree_ok=tuple(checks),
                            infinity_regular=all(c.ok for c in checks),
                            messages=tuple(messages))


@dataclass(frozen=True)
class AccessoryDegrees:
    degrees: tuple  # allowed max degree of coeffs[k-1], k = 1..order
    total: int      # coefficient count over all k


def degree_budget(order: int, num_real: int, num_apparent: int) -> AccessoryDegrees:
    d = num_real + num_apparent - 1
    degrees = tuple(k * d for k in range(1, order + 1))
    total = order + order * (order + 1) * d // 2
    assert total == sum(b + 1 for b in degrees)
    return AccessoryDegrees(degrees=degrees, total=total)


# ---------------------------------------------------------------------------
# parsing


# MAX_DIGITS (`algebra`) bounds a digit string.  A power is refused before
# it is built when e * log2(height of its base) passes the bits of a number
# of that many digits: it could not be printed.
POWER_BITS = int(MAX_DIGITS * math.log2(10))
# Deepest nesting of parentheses and unary signs in an expression.  A level
# of parentheses is six frames of the recursive-descent parser, so at the
# bound a parse stays near 700 frames, inside Python's default limit of 1000.
MAX_NESTING = 100
# json.loads raises RecursionError on well-formed input nested this deep too
_TOO_DEEP = "is nested deeper than the JSON decoder allows"
# Deepest series expansion (`frobenius`).  The expansion and the oracle's
# recursion on it cost O(N^2) in the depth N; the tests, goldens and
# benchmark need N <= 10.
MAX_TRUNCATION = 100
# Largest sum(plan) of a confluent Vandermonde matrix (`moduli`).  The jet
# matrix is sum(plan) square, and its exact elimination costs about the cube
# of that size in ever longer fractions.
MAX_JET_SIZE = 64
# Default tolerances of numeric transport: `monodromy` and the CLI's flags.
_RTOL = 1e-11
_ATOL = 1e-13

_TOKEN = re.compile(r"\s*(\d+|psi|[A-Za-z_]+|\*\*|[()^*/+\-,:=']|\S)")


def _int_token(tok: str, what: str) -> int:
    if len(tok) > MAX_DIGITS:
        raise DomainError(f"{what} of {len(tok)} digits exceeds the bound of "
                          f"{MAX_DIGITS} digits")
    return int(tok)


def _tokenize(s: str) -> list:
    return ["^" if tok == "**" else tok for tok in _TOKEN.findall(s)]


class _ExprParser:
    """Recursive-descent parser over the tokens of one line of the text form.

    A value is a pair (p, k): the polynomial p in z over Q(i), divided by
    psi^k.  Grammar: sums/differences of products, '^' for powers, '/' only
    by a nonzero constant or by psi, unary signs, parentheses; no implicit
    products.  psi is only a divisor, '/psi' or '/psi^k': '*' adds the
    powers of psi, '^e' multiplies them by e, and a sum refuses summands
    with different powers.  A power of degree above `max_degree`, or past
    POWER_BITS, is refused before it is built, and so is nesting deeper
    than MAX_NESTING.
    """

    def __init__(self, tokens, max_degree: int | None = None):
        self.toks = tokens
        self.pos = 0
        self.max_degree = max_degree
        self.depth = 0

    def nested(self, parse):
        """parse() one level deeper in parentheses or unary signs."""
        if self.depth >= MAX_NESTING:
            raise DomainError(f"expression nests parentheses and signs deeper "
                              f"than the bound of {MAX_NESTING}")
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise DomainError(f"expected {tok!r}, got {got!r}")

    def primes(self) -> int:
        n = 0
        while self.peek() == "'":
            self.take()
            n += 1
        return n

    def exponent(self, what: str) -> int:
        """The nonnegative integer after a '^'."""
        self.take()
        e = self.take()
        if e is None or not e.isdigit():
            raise DomainError(f"exponent must be a nonnegative integer, got {e!r}")
        return _int_token(e, what)

    def polynomial(self) -> Polynomial:
        """An expression without psi."""
        num, k = self.expr()
        if k:
            raise DomainError("psi may appear only in the equation line")
        return num

    def wterm(self) -> tuple:
        """A term of the equation's right side, a product then w and its
        primes, as (numerator, power of psi, primes)."""
        if self.peek() is None:
            raise DomainError("empty term at the end of the right side")
        num, k = self.term()
        tok = self.take()
        if tok != "w":
            raise DomainError("unbalanced parentheses: ')' closes nothing" if tok == ")"
                              else f"expected w after a coefficient, got {tok!r}")
        return num, k, self.primes()

    def expr(self) -> tuple:
        num, k = self.term()
        while self.peek() in ("+", "-"):
            sign = self.take()
            other, j = self.term()
            if j != k:
                raise DomainError(f"a sum of terms over psi^{k} and psi^{j}; "
                                  f"a sum takes one power of psi")
            num = num + other if sign == "+" else num - other
        return num, k

    def term(self) -> tuple:
        num, k = self.unary()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                if self.peek() == "w":  # an optional '*' before w ends the product
                    break
                other, j = self.unary()
                num, k = num * other, k + j
            elif self.peek() == "psi":
                self.take()
                k += self.exponent("psi power") if self.peek() == "^" else 1
            else:
                d, j = self.unary()
                if j or d.degree() != 0:
                    raise DomainError("division only by a nonzero constant or by psi")
                num = num * Polynomial.constant(scalar(1) / d.coeff(0))
        return num, k

    def unary(self) -> tuple:
        if self.peek() in ("-", "+"):
            sign = self.take()
            num, k = self.nested(self.unary)
            return (-num if sign == "-" else num), k
        return self.power()

    def power(self) -> tuple:
        base, k = self.atom()
        if self.peek() != "^":
            return base, k
        e, bound = self.exponent("exponent"), self.max_degree
        if bound is not None and base.degree() * e > max(bound, 0):
            raise DomainError(f"power of degree {base.degree() * e} exceeds "
                              f"the degree bound {bound}")
        height = max(map(abs, base.re + base.im + (base.den,)))
        if height > 1 and (e > POWER_BITS or e * math.log2(height) > POWER_BITS):
            raise DomainError(f"power {e} of a base of {height.bit_length()} bits exceeds "
                              f"the bound of {POWER_BITS} bits on e * log2(base height)")
        return base ** e, k * e

    def atom(self) -> tuple:
        tok = self.take()
        if tok is None:
            raise DomainError("unexpected end of expression")
        if tok == "(":
            inner = self.nested(self.expr)
            got = self.take()
            if got != ")":
                raise DomainError(f"unbalanced parentheses: expected ')', got {got!r}")
            return inner
        if tok.isdigit():
            return Polynomial.constant(_int_token(tok, "constant")), 0
        if tok == "i":
            return Polynomial.constant(scalar({"re": "0", "im": "1"})), 0
        if tok == "z":
            return Polynomial.x(), 0
        if tok == "psi":
            raise DomainError("psi may appear only as a divisor, /psi or /psi^k")
        raise DomainError(f"unexpected token {tok!r} in expression")


def parse_poly_expr(text: str, max_degree: int | None = None) -> Polynomial:
    """Parse an expression like '1/2 + 3*z - z^2' or '(1+i)*z'.  With
    `max_degree`, a non-constant power of higher degree is refused."""
    p = _ExprParser(_tokenize(text), max_degree)
    out = p.polynomial()
    if p.peek() is not None:
        raise DomainError(f"trailing input {p.peek()!r} in expression {text!r}")
    return out


def _parse_points(toks) -> list:
    """Numbers separated by commas; an empty entry is skipped."""
    p = _ExprParser(toks, 0)
    out = []
    while p.peek() is not None:
        if p.peek() != ",":
            num = p.polynomial()
            if num.degree() > 0:
                raise DomainError(f"expected a number, got polynomial {num}")
            out.append(num.coeff(0))
        if p.peek() is not None:
            p.expect(",")
    return out


def _parse_equation(toks, num_points: int) -> tuple:
    """The order and the coefficient numerators of the equation's tokens."""
    p = _ExprParser(toks)
    p.expect("w")
    order = p.primes()
    if not order or p.take() != "=":
        raise DomainError("left side must be w with primes, then '='")
    if order > 3:
        raise DomainError("text form supports order <= 3; use the JSON form")
    # a cost guard only: a coefficient past its own term's Fuchs bound but
    # within the equation's largest is reported by validate_fuchsian
    p.max_degree = degree_budget(order, num_points, 0).degrees[-1]
    coeffs = {}
    sign = "+" if p.toks[p.pos:] != ["0"] else None
    while sign is not None:
        num, k, primes = p.wterm()
        if not 0 < k == order - primes:
            raise DomainError(f"psi power {k} does not match derivative order "
                              f"{primes} in an equation of order {order}")
        if k in coeffs:
            raise DomainError(f"duplicate term for psi^{k}")
        coeffs[k] = num if sign == "+" else -num
        sign = p.take()
        if sign not in ("+", "-", None):
            raise DomainError(f"expected + or - between terms, got {sign!r}")
    return order, tuple(coeffs.get(k, Polynomial.zero()) for k in range(1, order + 1))


def _parse_text(text: str) -> FuchsianOperator:
    points = {"points": [], "apparent": []}
    equation = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        toks = _tokenize(line)
        if not toks:
            continue
        if toks[0].lower() in points and toks[1:2] == [":"]:
            points[toks[0].lower()] = _parse_points(toks[2:])
        elif toks[0] == "w":
            if equation is not None:
                raise DomainError("more than one equation line")
            equation = toks
        else:
            raise DomainError(f"unrecognized line {line!r}")
    if equation is None:
        raise DomainError("no equation line found")
    real, apparent = points["points"], points["apparent"]
    order, coeffs = _parse_equation(equation, len(real) + len(apparent))
    return FuchsianOperator(order=order, real_points=tuple(real),
                            apparent_points=tuple(apparent), coeffs=coeffs)


def _parse_json_doc(doc: Mapping) -> FuchsianOperator:
    for key in ("order", "real_points", "coeffs"):
        if key not in doc:
            raise DomainError(f"missing key {key!r}")
    return FuchsianOperator(order=doc["order"],
                            real_points=doc["real_points"],
                            apparent_points=doc.get("apparent_points", ()),
                            coeffs=doc["coeffs"])


def parse_operator(doc: Union[str, Mapping]) -> FuchsianOperator:
    """Parse an operator from a JSON document (dict or string) or, for
    order <= 3, from the plain-text equation form, e.g.

        points: 0, 1
        w'' = (z+1)/psi w' + (-1/2)/psi^2 w
    """
    if isinstance(doc, Mapping):
        return _parse_json_doc(doc)
    if not isinstance(doc, str):
        raise DomainError(f"cannot parse {type(doc).__name__} as an operator")
    stripped = doc.strip()
    if stripped.startswith("{"):
        try:
            loaded = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad JSON: {exc}") from exc
        except RecursionError as exc:
            raise DomainError(f"bad JSON: input {_TOO_DEEP}") from exc
        return _parse_json_doc(loaded)
    return _parse_text(doc)


def operator_to_text(op: FuchsianOperator) -> str:
    """Plain-text form; round-trips through parse_operator when every
    coefficient is within its degree bound.  Order <= 3 only."""
    if op.order > 3:
        raise DomainError("text form supports order <= 3")
    lines = []
    if op.real_points:
        lines.append("points: " + ", ".join(str(p) for p in op.real_points))
    if op.apparent_points:
        lines.append("apparent: " + ", ".join(str(p) for p in op.apparent_points))
    lhs = "w" + "'" * op.order
    terms = []
    for k in range(1, op.order + 1):
        c = op.coeffs[k - 1]
        if c.is_zero():
            continue
        pw = "psi" if k == 1 else f"psi^{k}"
        terms.append(f"({c})/{pw} w" + "'" * (op.order - k))
    rhs = " + ".join(terms) if terms else "0"
    lines.append(f"{lhs} = {rhs}")
    return "\n".join(lines)
