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
    AlgebraError,
    GaussianRational,
    Polynomial,
    Report,
    scalar,
)


class DomainError(ValueError):
    """Invalid operator data or an operation outside its domain."""


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
    budget = op.num_real + op.num_apparent - 1
    checks = []
    messages = []
    for k in range(1, op.order + 1):
        observed = op.coeffs[k - 1].degree()
        allowed = k * budget
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


# Python's default digit limit for converting between int and text.  A
# longer digit string is refused before `int()` would raise on it, and a
# power is refused before it is built when e * log2(height of its base)
# passes the bits of a number of that many digits: it could not be printed.
MAX_DIGITS = 4300
POWER_BITS = int(MAX_DIGITS * math.log2(10))
# Deepest nesting of parentheses and unary signs in an expression.  A level
# of parentheses is six frames of the recursive-descent parser, so at the
# bound a parse stays near 700 frames, inside Python's default limit of 1000.
MAX_NESTING = 100
# json.loads raises RecursionError on well-formed input nested this deep too
_TOO_DEEP = "is nested deeper than the JSON decoder allows"

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]+|\*\*|[()^*/+\-,:=']|\S)")


def _int_token(tok: str, what: str) -> int:
    if len(tok) > MAX_DIGITS:
        raise DomainError(f"{what} of {len(tok)} digits exceeds the bound of "
                          f"{MAX_DIGITS} digits")
    return int(tok)


def _tokenize(s: str):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if m is None:
            break
        tok = m.group(1)
        if tok == "**":
            tok = "^"
        out.append(tok)
        pos = m.end()
    return out


class _ExprParser:
    """Recursive-descent parser for polynomial expressions in z over Q(i).

    Grammar: sums/differences of products, '^' for powers, '/' only by a
    nonzero constant, unary minus, parentheses.  No implicit products.  A
    power of degree above `max_degree`, or past POWER_BITS, is refused
    before it is built, and so is nesting deeper than MAX_NESTING.
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

    def expr(self) -> Polynomial:
        out = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                out = out + self.term()
            else:
                out = out - self.term()
        return out

    def term(self) -> Polynomial:
        out = self.unary()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                out = out * self.unary()
            else:
                d = self.unary()
                if d.degree() != 0:
                    raise DomainError("division only by a nonzero constant")
                out = out * Polynomial.constant(scalar(1) / d.coeff(0))
        return out

    def unary(self) -> Polynomial:
        if self.peek() == "-":
            self.take()
            return Polynomial.zero() - self.nested(self.unary)
        if self.peek() == "+":
            self.take()
            return self.nested(self.unary)
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if e is None or not e.isdigit():
                raise DomainError(f"exponent must be a nonnegative integer, got {e!r}")
            e, bound = _int_token(e, "exponent"), self.max_degree
            if bound is not None and base.degree() * e > max(bound, 0):
                raise DomainError(f"power of degree {base.degree() * e} exceeds "
                                  f"the degree bound {bound}")
            height = max(map(abs, base.re + base.im + (base.den,)))
            if height > 1 and (e > POWER_BITS or e * math.log2(height) > POWER_BITS):
                raise DomainError(f"power {e} of a base of {height.bit_length()} bits exceeds "
                                  f"the bound of {POWER_BITS} bits on e * log2(base height)")
            return base ** e
        return base

    def atom(self) -> Polynomial:
        tok = self.take()
        if tok is None:
            raise DomainError("unexpected end of expression")
        if tok.isdigit():
            return Polynomial.constant(_int_token(tok, "constant"))
        if tok == "i":
            return Polynomial.constant(scalar({"re": "0", "im": "1"}))
        if tok == "z":
            return Polynomial.x()
        if tok == "(":
            inner = self.nested(self.expr)
            self.expect(")")
            return inner
        raise DomainError(f"unexpected token {tok!r} in expression")


def parse_poly_expr(text: str, max_degree: int | None = None) -> Polynomial:
    """Parse an expression like '1/2 + 3*z - z^2' or '(1+i)*z'.  With
    `max_degree`, a non-constant power of higher degree is refused."""
    p = _ExprParser(_tokenize(text), max_degree)
    out = p.expr()
    if p.peek() is not None:
        raise DomainError(f"trailing input {p.peek()!r} in expression {text!r}")
    return out


def _parse_scalar_expr(text: str) -> GaussianRational:
    p = parse_poly_expr(text, 0)
    if p.degree() > 0:
        raise DomainError(f"expected a number, got polynomial {text!r}")
    return p.coeff(0)


_EQ_LHS = re.compile(r"^\s*w\s*('+)\s*$")
_TERM_TAIL = re.compile(r"^\s*(?:(?:\^|\*\*)\s*(\d+))?\s*(\))?\s*\*?\s*w\s*('*)\s*$")


def _split_top_level(s: str, seps: str):
    """Split on separator chars at paren depth 0 that follow an operand,
    so a sign after an operator or '(' stays a unary sign of its term;
    keeps separators out."""
    parts, signs, depth, start, last = [], [], 0, 0, "("
    for idx, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in seps and depth == 0 and last not in "+-*/^(":
            parts.append(s[start:idx])
            signs.append(ch)
            start = idx + 1
        if not ch.isspace():
            last = ch
    parts.append(s[start:])
    return parts, signs


def _parse_equation(line: str, real_points, apparent_points) -> FuchsianOperator:
    lhs, _, rhs = line.partition("=")
    m_lhs = _EQ_LHS.match(lhs)
    if not m_lhs:
        raise DomainError(f"left side must be w with primes, got {lhs.strip()!r}")
    order = len(m_lhs.group(1))
    if order > 3:
        raise DomainError("text form supports order <= 3; use the JSON form")
    rhs = rhs.strip()
    coeffs = {k: Polynomial.zero() for k in range(1, order + 1)}
    if rhs != "0":
        chunks, seps = _split_top_level(rhs, "+-")
        signs = [1] + [(-1 if s == "-" else 1) for s in seps]
        for sign, chunk in zip(signs, chunks):
            if not chunk.strip():
                raise DomainError(f"empty term in {rhs!r}")
            hit = re.search(r"/\s*psi", chunk)
            if hit is None:
                raise DomainError(f"term {chunk.strip()!r} lacks a /psi factor")
            num_part = chunk[:hit.start()]
            tail = _TERM_TAIL.match(chunk[hit.end():])
            if tail is None:
                raise DomainError(f"cannot parse term {chunk.strip()!r}")
            k = _int_token(tail.group(1), "psi power") if tail.group(1) else 1
            # a ) before w closes the numerator: 2*(z/psi) reads as 2*(z)/psi
            if tail.group(2) == ")":
                num_part += ")"
                if num_part.count("(") != num_part.count(")"):
                    raise DomainError(f"unbalanced parentheses in {chunk.strip()!r}")
            primes = len(tail.group(3))
            if k != order - primes:
                raise DomainError(
                    f"term {chunk.strip()!r}: psi power {k} does not match "
                    f"derivative order {primes} (need power {order - primes})")
            if not coeffs[k].is_zero():
                raise DomainError(f"duplicate term for psi^{k}")
            # the Fuchs degree bound of the term, so that z^N stays cheap
            bound = k * (len(real_points) + len(apparent_points) - 1)
            num = parse_poly_expr(num_part, bound)
            coeffs[k] = num if sign == 1 else Polynomial.zero() - num
    return FuchsianOperator(order=order,
                            real_points=tuple(real_points),
                            apparent_points=tuple(apparent_points),
                            coeffs=tuple(coeffs[k] for k in range(1, order + 1)))


def _parse_text(text: str) -> FuchsianOperator:
    real_points = []
    apparent_points = []
    equation = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("points"):
            _, _, rest = line.partition(":")
            real_points = [_parse_scalar_expr(c) for c in rest.split(",") if c.strip()]
        elif line.lower().startswith("apparent"):
            _, _, rest = line.partition(":")
            apparent_points = [_parse_scalar_expr(c) for c in rest.split(",") if c.strip()]
        elif line.startswith("w"):
            if equation is not None:
                raise DomainError("more than one equation line")
            equation = line
        else:
            raise DomainError(f"unrecognized line {line!r}")
    if equation is None:
        raise DomainError("no equation line found")
    return _parse_equation(equation, real_points, apparent_points)


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
