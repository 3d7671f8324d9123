"""Exact scalar arithmetic: sparse multivariate polynomials over the rationals.

A Scalar is a polynomial in a fixed, ordered tuple of parameter names with
Fraction coefficients.  The representation is canonical:

    terms: sorted tuple of (exponent-vector, coefficient) pairs,
           one exponent per declared parameter, no zero coefficients.

Two Scalars are equal exactly when their parameter lists and term tuples are
identical, so ``a == b`` is the decision procedure for polynomial identity
and ``is_zero`` needs no normalisation step.  Coefficients use
``fractions.Fraction``, which keeps every value gcd-reduced with a positive
denominator.

All operations are pure; Scalars are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

Monomial = tuple[int, ...]
RationalLike = Union[Fraction, int]


class ScalarError(Exception):
    """Base class for scalar-domain failures."""


class ParameterMismatchError(ScalarError):
    """Raised when combining Scalars declared over different parameter lists."""


class ScalarParseError(ScalarError):
    """Syntax or semantic error while parsing a scalar expression.

    Carries the offset of the offending token in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IncompleteAssignmentError(ScalarError):
    """Raised by substitute() when a parameter that occurs has no value."""

    def __init__(self, missing: tuple[str, ...]):
        super().__init__(f"no value assigned for parameter(s): {', '.join(missing)}")
        self.missing = missing


@dataclass(frozen=True)
class Scalar:
    """Canonical sparse polynomial over a declared parameter tuple."""

    params: tuple[str, ...]
    terms: tuple[tuple[Monomial, Fraction], ...]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_terms(params: tuple[str, ...], mapping: Mapping[Monomial, Fraction]) -> "Scalar":
        nonzero = {m: Fraction(c) for m, c in mapping.items() if c != 0}
        ordered = tuple(sorted(nonzero.items(), key=lambda kv: kv[0], reverse=True))
        return Scalar(params, ordered)

    @staticmethod
    def constant(params: tuple[str, ...], value: RationalLike) -> "Scalar":
        value = Fraction(value)
        if value == 0:
            return Scalar(params, ())
        return Scalar(params, (((0,) * len(params), value),))

    @staticmethod
    def zero(params: tuple[str, ...]) -> "Scalar":
        return Scalar(params, ())

    @staticmethod
    def one(params: tuple[str, ...]) -> "Scalar":
        return Scalar.constant(params, 1)

    @staticmethod
    def variable(params: tuple[str, ...], name: str) -> "Scalar":
        if name not in params:
            raise ScalarError(f"unknown parameter {name!r}; declared: {params}")
        mono = tuple(1 if p == name else 0 for p in params)
        return Scalar(params, ((mono, Fraction(1)),))

    # -- ring operations ---------------------------------------------------

    def _check_params(self, other: "Scalar") -> None:
        if self.params != other.params:
            raise ParameterMismatchError(
                f"parameter lists differ: {self.params} vs {other.params}"
            )

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check_params(other)
        acc = dict(self.terms)
        for mono, coeff in other.terms:
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
        return Scalar.from_terms(self.params, acc)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar(self.params, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: Union["Scalar", RationalLike]) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check_params(other)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc[mono] = acc.get(mono, Fraction(0)) + c1 * c2
        return Scalar.from_terms(self.params, acc)

    def __rmul__(self, other: RationalLike) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int) or exponent < 0:
            raise ScalarError("exponent must be a non-negative integer")
        result = Scalar.one(self.params)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, factor: RationalLike) -> "Scalar":
        factor = Fraction(factor)
        if factor == 0:
            return Scalar.zero(self.params)
        return Scalar(self.params, tuple((m, c * factor) for m, c in self.terms))

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in mono) for mono, _ in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant Scalar; error when any parameter occurs."""
        if not self.is_constant():
            raise ScalarError(f"not a constant: {self}")
        return self.terms[0][1] if self.terms else Fraction(0)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(mono) for mono, _ in self.terms)

    def appearing_parameters(self) -> tuple[str, ...]:
        seen = [False] * len(self.params)
        for mono, _ in self.terms:
            for idx, e in enumerate(mono):
                if e:
                    seen[idx] = True
        return tuple(p for p, s in zip(self.params, seen) if s)

    def substitute(self, assignment: Mapping[str, RationalLike]) -> Fraction:
        """Evaluate at a rational point.

        Every parameter that actually occurs must be assigned; parameters
        that are declared but absent from the polynomial may be omitted.
        """
        missing = tuple(p for p in self.appearing_parameters() if p not in assignment)
        if missing:
            raise IncompleteAssignmentError(missing)
        total = Fraction(0)
        for mono, coeff in self.terms:
            value = coeff
            for idx, e in enumerate(mono):
                if e:
                    value *= Fraction(assignment[self.params[idx]]) ** e
            total += value
        return total

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[tuple[str, str]] = []
        for mono, coeff in self.terms:
            factors: list[str] = []
            for name, e in zip(self.params, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = _frac_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_frac_str(mag)] + factors)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        if first_sign == "-" and "^" in first_body.split("*", 1)[0]:
            # a leading unary minus binds the first factor only, so "-x^2"
            # would read back as (-x)^2; spell the coefficient out instead
            first_body = "1*" + first_body
        out = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += sign + body
        return out

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r}, params={self.params})"


def _frac_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def exact_div(numerator: Scalar, divisor: Scalar) -> Scalar | None:
    """Exact polynomial division; None when the quotient is not polynomial."""
    numerator._check_params(divisor)
    if divisor.is_zero():
        raise ScalarError("division by the zero scalar")
    if divisor.is_constant():
        return numerator.scale(Fraction(1) / divisor.constant_value())
    quotient: dict[Monomial, Fraction] = {}
    rem = dict(numerator.terms)
    lead_mono, lead_coeff = divisor.terms[0]
    while rem:
        mono = max(rem)
        coeff = rem[mono]
        diff = tuple(a - b for a, b in zip(mono, lead_mono))
        if any(e < 0 for e in diff):
            return None
        q = coeff / lead_coeff
        quotient[diff] = quotient.get(diff, Fraction(0)) + q
        for dmono, dcoeff in divisor.terms:
            target = tuple(a + b for a, b in zip(diff, dmono))
            new = rem.get(target, Fraction(0)) - q * dcoeff
            if new == 0:
                rem.pop(target, None)
            else:
                rem[target] = new
    return Scalar.from_terms(numerator.params, quotient)


# -- parsing -----------------------------------------------------------------
#
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := base ('^' uint)?
#   base   := int | int '/' int | name | '(' expr ')' | '-' base


class _Parser:
    def __init__(self, text: str, params: tuple[str, ...]):
        self.text = text
        self.params = params
        self.pos = 0

    def error(self, message: str) -> ScalarParseError:
        return ScalarParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Scalar:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected trailing input {self.text[self.pos:]!r}")
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> Scalar:
        value = self.factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.factor()
        return value

    def factor(self) -> Scalar:
        value = self.base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if start == self.pos:
                raise self.error("expected an unsigned integer exponent after '^'")
            value = value ** int(self.text[start:self.pos])
        return value

    def base(self) -> Scalar:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return -self.base()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            self.expect(")")
            if self.peek() == "/":
                raise self.error("division is only defined between integer literals")
            return value
        if ch.isdigit():
            num = self._integer()
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                if not self.peek().isdigit():
                    raise self.error("expected an integer denominator")
                den = self._integer()
                if den == 0:
                    raise self.error("zero denominator")
                return Scalar.constant(self.params, Fraction(num, den))
            return Scalar.constant(self.params, num)
        if ch.isalpha() or ch == "_":
            name = self._name()
            if name not in self.params:
                raise self.error(
                    f"unknown parameter {name!r}; declared: {list(self.params)}"
                )
            if self.peek() == "/":
                raise self.error("division is only defined between integer literals")
            return Scalar.variable(self.params, name)
        raise self.error("expected a number, parameter name, '(' or '-'")

    def _integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def _name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]


def parse_scalar(text: str, params: Iterable[str]) -> Scalar:
    """Parse an expression over the declared parameters.

    Division is only defined between integer literals; ``x/2`` and
    ``1/(1+x)`` are rejected.  The printed form of any Scalar parses back to
    the same Scalar.
    """
    return _Parser(text, tuple(params)).parse()
