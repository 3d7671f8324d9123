"""Exact scalar arithmetic: sparse multivariate polynomials over the rationals.

A Scalar is a polynomial in a fixed, ordered tuple of parameter names with
rational coefficients.  The representation is canonical:

    terms: sorted tuple of (exponent-vector, coefficient) pairs,
           one exponent per declared parameter, no zero coefficients.

Two Scalars are equal exactly when their parameter lists and term tuples are
identical, so ``a == b`` is the decision procedure for polynomial identity
and ``is_zero`` needs no normalisation step.  An integral coefficient is an
``int``, and any other is a ``fractions.Fraction``, which keeps its value
gcd-reduced with a positive denominator; int arithmetic is far cheaper, and
most coefficients of the frames graded here are integral.

All operations are pure; Scalars are immutable and hashable.

Every operation returns a canonical Scalar, and the fast paths rely on that
invariant of their operands:

- the terms are sorted by strictly descending monomial, so two term tuples
  never tie on a monomial and sort with no key, and a one-term tuple is
  sorted by construction;
- no coefficient is zero, so ``terms == ()`` is zero and a one-term Scalar
  whose monomial is all zeros is a nonzero constant (every Scalar over no
  parameters is zero or such a constant);
- zero is one shared instance per parameter tuple, ``Scalar.zero(params)``
  (held in a bounded cache), and every operation whose result is zero returns
  it, so the zeros that dominate a contraction allocate nothing;
- every coefficient is an ``int`` when it is integral and otherwise a
  ``Fraction`` with denominator > 1, never a ``bool`` or a float, so there is
  one representation of each value.  int arithmetic stays int, and a Fraction
  result is turned back into an int by ``_coeff`` when it is integral;
  ``Fraction(2) == 2`` and ``hash(Fraction(2)) == hash(2)``, so equality and
  hashing do not depend on the rule.

``+``, ``-`` and ``*`` dispatch on the exact type of the other operand:
a Scalar (``other.__class__ is Scalar``) is taken first, and only another
operand goes through ``isinstance(other, (int, Fraction))``, an ABC check,
after which ``*`` scales by it; anything else, a float included, gives
``NotImplemented``, so ``Scalar + 1`` and ``Scalar * 1.5`` raise TypeError.
Between Scalars the parameter lists are compared first, so a mismatch is
raised even when an operand is zero; then zero operands short-circuit, and
one-term operands take a direct path that builds one term: ``*`` of two
one-term Scalars (a factor 1 returns the other operand itself), ``+`` and
``-`` of two, unary ``-`` and ``scale``.  A sum of two Scalars merges their
descending term tuples, so it never sorts.

Sums of products are the contraction kernel ``tables.sum_table``, and
``Scalar.sum_of_products`` for one sum: one live product is a * b, and two
or more are added with ``_accumulate`` into unreduced sums of ints, reduced
once by ``_reduced``.  A one-term constant factor is read once and each term
of its partner adds at the partner's own monomial; the reduce builds the
surviving terms in one pass and sorts them only when two or more survive.

``parse_scalar`` evaluates a coefficient string into one monomial ->
coefficient dict and builds a single Scalar from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add
from typing import Callable, Iterable, Mapping, Union

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
    terms: tuple[tuple[Monomial, RationalLike], ...]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_terms(
        params: tuple[str, ...], mapping: Mapping[Monomial, RationalLike]
    ) -> "Scalar":
        # monomials are distinct dict keys, so the tuple sort never compares
        # coefficients
        ordered = sorted(((m, _coeff(c)) for m, c in mapping.items() if c), reverse=True)
        return Scalar(params, tuple(ordered)) if ordered else Scalar.zero(params)

    @staticmethod
    def sum_of_products(
        params: tuple[str, ...], pairs: Iterable[tuple["Scalar", "Scalar"]]
    ) -> "Scalar":
        """The sum of a * b over the pairs: one live product is a * b, and two
        or more are one ``_accumulate`` sum, reduced once."""
        live = []
        for a, b in pairs:
            if a.params != params or b.params != params:
                raise _mismatch(params, a, b)
            if a.terms and b.terms:
                live.append((a, b))
        if not live:
            return Scalar.zero(params)
        if len(live) == 1:
            a, b = live[0]
            return a * b
        acc = _new_sum(params)
        for a, b in live:
            _accumulate(acc, a, b)
        return _reduced(params, acc)

    @staticmethod
    def constant(params: tuple[str, ...], value: RationalLike) -> "Scalar":
        value = _coeff(value)
        if value == 0:
            return Scalar.zero(params)
        return Scalar(params, (((0,) * len(params), value),))

    @staticmethod
    @lru_cache(maxsize=64)
    def zero(params: tuple[str, ...]) -> "Scalar":
        """The shared zero over ``params``; bounded, so fresh parameter names
        cannot grow the cache without limit."""
        return Scalar(params, ())

    @staticmethod
    def one(params: tuple[str, ...]) -> "Scalar":
        return Scalar.constant(params, 1)

    @staticmethod
    def variable(params: tuple[str, ...], name: str) -> "Scalar":
        if name not in params:
            raise ScalarError(f"unknown parameter {name!r}; declared: {params}")
        mono = tuple(1 if p == name else 0 for p in params)
        return Scalar(params, ((mono, 1),))

    # -- ring operations ---------------------------------------------------

    def _check_params(self, other: "Scalar") -> None:
        if self.params != other.params:
            raise ParameterMismatchError(
                f"parameter lists differ: {self.params} vs {other.params}"
            )

    def __add__(self, other: "Scalar") -> "Scalar":
        if other.__class__ is not Scalar:
            return NotImplemented
        if self.params != other.params:
            self._check_params(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        if len(self.terms) == 1 and len(other.terms) == 1:
            return _binomial(self.params, *self.terms[0], *other.terms[0])
        a, b, out = self.terms, other.terms, []
        i = j = 0
        while i < len(a) and j < len(b):
            (m1, c1), (m2, c2) = a[i], b[j]
            if m1 > m2:
                out.append(a[i])
                i += 1
            elif m2 > m1:
                out.append(b[j])
                j += 1
            else:
                if c := c1 + c2:
                    out.append((m1, _coeff(c)))
                i += 1
                j += 1
        out += a[i:] or b[j:]
        return Scalar(self.params, tuple(out)) if out else Scalar.zero(self.params)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if other.__class__ is not Scalar:
            return NotImplemented
        if self.params != other.params:
            self._check_params(other)
        if not other.terms:
            return self
        if len(self.terms) == 1 and len(other.terms) == 1:
            ((m2, c2),) = other.terms
            return _binomial(self.params, *self.terms[0], m2, -c2)
        return self + (-other)

    def __neg__(self) -> "Scalar":
        if not self.terms:
            return self
        if len(self.terms) == 1:
            ((m, c),) = self.terms
            return Scalar(self.params, ((m, -c),))
        return Scalar(self.params, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: Union["Scalar", RationalLike]) -> "Scalar":
        if other.__class__ is not Scalar:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        if self.params != other.params:
            self._check_params(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        if len(self.terms) == 1 and len(other.terms) == 1:
            (m1, c1), (m2, c2) = self.terms[0], other.terms[0]
            if c2 == 1 and not any(m2):
                return self
            if c1 == 1 and not any(m1):
                return other
            mono = tuple(map(add, m1, m2)) if self.params else m1
            return Scalar(self.params, ((mono, _coeff(c1 * c2)),))
        # a nonzero constant times a Scalar of two or more terms
        if len(other.terms) == 1 and not any(other.terms[0][0]):
            return self._times(other.terms[0][1])
        if len(self.terms) == 1 and not any(self.terms[0][0]):
            return other._times(self.terms[0][1])
        acc: dict = {}
        _accumulate(acc, self, other)
        return _reduced(self.params, acc)

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
            e >>= 1
            if e:
                base = base * base
        return result

    def scale(self, factor: RationalLike) -> "Scalar":
        if not factor:
            return Scalar.zero(self.params)
        return self._times(_coeff(factor))

    def _times(self, factor: RationalLike) -> "Scalar":
        """Multiply by a nonzero canonical coefficient; no term can vanish."""
        if factor == 1 or not self.terms:
            return self
        if len(self.terms) == 1:
            ((m, c),) = self.terms
            return Scalar(self.params, ((m, _coeff(c * factor)),))
        return Scalar(self.params, tuple((m, _coeff(c * factor)) for m, c in self.terms))

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in mono) for mono, _ in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant Scalar; error when any parameter occurs."""
        if not self.is_constant():
            raise ScalarError(f"not a constant: {self}")
        return Fraction(self.terms[0][1]) if self.terms else Fraction(0)

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


# A sum of two or more live products (``Scalar.sum_of_products``,
# ``tables.sum_table``): over no parameters every live operand is a one-term
# constant and the sum is one unreduced [numerator, denominator] list of
# ints; otherwise a dict monomial -> unreduced (numerator, denominator).
Sum = Union[list[int], dict[Monomial, tuple[int, int]]]


def _mismatch(params: tuple[str, ...], a: Scalar, b: Scalar) -> ParameterMismatchError:
    return ParameterMismatchError(f"parameter lists differ: {params} vs {a.params}, {b.params}")


def _new_sum(params: tuple[str, ...]) -> Sum:
    return {} if params else [0, 1]


def _accumulate(acc: Sum, a: Scalar, b: Scalar) -> None:
    """Add a * b of two nonzero Scalars to the sum ``acc``: each pair of terms
    at the sum of their monomials, or, with a one-term constant factor (read
    once, as ``b``), each term of the other factor at its own monomial."""
    if acc.__class__ is list:
        c1, c2 = a.terms[0][1], b.terms[0][1]
        n2, d2 = c1.numerator * c2.numerator, c1.denominator * c2.denominator
        n, d = acc
        if d2 == d:
            acc[0] = n + n2
        else:
            acc[0], acc[1] = n * d2 + n2 * d, d * d2
        return
    get = acc.get
    if len(b.terms) != 1 or any(b.terms[0][0]):
        if len(a.terms) != 1 or any(a.terms[0][0]):
            for m1, c1 in a.terms:
                n1, d1 = c1.numerator, c1.denominator
                for m2, c2 in b.terms:
                    mono = tuple(map(add, m1, m2))
                    n, d = n1 * c2.numerator, d1 * c2.denominator
                    prev = get(mono)
                    if prev is None:
                        acc[mono] = (n, d)
                    elif prev[1] == d:
                        acc[mono] = (prev[0] + n, d)
                    else:
                        acc[mono] = (prev[0] * d + n * prev[1], prev[1] * d)
            return
        a, b = b, a
    c2 = b.terms[0][1]
    n2, d2 = c2.numerator, c2.denominator
    for mono, c1 in a.terms:
        n, d = c1.numerator * n2, c1.denominator * d2
        prev = get(mono)
        if prev is None:
            acc[mono] = (n, d)
        elif prev[1] == d:
            acc[mono] = (prev[0] + n, d)
        else:
            acc[mono] = (prev[0] * d + n * prev[1], prev[1] * d)


def _reduced(params: tuple[str, ...], acc: Sum) -> Scalar:
    """The canonical Scalar of an ``_accumulate`` sum, built in one pass: each
    surviving coefficient reduced once, to an int when the denominator divides
    it, and the terms sorted only when two or more survive."""
    if acc.__class__ is list:
        n, d = acc
        if not n:
            return Scalar.zero(params)
        return Scalar(params, (((), n // d if n % d == 0 else Fraction(n, d)),))
    terms = [(m, n // d if n % d == 0 else Fraction(n, d)) for m, (n, d) in acc.items() if n]
    if not terms:
        return Scalar.zero(params)
    if len(terms) > 1:
        terms.sort(reverse=True)  # distinct monomials: no coefficient is compared
    return Scalar(params, tuple(terms))


def _binomial(
    params: tuple[str, ...], m1: Monomial, c1: RationalLike, m2: Monomial, c2: RationalLike
) -> Scalar:
    """The sum of two nonzero one-term Scalars c1 m1 + c2 m2."""
    if m1 == m2:
        c = c1 + c2
        if not c:
            return Scalar.zero(params)
        return Scalar(params, ((m1, _coeff(c)),))
    pair = ((m1, c1), (m2, c2)) if m1 > m2 else ((m2, c2), (m1, c1))
    return Scalar(params, pair)


def _coeff(value: RationalLike) -> RationalLike:
    """The canonical coefficient of a rational value: an int when integral,
    else a Fraction with denominator > 1."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _frac_str(value: RationalLike) -> str:
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
        q = Fraction(coeff) / lead_coeff
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
#
# Input budgets: an exponent above MAX_EXPONENT, a power that may have more
# than MAX_TERMS terms (refused before it is computed), any parsed
# operation whose result has more than MAX_TERMS terms, and a '(' or unary
# '-' nested more than MAX_DEPTH deep are parse errors, so a hostile
# coefficient can neither burn CPU nor exhaust the recursion limit (each
# level of nesting is a few parser frames).  Every limit sits far above what
# a structure constant needs.

MAX_EXPONENT = 64
MAX_TERMS = 256
MAX_DEPTH = 64

# a parsed value: monomial -> coefficient, with no zero coefficient
Terms = dict[Monomial, RationalLike]


def _add_into(acc: Terms, other: Terms, negate: bool) -> None:
    """acc += other (or acc -= other), dropping the coefficients that cancel."""
    get = acc.get
    for mono, coeff in other.items():
        if negate:
            coeff = -coeff
        prev = get(mono)
        if prev is None:
            acc[mono] = coeff
        elif total := prev + coeff:
            acc[mono] = total
        else:
            del acc[mono]


def _multiply(a: Terms, b: Terms) -> Terms:
    acc: Terms = {}
    get = acc.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(map(add, m1, m2))
            prev = get(mono)
            acc[mono] = c1 * c2 if prev is None else prev + c1 * c2
    return {m: c for m, c in acc.items() if c}


def _power(base: Terms, exponent: int, unit: Monomial) -> Terms:
    result: Terms = {unit: 1}
    while exponent:
        if exponent & 1:
            result = _multiply(result, base)
        exponent >>= 1
        if exponent:
            base = _multiply(base, base)
    return result


def _power_terms_bound(base: Terms, exponent: int) -> int:
    """An upper bound on the number of terms of base ** exponent."""
    n = len(base)
    if exponent == 0 or n <= 1:
        return 1
    k = sum(map(any, zip(*base)))  # the parameters that occur
    degree = max(map(sum, base))
    # multinomial count of term choices, and the count of monomials of
    # bounded total degree in the k parameters that occur
    return min(comb(n + exponent - 1, exponent), comb(exponent * degree + k, k))


@lru_cache(maxsize=64)
def _variable_monomial(params: tuple[str, ...], name: str) -> Monomial:
    """The exponent vector of the parameter ``name``; bounded, like
    ``Scalar.zero``'s cache."""
    return tuple(int(p == name) for p in params)


class _Parser:
    """Recursive descent that evaluates into ``Terms`` dicts, not Scalars.

    Each production returns a fresh dict that its caller owns, so a sum or a
    negation updates it in place; ``parse`` builds the string's one Scalar
    from the final dict.  A dict's length is its Scalar's term count, so the
    budgets are checked where, and read as, they would be on Scalars.
    ``peek`` calls ``skip_ws`` only when the next character is whitespace.
    A product whose left factor is one constant term (``2*t``, ``-3*t^2``)
    scales the right factor's terms, the products ``_multiply`` would form,
    in the same order; a parameter's exponent vector comes from a bounded
    cache.
    """

    def __init__(self, text: str, params: tuple[str, ...]):
        self.text = text
        self.params = params
        self.unit = (0,) * len(params)
        self.pos = 0
        self.depth = 0  # the '(' and unary '-' enclosing the current base

    def error(self, message: str) -> ScalarParseError:
        return ScalarParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        text, pos = self.text, self.pos
        if pos < len(text) and text[pos].isspace():
            self.skip_ws()
            pos = self.pos
        return text[pos] if pos < len(text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Scalar:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected trailing input {self.text[self.pos:]!r}")
        if not value:
            return Scalar.zero(self.params)
        if len(value) == 1:  # most coefficients: no sort
            ((mono, coeff),) = value.items()
            return Scalar(self.params, ((mono, _coeff(coeff)),))
        return Scalar.from_terms(self.params, value)

    def bounded(self, value: Terms) -> Terms:
        if len(value) > MAX_TERMS:
            raise self.error(
                f"expression has {len(value)} terms, more than MAX_TERMS = {MAX_TERMS}"
            )
        return value

    def expr(self) -> Terms:
        value = self.term()
        while True:
            ch = self.peek()
            if ch != "+" and ch != "-":
                return value
            self.pos += 1
            _add_into(value, self.term(), ch == "-")
            self.bounded(value)

    def term(self) -> Terms:
        value = self.factor()
        while self.peek() == "*":
            self.pos += 1
            right = self.factor()
            if len(value) == 1 and self.unit in value:  # a constant scales each term
                c = value[self.unit]
                value = self.bounded({mono: c * coeff for mono, coeff in right.items()})
            else:
                value = self.bounded(_multiply(value, right))
        return value

    def factor(self) -> Terms:
        value = self.base()
        if self.peek() == "^":
            self.pos += 1
            if not self.peek().isdigit():
                raise self.error("expected an unsigned integer exponent after '^'")
            start = self.pos
            exponent = self._integer()
            if exponent > MAX_EXPONENT:
                raise ScalarParseError(f"exponent above MAX_EXPONENT = {MAX_EXPONENT}", start)
            bound = _power_terms_bound(value, exponent)
            if bound > MAX_TERMS:
                raise ScalarParseError(
                    f"power may have up to {bound} terms, more than MAX_TERMS = {MAX_TERMS}",
                    start,
                )
            value = self.bounded(_power(value, exponent, self.unit))
        return value

    def nested(self, parse: Callable[[], Terms]) -> Terms:
        """``parse()`` one level deeper, after the '(' or '-' at ``pos``."""
        if self.depth == MAX_DEPTH:
            raise self.error(f"nesting deeper than MAX_DEPTH = {MAX_DEPTH}")
        self.depth += 1
        self.pos += 1
        value = parse()
        self.depth -= 1
        return value

    def base(self) -> Terms:
        ch = self.peek()
        if ch == "-":
            value = self.nested(self.base)
            for mono, coeff in value.items():
                value[mono] = -coeff
            return value
        if ch == "(":
            value = self.nested(self.expr)
            self.expect(")")
            if self.peek() == "/":
                raise self.error("division is only defined between integer literals")
            return value
        if ch.isdigit():
            num = self._integer()
            if self.peek() == "/":
                self.pos += 1
                if not self.peek().isdigit():
                    raise self.error("expected an integer denominator")
                den = self._integer()
                if den == 0:
                    raise self.error("zero denominator")
                return {self.unit: _coeff(Fraction(num, den))} if num else {}
            return {self.unit: num} if num else {}
        if ch.isalpha() or ch == "_":
            name = self._name()
            if name not in self.params:
                raise self.error(
                    f"unknown parameter {name!r}; declared: {list(self.params)}"
                )
            if self.peek() == "/":
                raise self.error("division is only defined between integer literals")
            return {_variable_monomial(self.params, name): 1}
        raise self.error("expected a number, parameter name, '(' or '-'")

    # _integer and _name start where peek() stopped, after any whitespace

    def _integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # a non-ASCII digit, or more digits than int() converts
            raise ScalarParseError("invalid integer literal", start) from None

    def _name(self) -> str:
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
