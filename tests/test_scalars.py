"""Exact scalar algebra: ring axioms, evaluation homomorphism, grammar."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contactframe.scalars import (
    IncompleteAssignmentError,
    ParameterMismatchError,
    Scalar,
    ScalarError,
    ScalarParseError,
    exact_div,
    parse_scalar,
)

PARAMS = ("x", "y")

coeffs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
monomials = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def scalars(draw):
    terms = draw(st.dictionaries(monomials, coeffs, max_size=5))
    out = Scalar.zero(PARAMS)
    for (ex, ey), coeff in terms.items():
        term = Scalar.constant(PARAMS, coeff)
        term = term * Scalar.variable(PARAMS, "x") ** ex
        term = term * Scalar.variable(PARAMS, "y") ** ey
        out = out + term
    return out


points = st.tuples(
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7),
)

HUNDRED = settings(max_examples=100, deadline=None)


@HUNDRED
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    zero, one = Scalar.zero(PARAMS), Scalar.one(PARAMS)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a
    assert (a - a).is_zero()
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a
    assert a * zero == zero
    assert a * (b + c) == a * b + a * c
    assert -(-a) == a


@HUNDRED
@given(scalars(), scalars(), points)
def test_substitute_is_a_homomorphism(a, b, point):
    assignment = {"x": point[0], "y": point[1]}
    assert (a + b).substitute(assignment) == a.substitute(assignment) + b.substitute(
        assignment
    )
    assert (a * b).substitute(assignment) == a.substitute(assignment) * b.substitute(
        assignment
    )
    assert (-a).substitute(assignment) == -a.substitute(assignment)


@HUNDRED
@given(scalars())
def test_parse_of_print_roundtrips(a):
    assert parse_scalar(str(a), PARAMS) == a


def test_canonical_form_deduplicates():
    x = Scalar.variable(PARAMS, "x")
    a = x + x - x
    assert a == x
    assert (x - x).terms == ()


def test_printer_unary_minus_power():
    params = ("lambda",)
    lam = Scalar.variable(params, "lambda")
    assert str(-(lam * lam)) == "-1*lambda^2"
    assert str(Scalar.one(params) - lam * lam) == "-1*lambda^2+1"
    assert parse_scalar("-1*lambda^2", params) == -(lam * lam)
    # unary minus binds inside the base, so the exponent applies afterwards:
    # "-lambda^2" is (-lambda)^2; the printer emits "-1*lambda^2" to stay
    # unambiguous, and that form round-trips
    assert parse_scalar("-lambda^2", params) == lam * lam


def test_parse_grammar_forms():
    params = ("kappa",)
    k = Scalar.variable(params, "kappa")
    one = Scalar.one(params)
    assert parse_scalar("2*kappa^2 - 3/4", params) == (
        Scalar.constant(params, 2) * k * k - Scalar.constant(params, Fraction(3, 4))
    )
    assert parse_scalar("(1+kappa)*(1-kappa)", params) == one - k * k
    assert parse_scalar("-(1-kappa)", params) == k - one
    assert parse_scalar("1/2", params) == Scalar.constant(params, Fraction(1, 2))


def test_parse_rejections():
    with pytest.raises(ScalarParseError):
        parse_scalar("1 +", ("x",))
    with pytest.raises(ScalarParseError):
        parse_scalar("x^-1", ("x",))
    with pytest.raises(ScalarParseError):
        parse_scalar("y", ("x",))
    with pytest.raises(ScalarParseError):
        parse_scalar("", ("x",))


def test_substitute_requires_appearing_parameters():
    params = ("x", "y")
    a = Scalar.variable(params, "x")
    with pytest.raises(IncompleteAssignmentError):
        a.substitute({"y": 1})
    # y is declared but absent from the polynomial, so it may be omitted
    assert a.substitute({"x": Fraction(1, 2)}) == Fraction(1, 2)


def test_exact_div():
    params = ("t",)
    t = Scalar.variable(params, "t")
    one = Scalar.one(params)
    num = t * t - one
    assert exact_div(num, t - one) == t + one
    assert exact_div(num, t + one) == t - one
    assert exact_div(one, t) is None
    with pytest.raises(ScalarError):
        exact_div(one, Scalar.zero(params))


def test_parameter_mismatch_is_rejected():
    a = Scalar.variable(("x",), "x")
    b = Scalar.variable(("y",), "y")
    with pytest.raises(ScalarError):
        _ = a + b


# -- kernel laws: canonical results and the fused sum of products ------------------


def assert_canonical(s: Scalar) -> None:
    """Strictly descending monomials, no zero coefficient, and one
    representation per value: an int when integral (never a bool), else a
    Fraction with denominator > 1.  A zero is the shared instance."""
    monos = [mono for mono, _ in s.terms]
    assert all(a > b for a, b in zip(monos, monos[1:])), s.terms
    for mono, coeff in s.terms:
        assert len(mono) == len(s.params)
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)
        assert coeff != 0
    if not s.terms:
        assert s is Scalar.zero(s.params)


raw_coeffs = st.one_of(st.integers(-5, 5), coeffs)


@HUNDRED
@given(st.lists(st.tuples(scalars(), scalars()), max_size=4))
def test_sum_of_products_is_the_left_fold(pairs):
    fold = Scalar.zero(PARAMS)
    for a, b in pairs:
        fold = fold + a * b
    fused = Scalar.sum_of_products(PARAMS, pairs)
    assert fused == fold
    assert_canonical(fused)


constants = raw_coeffs.map(lambda c: Scalar.constant((), c))


@HUNDRED
@given(st.lists(st.tuples(constants, constants), max_size=6), st.booleans())
def test_parameterless_sum_of_products_is_the_left_fold(pairs, cancel):
    """Over no parameters the live products are summed in one (numerator,
    denominator) pair; with ``cancel`` every product meets its negation."""
    if cancel:
        pairs = pairs + [(-a, b) for a, b in pairs]
    fold = Scalar.zero(())
    for a, b in pairs:
        fold = fold + a * b
    fused = Scalar.sum_of_products((), pairs)
    assert fused == fold
    assert_canonical(fused)
    if cancel:
        assert fused is Scalar.zero(())


@HUNDRED
@given(scalars(), scalars(), raw_coeffs)
def test_operations_return_canonical_scalars(a, b, factor):
    for result in (a + b, a - b, b - a, a * b, -a, a.scale(factor), a * factor, factor * a):
        assert_canonical(result)


@HUNDRED
@given(st.dictionaries(monomials, raw_coeffs, max_size=6))
def test_from_terms_canonicalises_int_and_fraction_inputs(mapping):
    s = Scalar.from_terms(PARAMS, mapping)
    assert_canonical(s)
    assert dict(s.terms) == {m: Fraction(c) for m, c in mapping.items() if c != 0}


@pytest.mark.parametrize("op", ["add", "sub", "mul", "sum_of_products"])
def test_parameter_mismatch_is_raised_with_a_zero_operand(op):
    x = Scalar.variable(("x",), "x")
    zero_y = Scalar.zero(("y",))
    apply = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "sum_of_products": lambda a, b: Scalar.sum_of_products(("x",), [(a, b)]),
    }[op]
    for a, b in ((x, zero_y), (zero_y, x), (Scalar.zero(("x",)), zero_y)):
        with pytest.raises(ParameterMismatchError):
            apply(a, b)


@HUNDRED
@given(scalars(), st.lists(st.tuples(scalars(), scalars()), max_size=3))
def test_every_zero_is_the_shared_instance(a, pairs):
    zero = Scalar.zero(PARAMS)
    assert zero.terms == () and Scalar.zero(("x", "y")) is zero
    cancelling = pairs + [(-p, q) for p, q in pairs] + [(a, zero)]
    for result in (
        a - a,
        a + (-a),
        a * zero,
        zero * a,
        a * 0,
        a.scale(0),
        -zero,
        zero.scale(Fraction(3, 2)),
        Scalar.sum_of_products(PARAMS, cancelling),
        Scalar.sum_of_products(PARAMS, []),
        Scalar.from_terms(PARAMS, {}),
        Scalar.from_terms(PARAMS, {(1, 0): 0, (0, 2): Fraction(0)}),
        Scalar.constant(PARAMS, 0),
    ):
        assert result is zero


def test_integral_coefficients_are_ints():
    x = Scalar.variable(PARAMS, "x")
    half = Scalar.constant(PARAMS, Fraction(1, 2))
    for s in (
        Scalar.constant(PARAMS, Fraction(4, 2)),
        Scalar.constant(PARAMS, True),
        (half + half) * x,
        (half * x).scale(2),
        half * x * Scalar.constant(PARAMS, 4),
        Scalar.from_terms(PARAMS, {(1, 0): Fraction(6, 3), (0, 0): True}),
        Scalar.sum_of_products(PARAMS, [(half, x), (half, x), (x, x)]),
    ):
        assert_canonical(s)
        assert all(type(c) is int for _, c in s.terms), s.terms


def test_no_float_leaks_into_division_or_evaluation():
    x = Scalar.variable(PARAMS, "x")
    three, two = Scalar.constant(PARAMS, 3), Scalar.constant(PARAMS, 2)
    quotient = exact_div(three * x, two * x)
    assert quotient.terms == (((0, 0), Fraction(3, 2)),)
    assert type(quotient.terms[0][1]) is Fraction
    assert exact_div(x * x * three, x * two).terms == (((1, 0), Fraction(3, 2)),)
    # 1/3 has no exact binary float, so a float quotient would show here
    assert exact_div(x * x + x, three * x) == (x + Scalar.one(PARAMS)).scale(Fraction(1, 3))
    for value in (three.constant_value(), Scalar.zero(PARAMS).constant_value()):
        assert type(value) is Fraction
    assert three.constant_value() / 2 == Fraction(3, 2)
    for value in (three.substitute({}), (x * three).substitute({"x": 1})):
        assert type(value) is Fraction and value == 3


def test_rational_factors_scale_and_other_operands_are_refused():
    a = Scalar.variable(PARAMS, "x") + Scalar.constant(PARAMS, Fraction(2, 3))
    for factor in (3, Fraction(-5, 4), True):
        assert a * factor == a.scale(factor) == factor * a
    for apply in (lambda: a * 1.5, lambda: a + 1, lambda: a - 1):
        with pytest.raises(TypeError):
            apply()


def test_scalars_copy_pickle_and_stay_frozen():
    """Scalar stays a frozen dataclass: copies and pickles are equal values,
    and a field cannot be reassigned."""
    a = Scalar.variable(PARAMS, "x") * Scalar.constant(PARAMS, Fraction(1, 2))
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a)
    with pytest.raises(FrozenInstanceError):
        a.terms = ()
