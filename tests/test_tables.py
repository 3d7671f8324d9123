"""The table kernel ``tables.sum_table`` against ``Scalar.sum_of_products``
per index, and the one-term paths of the Scalar ring, over no parameters,
one and two; and the witness rule of a table of nonzero residuals
(``Instance.table_scan``, ``tables.first_nonempty``) against the row-major
scan of every basis tuple."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from contactframe import FrameVector, Instance, make_heisenberg, make_lambda_family
from contactframe.report import first_witness
from contactframe.scalars import ParameterMismatchError, Scalar
from contactframe.tables import first_nonempty, sum_table
from test_scalars import assert_canonical

PARAM_TUPLES = ((), ("t",), ("t", "x"))
INDICES = [(i,) for i in range(4)]

HUNDRED = settings(max_examples=100, deadline=None)

coeffs = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-6, 6),
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=6),
)


@st.composite
def scalars(draw, params: tuple[str, ...], max_terms: int = 3) -> Scalar:
    """A Scalar over ``params``: zero, one term or several."""
    monomials = st.tuples(*(st.integers(0, 2) for _ in params))
    terms = draw(st.dictionaries(monomials, coeffs, max_size=max_terms))
    return Scalar.from_terms(params, terms)


@st.composite
def products(draw):
    params = draw(st.sampled_from(PARAM_TUPLES))
    factor = scalars(params)
    stream = draw(st.lists(st.tuples(st.sampled_from(INDICES), factor, factor), max_size=12))
    return params, stream


@HUNDRED
@given(products(), st.booleans())
def test_sum_table_is_sum_of_products_per_index(case, cancel):
    """Each value is the ``sum_of_products`` of its index's pairs; an index
    whose products cancel, or that only a zero factor names, is absent; every
    value is canonical.  With ``cancel`` the last index named meets the
    negation of each of its products."""
    params, stream = case
    if cancel and stream:
        last = stream[-1][0]
        stream = stream + [(i, -a, b) for i, a, b in stream if i == last]
    table = sum_table(params, stream)
    pairs: dict = {}
    for index, a, b in stream:
        pairs.setdefault(index, []).append((a, b))
    expected = {i: Scalar.sum_of_products(params, ab) for i, ab in pairs.items()}
    assert table == {i: value for i, value in expected.items() if value.terms}
    if cancel and stream:
        assert last not in table
    for value in table.values():
        assert value.terms
        assert_canonical(value)


@pytest.mark.parametrize("params", PARAM_TUPLES)
def test_a_mismatched_product_raises_even_when_zero(params):
    """A product over another parameter tuple raises, whichever factor it is
    and when either factor is zero; so does a dead product in a stream whose
    other products are live."""
    other = params + ("s",)
    one, zero = Scalar.one(params), Scalar.zero(params)
    for a, b in (
        (Scalar.zero(other), one),
        (one, Scalar.zero(other)),
        (Scalar.one(other), zero),
        (zero, Scalar.one(other)),
    ):
        with pytest.raises(ParameterMismatchError):
            sum_table(params, [((0,), one, one), ((0,), a, b)])


@HUNDRED
@given(st.sampled_from(PARAM_TUPLES).flatmap(lambda p: st.tuples(st.just(p), scalars(p))))
def test_one_live_product_with_a_unit_factor_is_the_operand(case):
    """An index named by one live product is that product: a unit factor
    gives the other operand's object, also beside dead products."""
    params, a = case
    one, zero = Scalar.one(params), Scalar.zero(params)
    if not a.terms:
        assert sum_table(params, [((0,), a, one)]) == {}
        return
    # when a is 1 too, the left operand is the one returned
    right = one if a == one else a
    for stream, operand in (
        ([((0,), a, one)], a),
        ([((0,), one, a)], right),
        ([((0,), zero, a), ((0,), a, one), ((0,), one, zero)], a),
    ):
        assert sum_table(params, stream)[(0,)] is operand
    assert a * one is a and one * a is right


@HUNDRED
@given(
    st.sampled_from(PARAM_TUPLES).flatmap(
        lambda p: st.tuples(st.just(p), scalars(p, 1), scalars(p, 1), coeffs)
    )
)
def test_one_term_paths(case):
    """``-`` between one-term Scalars is ``+`` of the negation, with equal and
    with different monomials; a cancelling difference is the shared zero;
    ``*``, unary ``-`` and ``scale`` stay canonical."""
    params, a, b, factor = case
    zero = Scalar.zero(params)
    same = Scalar.from_terms(params, {m: factor for m, _ in b.terms})
    for x, y in ((a, b), (b, a), (a, same), (same, b)):
        difference = x - y
        assert difference == x + (-y)
        for value in (difference, x * y, -x, x.scale(factor), x * factor):
            assert_canonical(value)
    assert a - a is zero and b - b is zero
    if a.terms:
        (m, c), = a.terms
        assert a - Scalar.from_terms(params, {m: c}) is zero


# dimensions 3 and 5, over no parameters and over one
INSTANCES = [
    Instance(e.manifold, e.structure)
    for e in (make_heisenberg(1), make_heisenberg(2), make_lambda_family(None))
]


@st.composite
def residual_tables(draw):
    """An instance, whether the residual is a vector, and a sparse table of
    nonzero Scalars over the instance's parameters, keyed (i, j, p) with p
    the component of a vector residual, else (i, j, k)."""
    x = draw(st.sampled_from(INSTANCES))
    index = st.tuples(*[st.integers(0, x.m.dim - 1)] * 3)
    nonzero = scalars(x.m.params).filter(lambda c: bool(c.terms))
    return x, draw(st.booleans()), draw(st.dictionaries(index, nonzero, max_size=12))


@HUNDRED
@given(residual_tables(), st.sampled_from(["residual", "value"]))
def test_table_scan_is_the_row_major_scan(case, key):
    """The witness of a table is the one ``first_witness`` gives over every
    basis tuple of the dense residual: (i, j) with the frame vector there, or
    (i, j, k) with the value there; None when the table is empty."""
    x, vector, table = case
    dim, zero = x.m.dim, Scalar.zero(x.m.params)
    if vector:
        arity = 2
        dense = lambda i, j: FrameVector(tuple(table.get((i, j, p), zero) for p in range(dim)))
    else:
        arity = 3
        dense = lambda i, j, k: table.get((i, j, k), zero)
    want = first_witness(product(range(dim), repeat=arity), dense, key)
    assert x.table_scan(table, vector, key) == want


@HUNDRED
@given(residual_tables(), st.integers(1, 2))
def test_first_nonempty_slab_has_the_whole_tables_witness(case, depth):
    """Split by its first ``depth`` indices, in order, a table's first nonempty
    slab has the whole table's witness, and no later slab is built."""
    x, vector, table = case
    built = []

    def slabs():
        for lead in product(range(x.m.dim), repeat=depth):
            built.append(lead)
            yield {index: c for index, c in table.items() if index[:depth] == lead}

    assert x.table_scan(first_nonempty(slabs()), vector) == x.table_scan(table, vector)
    last = min(table)[:depth] if table else (x.m.dim - 1,) * depth
    assert built[-1] == last
