"""Endomorphisms as tables of their nonzero entries, against the dense
references of ``vector_reference`` on small drawn operands with zero and
parametric entries."""

import copy
import pickle
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from contactframe import (
    Connection, Endomorphism, FrameManifold, FrameVector, Scalar, make_heisenberg,
)
from vector_reference import covariant_derivative, lie_derivative, matmul

P = ("t",)
DIM = 3
IDX = range(DIM)
T = Scalar.variable(P, "t")
ZERO, ONE = Scalar.zero(P), Scalar.one(P)
# zero weighs most, so the drawn operands are sparse, as the engine's are
ENTRIES = st.sampled_from(
    [ZERO] * 6 + [ONE, -ONE, Scalar.constant(P, 2), Scalar.constant(P, Fraction(-1, 2)), T, T + ONE]
)
MATRICES = st.lists(st.lists(ENTRIES, min_size=DIM, max_size=DIM), min_size=DIM, max_size=DIM)
VECTORS = st.lists(ENTRIES, min_size=DIM, max_size=DIM).map(lambda v: FrameVector(tuple(v)))
# c[i][j] for i < j, as FrameManifold.from_pairs takes them
BRACKETS = st.lists(st.lists(ENTRIES, min_size=DIM, max_size=DIM), min_size=3, max_size=3)
PROPERTY = settings(max_examples=60, deadline=None)


def endo(matrix) -> Endomorphism:
    return Endomorphism(tuple(map(tuple, matrix)))


def dense(a: Endomorphism) -> list:
    return [[a.table.get((p, j), ZERO) for j in IDX] for p in IDX]


def assert_table_equals(a: Endomorphism, reference) -> None:
    """``a`` holds exactly the nonzero entries of the dense ``reference``."""
    assert all(v.terms for v in a.table.values()), "a table stores a zero entry"
    assert (a.dim, a.params) == (DIM, P)
    assert dense(a) == [list(row) for row in reference]


def manifold(brackets) -> FrameManifold:
    planes = zip([(0, 1), (0, 2), (1, 2)], brackets)
    pairs = {(i, j, k): c for (i, j), row in planes for k, c in enumerate(row)}
    return FrameManifold.from_pairs(DIM, P, pairs)


@PROPERTY
@given(MATRICES, MATRICES)
def test_products_and_sums_match_the_dense_matrices(a_rows, b_rows):
    a, b = endo(a_rows), endo(b_rows)
    assert_table_equals(a, a_rows)
    assert_table_equals(a.compose(b), matmul(a_rows, b_rows))
    assert_table_equals(a.square, matmul(a_rows, a_rows))
    assert_table_equals(a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(a_rows, b_rows)])
    assert_table_equals(a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(a_rows, b_rows)])
    assert a.trace() == sum((a_rows[i][i] for i in IDX), ZERO)
    assert a.is_zero() == all(not v.terms for row in a_rows for v in row)


@PROPERTY
@given(MATRICES, ENTRIES, st.sampled_from([0, 1, -2, Fraction(1, 2)]), VECTORS)
def test_scale_and_apply_match_the_dense_matrix(a_rows, factor, rational, x):
    a = endo(a_rows)
    assert_table_equals(a.scale(factor), [[factor * v for v in row] for row in a_rows])
    assert_table_equals(a.scale(rational), [[v.scale(rational) for v in row] for row in a_rows])
    want = [sum((row[j] * x.components[j] for j in IDX), ZERO) for row in a_rows]
    assert a.apply(x) == FrameVector(tuple(want))


@PROPERTY
@given(MATRICES, BRACKETS, VECTORS)
def test_lie_derivative_matches_the_dense_commutator(a_rows, brackets, xi):
    a = endo(a_rows)
    m = manifold(brackets)
    assert_table_equals(m.lie_derive_endo(xi, a), lie_derivative(m, xi, a_rows))
    # from_pairs hands over the transposed brackets as -c; the same
    # manifold built by its constructor negates every entry instead
    assert FrameManifold(DIM, P, m.c).minus_sparse_c == m.minus_sparse_c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_derivative_table_is_the_dense_covariant_derivative(data):
    """(nabla_{E_i} A)^p_j = sum_q Gamma_iq^p A^q_j - A^p_q Gamma_ij^q at every
    (i, j, p), in dimensions 3, 5 and 7, with polynomial entries and
    coefficients drawn whole: no symmetry of Gamma (metric or torsion-free)
    is assumed.  The table holds no zero."""
    dim = data.draw(st.sampled_from([3, 5, 7]))
    idx = range(dim)
    square = st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    gamma = data.draw(st.lists(square, min_size=dim, max_size=dim))
    a_rows = data.draw(square)
    conn = Connection(dim, P, {
        (i, j, k): g for i in idx for j in idx for k in idx if (g := gamma[i][j][k]).terms
    })
    table = conn.derivative_table(Endomorphism(tuple(map(tuple, a_rows))))
    assert all(v.terms for v in table.values())
    assert table == {
        (i, j, p): v
        for i in idx
        for p, row in enumerate(covariant_derivative(gamma, i, a_rows))
        for j, v in enumerate(row)
        if v.terms
    }


@PROPERTY
@given(st.lists(MATRICES, min_size=DIM, max_size=DIM), MATRICES, VECTORS)
def test_lie_derivative_needs_no_antisymmetric_brackets(planes, a_rows, xi):
    """L_xi A = [ad_xi, A] on structure constants c[i][j][k] drawn whole, so
    that c_ij^k and c_ji^k are unrelated: a frame that fails
    ``frame.bracket_antisymmetry`` still gets the h the formula defines."""
    m = FrameManifold(DIM, P, tuple(tuple(map(tuple, plane)) for plane in planes))
    assert_table_equals(m.lie_derive_endo(xi, endo(a_rows)), lie_derivative(m, xi, a_rows))


@PROPERTY
@given(MATRICES)
def test_the_matrix_form_is_the_table_form_and_survives_copy_and_pickle(a_rows):
    a = endo(a_rows)
    table = {(p, j): v for p, row in enumerate(a_rows) for j, v in enumerate(row) if v.terms}
    assert a == Endomorphism.from_table(DIM, P, table)
    assert a.matrix == tuple(map(tuple, a_rows))
    assert a.sparse_columns == tuple(
        tuple((p, row[j]) for p, row in enumerate(a_rows) if row[j].terms) for j in IDX
    )
    # with and without the views built
    for operand in (endo(a_rows), a):
        twins = copy.copy(operand), copy.deepcopy(operand), pickle.loads(pickle.dumps(operand))
        for twin in twins:
            assert twin == a and twin.table == table and hash(twin) == hash(a)
            assert twin.square == a.square


def test_an_almost_contact_structure_hashes_by_its_entries():
    """Equal endomorphisms hash alike, whatever views either has built, so an
    ``AlmostContactData`` is hashable like the frozen record it is."""
    s = make_heisenberg(2).structure
    twin = pickle.loads(pickle.dumps(s))
    s.phi.matrix, s.phi.sparse_rows, s.phi.sparse_columns
    assert hash(twin) == hash(s) and {s, twin} == {s}
    assert hash(s.phi) == hash(Endomorphism(s.phi.matrix))
