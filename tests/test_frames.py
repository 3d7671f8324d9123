"""Frame manifolds: bracket bilinearity/antisymmetry, Jacobi grading."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from contactframe.frames import FrameError, FrameManifold, FrameVector
from contactframe.report import first_witness
from contactframe.scalars import ParameterMismatchError, Scalar, parse_scalar
from vector_reference import antisymmetry_witness, bracket, inner, inner_basis

P = ()


def heisenberg3() -> FrameManifold:
    """[E1, E2] = E3, everything else zero: a valid nilpotent frame."""
    return FrameManifold.from_pairs(3, P, {(0, 1, 2): Scalar.one(P)})


coords = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)
vectors = st.tuples(coords, coords, coords)

HUNDRED = settings(max_examples=100, deadline=None)


def vec(m: FrameManifold, triple) -> FrameVector:
    return FrameVector(tuple(Scalar.constant(P, t) for t in triple))


@HUNDRED
@given(vectors, vectors, vectors, coords, coords)
def test_bracket_bilinear_and_antisymmetric(xs, ys, zs, a, b):
    m = heisenberg3()
    x, y, z = vec(m, xs), vec(m, ys), vec(m, zs)
    a_s, b_s = Scalar.constant(P, a), Scalar.constant(P, b)
    left = bracket(m, x.scale(a_s) + y.scale(b_s), z)
    right = bracket(m, x, z).scale(a_s) + bracket(m, y, z).scale(b_s)
    assert (left - right).is_zero()
    second = bracket(m, z, x.scale(a_s) + y.scale(b_s))
    expanded = bracket(m, z, x).scale(a_s) + bracket(m, z, y).scale(b_s)
    assert (second - expanded).is_zero()
    assert (bracket(m, x, y) + bracket(m, y, x)).is_zero()
    assert bracket(m, x, x).is_zero()


def test_validate_frame_passes_on_lie_algebras():
    report = heisenberg3().validate_frame()
    assert not report.has_failures
    names = [c.name for c in report.checks]
    assert names == ["frame.bracket_antisymmetry", "frame.jacobi_identity"]


def test_jacobi_violation_is_witnessed():
    # [E1,E2] = E3 with [E1,E3] = E1: the cyclic sum over (1,2,3) leaves -E3
    m = FrameManifold.from_pairs(
        3,
        P,
        {
            (0, 1, 2): Scalar.one(P),
            (0, 2, 0): Scalar.one(P),
        },
    )
    report = m.validate_frame()
    assert report.has_failures
    bad = report.by_name("frame.jacobi_identity")
    assert bad.status == "fails"
    assert bad.witness is not None and "indices" in bad.witness


def _table(dim: int, entries) -> FrameManifold:
    """c[i][j][k] = entries[(i, j, k)], 0 elsewhere; no antisymmetry imposed."""
    idx = range(dim)
    c = (
        tuple(tuple(Scalar.constant(P, entries.get((i, j, k), 0)) for k in idx) for j in idx)
        for i in idx
    )
    return FrameManifold(dim, P, tuple(c))


def _antisymmetry_witnesses(m: FrameManifold):
    """The graded witness and that of the full dim^3 row-major scan."""
    graded = m.validate_frame().by_name("frame.bracket_antisymmetry").witness
    return graded, antisymmetry_witness(m)


def test_antisymmetry_scan_keeps_the_full_scan_witness():
    # a diagonal c_22^4 = 1 first in the scan, then c_53^1 = 2 with c_35^1 = 0
    graded, full = _antisymmetry_witnesses(_table(5, {(1, 1, 3): 1, (4, 2, 0): 2}))
    assert graded == full == {"indices": [2, 2, 4], "residual": "2"}


@HUNDRED
@given(st.lists(st.sampled_from([-1, 0, 0, 0, 1]), min_size=27, max_size=27))
def test_antisymmetry_witness_matches_the_full_scan_on_random_tables(values):
    m = _table(3, dict(zip(product(range(3), repeat=3), values)))
    graded, full = _antisymmetry_witnesses(m)
    assert graded == full


# a few coefficient objects, each placed at many triples: the scan sums each
# distinct pair of objects once, so a residual must depend on both objects
SHARED = tuple(parse_scalar(text, ("t",)) for text in ("0", "1", "-1", "2", "-2", "1+t", "-1-t"))
NEGATED = (0, 2, 1, 4, 3, 6, 5)  # SHARED[NEGATED[v]] == -SHARED[v]


def _shared_table(dim: int, picks) -> FrameManifold:
    """c[i][j][k] = SHARED[picks[(i, j, k)]], the same objects at many triples;
    no antisymmetry imposed."""
    idx = range(dim)
    c = (tuple(tuple(SHARED[picks[i, j, k]] for k in idx) for j in idx) for i in idx)
    return FrameManifold(dim, ("t",), tuple(c))


def test_antisymmetry_witness_reads_both_objects_of_a_shared_pair():
    """1+t pairs with its negation at (1, 2, 1), with 2 at (1, 3, 1): the
    first residual is zero, the second is the witness."""
    picks = dict.fromkeys(product(range(3), repeat=3), 0)
    picks.update({(0, 1, 0): 5, (1, 0, 0): 6, (0, 2, 0): 5, (2, 0, 0): 3})
    graded, full = _antisymmetry_witnesses(_shared_table(3, picks))
    assert graded == full == {"indices": [1, 3, 1], "residual": "t+3"}


@st.composite
def shared_tables(draw) -> FrameManifold:
    """An antisymmetric table of shared objects, each c_ji^k the object
    negating c_ij^k, with up to three entries then replaced by any object, so
    one object meets both its negation and other partners."""
    dim = draw(st.sampled_from([3, 5]))
    idx, value = range(dim), st.integers(0, len(SHARED) - 1)
    picks = dict.fromkeys(product(idx, repeat=3), 0)
    for i, j in combinations(idx, 2):
        for k in idx:
            v = draw(value)
            picks[i, j, k], picks[j, i, k] = v, NEGATED[v]
    triples = st.tuples(*[st.sampled_from(idx)] * 3)
    picks.update(draw(st.dictionaries(triples, value, max_size=3)))
    return _shared_table(dim, picks)


@HUNDRED
@given(shared_tables())
def test_antisymmetry_witness_matches_the_full_scan_on_shared_objects(m):
    graded, full = _antisymmetry_witnesses(m)
    assert graded == full


def _unfiltered_jacobi_witness(m: FrameManifold):
    """The Jacobi witness of the per-tuple scan over every triple i < j < k."""
    idx = range(m.dim)
    return first_witness(
        ((i, j, k, l) for i, j, k in combinations(idx, 3) for l in idx), m.jacobiator
    )


@st.composite
def sparse_frames(draw) -> FrameManifold:
    """Up to ten nonzero structure constants in dimension 3, 5 or 7, either
    antisymmetric (``from_pairs``) or as a table with no antisymmetry."""
    dim = draw(st.sampled_from([3, 5, 7]))
    i, values = st.integers(0, dim - 1), st.sampled_from([-2, -1, 1, 2])
    if draw(st.booleans()):
        keys = st.tuples(i, i, i).filter(lambda t: t[0] < t[1])
        pairs = draw(st.dictionaries(keys, values, max_size=10))
        constants = {t: Scalar.constant(P, v) for t, v in pairs.items()}
        return FrameManifold.from_pairs(dim, P, constants)
    return _table(dim, draw(st.dictionaries(st.tuples(i, i, i), values, max_size=10)))


@HUNDRED
@given(sparse_frames())
def test_jacobi_scan_over_composable_triples_keeps_the_witness(m):
    """The Jacobi scan skips the triples none of whose cyclic terms composes
    two live brackets; on sparse brackets, antisymmetric ones and the
    non-antisymmetric tables alike, its witness is the unfiltered scan's."""
    graded = m.validate_frame().by_name("frame.jacobi_identity").witness
    assert graded == _unfiltered_jacobi_witness(m)


def test_from_pairs_rejects_bad_keys():
    with pytest.raises(FrameError):
        FrameManifold.from_pairs(3, P, {(1, 0, 2): Scalar.one(P)})  # needs i < j
    with pytest.raises(FrameError):
        FrameManifold.from_pairs(3, P, {(0, 3, 1): Scalar.one(P)})  # out of range


def test_from_pairs_rejects_a_coefficient_over_other_parameters():
    t = Scalar.variable(("t",), "t")
    with pytest.raises(ParameterMismatchError):
        FrameManifold.from_pairs(3, P, {(0, 1, 2): t})
    with pytest.raises(ParameterMismatchError):  # a zero is checked too
        FrameManifold.from_pairs(3, ("s",), {(0, 1, 2): Scalar.zero(("t",))})


def test_from_pairs_fills_the_antisymmetric_half():
    params = ("t",)
    a, b = parse_scalar("1+t", params), parse_scalar("-2/3", params)
    zero = Scalar.zero(params)
    pairs = {(0, 1, 2): a, (0, 2, 1): b, (1, 2, 0): a, (1, 2, 2): zero}
    m = FrameManifold.from_pairs(3, params, pairs)
    assert m.c[0][1][2] is a and m.c[1][0][2] == -a
    assert m.c[0][2][1] is b and m.c[2][0][1] == -b
    # one negation per distinct coefficient object
    assert m.c[2][1][0] is m.c[1][0][2]
    # every zero, the listed one included, is the shared zero
    for i, j, k in product(range(3), repeat=3):
        assert m.c[i][j][k].terms or m.c[i][j][k] is zero


def test_inner_is_the_orthonormal_metric():
    m = heisenberg3()
    for i in range(3):
        for j in range(3):
            value = inner(m, m.basis(i), m.basis(j))
            assert value == (m.one_scalar() if i == j else m.zero_scalar())
            assert inner_basis(m, i, j) == value


def test_lie_derive_endo_of_identity_vanishes():
    from contactframe.frames import Endomorphism

    m = heisenberg3()
    identity = Endomorphism(tuple(m.basis(j).components for j in range(m.dim)))
    derived = m.lie_derive_endo(m.basis(0), identity)
    assert derived.is_zero()
