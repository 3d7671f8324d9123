"""Levi-Civita connection, curvature, Ricci data, and the nullity suite."""

import pickle
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from contactframe import (
    ConcircularTensor,
    Connection,
    Curvature4Tensor,
    Instance,
    emit,
    load_manifest_file,
    make_heisenberg,
    make_lambda_family,
    ricci,
    run_suite,
    scalar_curvature,
    verify_nkappa_suite,
)
from contactframe.scalars import Scalar

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def _lam(m):
    return Scalar.variable(m.params, "lambda")


def test_connection_table_symbolic(fam):
    """The full covariant-derivative table of the frame family."""
    m, at = fam.m, fam.m.vector_at(fam.lc.table)
    lam = _lam(m)
    one = Scalar.one(m.params)
    e = m.basis
    expected = {
        (1, 0): -e(2).scale(one + lam),
        (1, 2): e(0).scale(one + lam),
        (2, 0): e(1).scale(one - lam),
        (2, 1): -e(0).scale(one - lam),
    }
    for i in range(3):
        for j in range(3):
            got = at((i, j))
            want = expected.get((i, j))
            if want is None:
                assert got.is_zero(), (i, j, got)
            else:
                assert (got - want).is_zero(), (i, j, got)


def test_metric_is_parallel(fam):
    assert fam.lc.metric_residual == {}


def test_riemann_golden_values(fam):
    m, at = fam.m, fam.m.vector_at(fam.r.table)
    lam = _lam(m)
    one = Scalar.one(m.params)
    e = m.basis
    lam2 = lam * lam
    cases = {
        (0, 1, 0): e(1).scale(lam2 - one),
        (0, 1, 1): e(0).scale(one - lam2),
        (0, 2, 0): e(2).scale(lam2 - one),
        (0, 2, 2): e(0).scale(one - lam2),
        (1, 2, 1): e(2).scale(one - lam2),
        (1, 2, 2): e(1).scale(lam2 - one),
    }
    for i in range(3):
        for j in range(3):
            for k in range(3):
                got = at((i, j, k))
                want = cases.get((i, j, k))
                if want is None and (j, i, k) in cases:
                    want = -cases[(j, i, k)]
                if want is None:
                    assert got.is_zero(), (i, j, k, got)
                else:
                    assert (got - want).is_zero(), (i, j, k, got)


def test_ricci_and_scalar_symbolic(fam):
    m = fam.m
    lam = _lam(m)
    two = Scalar.constant(m.params, 2)
    expect_00 = two - two * lam * lam
    for i in range(3):
        for j in range(3):
            val = fam.ricci.components[i][j]
            if i == j == 0:
                assert val == expect_00
            else:
                assert val.is_zero(), (i, j, val)
    tau = scalar_curvature(m, fam.ricci)
    assert tau == expect_00


def test_a_ricci_form_hashes_by_its_entries(fam):
    """A Ricci form is the table of its nonzero values; equal forms hash
    alike, with or without the dense view built, and survive pickling."""
    twin = ricci(fam.m, fam.r)
    assert twin == fam.ricci and twin is not fam.ricci
    twin.components
    assert hash(twin) == hash(fam.ricci) and {twin, fam.ricci} == {twin}
    assert pickle.loads(pickle.dumps(twin)) == twin


@pytest.mark.parametrize("lam_value", [Fraction(0), Fraction(1, 2), Fraction(2)])
def test_rational_members_match_closed_forms(lam_value):
    entry = make_lambda_family(lam_value)
    m, x = entry.manifold, Instance(entry.manifold, entry.structure)
    ric = x.ricci
    tau = scalar_curvature(m, ric)
    expected_tau = Fraction(2) - 2 * lam_value * lam_value
    assert tau == m.constant(expected_tau)
    assert ric.components[0][0] == m.constant(expected_tau)
    assert entry.expected_kappa == m.constant(1 - lam_value * lam_value)
    assert x.kappa == m.constant(1 - lam_value * lam_value)


def test_detect_kappa_matches_family_constant(fam):
    lam = _lam(fam.m)
    assert fam.kappa == Scalar.one(fam.m.params) - lam * lam


def test_nullity_suite_symbolic(fam):
    report = verify_nkappa_suite(fam)
    assert not report.has_failures
    statuses = {c.name: c.status for c in report.checks}
    holds = [n for n, st in statuses.items() if st == "holds"]
    nas = sorted(n for n, st in statuses.items() if st == "not_applicable")
    assert len(holds) == 12
    assert nas == [
        "nkappa.sasakian_curvature_xi_orientation",
        "nkappa.xi_covariant_derivative_reference_form",
    ]
    ref = report.by_name("nkappa.xi_covariant_derivative_reference_form")
    assert ref.witness["indices"] == [2]
    assert ref.witness["residual"] == "lambda*E2-lambda*E3"


def test_nullity_suite_sasakian_member(fam0):
    report = verify_nkappa_suite(fam0)
    assert not report.has_failures
    statuses = {c.name: c.status for c in report.checks}
    # with h = 0 the two covariant-derivative presentations coincide, and
    # the Sasakian orientation identity becomes testable and true
    assert statuses["nkappa.xi_covariant_derivative_reference_form"] == "holds"
    assert statuses["nkappa.sasakian_curvature_xi_orientation"] == "holds"
    assert statuses["nkappa.nullity_constant"] == "holds"


# -- the table of nonzero components -------------------------------------------


def test_every_tensor_a_run_builds_is_the_table_of_its_nonzero_components(monkeypatch):
    """Over one run on each committed manifest, every curvature-type tensor
    built (R, the torsionful curvature, R1-R3 and Z) and every connection
    (Levi-Civita, torsionful) holds no zero in its table.  A curvature-type
    tensor's dense view agrees with its table entry by entry; a connection
    has no dense view, and its nonzero coefficients per pair (i, j)
    (``entries``, which the Riemann kernel reads) agree with its table entry
    by entry."""
    built = []
    for cls in (Curvature4Tensor, ConcircularTensor, Connection):

        def recording(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", recording)
    for path in sorted(MANIFESTS.glob("*.json")):
        run_suite(*load_manifest_file(str(path)), "all")
    connections = [t for t in built if isinstance(t, Connection)]
    # both connections on H^5, lambda and T1E4; Levi-Civita alone on kmu3,
    # whose kappa gate stops the torsionful one
    assert len(connections) == 7
    assert len(built) - len(connections) > len(list(MANIFESTS.glob("*.json")))
    assert not hasattr(Connection, "gamma")
    for t in built:
        assert all(c.terms for c in t.table.values())
        zero = Scalar.zero(t.params)
        if isinstance(t, Connection):
            for i, j, k in product(range(t.dim), repeat=3):
                got = dict(t.entries(i, j)).get(k, zero)
                assert got == t.table.get((i, j, k), zero), (i, j, k)
            continue
        for i, j, k, l in product(range(t.dim), repeat=4):
            assert t.components[i][j][k][l] == t.table.get((i, j, k, l), zero), (i, j, k, l)


@pytest.mark.parametrize(
    "entry", [make_heisenberg(2), make_lambda_family(None)], ids=["H5", "lambda_symbolic"]
)
def test_a_verify_run_never_builds_the_dense_view(monkeypatch, entry):
    """A verify run never builds a curvature-type tensor's dense view
    (``components``); a connection has none."""

    def dense(self, *args):
        raise AssertionError("the dense view was built")

    monkeypatch.setattr(Curvature4Tensor, "components", property(dense))
    assert not hasattr(Connection, "derivative_basis")
    emit(run_suite(entry.manifold, entry.structure, "all"))
