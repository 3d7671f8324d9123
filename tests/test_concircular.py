"""Concircular tensor: closed form, flatness obstructions, tensor actions."""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contactframe import (
    Endomorphism,
    Instance,
    Scalar,
    concircular,
    load_manifest_file,
    make_heisenberg,
    verify_concircular_suite,
)
from contactframe.concircular import (
    r1_action,
    ricci_action_table,
    self_action_slabs,
    symmetrised,
)
from contactframe.tables import sum_table
from vector_reference import apply, inner, tensor_dot_form, tensor_dot_tensor

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def test_constant_K(fam):
    assert fam.z.K == fam.m.constant(Fraction(-2, 3))


def test_xi_nonflatness_witness(fam):
    """Z(E2, E1)xi = -(2/3) E2 is nonzero, so the tensor cannot be xi-flat."""
    m, z, s = fam.m, fam.z, fam.s
    e = m.basis
    got = apply(z, e(1), e(0), s.xi)
    want = e(1).scale(m.constant(Fraction(-2, 3)))
    assert (got - want).is_zero()
    # and every component matches K (eta(Y)X - eta(X)Y), the structural form
    for i in range(3):
        for j in range(3):
            expected = (
                e(i).scale(inner(m, s.eta, e(j))) - e(j).scale(inner(m, s.eta, e(i)))
            ).scale(z.K)
            assert (apply(z, e(i), e(j), s.xi) - expected).is_zero()


def test_phi_sandwich_component(fam):
    """g(Z(phi E2, phi E3) phi E2, phi E3) = -4/3: phi-flatness fails."""
    m, z, phi = fam.m, fam.z, fam.s.phi
    e = m.basis
    val = inner(m, 
        apply(z, phi.apply(e(1)), phi.apply(e(2)), phi.apply(e(1))),
        phi.apply(e(2)),
    )
    assert val == m.constant(Fraction(-4, 3))


def test_ricci_action_values(fam):
    m, z, s = fam.m, fam.z, fam.s
    e = m.basis
    ric = fam.pkg.ricci
    val = tensor_dot_form(m, z, ric, s.xi, e(1), e(1), s.xi)
    assert val == m.constant(Fraction(4, 3))


def test_self_action_values(fam):
    m, z, s = fam.m, fam.z, fam.s
    e = m.basis
    got = tensor_dot_tensor(m, z, z, s.xi, e(1), e(0), e(2), e(1))
    want = e(2).scale(m.constant(Fraction(4, 3)))
    assert (got - want).is_zero()
    # natural-looking tuples can vanish by antisymmetry without implying the
    # action is zero
    zero_case = tensor_dot_tensor(m, z, z, s.xi, e(1), e(1), e(2), e(1))
    assert zero_case.is_zero()
    nonzero_case = tensor_dot_tensor(m, z, z, s.xi, e(1), e(1), e(2), s.xi)
    assert (nonzero_case - e(2).scale(m.constant(Fraction(4, 3)))).is_zero()


def test_suite_statuses_and_witnesses(fam):
    report = verify_concircular_suite(fam)
    assert not report.has_failures
    statuses = {c.name: c.status for c in report.checks}
    assert sum(1 for v in statuses.values() if v == "holds") == 8
    nas = sorted(n for n, v in statuses.items() if v == "not_applicable")
    assert nas == [
        "conc.eta_contraction_reference_form",
        "conc.phi_flatness",
        "conc.xi_double_contraction_phi_square_variant",
    ]
    assert report.by_name("conc.phi_flatness").witness == {
        "indices": [2, 3, 2, 3],
        "residual": "-4/3",
    }
    assert report.by_name("conc.xi_double_contraction_phi_square_variant").witness == {
        "indices": [2],
        "residual": "-4/3*E2",
    }
    assert report.by_name("conc.eta_contraction_reference_form").witness == {
        "indices": [1, 2, 2],
        "residual": "-4/3",
    }
    assert report.by_name("conc.xi_flatness_obstruction").witness == {
        "indices": [1, 2],
        "value": "2/3*E2",
    }
    assert report.by_name("conc.ricci_action_obstruction").witness == {
        "indices": [2, 1, 2],
        "value": "4/3",
    }
    assert report.by_name("conc.self_action_obstruction").witness == {
        "indices": [2, 1, 3, 2],
        "value": "4/3*E3",
    }
    slice_check = report.by_name("conc.ricci_action_slice")
    assert slice_check.status == "holds"
    assert any("-K" in note for note in slice_check.convention_notes)


def test_everything_is_parameter_free(fam, fam0):
    """The torsionful curvature is parameter-independent, so the whole

    concircular layer coincides between the symbolic family and its
    parameter-0 member."""
    rep0 = verify_concircular_suite(fam0)
    rep = verify_concircular_suite(fam)
    assert [(c.name, c.status) for c in rep.checks] == [
        (c.name, c.status) for c in rep0.checks
    ]
    assert fam0.z.K == fam0.m.constant(Fraction(-2, 3))


def _manifest_instance(name: str) -> Instance:
    m, s = load_manifest_file(str(MANIFESTS / name))
    return Instance(m, s)


@pytest.mark.parametrize("name", ["lambda_symbolic", "heisenberg5.json", "t1e4.json"])
def test_action_contractions_match_the_vector_operators(fam, name):
    """The component contractions the obstructions scan equal the vector-level
    operators on every basis tuple: the tables of ``self_action_slabs`` hold
    the nonzero components of (Z(xi, E_i).Z)(E_j, E_k)E_l, each (i, j) in one
    table and in row-major order, and ``ricci_action_table`` the nonzero
    values of (Z(xi, E_i).ricci)(E_j, E_k)."""
    x = fam if name == "lambda_symbolic" else _manifest_instance(name)
    m, z, xi, ric = x.m, x.z, x.s.xi, x.pkg.ricci
    e = [m.basis(i) for i in range(m.dim)]
    tables, ricci_table = [t for t in self_action_slabs(x) if t], ricci_action_table(x)
    leads = [{index[:2] for index in table} for table in tables]
    assert all(len(lead) == 1 for lead in leads)
    firsts = [min(lead) for lead in leads]
    assert firsts == sorted(set(firsts))
    self_table = {index: c for table in tables for index, c in table.items()}
    nonzero = 0
    for i in range(m.dim):
        for j in range(m.dim):
            for k in range(m.dim):
                want = tensor_dot_form(m, z, ric, xi, e[i], e[j], e[k])
                assert ricci_table.get((i, j, k)) == (want if want.terms else None), (i, j, k)
                for l in range(m.dim):
                    want = tensor_dot_tensor(m, z, z, xi, e[i], e[j], e[k], e[l])
                    got = tuple(self_table.get((i, j, k, l, p)) for p in range(m.dim))
                    assert got == tuple(c if c.terms else None for c in want.components), (
                        i, j, k, l,
                    )
                    nonzero += not want.is_zero()
    # every tuple vanishes on the Sasakian H^5, so there the test compares zeros
    assert (nonzero == 0) == (name == "heisenberg5.json")


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2]).flatmap(
        lambda n: st.lists(
            st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)]),
            min_size=(2 * n + 1) ** 2,
            max_size=(2 * n + 1) ** 2,
        )
    ),
    st.sampled_from([Fraction(-2, 3), Fraction(-4, 5), 3]),
)
def test_the_r1_action_closed_form_is_the_action_on_the_template(entries, c):
    """For any A, skew or not, c (A.R1)(E_j, E_k)E_l = c (s_jl E_k - s_kl E_j)
    with s_ab = A^b_a + A^a_b (``r1_action``) is the action
    A T(E_j, E_k)E_l - T(AE_j, E_k)E_l - T(E_j, AE_k)E_l - T(E_j, E_k)AE_l on
    T = c R1, R1 read from the space-form template table, at every basis
    tuple in dimensions 3 and 5."""
    dim = round(len(entries) ** 0.5)
    e = make_heisenberg((dim - 1) // 2)
    r1 = Instance(e.manifold, e.structure).templates[0].table
    idx = range(dim)
    a = {(p, j): v for (p, j), v in zip(product(idx, repeat=2), entries) if v}

    def t(j, k, l, p):  # component p of c R1(E_j, E_k)E_l, R1's entries being constants
        return c * r1[j, k, l, p].terms[0][1] if (j, k, l, p) in r1 else 0

    expected = {}
    for j, k, l, p in product(idx, repeat=4):
        value = sum(
            a.get((p, q), 0) * t(j, k, l, q)
            - a.get((q, j), 0) * t(q, k, l, p)
            - a.get((q, k), 0) * t(j, q, l, p)
            - a.get((q, l), 0) * t(j, k, q, p)
            for q in idx
        )
        if value:
            expected[0, j, k, l, p] = Scalar.constant((), value)
    matrix = [[Scalar.constant((), a.get((p, j), 0)) for j in idx] for p in idx]
    s = symmetrised(Endomorphism(matrix))
    got = {}
    for j in idx:
        got.update(sum_table((), r1_action(s, Scalar.constant((), c), 0, j, dim)))
    assert got == expected


@pytest.mark.parametrize(
    "name", [*sorted(p.name for p in MANIFESTS.glob("*.json")), "H3", "H5", "H7", "H9"]
)
def test_z_xi_is_skew_so_the_r1_half_of_the_self_action_is_empty(name):
    """Z(xi, E_i) is skew wherever the torsionful connection builds, since
    that connection is metric and R1(X, Y) is skew: so s = A + A^T is empty
    and the R1 half of the self action streams no product, on every committed
    manifest (gated ones included) and on H^3 to H^9."""
    if name.startswith("H"):
        e = make_heisenberg((int(name[1:]) - 1) // 2)
        x = Instance(e.manifold, e.structure)
    else:
        x = _manifest_instance(name)
    assert not x.connection_error
    live = [a for a in x.z_xi if not a.is_zero()]
    assert live
    for i, a in enumerate(x.z_xi):
        assert symmetrised(a) == {}
        assert list(r1_action(symmetrised(a), x.z.K, i, 0, x.m.dim)) == []
