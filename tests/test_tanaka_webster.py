"""The torsionful connection: parallelism, torsion, curvature, decomposition."""

from fractions import Fraction
from pathlib import Path

import pytest

from contactframe import (
    GssfCoefficients,
    Instance,
    eta_einstein_fit,
    gssf_decompose,
    load_manifest_file,
    verify_gtw_suite,
)
from contactframe.scalars import Scalar

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def _lam(m):
    return Scalar.variable(m.params, "lambda")


def test_connection_table(fam):
    """Only two covariant derivatives survive, and they are parameter-free."""
    m, at = fam.m, fam.vector_at(fam.pkg.conn.table)
    e = m.basis
    for i in range(3):
        for j in range(3):
            got = at((i, j))
            if (i, j) == (0, 1):
                assert (got - e(2)).is_zero()
            elif (i, j) == (0, 2):
                assert (got + e(1)).is_zero()
            else:
                assert got.is_zero(), (i, j, got)


def test_metric_parallel(fam):
    assert fam.pkg.conn.metric_residual == {}


def test_torsion_table(fam):
    m = fam.m
    lam = _lam(m)
    two = Scalar.constant(m.params, 2)
    e = m.basis
    at = fam.vector_at(fam.pkg.torsion)
    expected = {
        (0, 1): -e(2).scale(lam),
        (0, 2): -e(1).scale(lam),
        (1, 2): -e(0).scale(two),
    }
    for i in range(3):
        for j in range(3):
            got = at((i, j))
            if i == j:
                assert got.is_zero()
                continue
            want = expected.get((i, j))
            if want is None:
                want = -expected[(j, i)]
            assert (got - want).is_zero(), (i, j, got)


def test_curvature_table(fam):
    """R(E2,E3)E2 = -2 E3 and R(E2,E3)E3 = 2 E2 are the only nonzero values

    up to antisymmetry in the first pair, independent of the parameter."""
    m, at = fam.m, fam.vector_at(fam.pkg.curv.table)
    two = Scalar.constant(m.params, 2)
    e = m.basis
    for i in range(3):
        for j in range(3):
            for k in range(3):
                got = at((i, j, k))
                if (i, j, k) == (1, 2, 1):
                    assert (got + e(2).scale(two)).is_zero()
                elif (i, j, k) == (2, 1, 1):
                    assert (got - e(2).scale(two)).is_zero()
                elif (i, j, k) == (1, 2, 2):
                    assert (got - e(1).scale(two)).is_zero()
                elif (i, j, k) == (2, 1, 2):
                    assert (got + e(1).scale(two)).is_zero()
                else:
                    assert got.is_zero(), (i, j, k, got)


def test_ricci_and_scalar(fam):
    m = fam.m
    two = Scalar.constant(m.params, 2)
    for i in range(3):
        for j in range(3):
            val = fam.pkg.ricci.components[i][j]
            if i == j and i > 0:
                assert val == two
            else:
                assert val.is_zero(), (i, j, val)
    assert fam.pkg.tau == Scalar.constant(m.params, 4)


def test_suite_symbolic(fam):
    report = verify_gtw_suite(fam)
    assert not report.has_failures
    statuses = {c.name: c.status for c in report.checks}
    assert sum(1 for v in statuses.values() if v == "holds") == 23
    nas = sorted(n for n, v in statuses.items() if v == "not_applicable")
    assert nas == [
        "gtw.curvature_closed_form_crosscheck",
        "gtw.h_derivative_relation_reference_form",
        "gtw.pair_interchange_crosscheck",
        "gtw.torsion_closed_form_reference_form",
    ]
    # frozen witnesses for the informational entries
    href = report.by_name("gtw.h_derivative_relation_reference_form")
    assert href.witness == {"indices": [1, 2], "residual": "(lambda-1)*E3"}
    tref = report.by_name("gtw.torsion_closed_form_reference_form")
    assert tref.witness == {"indices": [1, 2], "residual": "E3"}


def test_closed_form_crosscheck_records_every_triple(fam):
    report = verify_gtw_suite(fam)
    check = report.by_name("gtw.curvature_closed_form_crosscheck")
    assert check.status == "not_applicable"
    w = check.witness
    assert w["agrees"] + len(w["differs"]) == 27
    assert w["differs"] == ["2,3,2", "2,3,3", "3,2,2", "3,2,3"]
    assert w["first_residual_at"] == [2, 3, 2]
    assert w["first_residual"] == "(-2*lambda-2)*E3"
    # the corrected difference-bracket presentation holds outright
    assert report.by_name("gtw.curvature_closed_form").status == "holds"


def test_pair_interchange_crosscheck_records_every_tuple(fam):
    report = verify_gtw_suite(fam)
    check = report.by_name("gtw.pair_interchange_crosscheck")
    assert check.status == "not_applicable"
    w = check.witness
    assert w["agrees"] + len(w["differs"]) == 81
    assert len(w["differs"]) == 6
    assert w["first_residual_at"] == [2, 2, 3, 3]
    assert w["first_residual"] == "-4*lambda"


def test_cyclic_sum_crosscheck_holds(fam):
    report = verify_gtw_suite(fam)
    check = report.by_name("gtw.cyclic_sum_crosscheck")
    assert check.status == "holds"
    assert check.witness == {"agrees": 27, "differs": []}


def test_suite_sasakian_member(fam0):
    report = verify_gtw_suite(fam0)
    assert not report.has_failures
    statuses = {c.name: c.status for c in report.checks}
    assert sum(1 for v in statuses.values() if v == "holds") == 23
    # the parameter-proportional interchange defects vanish at 0 but four
    # parameter-free ones remain
    check = report.by_name("gtw.pair_interchange_crosscheck")
    assert check.status == "not_applicable"
    assert len(check.witness["differs"]) == 4
    assert check.witness["first_residual"] == "-4"


# each crosscheck and the arity of the basis tuples it records
CROSSCHECKS = (
    ("gtw.curvature_closed_form_crosscheck", 3),
    ("gtw.pair_interchange_crosscheck", 4),
    ("gtw.cyclic_sum_crosscheck", 3),
)


@pytest.mark.parametrize("name", ["fam", "fam0", "heisenberg5", "t1e4"])
def test_crosscheck_witness_accounts_for_every_tuple(request, name):
    """The compact witness counts the agreeing tuples and names the differing
    ones, each once and in row-major order; the first of them is the first
    residual's, and the crosscheck holds exactly when none differs.  Run on
    the lambda family (symbolic and at 0), H^5 and T_1E^4."""
    if name.startswith("fam"):
        x = request.getfixturevalue(name)
    else:
        x = Instance(*load_manifest_file(str(MANIFESTS / f"{name}.json")))
    report = verify_gtw_suite(x)
    for check_name, arity in CROSSCHECKS:
        check = report.by_name(check_name)
        w = check.witness
        assert w["agrees"] + len(w["differs"]) == x.m.dim**arity, check_name
        tuples = [tuple(int(i) for i in t.split(",")) for t in w["differs"]]
        assert all(len(t) == arity for t in tuples)
        assert tuples == sorted(set(tuples)), check_name
        assert (check.status == "holds") == (w["differs"] == []), check_name
        if tuples:
            assert tuple(w["first_residual_at"]) == tuples[0]
        else:
            assert "first_residual_at" not in w


def test_space_form_decomposition(fam):
    coeffs = gssf_decompose(fam.templates, fam.pkg.curv)
    assert coeffs is not None
    one = Scalar.one(fam.m.params)
    third = Scalar.constant(fam.m.params, Fraction(1, 3))
    assert coeffs.F1 == one
    assert coeffs.F2 == third
    assert coeffs.F3 == one
    assert coeffs.free == ("F3",)


def test_space_form_decomposition_sasakian(fam0):
    coeffs = gssf_decompose(fam0.templates, fam0.pkg.curv)
    assert coeffs is not None
    assert coeffs.F1 == fam0.m.constant(1)
    assert coeffs.F2 == fam0.m.constant(Fraction(1, 3))
    assert coeffs.F3 == fam0.m.constant(1)
    assert coeffs.free == ("F3",)


def test_all_ones_is_not_a_solution(fam):
    """Substituting (1, 1, 1) into the decomposition template leaves a

    nonzero residual against the computed curvature, so the solver's
    (1, 1/3, 1) answer is not an artifact of the free column."""
    m, curv = fam.m, fam.vector_at(fam.pkg.curv.table)
    templates = [fam.vector_at(t.table) for t in fam.templates]
    one = m.one_scalar()
    bad = None
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t1, t2, t3 = (t((i, j, k)) for t in templates)
                combo = t1.scale(one) + t2.scale(one) + t3.scale(one)
                residual = curv((i, j, k)) - combo
                if not residual.is_zero():
                    bad = (i, j, k, residual)
                    break
            if bad:
                break
        if bad:
            break
    assert bad is not None


def test_space_form_solution_set_matches_sympy_oracle():
    """sympy, from first principles, solves the space-form template at
    parameter 0 to the line F1 = F3, F1 + 3 F2 = 2, and (1, 1, 1) leaves
    residuals of +-2 on four components."""
    sp = pytest.importorskip("sympy")
    import sympy_oracle as oracle

    d = oracle.build_all(0)
    f1, f2, f3 = sp.symbols("F1 F2 F3")
    eqs = oracle.space_form_equations(d["phi"], d["r_gt"], (f1, f2, f3))
    solutions = sp.linsolve(eqs, [f1, f2, f3])
    assert solutions == sp.FiniteSet((f3, sp.Rational(2, 3) - f3 / 3, f3))
    residuals = [eq.subs({f1: 1, f2: 1, f3: 1}) for eq in eqs]
    assert sorted(r for r in residuals if r != 0) == [-2, -2, 2, 2]


def test_eta_einstein_fit(fam):
    fit = eta_einstein_fit(fam.m, fam.s, fam.pkg.ricci)
    assert fit is not None
    a_coeff, b_coeff = fit
    assert a_coeff == fam.m.constant(2)
    assert b_coeff == fam.m.constant(-2)


def test_scalar_curvature_relation(fam):
    """tau - ring = tau_lc + (extra terms); on this family the difference of

    the two scalar curvatures is 2 + 2 lambda^2."""
    m = fam.m
    lam = _lam(m)
    two = Scalar.constant(m.params, 2)
    lc_tau = two - two * lam * lam
    assert fam.pkg.tau - lc_tau == two + two * lam * lam
