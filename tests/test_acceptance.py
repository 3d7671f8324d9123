"""Acceptance gate: one printed pass/fail line per criterion, exact equality.

Each criterion prints its verdict directly to the real stdout so the line
survives pytest's capture, then asserts.  A failing criterion is therefore
visible both as a FAIL line and as a failing test.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import conftest

from contactframe import (
    boeckx_invariant,
    dhomothetic_invariants,
    gssf_decompose,
    make_lambda_family,
    verify_concircular_suite,
    verify_gtw_suite,
    verify_nkappa_suite,
)
from contactframe.frames import FrameManifold, FrameVector
from contactframe.scalars import Scalar
from vector_reference import apply, bracket, tensor_dot_form, tensor_dot_tensor

LAMBDA = "manifests/lambda_family.json"


def _record(num: int, label: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance {num}] {verdict}: {label}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} failed: {label}"


def _lam(m):
    return Scalar.variable(m.params, "lambda")


def test_criterion_1_golden_torsionful_tables(fam):
    m = fam.m
    e = m.basis
    two = Scalar.constant(m.params, 2)
    ok = True
    conn, curv = fam.vector_at(fam.pkg.conn.table), fam.vector_at(fam.pkg.curv.table)
    # connection table: exactly two nonzero derivatives, parameter-free
    for i in range(3):
        for j in range(3):
            got = conn((i, j))
            if (i, j) == (0, 1):
                ok = ok and (got - e(2)).is_zero()
            elif (i, j) == (0, 2):
                ok = ok and (got + e(1)).is_zero()
            else:
                ok = ok and got.is_zero()
    # curvature table
    for i in range(3):
        for j in range(3):
            for k in range(3):
                got = curv((i, j, k))
                want = {
                    (1, 2, 1): -e(2).scale(two),
                    (2, 1, 1): e(2).scale(two),
                    (1, 2, 2): e(1).scale(two),
                    (2, 1, 2): -e(1).scale(two),
                }.get((i, j, k))
                if want is None:
                    ok = ok and got.is_zero()
                else:
                    ok = ok and (got - want).is_zero()
    # ricci diagonal (0, 2, 2) and scalar curvature 4, symbolically
    for i in range(3):
        for j in range(3):
            val = fam.pkg.ricci.components[i][j]
            if i == j and i > 0:
                ok = ok and val == two
            else:
                ok = ok and val.is_zero()
    ok = ok and fam.pkg.tau == Scalar.constant(m.params, 4)
    _record(1, "torsionful connection/curvature/ricci tables, symbolically", ok)


def test_criterion_2_levi_civita_and_nullity_constant(fam):
    m, lc = fam.m, fam.vector_at(fam.lc.table)
    lam = _lam(m)
    one = Scalar.one(m.params)
    e = m.basis
    expected = {
        (1, 0): -e(2).scale(one + lam),
        (1, 2): e(0).scale(one + lam),
        (2, 0): e(1).scale(one - lam),
        (2, 1): -e(0).scale(one - lam),
    }
    ok = True
    for i in range(3):
        for j in range(3):
            got = lc((i, j))
            want = expected.get((i, j))
            ok = ok and (got.is_zero() if want is None else (got - want).is_zero())
    h = fam.h
    ok = ok and h.apply(e(0)).is_zero()
    ok = ok and (h.apply(e(1)) - e(1).scale(lam)).is_zero()
    ok = ok and (h.apply(e(2)) + e(2).scale(lam)).is_zero()
    ok = ok and fam.kappa == one - lam * lam
    _record(2, "Levi-Civita table, h eigenvalues, detected nullity constant", ok)


def test_criterion_3_identity_suites_hold_symbolically(fam):
    nk = verify_nkappa_suite(fam)
    gt = verify_gtw_suite(fam)
    cc = verify_concircular_suite(fam)
    ok = not (nk.has_failures or gt.has_failures or cc.has_failures)
    must_hold = [
        (nk, (
            "nkappa.xi_covariant_derivative",
            "nkappa.phi_covariant_derivative",
            "nkappa.h_square",
            "nkappa.h_covariant_derivative",
            "nkappa.eta_covariant_derivative",
            "nkappa.curvature_xi_xi",
            "nkappa.curvature_pair_xi",
            "nkappa.curvature_xi_argument",
            "nkappa.ricci_closed_form",
            "nkappa.ricci_xi_values",
            "nkappa.scalar_curvature_value",
        )),
        (gt, (
            "gtw.metric_parallel",
            "gtw.xi_parallel",
            "gtw.eta_parallel",
            "gtw.phi_parallel",
            "gtw.curvature_first_pair_antisymmetry",
            "gtw.curvature_last_pair_antisymmetry",
            "gtw.curvature_xi_pair",
            "gtw.curvature_xi_first",
            "gtw.curvature_xi_double",
            "gtw.ricci_closed_form",
            "gtw.ricci_alternative_form",
            "gtw.ricci_xi_degenerate",
            "gtw.scalar_curvature_value",
            "gtw.scalar_curvature_relation",
        )),
        (cc, (
            "conc.xi_double_contraction",
            "conc.xi_pair",
            "conc.xi_argument",
            "conc.eta_contraction",
        )),
    ]
    for report, names in must_hold:
        for name in names:
            ok = ok and report.by_name(name).status == "holds"
    _record(3, "identity suites hold exactly on the symbolic family", ok)


def test_criterion_4_space_form_coefficients_all_one(fam0):
    """The space-form template F1 R1 + F2 R2 + F3 R3 reproduces the
    torsionful curvature of the parameter-0 member exactly on the line
    F1 = F3, F1 + 3 F2 = 2; the solver reports F3 as its one free coefficient.

    The all-ones triple that the source paper states is refuted: contracting
    the template gives tau = 2n(2n+1) F1 + 6n F2 - 4n F3, which is
    4n^2 + 4n at (1, 1, 1) while criterion 6 pins tau = 4n^2.  Every point is
    checked by substitution into the template on all basis triples, so the
    verdict does not rest on the linear solver.
    """
    m, curv = fam0.m, fam0.vector_at(fam0.pkg.curv.table)  # (i, j, k) -> R(E_i, E_j)E_k
    n, e, c = m.n, m.basis, m.constant
    templates = [fam0.vector_at(t.table) for t in fam0.templates]

    def template(coeffs, i, j, k):
        t1, t2, t3 = (t((i, j, k)) for t in templates)
        return t1.scale(coeffs[0]) + t2.scale(coeffs[1]) + t3.scale(coeffs[2])

    def residuals(coeffs):
        out = {}
        for i, j, k in itertools.product(range(m.dim), repeat=3):
            r = curv((i, j, k)) - template(coeffs, i, j, k)
            if not r.is_zero():
                out[(i, j, k)] = r
        return out

    def template_tau(coeffs):
        # tau = sum over i, j of g(R(E_j, E_i) E_i, E_j), on the template
        total = m.zero_scalar()
        for i in range(m.dim):
            for j in range(m.dim):
                total = total + template(coeffs, j, i, i).components[j]
        return total

    def closed_tau(coeffs):
        f1, f2, f3 = coeffs
        return c(2 * n * (2 * n + 1)) * f1 + c(6 * n) * f2 - c(4 * n) * f3

    line = [(c(1), c(Fraction(1, 3)), c(1)), (c(2), c(0), c(2))]
    ok = True
    for coeffs in line:
        ok = ok and residuals(coeffs) == {}
        ok = ok and template_tau(coeffs) == closed_tau(coeffs) == fam0.pkg.tau == c(4)

    all_ones = (c(1), c(1), c(1))
    two = c(2)
    # 0-based keys: (1, 2, 1) is (E2, E3, E2), and E1 = xi
    want = {
        (1, 2, 1): e(2).scale(two),
        (2, 1, 1): -e(2).scale(two),
        (1, 2, 2): -e(1).scale(two),
        (2, 1, 2): e(1).scale(two),
    }
    got = residuals(all_ones)
    ok = ok and got.keys() == want.keys()
    ok = ok and all((got[t] - want[t]).is_zero() for t in want)
    ok = ok and template_tau(all_ones) == closed_tau(all_ones) == c(8)
    ok = ok and template_tau(all_ones) != fam0.pkg.tau

    coeffs = gssf_decompose(fam0.templates, fam0.pkg.curv)
    ok = ok and coeffs is not None
    ok = ok and (coeffs.F1, coeffs.F2, coeffs.F3) == line[0]
    ok = ok and coeffs.free == ("F3",)
    _record(
        4,
        "space-form solutions of the parameter-0 member are exactly "
        "{F1 = F3, F1 + 3 F2 = 2}; the paper's all-ones triple is refuted: "
        "it leaves curvature - template = 2 E3 at (E2, E3, E2) and -2 E2 at "
        "(E2, E3, E3), and its template scalar curvature 4n^2 + 4n = 8 "
        "contradicts the computed 4n^2 = 4",
        ok,
    )


def test_criterion_5_nonvanishing_obstructions(fam):
    m, z, s = fam.m, fam.z, fam.s
    e = m.basis
    got = apply(z, e(1), e(0), s.xi)
    want = e(1).scale(m.constant(Fraction(-2, 3)))
    ok = (got - want).is_zero() and not got.is_zero()
    val = tensor_dot_form(m, z, fam.pkg.ricci, s.xi, e(1), e(1), s.xi)
    ok = ok and val == m.constant(Fraction(4, 3)) and not val.is_zero()
    tt = tensor_dot_tensor(m, z, z, s.xi, e(1), e(0), e(2), e(1))
    ok = ok and (tt - e(2).scale(m.constant(Fraction(4, 3)))).is_zero()
    ok = ok and not tt.is_zero()
    _record(5, "concircular flatness obstructions are exactly nonzero", ok)


def test_criterion_6_scalar_curvature_is_4n_squared(fam):
    n = fam.m.n
    ok = fam.pkg.tau == fam.m.constant(4 * n * n)
    for lam_value in (Fraction(0), Fraction(1, 2), Fraction(2)):
        x = conftest.family_instance(lam_value)
        ok = ok and x.pkg.tau == x.m.constant(4 * x.m.n * x.m.n)
    _record(6, "torsionful scalar curvature equals 4n^2, symbolic and rational", ok)


def test_criterion_7_crosschecks_recorded_and_deterministic(fam):
    first = verify_gtw_suite(fam)
    second = verify_gtw_suite(fam)
    ok = True
    for name, entries in (
        ("gtw.curvature_closed_form_crosscheck", 27),
        ("gtw.pair_interchange_crosscheck", 81),
        ("gtw.cyclic_sum_crosscheck", 27),
    ):
        a, b = first.by_name(name), second.by_name(name)
        ok = ok and a.witness is not None and b.witness is not None
        # every tuple is accounted for: the agreeing ones by count, the
        # differing ones by name
        ok = ok and a.witness["agrees"] + len(a.witness["differs"]) == entries
        ok = ok and all(isinstance(t, str) for t in a.witness["differs"])
        ok = ok and a.witness == b.witness and a.status == b.status
    _record(7, "per-tuple cross-check reports exist and are deterministic", ok)


def test_criterion_8_randomized_laws_and_byte_identical_output():
    rng = random.Random(20260819)
    params = ("x", "y")

    def rand_scalar():
        s = Scalar.zero(params)
        for _ in range(rng.randint(0, 4)):
            term = Scalar.constant(params, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            for name in params:
                term = term * Scalar.variable(params, name) ** rng.randint(0, 3)
            s = s + term
        return s

    ok = True
    for _ in range(100):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        ok = ok and (a + b) * c == a * c + b * c
        ok = ok and a * (b * c) == (a * b) * c
        ok = ok and a + b == b + a
        point = {name: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for name in params}
        ok = ok and (a * b + c).substitute(point) == a.substitute(point) * b.substitute(
            point
        ) + c.substitute(point)

    entry = make_lambda_family()
    m = entry.manifold
    for _ in range(100):
        def rand_vec():
            return FrameVector(
                tuple(m.constant(Fraction(rng.randint(-5, 5))) for _ in range(3))
            )

        x, y, z = rand_vec(), rand_vec(), rand_vec()
        s = Scalar.constant(m.params, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        ok = ok and (bracket(m, x + y, z) - bracket(m, x, z) - bracket(m, y, z)).is_zero()
        ok = ok and (bracket(m, x.scale(s), y) - bracket(m, x, y).scale(s)).is_zero()
        ok = ok and (bracket(m, x, y) + bracket(m, y, x)).is_zero()

    runs = [
        subprocess.run(
            [sys.executable, "-m", "contactframe", "verify", LAMBDA, "--format", "json"],
            capture_output=True,
            text=True,
        )
        for _ in range(2)
    ]
    ok = ok and runs[0].returncode == 0
    ok = ok and runs[0].stdout == runs[1].stdout and runs[0].stdout.strip()
    json.loads(runs[0].stdout)
    _record(8, "randomized algebra laws (100 cases) and byte-identical reruns", ok)


def test_criterion_9_invariants_exact():
    b = boeckx_invariant(Fraction(3, 4), Fraction(0))
    ok = b.is_exact and b.value == Fraction(2)
    kappa, mu = Fraction(5, 9), Fraction(-2, 3)
    k_bar, mu_bar = dhomothetic_invariants(kappa, mu, Fraction(1))
    ok = ok and k_bar == Scalar.constant((), kappa) and mu_bar == Scalar.constant((), mu)
    _record(9, "classification invariant and identity deformation are exact", ok)
