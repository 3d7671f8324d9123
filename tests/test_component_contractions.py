"""The component contractions the residual scans read, held to the vector-level
operators they replace on every basis tuple: the xi-slot tables
(``Curvature4Tensor.xi_table``) against the trilinear apply of
``tests/vector_reference.py``, the covariant derivative of
an endomorphism against its column formula, and the curvature closed form's
table, the R1(xi, X + hX)Y table and the g(hE_i, phi E_j) table against
scale-and-subtract and inner products on frame vectors.  The
structural layer's two kernels, the Lie derivative of an endomorphism and the
Jacobi cyclic sum, are held to their forms through the vector-level ``bracket``,
also on the dense random frame ``manifests/random5_t.json``.  Every table of
an operator or form that an instance derives (h, phi h, I + h, phi + phi h,
g(hE_i, phi E_j), g(E_i + hE_i, phi E_j) and both Ricci forms) is held to the
nonzero entries of its dense reference, on every committed manifest and on
the Heisenberg ladder H^3 to H^9.

Besides the instances with xi = E1, one lambda member is written in a frame
turned by the rational rotation (3/5, 4/5) in the E1-E2 plane, so that xi has
two nonzero components.

Frame-change invariance: the symbolic lambda family, the (kappa, mu)-space
``manifests/kmu3.json``, H^5 and T1E4 are turned by the Cayley transform of a
seeded rational skew matrix, which makes xi and eta fully dense, and every
row's status and the classification must equal the unturned run's."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest

from contactframe import (
    AlmostContactData,
    Endomorphism,
    FrameManifold,
    FrameVector,
    Instance,
    Scalar,
    load_manifest_file,
    make_heisenberg,
    make_lambda_family,
    run_suite,
)
from contactframe.curvature import torsion_table
from contactframe.report import VerificationReport, first_witness
from contactframe.tables import sum_table
from contactframe.suite import CATALOGUE
from contactframe.tanaka_webster import closed_form_table
from vector_reference import (
    apply, bracket, column, contact_operators, dense_ricci, derivative, gtw_gamma, inner,
    inner_basis, koszul, nonzero,
)

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

XI_SLOTS = [(0,), (1,), (2,), (1, 2)]


def _instance(m: FrameManifold, s: AlmostContactData) -> Instance:
    return Instance(m, s)


def _rotated(
    m: FrameManifold, s: AlmostContactData, q: list[list[Fraction]]
) -> tuple[FrameManifold, AlmostContactData]:
    """The same structure in the frame F_a = sum_i q_ai E_i, q a rational
    orthogonal matrix: c'_ab^d = q_ai q_bj c_ij^k q_dk, phi' = q phi q^T."""
    idx, zero = range(m.dim), m.zero_scalar()

    def combine(terms) -> Scalar:
        """The sum of w * value over the pairs (w, value)."""
        return sum((value.scale(w) for w, value in terms if w), zero)

    c = tuple(
        tuple(
            tuple(
                combine(
                    (q[a][i] * q[b][j] * q[d][k], m.c[i][j][k])
                    for i, j, k in product(idx, repeat=3)
                )
                for d in idx
            )
            for b in idx
        )
        for a in idx
    )
    phi = Endomorphism(
        tuple(
            tuple(
                combine((q[a][i] * q[b][j], s.phi.matrix[i][j]) for i, j in product(idx, repeat=2))
                for b in idx
            )
            for a in idx
        )
    )

    def turn(v: FrameVector) -> FrameVector:
        return FrameVector(tuple(combine((q[a][i], v.components[i]) for i in idx) for a in idx))

    return FrameManifold(m.dim, m.params, c), AlmostContactData(phi, turn(s.xi), turn(s.eta))


def _plane_rotation(dim: int) -> list[list[Fraction]]:
    """The rotation (3/5, 4/5) in the E1-E2 plane."""
    q = [[Fraction(int(a == i)) for i in range(dim)] for a in range(dim)]
    q[0][:2], q[1][:2] = [Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]
    return q


def _cayley_rotation(dim: int, seed: int) -> list[list[Fraction]]:
    """The Cayley transform (I - S)(I + S)^-1 of a seeded rational skew S: a
    rational orthogonal matrix, dense for a dense S."""
    rng = Random(seed)
    s = [[Fraction(0)] * dim for _ in range(dim)]
    for a, b in combinations(range(dim), 2):
        s[a][b] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4)))
        s[b][a] = -s[a][b]
    eye = [[Fraction(int(a == b)) for b in range(dim)] for a in range(dim)]
    minus = [[eye[a][b] - s[a][b] for b in range(dim)] for a in range(dim)]
    # (I + S)^-1 by Gauss-Jordan on [I + S | I]; I + S is invertible for skew S
    aug = [[eye[a][b] + s[a][b] for b in range(dim)] + eye[a] for a in range(dim)]
    for col in range(dim):
        pivot = next(r for r in range(col, dim) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(dim):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    inv = [row[dim:] for row in aug]
    q = [[sum(minus[a][k] * inv[k][b] for k in range(dim)) for b in range(dim)] for a in range(dim)]
    assert all(
        sum(q[a][k] * q[b][k] for k in range(dim)) == int(a == b)
        for a, b in product(range(dim), repeat=2)
    )
    return q


def _build(name: str) -> Instance:
    """A committed manifest ("t1e4.json"), H^{2n+1} ("H5"), a lambda member
    ("lambda_symbolic", "lambda_0", "lambda_1/2"), or one of these turned by
    the Cayley rotation of a seed ("t1e4.json@3"); "lambda_1/2_rotated" is
    lambda = 1/2 turned in the E1-E2 plane."""
    if "@" in name:
        name, seed = name.split("@")
        x = _build(name)
        return _instance(*_rotated(x.m, x.s, _cayley_rotation(x.m.dim, int(seed))))
    if name.endswith(".json"):
        return _instance(*load_manifest_file(str(MANIFESTS / name)))
    if name.startswith("H"):
        entry = make_heisenberg((int(name[1:]) - 1) // 2)
        return _instance(entry.manifold, entry.structure)
    if name == "lambda_1/2_rotated":
        entry = make_lambda_family(Fraction(1, 2))
        m, s = entry.manifold, entry.structure
        x = _instance(*_rotated(m, s, _plane_rotation(m.dim)))
        # a valid N(kappa) instance whose xi is not a frame vector
        assert not x.structural_report.has_failures
        assert x.kappa == x.m.constant(Fraction(3, 4))
        assert sum(1 for c in x.s.xi.components if c.terms) == 2
        return x
    value = name.removeprefix("lambda_")
    entry = make_lambda_family(None if value == "symbolic" else Fraction(value))
    return _instance(entry.manifold, entry.structure)


NAMES = ["lambda_symbolic", "heisenberg5.json", "t1e4.json", "lambda_1/2_rotated"]


@pytest.fixture(scope="module", params=NAMES)
def x(request) -> Instance:
    return _build(request.param)


@pytest.fixture(scope="module", params=NAMES + ["random5_t.json"])
def structural(request) -> Instance:
    """The instances above and a dense frame that fails Jacobi and acm."""
    return _build(request.param)


def _with_xi(x: Instance, xi_at: tuple[int, ...], frame: tuple[int, ...]) -> list[FrameVector]:
    it = iter(frame)
    return [x.s.xi if slot in xi_at else x.m.basis(next(it)) for slot in range(3)]


@pytest.mark.parametrize("xi_at", XI_SLOTS)
def test_xi_contraction_matches_the_trilinear_apply(x, xi_at):
    """Each xi table holds exactly the nonzero components of the apply, and
    a second read returns the same table."""
    for t in (x.r, x.templates[0], x.pkg.curv, x.z):
        table = t.xi_table(x.s.xi, xi_at)
        assert t.xi_table(x.s.xi, xi_at) is table
        want = {}
        for frame in product(range(x.m.dim), repeat=3 - len(xi_at)):
            value = apply(t, *_with_xi(x, xi_at, frame))
            want.update((frame + (p,), c) for p, c in enumerate(value.components) if c.terms)
        assert table == want, xi_at


def test_derivative_table_matches_the_column_formula(x):
    m = x.m
    for (name, conn), a in product((("lc", x.lc), ("gtw", x.pkg.conn)), (x.s.phi, x.h)):
        got = m.vector_at(conn.derivative_table(a))
        for i in range(m.dim):
            for j in range(m.dim):
                want = derivative(conn, i, column(a, j)) - a.apply(derivative(conn, i, m.basis(j)))
                assert got((i, j)) == want, (name, i, j)


def test_closed_form_table_and_r1_xi_match_the_vector_forms(x):
    """The closed form's table (once ``x.curvature_defect`` plus the final
    bracket) holds exactly the nonzero components of curv - R - kappa R3
    - g(E_i + hE_i, phi E_k)(phi + phi h)E_j + g(E_j + hE_j, phi E_k)(phi + phi h)E_i
    - [g(E_i, (phi + phi h)E_j) - g(E_j, (phi + phi h)E_i)] phi E_k, the
    products ``x.r1_xi(c)`` sum to the nonzero components of
    c R1(xi, E_i + hE_i)E_j, and the cached g(hE_i, phi E_j) and
    g(E_i + hE_i, phi E_j) are the inner products."""
    m, phi, kappa = x.m, x.s.phi, x.kappa
    r1, r3 = x.templates[0], x.templates[2]
    idx = range(m.dim)
    xh = [m.basis(i) + column(x.h, i) for i in idx]
    v = [column(phi, i) + column(x.phi_h, i) for i in idx]
    three = m.constant(3)
    r1_xi = sum_table(m.params, x.r1_xi(three))
    for i, j in product(range(m.dim), repeat=2):
        want = apply(r1, x.s.xi, xh[i], m.basis(j)).scale(3)
        got = tuple(r1_xi.get((i, j, p)) for p in range(m.dim))
        assert got == tuple(c if c.terms else None for c in want.components), (i, j)
        assert x.h_phi.get((i, j), m.zero_scalar()) == inner(m, column(x.h, i), column(phi, j))
        assert x.xh_phi.get((i, j), m.zero_scalar()) == inner(m, xh[i], column(phi, j)), (i, j)
    table = x.kept(closed_form_table)
    curv, r, r3 = (x.m.vector_at(t.table) for t in (x.pkg.curv, x.r, r3))
    for i, j, k in product(range(m.dim), repeat=3):
        bracket = v[j].components[i] - v[i].components[j]
        want = (
            curv((i, j, k))
            - r((i, j, k))
            - r3((i, j, k)).scale(kappa)
            - v[j].scale(inner(m, xh[i], column(phi, k)))
            + v[i].scale(inner(m, xh[j], column(phi, k)))
            - column(phi, k).scale(bracket)
        )
        got = tuple(table.get((i, j, k, p)) for p in range(m.dim))
        assert got == tuple(c if c.terms else None for c in want.components), (i, j, k)


# every committed manifest, the Heisenberg ladder and the symbolic lambda family
TABLE_INPUTS = [
    "abelian3.json", "heisenberg5.json", "kmu3.json", "lambda_family.json", "random5.json",
    "random5_t.json", "t1e4.json", "H3", "H5", "H7", "H9", "lambda_symbolic",
]


@pytest.mark.parametrize("name", TABLE_INPUTS)
def test_instance_tables_hold_only_nonzero_entries(name):
    """No table an instance exposes holds a zero value: ``table_scan`` reads a
    table's least index as its witness, so a stored zero would be a false
    witness.  Each table is exactly the nonzero entries of its dense
    reference: h, phi h, I + h and phi + phi h, g(hE_i, phi E_j) and
    g(E_i + hE_i, phi E_j), and the Ricci forms of both connections (the
    torsionful one builds on each of these inputs, gated or not)."""
    x = _build(name)
    m, ref, gamma = x.m, contact_operators(x.m, x.s), koszul(x.m)
    tables = {
        "h": (x.h.table, ref["h"]),
        "phi_h": (x.phi_h.table, ref["phi_h"]),
        "x_plus_hx": (x.x_plus_hx.table, ref["x_plus_hx"]),
        "phi_x_plus_hx": (x.phi_x_plus_hx.table, ref["phi_x_plus_hx"]),
        "h_phi": (x.h_phi, ref["h_phi"]),
        "xh_phi": (x.xh_phi, ref["xh_phi"]),
        "ricci": (x.ricci.table, dense_ricci(m, gamma)),
        "pkg.ricci": (x.pkg.ricci.table, dense_ricci(m, gtw_gamma(m, x.s, gamma))),
    }
    for label, (table, rows) in tables.items():
        assert all(v.terms for v in table.values()), (label, "holds a zero")
        assert table == nonzero(rows), label


# -- the vector rows over pairs of frame vectors ---------------------------------

ROWS = dict(CATALOGUE)

# the rows whose residual is a vector over one or two frame vectors
VECTOR_ROWS = (
    "nkappa.xi_covariant_derivative",
    "nkappa.xi_covariant_derivative_reference_form",
    "nkappa.phi_covariant_derivative",
    "nkappa.h_covariant_derivative",
    "gtw.xi_parallel",
    "gtw.phi_derivative_relation",
    "gtw.phi_parallel",
    "gtw.h_derivative_relation",
    "gtw.h_derivative_relation_reference_form",
    "gtw.torsion_nonzero",
    "gtw.torsion_closed_form",
    "gtw.torsion_closed_form_reference_form",
)

# every ungated committed manifest, H^3 to H^7, the lambda members and the
# turned inputs of this module; kmu3 is gated (no single kappa)
UNGATED = [
    "heisenberg5.json", "lambda_family.json", "t1e4.json", "H3", "H5", "H7",
    "lambda_symbolic", "lambda_0", "lambda_1/2", "lambda_1/2_rotated",
    "lambda_symbolic@1", "lambda_symbolic@3", "heisenberg5.json@1", "heisenberg5.json@3",
    "t1e4.json@3",
]
GATED = ["abelian3.json", "kmu3.json", "random5.json", "random5_t.json", "kmu3.json@3"]


def _dense_vector_residuals(x: Instance) -> dict:
    """Row name -> (arity, residual): each vector row's residual evaluated on
    one basis tuple with frame-vector arithmetic and inner products, as the
    rows computed it before they became tables.  The torsion is
    nabla_{E_i} E_j - nabla_{E_j} E_i - [E_i, E_j] of ``x.pkg.conn``."""
    m, h, phi, phi_h, xi = x.m, x.h, x.s.phi, x.phi_h, x.s.xi
    idx, g, eta = range(m.dim), partial(inner, m), x.s.eta.components
    e = [m.basis(i) for i in idx]
    xh = [e[i] + column(h, i) for i in idx]
    v = [column(phi, i) + column(phi_h, i) for i in idx]
    kappa_minus_1 = x.kappa - m.one_scalar()
    dh = m.vector_at(x.lc.derivative_table(h))
    dphi_lc, dphi_gtw, dh_gtw = (m.vector_at(t) for t in (x.dphi_lc, x.dphi_gtw, x.dh_gtw))
    conn = x.pkg.conn

    def r1_xi(i: int, j: int) -> FrameVector:
        return apply(x.templates[0], xi, xh[i], e[j])

    def torsion(i: int, j: int) -> FrameVector:
        return derivative(conn, i, e[j]) - derivative(conn, j, e[i]) - m.bracket_basis(i, j)

    def torsion_closed_form(w: list[FrameVector]):
        return lambda i, j: (
            torsion(i, j)
            - xi.scale(g(xh[i], column(phi, j)) - g(xh[j], column(phi, i)))
            - w[i].scale(eta[j])
            + w[j].scale(eta[i])
        )

    return {
        "nkappa.xi_covariant_derivative": (
            1, lambda i: derivative(x.lc, i, xi) + column(phi, i) + column(phi_h, i)
        ),
        "nkappa.xi_covariant_derivative_reference_form": (
            1, lambda i: derivative(x.lc, i, xi) + column(phi, i) + column(h, i)
        ),
        "nkappa.phi_covariant_derivative": (
            2, lambda i, j: dphi_lc((i, j)) - r1_xi(i, j)
        ),
        "nkappa.h_covariant_derivative": (
            2,
            lambda i, j: dh((i, j))
            + xi.scale(kappa_minus_1 * g(e[i], column(phi, j)) - g(column(h, i), column(phi, j)))
            - h.apply(v[i]).scale(eta[j]),
        ),
        "gtw.xi_parallel": (1, lambda i: derivative(conn, i, xi)),
        "gtw.phi_derivative_relation": (
            2, lambda i, j: dphi_gtw((i, j)) - dphi_lc((i, j)) + r1_xi(i, j)
        ),
        "gtw.phi_parallel": (2, lambda i, j: dphi_gtw((i, j))),
        "gtw.h_derivative_relation": (
            2, lambda i, j: dh_gtw((i, j)) - column(phi_h, j).scale(eta[i]).scale(2)
        ),
        "gtw.h_derivative_relation_reference_form": (
            2,
            lambda i, j: dh_gtw((i, j))
            - xi.scale(kappa_minus_1 * g(column(phi, i), e[j]) + g(column(h, i), column(phi, j)))
            - v[j].scale(eta[i]),
        ),
        "gtw.torsion_nonzero": (2, torsion),
        "gtw.torsion_closed_form": (2, torsion_closed_form([column(phi_h, i) for i in idx])),
        "gtw.torsion_closed_form_reference_form": (2, torsion_closed_form(v)),
    }


def _dense_is_sasakian(x: Instance) -> bool:
    """acm holds and (nabla_{E_i} phi)E_j = g(E_i, E_j) xi - eta(E_j) E_i on every pair."""
    if x.acm_report.has_failures:
        return False
    m, eta = x.m, x.s.eta.components
    return (
        first_witness(
            product(range(m.dim), repeat=2),
            lambda i, j: m.vector_at(x.dphi_lc)((i, j))
            - x.s.xi.scale(inner_basis(m, i, j))
            + m.basis(i).scale(eta[j]),
        )
        is None
    )


def _vector_row_witnesses(x: Instance) -> dict:
    """Row name -> (the row's witness, the dense scan's witness)."""
    out, dense = {}, _dense_vector_residuals(x)
    assert tuple(dense) == VECTOR_ROWS
    for name, (arity, residual) in dense.items():
        report = VerificationReport()
        ROWS[name](report, name, x)
        (check,) = report.checks
        tuples = product(range(x.m.dim), repeat=arity)
        if name == "gtw.torsion_nonzero":
            # holds with the first nonzero torsion, fails when it vanishes
            want = first_witness(tuples, residual, "value") or {
                "residual": "torsion vanished identically"
            }
        else:
            want = first_witness(tuples, residual)
        out[name] = check.witness, want
    return out


@pytest.mark.parametrize("name", UNGATED)
def test_vector_rows_give_the_dense_witnesses(name):
    """Every vector row's witness (or its absence) is the row-major first
    witness of its dense per-tuple residual, and the classification's
    Sasakian test agrees with the dense scan."""
    x = _build(name)
    assert not x.gate_note
    for row, (got, want) in _vector_row_witnesses(x).items():
        assert got == want, row
    assert x.classification.is_Sasakian == _dense_is_sasakian(x)


@pytest.mark.parametrize("name", GATED)
def test_sasakian_test_on_gated_inputs(name):
    x = _build(name)
    assert x.gate_note
    assert x.classification.is_Sasakian == _dense_is_sasakian(x)


def _bumped(x: Instance, table: dict, index: tuple[int, int, int]) -> dict:
    """A copy of a derivative table with 1 added to its entry at index
    (i, j, p), the entry dropped when the sum is zero."""
    value = table.get(index, x.m.zero_scalar()) + x.m.one_scalar()
    bumped = {k: v for k, v in table.items() if k != index}
    if value.terms:
        bumped[index] = value
    return bumped


def _overridden(name: str, prop: str) -> Instance:
    """A fresh instance of ``name`` whose cached property ``prop`` is
    overridden (an artificial input, marked as such by the property's name):
    one entry of nabla phi (Levi-Civita) or of nabla h (torsionful) bumped by
    1, kappa + 1 in place of kappa, the torsionful connection in place of
    Levi-Civita ("lc"), or the Levi-Civita connection and its zero torsion in
    place of the torsionful package ("pkg").  kappa and the package are read
    first, so that no other override changes them."""
    x = _build(name)
    x.kappa, x.pkg
    if prop == "dphi_lc":
        x.__dict__["dphi_lc"] = _bumped(x, x.dphi_lc, (1, 2, 0))
    elif prop == "dh_gtw":
        x.__dict__["dh_gtw"] = _bumped(x, x.dh_gtw, (2, 0, 1))
    elif prop == "kappa":
        x.__dict__["kappa"] = x.kappa + x.m.one_scalar()
    elif prop == "lc":
        x.__dict__["lc"] = x.pkg.conn
    else:
        x.__dict__["pkg"] = replace(x.pkg, conn=x.lc, torsion=torsion_table(x.m, x.lc))
    return x


@pytest.mark.parametrize("name", ["heisenberg5.json", "lambda_symbolic", "t1e4.json"])
def test_vector_rows_give_the_dense_witnesses_where_they_fail(name):
    """On inputs with one overridden cached property the rows fail, and each
    failing witness is the dense scan's; every vector row fails on one of
    them, and the overridden Levi-Civita derivative of phi is not Sasakian."""
    failing = set()
    for prop in ("dphi_lc", "dh_gtw", "kappa", "lc", "pkg"):
        x = _overridden(name, prop)
        for row, (got, want) in _vector_row_witnesses(x).items():
            assert got == want, (prop, row)
            if got is not None and "residual" in got:
                failing.add(row)
        assert x.classification.is_Sasakian == _dense_is_sasakian(x)
        if prop in ("dphi_lc", "lc"):
            assert not x.classification.is_Sasakian
    assert failing == set(VECTOR_ROWS)


def test_lie_derive_endo_matches_the_bracket_form(structural):
    m = structural.m
    e = [m.basis(i) for i in range(m.dim)]
    two_components = e[0] - e[2].scale(2)
    for xi, a in product((e[0], two_components), (structural.s.phi, structural.h)):
        got = m.lie_derive_endo(xi, a)
        for j in range(m.dim):
            want = bracket(m, xi, column(a, j)) - a.apply(bracket(m, xi, e[j]))
            assert column(got, j) == want, (xi, j)


def test_jacobiator_matches_the_six_brackets(structural):
    m = structural.m
    e = [m.basis(i) for i in range(m.dim)]
    for i, j, k in product(range(m.dim), repeat=3):
        want = (
            bracket(m, bracket(m, e[i], e[j]), e[k])
            + bracket(m, bracket(m, e[j], e[k]), e[i])
            + bracket(m, bracket(m, e[k], e[i]), e[j])
        )
        got = tuple(m.jacobiator(i, j, k, l) for l in range(m.dim))
        assert got == want.components, (i, j, k)


def _statuses(m: FrameManifold, s: AlmostContactData) -> tuple[list, dict]:
    """Every row's status and the classification of one ``run_suite("all")``."""
    report = run_suite(m, s, "all")
    classification = report.by_name("acm.classification").witness
    return [(c.name, c.status) for c in report.checks], classification


@pytest.mark.parametrize(
    ("name", "seed"),
    [
        (name, seed)
        for name in ("lambda_symbolic", "kmu3.json", "heisenberg5.json")
        for seed in (1, 3)
    ]
    + [("t1e4.json", 3)],
)
def test_reports_are_invariant_under_a_dense_frame_change(name, seed):
    """Every check is a tensor identity, so turning the orthonormal frame by a
    dense rational orthogonal matrix changes the witnesses but no row's status
    and no classification value; in the turned frame xi and eta have no zero
    component, so no scan can lean on xi being a frame vector.  The turned
    T1E4 (dimension 7, h nonzero) is the dense input on which every residual
    table of the derived rows is full."""
    if name == "lambda_symbolic":
        entry = make_lambda_family(None)
        m, s = entry.manifold, entry.structure
    else:
        m, s = load_manifest_file(str(MANIFESTS / name))
    m2, s2 = _rotated(m, s, _cayley_rotation(m.dim, seed))
    assert all(c.terms for c in s2.xi.components + s2.eta.components)
    assert _statuses(m2, s2) == _statuses(m, s)
