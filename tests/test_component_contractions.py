"""The component contractions the residual scans read, held to the vector-level
operators they replace on every basis tuple: the xi-slot tables
(``Curvature4Tensor.xi_table``) against the trilinear apply of
``tests/vector_reference.py``, the covariant derivative of
an endomorphism against its column formula, and the curvature closed form's
table, the R1(xi, X + hX)Y table and the g(hE_i, phi E_j) table against
scale-and-subtract and inner products on frame vectors.  The
structural layer's two kernels, the Lie derivative of an endomorphism and the
Jacobi cyclic sum, are held to their forms through the vector-level ``bracket``,
also on the dense random frame ``manifests/random5_t.json``.

Besides the instances with xi = E1, one lambda member is written in a frame
turned by the rational rotation (3/5, 4/5) in the E1-E2 plane, so that xi has
two nonzero components.

Frame-change invariance: the symbolic lambda family, the (kappa, mu)-space
``manifests/kmu3.json``, H^5 and T1E4 are turned by the Cayley transform of a
seeded rational skew matrix, which makes xi and eta fully dense, and every
row's status and the classification must equal the unturned run's."""

from __future__ import annotations

from fractions import Fraction
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
    make_lambda_family,
    run_suite,
)
from contactframe.tanaka_webster import closed_form_slabs
from vector_reference import apply, bracket

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
    if name == "lambda_symbolic":
        entry = make_lambda_family(None)
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
    return _instance(*load_manifest_file(str(MANIFESTS / name)))


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


def test_derivative_endo_matches_the_column_formula(x):
    m = x.m
    for (name, conn), a in product((("lc", x.lc), ("gtw", x.pkg.conn)), (x.s.phi, x.h)):
        for i in range(m.dim):
            got = conn.derivative_endo(i, a)
            for j in range(m.dim):
                want = conn.derivative(i, a.column(j)) - a.apply(conn.derivative_basis(i, j))
                assert got.column(j) == want, (name, i, j)


def test_closed_form_table_and_r1_xi_match_the_vector_forms(x):
    """The closed form's table (once ``x.curvature_defect`` plus the final
    bracket) holds exactly the nonzero components of curv - R - kappa R3
    - g(E_i + hE_i, phi E_k)(phi + phi h)E_j + g(E_j + hE_j, phi E_k)(phi + phi h)E_i
    - [g(E_i, (phi + phi h)E_j) - g(E_j, (phi + phi h)E_i)] phi E_k, and the
    cached g(hE_i, phi E_j) and g(E_i + hE_i, phi E_j) are the inner products."""
    m, phi, kappa = x.m, x.s.phi, x.kappa
    r1, r3 = x.templates[0], x.templates[2]
    v, xh = x.phi_x_plus_hx, x.x_plus_hx
    for i, j in product(range(m.dim), repeat=2):
        assert x.r1_xi[i][j] == apply(r1, x.s.xi, xh[i], m.basis(j)), (i, j)
        assert x.h_phi[i][j] == m.inner(x.h.column(i), phi.column(j)), (i, j)
        assert x.xh_phi[i][j] == m.inner(xh[i], phi.column(j)), (i, j)
    for i in range(m.dim):
        table = x.kept(closed_form_slabs, i)
        for j, k in product(range(m.dim), repeat=2):
            bracket = v[j].components[i] - v[i].components[j]
            want = (
                x.pkg.curv.vector(i, j, k)
                - x.r.vector(i, j, k)
                - r3.vector(i, j, k).scale(kappa)
                - v[j].scale(m.inner(xh[i], phi.column(k)))
                + v[i].scale(m.inner(xh[j], phi.column(k)))
                - phi.column(k).scale(bracket)
            )
            got = tuple(table.get((i, j, k, p)) for p in range(m.dim))
            assert got == tuple(c if c.terms else None for c in want.components), (i, j, k)


def test_lie_derive_endo_matches_the_bracket_form(structural):
    m = structural.m
    e = [m.basis(i) for i in range(m.dim)]
    two_components = e[0] - e[2].scale(2)
    for xi, a in product((e[0], two_components), (structural.s.phi, structural.h)):
        got = m.lie_derive_endo(xi, a)
        for j in range(m.dim):
            want = bracket(m, xi, a.column(j)) - a.apply(bracket(m, xi, e[j]))
            assert got.column(j) == want, (xi, j)


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
