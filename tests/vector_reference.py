"""Vector-level reference operators: the bracket, the covariant derivative of
a constant vector, the bilinear extension of a form, the trilinear extension
of a curvature-type tensor and the tensor actions on arbitrary constant
vectors, through the structure constants and the tensor's components; the dense
connection coefficients of the Koszul formula and of the generalized
Tanaka-Webster displacement, the operators and forms built from h, and the
Ricci form of dense coefficients, every entry with plain Scalar ``+`` and
``*``.  The tests hold the engine's component contractions, connection
tables and derived tables to them on every basis tuple."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from contactframe import (
    AlmostContactData,
    BilinearForm,
    Connection,
    Curvature4Tensor,
    Endomorphism,
    FrameManifold,
    FrameVector,
    Scalar,
)
from contactframe.report import first_witness


def bracket(m: FrameManifold, x: FrameVector, y: FrameVector) -> FrameVector:
    """[X, Y]: the bilinear antisymmetric extension of the structure constants."""
    weighted = [
        (xi * yj, m.c[i][j])
        for i, xi in enumerate(x.components)
        if xi.terms
        for j, yj in enumerate(y.components)
        if yj.terms
    ]
    return FrameVector(
        tuple(
            Scalar.sum_of_products(m.params, ((w, cij[k]) for w, cij in weighted))
            for k in range(m.dim)
        )
    )


def inner(m: FrameManifold, x: FrameVector, y: FrameVector) -> Scalar:
    """The orthonormal-frame metric: g(X, Y) = sum_i x_i y_i."""
    return Scalar.sum_of_products(m.params, zip(x.components, y.components))


def inner_basis(m: FrameManifold, i: int, j: int) -> Scalar:
    """g(E_i, E_j) = delta_ij on the orthonormal frame."""
    return m.one_scalar() if i == j else m.zero_scalar()


def derivative(conn: Connection, i: int, x: FrameVector) -> FrameVector:
    """nabla_{E_i} X = sum_j x_j Gamma_ij^k E_k for a constant-coefficient X."""
    components = [Scalar.zero(x.params)] * conn.dim
    for j, xj in enumerate(x.components):
        for k, g in conn.entries(i, j):
            components[k] = components[k] + xj * g
    return FrameVector(tuple(components))


def apply(t: Curvature4Tensor, x: FrameVector, y: FrameVector, z: FrameVector) -> FrameVector:
    """T(X, Y)Z: the trilinear extension of t's components to constant vectors."""
    weighted = [
        (xi * yj * zk, t.components[i][j][k])
        for i, xi in enumerate(x.components)
        if xi.terms
        for j, yj in enumerate(y.components)
        if yj.terms
        for k, zk in enumerate(z.components)
        if zk.terms
    ]
    return FrameVector(
        tuple(
            Scalar.sum_of_products(x.params, ((w, row[l]) for w, row in weighted))
            for l in range(t.dim)
        )
    )


def column(a: Endomorphism, j: int) -> FrameVector:
    """A E_j, read from the dense view ``matrix``."""
    return FrameVector(tuple(row[j] for row in a.matrix))


def columns(a: Endomorphism) -> list[FrameVector]:
    """A E_j for every frame index, read from the dense view ``matrix``."""
    return [column(a, j) for j in range(a.dim)]


def endomorphism(columns: list[FrameVector]) -> Endomorphism:
    """The endomorphism whose column j is ``columns[j]``."""
    return Endomorphism(tuple(zip(*(v.components for v in columns))))


def tensor_dot_tensor(m, t1, t2, x1, x2, x3, x4, x5) -> FrameVector:
    """(T1(X1,X2).T2)(X3,X4)X5 with the leading term minus three insertions."""
    # T1(X1, X2) as an endomorphism: column k is T1(X1, X2)E_k
    a = endomorphism([apply(t1, x1, x2, m.basis(k)) for k in range(m.dim)])
    return (
        a.apply(apply(t2, x3, x4, x5))
        - apply(t2, a.apply(x3), x4, x5)
        - apply(t2, x3, a.apply(x4), x5)
        - apply(t2, x3, x4, a.apply(x5))
    )


def form(omega: BilinearForm, x: FrameVector, y: FrameVector) -> Scalar:
    """w(X, Y) = sum_ij x_i y_j w(E_i, E_j): the bilinear extension of w's
    components to constant vectors."""
    w = omega.components
    return sum(
        (a * b * w[i][j] for i, a in enumerate(x.components) for j, b in enumerate(y.components)),
        Scalar.zero(x.params),
    )


def tensor_dot_form(m, t1, omega: BilinearForm, x1, x2, x3, x4) -> Scalar:
    """(T1(X1,X2).w)(X3,X4) with both insertions positive, as quoted."""
    return form(omega, apply(t1, x1, x2, x3), x4) + form(omega, x3, apply(t1, x1, x2, x4))


def koszul(m: FrameManifold) -> list:
    """gamma[i][j][k] = Gamma_ij^k = (c_ij^k - c_jk^i + c_ki^j) / 2 for every
    index triple."""
    idx, c = range(m.dim), m.c
    return [
        [[(c[i][j][k] - c[j][k][i] + c[k][i][j]).scale(Fraction(1, 2)) for k in idx] for j in idx]
        for i in idx
    ]


def matmul(a, b) -> list:
    """The dense product (AB)[p][j] = sum_q A[p][q] B[q][j] of two square
    matrices of Scalars."""
    idx, zero = range(len(a)), Scalar.zero(a[0][0].params)
    return [[sum((a[p][q] * b[q][j] for q in idx), zero) for j in idx] for p in idx]


def commutator(a, b) -> list:
    """The dense [A, B] = AB - BA."""
    ab, ba = matmul(a, b), matmul(b, a)
    return [[x - y for x, y in zip(row_ab, row_ba)] for row_ab, row_ba in zip(ab, ba)]


def lie_derivative(m: FrameManifold, xi: FrameVector, a) -> list:
    """The dense L_xi A = [ad_xi, A] with (ad_xi)^p_q = sum_r xi^r c_rq^p."""
    idx, zero, x = range(m.dim), Scalar.zero(m.params), xi.components
    ad = [[sum((x[r] * m.c[r][q][p] for r in idx), zero) for q in idx] for p in idx]
    return commutator(ad, a)


def covariant_derivative(gamma: list, i: int, a) -> list:
    """The dense nabla_{E_i} A = [G_i, A] with (G_i)^p_q = gamma[i][q][p]."""
    idx = range(len(a))
    return commutator([[gamma[i][q][p] for q in idx] for p in idx], a)


def contact_h(m: FrameManifold, s: AlmostContactData) -> list:
    """h[p][q] = component p of hE_q, h = 1/2 L_xi phi."""
    return [[v.scale(Fraction(1, 2)) for v in row] for row in lie_derivative(m, s.xi, s.phi.matrix)]


def contact_operators(m: FrameManifold, s: AlmostContactData) -> dict[str, list]:
    """The dense operators and forms built from h = ``contact_h``: h, phi h,
    I + h and phi + phi h as matrices [p][j] (component p of the image of
    E_j), and g(hE_i, phi E_j) and g(E_i + hE_i, phi E_j) as rows [i][j],
    each entry with plain Scalar ``+`` and ``*``."""
    idx, zero = range(m.dim), Scalar.zero(m.params)
    phi, h = s.phi.matrix, contact_h(m, s)
    phi_h = matmul(phi, h)
    x_plus_hx = [[h[p][j] + inner_basis(m, p, j) for j in idx] for p in idx]

    def g_phi(a: list) -> list:
        """g(A E_i, phi E_j) = sum_q A[q][i] phi[q][j] as rows [i][j]."""
        return [[sum((a[q][i] * phi[q][j] for q in idx), zero) for j in idx] for i in idx]

    return {
        "h": h,
        "phi_h": phi_h,
        "x_plus_hx": x_plus_hx,
        "phi_x_plus_hx": [[a + b for a, b in zip(*rows)] for rows in zip(phi, phi_h)],
        "h_phi": g_phi(h),
        "xh_phi": g_phi(x_plus_hx),
    }


def gtw_gamma(m: FrameManifold, s: AlmostContactData, gamma: list) -> list:
    """The Levi-Civita coefficients ``gamma`` displaced by
    A(E_i, E_j) = g(E_i + hE_i, phi E_j) xi + eta(E_i) phi E_j
    + eta(E_j) phi(hE_i + E_i), with h from ``contact_h``."""
    idx = range(m.dim)
    xi, eta, phi = s.xi.components, s.eta.components, s.phi.matrix
    ops = contact_operators(m, s)
    xh_phi, phi_x_plus_hx = ops["xh_phi"], ops["phi_x_plus_hx"]
    return [
        [
            [
                gamma[i][j][k]
                + xh_phi[i][j] * xi[k]
                + eta[i] * phi[k][j]
                + eta[j] * phi_x_plus_hx[k][i]
                for k in idx
            ]
            for j in idx
        ]
        for i in idx
    ]


def dense_ricci(m: FrameManifold, gamma: list) -> list:
    """S[j][l] = sum_i R(E_j, E_i)E_i component l, with the curvature of the
    dense coefficients ``gamma``:
    R_jii^l = sum_q gamma_ii^q gamma_jq^l - gamma_ji^q gamma_iq^l - c_ji^q gamma_qi^l."""
    idx, zero, c = range(m.dim), Scalar.zero(m.params), m.c
    return [
        [
            sum(
                (
                    gamma[i][i][q] * gamma[j][q][l]
                    - gamma[j][i][q] * gamma[i][q][l]
                    - c[j][i][q] * gamma[q][i][l]
                    for i in idx
                    for q in idx
                ),
                zero,
            )
            for l in idx
        ]
        for j in idx
    ]


def nonzero(rows: list) -> dict:
    """The nonzero entries ((a, b), rows[a][b]) of dense rows."""
    return {(a, b): v for a, row in enumerate(rows) for b, v in enumerate(row) if v.terms}


def antisymmetry_witness(m: FrameManifold) -> dict | None:
    """The witness of ``frame.bracket_antisymmetry`` by a dense row-major scan
    of every triple, one fresh c_ij^k + c_ji^k each."""
    return first_witness(
        product(range(m.dim), repeat=3), lambda i, j, k: m.c[i][j][k] + m.c[j][i][k]
    )


def structural_witnesses(m: FrameManifold, s: AlmostContactData, h: Endomorphism) -> dict:
    """Check name -> the witness of a dense scan of every basis tuple, for
    the structural layer's per-tuple checks: the bracket antisymmetry and the
    phi, eta and contact laws row-major, the h laws column-major (``first_witness``
    in the engine's scan order), each residual with frame-vector arithmetic,
    ``inner`` and the dense ``matrix`` views; d eta(E_i, E_j) is
    -1/2 eta([E_i, E_j])."""
    idx, eta = range(m.dim), s.eta.components
    e, phi_e = [m.basis(i) for i in idx], columns(s.phi)
    h_rows, phi_rows = h.matrix, s.phi.matrix
    anticommutator = [
        [x + y for x, y in zip(a, b)]
        for a, b in zip(matmul(h_rows, phi_rows), matmul(phi_rows, h_rows))
    ]
    pairs, by_column = list(product(idx, repeat=2)), [(i, j) for j in idx for i in idx]

    def d_eta(i: int, j: int) -> Scalar:
        return inner(m, s.eta, bracket(m, e[i], e[j])).scale(Fraction(-1, 2))

    return {
        "frame.bracket_antisymmetry": antisymmetry_witness(m),
        "acm.eta_after_phi": first_witness(
            product(idx, repeat=1), lambda i: inner(m, s.eta, phi_e[i])
        ),
        "acm.phi_square": first_witness(
            product(idx, repeat=1), lambda j: s.phi.apply(phi_e[j]) + e[j] - s.xi.scale(eta[j])
        ),
        "acm.phi_metric_compatibility": first_witness(
            pairs,
            lambda i, j: inner(m, phi_e[i], phi_e[j]) - inner_basis(m, i, j) + eta[i] * eta[j],
        ),
        "acm.contact_condition": first_witness(
            pairs, lambda i, j: d_eta(i, j) - inner(m, e[i], phi_e[j])
        ),
        "acm.contact_condition_reference_form": first_witness(
            pairs, lambda i, j: d_eta(i, j) - inner(m, phi_e[i], e[j])
        ),
        "acm.h_symmetric": first_witness(by_column, lambda i, j: h_rows[i][j] - h_rows[j][i]),
        "acm.h_phi_anticommute": first_witness(by_column, lambda i, j: anticommutator[i][j]),
    }
