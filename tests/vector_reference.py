"""Vector-level reference operators: the bracket, the covariant derivative of
a constant vector, the bilinear extension of a form, the trilinear extension
of a curvature-type tensor and the tensor actions on arbitrary constant
vectors, through the structure constants and the tensor's components; and the dense
connection coefficients of the Koszul formula and of the generalized
Tanaka-Webster displacement, every coefficient with plain Scalar ``+`` and
``*``.  The tests hold the engine's component contractions and connection
tables to them on every basis tuple."""

from __future__ import annotations

from fractions import Fraction

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


def gtw_gamma(m: FrameManifold, s: AlmostContactData, gamma: list) -> list:
    """The Levi-Civita coefficients ``gamma`` displaced by
    A(E_i, E_j) = g(E_i + hE_i, phi E_j) xi + eta(E_i) phi E_j
    + eta(E_j) phi(hE_i + E_i), with h from ``contact_h``."""
    idx, zero = range(m.dim), Scalar.zero(m.params)
    xi, eta, phi = s.xi.components, s.eta.components, s.phi.matrix
    h = contact_h(m, s)
    # x_plus_hx[i][p] = component p of E_i + hE_i
    x_plus_hx = [[h[p][i] + inner_basis(m, i, p) for p in idx] for i in idx]
    phi_x_plus_hx = [
        [sum((phi[p][q] * x_plus_hx[i][q] for q in idx), zero) for p in idx] for i in idx
    ]
    xh_phi = [[sum((x_plus_hx[i][p] * phi[p][j] for p in idx), zero) for j in idx] for i in idx]
    return [
        [
            [
                gamma[i][j][k]
                + xh_phi[i][j] * xi[k]
                + eta[i] * phi[k][j]
                + eta[j] * phi_x_plus_hx[i][k]
                for k in idx
            ]
            for j in idx
        ]
        for i in idx
    ]
