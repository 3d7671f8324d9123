"""Connections and curvature on an orthonormal frame.

The Levi-Civita connection of a frame manifold with constant structure
constants reduces, on an orthonormal frame, to the bracket-only Koszul
formula

    2 Gamma_{ij}^k = c_{ij}^k - c_{jk}^i + c_{ki}^j ,

where ``nabla_{E_i} E_j = Gamma_{ij}^k E_k``.  Curvature follows the
definitional convention

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z ,

applied to either connection kind; on constant frame coefficients it is
one sum of products per component (see ``riemann``).  Every closed-form
identity is then *checked against* the computed tensor rather than
assumed, so a sign slip in a quoted formula surfaces as report data instead
of contaminating downstream tensors.

Ricci is the contraction S(X, Y) = sum_i R(X, E_i, E_i, Y) with lowered
components R(X, Y, Z, W) = g(R(X, Y)Z, W); the scalar curvature is its
trace.  This module also houses the N(kappa) identity suite: the nullity
closed forms for curvature against the characteristic direction, the h- and
phi-derivative identities, and the Ricci/scalar closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import TYPE_CHECKING

from .frames import Endomorphism, FrameManifold, FrameVector, frame_images
from .report import VerificationReport, first_witness
from .scalars import Scalar

if TYPE_CHECKING:  # pragma: no cover - type-only import, no runtime cycle
    from .contact import AlmostContactData

LEVI_CIVITA = "levi_civita"
TANAKA_WEBSTER = "tanaka_webster"


class ConnectionConsistencyError(Exception):
    """Raised when a constructed connection violates its defining invariants."""


@dataclass(frozen=True)
class Connection:
    """Frame connection coefficients: nabla_{E_i} E_j = gamma[i][j][k] E_k."""

    kind: str
    gamma: tuple[tuple[tuple[Scalar, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.gamma)

    def derivative_basis(self, i: int, j: int) -> FrameVector:
        """nabla_{E_i} E_j as a frame vector."""
        return FrameVector(tuple(self.gamma[i][j][k] for k in range(self.dim)))

    def derivative(self, i: int, x: FrameVector) -> FrameVector:
        """nabla_{E_i} X for a constant-coefficient X."""
        row = self.gamma[i]
        return FrameVector(
            tuple(
                Scalar.sum_of_products(
                    x.params, ((xj, row[j][k]) for j, xj in enumerate(x.components))
                )
                for k in range(self.dim)
            )
        )

    def derivative_endo(self, m: FrameManifold, i: int, a: Endomorphism) -> Endomorphism:
        """(nabla_{E_i} A) as an endomorphism, columnwise on the frame."""
        columns = []
        for j in range(m.dim):
            columns.append(
                self.derivative(i, a.column(j)) - a.apply(self.derivative_basis(i, j))
            )
        return Endomorphism.from_columns(columns)

    def derivative_covector(self, m: FrameManifold, i: int, eta: FrameVector, j: int) -> Scalar:
        """(nabla_{E_i} eta)(E_j) = -eta(nabla_{E_i} E_j) for constant eta."""
        return -m.inner(eta, self.derivative_basis(i, j))

    def metric_derivative(self, i: int, j: int, k: int) -> Scalar:
        """(nabla_{E_i} g)(E_j, E_k) on the orthonormal frame."""
        return -(self.gamma[i][j][k] + self.gamma[i][k][j])


def levi_civita(m: FrameManifold) -> Connection:
    """Koszul formula on the orthonormal frame; verifies its own invariants."""
    half = Fraction(1, 2)
    gamma = tuple(
        tuple(
            tuple(
                (m.c[i][j][k] - m.c[j][k][i] + m.c[k][i][j]).scale(half)
                for k in range(m.dim)
            )
            for j in range(m.dim)
        )
        for i in range(m.dim)
    )
    conn = Connection(kind=LEVI_CIVITA, gamma=gamma)
    # metric compatibility and torsion-freeness are structural for the Koszul
    # output on antisymmetric c, so a violation indicates malformed input
    for i in range(m.dim):
        for j in range(m.dim):
            for k in range(m.dim):
                if not (conn.gamma[i][j][k] + conn.gamma[i][k][j]).is_zero():
                    raise ConnectionConsistencyError(
                        f"metric compatibility violated at ({i + 1},{j + 1},{k + 1})"
                    )
                torsion = conn.gamma[i][j][k] - conn.gamma[j][i][k] - m.c[i][j][k]
                if not torsion.is_zero():
                    raise ConnectionConsistencyError(
                        f"torsion-freeness violated at ({i + 1},{j + 1},{k + 1})"
                    )
    return conn


@dataclass(frozen=True)
class Curvature4Tensor:
    """Raised components R[i][j][k][l]: R(E_i, E_j)E_k = R[i][j][k][l] E_l."""

    components: tuple[tuple[tuple[tuple[Scalar, ...], ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.components)

    def vector(self, i: int, j: int, k: int) -> FrameVector:
        """R(E_i, E_j)E_k as a frame vector."""
        return FrameVector(tuple(self.components[i][j][k]))

    def lowered(self, i: int, j: int, k: int, l: int) -> Scalar:
        """R(E_i, E_j, E_k, E_l) = g(R(E_i,E_j)E_k, E_l); free on an orthonormal frame."""
        return self.components[i][j][k][l]

    def apply(self, x: FrameVector, y: FrameVector, z: FrameVector) -> FrameVector:
        """Trilinear extension to constant-coefficient vectors."""
        weighted = [
            (xi * yj * zk, self.components[i][j][k])
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
                for l in range(self.dim)
            )
        )

    def endomorphism(self, x: FrameVector, y: FrameVector) -> Endomorphism:
        """R(X, Y) as an endomorphism: column k is R(X, Y)E_k."""
        basis = Endomorphism.identity(self.dim, x.params)
        return Endomorphism.from_columns(
            [self.apply(x, y, basis.column(k)) for k in range(self.dim)]
        )


def riemann(m: FrameManifold, conn: Connection) -> Curvature4Tensor:
    """Curvature of a frame connection as one sum of products per component.

    R(E_i, E_j)E_k = nabla_i nabla_j E_k - nabla_j nabla_i E_k
    - nabla_{[E_i, E_j]} E_k on constant frame coefficients gives

        R_ijk^l = sum_m Gamma_jk^m Gamma_im^l - Gamma_ik^m Gamma_jm^l
                  - c_ij^m Gamma_mk^l .
    """
    dim, params = m.dim, m.params
    idx = range(dim)
    gamma = conn.gamma
    neg_gamma = tuple(tuple(tuple(-g for g in row) for row in plane) for plane in gamma)
    neg_c = tuple(tuple(tuple(-c for c in row) for row in plane) for plane in m.c)
    # by_source[i][l][n] = Gamma_in^l and by_target[k][l][n] = Gamma_nk^l
    by_source = tuple(tuple(tuple(gamma[i][n][l] for n in idx) for l in idx) for i in idx)
    by_target = tuple(tuple(tuple(gamma[n][k][l] for n in idx) for l in idx) for k in idx)

    def component(i: int, j: int, k: int, l: int) -> Scalar:
        return Scalar.sum_of_products(
            params,
            chain(
                zip(gamma[j][k], by_source[i][l]),
                zip(neg_gamma[i][k], by_source[j][l]),
                zip(neg_c[i][j], by_target[k][l]),
            ),
        )

    return Curvature4Tensor(
        components=tuple(
            tuple(
                tuple(tuple(component(i, j, k, l) for l in idx) for k in idx) for j in idx
            )
            for i in idx
        )
    )


@dataclass(frozen=True)
class BilinearForm:
    """A rank-2 form by frame components S[i][j] = S(E_i, E_j)."""

    components: tuple[tuple[Scalar, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.components)

    def apply(self, x: FrameVector, y: FrameVector) -> Scalar:
        return Scalar.sum_of_products(
            x.params,
            (
                (xi * yj, self.components[i][j])
                for i, xi in enumerate(x.components)
                if xi.terms
                for j, yj in enumerate(y.components)
                if yj.terms
            ),
        )

    def __sub__(self, other: "BilinearForm") -> "BilinearForm":
        return BilinearForm(
            tuple(
                tuple(a - b for a, b in zip(row_a, row_b))
                for row_a, row_b in zip(self.components, other.components)
            )
        )

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.components for a in row)

    def is_symmetric(self) -> bool:
        return all(
            (self.components[i][j] - self.components[j][i]).is_zero()
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )


def ricci(m: FrameManifold, r: Curvature4Tensor) -> BilinearForm:
    """S(E_j, E_l) = sum_i R(E_j, E_i, E_i, E_l)."""
    return BilinearForm(
        tuple(
            tuple(
                sum(
                    (r.lowered(j, i, i, l) for i in range(m.dim)),
                    m.zero_scalar(),
                )
                for l in range(m.dim)
            )
            for j in range(m.dim)
        )
    )


def scalar_curvature(m: FrameManifold, s: BilinearForm) -> Scalar:
    return sum((s.components[i][i] for i in range(m.dim)), m.zero_scalar())


def metric_form(m: FrameManifold) -> BilinearForm:
    return BilinearForm(
        tuple(
            tuple(m.one_scalar() if i == j else m.zero_scalar() for j in range(m.dim))
            for i in range(m.dim)
        )
    )


# ---------------------------------------------------------------------------
# N(kappa) identity suite
# ---------------------------------------------------------------------------


def verify_nkappa_suite(
    m: FrameManifold,
    structure: "AlmostContactData",
    h: Endomorphism,
    conn: Connection,
    r: Curvature4Tensor,
    kappa: Scalar,
) -> VerificationReport:
    """Check the nullity-class identities on every basis tuple, exactly.

    ``kappa`` must be the detected nullity constant of ``r`` (the Levi-Civita
    curvature).  Each identity becomes one named report entry; reference
    variants that disagree with the computed tensors are reported as
    informational entries rather than failures.
    """
    report = VerificationReport()
    phi, xi = structure.phi, structure.xi
    img = frame_images(m, structure, h)
    e, eta = img.e, img.eta
    idx = range(m.dim)
    one = m.one_scalar()

    report.holds(
        "nkappa.nullity_constant",
        witness={"kappa": str(kappa)},
    )

    # covariant derivative of the characteristic field: nabla_X xi = -phi X - phi h X
    report.graded(
        "nkappa.xi_covariant_derivative",
        first_witness(
            product(idx, repeat=1),
            lambda i: conn.derivative(i, xi) + img.phi[i] + img.phi_h[i],
        ),
        notes=(
            "asserted form: nabla_X xi = -phi X - phi h X; the variant with a bare "
            "h-term is checked separately as a reference form",
        ),
    )
    # reference variant: nabla_X xi = -phi X - h X
    report.reference(
        "nkappa.xi_covariant_derivative_reference_form",
        first_witness(
            product(idx, repeat=1),
            lambda i: conn.derivative(i, xi) + img.phi[i] + img.h[i],
        ),
        "reference variant -phi X - h X disagrees with the computed "
        "derivative; recorded as data",
    )

    # (nabla_X phi)Y = g(X + hX, Y) xi - eta(Y)(X + hX)
    dphi = [conn.derivative_endo(m, i, phi) for i in idx]
    x_plus_hx = [e[i] + img.h[i] for i in idx]
    report.graded(
        "nkappa.phi_covariant_derivative",
        first_witness(
            product(idx, repeat=2),
            lambda i, j: dphi[i].column(j)
            - xi.scale(x_plus_hx[i].components[j])
            + x_plus_hx[i].scale(eta[j]),
        ),
    )

    # h^2 = (kappa - 1) phi^2, scanned column by column
    diff = h.compose(h) - phi.compose(phi).scale(kappa - one)
    report.graded(
        "nkappa.h_square",
        first_witness(((i, j) for j in idx for i in idx), lambda i, j: diff.matrix[i][j]),
    )

    # (nabla_X h)Y = [(1-kappa) g(X, phi Y) + g(X, h phi Y)] xi + eta(Y) h(phi X + phi h X)
    dh = [conn.derivative_endo(m, i, h) for i in idx]
    h_phi = [h.apply(img.phi[j]) for j in idx]
    tails = [h.apply(img.phi[i] + img.phi_h[i]) for i in idx]
    report.graded(
        "nkappa.h_covariant_derivative",
        first_witness(
            product(idx, repeat=2),
            lambda i, j: dh[i].column(j)
            - xi.scale((one - kappa) * img.phi[j].components[i] + h_phi[j].components[i])
            - tails[i].scale(eta[j]),
        ),
    )

    # (nabla_X eta)Y = g(X + hX, phi Y)
    report.graded(
        "nkappa.eta_covariant_derivative",
        first_witness(
            product(idx, repeat=2),
            lambda i, j: conn.derivative_covector(m, i, structure.eta, j)
            - m.inner(x_plus_hx[i], img.phi[j]),
        ),
    )

    # R(X, xi)xi = kappa (X - eta(X) xi)
    report.graded(
        "nkappa.curvature_xi_xi",
        first_witness(
            product(idx, repeat=1),
            lambda i: r.apply(e[i], xi, xi) - (e[i] - xi.scale(eta[i])).scale(kappa),
        ),
    )

    # R(X, Y)xi = c (eta(Y) X - eta(X) Y), with c = kappa here and c = +-1 below
    def pair_xi_witness(c: Scalar) -> dict | None:
        return first_witness(
            product(idx, repeat=2),
            lambda i, j: r.apply(e[i], e[j], xi)
            - (e[i].scale(eta[j]) - e[j].scale(eta[i])).scale(c),
        )

    report.graded("nkappa.curvature_pair_xi", pair_xi_witness(kappa))

    # R(X, xi)Y = -kappa (g(X, Y) xi - eta(Y) X)
    report.graded(
        "nkappa.curvature_xi_argument",
        first_witness(
            product(idx, repeat=2),
            lambda i, j: r.apply(e[i], xi, e[j])
            - (xi.scale(m.inner(e[i], e[j])) - e[i].scale(eta[j])).scale(-kappa),
        ),
    )

    # Ricci closed form:
    # S = 2(n-1) g + 2(n-1) g(h., .) + [2n kappa - 2(n-1)] eta (x) eta
    s_computed = ricci(m, r)
    two_n_minus_2 = m.constant(2 * (m.n - 1))
    eta_coeff = m.constant(2 * m.n) * kappa - two_n_minus_2
    report.graded(
        "nkappa.ricci_closed_form",
        first_witness(
            product(idx, repeat=2),
            lambda i, j: s_computed.components[i][j]
            - (
                two_n_minus_2 * m.inner(e[i], e[j])
                + two_n_minus_2 * img.h[i].components[j]
                + eta_coeff * eta[i] * eta[j]
            ),
        ),
    )

    # S(X, xi) = 2 n kappa eta(X); S(xi, xi) = 2 n kappa
    two_n_kappa = m.constant(2 * m.n) * kappa
    report.graded(
        "nkappa.ricci_xi_values",
        first_witness(
            product(idx, repeat=1), lambda i: s_computed.apply(e[i], xi) - two_n_kappa * eta[i]
        )
        or first_witness([()], lambda: s_computed.apply(xi, xi) - two_n_kappa),
    )

    # tau = 2n(2n - 2 + kappa)
    tau = scalar_curvature(m, s_computed)
    residual = tau - m.constant(2 * m.n) * (m.constant(2 * m.n - 2) + kappa)
    report.graded(
        "nkappa.scalar_curvature_value",
        None if residual.is_zero() else {"residual": str(residual)},
        notes=(f"computed scalar curvature: {tau}",),
    )

    # orientation of the Sasakian curvature condition R(X, Y)xi at kappa = 1:
    # computed against both sign conventions; reported, never guessed
    if (kappa - one).is_zero():
        if pair_xi_witness(one) is None:
            orientation = "eta(Y)X - eta(X)Y"
        elif pair_xi_witness(-one) is None:
            orientation = "eta(X)Y - eta(Y)X"
        else:
            orientation = "neither"
        report.graded(
            "nkappa.sasakian_curvature_xi_orientation",
            {"residual": "neither orientation matches"} if orientation == "neither" else None,
            notes=(f"computed orientation: R(X,Y)xi = {orientation}",),
        )
    else:
        report.not_applicable(
            "nkappa.sasakian_curvature_xi_orientation",
            notes=("instance is not Sasakian (kappa differs from 1)",),
        )

    return report
