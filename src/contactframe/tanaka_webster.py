"""The canonical torsionful connection of a contact metric manifold.

On a nullity-class contact metric manifold the connection is the
Levi-Civita connection displaced by

    A(X, Y) = g(X + hX, phi Y) xi + eta(X) phi Y + eta(Y) phi(hX + X),

which makes xi, eta, g (and in fact phi) parallel at the cost of torsion.
This module builds the connection, its torsion, curvature, Ricci form and
scalar curvature, and grades the full identity suite:

- parallelism of g, xi, eta, phi and the derivative relations for phi, h;
- the curvature's antisymmetries and its xi-degeneracies;
- the closed-form expression for the curvature (asserted in the corrected
  form; the reference variant with the opposite sign in its final bracket
  is re-evaluated per basis triple and reported as data);
- pair-interchange and first-Bianchi cross-checks against their quoted
  right-hand sides, recorded as data: how many tuples agree and which differ;
- the Ricci closed forms, tau = 4n^2, and tau-relation to the Levi-Civita
  scalar curvature;
- the space-form decomposition R = F1 R1 + F2 R2 + F3 R3 (an exact linear
  solve for F1, F2, F3) and the eta-Einstein fit.

R1, R2 and R3 are the space-form model tensors of ``space_form_templates``;
the closed forms here and in the other derived suites are stated through them.

Corrected forms adopted after independent derivation (each printed
variant is still evaluated and reported):

- torsion: T(X, Y) = [g(X+hX, phi Y) - g(Y+hY, phi X)] xi
  + eta(Y) phi h X - eta(X) phi h Y.  The reference variant adds
  eta(Y) phi X - eta(X) phi Y, which double-counts terms that cancel in
  the antisymmetrization of A.
- h-derivative: (del_X h)Y = 2 eta(X) phi h Y under this connection.
- curvature closed form: the final bracket is
  [g(X1, phi X2 + phi h X2) - g(X2, phi X1 + phi h X1)] phi X3
  (a difference, which equals 2 g(X1, phi X2) phi X3 because phi h is
  symmetric); the reference variant uses a sum there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Callable, Iterator

from .contact import AlmostContactData
from .curvature import (
    BilinearForm,
    Connection,
    ConnectionConsistencyError,
    Curvature4Tensor,
    ricci,
    riemann,
    scalar_curvature,
    torsion_table,
)
from .frames import Endomorphism, FrameManifold, FrameVector
from .linear import exact_fit
from .scalars import Scalar
from .tables import Table, sum_table


@dataclass(frozen=True)
class GtwPackage:
    """The torsionful connection with all of its derived tensors."""

    conn: Connection
    torsion: Table
    curv: Curvature4Tensor
    ricci: BilinearForm
    tau: Scalar


@dataclass(frozen=True)
class GssfCoefficients:
    """Constant coefficients of a space-form curvature decomposition.

    ``free`` names the coefficients that the linear system left
    undetermined; they carry the solver's default value.
    """

    F1: Scalar
    F2: Scalar
    F3: Scalar
    free: tuple[str, ...] = ()


def gtw_connection(
    m: FrameManifold,
    s: AlmostContactData,
    lc: Connection,
    xh_phi: tuple[tuple[Scalar, ...], ...],
    phi_h: Endomorphism,
) -> Connection:
    """The Levi-Civita connection displaced by
    A(X, Y) = g(X+hX, phi Y) xi + eta(X) phi Y + eta(Y) phi(hX + X), with
    xh_phi[i][j] = g(E_i + hE_i, phi E_j) and phi_h = phi h; on the frame
    eta(E_i) is eta's component i.  One sum of products per coefficient that
    a nonzero entry of lc or of A names:

        Gamma_ij^k + xh_phi[i][j] xi^k + eta_i phi^k_j + eta_j (phi h + phi)^k_i .

    Verifies metric parallelism on construction."""
    idx, one = range(m.dim), m.one_scalar()
    xi = [(k, v) for k, v in enumerate(s.xi.components) if v.terms]
    eta = [(i, v) for i, v in enumerate(s.eta.components) if v.terms]
    phi, phi_h = s.phi.sparse_columns, phi_h.sparse_columns
    table = sum_table(
        m.params,
        chain(
            ((index, g, one) for index, g in lc.table.items()),
            (
                ((i, j, k), a, xi_k)
                for i, row in enumerate(xh_phi)
                for j, a in enumerate(row)
                if a.terms
                for k, xi_k in xi
            ),
            (((i, j, k), eta_i, p) for i, eta_i in eta for j in idx for k, p in phi[j]),
            (
                ((i, j, k), eta_j, p)
                for j, eta_j in eta
                for i in idx
                for k, p in chain(phi_h[i], phi[i])
            ),
        ),
    )
    conn = Connection(m.dim, m.params, table)
    residual = conn.metric_residual
    if residual:
        at = min(residual)
        raise ConnectionConsistencyError(
            f"metric parallelism violated at ({','.join(str(i + 1) for i in at)}): "
            f"{residual[at]}"
        )
    return conn


def build_gtw_package(
    m: FrameManifold,
    s: AlmostContactData,
    lc: Connection,
    xh_phi: tuple[tuple[Scalar, ...], ...],
    phi_h: Endomorphism,
) -> GtwPackage:
    conn = gtw_connection(m, s, lc, xh_phi, phi_h)
    curv = riemann(m, conn)
    ric = ricci(m, curv)
    return GtwPackage(
        conn=conn,
        torsion=torsion_table(m, conn),
        curv=curv,
        ricci=ric,
        tau=scalar_curvature(m, ric),
    )


# -- the identity suite of the torsionful connection -----------------------------
# One row per check, graded exactly from the instance x (``suite.Instance``),
# whose gTW package, its derivatives of phi and h, and X + hX are shared.


def _metric_parallel(report, name, x):
    report.graded(name, x.table_scan(x.pkg.conn.metric_residual, vector=False))


def _xi_parallel(report, name, x):
    report.graded(name, x.scan(x.xi_derivative(x.pkg.conn)))


def _eta_parallel(report, name, x):
    report.graded(name, x.scan(x.eta_derivative(x.pkg.conn), vector=False))


# phi-derivative relation: the displaced derivative of phi equals the
# structural derivative minus R1(xi, X + hX)Y = g(X + hX, Y) xi - eta(Y)(X + hX)
def _phi_derivative_relation(report, name, x):
    one = x.m.one_scalar()
    report.graded(
        name,
        x.scan(
            x.derivatives(x.dphi_gtw, one), x.derivatives(x.dphi_lc, -one), x.r1_xi(one)
        ),
    )


def _phi_parallel(report, name, x):
    report.graded(
        name,
        x.scan(x.derivatives(x.dphi_gtw, x.m.one_scalar())),
        notes=(
            "phi is parallel on every validated nullity-class instance, not only "
            "in the Sasakian subcase: the derivative relation cancels exactly "
            "against the structural derivative identity",
        ),
    )


# h-derivative relation, corrected form: (del_X h)Y = 2 eta(X) phi h Y
def _h_derivative_relation(report, name, x):
    report.graded(
        name,
        x.scan(
            x.derivatives(x.dh_gtw, x.m.one_scalar()),
            x.along(x.s.eta.components, x.phi_h.columns, x.m.constant(-2), 0),
        ),
        notes=(
            "asserted form: (del_X h)Y = 2 eta(X) phi h Y; "
            "the reference variant is checked separately",
        ),
    )


# reference variant: [(kappa-1)g(phi X, Y) + g(hX, phi Y)] xi + eta(X) phi(Y + hY)
def _h_derivative_relation_reference(report, name, x):
    one = x.m.one_scalar()
    report.reference(
        name,
        x.scan(
            x.derivatives(x.dh_gtw, one),
            x.along_xi(x.s.phi.matrix, one - x.kappa, transpose=True),
            x.along_xi(x.h_phi, -one),
            x.along(x.s.eta.components, x.phi_x_plus_hx, -one, 0),
        ),
        "reference variant [(kappa-1)g(phi X, Y) + g(hX, phi Y)] xi "
        "+ eta(X) phi(Y + hY) disagrees with the computed derivative; "
        "recorded as data",
    )


def _torsion_nonzero(report, name, x):
    notes = ("a contact metric instance must make this connection non-symmetric",)
    first_nonzero = x.table_scan(x.pkg.torsion, key="value")
    report.nonvanishing(name, first_nonzero, "torsion", notes, notes)


# T(E_i, E_j) minus the closed form whose eta-terms use the vectors v
def _torsion_witness(x, v: tuple[FrameVector, ...]) -> dict | None:
    one, eta = x.m.one_scalar(), x.s.eta.components
    return x.scan(
        ((index, t, one) for index, t in x.pkg.torsion.items()),
        x.along_xi(x.xh_phi, -one),
        x.along_xi(x.xh_phi, one, transpose=True),
        x.along(eta, v, -one, 1),
        x.along(eta, v, one, 0),
    )


def _torsion_closed_form(report, name, x):
    report.graded(
        name,
        _torsion_witness(x, x.phi_h.columns),
        notes=(
            "asserted form: T(X, Y) = [g(X+hX, phi Y) - g(Y+hY, phi X)] xi "
            "+ eta(Y) phi h X - eta(X) phi h Y",
        ),
    )


def _torsion_closed_form_reference(report, name, x):
    report.reference(
        name,
        _torsion_witness(x, x.phi_x_plus_hx),
        "reference variant with the extra eta(Y) phi X - eta(X) phi Y "
        "terms disagrees with the computed torsion; recorded as data",
    )


# -- curvature antisymmetries and xi-degeneracies ------------------------------
# R(E_i, E_j, E_k, E_l) plus the same component with its first (last) pair
# swapped: each nonzero component names its own index and its swapped one
def pair_antisymmetry_table(x, pair: str) -> Table:
    curv, one = x.pkg.curv.table.items(), x.m.one_scalar()
    if pair == "first":
        swapped = (((j, i, k, l), c, one) for (i, j, k, l), c in curv)
    else:
        swapped = (((i, j, l, k), c, one) for (i, j, k, l), c in curv)
    return sum_table(x.m.params, chain(((index, c, one) for index, c in curv), swapped))


def _first_pair_antisymmetry(report, name, x):
    report.graded(name, x.table_scan(pair_antisymmetry_table(x, "first"), False))


def _last_pair_antisymmetry(report, name, x):
    report.graded(name, x.table_scan(pair_antisymmetry_table(x, "last"), False))


# curv(X, Y)Z = 0 with xi in the argument slots xi_at
def _curvature_xi(xi_at: tuple[int, ...]) -> Callable:
    def row(report, name, x):
        report.graded(name, x.table_scan(x.pkg.curv.xi_table(x.s.xi, xi_at)))

    return row


# -- closed form for the curvature ---------------------------------------------
def closed_form_table(x) -> Table:
    """R(E_i, E_j)E_k minus its asserted closed form, as one table keyed
    (i, j, k, p):

        curv_ijk^p - R_ijk^p - kappa R3_ijk^p
        - g(E_i + hE_i, phi E_k) v_j^p + g(E_j + hE_j, phi E_k) v_i^p
        - [v_j^i - v_i^j] phi_k^p,

    v_a = phi E_a + phi h E_a and R the Levi-Civita curvature; the products
    are the nonzero entries of each term.  The closed form's row and the
    reference variant's crosscheck share the table (``Instance.kept``)."""
    m, idx = x.m, range(x.m.dim)
    one, minus_one, minus_kappa = m.one_scalar(), -m.one_scalar(), -x.kappa
    tensors = ((x.pkg.curv, one), (x.r, minus_one), (x.templates[2], minus_kappa))
    v = [w.components for w in x.phi_x_plus_hx]
    v_nz = [[(p, c) for p, c in enumerate(w) if c.terms] for w in v]
    minus_v_nz = [[(p, -c) for p, c in w] for w in v_nz]
    xh_phi, phi_cols = x.xh_phi, x.s.phi.sparse_columns

    def products() -> Iterator[tuple[tuple[int, ...], Scalar, Scalar]]:
        for t, c in tensors:
            for index, value in t.table.items():
                yield index, c, value
        for i, j in product(idx, repeat=2):
            for k in idx:
                if xh_phi[i][k].terms:
                    for p, c in minus_v_nz[j]:
                        yield (i, j, k, p), xh_phi[i][k], c
                if xh_phi[j][k].terms:
                    for p, c in v_nz[i]:
                        yield (i, j, k, p), xh_phi[j][k], c
            minus_bracket = v[i][j] - v[j][i]
            if minus_bracket.terms:
                for k in idx:
                    for p, c in phi_cols[k]:
                        yield (i, j, k, p), minus_bracket, c

    return sum_table(m.params, products())


def _curvature_closed_form(report, name, x):
    report.graded(
        name,
        x.table_scan(x.kept(closed_form_table)),
        notes=(
            "asserted form carries [g(X1, phi X2 + phi h X2) - g(X2, phi X1 + "
            "phi h X1)] phi X3 as its final bracket (a difference; equals "
            "2 g(X1, phi X2) phi X3 because phi h is symmetric)",
        ),
    )


# the reference variant's bracket is the sum v_j^i + v_i^j, so its residual is
# the asserted form's minus 2 v_i^j phi_k^p
def _curvature_closed_form_crosscheck(report, name, x):
    m, idx = x.m, range(x.m.dim)
    one, phi_cols = m.one_scalar(), x.s.phi.sparse_columns
    minus_two_v = [
        (i, j, c.scale(-2))
        for i, w in enumerate(x.phi_x_plus_hx)
        for j, c in enumerate(w.components)
        if c.terms
    ]
    table = sum_table(
        m.params,
        chain(
            ((index, one, c) for index, c in x.kept(closed_form_table).items()),
            (
                ((i, j, k, p), a, c)
                for i, j, a in minus_two_v
                for k in idx
                for p, c in phi_cols[k]
            ),
        ),
    )
    notes = (
        "reference variant with a sum in the final bracket, re-evaluated per "
        "basis triple; the verdict is data, not a pass condition",
    )
    report.crosscheck(name, m.dim**3, {t[:-1] for t in table}, x.vector_at(table), notes)


# the nonzero entries (a, b, value) of 2 phi_ab and -2 phi_ab, with phi_ab =
# g(phi E_a, E_b), and of phi_h[a][b] = g(phi h E_a, E_b): the entries the
# crosschecks' quoted h-expressions read
def _phi_entries(x):
    phi = [(a, b, c) for a, col in enumerate(x.s.phi.sparse_columns) for b, c in col]
    phi_h = [(a, b, c) for a, col in enumerate(x.phi_h.sparse_columns) for b, c in col]
    two = [(a, b, c.scale(2)) for a, b, c in phi]
    minus_two = [(a, b, c.scale(-2)) for a, b, c in phi]
    return two, minus_two, phi_h


def pair_interchange_table(x) -> Table:
    """R(i,j,k,l) + R(k,l,i,j) + 2[phi_il g(hE_j, phiE_k) - phi_kj phih_il
    - g(hE_i, phiE_k) phi_lj + phi_ki phih_jl - phih_lk phi_ij], over the
    nonzero components of R and the nonzero entries of phi, phi h and h_phi."""
    one = x.m.one_scalar()
    two_phi, minus_two_phi, phi_h = _phi_entries(x)
    h_phi = [(a, b, c) for a, row in enumerate(x.h_phi) for b, c in enumerate(row) if c.terms]
    curv = x.pkg.curv.table.items()
    return sum_table(
        x.m.params,
        chain(
            ((index, c, one) for index, c in curv),
            (((i, j, k, l), c, one) for (k, l, i, j), c in curv),
            (((i, j, k, l), a, b) for i, l, a in two_phi for j, k, b in h_phi),
            (((i, j, k, l), a, b) for k, j, a in minus_two_phi for i, l, b in phi_h),
            (((i, j, k, l), b, a) for l, j, a in minus_two_phi for i, k, b in h_phi),
            (((i, j, k, l), a, b) for k, i, a in two_phi for j, l, b in phi_h),
            (((i, j, k, l), b, a) for i, j, a in minus_two_phi for l, k, b in phi_h),
        ),
    )


def _pair_interchange_crosscheck(report, name, x):
    table = pair_interchange_table(x)
    notes = (
        "defect of interchanging the argument pairs, compared against the "
        "quoted five-term h-expression per basis tuple; the verdict is data",
    )
    report.crosscheck(name, x.m.dim**4, table, table.__getitem__, notes)


def cyclic_sum_table(x) -> Table:
    """Component p of R(i,j)k + R(j,k)i + R(k,i)j - 2[phih_k phi_ij
    - phih_j phi_ik + phih_i phi_jk], over the nonzero components of R and the
    nonzero entries of phi and phi h."""
    one, idx = x.m.one_scalar(), range(x.m.dim)
    two_phi, minus_two_phi, _ = _phi_entries(x)
    phi_h = x.phi_h.sparse_columns
    curv = x.pkg.curv.table.items()
    return sum_table(
        x.m.params,
        chain(
            ((index, c, one) for index, c in curv),
            (((i, j, k, p), c, one) for (j, k, i, p), c in curv),
            (((i, j, k, p), c, one) for (k, i, j, p), c in curv),
            (((i, j, k, p), a, b) for i, j, a in minus_two_phi for k in idx for p, b in phi_h[k]),
            (((i, j, k, p), a, b) for i, k, a in two_phi for j in idx for p, b in phi_h[j]),
            (((i, j, k, p), a, b) for j, k, a in minus_two_phi for i in idx for p, b in phi_h[i]),
        ),
    )


# first Bianchi identity against the quoted h-expression
def _cyclic_sum_crosscheck(report, name, x):
    table = cyclic_sum_table(x)
    notes = (
        "cyclic sum of the curvature against the quoted h-expression; on this "
        "family both sides may vanish identically even though xi is not Killing",
    )
    report.crosscheck(name, x.m.dim**3, {t[:-1] for t in table}, x.vector_at(table), notes)


# -- Ricci and scalar curvature ---------------------------------------------------
def _gtw_ricci_closed_form(report, name, x):
    m, one = x.m, x.m.one_scalar()
    two_nk_plus_2 = x.kappa.scale(2 * m.n) + m.constant(2)
    report.graded(
        name,
        x.scan(
            x.form(x.pkg.ricci.components, one),
            x.form(x.ricci.components, -one),
            x.metric_eta(m.constant(-2), two_nk_plus_2),
            vector=False,
        ),
    )


def _ricci_alternative_form(report, name, x):
    m, n = x.m, x.m.n
    report.graded(
        name,
        x.scan(
            x.form(x.pkg.ricci.components, m.one_scalar()),
            x.form(x.h.matrix, m.constant(-2 * (n - 1)), transpose=True),
            x.metric_eta(m.constant(-2 * n), m.constant(2 * n)),
            vector=False,
        ),
    )


def _ricci_xi_degenerate(report, name, x):
    report.graded(name, x.xi_values(x.pkg.ricci.components, x.m.zero_scalar()))


def _ricci_symmetry(report, name, x):
    ric, one = x.pkg.ricci.components, x.m.one_scalar()
    report.graded(
        name,
        x.scan(x.form(ric, one), x.form(ric, -one, transpose=True), vector=False),
        notes=(
            "symmetry is not assumed for a torsionful connection; it is checked "
            "per instance",
        ),
    )


def _gtw_scalar_curvature_value(report, name, x):
    tau, target = x.pkg.tau, x.m.constant(4 * x.m.n * x.m.n)
    value = tau - target
    report.graded(
        name,
        None if value.is_zero() else {"residual": str(value)},
        notes=(f"computed scalar curvature: {tau}; expected 4n^2 = {target}",),
    )


def _scalar_curvature_relation(report, name, x):
    m, n = x.m, x.m.n
    tau_lc = scalar_curvature(m, x.ricci)
    relation = x.pkg.tau - (tau_lc + m.constant(4 * n) - x.kappa.scale(2 * n))
    report.graded(
        name,
        None if relation.is_zero() else {"residual": str(relation)},
        notes=("relation checked: tau(displaced) = tau + 4n - 2n kappa",),
    )


# -- space-form decomposition and eta-Einstein fit --------------------------------
def _space_form_decomposition(report, name, x):
    gssf = gssf_decompose(x.templates, x.pkg.curv)
    if gssf is None:
        report.not_applicable(
            name, notes=("no constant (F1, F2, F3) reproduces the curvature exactly",)
        )
        return
    notes = ["coefficients solve the space-form template exactly on every basis triple"]
    if gssf.free:
        verb = "carries" if len(gssf.free) == 1 else "carry"
        notes.append(
            "the system is underdetermined; "
            + ", ".join(gssf.free)
            + f" {verb} the solver default value 1 and the remaining "
            "coefficients follow"
        )
    report.holds(
        name,
        witness={"F1": str(gssf.F1), "F2": str(gssf.F2), "F3": str(gssf.F3)},
        notes=tuple(notes),
    )


def _eta_einstein_fit(report, name, x):
    fit = eta_einstein_fit(x.m, x.s, x.pkg.ricci)
    if fit is None:
        report.not_applicable(name, notes=("no exact fit ricci = A g + B eta (x) eta exists",))
    else:
        a_coeff, b_coeff = fit
        report.holds(name, witness={"A": str(a_coeff), "B": str(b_coeff)})


_GSSF_NAMES = ("F1", "F2", "F3")


def space_form_templates(m: FrameManifold, s: AlmostContactData) -> tuple[Curvature4Tensor, ...]:
    """R1, R2, R3 of the generalized Sasakian space-form template
    R = F1 R1 + F2 R2 + F3 R3 (Alegre-Blair-Carriazo, Israel J. Math. 141, 2004):

        R1(X, Y)Z = g(Y, Z)X - g(X, Z)Y
        R2(X, Y)Z = g(X, phi Z)phi Y - g(Y, phi Z)phi X + 2 g(X, phi Y)phi Z
        R3(X, Y)Z = eta(X)eta(Z)Y - eta(Y)eta(Z)X + g(X, Z)eta(Y)xi - g(Y, Z)eta(X)xi
    """
    idx, one = range(m.dim), m.one_scalar()
    # the nonzero entries: g_aa = 1 on the orthonormal frame, phi_ab = g(phi E_a, E_b),
    # eta_a = eta(E_a) and xi^a
    g = [(a, a, one) for a in idx]
    phi = [(a, b, c) for b, row in enumerate(s.phi.matrix) for a, c in enumerate(row) if c.terms]
    eta = [(a, c) for a, c in enumerate(s.eta.components) if c.terms]
    xi = [(a, c) for a, c in enumerate(s.xi.components) if c.terms]

    # R1_ijk^l = g_jk delta_il - g_ik delta_jl
    r1 = chain(
        (((i, j, k, i), g_jk, one) for j, k, g_jk in g for i in idx),
        (((i, j, k, j), -g_ik, one) for i, k, g_ik in g for j in idx),
    )
    # R2_ijk^l = phi_ki phi_jl - phi_kj phi_il + 2 phi_ji phi_kl
    r2 = chain(
        (((i, j, k, l), p_ki, p_jl) for k, i, p_ki in phi for j, l, p_jl in phi),
        (((i, j, k, l), -p_kj, p_il) for k, j, p_kj in phi for i, l, p_il in phi),
        (((i, j, k, l), p_ji.scale(2), p_kl) for j, i, p_ji in phi for k, l, p_kl in phi),
    )
    # R3_ijk^l = eta_i eta_k delta_jl - eta_j eta_k delta_il + (g_ik eta_j - g_jk eta_i) xi^l
    r3 = chain(
        (((i, j, k, j), e_i, e_k) for i, e_i in eta for k, e_k in eta for j in idx),
        (((i, j, k, i), -e_j, e_k) for j, e_j in eta for k, e_k in eta for i in idx),
        (((i, j, k, l), g_ik * e_j, x_l) for i, k, g_ik in g for j, e_j in eta for l, x_l in xi),
        (((i, j, k, l), -(g_jk * e_i), x_l) for j, k, g_jk in g for i, e_i in eta for l, x_l in xi),
    )
    return tuple(Curvature4Tensor(m.dim, m.params, sum_table(m.params, t)) for t in (r1, r2, r3))


def gssf_decompose(
    templates: tuple[Curvature4Tensor, ...], curv: Curvature4Tensor
) -> GssfCoefficients | None:
    """Solve curv = F1 R1 + F2 R2 + F3 R3 exactly for constant F1, F2, F3, if
    any; ``templates`` is (R1, R2, R3) from ``space_form_templates``.  One
    ``exact_fit`` over the nonzero components of the four tensors."""
    solution = exact_fit(curv.params, curv.table, [t.table for t in templates])
    if solution is None:
        return None
    free = tuple(_GSSF_NAMES[c] for c in solution.free_columns)
    return GssfCoefficients(*solution.values, free=free)


def eta_einstein_fit(
    m: FrameManifold, s: AlmostContactData, form: BilinearForm
) -> tuple[Scalar, Scalar] | None:
    """Solve form = A g + B eta (x) eta exactly; None when inconsistent.

    On the orthonormal frame g(E_i, E_j) = delta_ij and eta(E_i) = eta_i, so
    one ``exact_fit`` reads the nonzero entries of g, eta (x) eta and the form
    from components."""
    eta = [(i, c) for i, c in enumerate(s.eta.components) if c.terms]
    g = dict.fromkeys(((i, i) for i in range(m.dim)), m.one_scalar())
    eta_eta = {(i, j): a * b for i, a in eta for j, b in eta}
    target = {
        (i, j): c for i, row in enumerate(form.components) for j, c in enumerate(row) if c.terms
    }
    solution = exact_fit(m.params, target, (g, eta_eta))
    return None if solution is None else solution.values
