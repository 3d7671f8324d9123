"""Connections and curvature on an orthonormal frame.

The Levi-Civita connection of a frame manifold with constant structure
constants reduces, on an orthonormal frame, to the bracket-only Koszul
formula

    2 Gamma_{ij}^k = c_{ij}^k - c_{jk}^i + c_{ki}^j ,

where ``nabla_{E_i} E_j = Gamma_{ij}^k E_k``.  Curvature follows the
definitional convention

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z ,

applied to either connection kind; on constant frame coefficients it is
one sum of products per independent component (see ``riemann``): the
tensor is antisymmetric in its first pair, because the structure constants
are, and in its last pair, because both connections are metric, so only
the components with i < j and k < l are summed.  A connection
(``Connection``) is held as the table of its nonzero coefficients keyed
(i, j, k), and a curvature-type tensor (``Curvature4Tensor``) as the table
of its nonzero components, the shape ``tables.sum_table`` returns; every
reader takes them from there.  The Koszul formula, the curvature and the
construction checks of a connection are sums over products of nonzero
entries only, so a coefficient or component that no product names is zero
without a sum.  Every closed-form identity is then *checked against* the
computed tensor rather than assumed, so a sign slip in a quoted formula
surfaces as report data instead of contaminating downstream tensors.

Ricci is the contraction S(X, Y) = sum_i R(X, E_i, E_i, Y) with lowered
components R(X, Y, Z, W) = g(R(X, Y)Z, W), which on the orthonormal frame
are the table's components: one ``sum_table`` over the components
(j, i, i, l).  The scalar curvature is its trace.  This module also houses
the N(kappa) identity suite: the nullity closed forms for curvature against
the characteristic direction, the h- and phi-derivative identities, and the
Ricci/scalar closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, product
from operator import itemgetter, mul
from typing import Iterator, Sequence

from .frames import Endomorphism, FrameManifold, FrameVector
from .report import first_witness
from .scalars import Scalar
from .tables import Table, sum_table


class ConnectionConsistencyError(Exception):
    """Raised when a constructed connection violates its defining invariants."""


@dataclass(frozen=True)
class Connection:
    """The coefficients of nabla_{E_i} E_j = Gamma_ij^k E_k, held as the table
    of the nonzero ones keyed (i, j, k); every coefficient the table does not
    name is zero.  There is no dense view: every reader takes the table, the
    ``curvature`` command's listing included (``suite.Instance.vector_at``)."""

    dim: int
    params: tuple[str, ...]
    table: Table

    @cached_property
    def _by_pair(self) -> dict[tuple[int, int], list[tuple[int, Scalar]]]:
        """The nonzero coefficients (k, Gamma_ij^k) grouped by (i, j), each
        group in k order."""
        groups: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
        for (i, j, k), g in sorted(self.table.items(), key=itemgetter(0)):
            groups.setdefault((i, j), []).append((k, g))
        return groups

    def entries(self, i: int, j: int) -> Sequence[tuple[int, Scalar]]:
        """The nonzero components (k, Gamma_ij^k) of nabla_{E_i} E_j, in k order."""
        return self._by_pair.get((i, j), ())

    @cached_property
    def operators(self) -> tuple[Endomorphism, ...]:
        """G_i, the endomorphism E_q -> nabla_{E_i} E_q, for every frame index:
        (G_i)^p_q = Gamma_iq^p."""
        idx, zero = range(self.dim), Scalar.zero(self.params)
        matrices = [[[zero] * self.dim for _ in idx] for _ in idx]
        for (i, q, p), g in self.table.items():
            matrices[i][p][q] = g
        return tuple(Endomorphism(tuple(map(tuple, rows))) for rows in matrices)

    def derivative_endo(self, i: int, a: Endomorphism) -> Endomorphism:
        """nabla_{E_i} A = [G_i, A] with G_i = ``operators[i]``:

            (nabla_i A)^p_j = sum_q Gamma_iq^p A^q_j - A^p_q Gamma_ij^q .
        """
        return self.operators[i].commutator(a)

    @cached_property
    def metric_residual(self) -> Table:
        """(nabla_{E_i} g)(E_j, E_k) = -(Gamma_ij^k + Gamma_ik^j), as the table
        of its nonzero values keyed (i, j, k)."""
        minus_one = -Scalar.one(self.params)
        return sum_table(
            self.params,
            chain.from_iterable(
                (((i, j, k), g, minus_one), ((i, k, j), g, minus_one))
                for (i, j, k), g in self.table.items()
            ),
        )


def torsion_table(m: FrameManifold, conn: Connection) -> Table:
    """T(E_i, E_j) = nabla_{E_i} E_j - nabla_{E_j} E_i - [E_i, E_j], as the
    table of its nonzero components keyed (i, j, k)."""
    one = Scalar.one(m.params)
    minus_one = -one
    return sum_table(
        m.params,
        chain(
            chain.from_iterable(
                (((i, j, k), g, one), ((j, i, k), g, minus_one))
                for (i, j, k), g in conn.table.items()
            ),
            (
                ((i, j, k), c, minus_one)
                for i, plane in enumerate(m.sparse_c)
                for j, c_ij in enumerate(plane)
                for k, c in c_ij
            ),
        ),
    )


def levi_civita(m: FrameManifold) -> Connection:
    """Koszul formula on the orthonormal frame, one sum of products per
    coefficient some bracket names: each c_ab^d adds +1/2 to Gamma_ab^d,
    -1/2 to Gamma_da^b and +1/2 to Gamma_bd^a.  Verifies metric
    compatibility and torsion-freeness, both structural for the Koszul
    output on antisymmetric c, so a violation indicates malformed input."""
    half = m.constant(Fraction(1, 2))
    minus_half = -half
    table = sum_table(
        m.params,
        chain.from_iterable(
            (((a, b, d), c, half), ((d, a, b), c, minus_half), ((b, d, a), c, half))
            for a, plane in enumerate(m.sparse_c)
            for b, c_ab in enumerate(plane)
            for d, c in c_ab
        ),
    )
    conn = Connection(m.dim, m.params, table)
    # both residuals are tables of their nonzero values, so the first
    # violation in row-major order is the least index tuple either names
    metric, torsion = conn.metric_residual, torsion_table(m, conn)
    if metric or torsion:
        i, j, k = at = min(chain(metric, torsion))
        law = "metric compatibility" if at in metric else "torsion-freeness"
        raise ConnectionConsistencyError(f"{law} violated at ({i + 1},{j + 1},{k + 1})")
    return conn


@dataclass(frozen=True)
class Curvature4Tensor:
    """The components R_ijk^l of R(E_i, E_j)E_k = R_ijk^l E_l, held as the
    table of the nonzero ones keyed (i, j, k, l); every component the table
    does not name is zero."""

    dim: int
    params: tuple[str, ...]
    table: Table

    @cached_property
    def components(self) -> tuple[tuple[tuple[tuple[Scalar, ...], ...], ...], ...]:
        """The dense view R[i][j][k][l], built on first read; no run reads it,
        only the benchmark's trace counter and the tests' references."""
        get, zero, idx = self.table.get, Scalar.zero(self.params), range(self.dim)
        return tuple(
            tuple(tuple(tuple(get((i, j, k, l), zero) for l in idx) for k in idx) for j in idx)
            for i in idx
        )

    @cached_property
    def _by_slot(self) -> tuple[dict[int, list[tuple[int, int, int, int, Scalar]]], ...]:
        """The nonzero components (i, j, k, l, c) grouped by i and by j, each
        group in index order."""
        groups: tuple[dict, dict] = ({}, {})
        for index, c in sorted(self.table.items(), key=itemgetter(0)):
            for slot, group in enumerate(groups):
                group.setdefault(index[slot], []).append((*index, c))
        return groups

    def entries(self, a: int, slot: int = 0) -> Iterator[tuple[int, int, int, int, Scalar]]:
        """The nonzero components (i, j, k, l, R[i][j][k][l]) whose index in the
        argument ``slot`` (0 or 1) is a, in index order."""
        return iter(self._by_slot[slot].get(a, ()))

    @cached_property
    def _xi_tables(self) -> dict[tuple[FrameVector, tuple[int, ...]], Table]:
        return {}

    def xi_table(self, xi: FrameVector, xi_at: tuple[int, ...]) -> Table:
        """T(X, Y)Z with xi in the argument slots ``xi_at`` (0, 1, 2) and frame
        vectors in the others, as the table of its nonzero values keyed by the
        frame indices of the other slots and the component: ``xi_table(xi, (2,))``
        maps (i, j, p) to component p of T(E_i, E_j)xi.  Built once per
        (xi, xi_at); the tensor keeps it, so every reader shares one table."""
        key = (xi, xi_at)
        if key not in self._xi_tables:
            self._xi_tables[key] = self._contract_xi(xi, xi_at)
        return self._xi_tables[key]

    def _contract_xi(self, xi: FrameVector, xi_at: tuple[int, ...]) -> Table:
        """One ``sum_table`` over the nonzero components (i, j, k, l) -> c, each
        weighted by the product of xi's entries at its xi slots; the component
        comes first in each product, so a weight of 1 keeps the component
        itself."""
        at_xi = itemgetter(*xi_at)
        index = itemgetter(*(slot for slot in range(3) if slot not in xi_at), 3)
        nonzero = [(r, c) for r, c in enumerate(xi.components) if c.terms]
        # keyed as at_xi reads the indices of a component
        weights = {
            at_xi(dict(zip(xi_at, (r for r, _ in fill)))): reduce(mul, (c for _, c in fill))
            for fill in product(nonzero, repeat=len(xi_at))
        }
        return sum_table(
            xi.params,
            (
                (index(e), c, weights[at])
                for e, c in self.table.items()
                if (at := at_xi(e)) in weights
            ),
        )


def riemann(m: FrameManifold, conn: Connection) -> Curvature4Tensor:
    """Curvature of a frame connection, one sum of products per independent
    component some product of nonzero coefficients names.

    R(E_i, E_j)E_k = nabla_i nabla_j E_k - nabla_j nabla_i E_k
    - nabla_{[E_i, E_j]} E_k on constant frame coefficients gives

        R_ijk^l = sum_m Gamma_jk^m Gamma_im^l - Gamma_ik^m Gamma_jm^l
                  - c_ij^m Gamma_mk^l .

    Only the products of nonzero entries with i < j and k < l are formed:
    each Gamma_ak^m pairs with each Gamma_bm^l, b != a, as the first term
    when b < a and the second when a < b.  Each nonzero sum is written into
    the table with the three components it fixes by sign; the i = j and
    k = l diagonals are zero, so no entry holds them.  Two preconditions
    make that exact:

    - R_jik^l = -R_ijk^l needs c_ji^m = -c_ij^m, which
      ``FrameManifold.from_pairs`` builds; the kernel reads -c_ij^m as c_ji^m;
    - R_ijl^k = -R_ijk^l needs a metric connection, Gamma_ij^k = -Gamma_ik^j,
      which ``levi_civita`` and ``tanaka_webster.gtw_connection`` check on
      construction (they raise ``ConnectionConsistencyError`` otherwise).
    """
    idx, entries = range(m.dim), conn.entries

    def products() -> Iterator[tuple[tuple[int, int, int, int], Scalar, Scalar]]:
        for (a, k, q), g in conn.table.items():
            minus_g = -g
            for b in idx:
                if b == a:
                    continue
                for l, g_bq in entries(b, q):
                    if k < l:
                        if b < a:
                            yield (b, a, k, l), g, g_bq
                        else:
                            yield (a, b, k, l), minus_g, g_bq
        for j, plane in enumerate(m.sparse_c):
            for i in range(j):
                for q, c_ji in plane[i]:
                    for k in idx:
                        for l, g_qk in entries(q, k):
                            if k < l:
                                yield (i, j, k, l), c_ji, g_qk

    sums = sum_table(m.params, products())
    table: Table = {}
    # row-major, whatever order the products named the components in
    for (i, j, k, l) in sorted(sums):
        r = sums[i, j, k, l]
        table[i, j, k, l] = table[j, i, l, k] = r
        table[j, i, k, l] = table[i, j, l, k] = -r
    return Curvature4Tensor(m.dim, m.params, table)


@dataclass(frozen=True)
class BilinearForm:
    """A rank-2 form by frame components S[i][j] = S(E_i, E_j)."""

    components: tuple[tuple[Scalar, ...], ...]


def ricci(m: FrameManifold, r: Curvature4Tensor) -> BilinearForm:
    """S(E_j, E_l) = sum_i R(E_j, E_i, E_i, E_l): one ``sum_table`` over the
    nonzero components (j, i, i, l)."""
    idx, zero, one = range(m.dim), m.zero_scalar(), m.one_scalar()
    sums = sum_table(
        m.params, (((j, l), c, one) for (j, i, k, l), c in r.table.items() if i == k)
    )
    return BilinearForm(tuple(tuple(sums.get((j, l), zero) for l in idx) for j in idx))


def scalar_curvature(m: FrameManifold, s: BilinearForm) -> Scalar:
    return sum((s.components[i][i] for i in range(m.dim)), m.zero_scalar())


# ---------------------------------------------------------------------------
# N(kappa) identity suite: one row per check of the Levi-Civita curvature,
# graded from the instance x (``suite.Instance``), each from one table of its
# nonzero residuals except h^2, which is scanned column by column.
# Reference variants that disagree with the computed tensors are reported as
# informational entries rather than failures.
# ---------------------------------------------------------------------------


def _nullity_constant(report, name, x):
    report.holds(name, witness={"kappa": str(x.kappa)})


def _xi_covariant_derivative(report, name, x):
    report.graded(
        name,
        x.scan(x.xi_derivative(x.lc, x.s.phi, x.phi_h)),
        notes=(
            "asserted form: nabla_X xi = -phi X - phi h X; the variant with a bare "
            "h-term is checked separately as a reference form",
        ),
    )


def _xi_covariant_derivative_reference(report, name, x):
    report.reference(
        name,
        x.scan(x.xi_derivative(x.lc, x.s.phi, x.h)),
        "reference variant -phi X - h X disagrees with the computed "
        "derivative; recorded as data",
    )


# (nabla_X phi)Y = g(X + hX, Y) xi - eta(Y)(X + hX) = R1(xi, X + hX)Y
def _phi_covariant_derivative(report, name, x):
    one = x.m.one_scalar()
    report.graded(name, x.scan(x.derivatives(x.dphi_lc, one), x.r1_xi(-one)))


# h^2 = (kappa - 1) phi^2, scanned column by column
def _h_square(report, name, x):
    idx = range(x.m.dim)
    diff = x.h.square - x.s.phi.square.scale(x.kappa - x.m.one_scalar())
    report.graded(
        name,
        first_witness(((i, j) for j in idx for i in idx), lambda i, j: diff.matrix[i][j]),
    )


# (nabla_X h)Y = [(1-kappa) g(X, phi Y) + g(X, h phi Y)] xi + eta(Y) h(phi X + phi h X)
def _h_covariant_derivative(report, name, x):
    h, one = x.h, x.m.one_scalar()
    dh = [x.lc.derivative_endo(i, h) for i in range(x.m.dim)]
    h_cols, eta = h.sparse_columns, x.s.eta.components
    # -eta_j h(phi + phi h)E_i: the products -eta_j (phi + phi h)^q_i h^p_q
    tails = (
        ((i, j, p), -(eta_j * v_q), h_pq)
        for i, v in enumerate(x.phi_x_plus_hx)
        for q, v_q in enumerate(v.components)
        if v_q.terms and h_cols[q]
        for j, eta_j in enumerate(eta)
        if eta_j.terms
        for p, h_pq in h_cols[q]
    )
    # g(X, h phi Y) = g(hX, phi Y): h is symmetric on every input the gate admits
    report.graded(
        name,
        x.scan(
            x.derivatives(dh, one),
            x.along_xi(x.s.phi.matrix, x.kappa - one),
            x.along_xi(x.h_phi, -one),
            tails,
        ),
    )


# (nabla_X eta)Y = g(X + hX, phi Y)
def _eta_covariant_derivative(report, name, x):
    minus_one = -x.m.one_scalar()
    report.graded(
        name, x.scan(x.eta_derivative(x.lc), x.form(x.xh_phi, minus_one), vector=False)
    )


# R(X, xi)xi, R(X, Y)xi and R(X, xi)Y equal kappa R1 at the same slots
def _curvature_xi_xi(report, name, x):
    report.graded(name, x.r1_scan(x.r, x.kappa, xi_at=(1, 2)))


def _curvature_pair_xi(report, name, x):
    report.graded(name, x.r1_scan(x.r, x.kappa, xi_at=(2,)))


def _curvature_xi_argument(report, name, x):
    report.graded(name, x.r1_scan(x.r, x.kappa, xi_at=(1,)))


# S = 2(n-1) g + 2(n-1) g(h., .) + [2n kappa - 2(n-1)] eta (x) eta
def _ricci_closed_form(report, name, x):
    m = x.m
    two_n_minus_2 = m.constant(2 * (m.n - 1))
    eta_coeff = m.constant(2 * m.n) * x.kappa - two_n_minus_2
    report.graded(
        name,
        x.scan(
            x.form(x.ricci.components, m.one_scalar()),
            x.form(x.h.matrix, -two_n_minus_2, transpose=True),
            x.metric_eta(-two_n_minus_2, -eta_coeff),
            vector=False,
        ),
    )


# S(X, xi) = 2 n kappa eta(X); S(xi, xi) = 2 n kappa
def _ricci_xi_values(report, name, x):
    report.graded(name, x.xi_values(x.ricci.components, x.m.constant(2 * x.m.n) * x.kappa))


# tau = 2n(2n - 2 + kappa)
def _scalar_curvature_value(report, name, x):
    m = x.m
    tau = scalar_curvature(m, x.ricci)
    residual = tau - m.constant(2 * m.n) * (m.constant(2 * m.n - 2) + x.kappa)
    report.graded(
        name,
        None if residual.is_zero() else {"residual": str(residual)},
        notes=(f"computed scalar curvature: {tau}",),
    )


# orientation of the Sasakian curvature condition R(X, Y)xi = +-R1(X, Y)xi at
# kappa = 1: computed against both sign conventions; reported, never guessed
def _sasakian_orientation(report, name, x):
    one = x.m.one_scalar()
    if not (x.kappa - one).is_zero():
        report.not_applicable(name, notes=("instance is not Sasakian (kappa differs from 1)",))
        return
    if x.r1_scan(x.r, one, xi_at=(2,)) is None:
        orientation = "eta(Y)X - eta(X)Y"
    elif x.r1_scan(x.r, -one, xi_at=(2,)) is None:
        orientation = "eta(X)Y - eta(Y)X"
    else:
        orientation = "neither"
    report.graded(
        name,
        {"residual": "neither orientation matches"} if orientation == "neither" else None,
        notes=(f"computed orientation: R(X,Y)xi = {orientation}",),
    )
