"""The concircular tensor of the torsionful connection and its obstructions.

With the torsionful connection's scalar curvature pinned at 4n^2, the
concircular tensor collapses to

    Z = R - (2n/(2n+1)) R1,

R1 being the space-form model tensor of ``tanaka_webster.space_form_templates``,
and every xi-contraction of Z is K R1 at the same slots, with the constant
K = -2n/(2n+1).  This module builds Z, its defect D = Z - K R1
(``defect``, summed once per run from the nonzero components of Z and R1,
and empty wherever the curvature vanishes), the two tensor-action operators

    (T1(X1,X2).T2)(X3,X4)X5 = T1(X1,X2) T2(X3,X4)X5 - T2(T1(X1,X2)X3, X4)X5
                              - T2(X3, T1(X1,X2)X4)X5 - T2(X3,X4) T1(X1,X2)X5
    (T1(X1,X2).w)(X3,X4)    = w(T1(X1,X2)X3, X4) + w(X3, T1(X1,X2)X4)

(the form action is implemented in this sign convention as quoted; the
standard derivation convention negates both terms), and grades:

- the xi-contraction identities of Z against K R1 (the double-contraction
  is asserted in its definitional expansion K R1(X, xi)xi; the quoted
  K phi^2 X variant holds only under the opposite phi^2 sign and is
  re-evaluated as data);
- the eta-contraction closed form (asserted as K eta(R1(X1, X2)X3), which
  follows from the definition and the curvature's xi-degeneracy; the
  reference variant K eta(R1(X3, X1)X2) is re-evaluated as data);
- the three flatness/action obstructions: Z(X1,X2)xi never vanishes
  identically, Z(xi,X).ricci never vanishes identically, and
  Z(xi,X).Z never vanishes identically, each with a minimal witness;
- the phi-flatness hypothesis test (runs the eta-Einstein fit when the
  hypothesis holds; otherwise records the first nonzero residual).

Every row that compares Z with K R1 at the same slots reads D instead: the
three xi-slot identities and the agreement half of the xi-flatness
obstruction scan D's xi tables, and the eta contraction reads
eta(D(E_i, E_j)E_k); its reference slot order reads Z and R1.  The action
obstructions, the ricci-action slice and the eta-contraction pair are graded
from tables of nonzero residuals (``tables.sum_table``), never evaluated on
every basis tuple.  With A = Z(xi, E_i) built once per i
(``Instance.z_xi``),

    (A.Z)_jkl^p = (A.D)_jkl^p + K (s_jl delta_k^p - s_kl delta_j^p),  s_ab = A^b_a + A^a_b
    (A.D)_jkl^p = sum_q A^p_q D_jkl^q - A^q_j D_qkl^p - A^q_k D_jql^p - A^q_l D_jkq^p
    (A.w)_jk    = sum_q A^q_j w_qk + A^q_k w_jq

the R1 half being the closed form of the action on R1 (``r1_action``).  A.D
and A.w are stated as products of the nonzero entries of A with the nonzero
components of D or w (``self_action_slabs``, ``ricci_action_table``).  A is
skew wherever the torsionful connection builds (that connection is metric,
and R1(X, Y) is skew), so s is empty and the R1 half names no product; on
the Heisenberg ladder D is empty too, and the self action sums nothing.  The
ricci action is one table, which the obstruction and the slice both read.  A row's
witness is its table's least index (``suite.Instance.table_scan``), and three
residuals whose witness often comes early on a dense input are built lazily,
as generators of tables in increasing order of their leading indices, up to
the first that holds an entry (``tables.first_nonempty``): the self action,
one table per (i, j), and the eta-contraction pair
(``eta_contraction_slabs``) and the phi-flatness test, a table of
g(Z(phi E_i, phi E_j)phi E_k, phi E_l) (``phi_flatness_slabs``), one table
per i.  The xi-contractions of Z are read from ``Curvature4Tensor.xi_table``.
The tests hold the tables to the same operators on arbitrary constant vectors
and to the per-tuple residuals they replace, on every basis tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Iterator

from .curvature import Curvature4Tensor
from .frames import Endomorphism, FrameManifold
from .scalars import Scalar
from .tables import Product, Table, first_nonempty, sum_table
from .tanaka_webster import eta_einstein_fit


@dataclass(frozen=True)
class ConcircularTensor(Curvature4Tensor):
    """Concircular components (the Curvature4Tensor layout) with the constant K."""

    K: Scalar


def concircular(
    m: FrameManifold, curv: Curvature4Tensor, r1: Curvature4Tensor
) -> ConcircularTensor:
    """Z = R - (2n/(2n+1)) R1 from the curvature and the model tensor R1; K is
    computed from the instance's n."""
    k = m.constant(-Fraction(2 * m.n, 2 * m.n + 1))
    return ConcircularTensor(m.dim, m.params, _plus_r1(m, curv, r1, k), K=k)


def defect(m: FrameManifold, z: ConcircularTensor, r1: Curvature4Tensor) -> Curvature4Tensor:
    """The concircular defect D = Z - K R1, summed from the nonzero components
    of Z and of R1: the part of Z that its comparisons with K R1 read.  It is
    empty wherever the curvature vanishes (the Heisenberg ladder)."""
    return Curvature4Tensor(m.dim, m.params, _plus_r1(m, z, r1, -z.K))


def _plus_r1(m: FrameManifold, t: Curvature4Tensor, r1: Curvature4Tensor, c: Scalar) -> Table:
    """T + c R1, one sum of products per component that T or R1 names."""
    one = m.one_scalar()
    return sum_table(
        m.params,
        chain(
            ((index, v, one) for index, v in t.table.items()),
            ((index, v, c) for index, v in r1.table.items()),
        ),
    )


def symmetrised(a: Endomorphism) -> Table:
    """s_pj = A^p_j + A^j_p keyed (p, j): the nonzero entries of A + A^T,
    none when A is skew."""
    t, zero = a.table, Scalar.zero(a.params)
    values = ((key, v + t.get(key[::-1], zero)) for key, v in t.items())
    s = {key: v for key, v in values if v.terms}
    return s | {key[::-1]: v for key, v in s.items()}


def r1_action(s: Table, c: Scalar, i: int, j: int, dim: int) -> Iterator[Product]:
    """c (A.R1)(E_j, E_k)E_l keyed (i, j, k, l, p), for s = ``symmetrised(A)``:

        (A.R1)_jkl^p = s_jl delta_k^p - s_kl delta_j^p,

    the closed form of the action of any A on R1(X, Y)Z = g(Y, Z)X - g(X, Z)Y,
    one product per nonzero s_ab and free index; none when A is skew."""
    for (a, l), v in s.items():
        for k in range(dim) if a == j else ():
            yield (i, j, k, l, k), c, v
        yield (i, j, a, l, j), c, -v


def self_action_slabs(x) -> Iterator[Table]:
    """(A.Z)(E_j, E_k)E_l with A = Z(xi, E_i), as one table per (i, j) keyed
    (i, j, k, l, p), in row-major order.  Z = D + K R1 (``defect``), so
    A.Z = A.D + K (A.R1), where

        (A.D)_jkl^p = sum_q A^p_q D_jkl^q - A^q_j D_qkl^p - A^q_k D_jql^p - A^q_l D_jkq^p

    pairs the nonzero components of D with the nonzero entries of A in the
    matching column or row (the first, third and fourth terms read the
    components D_j..., the second those D_q... with A^q_j nonzero), and
    K (A.R1) is its closed form (``r1_action``), which names no product when
    A is skew, as every Z(xi, E_i) of a graded input is.  An i whose A
    vanishes yields no table."""
    d, k_const, dim, params = x.d, x.z.K, x.m.dim, x.m.params

    def products(
        i: int, j: int, a: Endomorphism, minus: Endomorphism, s: Table
    ) -> Iterator[Product]:
        cols, rows = a.sparse_columns, minus.sparse_rows
        for _, k, l, q, c in d.entries(j):
            for p, v in cols[q]:
                yield (i, j, k, l, p), v, c
            for b, v in rows[k]:
                yield (i, j, b, l, q), v, c
            for b, v in rows[l]:
                yield (i, j, k, b, q), v, c
        for q, v in minus.sparse_columns[j]:
            for _, k, l, p, c in d.entries(q):
                yield (i, j, k, l, p), v, c
        yield from r1_action(s, k_const, i, j, dim)

    for i, a in enumerate(x.z_xi):
        if a.is_zero():
            continue
        minus, s = a.scale(-1), symmetrised(a)
        for j in range(dim):
            yield sum_table(params, products(i, j, a, minus, s))


def ricci_action_table(x) -> Table:
    """(A.w)(E_j, E_k) = w(A E_j, E_k) + w(E_j, A E_k) with A = Z(xi, E_i) and
    w the ricci form, both terms positive as quoted, as one table keyed
    (i, j, k): sum_q A^q_j w_qk + w_jq A^q_k over the nonzero entries of A and
    of w."""
    w_rows: list[list[tuple[int, Scalar]]] = [[] for _ in range(x.m.dim)]
    w_cols: list[list[tuple[int, Scalar]]] = [[] for _ in range(x.m.dim)]
    for (j, k), c in x.pkg.ricci.table.items():
        w_rows[j].append((k, c))
        w_cols[k].append((j, c))

    def products() -> Iterator[tuple[tuple[int, ...], Scalar, Scalar]]:
        for i, a in enumerate(x.z_xi):
            for j, col in enumerate(a.sparse_columns):
                for q, v in col:
                    for k, c in w_rows[q]:
                        yield (i, j, k), v, c
                    for b, c in w_cols[q]:
                        yield (i, b, j), c, v

    return sum_table(x.m.params, products())


_FORM_CONVENTION_NOTE = (
    "form action implemented with both terms positive, as quoted; the standard "
    "derivation convention negates both terms, flipping every value's sign but "
    "no vanishing verdict"
)
_ABSENT = ("the stated obstruction is absent on this instance",)


# -- the concircular suite ------------------------------------------------------
# One row per check, graded from the instance x (``suite.Instance``), whose Z
# is ``x.z``, whose defect Z - K R1 is ``x.d`` and whose ricci form is the
# torsionful connection's.


def _defect_scan(x, xi_at: tuple[int, ...]) -> dict | None:
    """The witness of Z - K R1 with xi in the argument slots ``xi_at``: D's
    xi table at those slots, scanned whole."""
    return x.table_scan(x.d.xi_table(x.s.xi, xi_at))


# Z(X, xi)xi = K R1(X, xi)xi: definitional expansion
def _xi_double_contraction(report, name, x):
    report.graded(
        name,
        _defect_scan(x, (1, 2)),
        notes=(
            "asserted definitional expansion: Z(X, xi)xi = K(X - eta(X) xi) "
            "= -K phi^2 X under phi^2 = -I + eta (x) xi",
        ),
    )


# quoted variant K phi^2 X, evaluated under the adopted phi^2 sign
def _xi_double_contraction_phi_square(report, name, x):
    one, minus_k, phi2 = x.m.one_scalar(), -x.z.K, x.s.phi.square.sparse_columns
    table = sum_table(
        x.m.params,
        chain(
            ((index, c, one) for index, c in x.z.xi_table(x.s.xi, (1, 2)).items()),
            (((i, p), c, minus_k) for i, col in enumerate(phi2) for p, c in col),
        ),
    )
    report.reference(
        name,
        x.table_scan(table),
        "the K phi^2 X variant matches only under the opposite "
        "phi^2 sign convention; recorded as data",
    )


# Z(X1, X2)xi = K R1(X1, X2)xi
def _xi_pair(report, name, x):
    report.graded(name, _defect_scan(x, (2,)))


# Z(X1, xi)X2 = K R1(X1, xi)X2
def _xi_argument(report, name, x):
    report.graded(name, _defect_scan(x, (1,)))


def eta_contraction_slabs(x, order: tuple[int, int, int]) -> Iterator[Table]:
    """eta(Z(E_i, E_j)E_k) - K eta(R1(E_a, E_b)E_c), the R1 slots (a, b, c)
    being placed so that (i, j, k) = (a, b, c) read in ``order``: (0, 1, 2)
    compares R1(E_i, E_j)E_k, and so reads eta(D(E_i, E_j)E_k) from the
    defect D = Z - K R1; (1, 2, 0) compares R1(E_k, E_i)E_j, reading Z and
    R1.  One table per i, in order, keyed (i, j, k); its products are the
    nonzero components whose component index p has eta_p nonzero."""
    eta = x.s.eta.components
    if order == (0, 1, 2):
        terms = [(x.d, eta, order)]
    else:
        minus_k_eta = [-(x.z.K * e) for e in eta]
        terms = [(x.z, eta, (0, 1, 2)), (x.templates[0], minus_k_eta, order)]

    def products(i: int) -> Iterator[Product]:
        for t, weight, slots in terms:
            key = itemgetter(*slots)
            for *abc, p, c in t.entries(i, slot=slots[0]):
                if eta[p].terms:
                    yield key(abc), weight[p], c

    return (sum_table(x.m.params, products(i)) for i in range(x.m.dim))


# eta(Z(X1, X2)X3) = K eta(R1(X1, X2)X3)
def _eta_contraction(report, name, x):
    report.graded(
        name,
        x.table_scan(first_nonempty(eta_contraction_slabs(x, (0, 1, 2))), False),
        notes=(
            "asserted form: eta(Z(X1,X2)X3) = K[eta(X1) g(X2,X3) - "
            "eta(X2) g(X1,X3)], the expansion forced by the definition and the "
            "curvature's xi-degeneracy; the reference slot order is checked "
            "separately",
        ),
    )


# reference slot order: K eta(R1(X3, X1)X2)
def _eta_contraction_reference(report, name, x):
    report.reference(
        name,
        x.table_scan(first_nonempty(eta_contraction_slabs(x, (1, 2, 0))), False),
        "reference variant K[eta(X3) g(X1,X2) - eta(X1) g(X3,X2)] "
        "disagrees with the computed contraction; recorded as data",
    )


def _xi_flatness_obstruction(report, name, x):
    """Obstruction: Z(X1, X2)xi cannot vanish identically.

    holds means the obstruction is present: some Z(E_i, E_j)xi is nonzero
    AND every component agrees with the K-closed form, so the non-flatness
    is structural, not accidental.
    """
    first_nonzero = x.table_scan(x.z.xi_table(x.s.xi, (2,)), key="value")
    bad = _defect_scan(x, (2,))
    if first_nonzero is not None and bad is not None:
        report.fails(
            name, witness=bad, notes=("a component disagrees with the K-closed form",)
        )
    else:
        report.nonvanishing(
            name,
            first_nonzero,
            "Z(X1, X2)xi",
            (
                "the instance cannot be xi-flat for this tensor: the witness "
                "value is structural (every component matches the K-closed form)",
            ),
            ("flatness achieved, contradicting the stated obstruction",),
        )


def phi_flatness_slabs(x) -> Iterator[Table]:
    """g(Z(phi E_i, phi E_j)phi E_k, phi E_l) as one table per i, in order,
    keyed (i, j, k, l):

        sum phi^a_i phi^b_j phi^c_k phi^d_l Z_abc^d,

    contracted one slot at a time over the nonzero entries of Z and of phi:
    first a against column i of phi, keyed (b, c, d), then three times the
    leading index against its row of phi, the new index moving last.  An
    index whose phi E vanishes (xi's, say) never appears."""
    z, phi, params = x.z, x.s.phi, x.m.params
    rows = phi.sparse_rows

    for i, col in enumerate(phi.sparse_columns):
        table = sum_table(
            params,
            (
                ((b, c, d), value, phi_ai)
                for a, phi_ai in col
                for _, b, c, d, value in z.entries(a)
            ),
        )
        for _ in range(3):
            table = sum_table(
                params,
                (
                    (key[1:] + (j,), value, phi_ej)
                    for key, value in table.items()
                    for j, phi_ej in rows[key[0]]
                ),
            )
        yield {(i,) + key: value for key, value in table.items()}


def _phi_flatness(report, name, x):
    """Test g(Z(phi X1, phi X2)phi X3, phi X4) = 0; on success fit eta-Einstein."""
    first_nonzero = x.table_scan(first_nonempty(phi_flatness_slabs(x)), False)
    if first_nonzero is not None:
        report.not_applicable(
            name,
            witness=first_nonzero,
            notes=(
                "the phi-flatness hypothesis does not hold on this instance; "
                "the implication's conclusion is therefore not tested",
            ),
        )
        return
    fit = eta_einstein_fit(x.m, x.s, x.pkg.ricci)
    if fit is None:
        report.fails(
            name,
            witness={"residual": "phi-flat but no eta-Einstein fit exists"},
            notes=("the implication's conclusion failed under its hypothesis",),
        )
    else:
        a_coeff, b_coeff = fit
        report.holds(
            name,
            witness={"A": str(a_coeff), "B": str(b_coeff)},
            notes=("phi-flat instance; the ricci form fits A g + B eta (x) eta",),
        )


def _ricci_action_obstruction(report, name, x):
    """Obstruction: (Z(xi, X1).ricci)(X2, X3) cannot vanish identically."""
    first_nonzero = x.table_scan(x.kept(ricci_action_table), False, key="value")
    report.nonvanishing(
        name,
        first_nonzero,
        "Z(xi, X).ricci",
        (
            "the action of Z(xi, .) on the ricci form is not identically "
            "zero; indices order: (X1, X2, X3) in (Z(xi,X1).ricci)(X2,X3)",
            _FORM_CONVENTION_NOTE,
        ),
        _ABSENT,
    )


# slice reduction: (Z(xi, X1).ricci)(X2, xi) = -K ricci(X1, X2); the
# opposite sign is tried before declaring failure
def _ricci_action_slice(report, name, x):
    ric, xi, params = x.pkg.ricci.table, x.s.xi.components, x.m.params

    # (Z(xi, E_i).ricci)(E_j, xi) + sign K ricci(E_i, E_j), the first term being
    # sum_r xi^r (Z(xi, E_i).ricci)(E_j, E_r) over the action's table
    def slice_witness(sign: int) -> dict | None:
        k, action = x.z.K.scale(sign), x.kept(ricci_action_table).items()
        table = sum_table(
            params,
            chain(
                (((i, j), xi[r], c) for (i, j, r), c in action if xi[r].terms),
                (((i, j), k, c) for (i, j), c in ric.items()),
            ),
        )
        return x.table_scan(table, False)

    matched_sign = "-K"
    witness = slice_witness(1)
    if witness is not None and slice_witness(-1) is None:
        matched_sign = "+K"
        witness = None
    report.graded(
        name,
        witness,
        notes=(
            f"slice (Z(xi,X1).ricci)(X2,xi) equals {matched_sign} * ricci(X1,X2) "
            "on this instance; the reference reduction quotes the +K variant, "
            "while the worked 3-dimensional computation uses the -K value "
            "(2/3 at n=1); the computed sign is reported verbatim",
            _FORM_CONVENTION_NOTE,
        ),
    )


def _self_action_obstruction(report, name, x):
    """Obstruction: (Z(xi, X2).Z)(X3, X4)X5 cannot vanish identically."""
    first_nonzero = x.table_scan(first_nonempty(self_action_slabs(x)), key="value")
    report.nonvanishing(
        name,
        first_nonzero,
        "Z(xi, X).Z",
        (
            "the action of Z(xi, .) on Z itself is not identically zero; "
            "indices order: (X2, X3, X4, X5) in (Z(xi,X2).Z)(X3,X4)X5; some "
            "natural-looking tuples vanish by antisymmetry, so the scan "
            "records the minimal-index nonzero tuple",
        ),
        _ABSENT,
    )
