"""Almost contact metric structures on a frame manifold.

The structure data is a triple (phi, xi, eta): an endomorphism, the
characteristic vector field, and its dual 1-form (stored by components,
so eta(X) = g(eta_dual, X) on the orthonormal frame).  The validator
checks the axioms

    phi xi = 0,   eta(xi) = 1,   eta o phi = 0,
    phi^2 = -I + eta (x) xi,
    g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),

together with the contact condition d eta(X, Y) = g(X, phi Y), where on
constant frames d eta(E_i, E_j) = -1/2 eta([E_i, E_j]) under the
half-convention for the exterior derivative.  The opposite-slot variant
d eta(X, Y) = g(phi X, Y) circulates in the literature; it is evaluated
and reported as data, never silently adopted - the half-convention with
phi in the second slot is the unique assignment validating the worked
3-dimensional family.

The operator h = 1/2 L_xi phi is built once per run, by ``suite.Instance``,
from the Lie derivative; ``h_property_checks`` grades its classical
properties (symmetric, anticommutes with phi, trace-free, kills xi) as
report entries.  ``detect_kappa`` recovers the nullity constant of a
curvature tensor when exactly one polynomial constant fits, through the
engine's one coefficient fit (``linear.exact_fit``); ``suite.classify`` sorts
an instance into contact metric / K-contact / Sasakian as a ``StructureClass``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator

from .curvature import Curvature4Tensor
from .frames import Endomorphism, FrameManifold, FrameVector
from .report import VerificationReport, first_witness
from .linear import exact_fit
from .scalars import Scalar
from .tables import sum_table


@dataclass(frozen=True)
class AlmostContactData:
    phi: Endomorphism
    xi: FrameVector
    eta: FrameVector


@dataclass(frozen=True)
class StructureClass:
    is_contact_metric: bool
    is_K_contact: bool
    is_Sasakian: bool
    kappa: Scalar | None


_PHI_SQUARE_NOTE = (
    "phi^2 = -I + eta (x) xi is the adopted convention; the opposite-sign "
    "variant (phi^2 = I - eta (x) xi, with the matching metric relation "
    "g(phi X, phi Y) = -g(X, Y) + eta(X) eta(Y)) is treated as a sign slip "
    "because it is inconsistent with the worked 3-dimensional family"
)


def validate_acm(m: FrameManifold, s: AlmostContactData) -> VerificationReport:
    """Check the almost-contact axioms and the contact condition exactly.

    The axioms eta o phi = 0, phi^2 = -I + eta (x) xi and the metric relation
    are tables of their nonzero residuals, summed from the nonzero entries of
    phi, eta and xi, with delta for the identity terms; each witness is the
    table's least index, the least column for phi^2, as a row-major scan
    finds it (``FrameManifold.table_witness``).  The contact condition and its
    reference form are evaluated per pair (i, j) in scan order, up to the
    first that is nonzero, skipping the pairs whose residual no nonzero entry
    names: [E_i, E_j] has no component where eta is nonzero, and phi has no
    entry at (i, j) or (j, i)."""
    report = VerificationReport()
    params, idx, zero, one = m.params, range(m.dim), m.zero_scalar(), m.one_scalar()
    minus_one = -one
    phi, rows, cols = s.phi.table, s.phi.sparse_rows, s.phi.sparse_columns
    xi, eta = s.xi, s.eta.components
    live_eta = [(k, e) for k, e in enumerate(eta) if e.terms]
    live_xi = [(p, x) for p, x in enumerate(xi.components) if x.terms]

    vec = s.phi.apply(xi)
    report.graded("acm.phi_kills_xi", None if vec.is_zero() else {"residual": str(vec)})

    value = Scalar.sum_of_products(params, ((e, xi.components[k]) for k, e in live_eta)) - one
    report.graded("acm.eta_of_xi", None if value.is_zero() else {"residual": str(value)})

    # eta(phi E_i) = sum_p eta_p phi^p_i, keyed (i,)
    eta_phi = sum_table(params, (((i,), e, a) for p, e in live_eta for i, a in rows[p]))
    report.graded("acm.eta_after_phi", m.table_witness(eta_phi, vector=False))

    # column j of phi^2 + I - xi (x) eta, component p last:
    # sum_q phi^p_q phi^q_j + delta_pj - eta_j xi^p
    minus_eta = [(j, -e) for j, e in live_eta]
    square = sum_table(
        params,
        chain(
            (((j, p), a, b) for (q, j), b in phi.items() for p, a in cols[q]),
            (((j, j), one, one) for j in idx),
            (((j, p), e, x) for j, e in minus_eta for p, x in live_xi),
        ),
    )
    report.graded("acm.phi_square", m.table_witness(square), notes=(_PHI_SQUARE_NOTE,))

    # g(phi E_i, phi E_j) - delta_ij + eta_i eta_j = sum_p phi^p_i phi^p_j - ...
    metric = sum_table(
        params,
        chain(
            (((i, j), a, b) for row in rows for i, a in row for j, b in row),
            (((i, i), minus_one, one) for i in idx),
            (((i, j), e, f) for i, e in live_eta for j, f in live_eta),
        ),
    )
    report.graded(
        "acm.phi_metric_compatibility",
        m.table_witness(metric, vector=False),
        notes=(_PHI_SQUARE_NOTE,),
    )

    # d eta(E_i, E_j) = -1/2 eta([E_i, E_j]) on constant frames (half-convention),
    # each value computed once and read by both slot assignments of phi
    minus_half_eta = {k: e.scale(Fraction(-1, 2)) for k, e in live_eta}
    d_eta: dict[tuple[int, int], Scalar] = {}

    def named() -> Iterator[tuple[int, int]]:
        """The pairs (i, j) in row-major order whose residual some nonzero
        entry names."""
        for i, plane in enumerate(m.sparse_c):
            for j, c_ij in enumerate(plane):
                if (i, j) in phi or (j, i) in phi or any(k in minus_half_eta for k, _ in c_ij):
                    yield i, j

    def residual(i: int, j: int, phi_at: tuple[int, int]) -> Scalar:
        if (i, j) not in d_eta:
            c_ij = m.sparse_c[i][j]
            pairs = [(e, c) for k, c in c_ij if (e := minus_half_eta.get(k)) is not None]
            d_eta[i, j] = Scalar.sum_of_products(params, pairs) if pairs else zero
        return d_eta[i, j] - phi.get(phi_at, zero)

    report.graded(
        "acm.contact_condition",
        first_witness(named(), lambda i, j: residual(i, j, (i, j))),
        notes=(
            "adopted convention: d eta(X, Y) = 1/2 (X eta(Y) - Y eta(X) - eta([X, Y])) "
            "and contact condition d eta(X, Y) = g(X, phi Y)",
        ),
    )

    # reference variant with phi in the first slot: d eta(X, Y) = g(phi X, Y)
    report.reference(
        "acm.contact_condition_reference_form",
        first_witness(named(), lambda i, j: residual(i, j, (j, i))),
        "reference variant d eta(X, Y) = g(phi X, Y) disagrees with the "
        "computed exterior derivative; recorded as data",
    )

    return report


def h_property_checks(
    m: FrameManifold, s: AlmostContactData, h: Endomorphism
) -> VerificationReport:
    """The classical properties of h as report entries, read from the nonzero
    entries of h and phi; the matrix laws scan column by column, up to the
    first witness, and skip the pairs (i, j) that no live pair names."""
    report = VerificationReport()
    idx, zero, h_at, phi_at = range(m.dim), m.zero_scalar(), h.table.get, s.phi.table.get

    report.graded(
        "acm.h_symmetric",
        first_witness(
            ((i, j) for j in idx for i in idx if (i, j) in h.table or (j, i) in h.table),
            lambda i, j: h_at((i, j), zero) - h_at((j, i), zero),
        ),
    )

    # (h phi + phi h)_ij, one sum of products over the live pairs (h_ik, phi^k_j)
    # and (phi_ik, h^k_j), at the pairs where a nonzero row i of h meets a
    # nonzero column j of phi, or a nonzero row i of phi one of h
    phi_cols, h_cols = s.phi.sparse_columns, h.sparse_columns
    phi_rows, h_rows = {p for p, _ in s.phi.table}, {p for p, _ in h.table}

    def anticommutator(i: int, j: int) -> Scalar:
        pairs = [(a, c) for k, c in phi_cols[j] if (a := h_at((i, k))) is not None]
        pairs += [(a, c) for k, c in h_cols[j] if (a := phi_at((i, k))) is not None]
        return Scalar.sum_of_products(m.params, pairs) if pairs else zero

    report.graded(
        "acm.h_phi_anticommute",
        first_witness(
            (
                (i, j)
                for j in idx
                for i in idx
                if (i in h_rows and phi_cols[j]) or (i in phi_rows and h_cols[j])
            ),
            anticommutator,
        ),
    )

    trace = h.trace()
    report.graded("acm.h_trace_free", None if trace.is_zero() else {"residual": str(trace)})

    vec = h.apply(s.xi)
    report.graded("acm.h_kills_xi", None if vec.is_zero() else {"residual": str(vec)})

    return report


def detect_kappa(
    m: FrameManifold, s: AlmostContactData, r: Curvature4Tensor
) -> Scalar | None:
    """The kappa of R(E_i, E_j)xi = kappa (eta(E_j)E_i - eta(E_i)E_j), by
    ``exact_fit`` over the nonzero components (i, j, p) of both sides.

    None when no single polynomial kappa fits, and when every component
    reads 0 = 0 (in dimension 1, or when eta = 0 and R(., .)xi = 0), where
    kappa is free.
    """
    idx = range(m.dim)
    eta = [(a, c) for a, c in enumerate(s.eta.components) if c.terms]
    # R(E_i, E_j)xi, component p, keyed (i, j, p): the table the nullity rows read
    target = r.xi_table(s.xi, (2,))
    # eta(E_j)E_i - eta(E_i)E_j, zero for i = j
    template = {(i, j, i): e_j for j, e_j in eta for i in idx if i != j}
    template.update({(i, j, j): -e_i for i, e_i in eta for j in idx if i != j})
    solution = exact_fit(m.params, target, (template,))
    return None if solution is None else solution.values[0]
