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
from itertools import product

from .curvature import Curvature4Tensor
from .frames import Endomorphism, FrameManifold, FrameVector
from .report import VerificationReport, first_witness
from .linear import exact_fit
from .scalars import Scalar


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

    Every residual is evaluated per basis tuple, in scan order, up to the first
    that is nonzero, from the nonzero entries of its operands only: phi's
    table and columns, eta's and xi's nonzero components, and the nonzero
    structure constants of [E_i, E_j]; g(E_i, E_j) is delta_ij."""
    report = VerificationReport()
    params, idx, zero, one = m.params, range(m.dim), m.zero_scalar(), m.one_scalar()
    phi, cols, xi, eta = s.phi.table, s.phi.sparse_columns, s.xi, s.eta.components
    live_eta = [(k, e) for k, e in enumerate(eta) if e.terms]

    vec = s.phi.apply(xi)
    report.graded("acm.phi_kills_xi", None if vec.is_zero() else {"residual": str(vec)})

    value = Scalar.sum_of_products(params, ((e, xi.components[k]) for k, e in live_eta)) - one
    report.graded("acm.eta_of_xi", None if value.is_zero() else {"residual": str(value)})

    report.graded(
        "acm.eta_after_phi",
        first_witness(
            product(idx, repeat=1),
            lambda i: Scalar.sum_of_products(params, ((eta[p], a) for p, a in cols[i])),
        ),
    )

    square = s.phi.square.sparse_columns
    live_xi = [(p, x) for p, x in enumerate(xi.components) if x.terms]

    def phi_square(j: int) -> FrameVector:
        """Column j of phi^2 + I - xi (x) eta."""
        column = [zero] * m.dim
        for p, a in square[j]:
            column[p] = a
        column[j] = column[j] + one
        if eta[j].terms:
            for p, x in live_xi:
                column[p] = column[p] - eta[j] * x
        return FrameVector(tuple(column))

    report.graded(
        "acm.phi_square",
        first_witness(product(idx, repeat=1), phi_square),
        notes=(_PHI_SQUARE_NOTE,),
    )

    column_maps = [dict(col) for col in cols]

    def phi_metric(i: int, j: int) -> Scalar:
        """g(phi E_i, phi E_j) - delta_ij + eta_i eta_j."""
        col_j = column_maps[j]
        inner = Scalar.sum_of_products(params, ((a, col_j[p]) for p, a in cols[i] if p in col_j))
        return inner - (one if i == j else zero) + eta[i] * eta[j]

    report.graded(
        "acm.phi_metric_compatibility",
        first_witness(product(idx, repeat=2), phi_metric),
        notes=(_PHI_SQUARE_NOTE,),
    )

    # d eta(E_i, E_j) = -1/2 eta([E_i, E_j]) on constant frames (half-convention),
    # each value computed once and read by both slot assignments of phi
    minus_half_eta = [(k, e.scale(Fraction(-1, 2))) for k, e in live_eta]
    d_eta: dict[tuple[int, int], Scalar] = {}

    def residual(i: int, j: int, phi_at: tuple[int, int]) -> Scalar:
        if (i, j) not in d_eta:
            c_ij = dict(m.sparse_c[i][j])
            d_eta[i, j] = Scalar.sum_of_products(
                params, ((e, c_ij[k]) for k, e in minus_half_eta if k in c_ij)
            )
        return d_eta[i, j] - phi.get(phi_at, zero)

    report.graded(
        "acm.contact_condition",
        first_witness(product(idx, repeat=2), lambda i, j: residual(i, j, (i, j))),
        notes=(
            "adopted convention: d eta(X, Y) = 1/2 (X eta(Y) - Y eta(X) - eta([X, Y])) "
            "and contact condition d eta(X, Y) = g(X, phi Y)",
        ),
    )

    # reference variant with phi in the first slot: d eta(X, Y) = g(phi X, Y)
    report.reference(
        "acm.contact_condition_reference_form",
        first_witness(product(idx, repeat=2), lambda i, j: residual(i, j, (j, i))),
        "reference variant d eta(X, Y) = g(phi X, Y) disagrees with the "
        "computed exterior derivative; recorded as data",
    )

    return report


def h_property_checks(
    m: FrameManifold, s: AlmostContactData, h: Endomorphism
) -> VerificationReport:
    """The classical properties of h as report entries, read from the nonzero
    entries of h and phi; the matrix laws scan column by column."""
    report = VerificationReport()
    zero, h_at, phi_at = m.zero_scalar(), h.table.get, s.phi.table.get
    columns = [(i, j) for j in range(m.dim) for i in range(m.dim)]

    report.graded(
        "acm.h_symmetric",
        first_witness(columns, lambda i, j: h_at((i, j), zero) - h_at((j, i), zero)),
    )

    # (h phi + phi h)_ij, one sum of products over the live pairs (h_ik, phi^k_j)
    # and (phi_ik, h^k_j), and the shared zero with no sum when there are none,
    # so a failing frame stops at its first witness
    phi_cols, h_cols = s.phi.sparse_columns, h.sparse_columns

    def anticommutator(i: int, j: int) -> Scalar:
        pairs = [(a, c) for k, c in phi_cols[j] if (a := h_at((i, k))) is not None]
        pairs += [(a, c) for k, c in h_cols[j] if (a := phi_at((i, k))) is not None]
        return Scalar.sum_of_products(m.params, pairs) if pairs else zero

    report.graded("acm.h_phi_anticommute", first_witness(columns, anticommutator))

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
