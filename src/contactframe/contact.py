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
from itertools import chain, product

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

    On the orthonormal frame phi E_i, eta(E_i) and g(E_i, E_j) = delta_ij are read
    as components: phi's column i, eta's component i and ``inner_basis``."""
    report = VerificationReport()
    phi, xi, eta = s.phi, s.xi, s.eta.components
    idx = range(m.dim)
    phi_e = phi.columns

    vec = phi.apply(xi)
    report.graded("acm.phi_kills_xi", None if vec.is_zero() else {"residual": str(vec)})

    value = m.inner(s.eta, xi) - m.one_scalar()
    report.graded("acm.eta_of_xi", None if value.is_zero() else {"residual": str(value)})

    report.graded(
        "acm.eta_after_phi",
        first_witness(product(idx, repeat=1), lambda i: m.inner(s.eta, phi_e[i])),
    )

    report.graded(
        "acm.phi_square",
        first_witness(
            product(idx, repeat=1),
            lambda j: phi.square.column(j) + m.basis(j) - xi.scale(eta[j]),
        ),
        notes=(_PHI_SQUARE_NOTE,),
    )

    report.graded(
        "acm.phi_metric_compatibility",
        first_witness(
            product(idx, repeat=2),
            lambda i, j: m.inner(phi_e[i], phi_e[j]) - m.inner_basis(i, j) + eta[i] * eta[j],
        ),
        notes=(_PHI_SQUARE_NOTE,),
    )

    # d eta(E_i, E_j) = -1/2 eta([E_i, E_j]) on constant frames (half-convention)
    half = Fraction(1, 2)

    def d_eta(i: int, j: int) -> Scalar:
        return (-m.inner(s.eta, m.bracket_basis(i, j))).scale(half)

    report.graded(
        "acm.contact_condition",
        first_witness(product(idx, repeat=2), lambda i, j: d_eta(i, j) - phi.matrix[i][j]),
        notes=(
            "adopted convention: d eta(X, Y) = 1/2 (X eta(Y) - Y eta(X) - eta([X, Y])) "
            "and contact condition d eta(X, Y) = g(X, phi Y)",
        ),
    )

    # reference variant with phi in the first slot: d eta(X, Y) = g(phi X, Y)
    report.reference(
        "acm.contact_condition_reference_form",
        first_witness(product(idx, repeat=2), lambda i, j: d_eta(i, j) - phi.matrix[j][i]),
        "reference variant d eta(X, Y) = g(phi X, Y) disagrees with the "
        "computed exterior derivative; recorded as data",
    )

    return report


def h_property_checks(
    m: FrameManifold, s: AlmostContactData, h: Endomorphism
) -> VerificationReport:
    """The classical properties of h as report entries."""
    report = VerificationReport()
    # matrix witnesses scan column by column
    columns = [(i, j) for j in range(m.dim) for i in range(m.dim)]

    report.graded(
        "acm.h_symmetric",
        first_witness(columns, lambda i, j: h.matrix[i][j] - h.matrix[j][i]),
    )

    # (h phi + phi h)_ij, one sum of products over the nonzero entries of
    # column j of phi and of h, so a failing frame stops at its first witness
    phi, phi_cols, h_cols = s.phi.matrix, s.phi.sparse_columns, h.sparse_columns

    def anticommutator(i: int, j: int) -> Scalar:
        return Scalar.sum_of_products(
            m.params,
            chain(
                ((h.matrix[i][k], c) for k, c in phi_cols[j]),
                ((phi[i][k], c) for k, c in h_cols[j]),
            ),
        )

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
