"""Exact verification engine for contact metric frame manifolds.

Everything is computed over an orthonormal frame with polynomial structure
constants: curvature of the Levi-Civita and of the torsionful (generalized
Tanaka-Webster) connection, the concircular tensor, and graded check suites
for the identities these objects satisfy on nullity-type instances.  All
arithmetic is exact (rational coefficients, sparse polynomials); no floats
enter any verdict.  Every derived tensor, connection, operator and form is
held as the table of its nonzero entries (``Curvature4Tensor``,
``Connection``, ``Endomorphism``, ``BilinearForm``); a ``BilinearForm`` is
built as ``BilinearForm(dim, params, table)``, its table keyed (i, j).
"""

from .concircular import ConcircularTensor, concircular
from .contact import (
    AlmostContactData,
    StructureClass,
    detect_kappa,
    h_property_checks,
    validate_acm,
)
from .curvature import (
    BilinearForm,
    Connection,
    ConnectionConsistencyError,
    Curvature4Tensor,
    levi_civita,
    ricci,
    riemann,
    scalar_curvature,
)
from .frames import Endomorphism, FrameManifold, FrameVector, render_vector
from .linear import LinearSolution, solve_linear
from .manifest import (
    ManifestError,
    ManifestIssue,
    dump_manifest,
    load_manifest,
    load_manifest_file,
    manifest_hash,
)
from .report import Check, VerificationReport, emit
from .scalars import Scalar, ScalarError, exact_div, parse_scalar
from .suite import (
    SUITES,
    Instance,
    classify,
    run_suite,
    verify_concircular_suite,
    verify_gtw_suite,
    verify_nkappa_suite,
)
from .tanaka_webster import (
    GssfCoefficients,
    GtwPackage,
    build_gtw_package,
    eta_einstein_fit,
    gssf_decompose,
    gtw_connection,
    space_form_templates,
)
from .version import ENGINE_VERSION
from .zoo import (
    BoeckxInvariant,
    ZooDomainError,
    ZooEntry,
    boeckx_invariant,
    dhomothetic_invariants,
    make_heisenberg,
    make_lambda_family,
    make_sasakian3,
    zoo_entry,
)

__version__ = ENGINE_VERSION

__all__ = [
    "AlmostContactData",
    "BilinearForm",
    "BoeckxInvariant",
    "Check",
    "ConcircularTensor",
    "Connection",
    "ConnectionConsistencyError",
    "Curvature4Tensor",
    "ENGINE_VERSION",
    "Endomorphism",
    "FrameManifold",
    "FrameVector",
    "GssfCoefficients",
    "GtwPackage",
    "Instance",
    "LinearSolution",
    "ManifestError",
    "ManifestIssue",
    "Scalar",
    "ScalarError",
    "StructureClass",
    "SUITES",
    "VerificationReport",
    "ZooDomainError",
    "ZooEntry",
    "boeckx_invariant",
    "build_gtw_package",
    "classify",
    "concircular",
    "detect_kappa",
    "dhomothetic_invariants",
    "dump_manifest",
    "emit",
    "eta_einstein_fit",
    "exact_div",
    "gssf_decompose",
    "gtw_connection",
    "h_property_checks",
    "levi_civita",
    "load_manifest",
    "load_manifest_file",
    "make_heisenberg",
    "make_lambda_family",
    "make_sasakian3",
    "manifest_hash",
    "parse_scalar",
    "render_vector",
    "ricci",
    "riemann",
    "run_suite",
    "scalar_curvature",
    "solve_linear",
    "space_form_templates",
    "validate_acm",
    "verify_concircular_suite",
    "verify_gtw_suite",
    "verify_nkappa_suite",
    "zoo_entry",
]
