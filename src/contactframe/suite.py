"""Ordered verification driver.

run_suite assembles one report from the layered check suites:

    frame.*   bracket antisymmetry and the Jacobi identity
    acm.*     almost-contact axioms, the contact condition, the h laws,
              and an informational classification entry
    nkappa.*  nullity-condition identities of the Levi-Civita curvature
    gtw.*     the torsionful connection: parallelism, torsion, curvature,
              Ricci/scalar values, space-form decomposition
    conc.*    the concircular tensor: contraction identities and the
              non-flatness obstructions

The structural layer (frame.*, acm.* and the h laws, one report:
``Instance.structural_report``) is always graded honestly, and it is the
one structural gate: ``curvature --connection gtw`` refuses exactly the
inputs on which it fails.  The derived suites presuppose a contact metric
structure satisfying the nullity condition; when the structural layer
fails, or no single nullity constant fits the curvature, those suites are
emitted as not_applicable entries carrying a gate note instead of
misgrading identities whose hypotheses are absent.  Named suites
("nkappa", "gtw", "concircular") emit only their own section, gated the
same way; "frame" emits only the structural layer; "all" emits everything
in order.

A run derives everything from one ``Instance``: the input, and every layer
as a cached property, so each is computed at most once and only when read.
The Levi-Civita connection and its curvature are layers too: a run whose
structural layer fails reads neither, because every derived row is gated
and the classification asks for kappa only when the acm layer holds.  Each
derived section is a table of rows (``NKAPPA_ROWS``, ``GTW_ROWS``,
``CONC_ROWS``); the check catalogues, the gated entries and the report order
all come from those tables.

A row reads its residual either per basis tuple (``Instance.scan``) or, for
the dim^3 and dim^4 residuals and the xi-slot contractions, from a table of
the nonzero values built from the nonzero entries of its operands
(``Instance.table_scan``, ``tables.sum_table``), one slab of leading indices
at a time; both give the same first witness.  The tables that two rows read
(the curvature closed form, the ricci action) are kept on the instance
(``Instance.kept``).

run_suite never raises on mathematical grounds: every outcome, including a
broken input structure, is a report entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Callable, Iterator

from .concircular import CONC_ROWS, ConcircularTensor, concircular, verify_concircular_suite
from .contact import (
    AlmostContactData,
    StructureClass,
    detect_kappa,
    h_property_checks,
    validate_acm,
)
from .curvature import (
    NKAPPA_ROWS,
    BilinearForm,
    Connection,
    ConnectionConsistencyError,
    Curvature4Tensor,
    levi_civita,
    ricci,
    riemann,
    verify_nkappa_suite,
)
from .frames import Endomorphism, FrameManifold, FrameVector, vectors
from .report import VerificationReport, first_witness
from .scalars import Scalar
from .tables import Table, sum_table, table_witness
from .tanaka_webster import (
    GTW_ROWS,
    GtwPackage,
    build_gtw_package,
    space_form_templates,
    verify_gtw_suite,
)
from .version import ENGINE_VERSION

SUITES = ("all", "frame", "nkappa", "gtw", "concircular")

NKAPPA_CHECK_NAMES = tuple(name for name, _ in NKAPPA_ROWS)
GTW_CHECK_NAMES = tuple(name for name, _ in GTW_ROWS)
CONC_CHECK_NAMES = tuple(name for name, _ in CONC_ROWS)

_STRUCTURAL_GATE = (
    "gated: the structural layer (frame.*/acm.*) fails on this input; "
    "run suite=all or suite=frame for the failing entries"
)
_KAPPA_GATE = (
    "gated: no single nullity constant reproduces R(X, Y)xi on this "
    "instance, so the nullity-based identities have no hypothesis to test"
)


@dataclass(frozen=True, eq=False)
class Instance:
    """One input and every layer derived from it, each computed at most once.

    Every layer, the Levi-Civita connection ``lc`` and its curvature ``r``
    included, is built on first use.
    """

    m: FrameManifold
    s: AlmostContactData
    _r1_witnesses: dict = field(default_factory=dict, init=False, repr=False)
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def scan(self, arity: int, residual: Callable, key: str = "residual") -> dict | None:
        """``first_witness`` over every basis index tuple of ``arity``, row-major."""
        return first_witness(product(range(self.m.dim), repeat=arity), residual, key)

    def table_scan(
        self,
        slab: Callable[..., Table],
        vector: bool = True,
        key: str = "residual",
        depth: int = 1,
    ) -> dict | None:
        """The witness ``scan`` would give, read from tables of nonzero
        residuals: ``slab(*lead)`` is the table of the tuples whose first
        ``depth`` indices are ``lead``, built only while no earlier slab holds a
        witness.  A vector residual puts its component last in the index."""
        dim, params = self.m.dim, self.m.params
        slabs = (slab(*lead) for lead in product(range(dim), repeat=depth))
        if vector:
            slabs = (vectors(table, dim, params) for table in slabs)
        return table_witness(slabs, key)

    def kept(self, slabs: Callable[["Instance"], Callable[[int], Table]], a: int) -> Table:
        """Slab a of the residual ``slabs(self)``, built once: for a table that
        two rows read (the curvature closed form, the ricci action)."""
        key = (slabs, a)
        if key not in self._kept:
            self._kept[key] = slabs(self)(a)
        return self._kept[key]

    def xi_scan(
        self, xi_at: tuple[int, ...], terms: tuple[tuple[Curvature4Tensor, Scalar], ...]
    ) -> dict | None:
        """``table_scan`` of ``xi_contraction(xi_at, terms)``: xi_at=(2,) runs
        (E_i, E_j, xi)."""
        return self.table_scan(self.xi_contraction(xi_at, terms))

    def xi_contraction(
        self, xi_at: tuple[int, ...], terms: tuple[tuple[Curvature4Tensor, Scalar], ...]
    ) -> Callable[[int], Table]:
        """The sum of c T(X, Y, Z) over the terms (T, c), with xi in the argument
        slots ``xi_at`` and E_i, E_j, ... in the others, as tables keyed by those
        frame indices and the component: ``xi_contraction(xi_at, terms)(a)`` is
        the slab whose first frame index is a.  Its products are the nonzero
        entries of the tensors' vectors, weighted by c times xi's entries."""
        dim, params = self.m.dim, self.m.params
        xi = [(r, c) for r, c in enumerate(self.s.xi.components) if c.terms]
        # every filling of the xi slots from xi's nonzero entries, weighted by
        # c times the product of those entries
        weighted = []
        for t, c in terms:
            for fill in product(xi, repeat=len(xi_at)):
                weight = c
                for _, xi_r in fill:
                    weight = weight * xi_r
                weighted.append((t.sparse_vectors, [r for r, _ in fill], weight))
        rest = list(product(range(dim), repeat=2 - len(xi_at)))

        def products(a: int) -> Iterator[tuple[tuple[int, ...], Scalar, Scalar]]:
            for sv, fill, weight in weighted:
                for indices in ((a,) + r for r in rest):
                    frame, filled = iter(indices), iter(fill)
                    i, j, k = (next(filled if slot in xi_at else frame) for slot in range(3))
                    for p, v in sv[i][j][k]:
                        yield indices + (p,), weight, v

        return lambda a: sum_table(params, products(a))

    def r1_scan(self, layer: str, c: Scalar, xi_at: tuple[int, ...]) -> dict | None:
        """``xi_scan`` of T - c R1, T being the layer named ``layer`` ("r" or
        "z"): T against the model c R1 at the same slots.  Each distinct scan
        runs once; rows that grade the same comparison share its witness."""
        key = (layer, c, xi_at)
        if key not in self._r1_witnesses:
            terms = ((getattr(self, layer), self.m.one_scalar()), (self.templates[0], -c))
            self._r1_witnesses[key] = self.xi_scan(xi_at, terms)
        return self._r1_witnesses[key]

    # -- structural layer ----------------------------------------------------

    @cached_property
    def acm_report(self) -> VerificationReport:
        return validate_acm(self.m, self.s)

    @cached_property
    def h(self) -> Endomorphism:
        """h = 1/2 L_xi phi; ``structural_report`` grades its laws."""
        return self.m.lie_derive_endo(self.s.xi, self.s.phi).scale(Fraction(1, 2))

    @cached_property
    def structural_report(self) -> VerificationReport:
        """frame.*, acm.* and the h laws, in report order: the layer that gates
        every derived row of ``run_suite`` and ``curvature --connection gtw``."""
        report = self.m.validate_frame()
        report.extend(self.acm_report)
        report.extend(h_property_checks(self.m, self.s, self.h))
        return report

    @cached_property
    def templates(self) -> tuple[Curvature4Tensor, ...]:
        """The space-form model tensors (R1, R2, R3)."""
        return space_form_templates(self.m, self.s)

    @cached_property
    def x_plus_hx(self) -> tuple[FrameVector, ...]:
        """E_i + hE_i for every frame index."""
        return tuple(self.m.basis(i) + he for i, he in enumerate(self.h.columns))

    @cached_property
    def r1_xi(self) -> tuple[tuple[FrameVector, ...], ...]:
        """R1(xi, E_i + hE_i)E_j = g(E_i + hE_i, E_j) xi - g(xi, E_j)(E_i + hE_i)
        for every pair of frame indices: one sum of two products per component."""
        params, xi = self.m.params, self.s.xi.components

        def r1(v: tuple[Scalar, ...], j: int) -> FrameVector:
            v_j, minus_xi_j = v[j], -xi[j]
            return FrameVector(
                tuple(
                    Scalar.sum_of_products(params, ((v_j, xi_p), (minus_xi_j, v_p)))
                    for xi_p, v_p in zip(xi, v)
                )
            )

        return tuple(
            tuple(r1(v.components, j) for j in range(self.m.dim)) for v in self.x_plus_hx
        )

    @cached_property
    def phi_h(self) -> Endomorphism:
        """phi h, built once; only the derived rows and the torsionful
        connection read it, so a gated run never builds it."""
        return self.s.phi.compose(self.h)

    @cached_property
    def h_phi(self) -> tuple[tuple[Scalar, ...], ...]:
        """g(hE_i, phi E_j) for every pair of frame indices: sum_q h^q_i phi^q_j,
        one sum of products per nonzero entry over the nonzero entries of h."""
        idx, zero, phi = range(self.m.dim), self.m.zero_scalar(), self.s.phi.matrix
        table = sum_table(
            self.m.params,
            (
                ((i, j), h_qi, phi_qj)
                for i, col in enumerate(self.h.sparse_columns)
                for q, h_qi in col
                for j, phi_qj in enumerate(phi[q])
                if phi_qj.terms
            ),
        )
        return tuple(tuple(table.get((i, j), zero) for j in idx) for i in idx)

    @cached_property
    def xh_phi(self) -> tuple[tuple[Scalar, ...], ...]:
        """g(E_i + hE_i, phi E_j) = phi^i_j + g(hE_i, phi E_j) for every pair of
        frame indices."""
        phi = self.s.phi.matrix
        return tuple(
            tuple(phi[i][j] + c for j, c in enumerate(row)) for i, row in enumerate(self.h_phi)
        )

    @cached_property
    def phi_x_plus_hx(self) -> tuple[FrameVector, ...]:
        """phi E_i + phi h E_i for every frame index."""
        return tuple(p + ph for p, ph in zip(self.s.phi.columns, self.phi_h.columns))

    # -- the connection lc -----------------------------------------------------

    @cached_property
    def lc(self) -> Connection:
        return levi_civita(self.m)

    @cached_property
    def r(self) -> Curvature4Tensor:
        return riemann(self.m, self.lc)

    @cached_property
    def ricci(self) -> BilinearForm:
        return ricci(self.m, self.r)

    @cached_property
    def kappa(self) -> Scalar | None:
        return detect_kappa(self.m, self.s, self.r)

    @cached_property
    def dphi_lc(self) -> tuple[Endomorphism, ...]:
        """nabla_{E_i} phi for every frame index."""
        return tuple(self.lc.derivative_endo(self.m, i, self.s.phi) for i in range(self.m.dim))

    @cached_property
    def classification(self) -> StructureClass:
        """Contact metric / K-contact / Sasakian; kappa only when acm holds."""
        m, xi, eta = self.m, self.s.xi, self.s.eta.components
        acm_ok = not self.acm_report.has_failures
        # Sasakian: (nabla_X phi)Y = g(X, Y) xi - eta(Y) X
        sasakian = acm_ok and (
            self.scan(
                2,
                lambda i, j: self.dphi_lc[i].column(j)
                - xi.scale(m.inner_basis(i, j))
                + m.basis(i).scale(eta[j]),
            )
            is None
        )
        return StructureClass(
            is_contact_metric=acm_ok,
            is_K_contact=acm_ok and self.h.is_zero(),
            is_Sasakian=sasakian,
            kappa=self.kappa if acm_ok else None,
        )

    # -- the torsionful connection ---------------------------------------------

    @cached_property
    def pkg(self) -> GtwPackage:
        return build_gtw_package(self.m, self.s, self.lc, self.xh_phi, self.phi_h)

    @cached_property
    def dphi_gtw(self) -> tuple[Endomorphism, ...]:
        conn = self.pkg.conn
        return tuple(conn.derivative_endo(self.m, i, self.s.phi) for i in range(self.m.dim))

    @cached_property
    def dh_gtw(self) -> tuple[Endomorphism, ...]:
        conn = self.pkg.conn
        return tuple(conn.derivative_endo(self.m, i, self.h) for i in range(self.m.dim))

    @cached_property
    def z(self) -> ConcircularTensor:
        return concircular(self.m, self.pkg.curv, self.templates[0])

    @cached_property
    def z_xi(self) -> tuple[Endomorphism, ...]:
        """Z(xi, E_i) for every frame index: the endomorphisms whose actions on
        the ricci form and on Z the concircular obstructions grade; column k of
        Z(xi, E_i) is Z(xi, E_i)E_k, read from slab i of the table
        ``xi_contraction((0,), ((Z, 1),))``."""
        idx, zero = range(self.m.dim), self.m.zero_scalar()
        slab = self.xi_contraction((0,), ((self.z, self.m.one_scalar()),))
        tables = [slab(i) for i in idx]
        return tuple(
            Endomorphism(tuple(tuple(t.get((i, k, p), zero) for k in idx) for p in idx))
            for i, t in enumerate(tables)
        )


def classify(
    m: FrameManifold, s: AlmostContactData, conn: Connection, r: Curvature4Tensor
) -> StructureClass:
    """Sort an instance into contact metric / K-contact / Sasakian classes.

    ``conn`` and ``r`` must be m's Levi-Civita connection and its curvature;
    the instance reads them instead of building its own.
    """
    x = Instance(m, s)
    vars(x).update(lc=conn, r=r)  # fill the two cached properties
    return x.classification


def run_suite(
    m: FrameManifold,
    s: AlmostContactData,
    suite: str = "all",
    manifest_hash: str | None = None,
) -> VerificationReport:
    """Run the requested section(s); see the module docstring for gating.

    The layers a section reads (kappa, the torsionful package, Z) are built
    here, before the section runs, so a section's own work excludes them.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    report = VerificationReport(
        manifest_hash=manifest_hash, engine_version=ENGINE_VERSION
    )
    x = Instance(m, s)

    if x.structural_report.has_failures:
        gate_note = _STRUCTURAL_GATE
    elif x.kappa is None:
        gate_note = _KAPPA_GATE
    else:
        gate_note = ""

    if suite in ("all", "frame"):
        report.extend(x.structural_report)
        cls = x.classification
        report.holds(
            "acm.classification",
            witness={
                "is_contact_metric": str(cls.is_contact_metric).lower(),
                "is_K_contact": str(cls.is_K_contact).lower(),
                "is_Sasakian": str(cls.is_Sasakian).lower(),
                "kappa": str(cls.kappa) if cls.kappa is not None else "none",
            },
            notes=("informational classification; the values are data",),
        )

    nkappa_rows = NKAPPA_ROWS if suite in ("all", "nkappa") else ()
    gtw_rows = GTW_ROWS if suite in ("all", "gtw") else ()
    conc_rows = CONC_ROWS if suite in ("all", "concircular") else ()
    if gate_note:
        for name, _ in nkappa_rows + gtw_rows + conc_rows:
            report.not_applicable(name, notes=(gate_note,))
        return report

    if nkappa_rows:
        report.extend(verify_nkappa_suite(x))
    if gtw_rows or conc_rows:
        try:
            x.pkg
        except ConnectionConsistencyError as exc:
            for name, _ in gtw_rows + conc_rows:
                report.fails(
                    name,
                    witness={"residual": str(exc)},
                    notes=("the torsionful connection could not be built",),
                )
            return report
    if gtw_rows:
        report.extend(verify_gtw_suite(x))
    if conc_rows:
        x.z
        report.extend(verify_concircular_suite(x))
    return report
