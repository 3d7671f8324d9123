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
emitted as not_applicable entries carrying a gate note
(``Instance.gate_note``) instead of misgrading identities whose hypotheses
are absent, and the gtw.* and conc.* rows fail with the reason when the
torsionful connection cannot be built.  Every check after the structural
layer is a row of one ordered catalogue, ``CATALOGUE``, and
``report.grade_rows`` is its one gate: it asks the instance for each row's
verdict (``Instance.gate``).  Named suites ("nkappa", "gtw", "concircular")
emit only their own section; "frame" emits the structural layer and the
classification; "all" emits everything in order.

A run derives everything from one ``Instance``: the input, and every layer
as a cached property, so each is computed at most once and only when read.
The Levi-Civita connection and its curvature are layers too: a run whose
structural layer fails reads neither, because every derived row is gated
and the classification asks for kappa only when the acm layer holds.  A
section grader (``verify_gtw_suite``, say) grades its section's rows, so
called on its own it emits what ``run_suite`` emits for that section.

A derived row reads its residual from a table of the nonzero values, summed
from products of the nonzero entries of its operands (``tables.sum_table``).
Every entry is nonzero, so the first witness a row-major scan of every basis
tuple would give is the table's least index, with the value there
(``Instance.table_scan``).  The residuals of one or two frame vectors are
one table each, summed from the products that the instance states
(``Instance.scan``): keyed (i, j, p) for a vector residual (nabla xi,
nabla phi, nabla h, the torsion and its closed forms, and the
classification's Sasakian test) and (i, j) for a scalar one (nabla eta, the
Ricci closed forms, the Ricci symmetry); the xi values read S(E_i, xi)
keyed (i,) and, when that table is empty, S(xi, xi) keyed ().  Every table
is built whole, except three whose witness often comes early on a dense
input (the eta contraction, the phi-flatness test and the self-action
obstruction): those are generators of tables split by their leading
indices, built up to the first that holds an entry
(``tables.first_nonempty``).  ``nkappa.h_square`` reads its table in
column-major order.  The structural layer's phi, eta and xi axioms are
residual tables too; its other checks are evaluated per basis tuple, in
scan order, over the tuples some nonzero entry of eta, phi, h or the
brackets names, and stop at the first witness, which a dense failing input
reaches early.  nabla phi and nabla h of both connections are one table
each, keyed (i, j, p) (``Connection.derivative_table``), read by
``Instance.derivatives``.  Every other endomorphism a run derives (h,
phi h, phi^2, I + h, phi + phi h, Z(xi, E_i)) is the table of its nonzero
entries (``frames.Endomorphism``), built from products and sums of tables,
and so is every form (g(hE_i, phi E_j), g(E_i + hE_i, phi E_j) and both
Ricci forms, ``curvature.BilinearForm``); the rows' products read those
tables (``Instance.form`` and ``along_xi`` take a table's entries, and
``along`` an endomorphism's nonzero columns), so no run builds a dense
view.  The tables that two rows read (the
curvature closed form, the ricci action) are kept on the instance, one per
builder, beside the witness of each ``Instance.r1_scan`` comparison
(``Instance.kept``).  A tensor with xi in some argument slots is read from
one table per tensor and slots, kept on the tensor
(``Curvature4Tensor.xi_table``) and scanned whole: ``detect_kappa``,
``Instance.r1_scan``, ``Instance.z_xi`` and the xi-slot rows share them.
The concircular rows that compare Z with K R1 at the same slots read the
defect Z - K R1 (``Instance.d``, a layer like ``pkg`` and ``z``), summed
once per run, and the self action pairs Z(xi, E_i) only with the defect's
nonzero components; on the Heisenberg ladder the defect is empty.

run_suite never raises on mathematical grounds: every outcome, including a
broken input structure, is a report entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .concircular import (
    ConcircularTensor, _eta_contraction, _eta_contraction_reference, _phi_flatness,
    _ricci_action_obstruction, _ricci_action_slice, _self_action_obstruction, _xi_argument,
    _xi_double_contraction, _xi_double_contraction_phi_square, _xi_flatness_obstruction, _xi_pair,
    concircular, defect,
)
from .contact import (
    AlmostContactData,
    StructureClass,
    detect_kappa,
    h_property_checks,
    validate_acm,
)
from .curvature import (
    BilinearForm, Connection, ConnectionConsistencyError, Curvature4Tensor, _curvature_pair_xi,
    _curvature_xi_argument, _curvature_xi_xi, _eta_covariant_derivative, _h_covariant_derivative,
    _h_square, _nullity_constant, _phi_covariant_derivative, _ricci_closed_form, _ricci_xi_values,
    _sasakian_orientation, _scalar_curvature_value, _xi_covariant_derivative,
    _xi_covariant_derivative_reference, levi_civita, ricci, riemann,
)
from .frames import Endomorphism, FrameManifold, endomorphisms
from .report import FAILS, NOT_APPLICABLE, Check, Row, VerificationReport, grade_rows
from .scalars import Scalar
from .tables import Product, Table, sum_table
from .tanaka_webster import (
    GtwPackage, _curvature_closed_form, _curvature_closed_form_crosscheck, _curvature_xi,
    _cyclic_sum_crosscheck, _eta_einstein_fit, _eta_parallel, _first_pair_antisymmetry,
    _gtw_ricci_closed_form, _gtw_scalar_curvature_value, _h_derivative_relation,
    _h_derivative_relation_reference, _last_pair_antisymmetry, _metric_parallel,
    _pair_interchange_crosscheck, _phi_derivative_relation, _phi_parallel, _ricci_alternative_form,
    _ricci_symmetry, _ricci_xi_degenerate, _scalar_curvature_relation, _space_form_decomposition,
    _torsion_closed_form, _torsion_closed_form_reference, _torsion_nonzero, _xi_parallel,
    build_gtw_package, space_form_templates,
)
from .version import ENGINE_VERSION

SUITES = ("all", "frame", "nkappa", "gtw", "concircular")

_STRUCTURAL_GATE = (
    "gated: the structural layer (frame.*/acm.*) fails on this input; "
    "run suite=all or suite=frame for the failing entries"
)
_KAPPA_GATE = (
    "gated: no single nullity constant reproduces R(X, Y)xi on this "
    "instance, so the nullity-based identities have no hypothesis to test"
)
_CONNECTION_NOTE = ("the torsionful connection could not be built",)

# the entries ((i, j), a_ij) of a form, each nonzero
Entries = Iterable[tuple[tuple[int, int], Scalar]]


@dataclass(frozen=True, eq=False)
class Instance:
    """One input and every layer derived from it, each computed at most once.

    Every layer, the Levi-Civita connection ``lc`` and its curvature ``r``
    included, is built on first use.
    """

    m: FrameManifold
    s: AlmostContactData
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def scan(self, *products: Iterable[Product], vector: bool = True) -> dict | None:
        """The witness of the residual that the products sum to: one table,
        read whole (``table_scan``); a vector residual puts its component
        last in each key."""
        return self.table_scan(sum_table(self.m.params, chain(*products)), vector)

    def table_scan(
        self,
        table: Table,
        vector: bool = True,
        key: str = "residual",
        order: Callable | None = None,
    ) -> dict | None:
        """The witness of a table of nonzero residuals
        (``FrameManifold.table_witness``): the one place a row hands over its
        table."""
        return self.m.table_witness(table, vector, key, order)

    def kept(self, build: Callable[["Instance"], Table]) -> Table:
        """The table ``build(self)``, built once: for a table that two rows
        read (the curvature closed form, the ricci action)."""
        if build not in self._kept:
            self._kept[build] = build(self)
        return self._kept[build]

    def r1_scan(self, t: Curvature4Tensor, c: Scalar, xi_at: tuple[int, ...]) -> dict | None:
        """The witness of T - c R1 with xi in the argument slots ``xi_at``:
        ``t.xi_table`` against R1's table at the same slots, scanned whole.
        Each distinct comparison runs once, kept beside the ``kept`` tables;
        rows that grade the same comparison share its witness."""
        key = (id(t), c, xi_at)
        if key not in self._kept:
            xi, one, minus_c = self.s.xi, self.m.one_scalar(), -c
            self._kept[key] = self.scan(
                ((index, v, one) for index, v in t.xi_table(xi, xi_at).items()),
                ((index, v, minus_c) for index, v in self.templates[0].xi_table(xi, xi_at).items()),
            )
        return self._kept[key]

    # -- the residuals of the frame vectors E_i, E_j ---------------------------
    # Each is stated as products keyed (i, j), or (i, j, p) for a vector
    # residual, p the component of the residual at (E_i, E_j), over the
    # nonzero entries of its operands.

    def xi_derivative(self, conn: Connection, *plus: Endomorphism) -> Iterator[Product]:
        """nabla_{E_i} xi plus A E_i for each A in ``plus``, keyed (i, p): the
        products xi^j Gamma_ij^p and A^p_i over the nonzero entries."""
        xi, one = self.s.xi.components, self.m.one_scalar()
        return chain(
            (((i, p), xi[j], g) for (i, j, p), g in conn.table.items() if xi[j].terms),
            (
                ((i, p), a, one)
                for e in plus
                for i, col in enumerate(e.sparse_columns)
                for p, a in col
            ),
        )

    @staticmethod
    def derivatives(table: Table, c: Scalar) -> Iterator[Product]:
        """c (nabla_{E_i} A)E_j over the nonzero entries of a derivative table
        keyed (i, j, p) (``Connection.derivative_table``)."""
        return ((index, v, c) for index, v in table.items())

    def along_xi(self, entries: Entries, c: Scalar, transpose: bool = False) -> Iterator[Product]:
        """a_ij c xi over the entries ((i, j), a_ij) of a form (keyed (j, i)
        when ``transpose``, as ``form`` reads them) and the nonzero c xi^p."""
        xi = self.s.xi.components
        c_xi = [(p, w) for p, v in enumerate(xi) if v.terms and (w := c * v).terms]
        for (i, j), a_ij, _ in self.form(entries, c, transpose):
            for p, w in c_xi:
                yield (i, j, p), a_ij, w

    @staticmethod
    def along(u: Sequence[Scalar], w: Endomorphism, c: Scalar, u_at: int) -> Iterator[Product]:
        """c u_i w E_j (``u_at`` 0) or c u_j w E_i (``u_at`` 1) over the nonzero
        c u_a and the nonzero entries w^p_b of each column w E_b."""
        c_u = [(a, cu) for a, v in enumerate(u) if v.terms and (cu := c * v).terms]
        for a, cu in c_u:
            for b, col in enumerate(w.sparse_columns):
                i, j = (b, a) if u_at else (a, b)
                for p, v in col:
                    yield (i, j, p), cu, v

    def r1_xi(self, c: Scalar) -> Iterator[Product]:
        """c R1(xi, E_i + hE_i)E_j = c g(E_i + hE_i, E_j) xi - c xi^j (E_i + hE_i),
        the term of both phi-derivative forms."""
        v = self.x_plus_hx
        return chain(
            self.along_xi(v.table.items(), c, transpose=True),
            self.along(self.s.xi.components, v, -c, 1),
        )

    @staticmethod
    def form(entries: Entries, c: Scalar, transpose: bool = False) -> Iterator[Product]:
        """c a_ij keyed (i, j) over the entries ((i, j), a_ij) of a form, each
        nonzero (keyed (j, i) when ``transpose``); none when c is zero.  An
        endomorphism's entries are its ``table.items()``, A^p_j keyed (p, j)."""
        if c.terms:
            for (a, b), a_ab in entries:
                yield ((b, a) if transpose else (a, b)), a_ab, c

    def metric_eta(self, g: Scalar, e: Scalar) -> Iterator[Product]:
        """g delta_ij + e eta_i eta_j keyed (i, j), over the nonzero e eta_i
        and eta_j; no delta term when g is zero."""
        one, eta = self.m.one_scalar(), self.s.eta.components
        e_eta = [(i, w) for i, v in enumerate(eta) if v.terms and (w := e * v).terms]
        live = [(j, v) for j, v in enumerate(eta) if v.terms]
        return chain(
            (((i, i), g, one) for i in range(self.m.dim) if g.terms),
            (((i, j), w, v) for i, w in e_eta for j, v in live),
        )

    def eta_derivative(self, conn: Connection) -> Iterator[Product]:
        """(nabla_{E_i} eta)(E_j) = -eta(nabla_{E_i} E_j) = -eta_k Gamma_ij^k
        keyed (i, j), over the nonzero entries."""
        minus_eta = {k: -v for k, v in enumerate(self.s.eta.components) if v.terms}
        return (((i, j), minus_eta[k], g) for (i, j, k), g in conn.table.items() if k in minus_eta)

    def xi_values(self, form: Table, c: Scalar) -> dict | None:
        """The witness of S(E_i, xi) - c eta_i keyed (i,), ``form`` being the
        table of the nonzero S(E_i, E_j); when that vanishes, of
        S(xi, xi) - c keyed (), a witness with no indices."""
        xi, eta, minus_c = self.s.xi.components, self.s.eta.components, -c
        s_xi = [(i, a, xi[j]) for (i, j), a in form.items() if xi[j].terms]
        c_eta = [((i,), minus_c, v) for i, v in enumerate(eta) if v.terms] if c.terms else []
        return self.scan((((i,), a, v) for i, a, v in s_xi), c_eta, vector=False) or self.scan(
            (((), xi[i] * a, v) for i, a, v in s_xi if xi[i].terms),
            [((), minus_c, self.m.one_scalar())] if c.terms else [],
            vector=False,
        )

    # -- structural layer ----------------------------------------------------

    @cached_property
    def acm_report(self) -> VerificationReport:
        return validate_acm(self.m, self.s)

    @cached_property
    def h(self) -> Endomorphism:
        """h = L_xi (1/2 phi), which is 1/2 L_xi phi since L_xi is linear: the
        halving touches phi's nonzero entries (2n units on an adapted frame),
        not the many-term entries of L_xi phi on a dense frame; the products
        come in the same order, so the table's keys do too.
        ``structural_report`` grades its laws."""
        return self.m.lie_derive_endo(self.s.xi, self.s.phi.scale(Fraction(1, 2)))

    @cached_property
    def structural_report(self) -> VerificationReport:
        """frame.*, acm.* and the h laws, in report order: the layer that gates
        every derived row of ``run_suite`` and ``curvature --connection gtw``."""
        report = self.m.validate_frame()
        report.extend(self.acm_report)
        report.extend(h_property_checks(self.m, self.s, self.h))
        return report

    @cached_property
    def gate_note(self) -> str:
        """Why the derived rows do not apply, "" when they do: the structural
        layer fails, or no single nullity constant fits."""
        if self.structural_report.has_failures:
            return _STRUCTURAL_GATE
        if self.kappa is None:
            return _KAPPA_GATE
        return ""

    def gate(self, name: str) -> Check | None:
        """The verdict on the catalogue row ``name`` when this instance gates
        it, None when the row is graded.  Every nkappa.*, gtw.* and conc.* row
        is not_applicable with ``gate_note`` when that is set; otherwise a
        gtw.* or conc.* row fails with ``connection_error`` when that is set."""
        section = name.partition(".")[0]
        if section == "acm":
            return None
        if self.gate_note:
            return Check(name, NOT_APPLICABLE, convention_notes=(self.gate_note,))
        if section in ("gtw", "conc") and self.connection_error:
            return Check(name, FAILS, {"residual": self.connection_error}, _CONNECTION_NOTE)
        return None

    @cached_property
    def templates(self) -> tuple[Curvature4Tensor, ...]:
        """The space-form model tensors (R1, R2, R3)."""
        return space_form_templates(self.m, self.s)

    @cached_property
    def identity(self) -> Endomorphism:
        """The identity, each diagonal entry the manifold's one shared 1."""
        one = self.m.one_scalar()
        return Endomorphism.from_table(
            self.m.dim, self.m.params, {(i, i): one for i in range(self.m.dim)}
        )

    @cached_property
    def x_plus_hx(self) -> Endomorphism:
        """I + h, whose column i is E_i + hE_i."""
        return self.identity + self.h

    @cached_property
    def phi_h(self) -> Endomorphism:
        """phi h, built once; only the derived rows and the torsionful
        connection read it, so a gated run never builds it."""
        return self.s.phi.compose(self.h)

    @cached_property
    def h_phi(self) -> Table:
        """g(hE_i, phi E_j) = sum_q h^q_i phi^q_j keyed (i, j): one sum of
        products per entry some pair of nonzero entries of h and phi names."""
        phi_rows = self.s.phi.sparse_rows
        return sum_table(
            self.m.params,
            (
                ((i, j), h_qi, phi_qj)
                for i, col in enumerate(self.h.sparse_columns)
                for q, h_qi in col
                for j, phi_qj in phi_rows[q]
            ),
        )

    @cached_property
    def xh_phi(self) -> Table:
        """g(E_i + hE_i, phi E_j) = phi^i_j + g(hE_i, phi E_j) keyed (i, j): the
        nonzero entries of phi's table plus ``h_phi``, a sum built only where
        both name the index."""
        h_phi = Endomorphism.from_table(self.m.dim, self.m.params, self.h_phi)
        return (self.s.phi + h_phi).table

    @cached_property
    def phi_x_plus_hx(self) -> Endomorphism:
        """phi + phi h, whose column i is phi E_i + phi h E_i."""
        return self.s.phi + self.phi_h

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
    def dphi_lc(self) -> Table:
        """nabla phi, keyed (i, j, p) (``Connection.derivative_table``)."""
        return self.lc.derivative_table(self.s.phi)

    @cached_property
    def classification(self) -> StructureClass:
        """Contact metric / K-contact / Sasakian; kappa only when acm holds."""
        acm_ok = sasakian = not self.acm_report.has_failures
        if acm_ok:
            # Sasakian: (nabla_X phi)Y = g(X, Y) xi - eta(Y) X
            one, e = self.m.one_scalar(), self.identity
            sasakian = (
                self.scan(
                    self.derivatives(self.dphi_lc, one),
                    self.along_xi(e.table.items(), -one),
                    self.along(self.s.eta.components, e, one, 1),
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
    def connection_error(self) -> str:
        """Why the torsionful connection cannot be built (the
        ``ConnectionConsistencyError`` text), "" once ``pkg`` is built."""
        try:
            self.pkg
        except ConnectionConsistencyError as exc:
            return str(exc)
        return ""

    @cached_property
    def dphi_gtw(self) -> Table:
        return self.pkg.conn.derivative_table(self.s.phi)

    @cached_property
    def dh_gtw(self) -> Table:
        return self.pkg.conn.derivative_table(self.h)

    @cached_property
    def z(self) -> ConcircularTensor:
        return concircular(self.m, self.pkg.curv, self.templates[0])

    @cached_property
    def d(self) -> Curvature4Tensor:
        """The concircular defect Z - K R1 (``concircular.defect``), read by
        every row that compares Z with K R1 at the same slots and by the self
        action; it reads ``z``, so a changed Z moves those rows."""
        return defect(self.m, self.z, self.templates[0])

    @cached_property
    def z_xi(self) -> tuple[Endomorphism, ...]:
        """Z(xi, E_i) for every frame index: the endomorphisms whose actions on
        the ricci form and on Z the concircular obstructions grade; column k of
        Z(xi, E_i) is Z(xi, E_i)E_k, read from ``z.xi_table(xi, (0,))``."""
        return endomorphisms(self.m.dim, self.m.params, self.z.xi_table(self.s.xi, (0,)))


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


def _classification(report, name, x):
    cls = x.classification
    report.holds(
        name,
        witness={
            "is_contact_metric": str(cls.is_contact_metric).lower(),
            "is_K_contact": str(cls.is_K_contact).lower(),
            "is_Sasakian": str(cls.is_Sasakian).lower(),
            "kappa": str(cls.kappa) if cls.kappa is not None else "none",
        },
        notes=("informational classification; the values are data",),
    )


# Every check after the structural layer, in report order; ``Instance.gate``
# reads a row's hypothesis from its section, the part of its name before the dot.
CATALOGUE: tuple[Row, ...] = (
    ("acm.classification", _classification),
    ("nkappa.nullity_constant", _nullity_constant),
    ("nkappa.xi_covariant_derivative", _xi_covariant_derivative),
    ("nkappa.xi_covariant_derivative_reference_form", _xi_covariant_derivative_reference),
    ("nkappa.phi_covariant_derivative", _phi_covariant_derivative),
    ("nkappa.h_square", _h_square),
    ("nkappa.h_covariant_derivative", _h_covariant_derivative),
    ("nkappa.eta_covariant_derivative", _eta_covariant_derivative),
    ("nkappa.curvature_xi_xi", _curvature_xi_xi),
    ("nkappa.curvature_pair_xi", _curvature_pair_xi),
    ("nkappa.curvature_xi_argument", _curvature_xi_argument),
    ("nkappa.ricci_closed_form", _ricci_closed_form),
    ("nkappa.ricci_xi_values", _ricci_xi_values),
    ("nkappa.scalar_curvature_value", _scalar_curvature_value),
    ("nkappa.sasakian_curvature_xi_orientation", _sasakian_orientation),
    ("gtw.metric_parallel", _metric_parallel),
    ("gtw.xi_parallel", _xi_parallel),
    ("gtw.eta_parallel", _eta_parallel),
    ("gtw.phi_derivative_relation", _phi_derivative_relation),
    ("gtw.phi_parallel", _phi_parallel),
    ("gtw.h_derivative_relation", _h_derivative_relation),
    ("gtw.h_derivative_relation_reference_form", _h_derivative_relation_reference),
    ("gtw.torsion_nonzero", _torsion_nonzero),
    ("gtw.torsion_closed_form", _torsion_closed_form),
    ("gtw.torsion_closed_form_reference_form", _torsion_closed_form_reference),
    ("gtw.curvature_first_pair_antisymmetry", _first_pair_antisymmetry),
    ("gtw.curvature_last_pair_antisymmetry", _last_pair_antisymmetry),
    ("gtw.curvature_xi_pair", _curvature_xi((2,))),
    ("gtw.curvature_xi_first", _curvature_xi((0,))),
    ("gtw.curvature_xi_double", _curvature_xi((1, 2))),
    ("gtw.curvature_closed_form", _curvature_closed_form),
    ("gtw.curvature_closed_form_crosscheck", _curvature_closed_form_crosscheck),
    ("gtw.pair_interchange_crosscheck", _pair_interchange_crosscheck),
    ("gtw.cyclic_sum_crosscheck", _cyclic_sum_crosscheck),
    ("gtw.ricci_closed_form", _gtw_ricci_closed_form),
    ("gtw.ricci_alternative_form", _ricci_alternative_form),
    ("gtw.ricci_xi_degenerate", _ricci_xi_degenerate),
    ("gtw.ricci_symmetry", _ricci_symmetry),
    ("gtw.scalar_curvature_value", _gtw_scalar_curvature_value),
    ("gtw.scalar_curvature_relation", _scalar_curvature_relation),
    ("gtw.space_form_decomposition", _space_form_decomposition),
    ("gtw.eta_einstein_fit", _eta_einstein_fit),
    ("conc.xi_double_contraction", _xi_double_contraction),
    ("conc.xi_double_contraction_phi_square_variant", _xi_double_contraction_phi_square),
    ("conc.xi_pair", _xi_pair),
    ("conc.xi_argument", _xi_argument),
    ("conc.eta_contraction", _eta_contraction),
    ("conc.eta_contraction_reference_form", _eta_contraction_reference),
    ("conc.xi_flatness_obstruction", _xi_flatness_obstruction),
    ("conc.phi_flatness", _phi_flatness),
    ("conc.ricci_action_obstruction", _ricci_action_obstruction),
    ("conc.ricci_action_slice", _ricci_action_slice),
    ("conc.self_action_obstruction", _self_action_obstruction),
)


@cache
def section(prefix: str) -> tuple[Row, ...]:
    """The catalogue's rows whose names start with ``prefix``, in order."""
    return tuple(row for row in CATALOGUE if row[0].startswith(prefix))


def verify_nkappa_suite(x: Instance) -> VerificationReport:
    """The nullity-class identities of ``x``, graded against ``x.kappa``."""
    return grade_rows(section("nkappa."), x)


def verify_gtw_suite(x: Instance) -> VerificationReport:
    """The identities of the torsionful connection ``x.pkg``."""
    return grade_rows(section("gtw."), x)


def verify_concircular_suite(x: Instance) -> VerificationReport:
    """The xi-contraction identities and the obstructions of ``x.z``."""
    return grade_rows(section("conc."), x)


def run_suite(
    m: FrameManifold,
    s: AlmostContactData,
    suite: str = "all",
    manifest_hash: str | None = None,
) -> VerificationReport:
    """Run the requested section(s); see the module docstring for gating.

    The layers a section reads (kappa, the torsionful package, Z) are built
    here, before the section runs, so a section's own work excludes them; a
    gated run builds neither the package nor Z.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    report = VerificationReport(manifest_hash=manifest_hash, engine_version=ENGINE_VERSION)
    x = Instance(m, s)

    if suite in ("all", "frame"):
        report.extend(x.structural_report)
        report.extend(grade_rows(section("acm."), x))
    if suite == "frame":
        return report
    # read before the sections, so that kappa is not a section's own work
    x.gate_note
    if suite in ("all", "nkappa"):
        report.extend(verify_nkappa_suite(x))
    gtw, conc = suite in ("all", "gtw"), suite in ("all", "concircular")
    # connection_error builds the package, unless the sections are gated
    built = (gtw or conc) and not x.gate_note and not x.connection_error
    if gtw:
        report.extend(verify_gtw_suite(x))
    if conc:
        if built:
            x.z
        report.extend(verify_concircular_suite(x))
    return report
