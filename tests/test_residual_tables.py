"""The rows graded from tables of nonzero entries, held to their per-tuple
residuals (``tests/residual_reference.py``).

For every converted row, the table the engine builds from the nonzero entries
of its operands must hold exactly the nonzero per-tuple residuals, and the
row's witness (or crosscheck table) must be the one the per-tuple scan gives.
The instances are the component-contraction ones (the symbolic lambda family,
H^5, T1E4 and a lambda member turned in the E1-E2 plane) and kmu3, H^5 and
T1E4 turned by a dense Cayley rotation (seed 3), on which every table is full.
A row that scans its products inside the row (``Instance.scan``) is held
through the tables it hands to ``Instance.table_scan``.  One entry of Z and
one entry of the torsionful curvature are then perturbed on H^5 and on the
lambda family, and both paths must find the same new witnesses; so are one
off-diagonal entry of each Ricci form and one coefficient of each connection
that eta reads, and every row that reads it must then fail with the
per-tuple scan's witness."""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest

import residual_reference as ref
from contactframe import BilinearForm, Connection, Curvature4Tensor, Instance, Scalar
from contactframe.concircular import (
    ConcircularTensor,
    eta_contraction_slabs,
    phi_flatness_slabs,
    ricci_action_table,
    self_action_slabs,
)
from contactframe.report import VerificationReport, first_witness
from contactframe.suite import CATALOGUE
from contactframe.tanaka_webster import (
    closed_form_table,
    cyclic_sum_table,
    pair_antisymmetry_table,
    pair_interchange_table,
)
from test_component_contractions import NAMES, _build

ROTATED = ["kmu3.json@3", "heisenberg5.json@3", "t1e4.json@3"]

ROWS = dict(CATALOGUE)


@pytest.fixture(scope="module", params=NAMES + ROTATED)
def x(request) -> Instance:
    return _build(request.param)


def _merged(tables) -> dict:
    return {k: v for table in tables for k, v in table.items()}


def _stages(arity) -> tuple[int, ...]:
    """The arities a row scans in turn, the next only when the last is clean:
    (1, 0) for the xi-value rows, which read S(E_i, xi) and then S(xi, xi)."""
    return arity if isinstance(arity, tuple) else (arity,)


def _nonzero(residual, dim: int, arity) -> dict:
    """The per-tuple residual on every basis tuple, zeros left out, of the
    first stage that holds a nonzero one."""
    for stage in _stages(arity):
        values = ((t, residual(*t)) for t in product(range(dim), repeat=stage))
        nonzero = {t: v for t, v in values if not v.is_zero()}
        if nonzero:
            return nonzero
    return {}


def _tables_read(x: Instance, name: str) -> dict:
    """The entries of every table the row ``name`` hands to
    ``Instance.table_scan``, merged."""
    read, scan = [], x.table_scan

    def recording(table, *args):
        read.append(table)
        return scan(table, *args)

    vars(x)["table_scan"] = recording
    try:
        ROWS[name](VerificationReport(), name, x)
    finally:
        del vars(x)["table_scan"]
    return _merged(read)


# (row, arity, per-tuple residual, engine table or None, how the row reports it);
# an engine table of a vector residual is keyed with the component last
def _cases(x: Instance) -> list:
    def vec(table: dict) -> dict:
        at = x.m.vector_at(table)
        return {lead: at(lead) for lead in {index[:-1] for index in table}}

    def read(name: str, arity, residual) -> tuple:
        return name, arity, residual, _tables_read(x, name), "graded"

    cases = [
        ("gtw.curvature_first_pair_antisymmetry", 4, ref.first_pair_antisymmetry(x),
         pair_antisymmetry_table(x, "first"), "graded"),
        ("gtw.curvature_last_pair_antisymmetry", 4, ref.last_pair_antisymmetry(x),
         pair_antisymmetry_table(x, "last"), "graded"),
        ("gtw.pair_interchange_crosscheck", 4, ref.pair_interchange(x),
         pair_interchange_table(x), "crosscheck"),
        ("gtw.cyclic_sum_crosscheck", 3, ref.cyclic_sum(x), vec(cyclic_sum_table(x)),
         "crosscheck"),
        ("conc.eta_contraction", 3, ref.eta_contraction(x, lambda i, j, k: (i, j, k)),
         _merged(eta_contraction_slabs(x, (0, 1, 2))), "graded"),
        ("conc.eta_contraction_reference_form", 3,
         ref.eta_contraction(x, lambda i, j, k: (k, i, j)),
         _merged(eta_contraction_slabs(x, (1, 2, 0))), "graded"),
        ("conc.xi_double_contraction_phi_square_variant", 1, ref.phi_square_variant(x), None,
         "graded"),
        ("conc.ricci_action_obstruction", 3, ref.ricci_action(x),
         ricci_action_table(x), "obstruction"),
        ("conc.self_action_obstruction", 4, ref.self_action(x),
         vec(_merged(self_action_slabs(x))), "obstruction"),
        ("conc.phi_flatness", 4, ref.phi_flatness(x), _merged(phi_flatness_slabs(x)),
         "hypothesis"),
        read("nkappa.eta_covariant_derivative", 2, ref.eta_covariant_derivative(x)),
        read("gtw.eta_parallel", 2, ref.eta_parallel(x)),
        read("gtw.ricci_alternative_form", 2, ref.ricci_alternative_form(x)),
        read("gtw.ricci_xi_degenerate", (1, 0), ref.ricci_xi_degenerate(x)),
        read("gtw.ricci_symmetry", 2, ref.ricci_symmetry(x)),
    ]
    if x.kappa is not None:  # these rows read the nullity constant
        cases += [
            ("gtw.curvature_closed_form", 3, ref.closed_form(x, -1),
             vec(x.kept(closed_form_table)), "graded"),
            ("gtw.curvature_closed_form_crosscheck", 3, ref.closed_form(x, +1), None,
             "crosscheck"),
            read("nkappa.ricci_closed_form", 2, ref.ricci_closed_form(x)),
            read("nkappa.ricci_xi_values", (1, 0), ref.ricci_xi_values(x)),
            read("gtw.ricci_closed_form", 2, ref.gtw_ricci_closed_form(x)),
        ]
    return cases


def _crosscheck_witness(dim: int, arity: int, residual) -> dict:
    """The crosscheck witness built by evaluating every tuple."""
    nonzero = _nonzero(residual, dim, arity)
    return VerificationReport().crosscheck("c", dim**arity, nonzero, nonzero.get, ()).witness


def _expected_witness(x: Instance, arity, residual, kind: str) -> dict | None:
    dim = x.m.dim
    if kind == "crosscheck":
        return _crosscheck_witness(dim, arity, residual)
    key = "value" if kind == "obstruction" else "residual"
    for stage in _stages(arity):
        witness = first_witness(product(range(dim), repeat=stage), residual, key)
        if witness is not None:
            return witness
    return None


def _row_witness(x: Instance, name: str, kind: str) -> dict | None:
    """The row's witness of a nonzero residual: an obstruction that fails and
    a hypothesis that holds (``not_applicable`` otherwise) have none."""
    report = VerificationReport()
    ROWS[name](report, name, x)  # the row itself, also where the suite is gated
    (check,) = report.checks
    if kind == "obstruction" and check.status == "fails":
        return None
    if kind == "hypothesis" and check.status != "not_applicable":
        return None
    return check.witness


def test_tables_hold_the_nonzero_per_tuple_residuals(x):
    for name, arity, residual, table, _ in _cases(x):
        if table is not None:
            assert table == _nonzero(residual, x.m.dim, arity), name


def test_witnesses_and_crosschecks_match_the_per_tuple_scans(x):
    for name, arity, residual, _, kind in _cases(x):
        want = _expected_witness(x, arity, residual, kind)
        assert _row_witness(x, name, kind) == want, name


def test_xi_flatness_witness_matches_the_per_tuple_scan(x):
    got = x.table_scan(x.z.xi_table(x.s.xi, (2,)), key="value")
    at = ref.xi_contraction(x, (2,), ((x.z, x.m.one_scalar()),))
    assert got == first_witness(product(range(x.m.dim), repeat=2), at, "value")


def test_ricci_action_slice_matches_the_per_tuple_scans(x):
    """The slice row tries -K, then +K; its witness is the -K scan's unless
    only the +K scan is clean."""
    tuples = list(product(range(x.m.dim), repeat=2))
    minus_k, plus_k = (
        first_witness(tuples, ref.ricci_action_slice(x, sign)) for sign in (1, -1)
    )
    want = None if minus_k is not None and plus_k is None else minus_k
    assert _row_witness(x, "conc.ricci_action_slice", "graded") == want


@pytest.mark.parametrize("xi_at", [(0,), (1,), (2,), (1, 2)])
def test_xi_scans_match_the_per_tuple_scans(x, xi_at):
    """The scan of a whole xi table (the gtw.curvature_xi_* rows) and of
    T - c R1 (``Instance.r1_scan``) give the per-tuple scans' witnesses."""
    one, r1 = x.m.one_scalar(), x.templates[0]
    tuples = list(product(range(x.m.dim), repeat=3 - len(xi_at)))
    curv = x.table_scan(x.pkg.curv.xi_table(x.s.xi, xi_at))
    assert curv == first_witness(tuples, ref.xi_contraction(x, xi_at, ((x.pkg.curv, one),)))
    comparisons = [(x.z, x.z.K)] + ([(x.r, x.kappa)] if x.kappa is not None else [])
    for t, c in comparisons:
        at = ref.xi_contraction(x, xi_at, ((t, one), (r1, -c)))
        assert x.r1_scan(t, c, xi_at) == first_witness(tuples, at)


def _bumped(t, index: tuple[int, ...]) -> dict:
    """A copy of the table of t (a tensor or a connection) with 1 added at
    ``index``; an entry that becomes zero is dropped."""
    table = dict(t.table)
    value = t.table.get(index, Scalar.zero(t.params)) + Scalar.constant(t.params, 1)
    if value.terms:
        table[index] = value
    else:
        del table[index]
    return table


def _bumped_form(form: BilinearForm, index: tuple[int, int]) -> BilinearForm:
    """A copy of the form with 1 added at ``index``; an entry that becomes
    zero is dropped."""
    return BilinearForm(form.dim, form.params, _bumped(form, index))


def _perturbed(x: Instance, operand: str, index: tuple[int, ...]) -> Instance:
    """A fresh instance of x's input with one perturbed entry in its torsionful
    curvature (and so Z), in Z alone, in a Ricci form (``ricci``, ``gtw_ricci``)
    or in a connection (``lc``, ``gtw_conn``); a perturbed Levi-Civita
    connection leaves x's curvature and torsionful package in place."""
    y, m = Instance(x.m, x.s), x.m
    if operand == "curv":
        curv = Curvature4Tensor(m.dim, m.params, _bumped(x.pkg.curv, index))
        vars(y)["pkg"] = replace(x.pkg, curv=curv)
    elif operand == "z":
        vars(y)["z"] = ConcircularTensor(m.dim, m.params, _bumped(x.z, index), K=x.z.K)
    elif operand == "ricci":
        vars(y)["ricci"] = _bumped_form(x.ricci, index)
    elif operand == "gtw_ricci":
        vars(y)["pkg"] = replace(x.pkg, ricci=_bumped_form(x.pkg.ricci, index))
    elif operand == "lc":
        lc = Connection(m.dim, m.params, _bumped(x.lc, index))
        vars(y).update(lc=lc, r=x.r, pkg=x.pkg)
    else:
        conn = Connection(m.dim, m.params, _bumped(x.pkg.conn, index))
        vars(y)["pkg"] = replace(x.pkg, conn=conn)
    return y


def _witnesses_on_both_paths(y: Instance) -> dict:
    """Each case's row witness on y, held to the per-tuple scan's, and each
    engine table to the nonzero per-tuple residuals."""
    witnesses = {}
    for row, arity, residual, table, kind in _cases(y):
        witnesses[row] = _row_witness(y, row, kind)
        assert witnesses[row] == _expected_witness(y, arity, residual, kind), row
        if table is not None:
            assert table == _nonzero(residual, y.m.dim, arity), row
    return witnesses


# each perturbation, and the rows whose witness it must move
PERTURBATIONS = [
    ("curv", (0, 1, 2, 3), {
        "gtw.curvature_first_pair_antisymmetry", "gtw.curvature_last_pair_antisymmetry",
        "gtw.pair_interchange_crosscheck", "gtw.cyclic_sum_crosscheck",
        "gtw.curvature_closed_form", "gtw.curvature_closed_form_crosscheck",
    }),
    ("z", (0, 1, 2, 0), {
        "conc.eta_contraction", "conc.self_action_obstruction",
    }),
]


@pytest.mark.parametrize("name", ["heisenberg5.json", "lambda_symbolic"])
@pytest.mark.parametrize(("tensor", "index", "moved"), PERTURBATIONS)
def test_a_perturbed_entry_moves_the_same_witnesses(name, tensor, index, moved):
    x = _build(name)
    index = tuple(min(i, x.m.dim - 1) for i in index)
    before = {row: _row_witness(x, row, kind) for row, _, _, _, kind in _cases(x)}
    after = _witnesses_on_both_paths(_perturbed(x, tensor, index))
    assert moved <= {row for row in after if after[row] != before[row]}


# each perturbed operand of the rows of one or two frame vectors, and the rows
# that must then fail: xi and eta are E_1 on both inputs, so the Ricci entry
# (E_2, E_1) moves S(E_2, xi), and the coefficient Gamma_23^1 moves
# (nabla_{E_2} eta)(E_3)
OPERANDS = [
    ("ricci", (1, 0), {
        "nkappa.ricci_closed_form", "nkappa.ricci_xi_values", "gtw.ricci_closed_form",
    }),
    ("gtw_ricci", (1, 0), {
        "gtw.ricci_closed_form", "gtw.ricci_alternative_form", "gtw.ricci_xi_degenerate",
        "gtw.ricci_symmetry",
    }),
    ("lc", (1, 2, 0), {"nkappa.eta_covariant_derivative"}),
    ("gtw_conn", (1, 2, 0), {"gtw.eta_parallel"}),
]


@pytest.mark.parametrize("name", ["heisenberg5.json", "lambda_symbolic"])
@pytest.mark.parametrize(("operand", "index", "failing"), OPERANDS)
def test_a_perturbed_operand_fails_with_the_same_witness(name, operand, index, failing):
    x = _build(name)
    assert x.s.xi.components[0].terms and x.s.eta.components[0].terms
    after = _witnesses_on_both_paths(_perturbed(x, operand, index))
    assert all(after[row] is not None for row in failing)
