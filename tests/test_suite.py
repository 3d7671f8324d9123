"""The suite runner's control flow: the connection-failure path, and how
often one run computes each layer."""

from __future__ import annotations

import importlib.util
import json
import sys
from functools import cached_property
from pathlib import Path

import pytest

import contactframe.cli as cli
import contactframe.contact
import contactframe.curvature
import contactframe.frames
import contactframe.suite as suite_mod
import contactframe.tanaka_webster
from contactframe import (
    BilinearForm,
    Connection,
    ConnectionConsistencyError,
    Curvature4Tensor,
    Endomorphism,
    FrameManifold,
    Instance,
    Scalar,
    dump_manifest,
    emit,
    load_manifest_file,
    make_heisenberg,
    make_lambda_family,
    run_suite,
    verify_concircular_suite,
    verify_gtw_suite,
    verify_nkappa_suite,
)
from contactframe.suite import CATALOGUE
from contactframe.tables import sum_table

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

BROKEN = "metric parallelism violated at (1,2,3): 7"

_SUM_OF_PRODUCTS, _INIT = Scalar.sum_of_products, Scalar.__init__


def _load_ab():
    path = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
    spec = importlib.util.spec_from_file_location("ab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


AB = _load_ab()

GRADERS = {
    "nkappa": verify_nkappa_suite,
    "gtw": verify_gtw_suite,
    "concircular": verify_concircular_suite,
}


def _names(*sections: str) -> tuple[str, ...]:
    """The catalogue's names in the given sections ("nkappa", "gtw", "conc")."""
    return tuple(name for name, _ in CATALOGUE if name.partition(".")[0] in sections)


def _break_the_connection(monkeypatch) -> list:
    """Make building the torsionful connection raise; the calls made are listed."""
    calls = []

    def broken_package(*args, **kwargs):
        calls.append(args)
        raise ConnectionConsistencyError(BROKEN)

    monkeypatch.setattr(suite_mod, "build_gtw_package", broken_package)
    return calls


@pytest.mark.parametrize(
    ("suite", "derived"),
    [
        ("all", _names("gtw", "conc")),
        ("gtw", _names("gtw")),
        ("concircular", _names("conc")),
    ],
)
def test_connection_failure_fails_every_derived_check(monkeypatch, suite, derived):
    _break_the_connection(monkeypatch)
    entry = make_lambda_family(None)
    m, s = entry.manifold, entry.structure
    report = run_suite(m, s, suite)

    tail = report.checks[len(report.checks) - len(derived) :]
    assert tuple(c.name for c in tail) == derived
    for check in tail:
        assert check.status == "fails"
        assert check.witness == {"residual": BROKEN}
        assert check.convention_notes == ("the torsionful connection could not be built",)

    head = [c.name for c in report.checks[: len(report.checks) - len(derived)]]
    if suite == "all":
        # the structural layer and the nullity section come first, unaffected
        assert head[-len(_names("nkappa")) :] == list(_names("nkappa"))
        assert report.by_name("nkappa.nullity_constant").status == "holds"
    else:
        assert head == []
    # a section grader called on its own meets the same failure
    for section in ("gtw", "concircular") if suite == "all" else (suite,):
        assert GRADERS[section](Instance(m, s)).checks == run_suite(m, s, section).checks


def test_a_gated_run_never_builds_the_connection(monkeypatch):
    """On the structurally gated random5 every gtw and conc row is
    not_applicable with the structural note, in run_suite and in each grader
    called alone, and the broken ``build_gtw_package`` is never called."""
    calls = _break_the_connection(monkeypatch)
    m, s = load_manifest_file(str(MANIFESTS / "random5.json"))
    alone = (GRADERS[section](Instance(m, s)) for section in ("gtw", "concircular"))
    reports = [run_suite(m, s, "all"), *alone]
    derived = [c for r in reports for c in r.checks if c.name.startswith(("gtw.", "conc."))]
    assert [c.name for c in derived] == list(_names("gtw", "conc")) * 2
    for check in derived:
        assert check.status == "not_applicable"
        assert check.witness is None
        assert check.convention_notes == (suite_mod._STRUCTURAL_GATE,)
    assert calls == []


def _count_calls(monkeypatch) -> dict[str, int]:
    """Count calls of the layers a run should compute once, wherever they
    are called from: every engine module's reference to a counted function
    and the counted methods are swapped for counting wrappers."""
    counts: dict[str, int] = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    for owner, name in (
        (contactframe.contact, "validate_acm"),
        (contactframe.contact, "detect_kappa"),
        (contactframe.curvature, "levi_civita"),
        (contactframe.curvature, "riemann"),
        (contactframe.curvature, "ricci"),
        (contactframe.tanaka_webster, "space_form_templates"),
    ):
        original = getattr(owner, name)
        wrapper = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            engine = module_name.startswith("contactframe")
            if engine and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    for cls, name in (
        (FrameManifold, "lie_derive_endo"),
        (Endomorphism, "compose"),
        (Connection, "derivative_table"),
        (Curvature4Tensor, "_contract_xi"),
    ):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    return counts


def test_heisenberg_run_computes_each_layer_once(monkeypatch):
    m, s = load_manifest_file(str(MANIFESTS / "heisenberg5.json"))
    counts = _count_calls(monkeypatch)
    run_suite(m, s, "all")
    assert counts == {
        "validate_acm": 1,
        "detect_kappa": 1,
        "lie_derive_endo": 1,
        "levi_civita": 1,
        # the Levi-Civita and the torsionful curvature
        "riemann": 2,
        # the Levi-Civita and the torsionful Ricci forms
        "ricci": 2,
        # phi^2 (built once, ``Endomorphism.square``, for the concircular phi^2
        # variant) and the instance's phi h; the phi axioms, the h laws and
        # h^2 = (kappa - 1) phi^2 sum their residual tables from the nonzero
        # entries, so neither validate_acm nor the h^2 row composes (3 when
        # both phi^2 and h^2 were products)
        "compose": 2,
        # nabla phi (Levi-Civita), nabla h (Levi-Civita), nabla phi and
        # nabla h (torsionful), one table over every frame index each (4 dim
        # commutators, one per index, before)
        "derivative_table": 4,
        # R1, R2, R3, shared by the nullity, torsionful and concircular sections
        "space_form_templates": 1,
        # the xi-contractions (Curvature4Tensor.xi_table), each built once: R and
        # R1 at (1, 2), (2,) and (1,), the torsionful curvature at (2,), (0,) and
        # (1, 2), Z at (1, 2), (2,) and (0,), and the defect D = Z - K R1 at
        # (1, 2), (2,) and (1,); the three conc rows that compared Z with K R1
        # (13 tables, Z's (1,) among them) read D's tables instead
        "_contract_xi": 15,
    }


def test_heisenberg_run_builds_each_xi_table_once(monkeypatch):
    """The sections of one H^5 run read 15 xi tables and build each once;
    ``detect_kappa`` builds R's (2,) table, and the nullity rows read that
    same table.  The conc rows that compare Z with K R1 read the defect
    D = Z - K R1 at (1, 2), (2,) and (1,); Z keeps (1, 2) for the phi^2
    variant, (2,) for the flatness obstruction's nonvanishing half and (0,)
    for Z(xi, E_i), and no longer builds (1,) (13 tables before)."""
    m, s = load_manifest_file(str(MANIFESTS / "heisenberg5.json"))
    built = []
    contract = Curvature4Tensor._contract_xi

    def recording(t, xi, xi_at):
        built.append((t, xi_at))
        return contract(t, xi, xi_at)

    monkeypatch.setattr(Curvature4Tensor, "_contract_xi", recording)
    x = Instance(m, s)
    x.kappa
    r_pair = x.r.xi_table(s.xi, (2,))
    assert built == [(x.r, (2,))]
    for grader in (verify_nkappa_suite, verify_gtw_suite, verify_concircular_suite):
        grader(x)
    assert x.r.xi_table(s.xi, (2,)) is r_pair
    names = {
        id(x.r): "R", id(x.templates[0]): "R1", id(x.pkg.curv): "curv", id(x.z): "Z", id(x.d): "D",
    }
    assert sorted((names[id(t)], xi_at) for t, xi_at in built) == sorted(
        [(t, xi_at) for t in ("R", "R1") for xi_at in ((1, 2), (2,), (1,))]
        + [("curv", xi_at) for xi_at in ((2,), (0,), (1, 2))]
        + [("Z", xi_at) for xi_at in ((1, 2), (2,), (0,))]
        + [("D", xi_at) for xi_at in ((1, 2), (2,), (1,))]
    )


@pytest.mark.parametrize("section", GRADERS)
@pytest.mark.parametrize("manifest", sorted(p.name for p in MANIFESTS.glob("*.json")))
def test_section_graders_gate_themselves(manifest, section):
    """A section grader called on its own emits the entries run_suite emits
    for that section, gated inputs included."""
    m, s = load_manifest_file(str(MANIFESTS / manifest))
    assert GRADERS[section](Instance(m, s)).checks == run_suite(m, s, section).checks


def test_nkappa_grader_on_an_input_without_kappa():
    """kmu3 is a contact metric (kappa, mu)-space: no single kappa fits, so
    every nullity row is not_applicable with the kappa gate note."""
    x = Instance(*load_manifest_file(str(MANIFESTS / "kmu3.json")))
    checks = verify_nkappa_suite(x).checks
    assert len(checks) == 14
    for check in checks:
        assert check.status == "not_applicable"
        assert check.convention_notes == (suite_mod._KAPPA_GATE,)


def test_curvature_gtw_reads_one_instance(monkeypatch, capsys):
    """``curvature --connection gtw`` builds h and the Levi-Civita connection
    once, and the curvature twice (Levi-Civita, torsionful)."""
    counts = _count_calls(monkeypatch)
    path = str(MANIFESTS / "heisenberg5.json")
    assert cli.main(["curvature", path, "--connection", "gtw"]) == 0
    assert capsys.readouterr().out
    assert counts["levi_civita"] == counts["lie_derive_endo"] == 1
    assert counts["riemann"] == 2


def _work_counts(manifest: str) -> dict[str, int]:
    """``scripts/ab.py``'s work counts of one ``run_suite("all")`` on
    ``manifest``."""
    return AB.work_counts(contactframe, *load_manifest_file(str(MANIFESTS / manifest)))


def test_heisenberg_run_work_counts():
    """The residual scans and ``detect_kappa`` are component contractions, not
    a trilinear apply per basis tuple (``Curvature4Tensor`` has no apply
    left).  Both connections and both curvatures are tables built from
    products of nonzero entries: Levi-Civita from the nonzero structure
    constants, the torsionful connection from Levi-Civita's nonzero
    coefficients and the nonzero entries of A, and ``riemann`` from the
    nonzero products of coefficients, each independent component once.  The
    heavy derived rows, and the vector rows of one or two frame vectors
    (nabla xi, nabla phi, nabla h, the torsion forms and the Sasakian test),
    are tables built from the nonzero entries of their operands, each
    xi-contraction is built once per tensor and slot pattern (``Curvature4Tensor.xi_table``), the
    endomorphism derivatives (nabla A and L_xi A) pair each coefficient with
    the nonzero entries of A (``Connection.derivative_table``), and kappa, the space-form and the
    eta-Einstein coefficients are one exact fit (``linear.exact_fit``), so a
    sum of products runs only for an index some product names: the run makes
    850 sums of products, 529 of them zero, under the bounds 887 and 555 (the
    measured counts 845 and 529 plus 5%, before the Ricci form became one
    table contraction with 5 entries; vector rows evaluated per basis tuple
    over a dense R1(xi, X + hX) table take 948 and 628, dense connection and
    Riemann kernels 1,151 and 847, dense derivative and Lie kernels and a
    cross-multiplied kappa 1,843 and 1,615, evaluating every basis tuple of
    the derived rows 8,171 and 7,917, scanning through a trilinear apply
    34,593, summing every Riemann component 9,880, applying R in
    ``detect_kappa`` 8,830 and applying Z in the two conc xi-slot scans
    8,480).  Almost every graded quantity on H^5 is zero, and every zero is
    one shared Scalar, as is the manifold's 1, and a product with a unit
    factor is the other operand: the run constructs 400 Scalars, under the
    bound 420 (the measured count plus 5%; one ``Scalar.sum_of_products`` per
    table index, with no one-term paths in the Scalar ring, made 510, under
    the bound 536; a fresh 1 per ``one_scalar()`` call and
    h halved after the Lie derivative make 593, vector rows evaluated per
    basis tuple 632, dense connection kernels 657, a new zero per zero
    result 13,288, evaluating every tuple 909).  The JSON report is 15,170
    bytes, under the bound 15,929 (plus 5%): a crosscheck witness counts the
    agreeing tuples and names only the differing ones (one "agrees" entry
    per basis tuple made 39,611)."""
    counts = _work_counts("heisenberg5.json")
    assert not hasattr(Curvature4Tensor, "apply")
    assert counts["sum_of_products"] <= 887
    assert counts["zero_sums"] <= 555
    assert counts["scalars"] <= 420
    assert counts["json_bytes"] <= 15929


@pytest.mark.parametrize(
    ("manifest", "sums", "zero_sums"),
    [
        ("heisenberg5.json", 491, 223),
        ("lambda_family.json", 267, 123),
        ("t1e4.json", 1551, 825),
    ],
)
def test_heisenberg_sum_counts_are_exact(manifest, sums, zero_sums):
    """The counter reaches every module that binds ``sum_table`` by name: a
    run on H^5 reads exactly 491 sums of products, 223 of them zero, so a
    binding the counter missed would lower them.  They fell from 577 and 265
    when R1 became its closed form (45 sums, 5 zero: R1_ijj^i = 1 and
    R1_iji^j = -1 for i != j are written, not summed) and the structural
    layer summed only the tuples its nonzero entries name (41 sums, 37 zero):
    the phi axioms are three residual tables (eta o phi per column and
    g(phi E_i, phi E_j) per pair made 30 sums, 26 zero; the tables name 10,
    all zero), and the contact condition sums d eta only where [E_i, E_j]
    has a live eta-component (4, none zero, where every pair made 25, 21
    zero).  The lambda family (295 and 135 before) and T1E4 (1,727 and 905
    before) fell to 267 and 123, and 1,551 and 825; the covariant
    derivatives, one table per connection and operand, sum what the dim
    commutators summed.  They fell from 602 and 290
    when ``acm.h_phi_anticommute`` stopped summing an entry of h phi + phi h
    that no live pair (h_ik, phi^k_j) or (phi_ik, h^k_j) names: h is empty on
    H^5, so each of its 25 entries was a sum with a zero factor in every
    product.  The lambda family (302 and 142 before) and T1E4 (1,770 and
    948 before) fell to 295 and 135, and 1,727 and 905, every sum dropped
    being zero.  They fell from 790 and 468
    when the products that the structure fixes at zero stopped being summed:
    the self action pairs each Z(xi, E_i) with the components of the defect
    D = Z - K R1, empty on H^5, where it paired it with every component of
    Z (128 sums, all zero), and its R1 half is a closed form that names no
    product when Z(xi, E_i) is skew; the eta contraction and the three
    xi-slot comparisons of Z with K R1 read D's tables (36 sums, 28 zero,
    Z's (1,) xi table among them); the Jacobi scan skips the triples that
    compose no two live brackets (50 sums, all zero); and ``exact_fit`` no
    longer substitutes its solution back (14 sums, 12 zero).  Summing D
    costs 40, one per component of Z and R1, all zero on H^5.  The lambda family
    (323 and 158 before) and T1E4 (1,879 and 1,105 before) fell to 302 and
    142, and 1,770 and 948.  Before that, they fell from 850 and 529
    when the eight rows of one or two frame vectors (nabla eta of both
    connections, the Ricci closed forms, the xi values and the Ricci
    symmetry) became residual tables: per basis tuple, the two nabla eta rows
    ran one ``Scalar.sum_of_products`` per pair (50 sums, 46 zero) and the two
    xi-value rows one per S(E_i, xi) and one for S(xi, xi) (12 sums, 10
    zero), where the eight tables name only the 21 indices some product of
    nonzero entries names (13 zero).  Building the eta-contraction and
    phi-flatness tables whole adds 86.  They fell again, from 809 and 486,
    when the structural layer read only nonzero entries: d eta(E_i, E_j) is
    summed once for both slot assignments of phi, and phi xi and h xi name
    only the components some nonzero product reaches.  The symbolic lambda
    family (337 and 169 before that, 350 and 178 per tuple) and T1E4 (1,908
    and 1,130 before, 1,992 and 1,211 per tuple) hold the self action's
    early exit: its tables, one per (i, j),
    stop at the first that holds an entry, where one table per i adds 10 and
    4, and 54 and 28."""
    counts = _work_counts(manifest)
    assert (counts["sum_of_products"], counts["zero_sums"]) == (sums, zero_sums)


def test_kmu3_fit_stops_at_the_first_contradiction():
    """kmu3 has no single nullity constant: R(X, Y)xi is not of the nullity
    shape.  ``solve_linear`` reduces each distinct equation of the fit
    against the pivot rows found so far and returns at the first that
    reduces to 0 = nonzero, so a run constructs exactly 51 Scalars (53 before
    R1 was written in closed form with one shared -1 and the phi axioms
    became residual tables; a full
    elimination of every equation before the contradiction is read made 56,
    and keying the fit's twin equations on Scalars rather than on their
    terms changes no count)."""
    assert _work_counts("kmu3.json")["scalars"] == 51


def test_runs_build_dense_endomorphism_views_only_for_dense_readers(monkeypatch):
    """Every derived operator and form is the table of its nonzero entries,
    and its one dense view is built on first read only, for a caller outside
    the engine (the ``curvature`` command's listing, the tests).  A graded
    run on H^5, T1E4 and the symbolic lambda family builds no
    ``Endomorphism.matrix`` and no ``BilinearForm.components`` view: every
    reader takes the table's entries or its nonzero rows and columns, and
    E_i + hE_i and phi E_i + phi h E_i are the columns of I + h and
    phi + phi h.  A gated run builds none either.  The frame-vector view
    ``columns`` is gone."""
    built: list[str] = []
    for cls, view_name in ((Endomorphism, "matrix"), (BilinearForm, "components")):
        view = cls.__dict__[view_name]

        def counting(a, view=view, label=f"{cls.__name__}.{view_name}"):
            built.append(label)
            return view.func(a)

        patched = cached_property(counting)
        patched.__set_name__(cls, view_name)
        monkeypatch.setattr(cls, view_name, patched)
    assert not hasattr(Endomorphism, "columns")
    lam = make_lambda_family(None)
    graded = [load_manifest_file(str(MANIFESTS / f)) for f in ("heisenberg5.json", "t1e4.json")]
    for m, s in [*graded, (lam.manifold, lam.structure)]:
        assert not Instance(m, s).gate_note
        run_suite(m, s, "all")
    assert built == []
    m, s = load_manifest_file(str(MANIFESTS / "random5.json"))
    assert Instance(m, s).gate_note
    run_suite(m, s, "all")
    assert built == []


def test_heisenberg9_report_size():
    """The report of H^9 is 16,085 bytes, under the bound 16,889 (the measured
    size plus 5%; one "agrees" or "differs" entry per basis tuple of the
    three crosschecks, 6,561 + 729 + 729 of them, made 244,421)."""
    e = make_heisenberg(4)
    assert AB.work_counts(contactframe, e.manifold, e.structure)["json_bytes"] <= 16889


def test_gated_run_work_counts():
    """On the gated dense frame no derived section runs and neither the
    connection nor its curvature is built: one run makes 34 sums of products,
    all in the structural layer, under the bound 36 (the measured count plus
    5%; 59 while the phi axioms, the contact condition and the bracket
    antisymmetry visited every tuple, under the bound 62; 64 when
    ``acm.h_phi_anticommute`` summed entries that no live pair
    names, 96 before the structural layer read only nonzero entries, under
    the bound 100; a dense Lie-derivative kernel for h takes 127, building both tensors
    up front 410, a second set of frame images in ``validate_acm`` 231, one
    set of frame images that nothing reads 201, and composing h phi and
    phi h in full before the h laws scan 171).  It constructs 44 Scalars,
    under the bound 47 (45 before the phi axioms became tables; 54 before the structural
    layer read only nonzero entries, under the bound 56; one
    ``Scalar.sum_of_products`` per table index, with no one-term paths in the
    Scalar ring, made 79, under the bound 83; halving every entry of L_xi phi rather than phi's
    nonzero entries, and a fresh 1 per ``one_scalar()`` call, make 103; a
    new zero per zero result 390)."""
    counts = _work_counts("random5.json")
    assert counts["sum_of_products"] <= 36
    assert counts["scalars"] <= 47


def test_gated_run_computes_each_layer_once(monkeypatch):
    m, s = load_manifest_file(str(MANIFESTS / "random5.json"))
    counts = _count_calls(monkeypatch)
    run_suite(m, s, "all")
    assert counts["validate_acm"] == 1
    assert counts["lie_derive_endo"] == 1
    # validate_acm sums its phi^2 residual from phi's entries and the h laws
    # compose nothing, and there is no instance phi h (phi^2 was composed
    # once before)
    assert "compose" not in counts
    assert "ricci" not in counts and "derivative_table" not in counts
    # every derived section is gated and acm fails, so neither the connection
    # nor kappa is read, and the model tensors are never built
    assert "levi_civita" not in counts and "riemann" not in counts
    assert "detect_kappa" not in counts
    assert "space_form_templates" not in counts


def test_frame_run_builds_the_connection_once_for_kappa(monkeypatch):
    """suite="frame" grades no derived row, but on H^5 acm holds, so the
    classification reads kappa: the Levi-Civita connection and its curvature
    are built exactly once, and nothing of the torsionful connection."""
    m, s = load_manifest_file(str(MANIFESTS / "heisenberg5.json"))
    counts = _count_calls(monkeypatch)
    report = run_suite(m, s, "frame")
    assert report.by_name("acm.classification").witness["kappa"] == "1"
    assert counts["levi_civita"] == counts["riemann"] == counts["detect_kappa"] == 1
    assert "space_form_templates" not in counts and "ricci" not in counts


def test_ab_ladder_records_deterministic_counts():
    """scripts/ab.py covers the ladder, its work counts and report size
    repeat exactly between runs, and it times a request's load and emit."""
    rungs = AB.ladder(contactframe)
    assert list(rungs) == [
        "lambda_symbolic", "lambda_1/2", "H3", "H5", "H7", "H9", "T1E4", "random5", "random5_t"
    ]
    m, s = rungs["lambda_1/2"]
    first, second = AB.work_counts(contactframe, m, s), AB.work_counts(contactframe, m, s)
    assert first == second
    assert set(first) == {"sum_of_products", "zero_sums", "scalars", "json_bytes"}
    assert all(value > 0 for value in first.values())
    assert first["json_bytes"] == len(emit(run_suite(m, s, "all")).encode())
    _, seconds = AB.Tree(contactframe).request([json.dumps(dump_manifest(m, s))])
    assert seconds["load"] > 0 and seconds["emit"] > 0
    # the counting wrappers are removed again
    assert Scalar.sum_of_products is _SUM_OF_PRODUCTS
    assert Scalar.__init__ is _INIT
    engine = [module for name, module in sys.modules.items() if name.startswith("contactframe.")]
    assert all(getattr(module, "sum_table", sum_table) is sum_table for module in engine)
