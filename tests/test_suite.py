"""The suite runner's control flow: the connection-failure path, and how
often one run computes each layer."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import contactframe.cli as cli
import contactframe.contact
import contactframe.curvature
import contactframe.frames
import contactframe.suite as suite_mod
import contactframe.tanaka_webster
from contactframe import (
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
        (Connection, "derivative_endo"),
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
        # phi^2 and h^2 (each built once, ``Endomorphism.square``) and the
        # instance's phi h; the h laws read h phi + phi h entry by entry
        "compose": 3,
        # nabla phi (Levi-Civita), nabla h (Levi-Civita), nabla phi and
        # nabla h (torsionful), one per frame index each
        "derivative_endo": 4 * m.dim,
        # R1, R2, R3, shared by the nullity, torsionful and concircular sections
        "space_form_templates": 1,
        # the xi-contractions (Curvature4Tensor.xi_table), each built once: R and
        # R1 at (1, 2), (2,) and (1,), the torsionful curvature at (2,), (0,) and
        # (1, 2), and Z at (1, 2), (2,), (1,) and (0,)
        "_contract_xi": 13,
    }


def test_heisenberg_run_builds_each_xi_table_once(monkeypatch):
    """The sections of one H^5 run read 13 xi tables and build each once;
    ``detect_kappa`` builds R's (2,) table, and the nullity rows read that
    same table."""
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
    names = {id(x.r): "R", id(x.templates[0]): "R1", id(x.pkg.curv): "curv", id(x.z): "Z"}
    assert sorted((names[id(t)], xi_at) for t, xi_at in built) == sorted(
        [(t, xi_at) for t in ("R", "R1") for xi_at in ((1, 2), (2,), (1,))]
        + [("curv", xi_at) for xi_at in ((2,), (0,), (1, 2))]
        + [("Z", xi_at) for xi_at in ((1, 2), (2,), (1,), (0,))]
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
    endomorphism products (nabla A and L_xi A) are commutators
    (``Endomorphism.commutator``), and kappa, the space-form and the
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
        ("heisenberg5.json", 809, 486),
        ("lambda_family.json", 337, 169),
        ("t1e4.json", 1908, 1130),
    ],
)
def test_heisenberg_sum_counts_are_exact(manifest, sums, zero_sums):
    """The counter reaches every module that binds ``sum_table`` by name: a
    run on H^5 reads exactly 809 sums of products, 486 of them zero, so a
    binding the counter missed would lower them.  They fell from 850 and 529
    when the eight rows of one or two frame vectors (nabla eta of both
    connections, the Ricci closed forms, the xi values and the Ricci
    symmetry) became residual tables: per basis tuple, the two nabla eta rows
    ran one ``Scalar.sum_of_products`` per pair (50 sums, 46 zero) and the two
    xi-value rows one per S(E_i, xi) and one for S(xi, xi) (12 sums, 10
    zero), where the eight tables name only the 21 indices some product of
    nonzero entries names (13 zero).  Building the eta-contraction and
    phi-flatness tables whole adds 86.  The symbolic lambda family (337 and
    169; 350 and 178 per tuple) and T1E4 (1,908 and 1,130; 1,992 and 1,211
    per tuple) hold the self action's early exit: its tables, one per
    (i, j), stop at the first that holds an entry, where one table per i adds
    10 and 4, and 54 and 28."""
    counts = _work_counts(manifest)
    assert (counts["sum_of_products"], counts["zero_sums"]) == (sums, zero_sums)


def test_heisenberg9_report_size():
    """The report of H^9 is 16,085 bytes, under the bound 16,889 (the measured
    size plus 5%; one "agrees" or "differs" entry per basis tuple of the
    three crosschecks, 6,561 + 729 + 729 of them, made 244,421)."""
    e = make_heisenberg(4)
    assert AB.work_counts(contactframe, e.manifold, e.structure)["json_bytes"] <= 16889


def test_gated_run_work_counts():
    """On the gated dense frame no derived section runs and neither the
    connection nor its curvature is built: one run makes 96 sums of products,
    all in the structural layer, under the bound 100 (the measured count plus
    5%; a dense Lie-derivative kernel for h takes 127, building both tensors
    up front 410, a second set of frame images in ``validate_acm`` 231, one
    set of frame images that nothing reads 201, and composing h phi and
    phi h in full before the h laws scan 171).  It constructs 54 Scalars,
    under the bound 56 (the measured count plus 5%; one
    ``Scalar.sum_of_products`` per table index, with no one-term paths in the
    Scalar ring, made 79, under the bound 83; halving every entry of L_xi phi rather than phi's
    nonzero entries, and a fresh 1 per ``one_scalar()`` call, make 103; a
    new zero per zero result 390)."""
    counts = _work_counts("random5.json")
    assert counts["sum_of_products"] <= 100
    assert counts["scalars"] <= 56


def test_gated_run_computes_each_layer_once(monkeypatch):
    m, s = load_manifest_file(str(MANIFESTS / "random5.json"))
    counts = _count_calls(monkeypatch)
    run_suite(m, s, "all")
    assert counts["validate_acm"] == 1
    assert counts["lie_derive_endo"] == 1
    # phi^2 in validate_acm only: the h laws compose nothing, and there is no
    # instance phi h
    assert counts["compose"] == 1
    assert "ricci" not in counts and "derivative_endo" not in counts
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
