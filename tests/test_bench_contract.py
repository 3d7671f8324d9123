"""The engine names the benchmark harness in ``perfbench/`` imports or patches
still exist, and a traced request records a fixed number of spans.  The
harness's modules are read with ``ast``, so their imports do not run;
``spans.py``, whose layer table names engine objects, and ``workloads.py``,
which imports no engine name, are loaded."""

import ast
import importlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from contactframe import (
    Instance,
    classify,
    dump_manifest,
    emit,
    h_property_checks,
    levi_civita,
    load_manifest,
    make_heisenberg,
    make_lambda_family,
    manifest_hash,
    riemann,
    run_suite,
    validate_acm,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ENGINE_IMPORTS = [
    (path.name, node.module, alias.name)
    for path in sorted(PERFBENCH.glob("*.py"))
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("contactframe")
    for alias in node.names
]


def test_the_harness_imports_engine_names():
    assert {"bench.py", "kernels.py"} <= {file for file, _, _ in ENGINE_IMPORTS}


@pytest.mark.parametrize(("file", "module", "name"), ENGINE_IMPORTS)
def test_every_imported_engine_name_exists(file, module, name):
    assert hasattr(importlib.import_module(module), name), f"{file}: {module}.{name}"


def _load_harness_module(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def spans(monkeypatch):
    return _load_harness_module(monkeypatch, "spans")


def test_every_traced_layer_resolves(spans):
    for owner, attr, *_ in spans.LAYERS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_a_traced_run_records_every_layer_outside_the_sections(spans):
    """One traced H^5 ``run_suite("all")``, wrapped as perfbench wraps it,
    records a span for every layer but ``contact.classify`` (which
    ``run_suite`` never calls), and the torsionful package and Z are built
    outside every section span, so that no per-layer figure reads 0 or is
    counted inside a section's."""
    entry = make_heisenberg(2)
    tracer = spans.Tracer()
    with tracer.request(0), tracer.layers_patched(), tracer.span("suite.run"):
        run_suite(entry.manifold, entry.structure, "all")
    recorded = {sp.name for sp in tracer.spans}
    assert {name for _, _, name, *_ in spans.LAYERS} - recorded == {"contact.classify"}
    by_id = {sp.id: sp for sp in tracer.spans}
    for sp in tracer.spans:
        if sp.name in ("tanaka_webster.package", "concircular.tensor"):
            parent = sp.parent
            while parent is not None:
                assert not by_id[parent].name.endswith(".suite"), sp.name
                parent = by_id[parent].parent


# perfbench's seed of record (``scripts/ab.py``'s ``SEED``); every triage frame
# is gated whatever the seed
SEED = 1


@pytest.mark.parametrize(
    ("workload", "expected"),
    [("heisenberg_verify", 18), ("lambda_symbolic_verify", 18), ("random_frame_triage", 12)],
)
def test_a_traced_request_records_the_same_spans(monkeypatch, spans, workload, expected):
    """Each instance of the workload, served once as ``perfbench/bench.py``'s
    ``serve`` serves a traced request, records exactly this many spans.
    perfbench's traced post-processing scans every span once per traced
    request, so one more traced call per request lengthens every traced run;
    this count shows it first."""
    workloads = _load_harness_module(monkeypatch, "workloads")
    counts = {}
    for inst in workloads.make_instances(workload, SEED):
        tracer = spans.Tracer()
        with tracer.request(0), tracer.layers_patched():
            with tracer.span("manifest.load"):
                m, s = load_manifest(json.loads(json.dumps(inst.document)))
            with tracer.span("manifest.hash"):
                digest = manifest_hash(dump_manifest(m, s))
            with tracer.span("suite.run"):
                report = run_suite(m, s, suite="all", manifest_hash=digest)
            with tracer.span("report.emit"):
                emit(report, "json")
        counts[inst.label] = len(tracer.spans)
    assert counts and counts == dict.fromkeys(counts, expected)


@pytest.mark.parametrize(
    "entry", [make_heisenberg(2), make_lambda_family(None)], ids=["H5", "lambda_symbolic"]
)
def test_the_trace_counter_counts_the_nonzero_components(spans, entry):
    """The count ``spans.py`` records for a curvature layer (read from the
    dense view) is the size of the tensor's table, for R, the torsionful
    curvature and Z."""
    x = Instance(entry.manifold, entry.structure)
    for tensor in (x.r, x.pkg.curv, x.z):
        assert spans._nonzero_entries(tensor) == len(tensor.table)


def test_the_heisenberg_self_check_holds():
    """The engine calls ``perfbench/bench.py``'s ``check_heisenberg`` makes
    outside ``run_suite``, on H^5: every graded frame.*/acm.* entry and h law
    holds (the quoted ``*_reference_form`` variants only must not fail), the
    instance is Sasakian and kappa = 1."""
    entry = make_heisenberg(2)
    m, s = entry.manifold, entry.structure
    h = m.lie_derive_endo(s.xi, s.phi).scale(Fraction(1, 2))
    entries = m.validate_frame().checks + validate_acm(m, s).checks
    entries += h_property_checks(m, s, h).checks
    assert entries
    for c in entries:
        assert c.status == "holds" or (
            c.status == "not_applicable" and c.name.endswith("_reference_form")
        ), c.name
    lc = levi_civita(m)
    cls = classify(m, s, lc, riemann(m, lc))
    assert cls.is_Sasakian
    assert cls.kappa is not None and str(cls.kappa) == "1"
