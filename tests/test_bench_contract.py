"""The engine names the benchmark harness in ``perfbench/`` imports or patches
still exist.  The harness's modules are read with ``ast``, so their imports
do not run; ``spans.py``, whose layer table names engine objects, is loaded."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_every_traced_layer_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclass looks itself up
    spec.loader.exec_module(spans)
    for owner, attr, *_ in spans.LAYERS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
