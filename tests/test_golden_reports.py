"""Golden reports: the byte-identity contract of the verification engine.

Each case builds one instance, runs ``run_suite`` on it with the hash of its
canonical manifest, and compares ``emit(report, "json")`` byte for byte with
``tests/golden/<instance>_<suite>.json``.  A refactor must leave every file
unchanged; a change that alters a report on purpose regenerates the files
and records why.

The instances: the symbolic lambda family and the abelian 3-dimensional
frame (the gated path) under every suite, the lambda = 0 and lambda = 1/2
members, the Heisenberg group H^5 (``manifests/heisenberg5.json``) and one
dense random dimension-5 frame whose Jacobi identity fails, so every derived
section is gated (``manifests/random5.json``), and its counterpart with
coefficients linear in t (``manifests/random5_t.json``), each under ``all``.  The
contact metric (kappa, mu)-space with kappa = 3/4 and mu = -1
(``manifests/kmu3.json``) passes the structural layer but has no single
nullity constant, so it freezes the kappa-absent gate under ``all`` and
``nkappa``.  The unit tangent bundle of E^4 (``manifests/t1e4.json``, a
7-dimensional contact metric Lie group with kappa = 0) is the one report
above dimension 3 with nonzero self-action and Ricci-action witnesses and
"differs" entries in the pair-interchange crosscheck; it runs under ``all``.

The ``curvature`` command's JSON tables are frozen too, because the gated
random frames show their dense, many-term Levi-Civita and Riemann tensors
nowhere else: ``--connection lc`` on ``manifests/random5.json`` and on
``manifests/random5_t.json`` (the same generator, coefficients linear in
t), and ``--connection gtw`` on the lambda family and H^5, on T_1E^4 (the
torsionful tables at n = 3 with h != 0) and on the (kappa, mu)-space, whose
tables carry ``kappa: null`` because no single nullity constant fits.
Those goldens are ``tests/golden/curvature_<manifest>_<connection>.json``.

Regenerate every golden file from the current engine:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from contactframe import (
    SUITES,
    dump_manifest,
    emit,
    load_manifest_file,
    make_lambda_family,
    manifest_hash,
    run_suite,
)
from contactframe.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


def _lambda_member(value):
    def build():
        entry = make_lambda_family(value)
        return entry.manifold, entry.structure

    return build


def _manifest_file(name: str):
    return lambda: load_manifest_file(str(ROOT / "manifests" / name))


INSTANCES = {
    "lambda_symbolic": _lambda_member(None),
    "lambda_0": _lambda_member(Fraction(0)),
    "lambda_1_2": _lambda_member(Fraction(1, 2)),
    "abelian3": _manifest_file("abelian3.json"),
    "heisenberg5": _manifest_file("heisenberg5.json"),
    "random5": _manifest_file("random5.json"),
    "random5_t": _manifest_file("random5_t.json"),
    "kmu3": _manifest_file("kmu3.json"),
    "t1e4": _manifest_file("t1e4.json"),
}

CASES = (
    [("lambda_symbolic", suite) for suite in SUITES]
    + [("lambda_0", "all"), ("lambda_1_2", "all")]
    + [("abelian3", suite) for suite in SUITES]
    + [("heisenberg5", "all"), ("random5", "all"), ("random5_t", "all")]
    + [("kmu3", "all"), ("kmu3", "nkappa")]
    + [("t1e4", "all")]
)


CURVATURE_CASES = [
    ("random5", "lc"),
    ("random5_t", "lc"),
    ("lambda_family", "gtw"),
    ("heisenberg5", "gtw"),
    ("t1e4", "gtw"),
    ("kmu3", "gtw"),
]


def render(instance: str, suite: str) -> str:
    m, s = INSTANCES[instance]()
    report = run_suite(m, s, suite, manifest_hash(dump_manifest(m, s)))
    return emit(report, "json")


def render_curvature(manifest: str, connection: str) -> str:
    out = io.StringIO()
    path = str(ROOT / "manifests" / f"{manifest}.json")
    with redirect_stdout(out):
        status = main(["curvature", path, "--connection", connection, "--format", "json"])
    assert status == 0
    return out.getvalue()


def golden_path(instance: str, suite: str) -> Path:
    return GOLDEN_DIR / f"{instance}_{suite}.json"


def curvature_golden_path(manifest: str, connection: str) -> Path:
    return GOLDEN_DIR / f"curvature_{manifest}_{connection}.json"


@pytest.mark.parametrize(
    ("instance", "suite"), CASES, ids=[f"{i}-{s}" for i, s in CASES]
)
def test_report_matches_golden(instance, suite):
    expected = golden_path(instance, suite).read_bytes()
    assert render(instance, suite).encode("utf-8") == expected


@pytest.mark.parametrize(
    ("manifest", "connection"),
    CURVATURE_CASES,
    ids=[f"{m}-{c}" for m, c in CURVATURE_CASES],
)
def test_curvature_tables_match_golden(manifest, connection):
    expected = curvature_golden_path(manifest, connection).read_bytes()
    assert render_curvature(manifest, connection).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for instance, suite in CASES:
        golden_path(instance, suite).write_bytes(render(instance, suite).encode("utf-8"))
    for manifest, connection in CURVATURE_CASES:
        curvature_golden_path(manifest, connection).write_bytes(
            render_curvature(manifest, connection).encode("utf-8")
        )
