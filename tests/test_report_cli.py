"""Report serialization and the command-line interface, end to end."""

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import contactframe.cli as cli
from contactframe import (
    SUITES,
    Instance,
    Scalar,
    VerificationReport,
    emit,
    load_manifest,
    load_manifest_file,
    run_suite,
)
from contactframe.report import _json
from contactframe.suite import CATALOGUE

LAMBDA = "manifests/lambda_family.json"
ABELIAN = "manifests/abelian3.json"
MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def run_cli(*args: str, stdin: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "contactframe", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


# -- report object ---------------------------------------------------------------


def test_empty_report_emits_valid_json():
    report = VerificationReport()
    doc = json.loads(emit(report, "json"))
    assert doc["checks"] == []
    assert "engine_version" in doc["provenance"]
    assert doc["provenance"]["manifest_hash"] is None


# JSON values as a report may hold them: str (non-ASCII, quotes and control
# characters included), int of any size, bool, None, and nested containers
big_ints = st.integers(min_value=10**30) | st.integers(max_value=-(10**30))
json_leaves = st.none() | st.booleans() | st.integers() | big_ints | st.text()
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps(value):
    assert _json(value, "") == json.dumps(value, sort_keys=True, indent=2)


def test_writer_matches_json_dumps_on_edge_strings():
    value = {"": [], "\u00e9\"\\\n\x00\U0001f600": {"z": (), "a": [-(2**70), True, None]}}
    assert _json(value, "") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, {"a": [0.0]}, {1: "one"}, [{("i",): 1}], Scalar.zero(()), {"x": {1, 2}}]
)
def test_writer_refuses_what_a_report_cannot_hold(value):
    with pytest.raises(TypeError):
        _json(value, "")


def _reference_document(report: VerificationReport) -> dict:
    """The report's JSON document as a dict tree: emit writes exactly what
    json.dumps(..., sort_keys=True, indent=2) makes of it."""
    return {
        "checks": [
            {
                "name": c.name,
                "status": c.status,
                "witness": c.witness,
                "convention_notes": list(c.convention_notes),
            }
            for c in report.checks
        ],
        "provenance": {
            "manifest_hash": report.manifest_hash,
            "engine_version": report.engine_version,
        },
    }


witnesses = st.none() | st.dictionaries(st.text(max_size=6), json_values, max_size=4)
statuses = st.sampled_from(["holds", "not_applicable"])
checks = st.tuples(st.text(), statuses, witnesses, st.lists(st.text(), max_size=2))


@settings(max_examples=100, deadline=None)
@given(st.lists(checks, max_size=4), st.none() | st.text(max_size=8))
def test_emit_matches_json_dumps_of_the_report_document(rows, digest):
    report = VerificationReport(manifest_hash=digest)
    for name, status, witness, notes in rows:
        report.add(name, status, witness, notes)
    expected = json.dumps(_reference_document(report), sort_keys=True, indent=2) + "\n"
    assert emit(report, "json") == expected


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(VerificationReport(), "yaml")


# the catalogue's sections that each suite emits after the structural layer
SUITE_SECTIONS = {
    "all": ("acm", "nkappa", "gtw", "conc"),
    "frame": ("acm",),
    "nkappa": ("nkappa",),
    "gtw": ("gtw",),
    "concircular": ("conc",),
}


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("manifest", ["lambda_family.json", "kmu3.json", "random5.json"])
def test_report_names_follow_the_catalogue(manifest, suite):
    """After the structural layer a report names the catalogue's rows of the
    requested sections, in catalogue order, on an ungated input (symbolic
    lambda), a kappa-gated one (kmu3) and a structurally gated one (random5)."""
    m, s = load_manifest_file(str(MANIFESTS / manifest))
    structural = Instance(m, s).structural_report.checks if suite in ("all", "frame") else []
    checks = run_suite(m, s, suite).checks
    assert checks[: len(structural)] == structural
    sections = SUITE_SECTIONS[suite]
    expected = [name for name, _ in CATALOGUE if name.partition(".")[0] in sections]
    assert [c.name for c in checks[len(structural) :]] == expected


def test_each_derived_check_name_is_written_once():
    """The catalogue is the only place a name after the structural layer is
    spelled."""
    src = Path(__file__).resolve().parent.parent / "src" / "contactframe"
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py")))
    literals = Counter(
        re.findall(r"[\"'](?:(?:nkappa|gtw|conc)\.[a-z_0-9]+|acm\.classification)[\"']", text)
    )
    assert literals == Counter(f'"{name}"' for name, _ in CATALOGUE)


# -- exit semantics ----------------------------------------------------------------


def test_verify_lambda_family_passes():
    proc = run_cli("verify", LAMBDA)
    assert proc.returncode == 0, proc.stderr
    assert "0 fails" in proc.stdout


def test_verify_abelian_all_fails():
    proc = run_cli("verify", ABELIAN)
    assert proc.returncode == 1
    assert "acm.contact_condition" in proc.stdout


def test_verify_abelian_nullity_suite_is_all_gated():
    proc = run_cli("verify", ABELIAN, "--suite", "nkappa")
    assert proc.returncode == 0, proc.stdout
    assert "gated" in proc.stdout


def test_validate_exit_codes(tmp_path):
    ok = run_cli("validate", LAMBDA)
    assert ok.returncode == 0
    bad_path = tmp_path / "broken.json"
    bad_path.write_text(json.dumps({"dimension": 4}))
    bad = run_cli("validate", str(bad_path))
    assert bad.returncode == 2
    assert bad.stderr.strip()


def test_unknown_zoo_label_exits_2():
    proc = run_cli("zoo", "klein-bottle")
    assert proc.returncode == 2


def test_domain_error_exits_2():
    proc = run_cli("boeckx", "--kappa", "1", "--mu", "0")
    assert proc.returncode == 2


def test_bad_rational_argument_exits_2():
    proc = run_cli("deform", "--kappa", "q", "--mu", "0", "--a", "1")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "command",
    [
        ("zoo", "lambda", "--lambda", "1/0"),
        ("deform", "--kappa", "1/0", "--mu", "0", "--a", "1"),
        ("boeckx", "--kappa", "0", "--mu", "1/0"),
    ],
)
def test_a_zero_denominator_argument_exits_2(command):
    proc = run_cli(*command)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "zero denominator in '1/0'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_deform_with_a_nonpositive_scale_exits_2():
    proc = run_cli("deform", "--kappa", "0", "--mu", "0", "--a", "-2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "must be positive" in proc.stderr


def test_unknown_suite_exits_2():
    proc = run_cli("verify", LAMBDA, "--suite", "everything")
    assert proc.returncode == 2


def _gtw_refusal(manifest: str) -> str:
    proc = run_cli("curvature", f"manifests/{manifest}", "--connection", "gtw")
    assert (proc.returncode, proc.stdout) == (2, "")
    prefix = "the torsionful connection needs a valid contact metric structure: "
    assert proc.stderr.startswith(prefix)
    return proc.stderr[len(prefix) :]


def test_curvature_gtw_refuses_a_broken_structure():
    """The refusal names the first failing check of the structural layer."""
    assert _gtw_refusal("random5.json") == (
        "frame.jacobi_identity violated: {'indices': [1, 2, 3, 1], 'residual': '-3'}\n"
    )


def test_curvature_gtw_refuses_a_broken_contact_condition():
    assert _gtw_refusal("abelian3.json") == (
        "acm.contact_condition violated: {'indices': [2, 3], 'residual': '1'}\n"
    )


@pytest.mark.parametrize("manifest", sorted(p.name for p in MANIFESTS.glob("*.json")))
def test_curvature_gtw_has_the_gate_of_validate(manifest, capsys):
    """``curvature --connection gtw`` refuses exactly the inputs whose
    structural layer ``validate`` fails."""
    path = str(MANIFESTS / manifest)
    validated = cli.main(["validate", path])
    refused = cli.main(["curvature", path, "--connection", "gtw"]) == 2
    capsys.readouterr()
    assert validated in (0, 1)
    assert refused == (validated == 1)


@pytest.mark.parametrize(
    "command", [("verify",), ("validate",), ("curvature", "--connection", "gtw")]
)
def test_dash_reads_the_manifest_from_stdin(command):
    from_file = run_cli(*command, LAMBDA)
    piped = run_cli(*command, "-", stdin=Path(LAMBDA).read_text())
    assert piped.returncode == from_file.returncode == 0
    assert piped.stdout == from_file.stdout


def test_zoo_manifest_pipes_into_verify():
    zoo = run_cli("zoo", "lambda", "--lambda", "1/2", "--format", "json")
    manifest = json.dumps(json.loads(zoo.stdout)["manifest"])
    piped = run_cli("verify", "--format", "json", "-", stdin=manifest)
    assert piped.stdout == Path("tests/golden/lambda_1_2_all.json").read_text() + "\n"


def test_invalid_json_on_stdin_exits_2():
    proc = run_cli("verify", "-", stdin="{not json")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("invalid JSON: ")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_deeply_nested_manifest_exits_2(tmp_path, source):
    """A document nested past the decoder's recursion limit is invalid JSON."""
    deep = "[" * 100_000 + "]" * 100_000
    if source == "file":
        path = tmp_path / "deep.json"
        path.write_text(deep)
        proc = run_cli("verify", str(path))
    else:
        proc = run_cli("verify", "-", stdin=deep)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("invalid JSON: ")
    assert "Traceback" not in proc.stderr


# -- determinism --------------------------------------------------------------------


def test_verify_json_is_byte_identical_between_runs():
    a = run_cli("verify", LAMBDA, "--format", "json")
    b = run_cli("verify", LAMBDA, "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert all(c["status"] != "fails" for c in doc["checks"])
    assert doc["provenance"]["manifest_hash"]


def test_curvature_json_is_byte_identical_between_runs():
    for conn in ("lc", "gtw"):
        a = run_cli("curvature", LAMBDA, "--connection", conn, "--format", "json")
        b = run_cli("curvature", LAMBDA, "--connection", conn, "--format", "json")
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout


# -- content -----------------------------------------------------------------------


def test_curvature_text_renders_vectors():
    proc = run_cli("curvature", LAMBDA, "--connection", "gtw")
    assert proc.returncode == 0
    assert "-2*E3" in proc.stdout  # R(E2,E3)E2
    assert "scalar curvature: 4" in proc.stdout


def test_verify_text_keeps_crosscheck_tuples_apart(capsys):
    """Each differing tuple of a crosscheck keeps its own parentheses in the
    text report; a crosscheck that holds lists none."""
    assert cli.main(["verify", LAMBDA, "--suite", "gtw", "--format", "text"]) == 0
    out = capsys.readouterr().out.splitlines()
    lines = {
        name: next(line for line in out if f"] {name}  " in line)
        for name, _ in CATALOGUE
        if name.endswith("_crosscheck")
    }
    assert lines["gtw.pair_interchange_crosscheck"] == (
        "[ n/a ] gtw.pair_interchange_crosscheck  witness: agrees=75 "
        "differs=((2,2,3,3),(2,3,2,3),(2,3,3,2),(3,2,2,3),(3,2,3,2),(3,3,2,2)) "
        "first_residual=-4*lambda first_residual_at=(2,2,3,3)"
    )
    assert lines["gtw.curvature_closed_form_crosscheck"].endswith(
        "witness: agrees=23 differs=((2,3,2),(2,3,3),(3,2,2),(3,2,3)) "
        "first_residual=(-2*lambda-2)*E3 first_residual_at=(2,3,2)"
    )
    assert lines["gtw.cyclic_sum_crosscheck"] == (
        "[holds] gtw.cyclic_sum_crosscheck  witness: agrees=27 differs=()"
    )


def test_curvature_lc_reports_kappa():
    proc = run_cli("curvature", LAMBDA, "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["connection"] == "lc"
    assert doc["kappa"] == "-1*lambda^2+1"
    assert doc["scalar_curvature"] == "-2*lambda^2+2"


def test_format_flag_works_in_both_positions():
    before = run_cli("--format", "json", "verify", LAMBDA)
    after = run_cli("verify", LAMBDA, "--format", "json")
    assert before.returncode == after.returncode == 0
    assert before.stdout == after.stdout


def test_zoo_json_manifest_loads():
    proc = run_cli("zoo", "lambda", "--lambda", "1/2", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    m, s = load_manifest(doc["manifest"])
    assert m.dim == 3
    assert doc["expected_kappa"] == "3/4"


def test_zoo_symbolic_manifest_loads():
    proc = run_cli("zoo", "lambda", "--symbolic", "--format", "json")
    doc = json.loads(proc.stdout)
    m, s = load_manifest(doc["manifest"])
    assert m.params == ("lambda",)


def test_deform_output():
    proc = run_cli("deform", "--kappa", "-8", "--mu", "-8", "--a", "5", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {"kappa": "-8", "mu": "-8", "a": "5", "kappa_bar": "16/25", "mu_bar": "0"}
    text = run_cli("deform", "--kappa", "-8", "--mu", "-8", "--a", "5")
    assert text.stdout == "kappa_bar = 16/25\nmu_bar = 0\n"


def test_boeckx_output():
    proc = run_cli("boeckx", "--kappa", "3/4", "--mu", "0", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["is_exact"] is True
    assert doc["value"] == "2"
