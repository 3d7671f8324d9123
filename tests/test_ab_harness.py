"""``scripts/ab.py`` resolves a slowdown in one layer, counts an extra sum
of products and refuses a change in the output unless it lies inside the
witness of a check named by ``--allow-diff``: it is run on this tree against
a copy of it."""

from __future__ import annotations

import gc
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COUNTS = ("sum_of_products", "zero_sums", "scalars", "json_bytes")
# the per-frame cases of random_frame_triage, in the order ab.py prints them
TRIAGE_FRAMES = tuple(
    f"random_frame_triage/random_d{d}_{kind}_{i}"
    for d, kind, count in ((5, "rational", 2), (5, "linear_t", 2), (7, "rational", 1),
                           (7, "linear_t", 1))
    for i in range(count)
)

# appended to the copy's curvature.py: every riemann call sleeps 2 ms first;
# the modules that import riemann from it pick up the wrapper
SLOW_RIEMANN = """

import time as _time

_riemann = riemann


def riemann(m, conn):
    _time.sleep(0.002)
    return _riemann(m, conn)
"""

# appended to the copy's suite.py: every run_suite call sleeps 100 ms first,
# far above the round-to-round jitter of a request on a busy host (tens of
# ms), so the slowed request loses every round; the package's run_suite is
# imported from suite.py after the wrapper is defined
SLOW_REQUEST = """

import time as _time

_run_suite = run_suite


def run_suite(*args, **kwargs):
    _time.sleep(0.1)
    return _run_suite(*args, **kwargs)
"""

# appended to the copy's curvature.py: every riemann call makes one more
# (empty) sum of products
EXTRA_SUM = """

_riemann = riemann


def riemann(m, conn):
    Scalar.sum_of_products((), ())
    return _riemann(m, conn)
"""


# appended to the copy's report.py: the check CHANGED_CHECK gets one more
# witness entry (WITNESS) or the other of holds and not_applicable (STATUS)
CHANGED_CHECK = "gtw.cyclic_sum_crosscheck"
CHANGE = """

_add = VerificationReport.add


def _changed_add(self, name, status, witness=None, notes=()):
    if name == {name!r}:
        {edit}
    return _add(self, name, status, witness, notes)


VerificationReport.add = _changed_add
"""
WITNESS = CHANGE.format(name=CHANGED_CHECK, edit='witness = {**(witness or {}), "changed": "yes"}')
STATUS = CHANGE.format(
    name=CHANGED_CHECK, edit="status = HOLDS if status == NOT_APPLICABLE else NOT_APPLICABLE"
)


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab_harness_ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _copy(tmp_path: Path, *edits: tuple[str, str]) -> Path:
    """A copy of ``src`` with each ``(module, suffix)`` appended to its module."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    for module, suffix in edits:
        with open(src / "contactframe" / module, "a") as f:
            f.write(suffix)
    return src


def _ab(change: Path, rounds: int, *options: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), str(SRC), "--change", str(change),
         "--rounds", str(rounds), *options],
        capture_output=True,
        text=True,
        timeout=120,
    )


def _rows(stdout: str, case: str = "H3") -> dict[str, tuple]:
    """layer -> (median paired ratio, wins), and count -> (parent, change),
    of the printed rows of ``case``."""
    return {layer: row[:1] + row[2:] if len(row) == 3 else row
            for layer, row in _rows_with_iqr(stdout, case).items()}


def _rows_with_iqr(stdout: str, case: str = "H3") -> dict[str, tuple]:
    """layer -> (median paired ratio, interquartile range, wins), and count
    -> (parent, change), of the printed rows of ``case``."""
    rows = {}
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == case:
            if len(fields) == 7:
                rows[fields[1]] = (float(fields[4]), float(fields[5]), fields[6])
            else:
                rows[fields[1]] = (int(fields[2]), int(fields[3]))
    return rows


def test_ab_detects_a_slower_layer(tmp_path):
    slow = _copy(tmp_path, ("curvature.py", SLOW_RIEMANN), ("suite.py", SLOW_REQUEST))
    run = _ab(slow, 5, "--only", "H3")
    assert run.returncode == 0, run.stdout + run.stderr
    rows = _rows(run.stdout)
    assert set(rows) - set(COUNTS) == {
        "request", "load", "emit", "validate_frame", "validate_acm", "h_property_checks",
        "levi_civita", "riemann", "detect_kappa",
        "build_gtw_package", "concircular",
        "verify_nkappa_suite", "verify_gtw_suite", "verify_concircular_suite",
    }
    # the slowed layer loses every round by far; the request, which sleeps
    # in run_suite and calls riemann twice, loses every round too
    ratio, wins = rows["riemann"]
    assert ratio > 5 and wins == "0/5"
    ratio, wins = rows["request"]
    assert ratio > 1.2 and wins == "0/5"


def test_ab_prints_the_interquartile_range_of_the_paired_ratios(tmp_path):
    """Each layer row carries the spread of its paired ratios beside the
    median, the same figure ``--out`` records; on identical trees the median
    sits inside a spread of its own."""
    out = tmp_path / "ab.json"
    run = _ab(SRC, 4, "--only", "H3", "--out", str(out))
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[0].split()[-7:-4] == ["ratio", "iqr", "wins"]
    layers = json.loads(out.read_text())["cases"]["H3"]["layers"]
    rows = _rows_with_iqr(run.stdout)
    for layer, row in layers.items():
        ratio, iqr, wins = rows[layer]
        assert 0 <= row["iqr"] and iqr == round(row["iqr"], 3)
        assert ratio == round(row["ratio"], 3) and wins == f"{row['wins']}/4"


def test_interquartile_range_reads_the_inclusive_quartiles():
    ab = _load_ab()
    assert ab.interquartile_range([0.9, 1.0, 1.1, 1.2, 1.3]) == pytest.approx(0.2)
    assert ab.interquartile_range([1.0, 1.0]) == 0
    assert ab.interquartile_range([0.95]) == 0


def test_ab_refuses_a_changed_output(tmp_path):
    changed = _copy(tmp_path, ("version.py", '\nENGINE_VERSION += "-changed"\n'))
    run = _ab(changed, 1, "--only", "H3")
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1] == "outputs differ: H3"


def test_ab_allows_a_changed_witness_of_a_named_check(tmp_path):
    """--allow-diff NAME accepts a report that differs only inside NAME's
    witness, prints one summary line for the case and records the name."""
    out = tmp_path / "ab.json"
    changed = _copy(tmp_path, ("report.py", WITNESS))
    run = _ab(changed, 1, "--only", "H3", "--allow-diff", CHANGED_CHECK, "--out", str(out))
    assert run.returncode == 0, run.stdout + run.stderr
    summary = [line for line in run.stdout.splitlines() if line.startswith("H3:")]
    assert summary == [f"H3: only the witnesses of {CHANGED_CHECK} differ"]
    case = json.loads(out.read_text())["cases"]["H3"]
    assert case["witness_diff"] == [CHANGED_CHECK]
    parent, change = (case["counts"][tree]["json_bytes"] for tree in ("parent", "change"))
    assert change == parent + len(',\n        "changed": "yes"')


@pytest.mark.parametrize(
    ("edit", "allowed"),
    [
        (WITNESS, "gtw.pair_interchange_crosscheck"),  # another check's witness
        (STATUS, CHANGED_CHECK),  # the named check's status
    ],
)
def test_ab_refuses_any_other_difference(tmp_path, edit, allowed):
    run = _ab(_copy(tmp_path, ("report.py", edit)), 1, "--only", "H3", "--allow-diff", allowed)
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1] == "outputs differ: H3"
    assert not any(line.startswith("H3:") for line in run.stdout.splitlines())


def test_ab_counts_an_extra_sum_of_products(tmp_path):
    """A request on H^3 calls riemann twice (Levi-Civita and torsionful), so
    the change makes exactly two more sums of products; the counts are data,
    so the harness still exits 0."""
    out = tmp_path / "ab.json"
    run = _ab(_copy(tmp_path, ("curvature.py", EXTRA_SUM)), 1, "--only", "H3", "--out", str(out))
    assert run.returncode == 0, run.stdout + run.stderr
    parent, change = _rows(run.stdout)["sum_of_products"]
    assert change == parent + 2
    counts = json.loads(out.read_text())["cases"]["H3"]["counts"]
    assert counts["parent"]["sum_of_products"] == parent
    assert counts["change"]["sum_of_products"] == parent + 2
    assert counts["parent"]["json_bytes"] == counts["change"]["json_bytes"]


def _cases(stdout: str) -> list[str]:
    """The printed cases, in order."""
    return list(dict.fromkeys(line.split()[0] for line in stdout.splitlines()[1:]))


def test_ab_counts_agree_on_identical_trees():
    run = _ab(SRC, 1)
    assert run.returncode == 0, run.stdout + run.stderr
    cases = _cases(run.stdout)
    assert cases == [
        "lambda_1/2", "H3", "H5", "H7", "H9", "T1E4", "random5", "random5_t",
        "lambda_symbolic_verify", "heisenberg_verify", "random_frame_triage", *TRIAGE_FRAMES,
    ]
    for case in cases:
        rows = _rows(run.stdout, case)
        assert all(rows[key][0] == rows[key][1] for key in COUNTS)
        assert rows["sum_of_products"][0] > 0


@pytest.mark.parametrize(
    ("only", "cases"),
    [
        # a summed case also runs each of its frames
        (["random_frame_triage"], ["random_frame_triage", *TRIAGE_FRAMES]),
        # a frame's own name runs that frame alone
        ([TRIAGE_FRAMES[4]], [TRIAGE_FRAMES[4]]),
        (["H3", TRIAGE_FRAMES[0]], ["H3", TRIAGE_FRAMES[0]]),
    ],
)
def test_only_runs_the_named_cases_and_their_frames(only, cases):
    run = _ab(SRC, 1, *(arg for name in only for arg in ("--only", name)))
    assert run.returncode == 0, run.stdout + run.stderr
    assert _cases(run.stdout) == cases


@pytest.mark.parametrize("name", ["random_frame", "random_d5_rational_0", "nosuch"])
def test_only_refuses_an_unknown_case(name):
    run = _ab(SRC, 1, "--only", name)
    assert run.returncode == 2
    assert f"unknown case(s) [{name!r}]" in run.stderr


@pytest.mark.parametrize("enabled", [True, False])
def test_layers_run_with_the_collector_off_and_restore_it(monkeypatch, enabled):
    """``Tree.layers`` times each layer with the garbage collector off and
    then restores the collector's prior state; ``Tree.request`` runs with the
    collector as it finds it."""
    ab = _load_ab()
    tree = ab.Tree(ab.load_tree("cf_collector_probe", SRC))
    seen = []
    # both are called inside the timed layers, and neither by their gate check
    for name in ("concircular", "verify_concircular_suite"):
        layer = getattr(tree.suite, name)

        def recording(*args, layer=layer):
            seen.append(gc.isenabled())
            return layer(*args)

        monkeypatch.setattr(tree.suite, name, recording)
    entry = tree.cf.make_heisenberg(1)
    text = json.dumps(tree.cf.dump_manifest(entry.manifold, entry.structure))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        tree.layers(text)
        assert (set(seen), len(seen), gc.isenabled()) == ({False}, 3, enabled)
        seen.clear()
        tree.request([text])
        assert (set(seen), len(seen), gc.isenabled()) == ({enabled}, 2, enabled)
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(("case", "gated"), [("random5", True), ("H5", False)])
def test_layers_time_the_structural_layer_on_every_input(case, gated):
    """``Tree.layers`` times ``validate_frame``, ``validate_acm`` and
    ``h_property_checks`` on the gated random5 as on H^5, and the derived
    layers only on H^5."""
    ab = _load_ab()
    tree = ab.Tree(ab.load_tree("cf_structural_probe", SRC))
    (text,) = ab.cases(tree.cf)[case]
    seconds = tree.layers(text)
    assert set(ab.STRUCTURAL_LAYERS) == {"validate_frame", "validate_acm", "h_property_checks"}
    assert all(seconds[name] > 0 for name in ab.STRUCTURAL_LAYERS)
    assert (set(seconds) == set(ab.STRUCTURAL_LAYERS)) == gated
    assert set(seconds) <= set(ab.LAYERS)
