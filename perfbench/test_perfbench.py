"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from checkout import ROOT, import_engine

import_engine()

import bench  # noqa: E402
from contactframe import load_manifest  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, heisenberg_document, make_instances  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_documents_load(workload):
    instances = make_instances(workload, 7)
    assert instances
    for inst in instances:
        assert json.loads(json.dumps(inst.document)) == inst.document
        m, _ = load_manifest(inst.document)
        assert m.dim == inst.document["dimension"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heisenberg_generator_passes_its_self_check(n):
    bench.check_heisenberg(heisenberg_document(n))


def test_heisenberg_wrong_bracket_sign_fails_loudly():
    doc = heisenberg_document(2)
    doc["structure_constants"][1]["coeff"] = "-2"
    with pytest.raises(bench.BenchError, match="contact_condition"):
        bench.check_heisenberg(doc)


def test_random_frames_are_reproduced_by_their_seed():
    instances = make_instances("random_frame_triage", 11)
    bench.check_random_frames(11, instances)
    assert make_instances("random_frame_triage", 12)[0].document != instances[0].document


def test_reports_are_deterministic_and_tracing_does_not_change_them():
    for workload in ("lambda_symbolic_verify", "random_frame_triage"):
        inst = make_instances(workload, 3)[0]
        text = json.dumps(inst.document, sort_keys=True)
        first, report = bench.serve(text)
        assert bench.Checker().check(inst, first, report) == []
        tracer = Tracer()
        with tracer.request(0), tracer.layers_patched():
            traced, _ = bench.serve(text, tracer.span)
        assert bench.serve(text)[0] == first == traced


def test_checker_flags_changed_bytes_and_ungated_entries():
    inst = make_instances("random_frame_triage", 3)[0]
    checker = bench.Checker()
    text, report = bench.serve(json.dumps(inst.document, sort_keys=True))
    assert checker.check(inst, text, report) == []
    assert checker.check(inst, text + " ", report) == [
        "report bytes differ from the first repetition"
    ]
    report.checks = [c for c in report.checks if not c.name.startswith("gtw.")]
    report.holds("gtw.metric_parallel")
    assert any("not gated" in p for p in checker.check(inst, text, report))


def test_tail_percentile():
    assert bench.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    values = [float(v) for v in range(1, 41)]
    pct, value = bench.tail(values)
    assert value == 30.0 and pct == 75.0
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "lambda_symbolic_verify", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    for name in declared:
        assert any(line.split()[:1] == [name] for line in lines[:-1]), name


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heisenberg_verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
