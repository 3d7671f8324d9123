"""Closed-loop manifest -> report benchmark for contactframe.

One process, one thread, one client: each request takes one manifest JSON
text through ``load_manifest`` -> ``run_suite(suite="all")`` ->
``emit(..., "json")``, the path ``contactframe verify --format json`` takes,
and the next request starts only when the previous one has returned.
Requests are issued in whole rounds over the workload's instances, so the
size mix of a run does not depend on where the time limit falls.

With trace 0 the run reports the end-to-end metrics.  With trace 1 it
alternates untraced and traced rounds and reports per-layer medians from
the spans of the traced ones, the tracing overhead, and Scalar kernel
timings on operands taken from the workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

from contactframe import (
    classify,
    dump_manifest,
    emit,
    h_property_checks,
    levi_civita,
    load_manifest,
    manifest_hash,
    riemann,
    run_suite,
    validate_acm,
)

from checkout import ROOT
from kernels import KERNEL_REPEATS, OperandPool, reference_loop, scalar_kernels
from setup_probe import digest, serialised_inputs
from spans import Tracer
from workloads import Instance, make_instances

SETUP_PROBES = 9
PROBE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DERIVED_SECTIONS = ("nkappa", "gtw", "conc")

# Span names reported as <name>_s, and the end-to-end figure each should move.
LAYER_METRICS = (
    # report_s_p50 on heisenberg_verify and lambda_symbolic_verify; 0 on random_frame_triage
    "tanaka_webster.suite",
    "tanaka_webster.package",
    "tanaka_webster.gssf",
    # riemann: most of a random_frame_triage request, under 1% of heisenberg_verify
    "curvature.levi_civita",
    "curvature.riemann",
    "curvature.nkappa_suite",
    "frames.validate",
    # classify recomputes acm, h and kappa inside its own span
    "contact.acm",
    "contact.h",
    "contact.kappa",
    "contact.classify",
    "concircular.tensor",
    "concircular.suite",
    "manifest.load",
    "manifest.hash",
    "report.emit",
    # suite.self = suite.run minus its direct layer calls: orchestration that a
    # per-instance cache would remove
    "suite.run",
    "suite.self",
)


class BenchError(Exception):
    """The benchmark itself is broken (bad generator, failed probe); no result is printed."""


@dataclass
class Record:
    label: str
    seconds: float
    ref_seconds: float | None
    traced: bool
    raised: bool
    problems: list[str]
    request_id: int
    report_counts: dict | None = None
    json_bytes: int = 0

    @property
    def failed(self) -> bool:
        return self.raised or bool(self.problems)


# -- generator self-checks ---------------------------------------------------


def check_heisenberg(document: dict) -> None:
    """Every graded frame.*/acm.* entry holds, the instance is Sasakian and kappa = 1.

    The ``*_reference_form`` entries are the engine's quoted variants,
    reported as data; they only must not fail.
    """
    m, s = load_manifest(document)
    h = m.lie_derive_endo(s.xi, s.phi).scale(Fraction(1, 2))
    entries = m.validate_frame().checks + validate_acm(m, s).checks
    entries += h_property_checks(m, s, h).checks
    broken = [
        c.name
        for c in entries
        if c.status == "fails"
        or (c.status != "holds" and not c.name.endswith("_reference_form"))
    ]
    if broken:
        raise BenchError(f"Heisenberg generator: {', '.join(broken)} do not hold")
    lc = levi_civita(m)
    cls = classify(m, s, lc, riemann(m, lc))
    if not cls.is_Sasakian or cls.kappa is None or str(cls.kappa) != "1":
        raise BenchError(
            f"Heisenberg generator: expected Sasakian with kappa = 1, got {cls}"
        )


def _jacobi(document: dict):
    m, _ = load_manifest(document)
    check = m.validate_frame().by_name("frame.jacobi_identity")
    return check.status, check.witness


def check_random_frames(seed: int, instances: list[Instance]) -> None:
    """The seed reproduces the frames and their Jacobi failures, and another seed does not."""
    again = make_instances("random_frame_triage", seed)
    if [i.document for i in again] != [i.document for i in instances]:
        raise BenchError("random-frame generator: the same seed gave different frames")
    other = make_instances("random_frame_triage", seed + 1)
    if any(a.document == b.document for a, b in zip(instances, other)):
        raise BenchError("random-frame generator: the seed does not change the frames")
    for first, second in zip(instances, again):
        verdict = _jacobi(first.document)
        if verdict[0] != "fails" or verdict != _jacobi(second.document):
            raise BenchError(
                f"random-frame generator: {first.label} Jacobi verdict {verdict} "
                "is not a reproduced failure"
            )


def check_generators(workload: str, seed: int, instances: list[Instance]) -> None:
    if workload == "heisenberg_verify":
        for inst in instances:
            check_heisenberg(inst.document)
    elif workload == "random_frame_triage":
        check_random_frames(seed, instances)


# -- requests and their correctness --------------------------------------------


class Checker:
    """Per-request correctness.  The report digest per instance is kept as data."""

    def __init__(self) -> None:
        self.sha256: dict[str, str] = {}

    def check(self, inst: Instance, text: str, report) -> list[str]:
        problems = []
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.sha256.setdefault(inst.label, sha) != sha:
            problems.append("report bytes differ from the first repetition")
        classification = [c.witness for c in report.checks if c.name == "acm.classification"]
        if classification != [inst.classification]:
            problems.append(f"classification {classification} != {inst.classification}")
        if inst.derived_gated:
            graded = [
                c.name
                for c in report.checks
                if c.name.split(".")[0] in DERIVED_SECTIONS and c.status != "not_applicable"
            ]
            if graded:
                problems.append(f"derived entries not gated: {', '.join(graded)}")
        return problems


def _no_span(name: str):
    return contextlib.nullcontext()


def serve(text: str, span=_no_span) -> tuple[str, object]:
    """One request: manifest JSON text in, canonical JSON report out."""
    with span("manifest.load"):
        m, s = load_manifest(json.loads(text))
    with span("manifest.hash"):
        digest_ = manifest_hash(dump_manifest(m, s))
    with span("suite.run"):
        report = run_suite(m, s, suite="all", manifest_hash=digest_)
    with span("report.emit"):
        out = emit(report, "json")
    return out, report


def one_request(inst, text, checker, request_id, tracer=None) -> Record:
    raised, problems, report, out = False, [], None, ""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out, report = serve(text)
        else:
            with tracer.request(request_id), tracer.layers_patched():
                out, report = serve(text, tracer.span)
    except Exception:  # a request that raises is a failed request, not a crash
        raised = True
        traceback.print_exc(file=sys.stderr)
    seconds = time.perf_counter() - t0
    if report is not None:
        problems = checker.check(inst, out, report)
        for problem in problems:
            sys.stderr.write(f"perfbench: {inst.label}: {problem}\n")
    return Record(
        inst.label, seconds, None, tracer is not None, raised, problems, request_id,
        report.counts() if report is not None else None, len(out.encode("utf-8")),
    )


def closed_loop(instances, texts, seconds, checker, tracer=None, setup=None) -> list[Record]:
    """Whole rounds until the time is up; with a tracer, rounds alternate untraced/traced.

    Untraced runs time the reference loop between requests; each request
    is normalised by the mean of the loops just before and just after it.
    Set-up probes, when given, run between requests, spread over the run.
    """
    records: list[Record] = []
    start = time.perf_counter()
    traced_round = False
    ref = reference_loop() if tracer is None else None
    while True:
        for inst, text in zip(instances, texts):
            record = one_request(
                inst, text, checker, len(records), tracer if traced_round else None
            )
            if tracer is None:
                ref_after = reference_loop()
                record.ref_seconds = (ref + ref_after) / 2
                ref = ref_after
            records.append(record)
            if setup is not None:
                setup.run_due((time.perf_counter() - start) / seconds)
        if tracer is not None:
            traced_round = not traced_round
            if traced_round:  # always finish with the traced half of a pair
                continue
        if time.perf_counter() - start >= seconds:
            if setup is not None:
                setup.run_due(1.0)
            return records


# -- set-up time ---------------------------------------------------------------


class SetupProbes:
    """Seconds from process start until the engine is imported and the inputs exist.

    Each probe is a fresh process (setup_probe.py).  The probes are spread
    over the run so that their median, like the request figures, averages
    the host's speed over the whole run instead of one moment of it.
    """

    def __init__(self, workload: str, seed: int, expected: str) -> None:
        self._argv = [sys.executable, PROBE_SCRIPT, workload, str(seed)]
        self._expected = expected
        self.samples: list[float] = []

    def run_due(self, progress: float) -> None:
        """Run every probe scheduled at or before this fraction of the run."""
        while len(self.samples) < SETUP_PROBES and len(self.samples) <= progress * SETUP_PROBES:
            self.samples.append(self._probe())

    def _probe(self) -> float:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(self._argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        if line["sha256"] != self._expected:
            raise BenchError("set-up probe generated different inputs")
        return line["ready"] - t0


# -- statistics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum (p100)
    is reported and the printed line says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _line(name: str, value, unit: str, note: str) -> str:
    return f"{name:<34} {value:>14.6g} {unit:<6} ({note})"


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def _tail_note(pct: float, n: int) -> str:
    return f"p{pct:.1f} of n={n}" + ("; ten samples or fewer, so the maximum" if n <= 10 else "")


def end_to_end(records: list[Record], setup: list[float]) -> tuple[dict, list[str]]:
    """The gated metrics, then the ungated tails, raw wall times and failure ratio.

    Wall time on the shared host swings by up to 2x within seconds, so its
    run-to-run spread is as wide as the largest allowed bound; the gated
    time metrics are therefore per-request ratios to the adjacent Fraction
    reference loop.  A tail rests on a few of those ratios (the maximum of
    about seven on heisenberg_verify), so it is printed but not gated.
    """
    done = [r for r in records if not r.raised]
    wall = [r.seconds for r in done]
    norm = [r.seconds / r.ref_seconds for r in done]
    failed = sum(r.failed for r in records)
    n = len(done)
    norm_pct, norm_tail = tail(norm)
    wall_pct, wall_tail = tail(wall)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "report_norm_p50": (statistics.median(norm), "ratio"),
        "reports_per_ref": (n / sum(norm), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups in fresh processes, spread over the run",
        "report_norm_p50": f"n={n}; per request, wall / adjacent Fraction reference loop",
        "reports_per_ref": f"{n} completed / {sum(norm):.3f} reference-loop durations",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    lines = [_line(k, v, u, notes[k]) for k, (v, u) in metrics.items()]
    ungated = "; printed, not gated"
    lines += [
        _line("report_norm_tail", norm_tail, "ratio", _tail_note(norm_pct, n) + ungated),
        _line("report_s_p50", statistics.median(wall), "s", f"n={n}{ungated}"),
        _line("report_s_tail", wall_tail, "s", _tail_note(wall_pct, n) + ungated),
        _line("reports_per_s", n / sum(wall), "1/s",
              f"{n} completed / {sum(wall):.3f} s of requests{ungated}"),
        _line("failed_ratio", failed / len(records), "ratio",
              f"{failed} failed / {len(records)} attempted; also the result's failed/attempted"),
    ]
    return metrics, lines


def per_layer(
    records: list[Record], tracer: Tracer, kernels: dict
) -> tuple[dict, list[str]]:
    traced = [r for r in records if r.traced and not r.raised]
    plain = [r for r in records if not r.traced and not r.raised]
    layers = [tracer.request_layers(r.request_id) for r in traced]
    counts = [tracer.request_counts(r.request_id) for r in traced]
    n = len(traced)
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    for name in LAYER_METRICS:
        metrics[f"{name}_s"] = (statistics.median(t.get(name, 0.0) for t in layers), "s")
        notes[f"{name}_s"] = f"median per request, n={n}"
    for name, (value, ops) in kernels.items():
        metrics[name] = (value, "us")
        notes[name] = (
            f"median of {KERNEL_REPEATS} passes over {ops} operations" if ops
            else "no operand of this kind in the workload"
        )
    per_request = {
        "curvature.riemann_nonzero": [c.get("curvature.riemann", 0) for c in counts],
        "tanaka_webster.curv_nonzero": [c.get("tanaka_webster.package", 0) for c in counts],
        "report.json_bytes": [r.json_bytes for r in traced],
        "report.holds": [r.report_counts["holds"] for r in traced],
        "report.fails": [r.report_counts["fails"] for r in traced],
        "report.not_applicable": [r.report_counts["not_applicable"] for r in traced],
    }
    for name, values in per_request.items():
        unit = "bytes" if name == "report.json_bytes" else "count"
        metrics[name] = (statistics.median(values), unit)
        notes[name] = f"median per request, n={n}"
    ratio = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    notes["trace.overhead_ratio"] = f"{n} traced / {len(plain)} untraced requests, same instances"
    lines = [_line(k, v, u, notes[k]) for k, (v, u) in metrics.items()]
    run = metrics["suite.run_s"][0]
    for name in ("tanaka_webster.suite_s", "curvature.riemann_s", "suite.self_s"):
        share = metrics[name][0] / run if run else 0.0
        lines.append(f"share {name} / suite.run_s = {share:.3f}")
    return metrics, lines


# -- the run ---------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    try:
        instances = make_instances(workload, seed)
    except ValueError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    texts = serialised_inputs(workload, seed)
    checker = Checker()
    pool = OperandPool()
    tracer = setup = None
    if trace:

        def harvest(name, result):
            if name == "curvature.riemann":
                pool.add_tensor(result)

        tracer = Tracer(harvest)
    else:
        setup = SetupProbes(workload, seed, digest(texts))
    try:
        check_generators(workload, seed, instances)
        records = closed_loop(instances, texts, seconds, checker, tracer, setup)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    if all(r.raised for r in records if r.traced == trace):
        sys.stderr.write("perfbench: no request completed; nothing to measure\n")
        return 1

    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    if trace:
        for text in texts:
            m, _ = load_manifest(json.loads(text))
            for plane in m.c:
                for row in plane:
                    for entry in row:
                        pool.add(entry)
        metrics, lines = per_layer(records, tracer, scalar_kernels(pool, seed))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace_{workload}_seed{seed}.jsonl")
        tracer.write(path)
        lines.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        metrics, lines = end_to_end(records, setup.samples)
    for line in lines:
        print(line)
    for inst in instances:
        mine = [r for r in records if r.label == inst.label]
        p50 = statistics.median(r.seconds for r in mine if not r.traced)
        counts = " ".join(f"{k}={v}" for k, v in (mine[-1].report_counts or {}).items())
        print(
            f"instance {inst.label}: requests={len(mine)} untraced_p50_s={p50:.4f} {counts} "
            f"json_bytes={mine[-1].json_bytes} sha256={checker.sha256.get(inst.label)}"
        )
    failed = sum(r.failed for r in records)
    print(_result(failed == 0, len(records), failed, metrics))
    return 0
