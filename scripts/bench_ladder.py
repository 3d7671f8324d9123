#!/usr/bin/env python3
"""Time ``run_suite("all")`` plus the JSON emit on the instance ladder.

The ladder is the lambda family (symbolic and at 1/2), the Heisenberg groups
H^3, H^5, H^7 and H^9, T1E4 (``manifests/t1e4.json``), and the dense random
dimension-5 frames ``manifests/random5.json`` and ``random5_t.json`` (rational
and linear in t), on which every derived section is gated, so neither the
Levi-Civita connection nor its curvature is built and a run is the structural
layer and the emit.  For each instance
it records the minimum wall time of k runs (``run_s``), the minimum of each
run's wall time divided by the mean of a fixed Fraction loop timed just before
and just after it (``run_norm``), the minimum of k ``emit`` calls of the
finished report (``emit_s``), the size of the JSON report, and three
deterministic work counts of one more run on a fresh copy of the input: the
calls of ``Scalar.sum_of_products``, the sums of products that return zero
(``zero_sums``), and the number of Scalars constructed; the tests bound these
counts through ``work_counts``.  Host speed on a shared machine swings up to
2x within seconds; ``run_norm`` moves much less.
On the gated random frames parsing the manifest is a large share of a request,
so for those two it also records the minimum of k ``load_manifest`` calls on
the committed document (``load_s``).

Usage:
    PYTHONPATH=src python scripts/bench_ladder.py --out BENCH.json --label change

The results are merged into the JSON file ``--out`` under ``--label``, so two
trees (say, before and after a change) can be measured into one file.
Repeating the command for a label already in the file keeps, per instance, the
lower ``run_s``, ``run_norm``, ``emit_s`` and ``load_s`` and the total number
of runs, so
alternating the two trees' invocations measures both over the same stretch of
host speed.
A repeat whose report size or work counts differ from the stored ones is
refused: it measured a different tree.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from fractions import Fraction
from pathlib import Path

from contactframe import (
    ENGINE_VERSION,
    Scalar,
    dump_manifest,
    emit,
    load_manifest,
    load_manifest_file,
    make_heisenberg,
    make_lambda_family,
    run_suite,
)

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
# ladder instances whose manifest load is timed too
LOADED = ("random5", "random5_t")


def ladder() -> dict:
    """Instance name -> (manifold, structure)."""
    entries = {
        "lambda_symbolic": make_lambda_family(None),
        "lambda_1/2": make_lambda_family(Fraction(1, 2)),
    }
    entries.update((f"H{2 * n + 1}", make_heisenberg(n)) for n in (1, 2, 3, 4))
    instances = {name: (e.manifold, e.structure) for name, e in entries.items()}
    instances["T1E4"] = load_manifest_file(str(MANIFESTS / "t1e4.json"))
    for name in ("random5", "random5_t"):
        instances[name] = load_manifest_file(str(MANIFESTS / f"{name}.json"))
    return instances


def report_json(m, s) -> str:
    return emit(run_suite(m, s, "all"))


def work_counts(m, s) -> dict:
    """Calls of the fused kernel, the kernel's calls that return zero, and the
    Scalars constructed, in one run on a fresh copy of the input
    (``load_manifest(dump_manifest(m, s))``), so that no cache left on m and s
    by the timed runs lowers the counts."""
    m, s = load_manifest(dump_manifest(m, s))
    counts = {"sum_of_products": 0, "zero_sums": 0, "scalars": 0}
    sum_of_products, init = Scalar.sum_of_products, Scalar.__init__

    def counted_sum_of_products(*args):
        counts["sum_of_products"] += 1
        value = sum_of_products(*args)
        counts["zero_sums"] += not value.terms
        return value

    def counted_init(*args):
        counts["scalars"] += 1
        init(*args)

    Scalar.sum_of_products = staticmethod(counted_sum_of_products)
    Scalar.__init__ = counted_init
    try:
        report_json(m, s)
    finally:
        Scalar.sum_of_products = staticmethod(sum_of_products)
        Scalar.__init__ = init
    return counts


def reference_s() -> float:
    """Seconds taken by a fixed dict-of-Fraction accumulation."""
    start = time.perf_counter()
    acc: dict[int, Fraction] = {}
    for i in range(1500):
        acc[i % 97] = acc.get(i % 97, Fraction(0)) + Fraction(i % 13 + 1, i % 7 + 1)
    return time.perf_counter() - start


def measure(m, s, runs: int) -> dict:
    best, best_norm, ref = float("inf"), float("inf"), reference_s()
    for _ in range(runs):
        start = time.perf_counter()
        text = report_json(m, s)
        elapsed = time.perf_counter() - start
        ref_after = reference_s()
        best, best_norm = min(best, elapsed), min(best_norm, 2 * elapsed / (ref + ref_after))
        ref = ref_after
    return {
        "run_s": round(best, 5),
        "run_norm": round(best_norm, 4),
        "emit_s": measure_emit(run_suite(m, s, "all"), runs),
        "json_bytes": len(text.encode()),
        **work_counts(m, s),
    }


def measure_emit(report, runs: int) -> float:
    """The minimum seconds of ``runs`` JSON emits of a finished report."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        emit(report)
        best = min(best, time.perf_counter() - start)
    return round(best, 6)


def measure_load(name: str, runs: int) -> float:
    """The minimum seconds of ``runs`` loads of ``manifests/<name>.json``,
    JSON decoding excluded."""
    document = json.loads((MANIFESTS / f"{name}.json").read_text())
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        load_manifest(document)
        best = min(best, time.perf_counter() - start)
    return round(best, 5)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to merge the results into")
    parser.add_argument("--label", required=True, help="key of this tree's results")
    parser.add_argument("--runs", type=int, default=7, help="timed runs per instance (min)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    results = {}
    for name, (m, s) in ladder().items():
        results[name] = measure(m, s, args.runs)
        if name in LOADED:
            results[name]["load_s"] = measure_load(name, args.runs)
        print(name, results[name], flush=True)

    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    runs = args.runs
    previous = data.get("results", {}).get(args.label)
    timed = ("run_s", "run_norm", "emit_s", "load_s")
    if previous is not None:
        for name, now in results.items():
            before = previous["instances"][name]
            if {k: v for k, v in before.items() if k not in timed} != {
                k: v for k, v in now.items() if k not in timed
            }:
                raise SystemExit(f"{name}: report size or work counts differ from {args.label!r}")
            for key in timed:
                if key in now:
                    now[key] = min(now[key], before[key])
        runs += previous["runs"]
    data.setdefault("results", {})[args.label] = {
        "engine_version": ENGINE_VERSION,
        "python": platform.python_version(),
        "runs": runs,
        "instances": results,
    }
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
