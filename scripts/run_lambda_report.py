#!/usr/bin/env python3
"""Run the full check suite on the one-parameter family and print the report.

Usage:
    python scripts/run_lambda_report.py              # symbolic parameter
    python scripts/run_lambda_report.py 1/2          # at a rational value
    python scripts/run_lambda_report.py --json 0     # JSON report at 0
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from contactframe import (
    SUITES,
    dump_manifest,
    emit,
    manifest_hash,
    make_lambda_family,
    run_suite,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "value",
        nargs="?",
        default=None,
        help="rational parameter value (omit for symbolic)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--suite", default="all", choices=SUITES)
    args = parser.parse_args()

    lam = Fraction(args.value) if args.value is not None else None
    entry = make_lambda_family(lam)
    digest = manifest_hash(dump_manifest(entry.manifold, entry.structure))
    report = run_suite(entry.manifold, entry.structure, args.suite, digest)
    print(emit(report, "json" if args.json else "text"))
    return 1 if report.has_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
