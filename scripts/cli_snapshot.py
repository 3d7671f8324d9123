#!/usr/bin/env python3
"""Snapshot every CLI output on the bundled manifests, for an A/B diff.

For each manifest in ``manifests/`` this runs ``contactframe.cli.main``
in-process 16 times: ``verify`` under each of the 5 suites, ``validate``, and
``curvature --connection lc`` and ``--connection gtw``, each in json and in
text.  It also runs the fixed bookkeeping commands in ``BOOKKEEPING`` (``zoo``,
``deform`` and ``boeckx``), each in json and in text, and the 16 manifest
commands on every rung of ``ab.ladder()`` (``scripts/ab.py``) that no bundled
manifest holds (H^3, H^7, H^9 and lambda = 1/2), written to a temporary
manifest first.
Every run's stdout, stderr and exit status go to one file,
``OUT_DIR/<manifest>__<command>.<format>.txt``,
``OUT_DIR/ladder-<instance>__<command>.<format>.txt``, or
``OUT_DIR/bookkeeping__<command>.<format>.txt``.  A change that must keep the
CLI byte-identical is checked by snapshotting both trees and comparing the
two directories:

    PYTHONPATH=src python scripts/cli_snapshot.py /tmp/before   # parent tree
    PYTHONPATH=src python scripts/cli_snapshot.py /tmp/after    # changed tree
    diff -r /tmp/before /tmp/after
"""

from __future__ import annotations

import argparse
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import contactframe
from ab import ladder
from contactframe import SUITES, dump_manifest, load_manifest_file, manifest_hash
from contactframe.cli import main

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

COMMANDS = (
    [(f"verify-{suite}", ["verify", "--suite", suite]) for suite in SUITES]
    + [("validate", ["validate"])]
    + [(f"curvature-{c}", ["curvature", "--connection", c]) for c in ("lc", "gtw")]
)


BOOKKEEPING = (
    ("zoo-lambda-symbolic", ["zoo", "lambda", "--symbolic"]),
    ("zoo-sasakian3", ["zoo", "sasakian3"]),
    ("deform", ["deform", "--kappa", "-8", "--mu", "-8", "--a", "5"]),
    ("deform-negative-a", ["deform", "--kappa", "0", "--mu", "0", "--a", "-2"]),
    ("boeckx", ["boeckx", "--kappa", "3/4", "--mu", "0"]),
)


def snapshot(argv: list[str], fmt: str) -> str:
    """stdout, stderr and the exit status of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main([*argv, "--format", fmt])
    return f"exit: {status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def ladder_manifests(directory: Path) -> list[tuple[str, Path]]:
    """(stem, path) of a manifest written into ``directory`` for every ladder
    input whose canonical document matches no bundled manifest."""
    bundled = {
        manifest_hash(dump_manifest(*load_manifest_file(str(path))))
        for path in MANIFESTS.glob("*.json")
    }
    written = []
    for name, (m, s) in ladder(contactframe).items():
        document = dump_manifest(m, s)
        if manifest_hash(document) not in bundled:
            path = directory / f"ladder-{name.replace('/', '_')}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            written.append((path.stem, path))
    return written


def main_snapshot(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    with tempfile.TemporaryDirectory() as scratch:
        manifests = [(path.stem, path) for path in sorted(MANIFESTS.glob("*.json"))]
        manifests += ladder_manifests(Path(scratch))
        runs = [
            (f"{stem}__{label}", [argv[0], str(path), *argv[1:]])
            for stem, path in manifests
            for label, argv in COMMANDS
        ] + [(f"bookkeeping__{label}", argv) for label, argv in BOOKKEEPING]
        for stem, argv in runs:
            for fmt in ("json", "text"):
                path = out_dir / f"{stem}.{fmt}.txt"
                path.write_text(snapshot(argv, fmt), encoding="utf-8")
                written += 1
    print(f"wrote {written} files to {out_dir}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory to write the snapshot into")
    raise SystemExit(main_snapshot(parser.parse_args().out_dir))
