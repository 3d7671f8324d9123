#!/usr/bin/env python3
"""Time two trees of the engine against each other in one process.

The parent tree is ``git archive <rev> src`` unpacked into a temporary
directory (or, when ``rev`` names a directory, the ``contactframe`` package
under it); the change tree is this checkout's ``src`` (or ``--change DIR``).
Both are imported side by side as the packages ``cf_parent`` and
``cf_change``.  Each round runs, on every case and on both trees in
alternating order, a full request (load -> hash -> ``run_suite("all")`` ->
emit) and, where the request builds them, the ``levi_civita``, ``riemann``
and ``build_gtw_package`` layers on a freshly loaded input.  The cases are
H^3 to H^9 and the three perfbench documents; ``random_frame_triage`` is
its six seeded frames in sequence, and is gated, so it times the request
only.

For each case and layer it prints the minimum microseconds of each tree,
the median over rounds of the paired ratio change / parent, and the number
of rounds the change was faster.  It exits 1 if the two trees' reports
differ in any byte.

Usage:
    python scripts/ab.py HEAD~1 [--rounds 40] [--only H5 --only H9]
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("request", "levi_civita", "riemann", "build_gtw_package")
TRIAGE_SEED = 1


def load_tree(alias: str, src: Path):
    """Import ``src/contactframe`` as the package ``alias``; its relative
    imports resolve inside the same tree."""
    package = src / "contactframe"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def unpack(rev: str, into: Path) -> Path:
    """``git archive rev src`` unpacked under ``into``; the unpacked ``src``."""
    archive = subprocess.run(
        ["git", "archive", rev, "src"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def load_script(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def cases(cf) -> dict[str, list[str]]:
    """Case name -> the manifest texts one request of it serves."""
    workloads = load_script("ab_workloads", ROOT / "perfbench" / "workloads.py")

    def text(document: dict) -> str:
        return json.dumps(document)

    out = {}
    for n in (1, 2, 3, 4):
        entry = cf.make_heisenberg(n)
        out[f"H{2 * n + 1}"] = [text(cf.dump_manifest(entry.manifold, entry.structure))]
    entry = cf.make_lambda_family(None)
    out["lambda_symbolic_verify"] = [text(cf.dump_manifest(entry.manifold, entry.structure))]
    out["heisenberg_verify"] = [text(workloads.heisenberg_document(2))]
    triage = workloads.make_instances("random_frame_triage", TRIAGE_SEED)
    out["random_frame_triage"] = [text(inst.document) for inst in triage]
    return out


class Tree:
    """One imported tree and the calls the rounds time."""

    def __init__(self, cf) -> None:
        self.cf = cf
        self.suite = importlib.import_module(cf.__name__ + ".suite")

    def request(self, texts: list[str]) -> str:
        cf, out = self.cf, []
        for text in texts:
            m, s = cf.load_manifest(json.loads(text))
            digest = cf.manifest_hash(cf.dump_manifest(m, s))
            out.append(cf.emit(cf.run_suite(m, s, "all", manifest_hash=digest), "json"))
        return "".join(out)

    def layers(self, text: str) -> dict:
        """Seconds of each layer on a freshly loaded input, or {} when a
        request on it builds none of them."""
        m, s = self.cf.load_manifest(json.loads(text))
        x = self.suite.Instance(m, s)
        if x.gate_note:
            return {}
        suite, seconds = self.suite, {}
        start = time.perf_counter()
        lc = suite.levi_civita(m)
        seconds["levi_civita"] = time.perf_counter() - start
        start = time.perf_counter()
        suite.riemann(m, lc)
        seconds["riemann"] = time.perf_counter() - start
        xh_phi, phi_h = x.xh_phi, x.phi_h
        start = time.perf_counter()
        suite.build_gtw_package(m, s, lc, xh_phi, phi_h)
        seconds["build_gtw_package"] = time.perf_counter() - start
        return seconds

    def measure(self, texts: list[str]) -> tuple[str, dict]:
        start = time.perf_counter()
        out = self.request(texts)
        seconds = {"request": time.perf_counter() - start}
        if len(texts) == 1:
            seconds.update(self.layers(texts[0]))
        return out, seconds


def compare(parent: Tree, change: Tree, texts: list[str], rounds: int) -> tuple[dict, bool]:
    """Per layer: (parent seconds, change seconds) of each round; and whether
    every round's outputs were byte-identical."""
    samples: dict[str, list[tuple[float, float]]] = {}
    same = True
    for r in range(rounds):
        order = (parent, change) if r % 2 == 0 else (change, parent)
        results = {id(tree): tree.measure(texts) for tree in order}
        (out_p, sec_p), (out_c, sec_c) = results[id(parent)], results[id(change)]
        same = same and out_p == out_c
        for layer in LAYERS:
            if layer in sec_p and layer in sec_c:
                samples.setdefault(layer, []).append((sec_p[layer], sec_c[layer]))
    return samples, same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="parent revision, or a directory holding contactframe/")
    parser.add_argument("--change", type=Path, default=ROOT / "src",
                        help="directory holding the change's contactframe/ (default: src)")
    parser.add_argument("--rounds", type=int, default=40, help="alternating rounds per case")
    parser.add_argument("--only", action="append", help="run only this case (repeatable)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        rev = Path(args.rev)
        parent_src = rev if rev.is_dir() else unpack(args.rev, Path(tmp))
        parent, change = Tree(load_tree("cf_parent", parent_src)), Tree(
            load_tree("cf_change", args.change)
        )
        all_cases = cases(change.cf)
        unknown = set(args.only or ()) - set(all_cases)
        if unknown:
            parser.error(f"unknown case(s) {sorted(unknown)}; known: {list(all_cases)}")
        differ = []
        print(f"{'case':24} {'layer':18} {'parent_us':>10} {'change_us':>10} "
              f"{'ratio':>7} {'wins':>7}")
        for name, texts in all_cases.items():
            if args.only and name not in args.only:
                continue
            samples, same = compare(parent, change, texts, args.rounds)
            if not same:
                differ.append(name)
            for layer, pairs in samples.items():
                ratio = statistics.median(c / p for p, c in pairs)
                wins = sum(c < p for p, c in pairs)
                print(f"{name:24} {layer:18} {min(p for p, _ in pairs) * 1e6:10.0f} "
                      f"{min(c for _, c in pairs) * 1e6:10.0f} {ratio:7.3f} "
                      f"{wins:3d}/{len(pairs):<3d}", flush=True)
    if differ:
        print(f"outputs differ: {', '.join(differ)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
