#!/usr/bin/env python3
"""Time and count two trees of the engine against each other in one process.

The parent tree is ``git archive <rev> src`` unpacked into a temporary
directory (or, when ``rev`` names a directory, the ``contactframe`` package
under it); the change tree is this checkout's ``src`` (or ``--change DIR``).
Both are imported side by side as the packages ``cf_parent`` and
``cf_change``.

The cases are the ladder (``ladder``: the lambda family, symbolic and at 1/2,
H^3 to H^9, T1E4 and the dense dimension-5 frames ``random5`` and
``random5_t``) and the three perfbench documents; a rung whose document is
byte-identical to a perfbench one (lambda symbolic) runs once, under the
perfbench name.  ``random_frame_triage`` is its six seeded frames in
sequence, and every figure of it is summed over the six; each frame is also
a case of its own, ``random_frame_triage/<label>``, since perfbench gates
the median request and the sum is dominated by the dimension-7 frames;
``--only random_frame_triage`` runs the sum and each of the six frames.

Before the timed rounds each tree counts, once per case, the work of one
``run_suite("all")`` plus emit on a freshly loaded input (``work_counts``):
the sums of products (one per index a ``sum_table`` call names, plus each
``Scalar.sum_of_products`` call made outside it), those that are zero, the
Scalars constructed, and the JSON report's bytes.  Counts that differ
between the trees are data, not an error.

Each round runs, on every case and on both trees in alternating order, a
full request (load -> hash -> ``run_suite("all")`` -> emit), timing within
it the ``load`` (``load_manifest`` on the decoded document) and the ``emit``
of the finished report.  On every input it also times the structural layer,
each on a freshly loaded input: ``validate_frame``, ``validate_acm`` and
``h_property_checks`` (h built before the timer starts), so a gated input
that builds nothing else still gets layer rows.  Where the request builds
them, it times on a freshly loaded input the layers ``levi_civita``, ``riemann``,
``detect_kappa`` (kappa from that curvature), ``build_gtw_package`` and
``concircular`` (Z from that package's curvature and R1), each on inputs
built before its timer starts and read by no earlier layer; and each of the
three derived sections (``verify_nkappa_suite``, ``verify_gtw_suite``,
``verify_concircular_suite``) on its own freshly loaded ``Instance`` whose
structural layer, classification, Levi-Civita connection and curvature,
kappa and torsionful package (and, for the concircular section, Z) are built
before the timer starts, as ``run_suite`` builds them before the section.
The layers run after one garbage collection, with the collector off, so no
collection of garbage that an earlier step left falls inside one tree's
timer; the collector's prior state is restored afterwards.  The request
runs with the collector as perfbench runs it.

For each case it prints both trees' counts, and per layer the minimum
microseconds of each tree, the median over rounds of the paired ratio
change / parent, the interquartile range of those ratios (``iqr``, the
spread a median near 1 must clear to mean anything), and the number of
rounds the change was faster.  ``--out``
writes the same figures as one JSON document.  It exits 1 if the two trees'
reports differ in any byte, unless every difference lies inside the witness
of a check named by ``--allow-diff`` (repeatable): such a case prints one
line naming the checks whose witness differs, and ``--out`` records those
names.  A changed status, name or order of any check, or a changed witness
of a check not named, still exits 1.

Usage:
    python scripts/ab.py HEAD~1 [--rounds 40] [--only H5 --only H9] [--out BENCH.json]
        [--allow-diff gtw.pair_interchange_crosscheck]
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = ROOT / "manifests"
SUITE_LAYERS = ("verify_nkappa_suite", "verify_gtw_suite", "verify_concircular_suite")
STRUCTURAL_LAYERS = ("validate_frame", "validate_acm", "h_property_checks")
LAYERS = ("request", "load", "emit", *STRUCTURAL_LAYERS, "levi_civita", "riemann",
          "detect_kappa", "build_gtw_package", "concircular", *SUITE_LAYERS)
# the seed perfbench runs its workloads with
SEED = 1


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


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def unpack(rev: str, into: Path) -> Path:
    """``git archive rev src`` unpacked under ``into``; the unpacked ``src``."""
    with tarfile.open(fileobj=BytesIO(git("archive", rev, "src"))) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def load_script(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def ladder(cf) -> dict:
    """Rung name -> (manifold, structure), built with the package ``cf``.
    random5 and random5_t (rational and linear in t) are gated: a run on them
    builds no derived section, connection or curvature."""
    entries = {
        "lambda_symbolic": cf.make_lambda_family(None),
        "lambda_1/2": cf.make_lambda_family(Fraction(1, 2)),
    }
    entries.update((f"H{2 * n + 1}", cf.make_heisenberg(n)) for n in (1, 2, 3, 4))
    rungs = {name: (e.manifold, e.structure) for name, e in entries.items()}
    for name, stem in (("T1E4", "t1e4"), ("random5", "random5"), ("random5_t", "random5_t")):
        rungs[name] = cf.load_manifest_file(str(MANIFESTS / f"{stem}.json"))
    return rungs


def cases(cf) -> dict[str, list[str]]:
    """Case name -> the manifest texts one request of it serves."""
    workloads = load_script("ab_workloads", ROOT / "perfbench" / "workloads.py")
    out = {name: [json.dumps(cf.dump_manifest(m, s))] for name, (m, s) in ladder(cf).items()}
    # perfbench's lambda_symbolic_verify document is this rung's dump, made by
    # whichever contactframe is importable, so the rung runs under that name
    out["lambda_symbolic_verify"] = out.pop("lambda_symbolic")
    for name in ("heisenberg_verify", "random_frame_triage"):
        out[name] = [json.dumps(inst.document) for inst in workloads.make_instances(name, SEED)]
    # perfbench gates the median triage request, which no summed figure shows
    for inst in workloads.make_instances("random_frame_triage", SEED):
        out[f"random_frame_triage/{inst.label}"] = [json.dumps(inst.document)]
    return out


@contextmanager
def counting(cf):
    """Count, while the block runs, the sums of products of the package
    ``cf``, those that are zero, and the Scalars constructed; yields the
    counts dict, which the block may read after it ends.

    A sum is one index that a ``sum_table`` call's products name (zero when
    the index is missing from the table), or one ``Scalar.sum_of_products``
    call made outside ``sum_table``, so the figures do not depend on
    whether the table kernel sums through ``sum_of_products``.  Every module
    of ``cf`` that binds ``sum_table`` by name gets the counting wrapper,
    and every wrapper is removed again."""
    counts = {"sum_of_products": 0, "zero_sums": 0, "scalars": 0}
    scalar, tables = cf.Scalar, sys.modules[cf.__name__ + ".tables"]
    sum_table, sum_of_products, init = tables.sum_table, scalar.sum_of_products, scalar.__init__
    inside = False

    def counted_sum_table(params, products):
        nonlocal inside
        products = list(products)
        named = len({index for index, _, _ in products})
        inside = True
        try:
            table = sum_table(params, products)
        finally:
            inside = False
        counts["sum_of_products"] += named
        counts["zero_sums"] += named - len(table)
        return table

    def counted_sum_of_products(*args):
        value = sum_of_products(*args)
        if not inside:
            counts["sum_of_products"] += 1
            counts["zero_sums"] += not value.terms
        return value

    def counted_init(*args):
        counts["scalars"] += 1
        init(*args)

    package = [m for name, m in sys.modules.items() if name.partition(".")[0] == cf.__name__]
    bound = [module for module in package if getattr(module, "sum_table", None) is sum_table]
    for module in bound:
        module.sum_table = counted_sum_table
    scalar.sum_of_products = staticmethod(counted_sum_of_products)
    scalar.__init__ = counted_init
    try:
        yield counts
    finally:
        for module in bound:
            module.sum_table = sum_table
        scalar.sum_of_products = staticmethod(sum_of_products)
        scalar.__init__ = init


def work_counts(cf, m, s) -> dict:
    """The sums of products, zero sums and Scalars (``counting``) and the
    JSON report's bytes of one ``run_suite("all")`` plus emit in the package
    ``cf``, on a fresh copy of the input (``load_manifest(dump_manifest(m,
    s))``), so that no cache left on m and s lowers the counts."""
    m, s = cf.load_manifest(cf.dump_manifest(m, s))
    with counting(cf) as counts:
        text = cf.emit(cf.run_suite(m, s, "all"), "json")
    counts["json_bytes"] = len(text.encode())
    return counts


@contextmanager
def collector_off():
    """One garbage collection, then the collector off while the block runs;
    its prior state is restored afterwards."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Tree:
    """One imported tree and the calls the rounds time."""

    def __init__(self, cf) -> None:
        self.cf = cf
        self.suite = importlib.import_module(cf.__name__ + ".suite")

    def counts(self, texts: list[str]) -> dict:
        """``work_counts`` summed over the texts."""
        runs = [work_counts(self.cf, *self.cf.load_manifest(json.loads(t))) for t in texts]
        return {key: sum(run[key] for run in runs) for key in runs[0]}

    def request(self, texts: list[str]) -> tuple[tuple[str, ...], dict]:
        """The reports of one request, and the seconds of the request and of
        its load and emit steps, summed over the texts."""
        cf, out, seconds = self.cf, [], {"load": 0.0, "emit": 0.0}
        begin = time.perf_counter()
        for text in texts:
            document = json.loads(text)
            start = time.perf_counter()
            m, s = cf.load_manifest(document)
            seconds["load"] += time.perf_counter() - start
            digest = cf.manifest_hash(cf.dump_manifest(m, s))
            report = cf.run_suite(m, s, "all", manifest_hash=digest)
            start = time.perf_counter()
            out.append(cf.emit(report, "json"))
            seconds["emit"] += time.perf_counter() - start
        seconds["request"] = time.perf_counter() - begin
        return tuple(out), seconds

    def layers(self, text: str) -> dict:
        """Seconds of each layer on a freshly loaded input (each section on
        its own, with the layers it reads built first): the structural layer
        on every input, the derived layers only where a request builds them;
        timed after one collection with the garbage collector off, whose
        prior state is then restored."""
        suite, seconds = self.suite, {}
        with collector_off():
            for name in STRUCTURAL_LAYERS:
                m, s = self.cf.load_manifest(json.loads(text))
                layer, args = {
                    "validate_frame": (m.validate_frame, ()),
                    "validate_acm": (suite.validate_acm, (m, s)),
                    "h_property_checks": (suite.h_property_checks, (m, s, suite.Instance(m, s).h)),
                }[name]
                start = time.perf_counter()
                layer(*args)
                seconds[name] = time.perf_counter() - start
        m, s = self.cf.load_manifest(json.loads(text))
        x = self.suite.Instance(m, s)
        if x.gate_note:
            return seconds
        with collector_off():
            start = time.perf_counter()
            lc = suite.levi_civita(m)
            seconds["levi_civita"] = time.perf_counter() - start
            start = time.perf_counter()
            r = suite.riemann(m, lc)
            seconds["riemann"] = time.perf_counter() - start
            start = time.perf_counter()
            suite.detect_kappa(m, s, r)
            seconds["detect_kappa"] = time.perf_counter() - start
            xh_phi, phi_h, r1 = x.xh_phi, x.phi_h, x.templates[0]
            start = time.perf_counter()
            pkg = suite.build_gtw_package(m, s, lc, xh_phi, phi_h)
            seconds["build_gtw_package"] = time.perf_counter() - start
            start = time.perf_counter()
            suite.concircular(m, pkg.curv, r1)
            seconds["concircular"] = time.perf_counter() - start
            for name in SUITE_LAYERS:
                x = suite.Instance(*self.cf.load_manifest(json.loads(text)))
                x.classification, x.gate_note, x.pkg
                if name == "verify_concircular_suite":
                    x.z
                section = getattr(suite, name)
                start = time.perf_counter()
                section(x)
                seconds[name] = time.perf_counter() - start
            return seconds

    def measure(self, texts: list[str]) -> tuple[tuple[str, ...], dict]:
        out, seconds = self.request(texts)
        if len(texts) == 1:
            seconds.update(self.layers(texts[0]))
        return out, seconds


def compare(parent: Tree, change: Tree, texts: list[str], rounds: int) -> tuple[dict, set]:
    """Per layer: (parent seconds, change seconds) of each round; and the
    distinct (parent reports, change reports) pairs that the rounds gave."""
    samples: dict[str, list[tuple[float, float]]] = {}
    outputs = set()
    for r in range(rounds):
        order = (parent, change) if r % 2 == 0 else (change, parent)
        results = {id(tree): tree.measure(texts) for tree in order}
        (out_p, sec_p), (out_c, sec_c) = results[id(parent)], results[id(change)]
        outputs.add((out_p, out_c))
        for layer in LAYERS:
            if layer in sec_p and layer in sec_c:
                samples.setdefault(layer, []).append((sec_p[layer], sec_c[layer]))
    return samples, outputs


def interquartile_range(ratios: list[float]) -> float:
    """Q3 - Q1 of the paired ratios (inclusive quartiles, so both lie within
    the observed range); 0 for a single round."""
    if len(ratios) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return q3 - q1


def witness_diff(
    parent: tuple[str, ...], change: tuple[str, ...], allowed: set[str]
) -> list[str] | None:
    """The sorted names of the checks whose witness differs between the two
    trees' JSON reports, when only witnesses of checks in ``allowed`` differ;
    None when anything else differs, or no witness does."""
    names = set()
    for a, b in zip(parent, change, strict=True):
        documents = json.loads(a), json.loads(b)
        witnesses = []
        for document in documents:
            held = [c for c in document["checks"] if c["name"] in allowed]
            witnesses.append([(c["name"], c.pop("witness")) for c in held])
        if documents[0] != documents[1]:
            return None
        names.update(n for (n, w), (_, v) in zip(*witnesses) if w != v)
    return sorted(names) or None


def selected(case: str, only: list[str]) -> bool:
    """Whether ``--only`` names ``case``: its own name, or the name before its
    ``/``, so ``random_frame_triage`` also runs each ``random_frame_triage/<label>``."""
    return case in only or case.partition("/")[0] in only


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="parent revision, or a directory holding contactframe/")
    parser.add_argument("--change", type=Path, default=ROOT / "src",
                        help="directory holding the change's contactframe/ (default: src)")
    parser.add_argument("--rounds", type=int, default=40, help="alternating rounds per case")
    parser.add_argument("--only", action="append",
                        help="run only this case and the cases NAME/... (repeatable)")
    parser.add_argument("--out", type=Path, help="write the figures to this JSON file")
    parser.add_argument("--allow-diff", action="append", default=[], metavar="NAME",
                        help="allow the witness of this check to differ (repeatable)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        rev = Path(args.rev)
        if rev.is_dir():
            parent_src, parent_id = rev, args.rev
        else:
            parent_src = unpack(args.rev, Path(tmp))
            parent_id = git("rev-parse", "--verify", f"{args.rev}^{{commit}}").decode().strip()
        parent, change = Tree(load_tree("cf_parent", parent_src)), Tree(
            load_tree("cf_change", args.change)
        )
        all_cases = cases(change.cf)
        known = set(all_cases) | {c.partition("/")[0] for c in all_cases}
        unknown = set(args.only or ()) - known
        if unknown:
            parser.error(f"unknown case(s) {sorted(unknown)}; known: {list(all_cases)}")
        results, differ = {}, []
        print(f"{'case':40} {'layer or count':24} {'parent':>10} {'change':>10} "
              f"{'ratio':>7} {'iqr':>6} {'wins':>7}   (layers in min us)")
        for name, texts in all_cases.items():
            if args.only and not selected(name, args.only):
                continue
            counts = {"parent": parent.counts(texts), "change": change.counts(texts)}
            for key, value in counts["parent"].items():
                print(f"{name:40} {key:24} {value:10d} {counts['change'][key]:10d}", flush=True)
            samples, outputs = compare(parent, change, texts, args.rounds)
            differing = [(p, c) for p, c in outputs if p != c]
            diffs = [witness_diff(p, c, set(args.allow_diff)) for p, c in differing]
            witnesses = []
            if None in diffs:
                differ.append(name)
            elif differing:
                witnesses = sorted(set().union(*diffs))
                print(f"{name}: only the witnesses of {', '.join(witnesses)} differ", flush=True)
            layers = {}
            for layer, pairs in samples.items():
                ratios = [c / p for p, c in pairs]
                layers[layer] = row = {
                    "parent_us": round(min(p for p, _ in pairs) * 1e6, 1),
                    "change_us": round(min(c for _, c in pairs) * 1e6, 1),
                    "ratio": round(statistics.median(ratios), 4),
                    "iqr": round(interquartile_range(ratios), 4),
                    "wins": sum(c < p for p, c in pairs),
                }
                print(f"{name:40} {layer:24} {row['parent_us']:10.0f} {row['change_us']:10.0f} "
                      f"{row['ratio']:7.3f} {row['iqr']:6.3f} {row['wins']:3d}/{len(pairs):<3d}",
                      flush=True)
            results[name] = {"counts": counts, "layers": layers}
            if witnesses:
                results[name]["witness_diff"] = witnesses
    if args.out:
        document = {"parent": parent_id, "python": platform.python_version(),
                    "rounds": args.rounds, "cases": results}
        args.out.write_text(json.dumps(document, indent=2) + "\n")
    if differ:
        print(f"outputs differ: {', '.join(differ)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
