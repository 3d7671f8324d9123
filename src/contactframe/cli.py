"""Command-line driver.

Subcommands:

    validate <manifest>                     structural layer only (frame.*/acm.*)
    curvature <manifest> --connection lc|gtw   connection/torsion/curvature tables
    verify <manifest> [--suite ...]         graded check suites
    zoo <label> [--lambda R | --symbolic]   built-in examples by label
    deform --kappa R --mu R --a R           D-homothetically deformed nullity pair
    boeckx --kappa R --mu R                 the (1 - mu/2)/sqrt(1 - kappa) invariant

A manifest path of ``-`` reads stdin.  ``curvature`` reads its tables from one
``suite.Instance``, the object ``verify`` grades.  ``--connection gtw`` has
``verify``'s gate for the gtw.* rows: it exits 2 naming the first failing check
of the structural layer (frame.*, acm.* and the h laws), or the connection's
own error when that layer holds but the connection cannot be built.

Every subcommand accepts --format json|text (default text).  Exit status is
0 when the run produced no failing check (non-report commands count as having
none), 1 when a report contains failures, and 2 for unusable input (bad
manifest, unknown label, domain errors, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Iterable

from .curvature import scalar_curvature
from .manifest import (
    ManifestError,
    dump_manifest,
    load_manifest_file,
    manifest_hash,
    read_manifest,
)
from .report import emit
from .suite import SUITES, Instance, run_suite
from .zoo import ZooDomainError, boeckx_invariant, dhomothetic_invariants, zoo_entry
from .frames import FrameVector, render_vector

_FORMATS = ("json", "text")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:  # argparse reports only ValueError/TypeError
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=_FORMATS,
        default=argparse.SUPPRESS,
        help="output format (default text)",
    )

    parser = argparse.ArgumentParser(
        prog="contactframe",
        description="exact checks for contact metric frame manifolds",
    )
    parser.add_argument("--format", choices=_FORMATS, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate", parents=[common], help="grade the structural layer of a manifest"
    )
    p.add_argument("manifest", help="path to a JSON manifest (- reads stdin)")
    p.set_defaults(suite="frame")

    p = sub.add_parser(
        "curvature", parents=[common], help="print connection and curvature tables"
    )
    p.add_argument("manifest", help="path to a JSON manifest (- reads stdin)")
    p.add_argument("--connection", choices=("lc", "gtw"), default="lc")

    p = sub.add_parser("verify", parents=[common], help="run graded check suites")
    p.add_argument("manifest", help="path to a JSON manifest (- reads stdin)")
    p.add_argument("--suite", choices=SUITES, default="all")

    p = sub.add_parser("zoo", parents=[common], help="emit a built-in example")
    p.add_argument("label", help="zoo label (lambda, sasakian3)")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--lambda",
        dest="lam",
        type=_rational,
        default=None,
        help="rational parameter value for the lambda family",
    )
    group.add_argument(
        "--symbolic",
        action="store_true",
        help="keep the parameter symbolic (default for the lambda label)",
    )

    p = sub.add_parser(
        "deform", parents=[common], help="deformed nullity pair (kappa_bar, mu_bar)"
    )
    p.add_argument("--kappa", type=_rational, required=True)
    p.add_argument("--mu", type=_rational, required=True)
    p.add_argument("--a", type=_rational, required=True)

    p = sub.add_parser(
        "boeckx", parents=[common], help="the (1 - mu/2)/sqrt(1 - kappa) invariant"
    )
    p.add_argument("--kappa", type=_rational, required=True)
    p.add_argument("--mu", type=_rational, required=True)

    return parser


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _vector_strings(v: FrameVector) -> list[str]:
    return [str(c) for c in v.components]


def _load(path: str):
    """The manifest at ``path``, read from stdin when ``path`` is ``-``."""
    return read_manifest(sys.stdin) if path == "-" else load_manifest_file(path)


def _cmd_verify(args, fmt: str) -> int:
    """verify, and validate (which runs suite "frame")."""
    m, s = _load(args.manifest)
    digest = manifest_hash(dump_manifest(m, s))
    report = run_suite(m, s, suite=args.suite, manifest_hash=digest)
    print(emit(report, fmt))
    return 1 if report.has_failures else 0


def _nonzero(
    vector: Callable[[tuple[int, ...]], FrameVector], indices: Iterable[tuple[int, ...]]
) -> list:
    """The (1-based indices, vector(indices)) pairs whose vector is nonzero, in order."""
    return [(tuple(i + 1 for i in at), v) for at in indices if not (v := vector(at)).is_zero()]


def _cmd_curvature(args, fmt: str) -> int:
    m, s = _load(args.manifest)
    digest = manifest_hash(dump_manifest(m, s))
    idx = range(m.dim)
    x = Instance(m, s)
    if args.connection == "gtw":
        # verify's gate: the first failing structural check, else the connection's error
        gate = x.structural_report.checks
        bad = [f"{c.name} violated: {c.witness}" for c in gate if c.status == "fails"]
        if not bad and x.connection_error:
            bad.append(x.connection_error)
        if bad:
            return _fail(
                f"the torsionful connection needs a valid contact metric structure: {bad[0]}"
            )
        conn, curv, ricci_form, tau = x.pkg.conn, x.pkg.curv, x.pkg.ricci, x.pkg.tau
        torsion = _nonzero(x.m.vector_at(x.pkg.torsion), combinations(idx, 2))
    else:
        conn, curv, ricci_form = x.lc, x.r, x.ricci
        tau = scalar_curvature(m, ricci_form)
        torsion = None
    kappa = x.kappa
    derivatives = _nonzero(x.m.vector_at(conn.table), product(idx, repeat=2))
    curvature = _nonzero(
        x.m.vector_at(curv.table), ((i, j, k) for (i, j), k in product(combinations(idx, 2), idx))
    )

    if fmt == "json":

        def entries(pairs: list) -> list[dict]:
            return [dict(zip("ijk", at), value=_vector_strings(v)) for at, v in pairs]

        payload = {
            "connection": args.connection,
            "dimension": m.dim,
            "parameters": list(m.params),
            "manifest_hash": digest,
            "derivatives": entries(derivatives),
            "curvature": entries(curvature),
            "ricci": [[str(c) for c in row] for row in ricci_form.components],
            "scalar_curvature": str(tau),
            "kappa": str(kappa) if kappa is not None else None,
        }
        if torsion is not None:
            payload["torsion"] = entries(torsion)
        _emit_json(payload)
        return 0

    lines = [
        f"connection: {args.connection}",
        f"dimension: {m.dim}" + (f"  parameters: {', '.join(m.params)}" if m.params else ""),
        "covariant derivatives (nonzero):",
    ]
    lines += [
        f"  D_E{i} E{j} = {render_vector(v.components)}" for (i, j), v in derivatives
    ] or ["  (all zero)"]
    if torsion is not None:
        lines.append("torsion (nonzero, i<j):")
        lines += [
            f"  T(E{i},E{j}) = {render_vector(v.components)}" for (i, j), v in torsion
        ] or ["  (all zero)"]
    lines.append("curvature (nonzero, i<j):")
    lines += [
        f"  R(E{i},E{j})E{k} = {render_vector(v.components)}" for (i, j, k), v in curvature
    ] or ["  (all zero)"]
    lines.append("ricci (nonzero):")
    lines += [
        f"  S(E{i + 1},E{j + 1}) = {ricci_form.components[i][j]}"
        for i, j in product(idx, repeat=2)
        if not ricci_form.components[i][j].is_zero()
    ] or ["  (all zero)"]
    lines.append(f"scalar curvature: {tau}")
    lines.append(f"kappa: {kappa if kappa is not None else 'none'}")
    print("\n".join(lines))
    return 0


def _cmd_zoo(args, fmt: str) -> int:
    entry = zoo_entry(args.label, None if args.symbolic else args.lam)
    document = dump_manifest(entry.manifold, entry.structure)
    digest = manifest_hash(document)
    if fmt == "json":
        _emit_json(
            {
                "label": entry.label,
                "dimension": entry.manifold.dim,
                "parameters": list(entry.manifold.params),
                "expected_kappa": str(entry.expected_kappa),
                "notes": list(entry.notes),
                "manifest": document,
                "manifest_hash": digest,
            }
        )
        return 0
    m = entry.manifold
    lines = [
        f"label: {entry.label}",
        f"dimension: {m.dim}" + (f"  parameters: {', '.join(m.params)}" if m.params else ""),
        f"expected kappa: {entry.expected_kappa}",
        "brackets (i<j, nonzero):",
    ]
    brackets = _nonzero(lambda ij: m.bracket_basis(*ij), combinations(range(m.dim), 2))
    lines += [
        f"  [E{i},E{j}] = {render_vector(v.components)}" for (i, j), v in brackets
    ] or ["  (all zero)"]
    lines.append("notes:")
    for note in entry.notes:
        lines.append(f"  - {note}")
    lines.append(f"manifest hash: {digest}")
    lines.append("(use --format json to obtain the manifest document)")
    print("\n".join(lines))
    return 0


def _cmd_deform(args, fmt: str) -> int:
    kappa_bar, mu_bar = dhomothetic_invariants(args.kappa, args.mu, args.a)
    if fmt == "json":
        _emit_json(
            {
                "kappa": str(args.kappa),
                "mu": str(args.mu),
                "a": str(args.a),
                "kappa_bar": str(kappa_bar),
                "mu_bar": str(mu_bar),
            }
        )
        return 0
    print(f"kappa_bar = {kappa_bar}")
    print(f"mu_bar = {mu_bar}")
    return 0


def _cmd_boeckx(args, fmt: str) -> int:
    result = boeckx_invariant(args.kappa, args.mu)
    if fmt == "json":
        _emit_json(
            {
                "kappa": str(args.kappa),
                "mu": str(args.mu),
                "is_exact": result.is_exact,
                "value": str(result.value) if result.value is not None else None,
                "square": str(result.square),
                "sign": result.sign,
                "approx": result.approx,
            }
        )
        return 0
    if result.is_exact:
        print(f"I = {result.value} (exact)")
    else:
        sign = {1: "+1", 0: "0", -1: "-1"}[result.sign]
        print(
            f"I^2 = {result.square}, sign = {sign}, approx = {result.approx} "
            "(approximate: 1 - kappa is not a rational square)"
        )
    return 0


_COMMANDS = {
    "validate": _cmd_verify,
    "verify": _cmd_verify,
    "curvature": _cmd_curvature,
    "zoo": _cmd_zoo,
    "deform": _cmd_deform,
    "boeckx": _cmd_boeckx,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "text")
    try:
        return _COMMANDS[args.command](args, fmt)
    except ManifestError as exc:
        for issue in exc.issues:
            print(str(issue), file=sys.stderr)
        return 2
    except (ZooDomainError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
