"""Named verification checks and deterministic report serialization.

A report is an ordered list of checks.  Each check has one of three statuses:

- ``holds``          - the identity/property was verified exactly;
- ``fails``          - it was violated; a witness is mandatory;
- ``not_applicable`` - the check does not apply to this instance (wrong
  structure class, or an informational cross-check whose reference form
  disagrees with the computed value - the disagreement is then data, not
  an error).

Witnesses are plain JSON-ready dictionaries: indices are 1-based frame
indices, scalar values are rendered through the canonical expression
grammar, vectors through the frame-vector rendering ("-2/3*E2").  Every
witness is built by ``first_witness``: the first index tuple, in the
caller's order, whose residual is nonzero.  The structural layer's
bracket, contact and h laws hand it, in scan order, the basis tuples some
nonzero entry names and a per-tuple residual; every other check hands it
the least index of a table of its nonzero residuals (``tables``, read by
``FrameManifold.table_witness``), in column-major order for
``nkappa.h_square``.  A
crosscheck reads only the keys of such a table and the value at the first
one: its witness counts the tuples that agree and lists the few that
differ, so a tuple absent from the table agrees without being evaluated or
written.

Every check after the structural layer is a row ``(name, build)`` of one
ordered catalogue (``suite.CATALOGUE``), the only place its name is written.
``grade_rows`` is the one gate: for each row it takes the instance's verdict
``x.gate(name)`` when there is one, and otherwise calls
``build(report, name, x)``, which grades the check through one verdict helper.

Serialization is deterministic: no timestamps, stable key order, check
order fixed by construction order.  Two runs over the same input must
produce byte-identical JSON.  ``emit`` writes the JSON in one pass from the
checks, byte for byte what ``json.dumps(document, sort_keys=True,
indent=2)`` makes of the report's document; the standard encoder runs its
pure-Python generators whenever it indents.  Each distinct
``convention_notes`` tuple is rendered once per emit, so a gated section's
one note is not rendered once per row.  Only str, int, bool, None and
str-keyed dicts, lists and tuples of them are written: a float or any other
value raises TypeError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"

_STATUSES = (HOLDS, FAILS, NOT_APPLICABLE)


class ReportError(Exception):
    """Raised on malformed check construction (e.g. failure without witness)."""


def first_witness(
    tuples: Iterable[tuple[int, ...]], residual: Callable, key: str = "residual"
) -> dict | None:
    """Witness of the first 0-based index tuple whose residual is nonzero.

    ``residual(*indices)`` returns a Scalar or a FrameVector; the witness is
    ``{"indices": [1-based ...], key: str(value)}``.  None when every
    residual vanishes.
    """
    for indices in tuples:
        value = residual(*indices)
        if not value.is_zero():
            return {"indices": [i + 1 for i in indices], key: str(value)}
    return None


@dataclass(frozen=True)
class Check:
    name: str
    status: str
    witness: dict | None = None
    convention_notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ReportError(f"unknown status {self.status!r} for check {self.name!r}")
        if self.status == FAILS and self.witness is None:
            raise ReportError(f"failing check {self.name!r} must carry a witness")


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)
    manifest_hash: str | None = None
    engine_version: str = "0.0.0"

    # -- construction --------------------------------------------------------

    def add(
        self,
        name: str,
        status: str,
        witness: dict | None = None,
        notes: tuple[str, ...] | list[str] = (),
    ) -> Check:
        check = Check(name=name, status=status, witness=witness, convention_notes=tuple(notes))
        self.checks.append(check)
        return check

    def holds(self, name: str, witness: dict | None = None, notes=()) -> Check:
        return self.add(name, HOLDS, witness, notes)

    def fails(self, name: str, witness: dict, notes=()) -> Check:
        return self.add(name, FAILS, witness, notes)

    def not_applicable(self, name: str, witness: dict | None = None, notes=()) -> Check:
        return self.add(name, NOT_APPLICABLE, witness, notes)

    def graded(self, name: str, witness: dict | None, notes=()) -> Check:
        """holds when there is no witness, fails with the witness otherwise."""
        if witness is None:
            return self.holds(name, notes=notes)
        return self.fails(name, witness, notes=notes)

    def reference(self, name: str, witness: dict | None, note: str) -> Check:
        """A quoted variant: holds when it has no witness, else its
        disagreement is recorded as data (not_applicable with the note)."""
        if witness is None:
            return self.holds(name)
        return self.not_applicable(name, witness=witness, notes=(note,))

    def nonvanishing(
        self, name: str, witness: dict | None, what: str, notes, vanished_notes
    ) -> Check:
        """A quantity that must not vanish identically: holds with
        ``witness``, its first nonzero value, or fails when there is none."""
        if witness is not None:
            return self.holds(name, witness=witness, notes=notes)
        return self.fails(name, {"residual": f"{what} vanished identically"}, vanished_notes)

    def crosscheck(
        self, name: str, count: int, differs: Iterable[tuple[int, ...]], residual: Callable, notes
    ) -> Check:
        """Record which of ``count`` index tuples have a nonzero residual.

        ``differs`` holds the 0-based tuples whose residual is nonzero; every
        other tuple vanishes.  The witness counts the tuples that agree, lists
        the 1-based tuples that differ ("1,2,3") in row-major order and, when
        one differs, gives the first of them and ``residual(tuple)`` there.
        The check holds when every tuple agrees and is not_applicable
        otherwise: the verdict is data, not a pass condition.
        """
        differs = sorted(differs)
        witness: dict = {
            "agrees": count - len(differs),
            "differs": [",".join(str(i + 1) for i in t) for t in differs],
        }
        if not differs:
            return self.holds(name, witness=witness, notes=notes)
        witness["first_residual_at"] = [i + 1 for i in differs[0]]
        witness["first_residual"] = str(residual(differs[0]))
        return self.not_applicable(name, witness=witness, notes=notes)

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    # -- queries --------------------------------------------------------------

    @property
    def has_failures(self) -> bool:
        return any(c.status == FAILS for c in self.checks)

    def counts(self) -> dict[str, int]:
        out = {HOLDS: 0, FAILS: 0, NOT_APPLICABLE: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def by_name(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


Row = tuple[str, Callable[[VerificationReport, str, Any], None]]


def grade_rows(rows: Iterable[Row], x: Any) -> VerificationReport:
    """One report holding each row's check, in row order: the instance's
    verdict ``x.gate(name)`` when it gates the row, else the check that the
    row's build grades."""
    report = VerificationReport()
    for name, build in rows:
        verdict = x.gate(name)
        if verdict is None:
            build(report, name, x)
        else:
            report.checks.append(verdict)
    return report


def emit(report: VerificationReport, format: str = "json") -> str:
    """Render a report deterministically as JSON or aligned text."""
    if format == "json":
        return _emit_json(report)
    if format == "text":
        return _emit_text(report)
    raise ValueError(f"unknown format {format!r}")


_quote = json.encoder.encode_basestring_ascii


def _json(value: Any, pad: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` renders it
    on a line indented by ``pad``.  Only str-keyed dicts, lists, tuples, str,
    int, bool and None are written; anything else (a float, a Scalar, a
    non-str key) raises TypeError.  A str item is quoted in place, since
    most items of a witness are strings."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_quote(v) if type(v) is str else _json(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            v = value[key]
            items.append(_quote(key) + ": " + (_quote(v) if type(v) is str else _json(v, inner)))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(report: VerificationReport) -> str:
    """The report as ``json.dumps(..., sort_keys=True, indent=2)`` renders its
    document, written in one pass: a check's four keys are written in their
    sorted order, its name and status quoted directly (both are str), and
    the document holds no floats."""
    pad = "      "
    # a gated section gives every row the same notes: each distinct tuple is
    # rendered once
    notes = {n: _json(n, pad) for n in {c.convention_notes for c in report.checks}}
    checks = [
        "{\n"
        f'{pad}"convention_notes": {notes[c.convention_notes]},\n'
        f'{pad}"name": {_quote(c.name)},\n'
        f'{pad}"status": {_quote(c.status)},\n'
        f'{pad}"witness": {"null" if c.witness is None else _json(c.witness, pad)}\n'
        "    }"
        for c in report.checks
    ]
    provenance = {"engine_version": report.engine_version, "manifest_hash": report.manifest_hash}
    return (
        '{\n  "checks": '
        + ("[\n    " + ",\n    ".join(checks) + "\n  ]" if checks else "[]")
        + ',\n  "provenance": '
        + _json(provenance, "  ")
        + "\n}\n"
    )


_TEXT_TAGS = {HOLDS: "[holds]", FAILS: "[FAILS]", NOT_APPLICABLE: "[ n/a ]"}


def _emit_text(report: VerificationReport) -> str:
    lines = ["verification report"]
    hash_text = report.manifest_hash if report.manifest_hash else "-"
    lines.append(f"engine {report.engine_version}  manifest {hash_text}")
    for check in report.checks:
        line = f"{_TEXT_TAGS[check.status]} {check.name}"
        if check.witness:
            line += f"  witness: {_render_witness(check.witness)}"
        lines.append(line)
        for note in check.convention_notes:
            lines.append(f"        note: {note}")
    counts = report.counts()
    lines.append(
        f"summary: {counts[HOLDS]} holds, {counts[FAILS]} fails, "
        f"{counts[NOT_APPLICABLE]} not applicable"
    )
    return "\n".join(lines) + "\n"


def _render_witness(witness: dict) -> str:
    """key=value pairs in key order; a list is parenthesized, and each string
    item of it (a crosscheck's "i,j,k") is parenthesized too, so that
    ``differs`` keeps its tuples apart."""
    parts = []
    for key in sorted(witness):
        value = witness[key]
        if isinstance(value, (list, tuple)):
            items = (f"({v})" if isinstance(v, str) else str(v) for v in value)
            rendered = "(" + ",".join(items) + ")"
        else:
            rendered = str(value)
        parts.append(f"{key}={rendered}")
    return " ".join(parts)
