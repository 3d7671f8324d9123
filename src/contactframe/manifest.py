"""Manifest ingestion and emission.

A manifest is a JSON document describing a frame manifold and its contact
structure:

    {
      "dimension": 3,
      "parameters": ["lambda"],
      "structure_constants": [
        {"i": 1, "j": 2, "k": 3, "coeff": "1+lambda"},
        {"i": 1, "j": 3, "k": 2, "coeff": "-1+lambda"},
        {"i": 2, "j": 3, "k": 1, "coeff": "2"}
      ],
      "contact": {
        "xi": 1,
        "eta": ["1", "0", "0"],
        "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]]
      }
    }

Conventions:

- indices are 1-based; structure constants are sparse with i < j (the k-th
  coefficient of [E_i, E_j]); omitted triples are zero;
- every coefficient is an expression string in the exact-scalar grammar
  over the declared parameters;
- "xi" is either a single 1-based frame index or a component list;
  "eta" is a component list; "phi" is the dim x dim matrix whose entry
  [r][c] is the r-th component of phi(E_{c+1}) (columns are images);
- the dimension must be odd (the structures modeled here do not exist on
  even-dimensional frames) and at most MAX_DIMENSION;
- at most MAX_PARAMETERS parameters are declared;
- "structure_constants" has at most dim * dim * (dim - 1) / 2 entries, one
  per distinct triple (i < j, k);
- every expression stays within the parser's budgets (``scalars.MAX_EXPONENT``,
  ``scalars.MAX_TERMS`` and ``scalars.MAX_DEPTH``).

Loading either returns the constructed objects or raises ManifestError
carrying every problem found, each tagged with the JSON path it refers to
(e.g. "contact.phi" or "structure_constants[2].coeff").  Each distinct
expression string is parsed once per document.  A well-formed
structure-constant entry is accepted by one combined test; the per-field
checks run, and the entry's path is built, only when it has an issue to
report.  dump_manifest is the inverse on canonical documents, and
manifest_hash fingerprints the canonical compact serialization.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import IO, Any, Callable

from .contact import AlmostContactData
from .frames import Endomorphism, FrameManifold, FrameVector
from .scalars import Scalar, ScalarError, parse_scalar

# The checks scan up to dim^4 index tuples and Riemann costs dim^5 products,
# so the dimension is bounded before any work starts.  H^11 and every
# committed manifest fit.
MAX_DIMENSION = 11
# Every monomial is a tuple as long as the parameter list, so the list is
# bounded before any expression is parsed; no committed manifest declares two.
MAX_PARAMETERS = 8


@dataclass(frozen=True)
class ManifestIssue:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}" if self.path else self.message


class ManifestError(ValueError):
    """One or more problems in a manifest document, each with its path."""

    def __init__(self, issues: list[ManifestIssue]):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(issue) for issue in self.issues))


def _parse_component_list(
    raw: Any,
    dim: int,
    parse: Callable[[str], Scalar],
    path: str,
    issues: list[ManifestIssue],
) -> FrameVector | None:
    if not isinstance(raw, list) or len(raw) != dim:
        issues.append(ManifestIssue(path, f"expected a list of {dim} expressions"))
        return None
    components = []
    ok = True
    for idx, entry in enumerate(raw):
        if not isinstance(entry, str):
            issues.append(ManifestIssue(f"{path}[{idx}]", "expected an expression string"))
            ok = False
            continue
        try:
            components.append(parse(entry))
        except ScalarError as exc:
            issues.append(ManifestIssue(f"{path}[{idx}]", str(exc)))
            ok = False
    return FrameVector(tuple(components)) if ok else None


def load_manifest(document: Any) -> tuple[FrameManifold, AlmostContactData]:
    """Validate a parsed JSON document and build the frame objects."""
    issues: list[ManifestIssue] = []
    if not isinstance(document, dict):
        raise ManifestError([ManifestIssue("", "manifest must be a JSON object")])

    known = {"dimension", "parameters", "structure_constants", "contact"}
    for key in document:
        if key not in known:
            issues.append(ManifestIssue(key, "unknown field"))

    dim = document.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        issues.append(ManifestIssue("dimension", "expected a positive integer"))
        raise ManifestError(issues)
    if dim > MAX_DIMENSION:
        issues.append(
            ManifestIssue("dimension", f"{dim} exceeds MAX_DIMENSION = {MAX_DIMENSION}")
        )
        raise ManifestError(issues)
    if dim % 2 == 0:
        issues.append(
            ManifestIssue("dimension", f"must be odd, got {dim}")
        )

    raw_params = document.get("parameters", [])
    params: tuple[str, ...] = ()
    if not isinstance(raw_params, list) or not all(
        isinstance(p, str) for p in raw_params
    ):
        issues.append(ManifestIssue("parameters", "expected a list of names"))
    elif (n := len(raw_params)) > MAX_PARAMETERS:
        issues.append(ManifestIssue("parameters", f"{n} exceeds MAX_PARAMETERS = {MAX_PARAMETERS}"))
        raise ManifestError(issues)
    else:
        seen: set[str] = set()
        for idx, p in enumerate(raw_params):
            if not p.isidentifier():
                issues.append(
                    ManifestIssue(f"parameters[{idx}]", f"invalid name {p!r}")
                )
            elif p in seen:
                issues.append(ManifestIssue(f"parameters[{idx}]", f"duplicate {p!r}"))
            seen.add(p)
        params = tuple(raw_params)

    # each distinct expression is parsed once per document; a failed parse is
    # not stored, so every bad entry reports its own issue and path
    parsed: dict[str, Scalar] = {}

    def parse(text: str) -> Scalar:
        scalar = parsed.get(text)
        if scalar is None:
            scalar = parsed[text] = parse_scalar(text, params)
        return scalar

    pairs: dict[tuple[int, int, int], Scalar] = {}
    raw_constants = document.get("structure_constants", [])
    # one entry per distinct (i < j, k); a longer list repeats a triple, and
    # is refused before any entry is read
    most = dim * dim * (dim - 1) // 2
    if not isinstance(raw_constants, list):
        issues.append(ManifestIssue("structure_constants", "expected a list"))
    elif len(raw_constants) > most:
        issues.append(
            ManifestIssue(
                "structure_constants",
                f"{len(raw_constants)} entries, more than the {most} distinct triples"
                f" (i < j, k) of dimension {dim}",
            )
        )
    else:
        for idx, entry in enumerate(raw_constants):
            # a well-formed entry passes one test; only an entry with an issue
            # to report goes through the field checks and builds its path
            if (
                type(entry) is dict
                and len(entry) == 4
                and type(i := entry.get("i")) is int
                and type(j := entry.get("j")) is int
                and type(k := entry.get("k")) is int
                and type(coeff := entry.get("coeff")) is str
                and 1 <= i < j <= dim
                and 1 <= k <= dim
                and (key0 := (i - 1, j - 1, k - 1)) not in pairs
            ):
                try:
                    pairs[key0] = parse(coeff)
                except ScalarError as exc:
                    issues.append(ManifestIssue(f"structure_constants[{idx}].coeff", str(exc)))
                continue
            path = f"structure_constants[{idx}]"
            if not isinstance(entry, dict):
                issues.append(ManifestIssue(path, "expected an object"))
                continue
            triple = []
            bad = False
            for field in ("i", "j", "k"):
                value = entry.get(field)
                if not isinstance(value, int) or isinstance(value, bool):
                    issues.append(ManifestIssue(f"{path}.{field}", "expected an integer"))
                    bad = True
                elif not 1 <= value <= dim:
                    issues.append(
                        ManifestIssue(
                            f"{path}.{field}", f"index {value} outside 1..{dim}"
                        )
                    )
                    bad = True
                else:
                    triple.append(value)
            extra = set(entry) - {"i", "j", "k", "coeff"}
            for key in sorted(extra):
                issues.append(ManifestIssue(f"{path}.{key}", "unknown field"))
            if bad:
                continue
            i, j, k = triple
            if not i < j:
                issues.append(ManifestIssue(f"{path}.i", f"require i < j, got ({i},{j})"))
                continue
            coeff = entry.get("coeff")
            if not isinstance(coeff, str):
                issues.append(ManifestIssue(f"{path}.coeff", "expected an expression string"))
                continue
            try:
                scalar = parse(coeff)
            except ScalarError as exc:
                issues.append(ManifestIssue(f"{path}.coeff", str(exc)))
                continue
            key0 = (i - 1, j - 1, k - 1)
            if key0 in pairs:
                issues.append(
                    ManifestIssue(path, f"duplicate triple (i,j,k)=({i},{j},{k})")
                )
                continue
            pairs[key0] = scalar

    contact = document.get("contact")
    xi = eta = None
    phi = None
    if not isinstance(contact, dict):
        issues.append(ManifestIssue("contact", "expected an object with xi, eta, phi"))
    else:
        extra = set(contact) - {"xi", "eta", "phi"}
        for key in sorted(extra):
            issues.append(ManifestIssue(f"contact.{key}", "unknown field"))

        raw_xi = contact.get("xi")
        if raw_xi is None:
            issues.append(ManifestIssue("contact.xi", "missing"))
        elif isinstance(raw_xi, int) and not isinstance(raw_xi, bool):
            if 1 <= raw_xi <= dim:
                components = tuple(
                    Scalar.one(params) if idx == raw_xi - 1 else Scalar.zero(params)
                    for idx in range(dim)
                )
                xi = FrameVector(components)
            else:
                issues.append(
                    ManifestIssue("contact.xi", f"index {raw_xi} outside 1..{dim}")
                )
        else:
            xi = _parse_component_list(raw_xi, dim, parse, "contact.xi", issues)

        raw_eta = contact.get("eta")
        if raw_eta is None:
            issues.append(ManifestIssue("contact.eta", "missing"))
        else:
            eta = _parse_component_list(raw_eta, dim, parse, "contact.eta", issues)

        raw_phi = contact.get("phi")
        if raw_phi is None:
            issues.append(ManifestIssue("contact.phi", "missing"))
        elif not isinstance(raw_phi, list) or len(raw_phi) != dim:
            issues.append(
                ManifestIssue("contact.phi", f"expected a {dim}x{dim} expression matrix")
            )
        else:
            table = {}
            ok = True
            for r, raw_row in enumerate(raw_phi):
                if not isinstance(raw_row, list) or len(raw_row) != dim:
                    issues.append(
                        ManifestIssue(
                            f"contact.phi[{r}]", f"expected a row of {dim} expressions"
                        )
                    )
                    ok = False
                    continue
                for c, cell in enumerate(raw_row):
                    if not isinstance(cell, str):
                        issues.append(
                            ManifestIssue(
                                f"contact.phi[{r}][{c}]", "expected an expression string"
                            )
                        )
                        ok = False
                        continue
                    try:
                        value = parse(cell)
                    except ScalarError as exc:
                        issues.append(ManifestIssue(f"contact.phi[{r}][{c}]", str(exc)))
                        ok = False
                        continue
                    if value.terms:
                        table[r, c] = value
            if ok:
                phi = Endomorphism.from_table(dim, params, table)

    if issues:
        raise ManifestError(issues)

    manifold = FrameManifold.from_pairs(dim, params, pairs)
    structure = AlmostContactData(phi=phi, xi=xi, eta=eta)
    return manifold, structure


def read_manifest(handle: IO[str]) -> tuple[FrameManifold, AlmostContactData]:
    """Parse a JSON manifest from an open text stream, then load it.  A
    document nested deeper than the decoder's recursion limit is invalid
    JSON here, like any other undecodable one."""
    try:
        document = json.load(handle)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ManifestError([ManifestIssue("", f"invalid JSON: {exc}")]) from exc
    return load_manifest(document)


def load_manifest_file(path: str) -> tuple[FrameManifold, AlmostContactData]:
    """Read and parse a JSON manifest file, then load it."""
    try:
        with open(path, encoding="utf-8") as handle:
            return read_manifest(handle)
    except OSError as exc:
        raise ManifestError([ManifestIssue("", f"cannot read {path}: {exc}")]) from exc


def dump_manifest(m: FrameManifold, s: AlmostContactData) -> dict:
    """The canonical document for these objects (component-list xi, sorted keys).
    Each distinct Scalar object is rendered once."""
    rendered: dict[int, str] = {}
    get, zero, idx = s.phi.table.get, m.zero_scalar(), range(m.dim)

    def text(value: Scalar) -> str:
        out = rendered.get(id(value))
        if out is None:
            out = rendered[id(value)] = str(value)
        return out

    return {
        "dimension": m.dim,
        "parameters": list(m.params),
        "structure_constants": [
            {"i": i + 1, "j": j + 1, "k": k + 1, "coeff": text(coeff)}
            for i in range(m.dim)
            for j in range(i + 1, m.dim)
            for k, coeff in enumerate(m.c[i][j])
            if coeff.terms
        ],
        "contact": {
            "xi": [text(c) for c in s.xi.components],
            "eta": [text(c) for c in s.eta.components],
            "phi": [[text(get((r, c), zero)) for c in idx] for r in idx],
        },
    }


def manifest_hash(document: Any) -> str:
    """SHA-256 of the canonical compact JSON serialization."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
