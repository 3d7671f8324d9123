"""Span recording around the engine's public layer calls.

The benchmark does not change the engine to trace it.  During a traced
request it swaps the names that ``run_suite`` calls (and the one call
``verify_gtw_suite`` makes to ``gssf_decompose``) for wrappers that record
a span and then call the original.  Only calls the pipeline really makes on
an input produce spans, so layers behind a closed gate read 0.

A span is (id, name, start, end, parent, request); spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass

import contactframe.suite as suite_mod
import contactframe.tanaka_webster as gtw_mod
from contactframe import FrameManifold


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    count: int | None = None  # nonzero entries of the layer's tensor, when it has one

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _nonzero_entries(tensor) -> int:
    return sum(
        not entry.is_zero()
        for plane in tensor.components
        for row in plane
        for vec in row
        for entry in vec
    )


# (module or class, attribute, span name, count of the result, record only under)
# "record only under" limits method wrappers to the calls run_suite makes itself;
# classify, for one, calls lie_derive_endo again inside its own span.
LAYERS = (
    (FrameManifold, "validate_frame", "frames.validate", None, "suite.run"),
    (FrameManifold, "lie_derive_endo", "contact.h", None, "suite.run"),
    (suite_mod, "validate_acm", "contact.acm", None, None),
    (suite_mod, "h_property_checks", "contact.h", None, None),
    (suite_mod, "levi_civita", "curvature.levi_civita", None, None),
    (suite_mod, "riemann", "curvature.riemann", _nonzero_entries, None),
    (suite_mod, "detect_kappa", "contact.kappa", None, None),
    (suite_mod, "classify", "contact.classify", None, None),
    (suite_mod, "verify_nkappa_suite", "curvature.nkappa_suite", None, None),
    (suite_mod, "build_gtw_package", "tanaka_webster.package",
     lambda pkg: _nonzero_entries(pkg.curv), None),
    (suite_mod, "verify_gtw_suite", "tanaka_webster.suite", None, None),
    (gtw_mod, "gssf_decompose", "tanaka_webster.gssf", None, None),
    (suite_mod, "concircular", "concircular.tensor", None, None),
    (suite_mod, "verify_concircular_suite", "concircular.suite", None, None),
)


class Tracer:
    """Records spans for one run; ``request`` opens a request's root span."""

    def __init__(self, harvest=None) -> None:
        # harvest(span name, result) lets the caller keep operands from a layer's output
        self._harvest = harvest
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._request = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self._request)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def request(self, request_id: int):
        self._request = request_id
        with self.span("request") as sp:
            yield sp

    def _wrap(self, fn, name, counter, only_under):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_under is not None and (
                not self._stack or self._stack[-1].name != only_under
            ):
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if counter is not None:
                    sp.count = counter(result)
            if self._harvest is not None:
                self._harvest(name, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def layers_patched(self):
        """Swap every layer entry point for a recording wrapper; always restore."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in LAYERS]
        try:
            for owner, attr, name, counter, only_under in LAYERS:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, counter, only_under))
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def request_layers(self, request_id: int) -> dict[str, float]:
        """Seconds per span name in one request, plus suite.self (run minus its children)."""
        spans = [sp for sp in self.spans if sp.request == request_id]
        totals: dict[str, float] = {}
        for sp in spans:
            totals[sp.name] = totals.get(sp.name, 0.0) + sp.seconds
        runs = {sp.id for sp in spans if sp.name == "suite.run"}
        children = sum(sp.seconds for sp in spans if sp.parent in runs)
        totals["suite.self"] = totals.get("suite.run", 0.0) - children
        return totals

    def request_counts(self, request_id: int) -> dict[str, int]:
        counts: dict[str, int] = {}
        for sp in self.spans:
            if sp.request == request_id and sp.count is not None:
                counts[sp.name] = counts.get(sp.name, 0) + sp.count
        return counts

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sp in self.spans:
                handle.write(json.dumps(asdict(sp), sort_keys=True) + "\n")
