"""Locate the checkout the benchmark runs in and import the engine from its sources."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_engine():
    """Import contactframe from ROOT/src, never from an installed copy.

    Exits with code 2, before any measurement, when the checkout has no
    engine sources.
    """
    package = os.path.join(SRC, "contactframe", "__init__.py")
    if not os.path.isfile(package):
        sys.stderr.write(f"perfbench: no engine sources at {package}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import contactframe

    if os.path.dirname(os.path.abspath(contactframe.__file__)) != os.path.dirname(package):
        sys.stderr.write(
            f"perfbench: contactframe resolved to {contactframe.__file__}, not {package}\n"
        )
        raise SystemExit(2)
    return contactframe
