"""Shared fixtures: the one-parameter family as suite instances.

The symbolic builds are the expensive ones, so they are session-scoped;
every golden-value test reads from the same instances, whose derived
tensors (h, Ricci, kappa, the gTW package, Z, ...) are built once, on
first use.
"""

from __future__ import annotations

import pytest

from contactframe import Instance, make_lambda_family


def family_instance(lam) -> Instance:
    """The family member at ``lam`` (None keeps it symbolic)."""
    entry = make_lambda_family(lam)
    return Instance(entry.manifold, entry.structure)


@pytest.fixture(scope="session")
def fam():
    """The family with the parameter kept symbolic."""
    return family_instance(None)


@pytest.fixture(scope="session")
def fam0():
    """The Sasakian member (parameter 0)."""
    return family_instance(0)


ACCEPTANCE_LINES: list[str] = []
"""Verdict lines appended by the acceptance gate, one per criterion."""


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
