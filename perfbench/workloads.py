"""Seeded manifest generators and per-instance expectations for the benchmark.

Every document is a plain manifest dictionary (the format read by
``contactframe.load_manifest``).  The engine under test only ever sees the
JSON text of these documents; the generators live here so that the
benchmark does not depend on zoo constructors the engine may not have.

Workloads, and why each was chosen:

``heisenberg_verify``
    The full catalogue on the Heisenberg group H^5 (dimension 5, rational
    constants, Sasakian with kappa = 1).  The gtw-suite scans over
    zero-dominated tensors dominate, so sparse apply, a shared witness
    scanner and per-instance caching show up here while polynomial
    arithmetic stays trivial.  H^7 takes about 20 s per report, which is too
    slow for repeated runs.
``lambda_symbolic_verify``
    The same catalogue on the symbolic lambda family (dimension 3,
    coefficients polynomial in lambda, kappa = 1 - lambda^2, nonzero gTW
    curvature).  Scan pruning gains little here; a rational-only Scalar fast
    path must not slow it down.
``random_frame_triage``
    Seeded dense random structure constants in dimensions 5 and 7, half
    rational and half linear in a parameter t, all carrying the Heisenberg
    (phi, xi, eta).  Jacobi fails, so only the structural layer is graded
    and every derived section is gated.  The work is dense Levi-Civita and
    Riemann arithmetic on many-term Scalars; tanaka_webster does none of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("heisenberg_verify", "lambda_symbolic_verify", "random_frame_triage")

# Random frames per round as (dimension, kind, count).  Half are rational,
# half linear in t.  Two of each dimension-5 kind make the round's middle
# requests two dimension-5 linear frames of like cost, so a run's median
# does not straddle the 2x gap between the dimension-5 and -7 frames.
RANDOM_MIX = ((5, "rational", 2), (5, "linear_t", 2), (7, "rational", 1), (7, "linear_t", 1))


@dataclass(frozen=True)
class Instance:
    """One benchmark input: its manifest document and what its report must say."""

    label: str
    document: dict
    # expected acm.classification witness (kappa rendered as in the report)
    classification: dict
    # True when every nkappa/gtw/conc entry must be not_applicable
    derived_gated: bool


def _zero_matrix(dim: int) -> list[list[str]]:
    return [["0"] * dim for _ in range(dim)]


def _heisenberg_contact(n: int) -> dict:
    """The standard contact structure on the frame xi, X_1..X_n, Y_1..Y_n.

    Frame order: E1 = xi, E(1+a) = X_a, E(1+n+a) = Y_a for a = 1..n.
    phi X_a = Y_a, phi Y_a = -X_a, phi xi = 0, and eta is the metric dual
    of xi.  Columns of phi are images (see the manifest format).
    """
    dim = 2 * n + 1
    phi = _zero_matrix(dim)
    for a in range(1, n + 1):
        x, y = a, n + a  # 0-based columns of X_a and Y_a
        phi[y][x] = "1"  # phi X_a = Y_a
        phi[x][y] = "-1"  # phi Y_a = -X_a
    eta = ["1"] + ["0"] * (dim - 1)
    return {"xi": 1, "eta": eta, "phi": phi}


def heisenberg_document(n: int) -> dict:
    """H^(2n+1): [X_a, Y_a] = 2 xi, all other brackets zero."""
    constants = [
        {"i": 1 + a, "j": 1 + n + a, "k": 1, "coeff": "2"} for a in range(1, n + 1)
    ]
    return {
        "dimension": 2 * n + 1,
        "parameters": [],
        "structure_constants": constants,
        "contact": _heisenberg_contact(n),
    }


_COEFFS = (-3, -2, -1, 1, 2, 3)


def _random_coeff(rng: random.Random, kind: str) -> str:
    # Small integers only: a denominator mix would make a frame's cost swing
    # with the seed, and the seed must not move the workload's figures.
    a = rng.choice(_COEFFS)
    if kind == "rational":
        return str(a)
    return f"{a}+{rng.choice(_COEFFS)}*t"


def random_frame_document(rng: random.Random, dim: int, kind: str) -> dict:
    """Dense structure constants: every (i < j, k) triple gets a nonzero coefficient."""
    constants = [
        {"i": i, "j": j, "k": k, "coeff": _random_coeff(rng, kind)}
        for i in range(1, dim + 1)
        for j in range(i + 1, dim + 1)
        for k in range(1, dim + 1)
    ]
    return {
        "dimension": dim,
        "parameters": ["t"] if kind == "linear_t" else [],
        "structure_constants": constants,
        "contact": _heisenberg_contact((dim - 1) // 2),
    }


def lambda_symbolic_document() -> dict:
    """The engine's symbolic lambda family, through its public constructor."""
    from contactframe import dump_manifest, make_lambda_family

    entry = make_lambda_family()
    return dump_manifest(entry.manifold, entry.structure)


_SASAKIAN_K1 = {
    "is_contact_metric": "true",
    "is_K_contact": "true",
    "is_Sasakian": "true",
    "kappa": "1",
}

_NOT_CONTACT = {
    "is_contact_metric": "false",
    "is_K_contact": "false",
    "is_Sasakian": "false",
    "kappa": "none",
}

_LAMBDA_SYMBOLIC = {
    "is_contact_metric": "true",
    "is_K_contact": "false",
    "is_Sasakian": "false",
    "kappa": "-1*lambda^2+1",
}


def make_instances(workload: str, seed: int) -> list[Instance]:
    """The workload's inputs; the same seed always gives the same documents."""
    if workload == "heisenberg_verify":
        return [Instance("H5", heisenberg_document(2), _SASAKIAN_K1, False)]
    if workload == "lambda_symbolic_verify":
        return [
            Instance("lambda_symbolic", lambda_symbolic_document(), _LAMBDA_SYMBOLIC, False)
        ]
    if workload == "random_frame_triage":
        rng = random.Random(seed)
        return [
            Instance(f"random_d{dim}_{kind}_{idx}", random_frame_document(rng, dim, kind),
                     _NOT_CONTACT, True)
            for dim, kind, count in RANDOM_MIX
            for idx in range(count)
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
