"""The connection tables against dense references, and the construction
checks of both connections.

``Connection`` holds the nonzero coefficients Gamma_ij^k only.  Here every
coefficient of the Levi-Civita and the generalized Tanaka-Webster connection
is compared with the dense Koszul formula and the dense displacement A of
``vector_reference``, on every committed manifest and on H^3 to H^9, so the
coefficients are checked above dimension 3 (the sympy oracle covers the
3-dimensional family only).  The construction checks are held to a dense
row-major scan of every index triple: the tables must raise with the same
law, first index and residual.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contactframe import (
    FrameManifold,
    Instance,
    Scalar,
    gtw_connection,
    levi_civita,
    load_manifest_file,
    make_heisenberg,
    make_lambda_family,
    parse_scalar,
)
from contactframe.curvature import ConnectionConsistencyError
from vector_reference import gtw_gamma, koszul

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def _heisenberg(n: int) -> tuple:
    entry = make_heisenberg(n)
    return entry.manifold, entry.structure


def _inputs() -> list:
    """Every committed manifest and H^3 to H^9, each loaded when its test runs."""
    return [
        pytest.param(lambda p=p: load_manifest_file(str(p)), id=p.stem)
        for p in sorted(MANIFESTS.glob("*.json"))
    ] + [pytest.param(lambda n=n: _heisenberg(n), id=f"H{2 * n + 1}") for n in (1, 2, 3, 4)]


def _dense(conn, dim: int) -> list:
    """Every coefficient of ``conn``, read from its table."""
    zero = Scalar.zero(conn.params)
    idx = range(dim)
    return [[[conn.table.get((i, j, k), zero) for k in idx] for j in idx] for i in idx]


def _dense_metric_violation(gamma: list) -> str | None:
    """The first nonzero (nabla_{E_a} g)(E_b, E_d) = -(Gamma_ab^d + Gamma_ad^b)
    of a row-major scan of every index triple, as ``gtw_connection`` words it."""
    for a, b, d in product(range(len(gamma)), repeat=3):
        residual = -(gamma[a][b][d] + gamma[a][d][b])
        if not residual.is_zero():
            return f"metric parallelism violated at ({a + 1},{b + 1},{d + 1}): {residual}"
    return None


@pytest.mark.parametrize("load", _inputs())
def test_connection_tables_match_the_dense_references(load):
    """Levi-Civita against the Koszul formula, and the torsionful connection
    against Levi-Civita + A and its torsion against Gamma_ij - Gamma_ji - c_ij,
    entry by entry; no table holds a zero.  The package builds exactly when
    the dense reference is metric, and otherwise names its first violation."""
    m, s = load()
    x = Instance(m, s)
    reference = koszul(m)
    assert _dense(x.lc, m.dim) == reference
    assert all(g.terms for g in x.lc.table.values())
    displaced = gtw_gamma(m, s, reference)
    try:
        pkg = x.pkg
    except ConnectionConsistencyError as exc:
        assert str(exc) == _dense_metric_violation(displaced)
        return
    assert _dense_metric_violation(displaced) is None
    assert _dense(pkg.conn, m.dim) == displaced
    assert all(g.terms for g in pkg.conn.table.values())
    torsion = (
        ((i, j, k), displaced[i][j][k] - displaced[j][i][k] - m.c[i][j][k])
        for i, j, k in product(range(m.dim), repeat=3)
    )
    assert pkg.torsion == {index: t for index, t in torsion if t.terms}


# -- the construction checks ------------------------------------------------------


def _frame(dim: int, entries: dict) -> FrameManifold:
    """A frame whose c holds exactly ``entries``, antisymmetric or not."""
    zero = Scalar.zero(())
    c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), value in entries.items():
        c[i][j][k] = Scalar.constant((), value)
    return FrameManifold(dim, (), tuple(tuple(map(tuple, plane)) for plane in c))


def _dense_levi_civita_violation(m: FrameManifold) -> str | None:
    """The first violation of a row-major scan of every index triple of the
    dense Koszul coefficients: metric compatibility (checked where j <= k,
    its residual being symmetric in j and k), else torsion-freeness."""
    gamma, c = koszul(m), m.c
    for i, j, k in product(range(m.dim), repeat=3):
        if j <= k and not (gamma[i][j][k] + gamma[i][k][j]).is_zero():
            law = "metric compatibility"
        elif not (gamma[i][j][k] - gamma[j][i][k] - c[i][j][k]).is_zero():
            law = "torsion-freeness"
        else:
            continue
        return f"{law} violated at ({i + 1},{j + 1},{k + 1})"
    return None


def _levi_civita_error(m: FrameManifold) -> str | None:
    try:
        levi_civita(m)
    except ConnectionConsistencyError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    ("entries", "message"),
    [
        ({(0, 1, 2): 1}, "metric compatibility violated at (1,2,3)"),
        ({(0, 1, 1): 1}, "metric compatibility violated at (1,2,2)"),
        ({(0, 0, 1): 1}, "metric compatibility violated at (1,1,2)"),
        ({(0, 1, 0): 1}, "torsion-freeness violated at (1,2,1)"),
        ({(1, 0, 0): 1}, "torsion-freeness violated at (1,2,1)"),
    ],
)
def test_levi_civita_refuses_a_non_antisymmetric_bracket(entries, message):
    """c with no matching c_ji^k breaks one of the two laws the Koszul output
    must satisfy; each law is reported with its first 1-based index."""
    with pytest.raises(ConnectionConsistencyError) as exc:
        levi_civita(_frame(3, entries))
    assert str(exc.value) == message


@st.composite
def brackets(draw):
    dim = draw(st.sampled_from((3, 5)))
    triples = list(product(range(dim), repeat=3))
    chosen = draw(st.lists(st.sampled_from(triples), unique=True, min_size=1, max_size=8))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
    return _frame(dim, {t: draw(values) for t in chosen})


@settings(max_examples=60, deadline=None)
@given(brackets())
def test_levi_civita_finds_the_first_violation_of_a_dense_scan(m):
    """On arbitrary sparse c the tables raise exactly when the dense scan
    finds a violation, with the same law and the same first index."""
    assert _levi_civita_error(m) == _dense_levi_civita_violation(m)


def _perturbed_gtw_error(x: Instance, i: int, j: int, delta: Scalar) -> str | None:
    """The displaced connection's error with the table entry xh_phi[i, j]
    displaced by ``delta``; an entry that sums to zero is dropped."""
    xh_phi = dict(x.xh_phi)
    value = x.xh_phi.get((i, j), x.m.zero_scalar()) + delta
    if value.terms:
        xh_phi[i, j] = value
    else:
        del xh_phi[i, j]
    try:
        gtw_connection(x.m, x.s, x.lc, xh_phi, x.phi_h)
    except ConnectionConsistencyError as exc:
        return str(exc)
    return None


def _dense_gtw_violation(x: Instance, i: int, j: int, delta: Scalar) -> str | None:
    """The dense scan's first violation with xh_phi[i][j] displaced by
    ``delta``, which adds delta xi to nabla_{E_i} E_j."""
    m, xi = x.m, x.s.xi.components
    gamma = gtw_gamma(m, x.s, koszul(m))
    gamma[i][j] = [g + delta * xi_k for g, xi_k in zip(gamma[i][j], xi)]
    return _dense_metric_violation(gamma)


@pytest.mark.parametrize(
    ("entry", "at", "delta", "message"),
    [
        (make_heisenberg(2), (1, 3), "7", "metric parallelism violated at (2,1,4): -7"),
        (make_lambda_family(None), (0, 1), "7", "metric parallelism violated at (1,1,2): -7"),
        (make_lambda_family(None), (2, 1), "7", "metric parallelism violated at (3,1,2): -7"),
        (
            make_lambda_family(None),
            (1, 2),
            "1/2*lambda+1",
            "metric parallelism violated at (2,1,3): -1/2*lambda-1",
        ),
    ],
    ids=["H5", "lambda_12", "lambda_32", "lambda_23_symbolic"],
)
def test_gtw_connection_refuses_a_perturbed_displacement(entry, at, delta, message):
    """A perturbed g(E_i + hE_i, phi E_j) makes the displaced connection
    non-metric; the error names the first 1-based index and the residual."""
    x = Instance(entry.manifold, entry.structure)
    assert _perturbed_gtw_error(x, *at, parse_scalar(delta, x.m.params)) == message


@pytest.mark.parametrize(
    "entry", [make_heisenberg(2), make_lambda_family(None)], ids=["H5", "lambda_symbolic"]
)
def test_gtw_connection_finds_the_first_violation_of_a_dense_scan(entry):
    """Every single-entry perturbation of xh_phi: the tables report the
    violation the dense scan finds first."""
    x = Instance(entry.manifold, entry.structure)
    delta = Scalar.constant(x.m.params, Fraction(-3, 2))
    for i, j in product(range(x.m.dim), repeat=2):
        assert _perturbed_gtw_error(x, i, j, delta) == _dense_gtw_violation(x, i, j, delta)
