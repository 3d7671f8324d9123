"""The fused Riemann kernel against the definitional formula.

``riemann`` computes each independent component (i < j, k < l) as one sum
of products,

    R_ijk^l = sum_m Gamma_jk^m Gamma_im^l - Gamma_ik^m Gamma_jm^l - c_ij^m Gamma_mk^l ,

and reads the others by antisymmetry in each pair.  The reference below
applies R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z
literally to every component, one covariant derivative at a time, with
plain Scalar ``+`` and ``*``.  Both must agree exactly on
Hypothesis-generated antisymmetric structure constants in dimensions 3 and
5, with rational constants and with constants linear in one parameter, on
a seeded dense dimension-7 frame, and on the torsionful connection in
dimensions 3, 5 and 7.  Jacobi is not needed: both sides are defined for any
antisymmetric c.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import contactframe
from contactframe import FrameManifold, Instance, levi_civita, load_manifest_file, riemann
from contactframe.scalars import Scalar

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = ROOT / "manifests"
_AB_SPEC = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
AB = importlib.util.module_from_spec(_AB_SPEC)
_AB_SPEC.loader.exec_module(AB)


def definitional_riemann(m: FrameManifold, conn) -> list:
    """R[i][j][k][l] by nabla_i nabla_j E_k - nabla_j nabla_i E_k - nabla_[E_i,E_j] E_k."""
    dim = m.dim
    zero = Scalar.zero(m.params)
    # gamma[i][j][k] = Gamma_ij^k, every coefficient
    gamma = [[conn.derivative_basis(i, j).components for j in range(dim)] for i in range(dim)]

    def nabla(i: int, x: list) -> list:
        out = [zero] * dim
        for j in range(dim):
            for k in range(dim):
                out[k] = out[k] + x[j] * gamma[i][j][k]
        return out

    comps = []
    for i in range(dim):
        plane_i = []
        for j in range(dim):
            plane_j = []
            for k in range(dim):
                first = nabla(i, list(gamma[j][k]))
                second = nabla(j, list(gamma[i][k]))
                vec = [a - b for a, b in zip(first, second)]
                for mm in range(dim):
                    coeff = m.c[i][j][mm]
                    vec = [v - coeff * g for v, g in zip(vec, gamma[mm][k])]
                plane_j.append(vec)
            plane_i.append(plane_j)
        comps.append(plane_i)
    return comps


small = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3)


@st.composite
def frames(draw):
    dim = draw(st.sampled_from((3, 5)))
    params = draw(st.sampled_from(((), ("t",))))
    triples = [(i, j, k) for i in range(dim) for j in range(i + 1, dim) for k in range(dim)]
    # dense in dimension 3; up to 14 of the 50 triples in dimension 5
    chosen = draw(st.lists(st.sampled_from(triples), unique=True, max_size=14))
    pairs = {}
    for triple in chosen:
        coeff = Scalar.constant(params, draw(small))
        if params:
            coeff = coeff + Scalar.variable(params, "t").scale(draw(small))
        pairs[triple] = coeff
    return FrameManifold.from_pairs(dim, params, pairs)


def dense_frame(dim: int, seed: int) -> FrameManifold:
    """Every structure constant c_ij^k (i < j) a nonzero rational drawn from ``seed``."""
    rng, nonzero = random.Random(seed), (-3, -2, -1, 1, 2, 3)
    pairs = {
        (i, j, k): Scalar.constant((), Fraction(rng.choice(nonzero), rng.randint(1, 3)))
        for i in range(dim)
        for j in range(i + 1, dim)
        for k in range(dim)
    }
    return FrameManifold.from_pairs(dim, (), pairs)


def assert_matches_definition(m: FrameManifold, conn, fused) -> None:
    reference = definitional_riemann(m, conn)
    idx = range(m.dim)
    for i in idx:
        for j in idx:
            for k in idx:
                assert list(fused.components[i][j][k]) == reference[i][j][k], (i, j, k)


def _gtw(name: str) -> tuple:
    """The torsionful connection and curvature of a committed manifest."""
    m, s = load_manifest_file(str(MANIFESTS / name))
    pkg = Instance(m, s).pkg
    return m, pkg.conn, pkg.curv


def _lc(m: FrameManifold) -> tuple:
    lc = levi_civita(m)
    return m, lc, riemann(m, lc)


@settings(max_examples=40, deadline=None)
@given(frames())
def test_fused_riemann_matches_definitional_formula(m):
    assert_matches_definition(*_lc(m))


def test_fused_riemann_matches_on_the_torsionful_connection(fam):
    """The kernel is connection-agnostic: the gTW curvature agrees too."""
    assert_matches_definition(fam.m, fam.pkg.conn, fam.pkg.curv)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: _gtw("heisenberg5.json"), id="gtw-heisenberg5"),
        pytest.param(lambda: _gtw("t1e4.json"), id="gtw-t1e4"),
        pytest.param(
            lambda: _lc(load_manifest_file(str(MANIFESTS / "random5_t.json"))[0]),
            id="lc-random5_t",
        ),
        pytest.param(lambda: _lc(dense_frame(7, 7)), id="lc-dense7"),
    ],
)
def test_fused_riemann_matches_past_dimension_three(case):
    """Every component, on both connections, in dimensions 5 and 7."""
    assert_matches_definition(*case())


@pytest.mark.parametrize(("dim", "sums"), [(3, 9), (5, 100), (7, 441)])
def test_riemann_sums_once_per_independent_component(dim, sums):
    """One sum of products per pair i < j and pair k < l, (dim (dim - 1) / 2)^2
    in all, on a dense frame (summing every component would take dim^4); the
    sums are counted by ``scripts/ab.py``'s ``counting``."""
    m = dense_frame(dim, dim)
    lc = levi_civita(m)
    with AB.counting(contactframe) as counts:
        riemann(m, lc)
    assert counts["sum_of_products"] == sums
