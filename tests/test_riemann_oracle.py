"""The fused Riemann kernel against the definitional formula.

``riemann`` computes each component as one sum of products,

    R_ijk^l = sum_m Gamma_jk^m Gamma_im^l - Gamma_ik^m Gamma_jm^l - c_ij^m Gamma_mk^l .

The reference below applies R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_{[X,Y]} Z literally, one covariant derivative at a time, with plain
Scalar ``+`` and ``*``.  Both must agree exactly on Hypothesis-generated
antisymmetric structure constants in dimensions 3 and 5, with rational
constants and with constants linear in one parameter.  Jacobi is not
needed: both sides are defined for any antisymmetric c.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from contactframe import FrameManifold, levi_civita, riemann
from contactframe.scalars import Scalar


def definitional_riemann(m: FrameManifold, conn) -> list:
    """R[i][j][k][l] by nabla_i nabla_j E_k - nabla_j nabla_i E_k - nabla_[E_i,E_j] E_k."""
    dim = m.dim
    zero = Scalar.zero(m.params)

    def nabla(i: int, x: list) -> list:
        out = [zero] * dim
        for j in range(dim):
            for k in range(dim):
                out[k] = out[k] + x[j] * conn.gamma[i][j][k]
        return out

    comps = []
    for i in range(dim):
        plane_i = []
        for j in range(dim):
            plane_j = []
            for k in range(dim):
                first = nabla(i, list(conn.gamma[j][k]))
                second = nabla(j, list(conn.gamma[i][k]))
                vec = [a - b for a, b in zip(first, second)]
                for mm in range(dim):
                    coeff = m.c[i][j][mm]
                    vec = [v - coeff * g for v, g in zip(vec, conn.gamma[mm][k])]
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


@settings(max_examples=40, deadline=None)
@given(frames())
def test_fused_riemann_matches_definitional_formula(m):
    conn = levi_civita(m)
    fused = riemann(m, conn)
    reference = definitional_riemann(m, conn)
    idx = range(m.dim)
    for i in idx:
        for j in idx:
            for k in idx:
                assert list(fused.components[i][j][k]) == reference[i][j][k], (i, j, k)


def test_fused_riemann_matches_on_the_torsionful_connection(fam):
    """The kernel is connection-agnostic: the gTW curvature agrees too."""
    conn = fam.pkg.conn
    reference = definitional_riemann(fam.m, conn)
    idx = range(fam.m.dim)
    for i in idx:
        for j in idx:
            for k in idx:
                assert list(fam.pkg.curv.components[i][j][k]) == reference[i][j][k]
