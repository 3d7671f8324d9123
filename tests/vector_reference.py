"""Vector-level reference operators: the bracket, the trilinear extension of
a curvature-type tensor and the tensor actions on arbitrary constant vectors,
through the structure constants and the tensor's components.  The tests hold
the engine's component contractions to them on every basis tuple."""

from __future__ import annotations

from contactframe import (
    BilinearForm,
    Curvature4Tensor,
    Endomorphism,
    FrameManifold,
    FrameVector,
    Scalar,
)


def bracket(m: FrameManifold, x: FrameVector, y: FrameVector) -> FrameVector:
    """[X, Y]: the bilinear antisymmetric extension of the structure constants."""
    weighted = [
        (xi * yj, m.c[i][j])
        for i, xi in enumerate(x.components)
        if xi.terms
        for j, yj in enumerate(y.components)
        if yj.terms
    ]
    return FrameVector(
        tuple(
            Scalar.sum_of_products(m.params, ((w, cij[k]) for w, cij in weighted))
            for k in range(m.dim)
        )
    )


def apply(t: Curvature4Tensor, x: FrameVector, y: FrameVector, z: FrameVector) -> FrameVector:
    """T(X, Y)Z: the trilinear extension of t's components to constant vectors."""
    weighted = [
        (xi * yj * zk, t.components[i][j][k])
        for i, xi in enumerate(x.components)
        if xi.terms
        for j, yj in enumerate(y.components)
        if yj.terms
        for k, zk in enumerate(z.components)
        if zk.terms
    ]
    return FrameVector(
        tuple(
            Scalar.sum_of_products(x.params, ((w, row[l]) for w, row in weighted))
            for l in range(t.dim)
        )
    )


def endomorphism(columns: list[FrameVector]) -> Endomorphism:
    """The endomorphism whose column j is ``columns[j]``."""
    return Endomorphism(tuple(zip(*(v.components for v in columns))))


def tensor_dot_tensor(m, t1, t2, x1, x2, x3, x4, x5) -> FrameVector:
    """(T1(X1,X2).T2)(X3,X4)X5 with the leading term minus three insertions."""
    # T1(X1, X2) as an endomorphism: column k is T1(X1, X2)E_k
    a = endomorphism([apply(t1, x1, x2, m.basis(k)) for k in range(m.dim)])
    return (
        a.apply(apply(t2, x3, x4, x5))
        - apply(t2, a.apply(x3), x4, x5)
        - apply(t2, x3, a.apply(x4), x5)
        - apply(t2, x3, x4, a.apply(x5))
    )


def tensor_dot_form(m, t1, omega: BilinearForm, x1, x2, x3, x4) -> Scalar:
    """(T1(X1,X2).w)(X3,X4) with both insertions positive, as quoted."""
    return omega.apply(apply(t1, x1, x2, x3), x4) + omega.apply(x3, apply(t1, x1, x2, x4))
