"""Orthonormal frames with constant structure constants.

A homogeneous manifold is presented here by an orthonormal frame
``E_1, ..., E_dim`` whose Lie brackets have constant (parameter-polynomial)
coefficients:

    [E_i, E_j] = sum_k c[i][j][k] * E_k .

Everything downstream (connections, curvature, the verification suites)
quantifies over frame basis vectors, which suffices because every checked
identity is pointwise multilinear.  Vector fields are therefore restricted
to constant frame coefficients, and the metric is the identity on the frame.
Brackets are read by frame index (``bracket_basis``, ``sparse_c``); the
bilinear bracket of arbitrary vectors lives in the tests, as a reference.
The structure is read the same way: g(E_i, E_j) is delta_ij
(``inner_basis``), a 1-form's value on E_i is its component i, and the image
A E_j of an endomorphism is column j of its matrix (``Endomorphism.columns``,
built once per endomorphism).  ``compose`` and ``commutator`` pair the
nonzero entries of both operands and run one sum of products per entry some
pair names (``tables.sum_table``); covariant and Lie derivatives of an
endomorphism are such commutators.

Indices are 0-based throughout the code; reports and manifests use 1-based
indices at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .report import VerificationReport, first_witness
from .scalars import RationalLike, Scalar
from .tables import sum_table


class FrameError(Exception):
    """Raised on malformed frame data (shape problems, bad dimensions)."""


@dataclass(frozen=True)
class FrameVector:
    """A constant-coefficient vector field over the frame."""

    components: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise FrameError("a frame vector needs at least one component")

    @property
    def params(self) -> tuple[str, ...]:
        return self.components[0].params

    def __add__(self, other: "FrameVector") -> "FrameVector":
        return FrameVector(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "FrameVector") -> "FrameVector":
        return FrameVector(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "FrameVector":
        return FrameVector(tuple(-a for a in self.components))

    def scale(self, factor: Scalar | RationalLike) -> "FrameVector":
        if isinstance(factor, Scalar):
            return FrameVector(tuple(factor * a for a in self.components))
        return FrameVector(tuple(a.scale(factor) for a in self.components))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.components)

    def __str__(self) -> str:
        return render_vector(self.components)


def render_vector(components: Sequence[Scalar]) -> str:
    """Render frame-vector components as e.g. ``-2/3*E2`` or ``(lambda+1)*E3``."""
    pieces: list[str] = []
    for idx, coeff in enumerate(components):
        if coeff.is_zero():
            continue
        text = str(coeff)
        label = f"E{idx + 1}"
        if text == "1":
            piece = label
        elif text == "-1":
            piece = "-" + label
        elif len(coeff.terms) > 1:
            piece = f"({text})*{label}"
        else:
            piece = f"{text}*{label}"
        pieces.append(piece)
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        out += piece if piece.startswith("-") else "+" + piece
    return out


@dataclass(frozen=True)
class Endomorphism:
    """A (1,1)-tensor as a frame matrix; column j holds the image of E_j."""

    matrix: tuple[tuple[Scalar, ...], ...]  # matrix[i][j] = component i of A(E_j)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def params(self) -> tuple[str, ...]:
        return self.matrix[0][0].params

    @staticmethod
    def from_products(dim: int, params: tuple[str, ...], products: Iterable) -> "Endomorphism":
        """The endomorphism whose entry (p, j) is the sum of a * b over the
        products ((p, j), a, b); one sum of products per entry named."""
        sums, zero, idx = sum_table(params, products), Scalar.zero(params), range(dim)
        return Endomorphism(tuple(tuple(sums.get((p, j), zero) for j in idx) for p in idx))

    def apply(self, x: FrameVector) -> FrameVector:
        live = [(j, xj) for j, xj in enumerate(x.components) if xj.terms]
        return FrameVector(
            tuple(
                Scalar.sum_of_products(x.params, ((row[j], xj) for j, xj in live))
                for row in self.matrix
            )
        )

    @cached_property
    def columns(self) -> tuple[FrameVector, ...]:
        """A(E_j) for every frame index, built once."""
        return tuple(FrameVector(col) for col in zip(*self.matrix))

    def column(self, j: int) -> FrameVector:
        return self.columns[j]

    @cached_property
    def sparse_columns(self) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
        """The nonzero entries of each column: ``sparse_columns[j]`` holds the
        pairs (i, component i of A(E_j)) whose component is nonzero."""
        return tuple(
            tuple((i, row[j]) for i, row in enumerate(self.matrix) if row[j].terms)
            for j in range(self.dim)
        )

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """Matrix product self @ other, i.e. X -> self(other(X)), over the
        nonzero entries of both."""
        products = _matrix_products(self.sparse_columns, other.sparse_columns)
        return Endomorphism.from_products(self.dim, self.params, products)

    def commutator(self, other: "Endomorphism") -> "Endomorphism":
        """[A, B] = A B - B A for A = self, B = other, as A B + B (-A) over the
        nonzero entries of both."""
        a, b = self.sparse_columns, other.sparse_columns
        minus_a = [[(p, -c) for p, c in col] for col in a]
        products = chain(_matrix_products(a, b), _matrix_products(b, minus_a))
        return Endomorphism.from_products(self.dim, self.params, products)

    @cached_property
    def square(self) -> "Endomorphism":
        """self @ self, built once."""
        return self.compose(self)

    def __add__(self, other: "Endomorphism") -> "Endomorphism":
        return Endomorphism(
            tuple(
                tuple(a + b for a, b in zip(row_a, row_b))
                for row_a, row_b in zip(self.matrix, other.matrix)
            )
        )

    def __sub__(self, other: "Endomorphism") -> "Endomorphism":
        return Endomorphism(
            tuple(
                tuple(a - b for a, b in zip(row_a, row_b))
                for row_a, row_b in zip(self.matrix, other.matrix)
            )
        )

    def scale(self, factor: Scalar | RationalLike) -> "Endomorphism":
        if isinstance(factor, Scalar):
            return Endomorphism(tuple(tuple(factor * a for a in row) for row in self.matrix))
        return Endomorphism(tuple(tuple(a.scale(factor) for a in row) for row in self.matrix))

    def trace(self) -> Scalar:
        return sum((self.matrix[i][i] for i in range(self.dim)), Scalar.zero(self.params))

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.matrix for a in row)


def _matrix_products(a_cols, b_cols) -> Iterator[tuple[tuple[int, int], Scalar, Scalar]]:
    """The products ((p, j), A^p_q, B^q_j) of the matrix product A B, from the
    nonzero entries (row, value) of each column of A and of B."""
    return (((p, j), a, b) for j, col in enumerate(b_cols) for q, b in col for p, a in a_cols[q])


@dataclass(frozen=True)
class FrameManifold:
    """Odd-dimensional manifold presented by frame structure constants."""

    dim: int
    params: tuple[str, ...]
    c: tuple[tuple[tuple[Scalar, ...], ...], ...]  # c[i][j][k]

    def __post_init__(self) -> None:
        if self.dim < 1 or self.dim % 2 == 0:
            raise FrameError(f"dimension must be odd and positive, got {self.dim}")
        if len(self.c) != self.dim or any(
            len(plane) != self.dim or any(len(row) != self.dim for row in plane)
            for plane in self.c
        ):
            raise FrameError("structure-constant array must be dim x dim x dim")

    @property
    def n(self) -> int:
        """The n of dim = 2n + 1."""
        return (self.dim - 1) // 2

    @staticmethod
    def from_pairs(
        dim: int,
        params: tuple[str, ...],
        pairs: Mapping[tuple[int, int, int], Scalar],
    ) -> "FrameManifold":
        """Build from sparse (i, j, k) -> coefficient with i < j (0-based);
        the i > j half is filled in by antisymmetry, with one negation per
        distinct coefficient object."""
        zero = Scalar.zero(params)
        table = [[[zero for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        negated: dict[int, Scalar] = {}
        for (i, j, k), coeff in pairs.items():
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise FrameError(f"structure index ({i},{j},{k}) out of range for i<j<dim")
            zero._check_params(coeff)
            if coeff.terms:
                minus = negated.get(id(coeff))
                if minus is None:
                    minus = negated[id(coeff)] = -coeff
                table[i][j][k], table[j][i][k] = coeff, minus
        frozen = tuple(tuple(tuple(row) for row in plane) for plane in table)
        return FrameManifold(dim=dim, params=params, c=frozen)

    # -- primitives -----------------------------------------------------------

    def zero_scalar(self) -> Scalar:
        return Scalar.zero(self.params)

    def one_scalar(self) -> Scalar:
        """The manifold's one shared 1, built on first use."""
        return self._one

    @cached_property
    def _one(self) -> Scalar:
        return Scalar.one(self.params)

    def constant(self, value: RationalLike) -> Scalar:
        return Scalar.constant(self.params, value)

    def basis(self, i: int) -> FrameVector:
        return FrameVector(
            tuple(
                self.one_scalar() if k == i else self.zero_scalar()
                for k in range(self.dim)
            )
        )

    def bracket_basis(self, i: int, j: int) -> FrameVector:
        return FrameVector(tuple(self.c[i][j][k] for k in range(self.dim)))

    @cached_property
    def sparse_c(self) -> tuple[tuple[tuple[tuple[int, Scalar], ...], ...], ...]:
        """The nonzero entries of each [E_i, E_j]: ``sparse_c[i][j]`` holds the
        pairs (k, c[i][j][k]) whose coefficient is nonzero."""
        return tuple(
            tuple(tuple((k, v) for k, v in enumerate(c_ij) if v.terms) for c_ij in plane)
            for plane in self.c
        )

    def jacobiator(self, i: int, j: int, k: int, l: int) -> Scalar:
        """Component l of [[E_i,E_j],E_k] + [[E_j,E_k],E_i] + [[E_k,E_i],E_j],
        one sum of products:

            sum_q c_ij^q c_qk^l + c_jk^q c_qi^l + c_ki^q c_qj^l .
        """
        c, live = self.c, self.sparse_c
        return Scalar.sum_of_products(
            self.params,
            chain(
                ((v, c[q][k][l]) for q, v in live[i][j]),
                ((v, c[q][i][l]) for q, v in live[j][k]),
                ((v, c[q][j][l]) for q, v in live[k][i]),
            ),
        )

    def inner(self, x: FrameVector, y: FrameVector) -> Scalar:
        """The orthonormal-frame metric: g(X, Y) = sum_i x_i y_i."""
        return Scalar.sum_of_products(self.params, zip(x.components, y.components))

    def inner_basis(self, i: int, j: int) -> Scalar:
        """g(E_i, E_j) = delta_ij on the orthonormal frame."""
        return self.one_scalar() if i == j else self.zero_scalar()

    def lie_derive_endo(self, xi: FrameVector, a: Endomorphism) -> Endomorphism:
        """L_xi A = [D, A] with D = ad_xi, X -> [xi, X]:

            (L_xi A)^p_j = sum_q D^p_q A^q_j - A^p_q D^q_j ,   D^p_q = sum_r xi^r c_rq^p ,

        D built from the nonzero entries of xi and of the brackets.
        """
        live = [(xr, self.sparse_c[r]) for r, xr in enumerate(xi.components) if xr.terms]
        products = (((p, q), x, c) for x, c_r in live for q, col in enumerate(c_r) for p, c in col)
        return Endomorphism.from_products(self.dim, self.params, products).commutator(a)

    # -- well-posedness --------------------------------------------------------

    def validate_frame(self) -> VerificationReport:
        """Check antisymmetry of the structure constants and the Jacobi identity.

        The antisymmetry residual is symmetric in (i, j), so scanning i <= j
        finds the same first witness as the full row-major scan."""
        report = VerificationReport()
        idx = range(self.dim)
        c = self.c

        report.graded(
            "frame.bracket_antisymmetry",
            first_witness(
                ((i, j, k) for i in idx for j in range(i, self.dim) for k in idx),
                lambda i, j, k: c[i][j][k] + c[j][i][k],
            ),
        )

        report.graded(
            "frame.jacobi_identity",
            first_witness(
                ((i, j, k, l) for i, j, k in combinations(idx, 3) for l in idx),
                self.jacobiator,
            ),
        )

        return report

