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
The structure is read the same way: g(E_i, E_j) is delta_ij, and a 1-form's
value on E_i is its component i.  An endomorphism (``Endomorphism``) is held
as the table of its nonzero entries keyed (p, j), like a connection's
coefficients: A^p_j is component p of A E_j.  ``compose`` pairs the
nonzero entries of both operands and runs one sum of products per entry
some pair names (``tables.sum_table``), with no dense intermediate; the
Lie derivative pairs each nonzero structure constant with the nonzero
entries of the operand directly, as a covariant derivative pairs each
connection coefficient with them (``curvature.Connection.derivative_table``).
Sums and differences (``+``, ``-``) name only the entries either operand
names.  Every reader takes the table's entries, or its nonzero rows and
columns (``sparse_rows``, ``sparse_columns``); even the vectors A E_j are
read as columns of nonzero entries.  The one dense view, ``matrix``, is built on first read for a
caller outside the engine; the engine reads none.

The Jacobi scan of ``validate_frame`` reads only the triples one of whose
cyclic terms composes two live brackets; every other triple's components are
sums of products with a zero factor.

Indices are 0-based throughout the code; reports and manifests use 1-based
indices at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .report import VerificationReport, first_witness
from .scalars import RationalLike, Scalar
from .tables import Table, sum_table


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


@dataclass(frozen=True, init=False)
class Endomorphism:
    """A (1,1)-tensor on the frame, held as the table of its nonzero entries
    keyed (p, j): A^p_j, component p of A(E_j).  Every entry the table does
    not name is zero.  ``Endomorphism(matrix)`` keeps the nonzero entries of a
    dense matrix, matrix[p][j] = A^p_j; ``from_table`` takes a table of
    nonzero entries as it is."""

    dim: int
    params: tuple[str, ...]
    table: Table

    def __init__(self, matrix: Sequence[Sequence[Scalar]]) -> None:
        table = {(p, j): a for p, row in enumerate(matrix) for j, a in enumerate(row) if a.terms}
        vars(self).update(dim=len(matrix), params=matrix[0][0].params, table=table)

    def __hash__(self) -> int:
        return hash((self.dim, self.params, frozenset(self.table.items())))

    @staticmethod
    def from_table(dim: int, params: tuple[str, ...], table: Table) -> "Endomorphism":
        """The endomorphism whose nonzero entries are those of ``table``."""
        a = object.__new__(Endomorphism)
        vars(a).update(dim=dim, params=params, table=table)
        return a

    @staticmethod
    def from_products(dim: int, params: tuple[str, ...], products: Iterable) -> "Endomorphism":
        """The endomorphism whose entry (p, j) is the sum of a * b over the
        products ((p, j), a, b); one sum of products per entry named."""
        return Endomorphism.from_table(dim, params, sum_table(params, products))

    @cached_property
    def sparse_columns(self) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
        """The nonzero entries of each column: ``sparse_columns[j]`` holds the
        pairs (p, A^p_j), in p order."""
        cols: list[list[tuple[int, Scalar]]] = [[] for _ in range(self.dim)]
        for (p, j), a in sorted(self.table.items(), key=itemgetter(0)):
            cols[j].append((p, a))
        return tuple(map(tuple, cols))

    @cached_property
    def sparse_rows(self) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
        """The nonzero entries of each row: ``sparse_rows[p]`` holds the pairs
        (j, A^p_j), in j order."""
        rows: list[list[tuple[int, Scalar]]] = [[] for _ in range(self.dim)]
        for (p, j), a in sorted(self.table.items(), key=itemgetter(0)):
            rows[p].append((j, a))
        return tuple(map(tuple, rows))

    @cached_property
    def matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        """The one dense view matrix[p][j] = A^p_j, built on first read; no
        reader in the engine takes it."""
        rows = [[Scalar.zero(self.params)] * self.dim for _ in range(self.dim)]
        for (p, j), a in self.table.items():
            rows[p][j] = a
        return tuple(map(tuple, rows))

    def apply(self, x: FrameVector) -> FrameVector:
        """A X, one sum of products per component over the nonzero A^p_j x^j."""
        xs, zero = x.components, Scalar.zero(self.params)
        sums = sum_table(
            self.params, ((p, a, xs[j]) for (p, j), a in self.table.items() if xs[j].terms)
        )
        return FrameVector(tuple(sums.get(p, zero) for p in range(self.dim)))

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """Matrix product self @ other, i.e. X -> self(other(X)), over the
        nonzero entries of both."""
        products = _matrix_products(self.sparse_columns, other.table)
        return Endomorphism.from_products(self.dim, self.params, products)

    @cached_property
    def square(self) -> "Endomorphism":
        """self @ self, built once."""
        return self.compose(self)

    def __add__(self, other: "Endomorphism") -> "Endomorphism":
        return self._combine(other, Scalar.__add__)

    def __sub__(self, other: "Endomorphism") -> "Endomorphism":
        return self._combine(other, Scalar.__sub__)

    def _combine(self, other: "Endomorphism", op: Callable[[Scalar, Scalar], Scalar]):
        """The entries op(A^p_j, B^p_j) that are nonzero, over the entries
        either table names."""
        a, b, zero = self.table, other.table, Scalar.zero(self.params)
        values = ((k, op(a.get(k, zero), b.get(k, zero))) for k in dict.fromkeys(chain(a, b)))
        return Endomorphism.from_table(self.dim, self.params, {k: v for k, v in values if v.terms})

    def scale(self, factor: Scalar | RationalLike) -> "Endomorphism":
        if isinstance(factor, Scalar):
            values = ((k, factor * a) for k, a in self.table.items())
        else:
            values = ((k, a.scale(factor)) for k, a in self.table.items())
        return Endomorphism.from_table(self.dim, self.params, {k: v for k, v in values if v.terms})

    def trace(self) -> Scalar:
        zero = Scalar.zero(self.params)
        return sum((self.table.get((i, i), zero) for i in range(self.dim)), zero)

    def is_zero(self) -> bool:
        return not self.table


def endomorphisms(dim: int, params: tuple[str, ...], table: Table) -> tuple[Endomorphism, ...]:
    """A_i for every frame index i, from the table of a vector-valued form
    keyed (i, q, p), the component last: (A_i)^p_q is the value at (i, q, p),
    so A_i E_q is the form's vector at (E_i, E_q)."""
    tables: list[Table] = [{} for _ in range(dim)]
    for (i, q, p), v in table.items():
        tables[i][p, q] = v
    return tuple(Endomorphism.from_table(dim, params, t) for t in tables)


def _matrix_products(a_cols, b_table: Table) -> Iterator[tuple[tuple[int, int], Scalar, Scalar]]:
    """The products ((p, j), A^p_q, B^q_j) of the matrix product A B, from the
    nonzero entries of B and of each column of A."""
    return (((p, j), a, b) for (q, j), b in b_table.items() for p, a in a_cols[q])


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
        distinct coefficient object.  ``minus_sparse_c`` is the transposed
        ``sparse_c``, since -[E_i, E_j] = [E_j, E_i] holds by construction."""
        zero, idx = Scalar.zero(params), range(dim)
        table = [[[zero for _ in idx] for _ in idx] for _ in idx]
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
        m = FrameManifold(dim=dim, params=params, c=frozen)
        live = m.sparse_c
        vars(m)["minus_sparse_c"] = tuple(tuple(live[j][i] for j in idx) for i in idx)
        return m

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

    def vector_at(self, table: Table) -> Callable[[tuple[int, ...]], FrameVector]:
        """index -> the frame vector at index of a vector residual table, the
        component last in each key."""
        zero, idx = self.zero_scalar(), range(self.dim)
        return lambda index: FrameVector(tuple(table.get((*index, p), zero) for p in idx))

    def table_witness(
        self,
        table: Table,
        vector: bool = True,
        key: str = "residual",
        order: Callable | None = None,
    ) -> dict | None:
        """The witness a row-major scan of every basis tuple would give, read
        from a table of nonzero residuals: its least index, with the value
        there, or None when the table is empty.  A vector residual puts its
        component last in the index, and its witness is the least leading
        indices, with the frame vector there (``vector_at``).  ``order`` is
        the sort key of another scan order (column-major, say)."""
        if not table:
            return None
        least = min(table, key=order)
        if vector:
            at = self.vector_at(table)
            return first_witness([least[:-1]], lambda *lead: at(lead), key)
        return first_witness([least], lambda *index: table[index], key)

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

    @cached_property
    def minus_sparse_c(self) -> tuple[tuple[tuple[tuple[int, Scalar], ...], ...], ...]:
        """The nonzero entries of each -[E_i, E_j]: ``minus_sparse_c[i][j]``
        holds the pairs (k, -c[i][j][k]), one negation each.  ``from_pairs``
        builds the i > j half as the negation of the i < j half, so it sets
        this to the transposed ``sparse_c`` and no Scalar is built."""
        return tuple(
            tuple(tuple((k, -v) for k, v in c_ij) for c_ij in plane) for plane in self.sparse_c
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

    def lie_derive_endo(self, xi: FrameVector, a: Endomorphism) -> Endomorphism:
        """L_xi A = [ad_xi, A], with ad_xi E_q = [xi, E_q] = sum_r xi^r c_rq^p E_p:

            (L_xi A)^p_j = sum_{r,q} c_rq^p (xi^r A^q_j) + (xi^r A^p_q) (-c_rj^q) ,

        one product per nonzero structure constant and nonzero entry of
        xi^r A, the -c_rj^q read from ``minus_sparse_c``; ad_xi itself is
        never built.
        """
        c, minus_c = self.sparse_c, self.minus_sparse_c

        def products() -> Iterator[tuple[tuple[int, int], Scalar, Scalar]]:
            for r, x in enumerate(xi.components):
                if not x.terms:
                    continue
                xa = a.scale(x)
                for (q, j), v in xa.table.items():
                    for p, c_rq in c[r][q]:
                        yield (p, j), c_rq, v
                for j, minus_c_rj in enumerate(minus_c[r]):
                    for q, minus_c_rjq in minus_c_rj:
                        for p, v in xa.sparse_columns[q]:
                            yield (p, j), v, minus_c_rjq

        return Endomorphism.from_products(self.dim, self.params, products())

    # -- well-posedness --------------------------------------------------------

    def validate_frame(self) -> VerificationReport:
        """Check antisymmetry of the structure constants and the Jacobi identity.

        The antisymmetry residual is symmetric in (i, j), so scanning i <= j
        finds the same first witness as the full row-major scan, and it
        visits only the triples (i, j, k) that [E_i, E_j] or [E_j, E_i]
        names; every other residual is 0 + 0.  A frame holds few distinct
        coefficient objects, so each residual c_ij^k + c_ji^k is summed once
        per distinct pair of objects and read back for every later tuple
        that pairs the same two; the tuples and their order are unchanged,
        and so is the first witness.  The Jacobi
        scan skips a triple (i, j, k) none of whose cyclic terms composes two
        live brackets, there being no q with c_ab^q and [E_q, E_c] both
        nonzero: each of its components is a sum of products with a zero
        factor, so the first witness is unchanged."""
        report = VerificationReport()
        idx = range(self.dim)
        c, live = self.c, self.sparse_c

        def composes(a: int, b: int, k: int) -> bool:
            return any(live[q][k] for q, _ in live[a][b])

        # one sum per distinct pair of coefficient objects: every object stays
        # alive in ``c`` for the whole scan, so its id names it
        sums: dict[tuple[int, int], Scalar] = {}

        def antisymmetry(i: int, j: int, k: int) -> Scalar:
            a, b = c[i][j][k], c[j][i][k]
            key = id(a), id(b)
            value = sums.get(key)
            if value is None:
                value = sums[key] = a + b
            return value

        report.graded(
            "frame.bracket_antisymmetry",
            first_witness(
                (
                    (i, j, k)
                    for i in idx
                    for j in range(i, self.dim)
                    if live[i][j] or live[j][i]
                    for k in idx
                    if c[i][j][k].terms or c[j][i][k].terms
                ),
                antisymmetry,
            ),
        )

        report.graded(
            "frame.jacobi_identity",
            first_witness(
                (
                    (i, j, k, l)
                    for i, j, k in combinations(idx, 3)
                    if composes(i, j, k) or composes(j, k, i) or composes(k, i, j)
                    for l in idx
                ),
                self.jacobiator,
            ),
        )

        return report

