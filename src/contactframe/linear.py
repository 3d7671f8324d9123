"""Exact linear solving over the polynomial scalar ring.

The solver works fraction-free: forward elimination uses cross-multiplication
(``pivot * row - entry * pivot_row``), which stays inside the polynomial ring,
and only the final back-substitution divides - via ``exact_div``, so a result
is produced only when the solution itself is polynomial.  Underdetermined
systems are resolved by assigning the constant 1 to every free unknown (the
callers here want canonical representatives, not the full solution space, but
the free columns are reported so the caller can describe the family).

``exact_fit`` is the engine's one coefficient fit: the nullity constant, the
space-form and the eta-Einstein coefficients each write a sparse target as an
exact combination of sparse templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Hashable, Mapping, Sequence

from .scalars import Scalar, exact_div


@dataclass(frozen=True)
class LinearSolution:
    """One exact solution of a linear system, plus which unknowns were free."""

    values: tuple[Scalar, ...]
    free_columns: tuple[int, ...]


def solve_linear(
    rows: Sequence[Sequence[Scalar]],
    rhs: Sequence[Scalar],
    params: tuple[str, ...],
) -> LinearSolution | None:
    """Solve ``rows @ x = rhs`` exactly over the scalar ring.

    The equations are taken one at a time: each is reduced against the pivot
    rows found so far, in the order of their leading columns, and becomes a
    pivot row on its first nonzero column, or is dropped as 0 = 0.  The
    leading columns are then the rank profile of the coefficient matrix,
    whatever the equation order.  Returns None at the first equation that
    reduces to 0 = nonzero, or when solving would require leaving the
    polynomial ring (non-exact division).  Free unknowns receive the
    constant 1, and the pivots follow by back-substitution.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged coefficient matrix")
    pivots: dict[int, tuple[list[Scalar], Scalar]] = {}  # leading column -> row, rhs

    for row, r in zip(rows, rhs):
        coeffs = list(row)
        for col in sorted(pivots):
            factor = coeffs[col]
            if factor.is_zero():
                continue
            p_coeffs, p_rhs = pivots[col]
            p_entry = p_coeffs[col]
            coeffs = [p_entry * c - factor * p for c, p in zip(coeffs, p_coeffs)]
            r = p_entry * r - factor * p_rhs
        lead = next((col for col, c in enumerate(coeffs) if not c.is_zero()), None)
        if lead is None:
            if not r.is_zero():
                return None
            continue
        pivots[lead] = (coeffs, r)

    free_columns = tuple(c for c in range(ncols) if c not in pivots)
    values: list[Scalar] = [Scalar.zero(params)] * ncols
    for col in free_columns:
        values[col] = Scalar.one(params)
    for col in sorted(pivots, reverse=True):
        coeffs, residual = pivots[col]
        for other in range(col + 1, ncols):
            if not coeffs[other].is_zero():
                residual = residual - coeffs[other] * values[other]
        quotient = exact_div(residual, coeffs[col])
        if quotient is None:
            return None
        values[col] = quotient

    return LinearSolution(values=tuple(values), free_columns=free_columns)


def exact_fit(
    params: tuple[str, ...],
    target: Mapping[Hashable, Scalar],
    templates: Sequence[Mapping[Hashable, Scalar]],
) -> LinearSolution | None:
    """Solve target = sum_c x_c templates[c] exactly for the x_c, each
    mapping an index to a nonzero Scalar: one equation per index named,
    assembled in one pass over the tables and taken in sorted index order,
    exact duplicates dropped.  None when inconsistent, not polynomial, or
    without any equation.

    ``solve_linear`` pivots on the rank profile's columns, which neither the
    equation order nor a 0 = 0 row nor a twin changes, so none changes the
    solution or its free columns.  Its solution satisfies every equation, so
    none is substituted back: each equation reduces to a pivot row or to
    0 = 0, the reduced form being a nonzero multiple of the equation (the
    product of the pivot entries it was reduced by) minus a combination of
    pivot rows; back-substitution solves every pivot row exactly
    (``exact_div``), free columns at 1 included, and the polynomial ring
    has no zero divisors."""
    zero, width, terms = Scalar.zero(params), len(templates) + 1, attrgetter("terms")
    # index -> the templates' coefficients, then the target's value
    rows: dict = {}
    for c, table in enumerate((*templates, target)):
        for i, v in table.items():
            if i not in rows:
                rows[i] = [zero] * width
            rows[i][c] = v
    # twins are keyed on the terms, since every Scalar here has the same params
    twins: dict = {}
    for i in sorted(rows):
        row = rows[i]
        twins.setdefault(tuple(map(terms, row)), (row[:-1], row[-1]))
    if not twins:
        return None
    return solve_linear([row for row, _ in twins.values()], [b for _, b in twins.values()], params)
