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

    Returns None when the system is inconsistent, or when solving it would
    require leaving the polynomial ring (non-exact division).  Free unknowns
    receive the constant 1.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged coefficient matrix")
    work = [(list(row), r) for row, r in zip(rows, rhs)]
    pivot_rows: dict[int, int] = {}  # column -> row index
    used: set[int] = set()

    for col in range(ncols):
        candidates = [
            idx
            for idx, (coeffs, _) in enumerate(work)
            if idx not in used and not coeffs[col].is_zero()
        ]
        if not candidates:
            continue
        # prefer the structurally simplest pivot to limit degree growth
        pivot = min(
            candidates,
            key=lambda idx: (
                work[idx][0][col].total_degree(),
                len(work[idx][0][col].terms),
            ),
        )
        used.add(pivot)
        pivot_rows[col] = pivot
        p_coeffs, p_rhs = work[pivot]
        p_entry = p_coeffs[col]
        for idx, (coeffs, r) in enumerate(work):
            if idx == pivot or coeffs[col].is_zero():
                continue
            factor = coeffs[col]
            new_coeffs = [p_entry * c - factor * p for c, p in zip(coeffs, p_coeffs)]
            new_rhs = p_entry * r - factor * p_rhs
            work[idx] = (new_coeffs, new_rhs)

    # rows that eliminated to 0 = nonzero are contradictions
    for idx, (coeffs, r) in enumerate(work):
        if idx in used:
            continue
        if all(c.is_zero() for c in coeffs) and not r.is_zero():
            return None

    free_columns = tuple(c for c in range(ncols) if c not in pivot_rows)
    values: list[Scalar] = [Scalar.zero(params)] * ncols
    for col in free_columns:
        values[col] = Scalar.one(params)

    for col, idx in pivot_rows.items():
        coeffs, r = work[idx]
        residual = r
        for other in range(ncols):
            if other == col or coeffs[other].is_zero():
                continue
            # after full elimination only free columns can remain populated
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
    mapping an index to a nonzero Scalar: one equation per index named, in
    sorted order, exact duplicates dropped, and the ``solve_linear`` solution
    substituted back (a free unknown's default must satisfy every equation).
    None when inconsistent, not polynomial, or without any equation.

    ``solve_linear`` pivots on the rank profile's columns, which neither the
    equation order nor a 0 = 0 row nor a twin changes, so none changes the
    solution or its free columns."""
    zero = Scalar.zero(params)
    indices = sorted(set(target).union(*templates))
    pairs = ((tuple(t.get(i, zero) for t in templates), target.get(i, zero)) for i in indices)
    equations = list(dict.fromkeys(pairs))
    if not equations:
        return None
    solution = solve_linear([list(row) for row, _ in equations], [b for _, b in equations], params)
    if solution is None or any(
        not (Scalar.sum_of_products(params, zip(row, solution.values)) - b).is_zero()
        for row, b in equations
    ):
        return None
    return solution
