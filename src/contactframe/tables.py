"""Residual tables: the nonzero sums of a stream of products, and the witness
scan over such tables.

A residual is stated as products ``(index, a, b)``: its value at ``index`` is
the sum of a * b over the products naming that index.  ``sum_table`` runs
one sum per index named and keeps only the nonzero sums, so an index that no
product names is zero by construction and costs nothing.  A vector residual
puts its component p last in the index; ``frames.vectors`` reads it as frame
vectors, and ``frames`` builds its matrix products with ``sum_table`` too.

``table_witness`` reads tables built one slab at a time, in increasing order
of the leading indices, and stops at the first slab holding a nonzero entry;
within a slab the index tuples are read in sorted order through
``first_witness``, so the witness is the one a row-major scan of every basis
tuple would give.  Building slab by slab keeps a dense input whose witness
comes early from paying for the whole table.
"""

from __future__ import annotations

from typing import Iterable

from .report import first_witness
from .scalars import Scalar

Table = dict[tuple[int, ...], Scalar]
Product = tuple[tuple[int, ...], Scalar, Scalar]


def sum_table(params: tuple[str, ...], products: Iterable[Product]) -> Table:
    """The nonzero sums of a * b per index over the products (index, a, b):
    one ``Scalar.sum_of_products`` per index named."""
    pairs: dict[tuple[int, ...], list[tuple[Scalar, Scalar]]] = {}
    for index, a, b in products:
        ab = pairs.get(index)
        if ab is None:
            pairs[index] = [(a, b)]
        else:
            ab.append((a, b))
    table = {}
    for index, ab in pairs.items():
        value = Scalar.sum_of_products(params, ab)
        if value.terms:
            table[index] = value
    return table


def table_witness(slabs: Iterable[dict], key: str = "residual") -> dict | None:
    """``first_witness`` over tables of nonzero residuals, one slab at a time:
    each slab holds the tuples that share their leading indices, and the slabs
    come in increasing order of those."""
    for slab in slabs:
        witness = first_witness(sorted(slab), lambda *indices: slab[indices], key)
        if witness is not None:
            return witness
    return None
