"""Residual tables: the nonzero sums of a stream of products, and the witness
scan over such tables.

A residual is stated as products ``(index, a, b)``: its value at ``index`` is
the sum of a * b over the products naming that index.  ``sum_table`` is the
one contraction kernel behind every tensor and residual.  It makes one pass
over the products into one dict keyed by index: an index named by one live
product (both factors nonzero) is that product, a * b, so a unit factor
returns the other operand's object; an index named by two or more is one
unreduced sum of ints (``scalars._accumulate``, the step
``Scalar.sum_of_products`` takes too), reduced once at the end.  Only the
nonzero values are kept, so an index that no product names, or whose
products cancel, is zero by construction and costs nothing.  A vector
residual puts its component p last in the index; ``frames.vectors`` reads
it as frame vectors, and ``frames`` builds its matrix products with
``sum_table`` too.

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
from .scalars import Scalar, _accumulate, _mismatch, _new_sum, _reduced

Table = dict[tuple[int, ...], Scalar]
Product = tuple[tuple[int, ...], Scalar, Scalar]


def sum_table(params: tuple[str, ...], products: Iterable[Product]) -> Table:
    """The nonzero sums of a * b per index over the products (index, a, b),
    in the order the products first name the indices.  Every product's
    parameter lists are checked, a product with a zero factor included."""
    # index -> None (named by dead products only), the pair (a, b) of its one
    # live product, or the sum of two or more
    sums: dict = {}
    get = sums.get
    for index, a, b in products:
        if a.params != params or b.params != params:
            raise _mismatch(params, a, b)
        if not (a.terms and b.terms):
            sums.setdefault(index, None)
            continue
        acc = get(index)
        if acc is None:
            sums[index] = (a, b)
            continue
        if acc.__class__ is tuple:
            first = acc
            sums[index] = acc = _new_sum(params)
            _accumulate(acc, *first)
        _accumulate(acc, a, b)
    table = {}
    for index, acc in sums.items():
        if acc.__class__ is tuple:
            table[index] = acc[0] * acc[1]
        elif acc is not None:
            value = _reduced(params, acc)
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
