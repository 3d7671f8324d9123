"""Residual tables: the nonzero sums of a stream of products, and the first
nonempty table of a lazy stream of them.

A residual is stated as products ``(index, a, b)``: its value at ``index`` is
the sum of a * b over the products naming that index.  ``sum_table`` is the
one contraction kernel behind every tensor and residual.  It makes one pass
over the products into one dict keyed by index: an index named by one live
product (both factors nonzero) is that product, a * b, so a unit factor
returns the other operand's object; an index named by two or more is one
unreduced sum of ints (``scalars._accumulate``, the step
``Scalar.sum_of_products`` takes too, which reads a one-term constant factor
once and adds each term of its partner at the partner's own monomial),
reduced once at the end, in one pass (``scalars._reduced``).  Only the
nonzero values are kept, so an index that no product names, or whose
products cancel, is zero by construction and costs nothing.  A vector
residual puts its component p last in the index, and ``frames`` builds its
matrix products with ``sum_table`` too.

Every entry of such a table is nonzero, so the witness a row-major scan of
every basis tuple would give is the table's least index, with the value
there (``FrameManifold.table_witness``); a vector residual's witness is its
least leading indices, with the frame vector there.  A residual whose
witness often comes early on a dense input is built lazily instead, as a
generator of tables split by their leading indices, in increasing order:
``first_nonempty`` builds only as many of them as it takes to find an entry,
and that table holds the least index of the whole.
"""

from __future__ import annotations

from typing import Iterable

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


def first_nonempty(tables: Iterable[Table]) -> Table:
    """The first of the tables that holds an entry, or {}: the tables are
    built one at a time, and none after that one."""
    return next((table for table in tables if table), {})
