"""The exact engine against the independent sympy recomputation.

Every core tensor of the one-parameter family is built twice: once by the
engine (read from the suite ``Instance``), once with sympy from first
principles (``tests/sympy_oracle.py``).  The two are compared component by
component: both connection tables, h, both Ricci forms, both curvature
tensors, the concircular tensor and its constant K, and the space-form
model tensors R1, R2, R3, 568 components in all.
Skipped where sympy is not installed.
"""

from __future__ import annotations

from itertools import product

import pytest

sp = pytest.importorskip("sympy")
import sympy_oracle as oracle  # noqa: E402

# the oracle spells the family's parameter "lam"
_SYMBOLS = {"lambda": oracle.lam}


def to_sympy(scalar) -> "sp.Expr":
    """Exact Scalar -> sympy expression over the oracle's symbols."""
    expr = sp.Integer(0)
    for mono, coeff in scalar.terms:
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for name, power in zip(scalar.params, mono):
            if power:
                term *= _SYMBOLS.get(name, sp.symbols(name)) ** power
        expr += term
    return expr


def test_engine_matches_sympy_oracle(fam):
    d = oracle.build_all()
    idx = range(fam.m.dim)
    pairs = []
    lc_at, gtw_at = fam.m.vector_at(fam.lc.table), fam.m.vector_at(fam.pkg.conn.table)
    for i, j, k in product(idx, repeat=3):
        lc, gtw = lc_at((i, j)), gtw_at((i, j))
        pairs.append((f"lc_gamma{i, j, k}", lc.components[k], d["gamma"][i][j][k]))
        pairs.append((f"gtw_gamma{i, j, k}", gtw.components[k], d["gt"][i][j][k]))
    for i, j in product(idx, repeat=2):
        pairs.append((f"h{i, j}", fam.h.matrix[i][j], d["h"][i, j]))
        pairs.append((f"ricci{i, j}", fam.ricci.components[i][j], d["s"][i, j]))
        pairs.append((f"gtw_ricci{i, j}", fam.pkg.ricci.components[i][j], d["s_gt"][i, j]))
    for i, j, k, l in product(idx, repeat=4):
        for label, tensor, key in (
            ("riemann", fam.r, "r"),
            ("gtw_riemann", fam.pkg.curv, "r_gt"),
            ("concircular", fam.z, "z"),
        ):
            pairs.append(
                (f"{label}{i, j, k, l}", tensor.components[i][j][k][l], d[key][i][j][k][l])
            )
        for a, (tensor, expected) in enumerate(zip(fam.templates, d["templates"])):
            pairs.append(
                (f"R{a + 1}{i, j, k, l}", tensor.components[i][j][k][l], expected[i][j][k][l])
            )
    pairs.append(("K", fam.z.K, d["k_const"]))

    assert len(pairs) == 568
    mismatches = [
        f"{label}: engine - oracle = {delta}"
        for label, engine, expected in pairs
        if (delta := sp.simplify(to_sympy(engine) - expected)) != 0
    ]
    assert mismatches == []
