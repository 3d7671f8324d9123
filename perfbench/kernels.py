"""Timed micro-operations: the machine-speed reference loop and Scalar kernels."""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from contactframe import Scalar, parse_scalar

# A fixed stdlib workload whose time tracks the speed of the shared machine:
# Fraction multiply-adds gathered into tuple-keyed dicts and sorted, the
# shape of a sparse-polynomial product.  A plain Fraction loop tracked the
# engine worse, because host contention slows the two by different amounts.
_REF_KEYS = tuple((a, b) for a in range(4) for b in range(4))
_REF_VALUES = tuple(Fraction(a + 1, b + 2) for a in range(4) for b in range(4))
_REF_FACTOR = Fraction(3, 7)
REF_PASSES = 700
KERNEL_PAIRS = 256  # operand pairs per Scalar kernel pass
KERNEL_REPEATS = 7  # passes per Scalar kernel; the median pass is reported


def reference_loop() -> float:
    """Seconds taken by REF_PASSES fixed dict-of-Fraction accumulations."""
    zero, factor = Fraction(0), _REF_FACTOR
    t0 = time.perf_counter()
    for i in range(REF_PASSES):
        acc: dict[tuple[int, int], Fraction] = {}
        for (x, y), value in zip(_REF_KEYS, _REF_VALUES):
            key = (x + i % 3, y)
            acc[key] = acc.get(key, zero) + value * factor
        terms = tuple(sorted(acc.items(), reverse=True))
    elapsed = time.perf_counter() - t0
    if len(terms) != len(_REF_KEYS):
        raise AssertionError("reference loop lost its result")
    return elapsed


class OperandPool:
    """Distinct nonzero Scalars seen in the workload, grouped by parameter tuple."""

    LIMIT = 48  # per (parameters, kind); keeps the kernels' time bounded

    def __init__(self) -> None:
        self._seen: dict[tuple[tuple[str, ...], str], dict[str, Scalar]] = {}

    def add(self, value: Scalar) -> None:
        if value.is_zero():
            return
        kind = "const" if value.is_constant() else "poly"
        group = self._seen.setdefault((value.params, kind), {})
        if len(group) < self.LIMIT:
            group.setdefault(str(value), value)

    def add_tensor(self, tensor) -> None:
        for plane in tensor.components:
            for row in plane:
                for vec in row:
                    for entry in vec:
                        self.add(entry)

    def pairs(self, kind: str, rng: random.Random, count: int) -> list[tuple[Scalar, Scalar]]:
        groups = [
            [group[key] for key in sorted(group)]
            for (params, k), group in sorted(self._seen.items())
            if k == kind
        ]
        if not groups:
            return []
        return [
            tuple(rng.choice(group) for _ in range(2))
            for group in (groups[i % len(groups)] for i in range(count))
        ]


def _per_op_us(run, ops: int) -> float:
    samples = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        run()
        samples.append((time.perf_counter() - t0) / ops * 1e6)
    return statistics.median(samples)


def scalar_kernels(pool: OperandPool, seed: int) -> dict:
    """Median microseconds per Scalar add/multiply and per parse, with operand counts.

    A kind with no operands in the workload (no polynomial Scalar on a
    rational instance) reads 0 with n = 0.
    """
    rng = random.Random(seed)
    out: dict[str, tuple[float, int]] = {}
    texts: list[tuple[str, tuple[str, ...]]] = []
    for kind in ("const", "poly"):
        chosen = pool.pairs(kind, rng, KERNEL_PAIRS)
        texts.extend((str(a), a.params) for a, _ in chosen)
        if not chosen:
            out[f"scalars.mul_{kind}_us"] = (0.0, 0)
            out[f"scalars.add_{kind}_us"] = (0.0, 0)
            continue

        def mul(chosen=chosen):
            for a, b in chosen:
                a * b

        def add(chosen=chosen):
            for a, b in chosen:
                a + b

        out[f"scalars.mul_{kind}_us"] = (_per_op_us(mul, len(chosen)), len(chosen))
        out[f"scalars.add_{kind}_us"] = (_per_op_us(add, len(chosen)), len(chosen))

    def parse():
        for text, params in texts:
            parse_scalar(text, params)

    out["scalars.parse_us"] = (
        (_per_op_us(parse, len(texts)), len(texts)) if texts else (0.0, 0)
    )
    return out
