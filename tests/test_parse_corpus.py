"""The parser against a pinned corpus: ``tests/golden/parse_corpus.json``.

Each entry is a coefficient string, its declared parameters and what
``parse_scalar`` made of it: the printed value, or the error's type, message
and ``position``.  The strings are seeded: random strings over the
characters ``0-9 +-*/^() t x _`` and whitespace, random expressions of the
grammar (some with one character inserted, deleted or replaced), and the
strings at and just past ``MAX_DEPTH``, ``MAX_TERMS`` and ``MAX_EXPONENT``,
and products with a constant factor on either side, each under the
parameters ``()``, ``("t",)`` and ``("t", "x")``.

Regenerate with ``PYTHONPATH=src python tests/test_parse_corpus.py`` only for
a deliberate change of the parser's output or errors.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from contactframe.scalars import MAX_DEPTH, MAX_EXPONENT, ScalarError, parse_scalar

CORPUS = Path(__file__).resolve().parent / "golden" / "parse_corpus.json"
PARAM_SETS = ((), ("t",), ("t", "x"))
CHARS = "0123456789+-*/^()tx_ \t"
SEED = 25


def _expression(rng: random.Random, depth: int = 0) -> str:
    """A random expression of the grammar over t and x, with random spaces."""
    roll = rng.random()
    if depth > 3 or roll < 0.35:
        atom = rng.choice(["t", "x", str(rng.randrange(10)), str(rng.randrange(1000)),
                           f"{rng.randrange(20)}/{rng.randrange(1, 9)}", "0"])
    elif roll < 0.5:
        atom = "(" + _expression(rng, depth + 1) + ")"
    elif roll < 0.6:
        atom = "-" + _expression(rng, depth + 1)
    elif roll < 0.7:
        base = rng.choice(["t", "x", "2", "(1+t)", "(t-x)", "(1+t+x)", "(-1/2*t)"])
        atom = base + "^" + str(rng.choice([0, 1, 2, 3, 4, 7, 12]))
    else:
        op = rng.choice(["+", "-", "*", "+", "-", "*", "*"])
        atom = _expression(rng, depth + 1) + op + _expression(rng, depth + 1)
    pad = rng.choice(["", "", "", " ", "\t", "  "])
    return pad + atom + rng.choice(["", "", "", " "])


def _mutate(rng: random.Random, text: str) -> str:
    at = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0 or not text:
        return text[:at] + rng.choice(CHARS) + text[at:]
    at = min(at, len(text) - 1)
    if kind == 1:
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(CHARS) + text[at + 1:]


def _limits() -> list[str]:
    """Strings at and just past each of the parser's budgets."""
    out = []
    for depth in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1):
        out += ["(" * depth + "1" + ")" * depth, "-" * depth + "t",
                "(-" * (depth // 2) + "x" + ")" * (depth // 2),
                "(" * depth + "1+t" + ")" * depth + "^2"]
    for e in (MAX_EXPONENT - 1, MAX_EXPONENT, MAX_EXPONENT + 1, 10**30):
        out += [f"t^{e}", f"2^{e}", f"(1+t)^{e}", f"(t-x)^{e}", f"0^{e}", f"(1/2)^{e}"]
    # 256 = 16 * 16 monomials t^a x^b, then one more
    grid = [f"t^{a}*x^{b}" for a in range(16) for b in range(16)]
    out += ["+".join(grid), "+".join(grid + ["t^16"]), "+".join(grid + ["-t^0*x^0"]),
            "+".join(grid) + "-t^15*x^15+t^16",
            "+".join(grid) + "+t^16-t^16",
            "-(" + "+".join(grid) + ")"]
    row_t = "(" + "+".join(f"t^{a}" for a in range(16)) + ")"
    row_t17 = "(" + "+".join(f"t^{a}" for a in range(17)) + ")"
    row_x = "(" + "+".join(f"x^{b}" for b in range(16)) + ")"
    out += [row_t + "*" + row_x, row_t17 + "*" + row_x, row_x + "*" + row_t17]
    # a product whose 17 * 17 = 289 partial terms cancel down to 34
    row_x17 = "(" + "+".join(f"x^{b}" for b in range(17)) + ")"
    out += [f"(1-t)*{row_t}*{row_x17}", f"(1-t)*({row_t}*{row_x17})"]
    # (1+t+x)^k has (k+1)(k+2)/2 terms: 253 at k = 21, 276 at k = 22
    out += ["(1+t+x)^21", "(1+t+x)^22", "(1+t+x)^20*(1+t)", "(t+x)^255",
            "(1+t)^64*(1+x)^3", "(1+t)^64*(1+x)^4", "(1+t^2)^64"]
    # a constant left factor scales the right one; the last product crosses
    # MAX_TERMS after a scaled factor, at the end of its right factor
    out += ["2*t", "t*2", "2*3*t", "-3*t^2*u", "-3*t^2*x", "1/2*t*2", "(1+t)*2",
            "2*" + row_t17 + "*" + row_x]
    out += ["1" * 4300, "1" * 4301, "²", "١+t", "t + 1", "1/0", "t/2",
            "(t)/2", "3/ 4", "3 /4", "-3/-4", "x1", "_t", "t_", "()", "", " ", "+1"]
    return out


def build_corpus(seed: int = SEED) -> list[dict]:
    rng = random.Random(seed)
    texts = _limits()
    for _ in range(250):
        texts.append("".join(rng.choice(CHARS) for _ in range(rng.randrange(1, 14))))
    for _ in range(440):
        text = _expression(rng)
        texts.append(_mutate(rng, text) if rng.random() < 0.3 else text)
    entries = []
    for text in dict.fromkeys(texts):
        for params in PARAM_SETS:
            entries.append({"text": text, "params": list(params), **_outcome(text, params)})
    return entries


def _outcome(text: str, params: tuple[str, ...]) -> dict:
    try:
        return {"value": str(parse_scalar(text, params))}
    except ScalarError as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "position": getattr(exc, "position", None)}


def test_parser_matches_the_corpus():
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus) >= 2000
    mismatches = [
        (entry["text"][:60], entry["params"])
        for entry in corpus
        if _outcome(entry["text"], tuple(entry["params"]))
        != {k: v for k, v in entry.items() if k not in ("text", "params")}
    ]
    assert mismatches == []


def test_corpus_covers_values_errors_and_budgets():
    corpus = json.loads(CORPUS.read_text())
    messages = " ".join(e.get("message", "") for e in corpus)
    assert sum("value" in e for e in corpus) > 500
    for budget in ("MAX_DEPTH", "MAX_TERMS", "MAX_EXPONENT", "power may have up to",
                   "invalid integer literal", "zero denominator", "unknown parameter"):
        assert budget in messages


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(build_corpus(), indent=1, ensure_ascii=True) + "\n")
