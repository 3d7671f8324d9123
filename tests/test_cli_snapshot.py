"""``scripts/cli_snapshot.py``, on which every byte-identity claim between two
trees rests, writes every output, the ladder-only inputs among them, and
writes the same bytes twice."""

from __future__ import annotations

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_snapshot_is_complete_and_repeatable(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    snapshot = importlib.import_module("cli_snapshot")
    first, second = tmp_path / "first", tmp_path / "second"
    assert snapshot.main_snapshot(first) == 0
    assert snapshot.main_snapshot(second) == 0
    names = sorted(path.name for path in first.iterdir())
    assert len(names) == 186
    stems = {name.split("__")[0] for name in names}
    assert {stem for stem in stems if stem.startswith("ladder-")} == {
        "ladder-H3", "ladder-H7", "ladder-H9", "ladder-lambda_1_2"
    }
    assert sorted(path.name for path in second.iterdir()) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
