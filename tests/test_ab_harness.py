"""``scripts/ab.py`` resolves a slowdown in one layer and refuses a change
in the output: it is run on this tree against a copy of it."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# appended to the copy's curvature.py: every riemann call sleeps 2 ms first;
# the modules that import riemann from it pick up the wrapper
SLOW_RIEMANN = """

import time as _time

_riemann = riemann


def riemann(m, conn):
    _time.sleep(0.002)
    return _riemann(m, conn)
"""


def _copy(tmp_path: Path, module: str, suffix: str) -> Path:
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "contactframe" / module, "a") as f:
        f.write(suffix)
    return src


def _ab(change: Path, rounds: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), str(SRC), "--change", str(change),
         "--rounds", str(rounds), "--only", "H3"],
        capture_output=True,
        text=True,
        timeout=120,
    )


def _rows(stdout: str) -> dict[str, tuple[float, str]]:
    """layer -> (median paired ratio, wins) of the printed H3 rows."""
    rows = {}
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == "H3":
            rows[fields[1]] = (float(fields[4]), fields[5])
    return rows


def test_ab_detects_a_slower_layer(tmp_path):
    run = _ab(_copy(tmp_path, "curvature.py", SLOW_RIEMANN), rounds=5)
    assert run.returncode == 0, run.stdout + run.stderr
    rows = _rows(run.stdout)
    assert set(rows) == {"request", "levi_civita", "riemann", "build_gtw_package"}
    # the slowed layer loses every round by far; the request, which calls
    # riemann twice, loses every round too
    ratio, wins = rows["riemann"]
    assert ratio > 5 and wins == "0/5"
    ratio, wins = rows["request"]
    assert ratio > 1.2 and wins == "0/5"


def test_ab_refuses_a_changed_output(tmp_path):
    run = _ab(_copy(tmp_path, "version.py", '\nENGINE_VERSION += "-changed"\n'), rounds=1)
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1] == "outputs differ: H3"
