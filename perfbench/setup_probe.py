"""One set-up as a CLI user pays it: start, import the engine, generate the inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON line with the CLOCK_MONOTONIC time at which the inputs were
ready (comparable across processes on one host) and a digest of the JSON
texts, which the parent checks against its own.
"""

import hashlib
import json
import sys
import time

from checkout import import_engine
from workloads import make_instances


def serialised_inputs(workload: str, seed: int) -> list[str]:
    return [json.dumps(inst.document, sort_keys=True) for inst in make_instances(workload, seed)]


def digest(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


if __name__ == "__main__":
    import_engine()
    texts = serialised_inputs(sys.argv[1], int(sys.argv[2]))
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({"ready": ready, "sha256": digest(texts)}))
