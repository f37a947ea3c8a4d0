"""Check how far the CPU speed probe follows the work it measures.

    python3 perfbench/probecheck.py

Pins itself to one CPU, starts the probe (cpuprobe.py) and runs dummy work
in turn, each for SLOT_S of CPU time per round, for ROUNDS rounds: Python
bytecode that holds the GIL, GIL-free numpy work on arrays of the sizes the
program uses, and GIL-free numpy work on large arrays that sweep the caches. The
machine's own speed drifts from second to second, so each round compares the
probe's speed over each GIL-free kind with its speed over the GIL-bound work
just before it. It prints the median of those ratios and their quartiles.
The exit code is 1 if the ratio for program-sized arrays is more than
TOLERANCE away from 1; the ratio for large arrays shows how much a change to
large-array work would move the probe.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from cpuprobe import Probe

TOLERANCE = 0.05
ROUNDS = 60
SLOT_S = 0.2
WORK = Path(__file__).resolve().parent / ".work"


def gil_bound(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        total = 0
        for i in range(20_000):
            total += i * i


def gil_free(seconds: float) -> None:
    """Large arrays: sweeps the caches the probe's snippet starts from."""
    rng = np.random.default_rng(0)
    big, square = rng.normal(size=2_000_000), rng.normal(size=(400, 400))
    end = time.process_time() + seconds
    while time.process_time() < end:
        np.sort(big)
        square @ square


def gil_free_small(seconds: float) -> None:
    """Arrays of the sizes the program uses: most of the caches survive."""
    rng = np.random.default_rng(0)
    small, square = rng.normal(size=20_000), rng.normal(size=(60, 60))
    end = time.process_time() + seconds
    while time.process_time() < end:
        np.sort(small)
        square @ square


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    kinds = {"program-sized arrays": gil_free_small, "large arrays": gil_free}
    ratios: dict[str, list[float]] = {name: [] for name in kinds}
    with Probe(WORK / "probecheck.log") as probe:
        for _ in range(ROUNDS):
            for name, work in kinds.items():
                speeds = []
                for part in (gil_bound, work):
                    start = time.monotonic()
                    part(SLOT_S)
                    speeds.append(probe.speed(start, time.monotonic()))
                ratios[name].append(speeds[1] / speeds[0])
    medians = {}
    for name, values in ratios.items():
        q1, medians[name], q3 = statistics.quantiles(values, n=4)
        print(f"probe speed over GIL-free work on {name} / over GIL-bound work: median"
              f" {medians[name]:.4f} (quartiles {q1:.4f}, {q3:.4f}; {ROUNDS} rounds)")
    return 0 if abs(medians["program-sized arrays"] - 1) <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
