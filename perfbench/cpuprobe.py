"""A CPU speed probe, so that times taken on a shared machine can be compared.

On a machine shared with other tenants, the same work runs up to about 2x
slower while a neighbour loads the same physical core, and that load changes
from second to second. The probe is a process of its own, pinned to the CPU
the measured work runs on. Every PERIOD_S it runs a short snippet and logs
when the snippet ended and its CPU time; a sample is dropped if the work ran
while the snippet did. The probe shares no interpreter (and so no GIL) with
the work, and its CPU time leaves out the work's. ``Probe.speed(start, end)``
is the mean speed, relative to REFERENCE_S, of the samples taken in an
interval: a CPU time measured over that interval, times that speed, is the
time the work would take on a CPU where the snippet takes exactly
REFERENCE_S.

The snippet starts with whatever the work left in the caches. That is what
makes it follow the program's jobs (a snippet that first warms the caches
slows down less than the jobs do), and it is also how the work can still
move the probe: see probecheck.py.

    python3 cpuprobe.py LOG    # the probe process itself; ``Probe`` starts it
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.025
PREEMPTED_S = 0.0001  # a sample whose wall time exceeds its CPU time by more is dropped
REFERENCE_S = 0.0005
PARSE_ROUNDS = 2
START_TIMEOUT_S = 60.0


def snippet(rows, lines: list[str]) -> float:
    """Small-array numpy calls, then CSV-like parsing, both from Python.

    The program's jobs slow down more than the numpy part alone when the
    machine is loaded, and less than the parsing part alone; the mix follows
    all three workloads' jobs to within a few percent.
    """
    import numpy as np

    total = 0.0
    for row in rows:
        ordered = np.sort(row)
        total += float(ordered[::3].sum()) + float(np.percentile(ordered, 25))
    for _ in range(PARSE_ROUNDS):
        for line in lines:
            fields = line.split(",")
            total += float(fields[1]) + float(fields[2])
    return total


def sample_forever(log: Path) -> None:
    """Append ``<time.monotonic() at the end> <CPU seconds>`` for one snippet every PERIOD_S."""
    import numpy as np

    rows = np.random.default_rng(0).normal(size=(8, 64))
    lines = [f"{i},{i * 0.37:.3f},-{i % 90}.5,{i % 4}" for i in range(200)]
    with log.open("a", encoding="utf-8", buffering=1) as out:
        while True:
            wall_started, started = time.perf_counter(), time.thread_time()
            snippet(rows, lines)
            cpu_s = time.thread_time() - started
            if time.perf_counter() - wall_started - cpu_s < PREEMPTED_S:  # the work did not run meanwhile
                out.write(f"{time.monotonic():.6f} {cpu_s:.9f}\n")
            time.sleep(PERIOD_S)


class Probe:
    """``with Probe(log) as probe: ...``, then ``probe.speed(start, end)``.

    The probe process inherits the caller's CPU affinity, so pin the caller
    first. ``start`` and ``end`` are ``time.monotonic()`` stamps, which are
    the same clock in every process of the machine.
    """

    def __init__(self, log: Path) -> None:
        self.log = log
        self._process: subprocess.Popen | None = None

    def __enter__(self) -> "Probe":
        self.log.write_text("", encoding="utf-8")
        self._process = subprocess.Popen([sys.executable, __file__, str(self.log)])
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self._samples():
            if self._process.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("the CPU speed probe did not start")
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._process is not None:
            self._process.terminate()
            try:
                self._process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
            self._process = None

    def _samples(self) -> list[tuple[float, float]]:
        text = self.log.read_text(encoding="utf-8")
        complete = text[: text.rfind("\n") + 1]  # a line being written is left out
        return [(float(t), float(cpu)) for t, cpu in (line.split() for line in complete.splitlines())]

    def speed(self, start: float, end: float) -> float:
        """Mean speed relative to REFERENCE_S of the snippets that ended in [start, end]."""
        samples = self._samples()
        inside = [cpu for t, cpu in samples if start <= t <= end]
        if not inside:  # an interval shorter than PERIOD_S: the sample nearest to its end
            inside = [min(samples, key=lambda sample: abs(sample[0] - end))[1]]
        return sum(REFERENCE_S / cpu for cpu in inside) / len(inside)


if __name__ == "__main__":
    sample_forever(Path(sys.argv[1]))
