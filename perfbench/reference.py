"""The machine's speed, read from fixed references that use nothing of nilbch.

On a shared host the speed of a CPU drifts by up to 2x in spells of seconds
to minutes, and the two CPUs differ from each other, so a wall time of
nilbch's code says as much about the neighbours as about nilbch. The
benchmark therefore times a reference beside every timing it reports, and
scales each timing to the speed at which the reference takes its nominal
time:

    scaled = wall time * nominal time / time of the reference beside it

A slow spell lengthens both times alike and leaves the scaled time where it
was; a change to nilbch moves only the first. There are two references:

- `work`, timed in the process whose operations it scales: the kind of thing
  nilbch does in pure Python, Fraction products of small matrices, tuple
  keys and dict updates;
- for a command in a fresh interpreter, which runs on whichever CPU is free
  and spends most of a short command starting up and importing, a fresh
  interpreter that imports a few standard modules (PROCESS_REFERENCE),
  timed from its start to its exit like the command.
"""

from __future__ import annotations

import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median

# Each nominal time is the median of the reference's timings on this
# machine; any fixed value would do, and these keep the scaled figures near
# the wall times seen here.
REFERENCE_S = 0.0058
PROCESS_REFERENCE = ("-c", "import fractions, json, statistics")
PROCESS_REFERENCE_S = 0.082
# during the rounds, a timing of the reference before an operation when none
# was taken in the last SAMPLE_EVERY_S seconds
SAMPLE_EVERY_S = 0.1
# timings of `work` a worker takes right after its set-up, to scale that
SETUP_SAMPLES = 3


def work() -> dict:
    counts: dict = {}
    for k in range(30):
        a = [[Fraction(i + j + k, j + 2) for j in range(3)] for i in range(3)]
        b = [[sum((a[i][m] * a[m][j] for m in range(3)), Fraction(0)) for j in range(3)] for i in range(3)]
        key = (b[0][1].numerator % 7, b[2][2].denominator)
        counts[key] = counts.get(key, 0) + 1
    return counts


def scaled(t: float, durations: list) -> float:
    """A wall time t scaled by timings of `work` taken beside it."""
    return t * REFERENCE_S / median(durations)


class Speed:
    """Timings of `work`, each kept as (start, duration), in time order."""

    nominal_s = REFERENCE_S

    def __init__(self):
        self.starts: list = []
        self.durations: list = []

    def run(self) -> None:
        work()

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            self.run()
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)

    def sample_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """The nominal time over the median of the two timings that ended
        last before `start` and the two that began first after `end`."""
        before = bisect_right(self.starts, start)
        after = bisect_left(self.starts, end)
        near = self.durations[max(0, before - 2):before] + self.durations[after:after + 2]
        return self.nominal_s / median(near)


class ProcessSpeed(Speed):
    """Timings of PROCESS_REFERENCE in a fresh interpreter."""

    nominal_s = PROCESS_REFERENCE_S

    def run(self) -> None:
        subprocess.run([sys.executable, *PROCESS_REFERENCE], check=True)
