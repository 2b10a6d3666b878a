"""Reference work that tracks this machine's current speed.

On a shared host the speed of one core drifts by half or more, within tens of
milliseconds as well as over minutes (other tenants' load on the same
physical core and on the shared cache), and every timing drifts with it.  So
while a round runs, a timer interrupts it every ``INTERVAL_S`` and times one
short slice of fixed reference work in between the program's own bytecodes;
``run.py`` subtracts the slices from the round's time and scales the rest by
``nominal / mean slice time``.  Reported seconds are therefore seconds at a
fixed reference speed: the drift cancels, while a change in the program's own
cost still shows in full.  Set-up probes sample the same way inside the fresh
interpreter they time (see ``probe_setup.py``).

A slice does the kind of work the workload spends most of its time on, and
allocates nothing from the heap while the program runs.  ``InterpreterSlice``
(object construction, dict and list traffic, small integer arithmetic) serves
the suite and transcript workloads.  ``NumpySlice`` (a conjugated complex
matrix times a vector) serves ``conference_wide``, whose trials are mostly
numpy streaming a 16 MiB joint basis out of the shared L3 cache; that speed
swings with the host's load differently from the interpreter's.  On the
two-core Xeon host of the first baseline, eight ``conference_wide`` runs of
eight rounds, each round timing every candidate slice, gave these round time
variations (standard deviation over mean, within a run) and spreads of the
run medians (interquartile range over median): raw 0.049 and 0.102, scaled
by the interpreter slice 0.061 and 0.108, by a numpy slice held in L2
(2 MiB) 0.034 and 0.040, and by the numpy slice used here, which spills into
L3 as the program does, 0.024 and 0.021.

Each slice is timed after an untimed warm-up pass over the same data, so that
it measures the machine's speed rather than what the program last left in
the caches.  It runs no qconf code, but it shares the core, the caches and
the heap with the program, so a change to the program's memory footprint can
still move it a little.  On the same host, 20 interleaved pairs of
``conference_wide`` rounds at ten and at eight parties (a joint basis 16
times smaller) differed 7.17-fold in raw time and 6.98-fold in scaled time:
the numpy slice ran 2.0% slower beside the larger basis.  ``run.py``
therefore also reports the raw seconds beside the scaled ones, so that a
change can be judged on both.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

INTERVAL_S = 0.02


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _slice_work(table: dict, recent: list, iterations: int) -> None:
    # ``table`` already holds every key and ``recent`` has its final length,
    # so a slice makes only small objects: it never resizes a container
    # through malloc in the middle of the program's heap, which would move
    # the program's peak RSS from run to run.
    for i in range(iterations):
        cell = _Cell(str(i & 255), i)
        table[cell.key] = cell.value
        recent[i & 511] = (cell.value * 3) ^ len(cell.key)


class InterpreterSlice:
    """Object construction, dict and list traffic, small integer arithmetic."""

    # About the slice time measured inside rounds on the machine the first
    # baseline (baseline.json) was recorded on; it only fixes the scale of the
    # reported seconds, so it must stay as it is once a baseline exists.
    NOMINAL_S = 0.0012
    _ITERATIONS = 1_500
    # Untimed iterations before each timed slice; 512 touch every entry of
    # the slice's table and list.
    _WARMUP_ITERATIONS = 512

    def __init__(self):
        self._table = {str(i): 0 for i in range(256)}
        self._recent = [0] * 512

    def time_s(self) -> float:
        _slice_work(self._table, self._recent, self._WARMUP_ITERATIONS)
        start = time.perf_counter()
        _slice_work(self._table, self._recent, self._ITERATIONS)
        return time.perf_counter() - start


class NumpySlice:
    """A conjugated complex matrix times a vector, as qsim's joint measurement.

    The matrix is 512 x 512 (4 MiB) and its conjugate goes into a buffer made
    up front, so the slice allocates nothing; its 8 MiB exceed one core's L2
    cache, so it streams from L3 as the program's basis does.  These buffers
    are part of ``conference_wide``'s ``peak_rss_mib``.
    """

    # As ``InterpreterSlice.NOMINAL_S``, for this slice.
    NOMINAL_S = 0.0011

    def __init__(self):
        import numpy as np  # only here, so that program.require_source() runs first

        side = 512
        self._np = np
        self._matrix = np.exp(0.001j * np.arange(side * side)).reshape(side, side)
        self._conj = np.empty_like(self._matrix)
        self._vector = np.ones(side, dtype=complex)
        self._out = np.empty(side, dtype=complex)

    def _pass(self) -> None:
        self._np.conjugate(self._matrix, out=self._conj)
        self._np.matmul(self._conj, self._vector, out=self._out)

    def time_s(self) -> float:
        self._pass()  # untimed: loads the buffers into the caches
        start = time.perf_counter()
        self._pass()
        return time.perf_counter() - start


SLICES = {"interpreter": InterpreterSlice, "numpy": NumpySlice}


@dataclass
class Samples:
    """Slices timed while a round ran, kept as running sums.

    Only a traced round keeps ``pauses``, the (start, end) of every slice, to
    remove them from the spans they fall in.  An untraced round grows no list
    while the program runs: a list grown at a random moment lands in the
    program's heap and moves its peak RSS from run to run.
    """

    pauses: list | None = None
    count: int = 0
    total_s: float = 0.0
    busy_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count


class Reference:
    """Reference slices of one kind, timed on demand or sampled on a timer."""

    def __init__(self, kind: str = "interpreter"):
        self.kind = kind
        self._slice = SLICES[kind]()
        self.nominal_s = self._slice.NOMINAL_S

    def slice_s(self) -> float:
        """Seconds taken by one slice, timed after an untimed warm-up."""
        return self._slice.time_s()

    @contextmanager
    def sampling(self, keep_pauses: bool = False):
        """Time one slice every ``INTERVAL_S`` of wall time until exit."""
        samples = Samples(pauses=[] if keep_pauses else None)

        def on_timer(signum, frame):
            start = time.perf_counter()
            samples.total_s += self.slice_s()
            end = time.perf_counter()
            samples.count += 1
            samples.busy_s += end - start
            if samples.pauses is not None:
                samples.pauses.append((start, end))

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not samples.count:  # a round shorter than one interval
            samples.total_s, samples.count = self.slice_s(), 1

    def scale(self, raw_s: float, slice_s: float) -> float:
        """Raw seconds expressed at the nominal reference speed."""
        return raw_s * self.nominal_s / slice_s
