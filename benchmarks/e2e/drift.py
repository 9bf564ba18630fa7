"""Host drift, sampled while the timed phase runs.

The reference box shares its cores: identical work swings by tens of
percent from one second to the next (ten untraced runs of one seed
spread 0.15-0.27 inter-quartile on raw wall time), in phases of seconds
to a minute, so a reading taken before and after a run says nothing
about the run.  A :class:`DriftSampler` therefore interrupts the main
thread every ``interval_s`` (``SIGALRM``; still one thread) and times a
small fixed *calibration slice* — a pure-Python part and a numpy part,
kept apart because a busy neighbour slows interpreter code more than
memory-bound kernels.

The harness uses the samples twice: the time the slices themselves took
inside an op is subtracted from that op, and each round's host times are
scaled by ``reference / mean slice time during the round``.  The slices
are fixed code, so the scale factor depends on the host's state alone —
a faster program still reads faster, by exactly as much.
"""

from __future__ import annotations

import signal
import zlib
from array import array
from time import perf_counter_ns

import numpy as np

#: slice times the reference box typically shows, ns (python part, numpy
#: part): corrected times read as "seconds on the reference box on a
#: typical day", whatever day and box they were taken on
REFERENCE_NS = (150_000, 500_000)


class _Cell:
    __slots__ = ("count", "level")

    def __init__(self) -> None:
        self.count = 0
        self.level = 1.0

    def bump(self, i: int) -> int:
        self.count += i & 3
        return self.count


class DriftSampler:
    """Periodic calibration slices on the main thread."""

    def __init__(self, interval_s: float = 0.02) -> None:
        self.interval_s = interval_s
        self.t0 = array("q")      # slice start, perf_counter_ns
        self.python_ns = array("q")
        self.numpy_ns = array("q")
        rng = np.random.default_rng(0)
        self._buf = rng.integers(0, 256, 64 * 1024, dtype=np.uint8)
        self._idx = rng.integers(0, 1 << 16, 32 * 1024, dtype=np.uint16)
        self._table = rng.integers(0, 1 << 62, 1 << 16, dtype=np.uint64)  # 512 KiB
        self._small = rng.integers(0, 256, 256, dtype=np.uint8)
        self._out8 = np.empty_like(self._buf)
        self._out64 = np.empty(len(self._idx), dtype=np.uint64)
        self._busy = False
        self._previous = None

    # the slice allocates no container: a collection triggered in here
    # would walk the *program's* objects and be billed to the host
    def _python_part(self) -> int:
        cell, table = _Cell(), {0: 0, 1: 1, 2: 2, 3: 3}
        total = 0
        for i in range(600):
            total += cell.bump(i) + table[i & 3]
            cell.level = cell.level * 1.0000001 + i
            table[i & 3] = total & 1023
        return total

    def _numpy_part(self) -> None:
        np.take(self._small, self._buf, out=self._out8)
        zlib.crc32(self._out8)
        np.bitwise_xor(self._out8, self._buf, out=self._out8)
        np.take(self._table, self._idx, out=self._out64)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        a = perf_counter_ns()
        self._python_part()
        b = perf_counter_ns()
        self._numpy_part()
        c = perf_counter_ns()
        self.t0.append(a)
        self.python_ns.append(b - a)
        self.numpy_ns.append(c - b)
        self._busy = False

    def slice_ms(self, repeats: int = 20) -> float:
        """Mean time of ``repeats`` slices run right now, in ms (unrecorded).

        A before/after reading for runs that take no samples (traced
        ones): an indicator of the host's state, nothing is divided by it.
        """
        t0 = perf_counter_ns()
        for _ in range(repeats):
            self._python_part()
            self._numpy_part()
        return (perf_counter_ns() - t0) / repeats / 1e6

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, starts, durations) -> np.ndarray:
        """Drift-corrected durations (ns) of consecutive timed intervals.

        ``starts`` / ``durations`` describe one round: its set-up and its
        ops, in order.  Slices that ran inside an interval are taken out
        of it; what is left is scaled by :meth:`factor` over the round.
        A slice runs to completion before the interrupted code resumes,
        so it lies inside one interval or between two, never across.
        """
        starts = np.asarray(starts, dtype=np.int64)
        durations = np.asarray(durations, dtype=np.int64)
        t0 = np.array(self.t0, dtype=np.int64)
        python_ns = np.array(self.python_ns, dtype=np.int64)
        numpy_ns = np.array(self.numpy_ns, dtype=np.int64)
        spent = python_ns + numpy_ns
        interval = np.searchsorted(starts, t0, side="right") - 1
        at = np.maximum(interval, 0)
        inside = (interval >= 0) & (t0 + spent <= starts[at] + durations[at])
        stolen = np.bincount(at[inside], weights=spent[inside], minlength=len(starts))
        during = (t0 >= starts[0]) & (t0 <= starts[-1] + durations[-1])
        return (durations - stolen) * self.factor(python_ns[during], numpy_ns[during])

    @staticmethod
    def factor(python_ns, numpy_ns) -> float:
        """``reference / observed`` slice time, both parts weighted alike.

        The geometric mean of the two parts' ratios: on ten-run sets of
        every workload it left a third to a half of the raw spread,
        where either part alone did so on some workloads only.  A round
        too short to hold a slice is left as measured.
        """
        if not len(python_ns):
            return 1.0
        return float(np.sqrt(
            (REFERENCE_NS[0] / np.mean(python_ns)) * (REFERENCE_NS[1] / np.mean(numpy_ns))
        ))
