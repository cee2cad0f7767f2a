"""A clock that reads seconds at a fixed reference speed of the machine.

The benchmark runs on a few cores of a shared host, whose speed for one
thread swings by up to 1.8x in phases of a few seconds as its neighbours
come and go.  Wall time then says as much about the neighbours as about
the program.  This clock measures the machine's speed while the program
runs: a timer interrupts the timed code every INTERVAL_S to time a fixed
pure-Python probe (list indexing and set lookups, as hyperalg does), and
each stretch of program time between two probes is weighted by the speed
the probes at its two ends measured, relative to PROBE_REF_S.  The result
is the time the same work would take on a machine where the probe takes
PROBE_REF_S, so a program that does more work reads longer and a busier
neighbour does not.  Probe time itself is left out.

The probes run in a SIGALRM handler in the main thread, so the clock needs
no second thread or process; Python runs the handler between bytecodes.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
PROBE_REF_S = 0.0005  # the probe's time on a quiet 2.1 GHz Xeon vCPU
PROBE_REPS = 60

# Fixed data of the probe: the Cayley table of C4 x C3 and a subset.
_TABLE = tuple(tuple((a // 3 + b // 3) % 4 * 3 + (a + b) % 3 for b in range(12))
               for a in range(12))
_MEMBERS = frozenset(range(0, 12, 2))


def probe_work(reps: int = PROBE_REPS) -> int:
    """The fixed work the clock times; returns a value so none is skipped."""
    table, members, hits = _TABLE, _MEMBERS, 0
    for _ in range(reps):
        for row in table:
            for x in row:
                if x in members:
                    hits += row[x]
    return hits


class SpeedClock:
    """Accumulates reference seconds between start() and stop().

    One clock may be started and stopped many times; `seconds` is the sum.
    Only one clock may run at a time, since it owns SIGALRM.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.wall = 0.0
        self.probes = 0
        self._resume = 0.0  # end of the last probe
        self._rate = 1.0  # speed at the last probe, relative to the reference
        self._previous = None

    @staticmethod
    def _probe() -> tuple[float, float]:
        """Time one probe; returns (its start, its end)."""
        t0 = time.perf_counter()
        probe_work()
        return t0, time.perf_counter()

    def _stretch(self, begin: float, end: float, rate: float) -> None:
        """Credit [begin, end) at the mean of the rates measured at its ends."""
        self.seconds += (end - begin) * (self._rate + rate) / 2
        self.wall += end - begin
        self._rate = rate

    def _on_alarm(self, signum, frame) -> None:
        t0, t1 = self._probe()
        self._stretch(self._resume, t0, PROBE_REF_S / (t1 - t0))
        self.probes += 1
        self._resume = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        t0, t1 = self._probe()
        self._rate = PROBE_REF_S / (t1 - t0)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self._resume = time.perf_counter()

    def stop(self) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        t0, t1 = self._probe()
        self._stretch(self._resume, end, PROBE_REF_S / (t1 - t0))

    def __enter__(self) -> "SpeedClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class WallClock:
    """The same interface, reading plain wall seconds (for traced runs)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.seconds += time.perf_counter() - self._start

    def __enter__(self) -> "WallClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
