"""The host-speed probe: a fixed unit of interpreter work, timed from a
SIGPROF handler while the code being measured runs.

Standard library only, so that a fresh interpreter can start the probe
before it times ``import temponet.cli`` without loading numpy first.
"""

from __future__ import annotations

import json
import re
import signal
import statistics
import time

INTERVAL_S = 0.025  # CPU time between two samples of the reference unit
# Seconds of the reference unit on an unloaded vCPU of the machine the
# benchmark was written on (Intel Xeon, Python 3.11); setup_s is reported at
# this speed. Changing it rescales every setup_s, so it stays fixed.
NOMINAL_UNIT_S = 0.0005

_DOC = {"a": [1, 2, 3, {"b": "xyz" * 5}], "c": list(range(30)), "d": {"e": 1.5, "f": None}}
_PATTERN = re.compile(r"(\d+),(\d+),(\d+)")


def reference_unit() -> int:
    """A fixed slice of interpreter work (about half a millisecond): integer
    arithmetic and dict stores, then JSON, regex, set, sort and formatting
    calls, the kinds of work the CLI paths do."""
    acc, seen = 0, {}
    for i in range(1500):
        acc += i * i % 7
        seen[i & 255] = acc
    for k in range(6):
        acc += len(json.loads(json.dumps(_DOC)))
        acc += int(_PATTERN.match("12,345,6789").group(2))
        acc += len(sorted({(k * 7919 + j) % 101 for j in range(40)}))
        acc += len("%d,%d,%d\n" % (k, acc, k))
    return acc


class SpeedProbe:
    """Times the reference unit every ``INTERVAL_S`` of CPU time while the
    measured code runs, from a SIGPROF handler in the thread that runs it.

    The host's speed swings by up to 2x within a second, so a time alone
    says as much about the host as about the program. The probe samples the
    speed the code ran at, densely and while it ran; the code's time over
    the mean sample (:attr:`unit`) is its time in reference units. The
    caller subtracts the probe's own time, :attr:`spent`, from the code's.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        reference_unit()
        t = time.perf_counter() - t
        self.samples.append(t)
        self.spent += t

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    @property
    def unit(self) -> float | None:
        """Mean seconds of one reference unit over the samples, if any."""
        return statistics.fmean(self.samples) if self.samples else None
