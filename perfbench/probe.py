"""A host-speed probe that shares the measured thread's vCPU.

The host this benchmark runs on changes speed by up to 2× over seconds
to minutes (see README.md, Host noise), and the change moves every
wall-time figure of a run with it.  :class:`HostProbe` is a thread of
the benchmark process that wakes every few milliseconds and times a
fixed piece of pure-Python work in thread CPU time.  Because it runs
between the replay's own time slices on the same vCPU, its speed over a
run tracks the host's speed over that run; none of its work touches the
code under test, so a change to that code cannot move it.

:meth:`HostProbe.factor` is the reference speed divided by the speed
measured over an interval: multiply a time by ``1 / factor`` and a rate
by ``factor`` to express it at the reference host speed.
"""

from __future__ import annotations

import threading
import time
from typing import Tuple

#: Probe chunks per CPU-second on the 2-vCPU reference host in a
#: typical period; only the ratio to it matters.
REFERENCE_SPEED = 1600.0
#: Pause between chunks; the probe takes about a tenth of the vCPU.
_PAUSE_S = 0.009


def _chunk() -> int:
    table: dict = {}
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i * 3 % 7
    return len(table)


class HostProbe(threading.Thread):
    """Times a fixed chunk of work every :data:`_PAUSE_S` seconds."""

    def __init__(self) -> None:
        super().__init__(name="host-probe", daemon=True)
        self._halt = threading.Event()
        self.chunks = 0
        self.cpu_s = 0.0

    def run(self) -> None:
        while not self._halt.wait(_PAUSE_S):
            started = time.thread_time()
            _chunk()
            self.cpu_s += time.thread_time() - started
            self.chunks += 1

    def __enter__(self) -> "HostProbe":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._halt.set()
        self.join(timeout=10.0)

    def mark(self) -> Tuple[int, float]:
        """The probe's totals now, to pass to :meth:`factor` later."""
        return self.chunks, self.cpu_s

    def factor(self, since: Tuple[int, float] = (0, 0.0)) -> float:
        """Reference speed over the speed measured since ``since``.

        An interval too short for one chunk (only a TINY-scale set-up is
        that short) counts as reference speed.
        """
        chunks = self.chunks - since[0]
        if chunks == 0:
            return 1.0
        return REFERENCE_SPEED * (self.cpu_s - since[1]) / chunks
