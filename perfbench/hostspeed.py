"""Host-speed correction for the timed end-to-end figures.

The benchmark runs on shared hosts whose speed drifts by a quarter within
a minute, which moves every wall-clock figure alike.  While a measurement
runs, a SIGALRM handler times a small fixed probe every INTERVAL_S seconds
(no thread, no process; the probe uses no l2sim code and touches no state
of the program).  Work that took ``elapsed`` wall seconds is reported as

    (elapsed - probe time inside it) * REFERENCE_S / mean probe time

where the mean is over the probes taken during the work, or over the last
WINDOW probes when the work was too short to hold that many.  At the
reference speed the figure is plain wall-clock time; on a slowed host both
the work and the probe slow down, and the ratio cancels the slowdown.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import time

# median probe() seconds on the 2-core host and Python 3.11.7 that the
# recorded numbers in README.md come from
REFERENCE_S = 0.0006
INTERVAL_S = 0.05
WINDOW = 10

_DOC = {"bal": {f"p{i}": i for i in range(16)},
        "txs": [{"op": "pay", "from": f"p{i}", "amt": i} for i in range(16)]}


def probe() -> float:
    """Seconds for a fixed piece of JSON, hashing and dict work."""
    t0 = time.perf_counter()
    for i in range(12):
        doc = dict(_DOC, height=i)
        hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        sorted((k, v) for k, v in doc["bal"].items() if v % 3)
    return time.perf_counter() - t0


class HostSpeed:
    """Samples ``probe()`` on a timer while used as a context manager."""

    def __init__(self):
        self.log: list[float] = []
        self._old = None

    def _tick(self, signum, frame):
        self.log.append(probe())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> int:
        return len(self.log)

    def seconds(self, mark: int, elapsed: float) -> float:
        """Reference-host seconds for ``elapsed`` wall seconds since ``mark``."""
        during = self.log[mark:]
        window = self.log[-max(WINDOW, len(during)):] or [probe()]
        return (elapsed - sum(during)) * REFERENCE_S / statistics.fmean(window)

    def scale(self) -> float:
        """Reference probe time over the median probe time so far."""
        return REFERENCE_S / statistics.median(self.log or [probe()])
