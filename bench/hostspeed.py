"""Host-speed probe: rescales measured times to a fixed reference host speed.

The benchmark runs on a few vCPUs of a host shared with other tenants.  There
a fixed kernel runs anywhere between about 1x and 1.7x its fastest time, and
the host switches between such states within seconds.  Raw wall times of one
workload therefore spread by up to 40% between runs of the same code, more
than any bound a regression check could use.

The probe measures the host's speed while the workload runs.  A ``SIGALRM``
timer interrupts the workload every ``INTERVAL_S`` and times a fixed probe
kernel (benchmark code, never ``mhd1d`` code); a few more probes run just
before and just after.  A probe that takes ``p`` seconds means the host ran
at speed ``REFERENCE_S / p`` of the reference at that moment.  The
normalized time of the measured span is its wall time, less the time spent
inside probes, times the mean speed over the probes: the time the span would
have taken on a host where the probe kernel takes ``REFERENCE_S``.  On a
2-vCPU shared KVM guest, this cut the quartile spread of ten runs of
``vacuum_run`` from 29% of the median to 5%.

Set-up is timed before numpy is imported, so it is normalized by the pure
Python half of the probe alone (``PYTHON_REFERENCE_S``), run before and after.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.1            # one probe per 0.1 s of workload: about 1% overhead
EDGE_PROBES = 3             # probes right before and right after the span
PYTHON_ITERATIONS = 5000
NUMPY_ARRAYS = 8            # 8 x 4096 doubles: 256 KiB, like the solver's working set
NUMPY_CELLS = 4096
# Typical probe times on the reference machine (2-vCPU Intel Xeon KVM guest,
# Python 3.11, numpy 2.4).  They only fix the unit; any constant would do, as
# long as parent and change are measured with the same one.
REFERENCE_S = 1.2e-3
PYTHON_REFERENCE_S = 0.7e-3


def python_kernel() -> int:
    """Dictionary and integer work in the interpreter, like mhd1d's bookkeeping."""
    counts: dict[int, int] = {}
    for i in range(PYTHON_ITERATIONS):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def python_probe() -> float:
    """Seconds the pure Python kernel takes now."""
    start = time.perf_counter()
    python_kernel()
    return time.perf_counter() - start


def python_speed(samples: list[float]) -> float:
    """Mean host speed, relative to the reference, from pure Python probe times."""
    return sum(PYTHON_REFERENCE_S / p for p in samples) / len(samples)


class SpeedProbe:
    """Probes the host's speed while a span of work runs; see the module doc."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._arrays = [np.linspace(0.0, 1.0, NUMPY_CELLS) + i for i in range(NUMPY_ARRAYS)]
        self.samples: list[float] = []
        self._in_span = 0.0           # probe time spent between start() and stop()
        self._t0 = 0.0
        self.wall_s = 0.0
        for _ in range(EDGE_PROBES):  # warm-up, not recorded
            self._probe()

    def _numpy_kernel(self) -> float:
        """Stencil-shaped numpy arithmetic over a cache-sized working set."""
        np, arrays = self._np, self._arrays
        total = 0.0
        for i, a in enumerate(arrays):
            b = arrays[(i + 3) % NUMPY_ARRAYS]
            d = np.roll(a, 1) - b
            total += float((np.maximum(d, 0.0) * 0.5 + np.sqrt(a + 1.0)
                            - np.minimum(a, b)).sum())
        return total

    def _probe(self) -> float:
        start = time.perf_counter()
        python_kernel()
        self._numpy_kernel()
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        p = self._probe()
        self.samples.append(p)
        self._in_span += p

    def start(self):
        self.samples.extend(self._probe() for _ in range(EDGE_PROBES))
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._in_span = 0.0
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(self._probe() for _ in range(EDGE_PROBES))

    @property
    def speed(self) -> float:
        """Mean host speed over the span, relative to the reference."""
        return sum(REFERENCE_S / p for p in self.samples) / len(self.samples)

    @property
    def normalized_s(self) -> float:
        """The span's time at reference host speed, probe time excluded."""
        return (self.wall_s - self._in_span) * self.speed
