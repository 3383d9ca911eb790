"""Machine speed sampled while an op runs, to cancel host contention.

On a shared host the speed of one vCPU drifts by a quarter or more over
tens of seconds, and each vCPU drifts on its own, so op wall times taken
minutes apart differ by more than a code change should be allowed to.
:class:`SpeedProbe` interrupts the op on a wall-clock timer (``SIGALRM``)
and times a fixed reference kernel in the signal handler, on the same
vCPU as the op and in the same seconds.  The op's cost in *reference
units* is its wall time without the probe's own time, divided by the
harmonic mean of the kernel times seen during the op.  The samples are
evenly spaced in wall time and the host slows the op and the kernel
alike, so that is the op's wall time on an idle host in kernel units.
Contention comes in bursts shorter than an op; a median of the kernel
times misses them, and ops slowed by them then read as cheaper.

The kernel mixes plain interpreter work, vectorised real arithmetic
over 1024 rows (the closed loop) and one batched complex 2x2 product
over 1024 states (the SME ensemble).  On a shared 2-vCPU host, over 14
ops each of ``lqg_tracking`` and ``qubit_filtering``, raw op wall time
varied by 17-18 % (coefficient of variation) and op cost in reference
units by 1.5-2 %.  Tiny 2x2 ``matmul`` calls were tried as well and
left out: they slowed far more than any workload did.

Set-up time runs in a child interpreter, which the timer cannot reach;
it is scaled instead by the kernel timed just before and after it, on
the vCPU the child runs on, to seconds at :data:`NOMINAL_KERNEL_S`.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: timer period; the kernel takes about 2 % of it, so an op of a few
#: seconds gets over a hundred samples
INTERVAL_S = 0.025
#: fixed scale that turns reference units back into seconds: about the
#: kernel's time on a quiet vCPU of the host the benchmark was tuned on
NOMINAL_KERNEL_S = 500e-6


class _Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.rho = (rng.standard_normal((1024, 2, 2))
                    + 1j * rng.standard_normal((1024, 2, 2)))
        self.L = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
        self.x = rng.standard_normal((1024, 2))

    def __call__(self) -> float:
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        for _ in range(5):
            acc += float((self.x * 0.99 + 0.01 * self.x[:, ::-1]).sum())
        acc += float(np.matmul(self.L, self.rho)[:, 0, 0].real.sum())
        return acc


class SpeedProbe:
    """Context manager: times the reference kernel every :data:`INTERVAL_S`
    seconds of wall time while the block runs."""

    def __init__(self):
        self.kernel = _Kernel()
        for _ in range(20):  # warm caches and numpy's dispatch before timing
            self.kernel()
        self.samples: list[float] = []

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time_kernel(self, seconds: float) -> list[float]:
        """Kernel times, running it back to back for ``seconds``."""
        times = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return times

    @property
    def probe_s(self) -> float:
        """Wall time the kernel itself took during the block."""
        return sum(self.samples)

    @property
    def kernel_s(self) -> float:
        """Harmonic mean of the kernel times during the block: one
        reference unit."""
        return statistics.harmonic_mean(self.samples)
