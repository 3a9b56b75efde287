"""Machine-speed probe that normalizes the benchmark's times.

On a shared virtual machine the speed of a CPU can drift by 20-30%
within minutes, with load outside the benchmark, and raw wall times of
the same work then spread as much across runs.  The probe samples the
machine every PERIOD_S while a timed piece of work runs, from a timer
signal in the same process and thread, so it sees the CPU state the
program sees.  The work's time, less the probe's own time, is scaled by
REF_S over the probe's mean time: it reads as seconds on a machine on
which the probe takes REF_S.
"""

import signal
import statistics
import time

PERIOD_S = 0.05
# FFT round trips of a (256, 3) array, like the spectral layer's calls.
ROUND_TRIPS = 25
REF_S = 7.0e-4  # the probe's mean time on a 2-vCPU Intel Xeon (KVM) at 2.0 GHz


class SpeedProbe:
    """Samples the probe's time while the with-block runs: once on entry,
    then on every timer tick."""

    def __init__(self):
        import numpy as np

        self._fft = np.fft
        self._x = np.random.default_rng(0).standard_normal((256, 3))
        self.samples = []

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        for _ in range(ROUND_TRIPS):
            self._fft.irfft(self._fft.rfft(self._x, axis=0), n=256, axis=0)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def slowdown(samples):
    """The probe's mean time over REF_S."""
    return statistics.fmean(samples) / REF_S


def normalize(wall, samples):
    """wall, less the probe's time, in seconds at the reference speed."""
    return (wall - sum(samples)) / slowdown(samples)
