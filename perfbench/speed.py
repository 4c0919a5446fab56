"""Speed sampling: how fast the CPU runs while a workload executes.

On a shared machine the speed of a core drifts by tens of percent over
seconds to minutes (frequency changes, load on the SMT sibling).  A fixed
probe of a few milliseconds, run from a SIGALRM handler every SAMPLE_S seconds,
samples that speed on the same core and in the same process as the workload.
Its CPU time (not wall time, so preemption does not count) gives the speed,
and measured times are scaled by PROBE_REF_S times the mean of 1 / probe.
Probe time is subtracted from the measured intervals.  The probe uses only
Python and numpy, never driftlab, so no change to driftlab can move it.
"""
import signal
import time

import numpy as np

SAMPLE_S = 0.25
# about the probe's harmonic-mean CPU time during the workloads on the 2-core
# Xeon the benchmark was defined on (4.6-6.4 ms), so scaled seconds there stay
# close to raw ones
PROBE_REF_S = 0.005

# the solver's working set: one 256^2 field, as in blowup
_A = np.random.default_rng(0).random((256, 256))


def probe():
    """A fixed mix of interpreter work and one 256^2 FFT round trip."""
    s = 0
    for i in range(25_000):
        s += i * i
    b = np.fft.ifftn(np.fft.fftn(_A)).real
    b = np.roll(b, 1, 0) - 0.5 * b
    return s


class Sampler:
    """Runs the probe periodically and keeps (phase, cpu_s, wall_s) samples."""

    def __init__(self):
        self.phase = "setup"
        self.samples = []

    def sample(self):
        w0, c0 = time.perf_counter(), time.thread_time()
        probe()
        self.samples.append((self.phase, time.thread_time() - c0, time.perf_counter() - w0))

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def summary(self, *phases):
        """Probe count and harmonic-mean CPU time over the phases, and the
        probe wall time inside the first phase (the part to subtract from its
        interval).  The harmonic mean is the mean sampled speed: the work
        done in an interval is its time integral of speed."""
        cpu = [c for p, c, _ in self.samples if p in phases]
        wall = sum(w for p, _, w in self.samples if p == phases[0])
        return {"probes": len(cpu), "probe_s": len(cpu) / sum(1.0 / c for c in cpu),
                "probe_wall_s": wall, "samples": cpu}


def current_cpu():
    with open("/proc/self/stat", "rb") as f:
        data = f.read()
    return int(data[data.rindex(b")") + 2:].split()[36])
