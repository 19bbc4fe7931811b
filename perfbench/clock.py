"""Machine-speed calibration for timed seconds.

The 2-core VM this benchmark was defined on swings between speed states
that last from seconds to minutes. In the slow state the same noiseless
trial takes up to 75% longer, and a whole run can sit inside one state, so
no estimator inside a run can remove the swing. The fixed kernel below is
two thirds interpreter-bound work (small numpy slice operations, like the
greedy loop and the denoisers; scalar math, like the bound kernels) and
one third an `eigh`, like the spectral denoiser. Interpreter-bound work slows
by more in the slow state than compiled numerical code. Against the
interpreter half alone, op times moved with its slowdown to the power
0.75 (sim-noisy), 0.9 (sim-noiseless, a spectral-bound evaluation) and
0.65 (a direct bridging trial), so calibrated times still swung with the
state. Against the mixed kernel the powers were 0.87, 1.04, 1.02 and
0.73, and 1.08 to 1.10 for the ML and assembly solves. An even split of
interpreter work and `eigh` over-corrected the solves (1.08 to 1.16).

The kernel runs BURST times every EVERY_S seconds, between ops, between
the steps of a long op and at a workload's tick points inside long
calls. Each batch of ops is divided by the time-weighted mean slowdown
across it, against NOMINAL_S.

Calibrated seconds are wall seconds rescaled to the speed at which the
kernel takes NOMINAL_S. The kernel is benchmark code, so a change to the
package cannot move it.

Process start-up (the interpreter, imports, the page cache) does not slow
in step with the kernel: over 46 set-ups on that VM, groups of nine
calibrated by the kernel spread by 48%. Set-up is therefore rescaled by a
reference process that imports numpy and click, as every set-up does, and
that no package change can move; the same groups then spread by 6%.
"""

from __future__ import annotations

import bisect
import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_S = 5.25e-3  # about the kernel's median time on that VM
EVERY_S = 0.25      # calibrate between ops at most this often
BURST = 3           # kernel runs per calibration sample
REFERENCE = ("-c", "import time, numpy, click; print(time.perf_counter())")
REFERENCE_NOMINAL_S = 0.14  # about the reference's median time on that VM


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


_SYMMETRIC = np.random.default_rng(0).standard_normal((128, 128))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T


def kernel() -> float:
    """A third small numpy slice operations (the greedy loop, the
    denoisers), a third scalar math with small records (the bound
    kernels), a third a symmetric eigendecomposition the size of a
    spectral block (about 129 rows in sim-noisy), as in spectral_denoise."""
    a = np.zeros((2, 300), np.int8)
    v = np.ones(50, np.int8)
    s = 0.0
    for i in range(350):
        seg = a[i % 2, 10:60]
        known = seg != 0
        s += int(((seg == v) & known).sum())
    for k in range(1400):
        x = math.exp(-(k % 50) / 7.0)
        s += x * math.exp(-x) + math.log1p(x)
        _Pair(x, s)
    np.linalg.eigh(_SYMMETRIC)
    return s


def slowdown() -> float:
    """One kernel run, as a multiple of NOMINAL_S."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) / NOMINAL_S


class Calibrator:
    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        self.spent = 0.0  # seconds spent calibrating, to subtract from ops

    def sample(self, force: bool = False) -> None:
        """A sample is the median of BURST kernel runs, so that one run
        interrupted by the host does not count as a slow state."""
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= EVERY_S:
            runs = sorted(slowdown() for _ in range(BURST))
            self.values.append(runs[BURST // 2])
            self.times.append(time.perf_counter())
            self.spent += self.times[-1] - now

    def factor(self, t0: float, t1: float) -> float:
        """Time-weighted mean slowdown over [t0, t1]. Each stretch between
        consecutive samples takes the mean of the two samples bounding it,
        so a long call with no sample inside it (a 10,000-trial chain, a
        spectral solve) is rescaled by the samples just before and after
        it, not by those of the rest of the op."""
        ts, vs = self.times, self.values
        lo = bisect.bisect_right(ts, t0)
        edges = [t0, *ts[lo:bisect.bisect_left(ts, t1)], t1]
        total = 0.0
        for k, (a, b) in enumerate(zip(edges, edges[1:])):
            before = vs[max(lo - 1 + k, 0)]
            after = vs[min(lo + k, len(vs) - 1)]
            total += (b - a) * (before + after) / 2
        return total / (t1 - t0)


def timed_process(cmd: list[str], **kwargs) -> float:
    """Seconds from starting a process to the perf_counter reading it
    prints last; that clock is system-wide. Timing up to the exit instead
    would add subprocess's polling for it, which rounds to 50 ms steps."""
    t0 = time.perf_counter()
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=170, **kwargs).stdout
    return float(out.split()[-1]) - t0


def reference_slowdown() -> float:
    """One reference process, as a multiple of REFERENCE_NOMINAL_S."""
    return timed_process([sys.executable, *REFERENCE]) / REFERENCE_NOMINAL_S
