"""Machine-speed calibration, so that times from a shared host compare.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same scenario took 18.9 s in one round and 27.9 s twenty minutes
later, with CPU time equal to wall time, so the time was not lost waiting
but spent on slower cores.  This module, run as a script, is a calibrator
process that shares one CPU with the measured process.  Every
``INTERVAL_S`` it wakes, times one fixed sample (a short pure-Python loop
plus NumPy arithmetic on small arrays) in its own CPU time, and sleeps
again.  A time measured on that CPU is reported in reference seconds: the
measured seconds times ``REF_SAMPLE_S`` over the mean time of the samples
taken while it was measured, i.e. what the work would take on a machine on
which one sample takes ``REF_SAMPLE_S``.

The calibrator runs in its own process, so it changes nothing inside the
measured one; it takes about 2 % of the shared CPU, and the runner takes
its samples' time off the measured time.

Protocol: the calibrator prints ``ready`` once warm, samples until its
standard input closes, then prints its samples as one JSON list of
``[start, seconds]`` pairs, ``start`` on the system's monotonic clock.
"""

from __future__ import annotations

import json
import select
import sys
import time

import numpy as np

REF_SAMPLE_S = 2e-3
INTERVAL_S = 0.1

_X = np.linspace(1.0, 2.0, 4096)
_Y = np.empty_like(_X)
_SMALL = np.linspace(1.0, 2.0, 64)
_SMALL_OUT = np.empty_like(_SMALL)


def sample():
    """Run one calibration sample; return its CPU time in seconds.

    The mix follows the library's: interpreted arithmetic, NumPy calls on
    arrays of a few thousand points, and many NumPy calls on tiny arrays,
    whose cost is call overhead.  Of the mixes tried, this one followed
    the scenarios' drift most closely.  CPU time, not wall time: the
    scheduler may switch to the measured process in the middle of a
    sample.
    """
    start = time.thread_time()
    acc = 0.0
    for i in range(2400):
        acc += (i * 0.5) % 3.0
    for _ in range(80):
        np.sqrt(_X, out=_Y)
        np.multiply(_Y, 1.0001, out=_Y)
        acc += _Y.sum()
    for _ in range(300):
        np.maximum(_SMALL, _SMALL_OUT, out=_SMALL_OUT)
        np.multiply(_SMALL, 0.5, out=_SMALL_OUT)
    return time.thread_time() - start


def to_reference(seconds, mean_sample_s):
    """Measured seconds as reference seconds."""
    return seconds * REF_SAMPLE_S / mean_sample_s


def main():
    for _ in range(20):
        sample()
    print("ready", flush=True)
    samples = []
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.buffer.read1(4096):
            break
        samples.append((time.monotonic(), sample()))
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
