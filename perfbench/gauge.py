"""A fixed reference kernel that gauges how fast the CPU under a thread runs.

On a shared virtual machine the speed of each virtual CPU swings by up to
±25 % in stretches of a few seconds (its host core is shared with other
tenants), and the CPU seconds a piece of work takes swing with it.  The
swings of the two virtual CPUs are unrelated (in a probe, the correlation
of their half-second speeds was 0.09), so only a kernel timed on the same
CPU, right next to the work, sees the speed the work ran at.

``scaled(work_s, gauge_s)`` turns the work's CPU seconds into CPU seconds
at the reference speed: ``work_s`` times ``REFERENCE_S`` over the mean
CPU seconds of the middle half of the kernel runs in ``gauge_s``.  Over
ten seeds, ``train-quality``'s CPU per epoch cycle spread 0.05 scaled;
unscaled it spread 0.14 over five seeds (see ``README.md``).
"""

from __future__ import annotations

import os
import time

import numpy as np

#: CPU seconds of one ``run()`` at the reference speed: the lower decile
#: of 2,000 back-to-back runs (warm caches) on the 2-vCPU virtual machine
#: the benchmark was built on.  Only a scale: any fixed value compares two
#: commits the same way.  Next to the workloads the kernel runs on cold
#: caches and takes longer, so scaled CPU seconds read below raw ones.
REFERENCE_S = 0.75e-3

_RNG = np.random.default_rng(0)
_LEFT = _RNG.standard_normal((128, 32))
_RIGHT = _RNG.standard_normal((32, 600))
_INDEX = _RNG.integers(0, 600, 2048)


def run() -> float:
    """Run the kernel once; return the CPU seconds it took on this thread.

    Its mix is the program's: a small float64 product, an elementwise
    kernel, a gather and a reduction, and a Python loop over scalars.  It
    runs on whatever the measured work left in the caches, so it is slowed
    by the same contention for caches and memory as the work.  (A variant
    with a quarter of the data and an untimed pass to warm it first tracked
    the work worse: scaled by it, ``serve-steady``'s figure spread 0.15
    over three seeds instead of 0.03 over five.)
    """
    started = time.thread_time()
    product = _LEFT @ _RIGHT
    np.tanh(product, out=product)
    float(product[:, _INDEX].sum())
    sum(float(value) for value in product[0, :200])
    return time.thread_time() - started


def runs(cpus, count: int) -> list:
    """``count`` runs on each CPU in ``cpus`` (this thread moves there, then
    back), or where this thread is when ``cpus`` is ``None``."""
    if cpus is None:
        return [run() for _ in range(count)]
    home = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times += [run() for _ in range(count)]
    finally:
        os.sched_setaffinity(0, home)
    return times


def middle_mean(values) -> float:
    """Mean of the middle half of ``values`` (a quarter left out at each end).

    A stall of the virtual CPU can land in a timed stretch and make it read
    hundreds of times too long: in one ``serve-reload`` run the first gauge
    took 0.33 s for 20 runs of about 1 ms each, and the plain mean of the
    run's gauges halved the scaled figure.  The middle half ignores such
    outliers and still averages over most samples.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return float(sum(middle)) / len(middle)


def scaled(work_s: float, gauge_s) -> float:
    """``work_s`` CPU seconds at the reference speed, given the kernel's
    CPU seconds ``gauge_s`` measured alongside the work."""
    return work_s * REFERENCE_S / middle_mean(gauge_s)
