"""Host speed, measured with a fixed reference kernel, to scale timings by.

The benchmark's hosts are shared: a fixed single-threaded numpy kernel
timed back to back on the 2-core VM of the baseline ran at 0.7–1.3 × its
median speed, in swings of a few seconds and in drifts over minutes, with
CPU time moving as much as wall time.  A run's raw round times follow the
host, so two runs of the same code minutes apart disagree by more than any
useful regression bound.

So every timed interval (a set-up, round 0, each steady round) is
bracketed by a pass of :func:`reference_s`, and reported scaled to a fixed
host speed::

    scaled = interval * NOMINAL_S / mean(reference before, reference after)

The kernel is plain numpy that never calls the program, so a change to the
program moves scaled times by the same factor as raw ones, while a slower
host slows both the interval and the kernel and cancels out.  The kernel is
the kind of work the program does: small float64 matmuls and elementwise
ops, a few dozen numpy calls per step, as in a minibatch step of a small
model.  Work that follows the host's speed less than the kernel does (disk
writes, work spread over worker processes) is over-corrected.  The
kernel's own time is kept out of every interval.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the baseline host (2-core Intel Xeon VM, numpy 2.4
# with OpenBLAS at 1 thread) when that host is quiet, so scaled times read
# as that host's wall seconds at its quiet speed.  A constant: changing it
# rescales every timing.
NOMINAL_S = 0.033

_STEPS = 900
_rng = np.random.default_rng(20240607)
_X = _rng.standard_normal((32, 144))
_Y = _rng.standard_normal((32, 10))
_W1 = _rng.standard_normal((144, 64)) * 0.1
_W2 = _rng.standard_normal((64, 10)) * 0.1


def reference_s() -> float:
    """Wall seconds of one pass of the reference kernel: ``_STEPS`` SGD
    steps of a 144-64-10 ReLU network on a fixed batch of 32."""
    started = time.perf_counter()
    w1, w2 = _W1.copy(), _W2.copy()
    for _ in range(_STEPS):
        hidden = _X @ w1
        active = np.maximum(hidden, 0.0)
        grad_out = active @ w2 - _Y
        grad_hidden = (grad_out @ w2.T) * (hidden > 0.0)
        w2 -= 1e-3 * (active.T @ grad_out)
        w1 -= 1e-3 * (_X.T @ grad_hidden)
    return time.perf_counter() - started


def scaled(interval_s: float, reference_before: float, reference_after: float) -> float:
    """``interval_s`` as it would read on a host where the kernel takes
    ``NOMINAL_S``, from the kernel's time at both ends of the interval."""
    return interval_s * NOMINAL_S * 2.0 / (reference_before + reference_after)
