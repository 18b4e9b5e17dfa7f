"""Host-speed probe: a fixed reference computation that uses no ptqkit code.

The benchmark's host changes speed within seconds and over minutes, by up
to 1.5x, and CPU time moves with wall time, so the cause is the processor,
not scheduling. The probe is timed between jobs and between set-ups. The
mean time of the probes next to a job, over REF_S, is its host factor. A
time divided by its host factor is what that work would take on a host
where the probe takes REF_S. A change to ptqkit moves the job times and not
the probe, so it shows in full.

The probe is 24 fake-quantize-and-MSE passes over a 256x768 array. Of the
probes tried (this one, a Python loop of numpy calls on a 16-element array,
and both mixed) it tracked the job times of all three workloads best or
second best; the README gives the figures.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.02
PASSES = 24

_X = np.random.default_rng(0).standard_normal((256, 768))
# The passes write into this buffer, so that the probe allocates nothing:
# the time of a fresh large allocation depends on the allocator's state,
# which the jobs before the probe change.
_BUF = np.empty_like(_X)


def probe() -> float:
    """Wall time of one run of the reference computation, in seconds.

    An untimed copy first brings both arrays into cache, so that the time
    does not depend on how much of the cache the work before the probe
    used: a set-up process evicts them, a `pipeline` job does not.
    """
    np.copyto(_BUF, _X)
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(PASSES):
        step = 0.01 + k * 1e-3
        np.divide(_X, step, out=_BUF)
        np.round(_BUF, out=_BUF)
        np.clip(_BUF, -128, 127, out=_BUF)
        np.multiply(_BUF, step, out=_BUF)
        np.subtract(_BUF, _X, out=_BUF)
        np.square(_BUF, out=_BUF)
        acc += float(_BUF.mean())
    if not np.isfinite(acc):
        raise RuntimeError("host-speed probe computed a non-finite sum")
    return time.perf_counter() - t0


def host_factor(probes: list[float]) -> float:
    """How much slower the host ran than one where the probe takes REF_S."""
    return sum(probes) / len(probes) / REF_S
