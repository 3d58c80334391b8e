"""Host-speed reference for the end-to-end timings.

On a shared host the same single-threaded computation runs up to 1.7 times
faster or slower, in CPU time as well as in wall time, in phases that last
from seconds to minutes, as other tenants load the machine.  Timed raw, one
run of a workload differs from the next by as much as the regression bounds
allow.

So every timed chunk of work is bracketed by a fixed reference computation
that uses no ginfield code: an interpreter loop, a LAPACK eigensolve, array
Bessel calls and random arrays larger than the caches, the kinds of work the
workloads do.  A chunk's time is scaled by REF_SECONDS over the mean of the
reference times taken just before and just after it.  The result is the time
the chunk would take on a host on which the reference takes REF_SECONDS, so
a slow or fast phase of the host cancels while a change to ginfield does
not.  The raw times are kept in the run record.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special

# Reference time of one probe on a 2-core x86-64 host with one BLAS thread.
REF_SECONDS = 0.04

_MATRIX = np.random.default_rng(np.random.SeedSequence(20151029)).standard_normal((96, 96))
_X = np.linspace(0.0, 50.0, 4000)


def _reference():
    acc = 0.0
    for i in range(60000):
        acc += math.sqrt(i) * (i % 7)
    acc += float(np.sum(np.abs(np.linalg.eigvals(_MATRIX))))
    for n in range(4):
        acc += float(np.sum(special.jv(n, _X)))
    rng = np.random.default_rng(np.random.SeedSequence(20151029))
    acc += float(np.sum(rng.standard_normal(1 << 19) ** 2))
    return acc


def probe():
    """Wall and CPU seconds of one reference computation."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    _reference()
    return time.perf_counter() - t0, time.process_time() - c0


def scaled(seconds, refs):
    """Sum of seconds[i] * REF_SECONDS / mean(refs[i], refs[i + 1]): the
    reference-host time of chunks whose probes, one before each chunk and
    one after the last, are refs."""
    return sum(
        s * 2.0 * REF_SECONDS / (before + after)
        for s, before, after in zip(seconds, refs[:-1], refs[1:], strict=True)
    )
