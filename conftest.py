"""Test-session set-up shared by tests/ and perfbench/.

One BLAS thread unless the caller chose otherwise, as perfbench/run.py
does: with a thread per core, the N = 256 eigensolves of the acceptance
tests oversubscribe a small host and slow down under any other load.
OpenBLAS reads the setting once, when numpy loads, so it is made here,
before any test module imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
