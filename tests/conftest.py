"""Test-session setup shared by every test module.

One BLAS thread per process: the suite's dense spectra are small stacked
matrices, for which a second OpenBLAS thread only competes with the other
work on the machine.  The variables must be set before numpy is first
imported, which pytest does only after loading this file; a value already
set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
