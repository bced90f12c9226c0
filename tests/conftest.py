"""One BLAS thread for the test session unless the caller chose otherwise,
as the command line does; set before any test module imports numpy."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
