"""Desk-scale laboratory for SVD preprocessing effects in contrastive learning."""

import os

__version__ = "0.1.0"

# BLAS threads can change how a product is summed, and so the last bits of an
# artifact: each of these variables that is unset is pinned to 1 here, before
# any ctlab module loads numpy.  Every run's manifest records the setting.
BLAS_THREADS = " ".join(
    f"{var}={os.environ.setdefault(var, '1')}"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
)
