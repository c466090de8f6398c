"""Human activity recognition from raw inertial windows.

Spectral features (FFT magnitudes + Welch PSD) feed a from-scratch
two-channel 1-D CNN; training, evaluation, and the CLI live in the
submodules.
"""

import os

# One BLAS thread unless the user chose otherwise: the pool's size changes the
# GEMMs' summation order, so output bytes would depend on the CPU count. numpy
# sizes the pool when it loads, so a process that imported it first is unpinned.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
