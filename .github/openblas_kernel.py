"""Prints the kernel that numpy's bundled OpenBLAS runs, or "unknown" for
another BLAS. Given a kernel name, exits 1 unless that kernel runs:
OpenBLAS silently falls back to its default kernel when OPENBLAS_CORETYPE
names one it cannot use, so only the name it reports shows what ran.

    OPENBLAS_CORETYPE=Haswell python .github/openblas_kernel.py Haswell
"""

import ctypes
import glob
import os
import sys

import numpy


def kernel() -> str:
    try:
        (lib,) = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                                        "libscipy_openblas*"))
        corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    except (ValueError, OSError, AttributeError):
        return "unknown"


name = kernel()
print(name)
if len(sys.argv) > 1 and name != sys.argv[1]:
    sys.exit(f"expected OpenBLAS's {sys.argv[1]} kernel, got {name}")
