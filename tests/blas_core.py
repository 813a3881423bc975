"""The OpenBLAS core (kernel set) numpy runs on, which sets the last bits of BLAS
and LAPACK results, and so of the byte-golden hashes in `test_cli.py`.

`OPENBLAS_CORETYPE` selects another core for one process. To print the name:

    python tests/blas_core.py
"""

import ctypes
import glob
import os

import numpy as np


def blas_core() -> str:
    """The core name numpy's bundled OpenBLAS reports, or "unavailable"."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unavailable"


if __name__ == "__main__":
    print(blas_core())
