"""Pin OpenBLAS to one thread, so that output bytes do not depend on the
machine's default BLAS thread count or on how many worker processes run.

numpy's wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas*.so`` and
export ``scipy_openblas_{get,set}_num_threads64_``; the thread count is
read and set through those symbols with ctypes. Where the library or the
symbols are absent (another numpy build), ``single_blas_thread`` warns once
and leaves the count alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import warnings

import numpy as np


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set) ctypes functions of numpy's bundled OpenBLAS, or None."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas*.so*")
    for lib in sorted(glob.glob(pattern)):
        try:
            handle = ctypes.CDLL(lib)
            get = handle.scipy_openblas_get_num_threads64_
            set_ = handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    warnings.warn("numpy's bundled OpenBLAS thread controls were not found; "
                  "the BLAS thread count is left as is, so results may "
                  "depend on it", RuntimeWarning)
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with OpenBLAS at one thread; restore the count after.

    Also usable as a function decorator."""
    funcs = _openblas()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    before = int(get())
    set_(1)
    try:
        yield
    finally:
        set_(before)
