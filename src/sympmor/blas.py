"""Run a block on one OpenBLAS thread.  Under default threads the direct Stiefel
step's timings scatter widely enough to fail acceptance 7's scaling gate.  The
step calls BLAS and LAPACK through numpy alone, so only the OpenBLAS bundled
with the numpy wheel is set; other BLAS builds are left alone, and no
environment variable is set."""

import contextlib
import ctypes
import importlib

_CONTROLS = []   # the (get, set) thread-count functions of numpy's bundled OpenBLAS, if found
try:
    _lib = ctypes.CDLL(importlib.import_module("numpy._core._multiarray_umath").__file__)
    _get, _set = (getattr(_lib, f"scipy_openblas_{op}_num_threads64_") for op in ("get", "set"))
    _get.restype, _set.restype, _set.argtypes = ctypes.c_int, None, [ctypes.c_int]
    _CONTROLS.append((_get, _set))
except (ImportError, OSError, AttributeError):
    pass


@contextlib.contextmanager
def single_thread():
    """Set numpy's bundled OpenBLAS to one thread; restore its count on exit."""
    saved = [(count, set_) for get, set_ in _CONTROLS if (count := get()) != 1]
    for _, set_ in saved:
        set_(1)
    try:
        yield
    finally:
        for count, set_ in saved:
            set_(count)
