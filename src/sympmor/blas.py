"""Run a block on one OpenBLAS thread.  Under default threads the direct Stiefel
step's timings scatter widely enough to fail acceptance 7's scaling gate.  numpy
and scipy wheels each bundle an OpenBLAS with its own symbols; other BLAS builds
are left alone, and no environment variable is set."""

import contextlib
import ctypes
import importlib

_CONTROLS = []   # (get, set) thread-count functions of each bundled OpenBLAS found
for _module, _symbol in (("numpy._core._multiarray_umath", "scipy_openblas_{}_num_threads64_"),
                         ("scipy.linalg._fblas", "scipy_openblas_{}_num_threads")):
    try:
        _lib = ctypes.CDLL(importlib.import_module(_module).__file__)
        _get, _set = (getattr(_lib, _symbol.format(op)) for op in ("get", "set"))
        _get.restype, _set.restype, _set.argtypes = ctypes.c_int, None, [ctypes.c_int]
        _CONTROLS.append((_get, _set))
    except (ImportError, OSError, AttributeError):
        pass


@contextlib.contextmanager
def single_thread():
    """Set each bundled OpenBLAS to one thread; restore its count on exit."""
    saved = [(count, set_) for get, set_ in _CONTROLS if (count := get()) != 1]
    for _, set_ in saved:
        set_(1)
    try:
        yield
    finally:
        for count, set_ in saved:
            set_(count)
