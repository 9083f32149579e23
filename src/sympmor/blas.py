"""numpy's bundled OpenBLAS, reached through ctypes: its thread count, and the
four LAPACK routines that the FOM solvers and the homogeneous section call.

Threads.  Under default threads the direct Stiefel step's timings scatter
widely enough to fail acceptance 7's scaling gate.  The step calls BLAS and
LAPACK through numpy alone, so `single_thread` sets only the OpenBLAS bundled
with the numpy wheel; other BLAS builds are left alone, and no environment
variable is set.

LAPACK.  numpy's wheels export ILP64 LAPACK as ``scipy_<name>_64_``: every
integer argument is an int64 passed by reference, and gfortran appends a
hidden ``size_t`` length for each character argument.  The tridiagonal solvers
keep fixed work buffers whose addresses are taken once; each closure holds
every array whose address it passes.  Where a symbol is missing (another numpy
build), the tridiagonal solvers fall back to ``scipy.linalg.lapack`` and the
triangular inverse to ``np.linalg.inv``, so the manifold path never imports
scipy.
"""

import contextlib
import ctypes
import importlib

import numpy as np

_CONTROLS = []   # the (get, set) thread-count functions of numpy's bundled OpenBLAS, if found
_LAPACK = {}     # routine name -> its ctypes function in numpy's bundled OpenBLAS, if found
# routine -> (pointer arguments, hidden character lengths)
_SIGNATURES = {"dgtsv": (8, 0), "dgttrf": (7, 0), "dgttrs": (11, 1), "dtrtri": (6, 2)}
try:
    _lib = ctypes.CDLL(importlib.import_module("numpy._core._multiarray_umath").__file__)
    _get, _set = (getattr(_lib, f"scipy_openblas_{op}_num_threads64_") for op in ("get", "set"))
    _get.restype, _set.restype, _set.argtypes = ctypes.c_int, None, [ctypes.c_int]
    _CONTROLS.append((_get, _set))
    _found = {name: getattr(_lib, f"scipy_{name}_64_") for name in _SIGNATURES}
    for name, (pointers, lengths) in _SIGNATURES.items():
        _found[name].restype = None
        _found[name].argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * lengths
    _LAPACK.update(_found)
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


def _addresses(ints):
    """The address of each entry of an int64 array, for by-reference arguments."""
    base = ints.ctypes.data
    return [base + 8 * i for i in range(len(ints))]


def tridiagonal_solver(n):
    """solve(off, main, b) -> x with tridiag(off, main, off) x = b of order n, by
    LAPACK dgtsv (Gaussian elimination with partial pivoting) at O(n).

    off is a number or an (n - 1)-array, main an n-array.  x is the solver's own
    buffer, overwritten by the next solve.  An exactly zero pivot raises
    np.linalg.LinAlgError.
    """
    dl = np.zeros(max(n - 1, 1))   # dgtsv takes bands of length >= 1
    gtsv = _LAPACK.get("dgtsv")
    if gtsv is None:
        from scipy.linalg.lapack import dgtsv

        def solve(off, main, rhs):
            dl[:n - 1] = off
            *_, x, info = dgtsv(dl, main, dl, rhs)
            return _checked(x, info)

        return solve

    du, d, b = np.zeros(max(n - 1, 1)), np.zeros(n), np.zeros(n)
    ints = np.array([n, 1, n, 0], dtype=np.int64)   # N, NRHS, LDB, INFO
    n_, nrhs, ldb, info = _addresses(ints)
    args = (n_, nrhs, dl.ctypes.data, d.ctypes.data, du.ctypes.data, b.ctypes.data, ldb, info)

    def solve(off, main, rhs):
        dl[:n - 1] = off
        du[:n - 1] = off
        d[:] = main
        b[:] = rhs
        gtsv(*args)
        return _checked(b, ints[3])

    return solve


def tridiagonal_factor(off, main):
    """Factor T = tridiag(off, main, off) of order n = len(main) once, by LAPACK
    dgttrf; returns solve(b) -> T^{-1} b, one dgttrs at O(n).

    x is the solver's own buffer, overwritten by the next solve.  An exactly
    zero pivot of the factor raises np.linalg.LinAlgError here.  scipy's
    fallback wrapper needs n >= 3.
    """
    n = len(main)
    dl, du = np.zeros(max(n - 1, 1)), np.zeros(max(n - 1, 1))
    dl[:n - 1] = du[:n - 1] = off
    d = np.array(main, dtype=float)
    gttrf, gttrs = _LAPACK.get("dgttrf"), _LAPACK.get("dgttrs")
    if gttrf is None or gttrs is None:
        from scipy.linalg.lapack import dgttrf, dgttrs

        *lu, info = dgttrf(dl[:n - 1], d, du[:n - 1])
        _checked(None, info)
        return lambda rhs: _checked(*dgttrs(*lu, rhs))

    du2, ipiv, b = np.zeros(max(n - 2, 1)), np.zeros(n, dtype=np.int64), np.zeros(n)
    ints = np.array([n, 1, n, 0], dtype=np.int64)   # N, NRHS, LDB, INFO
    n_, nrhs, ldb, info = _addresses(ints)
    lu = (dl.ctypes.data, d.ctypes.data, du.ctypes.data, du2.ctypes.data, ipiv.ctypes.data)
    gttrf(n_, *lu, info)
    _checked(None, ints[3])
    args = (b"N", n_, nrhs, *lu, b.ctypes.data, ldb, info, 1)

    def solve(rhs):
        b[:] = rhs
        gttrs(*args)
        return _checked(b, ints[3])

    solve.factor = (dl, d, du, du2, ipiv)   # gttrs reads these by address: they live with solve
    return solve


def _checked(x, info):
    """x, or np.linalg.LinAlgError for LAPACK's info > 0 (an exactly zero pivot)."""
    if info > 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix (pivot {int(info)})")
    return x


def unit_upper_inverse(U):
    """U^{-1} for a C-ordered float64 square U with ones on its diagonal and
    zeros below it, by LAPACK dtrtri in place of U (np.linalg.inv without the
    bundled routine).  In column-major order LAPACK sees U^T, unit lower."""
    trtri = _LAPACK.get("dtrtri")
    if trtri is None:
        return np.linalg.inv(U)
    if U.dtype != np.float64 or not U.flags.c_contiguous or U.shape[0] != U.shape[1]:
        raise ValueError("need a C-ordered float64 square matrix")
    ints = np.array([U.shape[0], U.shape[0], 0], dtype=np.int64)   # N, LDA, INFO
    n_, lda, info = _addresses(ints)
    trtri(b"L", b"U", n_, U.ctypes.data, lda, info, 1, 1)
    return U
