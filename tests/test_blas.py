"""blas: numpy's bundled OpenBLAS runs one thread inside `single_thread` and gets
its own count back after it, also when the block raises; the bound LAPACK
routines and their scipy fallback give the same FOM trajectories."""

import numpy as np
import pytest

from sympmor import blas
from sympmor.integrators import implicit_midpoint
from sympmor.models import (SgKind, sg_build, sg_initial, sg_system, wave_build, wave_initial,
                            wave_system)


def _counts():
    return [get() for get, _ in blas._CONTROLS]


def test_single_thread_sets_one_and_restores():
    saved = _counts()
    ran = []
    try:
        for _, set_ in blas._CONTROLS:
            set_(2)
        with blas.single_thread():
            assert _counts() == [1] * len(blas._CONTROLS)
            ran.append("plain")
        assert _counts() == [2] * len(blas._CONTROLS)
        with pytest.raises(RuntimeError, match="inside the block"):
            with blas.single_thread():
                assert _counts() == [1] * len(blas._CONTROLS)
                ran.append("raising")
                raise RuntimeError("inside the block")
        assert _counts() == [2] * len(blas._CONTROLS)
    finally:
        for count, (_, set_) in zip(saved, blas._CONTROLS):
            set_(count)
    # without a bundled OpenBLAS there is nothing to set, but the block still runs
    assert ran == ["plain", "raising"]


def _fom_trajectories():
    sg = sg_build(40, 0.35, -10.0, 10.0, SgKind.SingleSoliton)
    wave = wave_build(32, 0.5)
    return (implicit_midpoint(sg_system(sg), sg_initial(sg), 0.0, 2.0, 20).states,
            implicit_midpoint(wave_system(wave), wave_initial(32, 0.5), 0.0, 1.0, 50).states)


def test_scipy_fallback_matches_bundled_lapack(monkeypatch):
    """With the bundled routines hidden, the FOMs solve through scipy.linalg.lapack
    and the triangular inverse is np.linalg.inv: the sine-Gordon FOM is bitwise
    the same (both run dgtsv), the wave FOM and the inverse agree to 1e-14."""
    U = np.eye(30) + np.triu(np.random.default_rng(0).standard_normal((30, 30)) / 30, 1)
    sg, wave = _fom_trajectories()
    inverse = blas.unit_upper_inverse(U.copy())
    monkeypatch.setattr(blas, "_LAPACK", {})
    sg_scipy, wave_scipy = _fom_trajectories()
    assert np.array_equal(sg, sg_scipy)
    assert np.linalg.norm(wave - wave_scipy) <= 1e-14 * np.linalg.norm(wave_scipy)
    assert np.linalg.norm(inverse - np.linalg.inv(U)) <= 1e-14 * np.linalg.norm(inverse)
    assert np.array_equal(np.tril(inverse, -1), np.zeros((30, 30)))


def test_bundled_lapack_binds_where_numpy_bundles_it():
    """A numpy built on scipy-openblas must bind all four routines; a renamed
    symbol would otherwise fall back to scipy silently and bring its import back."""
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):   # numpy < 1.25 has no mode="dicts"
        pytest.skip("numpy reports no build dependencies")
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {lapack.get('name')!r}, not scipy-openblas")
    assert sorted(blas._LAPACK) == ["dgtsv", "dgttrf", "dgttrs", "dtrtri"]
