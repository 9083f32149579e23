"""blas.single_thread: numpy's bundled OpenBLAS runs one thread inside the block and
gets its own count back after it, also when the block raises."""

import pytest

from sympmor import blas


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
