"""Homogeneous-space lift/retract against dense N x N oracles."""

from dataclasses import replace

import numpy as np
import pytest

from sympmor.errors import DimensionError, SectionDegenerateError
from sympmor.homogeneous import (
    _WY_BLOCK,
    _complement,
    _wy,
    horizontal_pointwise,
    lift_to_global,
    retract_global,
    section_qr,
)
from sympmor.optimizers import AdamHyper, HomogeneousAdamCache, homogeneous_psd_update
from sympmor.stiefel import StiefelPoint, cayley_retract, project_tangent, random_stiefel, skew


def rand_tangent(X, seed):
    rng = np.random.default_rng(seed)
    return project_tangent(X, rng.standard_normal(X.shape))


def lift_omega(X, Z):
    """Dense lift Omega_X(Z) = (I - XX^T/2) Z X^T - X Z^T (I - XX^T/2); test-only path."""
    Z.require_anchor(X)
    A, B = X.data, Z.data
    half = B - 0.5 * A @ (A.T @ B)
    M = half @ A.T
    return M - M.T


def complement(sec):
    """lambda_bar, formed by applying the implicit section to I_{N-n} (test-only)."""
    N, n = sec.base.shape
    return _complement(sec, np.eye(N - n))


def dense(V):
    """Dense N x N horizontal element [[W, -C^T], [C, 0]] of the blocks V = [W; C]."""
    N, n = V.shape
    M = np.zeros((N, N))
    M[:, :n] = V
    M[:n, n:] = -V[n:].T
    return M


def test_section_qr_orthogonal_completion():
    X = random_stiefel(9, 3, 0)
    sec = section_qr(X, seed=5)
    lam = np.hstack([X.data, complement(sec)])
    assert lam.shape == (9, 9)
    assert np.linalg.norm(lam.T @ lam - np.eye(9)) < 1e-12
    # deterministic in the seed
    sec2 = section_qr(X, seed=5)
    assert np.array_equal(complement(sec), complement(sec2))
    sec3 = section_qr(X, seed=6)
    assert not np.array_equal(complement(sec), complement(sec3))
    with pytest.raises(DimensionError):
        section_qr(random_stiefel(3, 3, 0), seed=0)


@pytest.mark.parametrize("N, n", [(5, 4), (9, 3), (34, 4), (37, 4), (150, 4)])
def test_section_qr_matches_explicit_qr(N, n):
    """The implicit section is the thin Q that np.linalg.qr forms from the same
    seeded, deflated sample; (37, 4) ends in a one-reflector WY block and
    (150, 4) spans five blocks."""
    X = random_stiefel(N, n, 2)
    sec = section_qr(X, seed=8)
    assert len(sec.blocks) == -(-(N - n) // _WY_BLOCK)
    lam_bar = complement(sec)
    lam = np.hstack([X.data, lam_bar])
    assert np.abs(lam.T @ lam - np.eye(N)).max() <= 1e-12
    A = np.random.default_rng(8).standard_normal((N, N - n))
    A -= X.data @ (X.data.T @ A)
    assert np.abs(lam_bar - np.linalg.qr(A)[0]).max() <= 1e-12


def test_wy_identity_reflector_stays_finite():
    """A hand-built factor with tau = 0 (LAPACK's identity reflector) gives a
    finite W, and I - W V^T is the product of the reflectors."""
    rng = np.random.default_rng(3)
    V = np.tril(rng.standard_normal((7, 4)), -1) + np.eye(7, 4)
    tau = np.array([1.3, 0.0, 0.8, 0.0])
    W = _wy(V, tau)
    assert np.all(np.isfinite(W))
    assert not W[:, 1].any() and not W[:, 3].any()
    H = np.eye(7)
    for j in range(4):
        H = H @ (np.eye(7) - tau[j] * np.outer(V[:, j], V[:, j]))
    assert np.abs(np.eye(7) - W @ V.T - H).max() <= 1e-14


class _RepeatedColumns:
    """Generator stand-in whose sample repeats its first column."""

    def standard_normal(self, shape):
        A = np.random.Generator(np.random.PCG64(0)).standard_normal(shape)
        A[:, 1] = A[:, 0]
        return A


def test_section_qr_degenerate_sample_raises(monkeypatch):
    X = random_stiefel(12, 3, 0)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RepeatedColumns())
    with pytest.raises(SectionDegenerateError, match="rank-deficient"):
        section_qr(X, seed=0)
    egrad = np.random.Generator(np.random.PCG64(1)).standard_normal((12, 3))
    with pytest.raises(SectionDegenerateError):
        homogeneous_psd_update(AdamHyper(), HomogeneousAdamCache(12, 3), X, egrad, seed=0)


def test_lift_omega_dense():
    X = random_stiefel(7, 2, 1)
    Z = rand_tangent(X, 2)
    M = lift_omega(X, Z)
    assert np.linalg.norm(M + M.T) < 1e-12
    # Omega reproduces Z through the action: Omega_X(Z) X = Z
    assert np.linalg.norm(M @ X.data - Z.data) < 1e-11


def test_lift_to_global_matches_conjugation():
    X = random_stiefel(8, 3, 3)
    Z = rand_tangent(X, 4)
    sec = section_qr(X, seed=11)
    H = lift_to_global(sec, Z)
    lam = np.hstack([X.data, complement(sec)])
    oracle = lam.T @ lift_omega(X, Z) @ lam
    assert np.linalg.norm(dense(H) - oracle) < 1e-10
    # one compact N x n array whose top n x n block is skew
    assert H.shape == (8, 3)
    assert np.linalg.norm(H[:3] + H[:3].T) < 1e-11


def test_horizontal_pointwise_is_blockwise_adam():
    """Two steps of Adam on [W; C] against the same update on the dense elements.

    The dense first moment and update are made skew, as the stored W block is.
    """
    X = random_stiefel(7, 2, 3)
    sec = section_qr(X, seed=4)
    h = AdamHyper(eta=0.1)
    cache = HomogeneousAdamCache(7, 2)
    M1, M2 = np.zeros((7, 7)), np.zeros((7, 7))
    for step in range(2):
        B = lift_to_global(sec, rand_tangent(X, 10 + step))
        V = horizontal_pointwise(h, cache, B)
        c1, c1n, c2, c2n = h.moment_coeffs()
        G = dense(B)
        M1 = skew(c1 * M1 + c1n * G)
        M2 = c2 * M2 + c2n * G * G
        Vd = skew(-h.eta * M1 / np.sqrt(M2 + h.delta))
        assert V.shape == cache.B1.shape == cache.B2.shape == (7, 2)
        assert np.linalg.norm(dense(V) - Vd) < 1e-14
        assert np.linalg.norm(dense(cache.B1) - M1) < 1e-14
        # the stored blocks stay horizontal: W exactly skew
        assert np.array_equal(V[:2], -V[:2].T)
        h.t += 1
        h.beta1_t *= h.beta1
        h.beta2_t *= h.beta2


def test_retract_global_zero_is_identity():
    X = random_stiefel(6, 2, 9)
    sec = section_qr(X, seed=0)
    out = retract_global(sec, np.zeros((6, 2)))
    assert np.linalg.norm(out.data - X.data) < 1e-13


def test_retract_global_dense_cayley_oracle():
    X = random_stiefel(8, 3, 13)
    sec = section_qr(X, seed=21)
    Z = rand_tangent(X, 14)
    H = lift_to_global(sec, Z)
    out = retract_global(sec, H)
    # dense oracle: lambda cay(M/2) E with M the dense horizontal element
    lam = np.hstack([X.data, complement(sec)])
    M = dense(H)
    I = np.eye(8)
    cay = np.linalg.solve(I - 0.5 * M, I + 0.5 * M)
    E = np.zeros((8, 3))
    E[:3] = np.eye(3)
    oracle = lam @ cay @ E
    assert np.linalg.norm(out.data - oracle) < 1e-11
    assert out.ortho_residual() < 1e-10


def test_retract_global_agrees_with_manifold_retraction():
    # lifting Z and retracting in the group equals the Cayley retraction of Z
    X = random_stiefel(10, 3, 30)
    Z = rand_tangent(X, 31)
    sec = section_qr(X, seed=3)
    H = lift_to_global(sec, Z)
    via_group = retract_global(sec, H)
    via_manifold = cayley_retract(X, Z)
    assert np.linalg.norm(via_group.data - via_manifold.data) < 1e-10


def test_retract_global_renormalizes_drift():
    """A drifted output is re-orthonormalized inside the retraction, with a warning."""
    X = random_stiefel(8, 3, 13)
    sec = section_qr(X, seed=21)
    H = lift_to_global(sec, rand_tangent(X, 14))
    drifted = replace(sec, base=StiefelPoint(X.data * (1.0 + 5e-8), check=False))
    with pytest.warns(RuntimeWarning, match="re-orthonormalizing"):
        out = retract_global(drifted, H)
    assert out.ortho_residual() < 1e-12
    assert np.linalg.norm(out.data - retract_global(sec, H).data) < 1e-6
