"""Homogeneous-space lift/retract against dense N x N oracles."""

import numpy as np
import pytest

from sympmor.errors import DimensionError
from sympmor.homogeneous import (
    OrthoSection,
    horizontal_pointwise,
    lift_to_global,
    retract_global,
    section_qr,
)
from sympmor.optimizers import AdamHyper, HomogeneousAdamCache
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
    lam = np.hstack([X.data, sec.complement])
    assert lam.shape == (9, 9)
    assert np.linalg.norm(lam.T @ lam - np.eye(9)) < 1e-12
    # deterministic in the seed
    sec2 = section_qr(X, seed=5)
    assert np.array_equal(sec.complement, sec2.complement)
    sec3 = section_qr(X, seed=6)
    assert not np.array_equal(sec.complement, sec3.complement)
    with pytest.raises(DimensionError):
        section_qr(random_stiefel(3, 3, 0), seed=0)


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
    lam = np.hstack([X.data, sec.complement])
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
    lam = np.hstack([X.data, sec.complement])
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
    drifted = OrthoSection(StiefelPoint(X.data * (1.0 + 5e-8), check=False), sec.complement)
    with pytest.warns(RuntimeWarning, match="re-orthonormalizing"):
        out = retract_global(drifted, H)
    assert out.ortho_residual() < 1e-12
    assert np.linalg.norm(out.data - retract_global(sec, H).data) < 1e-6
