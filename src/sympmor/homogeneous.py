"""Homogeneous-space machinery for St(n, N) under the O(N) action.

The manifold is a homogeneous space: any point is lambda E with E = [I_n; 0]
and lambda in O(N).  A section lambda_E(X) = [X, lambda_bar] maps a point into
the group.  It costs one Householder QR of the N x (N-n) sample per step,
applied in WY blocks; no Q is formed.  Tangent vectors lift to the fixed
horizontal space g^{hor,E} of skew N x N matrices [[W, -C^T], [C, 0]],
stored compactly as the one N x n array [W; C] = [X | lambda_bar]^T Z.  Retraction back to the manifold goes
through the Cayley transform of the horizontal element: the manifold's
``stiefel._smw_core`` builds its SMW system and ``_cayley_apply`` applies it.
"""

from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import DimensionError, SectionDegenerateError
from .stiefel import StiefelPoint, _cayley_apply, _smw_core, skew


# reflectors per compact-WY block: of 16 to 64, 32 was within noise of the
# fastest homogeneous step at every N from 34 to 2000 (one BLAS thread)
_WY_BLOCK = 32
_EYE = np.eye(_WY_BLOCK)
_ON_OR_BELOW = np.tri(_WY_BLOCK, dtype=bool)


@dataclass(frozen=True)
class OrthoSection:
    """Orthogonal completion [X | lambda_bar] of a Stiefel point X, kept implicit.

    lambda_bar is the first N - n columns of Q = Q_1 ... Q_b, the Householder
    factor of the section's sample.  Block i holds (start, V, W): V the unit
    lower trapezoid of its reflectors and W = V T, so Q_i = I - W V^T acts on
    rows start: onward.
    """

    base: StiefelPoint
    blocks: tuple


def horizontal_pointwise(hyper, cache, B):
    """Adam on the stored blocks [W; C] of horizontal elements; returns the update V.

    Mutates cache.B1 and cache.B2 (N x n arrays like B).  Both the first moment
    and V get their top n x n block re-skewed, so they stay horizontal.
    """
    n = B.shape[1]
    c1, c1n, c2, c2n = hyper.moment_coeffs()
    cache.B1 = c1 * cache.B1 + c1n * B
    cache.B1[:n] = skew(cache.B1[:n])
    cache.B2 = c2 * cache.B2 + c2n * (B * B)
    V = -hyper.eta * (cache.B1 / np.sqrt(cache.B2 + hyper.delta))
    V[:n] = skew(V[:n])
    return V


def section_qr(X, seed):
    """Orthogonal extension lambda_bar of X from a seeded random sample.

    Draws A in R^{N x (N-n)} (standard normal), deflates against span(X) and
    factors it by one Householder QR; lambda_bar is the thin Q, kept as its
    reflectors in compact-WY blocks and never formed.  Deterministic for a
    fixed seed.
    """
    N, n = X.shape
    if N <= n:
        raise DimensionError("section requires N > n")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N - n))
    A -= X.data @ (X.data.T @ A)
    # h is the LAPACK factor transposed: row j holds R's column j, then v_j
    h, tau = np.linalg.qr(A, mode="raw")
    d = np.abs(np.diagonal(h))
    if np.any(d < 1e-12 * max(1.0, d.max())):
        raise SectionDegenerateError(
            "rank-deficient sample in section construction; retry with a new seed"
        )
    blocks = []
    for j in range(0, N - n, _WY_BLOCK):
        Vt = h[j:j + _WY_BLOCK, j:]  # this block's reflectors as rows
        k = Vt.shape[0]
        # R's entries sit on and below the leading square's diagonal: write unit heads there
        np.copyto(Vt[:, :k], _EYE[:k, :k], where=_ON_OR_BELOW[:k, :k])
        blocks.append((j, Vt.T, _wy(Vt.T, tau[j:j + k])))
    return OrthoSection(base=X, blocks=tuple(blocks))


def _wy(V, tau):
    """W = V T of the compact-WY form H_1 ... H_k = I - W V^T, H_j = I - tau_j v_j v_j^T.

    T^{-1} = striu(V^T V) + diag(1/tau), so T = (I + diag(tau) striu(V^T V))^{-1} diag(tau):
    no division by tau, and a tau = 0 (identity) reflector gives a zero column of W.
    The unit upper triangular factor is inverted by LAPACK dtrtri.
    """
    k = V.shape[1]
    U = (V.T @ V) * tau[:, None]
    np.copyto(U, _EYE[:k, :k], where=_ON_OR_BELOW[:k, :k])
    return V @ (blas.unit_upper_inverse(U) * tau)


def _complement_t(section, Z):
    """lambda_bar^T Z: Q^T = Q_b^T ... Q_1^T applied to Z, first N - n rows kept."""
    Y = Z.copy()
    for j, V, W in section.blocks:
        Y[j:] -= V @ (W.T @ Y[j:])
    return Y[: Y.shape[0] - section.base.shape[1]]


def _complement(section, C):
    """lambda_bar C: Q = Q_1 ... Q_b applied to C padded with n zero rows."""
    N, n = section.base.shape
    Y = np.zeros((N, C.shape[1]))
    Y[: N - n] = C
    for j, V, W in reversed(section.blocks):
        Y[j:] -= W @ (V.T @ Y[j:])
    return Y


def lift_to_global(section, Z):
    """Blocks [W; C] of lambda^{-1} Omega_X(Z) lambda: W = X^T Z, C = lambda_bar^T Z."""
    Z.require_anchor(section.base)
    return np.vstack([section.base.data.T @ Z.data, _complement_t(section, Z.data)])


def retract_global(section, V):
    """Retract lambda_E(X) cay(M/2) E for the horizontal blocks V = [W; C] (M its dense form).

    M = U' V' with U' = [[W, -I], [C, 0]] and V' = [[I, 0], [0, C^T]], so
    cay(M/2) E comes from the manifold's SMW kernel; the only dense solve is
    2n x 2n and no N x N matrix appears.
    """
    X = section.base
    N, n = X.shape

    Up = np.zeros((N, 2 * n))
    Up[:, :n] = V
    Up[:n, n:] = -np.eye(n)
    Vp = np.zeros((2 * n, N))
    Vp[:n, :n] = np.eye(n)
    Vp[n:, n:] = V[n:].T

    out = _cayley_apply(_smw_core(Up, Vp), np.eye(N, n))
    # left-multiply by lambda = [X | lambda_bar] without assembling it
    full = X.data @ out[:n] + _complement(section, out[n:])
    return StiefelPoint(full, check=False).renormalized()
