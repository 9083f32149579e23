"""Homogeneous-space machinery for St(n, N) under the O(N) action.

The manifold is a homogeneous space: any point is lambda E with E = [I_n; 0]
and lambda in O(N).  A section lambda_E(X) = [X, lambda_bar] maps a point into
the group; tangent vectors lift to the fixed horizontal space g^{hor,E} of
skew N x N matrices [[W, -C^T], [C, 0]], stored compactly as the one N x n
array [W; C] = [X | lambda_bar]^T Z.  Retraction back to the manifold goes
through the Cayley transform of the horizontal element: the manifold's
``stiefel._smw_core`` builds its SMW system and ``_cayley_apply`` applies it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SectionDegenerateError
from .stiefel import StiefelPoint, _cayley_apply, _smw_core, skew


@dataclass(frozen=True)
class OrthoSection:
    """Orthogonal completion [X | lambda_bar] of a Stiefel point X."""

    base: StiefelPoint
    complement: np.ndarray  # N x (N - n)


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
    orthonormalizes by thin QR.  Deterministic for a fixed seed.
    """
    N, n = X.shape
    if N <= n:
        raise DimensionError("section requires N > n")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N - n))
    A -= X.data @ (X.data.T @ A)
    Q, R = np.linalg.qr(A)
    d = np.abs(np.diag(R))
    if np.any(d < 1e-12 * max(1.0, d.max())):
        raise SectionDegenerateError(
            "rank-deficient sample in section construction; retry with a new seed"
        )
    return OrthoSection(base=X, complement=Q)


def lift_to_global(section, Z):
    """Blocks [W; C] of lambda^{-1} Omega_X(Z) lambda: W = X^T Z, C = lambda_bar^T Z."""
    Z.require_anchor(section.base)
    return np.vstack([section.base.data.T @ Z.data, section.complement.T @ Z.data])


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
    full = X.data @ out[:n] + section.complement @ out[n:]
    return StiefelPoint(full, check=False).renormalized()
