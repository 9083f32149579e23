"""Geometry of the compact Stiefel manifold St(n, N).

St(n, N) is the set of N x n real matrices with orthonormal columns.  The
tangent space at X consists of all Z with X^T Z + Z^T X = 0.  This module
provides the tangent projection, Riemannian gradients for the Euclidean and
canonical metrics, the Cayley retraction in its factored SMW form, and the
two vector transports associated with it.  No operation materializes an
N x N matrix; everything is O(N n^2).

A step Z = X omega + perp (omega = X^T Z skew, X^T perp = 0) has the generator
A_{X,Z} = Q C Q^T with Q = [X, perp] and C = [[omega, -I], [I, 0]], and
Q^T Q = blockdiag(I, perp^T perp).  Every direct step builds its 2n x 2n
system (C, S = I - Q^T Q C/2, k = C S^{-1} [I; 0]) once and shares it between
the retraction and the transport.  S is factored once, by the inverse that
_smw_core takes for its exact 1-norm condition check (S is rejected when that
exceeds COND_LIMIT); the differential transport solves with S once more.  N
enters only through n x n Grams such as perp^T perp and the outputs, e.g.
R_X(Z) = X + X k_1 + perp k_2.
"""

import enum
import warnings

import numpy as np

from .errors import AnchorMismatchError, DimensionError, RetractionSingularError

ORTHO_TOL_FACTOR = 1e-10   # orthonormality residual bound is ORTHO_TOL_FACTOR * sqrt(n)
REORTH_THRESHOLD = 1e-8    # drift beyond this triggers an explicit thin-QR fix
COND_LIMIT = 1e14          # bound on the exact 1-norm condition of the 2n x 2n SMW system


class MetricKind(enum.Enum):
    Euclidean = "euclidean"
    Canonical = "canonical"


class TransportKind(enum.Enum):
    Submanifold = "submanifold"
    Differential = "differential"


def skew(M):
    """Skew-symmetric part (M - M^T)/2."""
    return (M - M.T) / 2.0


def _qr_orthonormal(A):
    """Thin-QR factor Q of A with the sign ambiguity fixed (diag R >= 0), so Q stays close to A."""
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


class StiefelPoint:
    """A point on St(n, N): an N x n matrix with orthonormal columns."""

    __slots__ = ("data",)

    def __init__(self, data, check=True):
        """check=False skips the orthonormality test; a retraction passes its
        output on to renormalized(), which makes the same test once."""
        data = np.ascontiguousarray(np.asarray(data, dtype=np.float64).T).T
        if data.ndim != 2:
            raise DimensionError("StiefelPoint expects a matrix")
        N, n = data.shape
        if N < n or n < 1:
            raise DimensionError(f"need N >= n >= 1, got ({N}, {n})")
        if check:
            res = np.linalg.norm(data.T @ data - np.eye(n))
            if not res <= REORTH_THRESHOLD:  # also rejects NaN
                raise DimensionError(
                    f"matrix is not orthonormal: residual {res:.3e} exceeds {REORTH_THRESHOLD:.0e}"
                )
        self.data = data

    @property
    def shape(self):
        return self.data.shape

    def ortho_residual(self):
        return np.linalg.norm(self.data.T @ self.data - np.eye(self.data.shape[1]))

    def renormalized(self):
        """Return self, or a thin-QR re-orthonormalized copy if drift exceeds 1e-8.

        Every retraction ends here, so drift is fixed where it arises.
        Re-orthonormalization is never silent; a warning is emitted.
        """
        res = self.ortho_residual()
        if res <= REORTH_THRESHOLD:
            return self
        warnings.warn(
            f"Stiefel iterate drifted off the manifold (residual {res:.3e}); re-orthonormalizing",
            RuntimeWarning,
        )
        return StiefelPoint(_qr_orthonormal(self.data))

    def same_point(self, other):
        return other is self or (self.shape == other.shape
                                  and np.array_equal(self.data, other.data))

    def __repr__(self):
        return "StiefelPoint(N={}, n={})".format(*self.shape)


class TangentVector:
    """An N x n matrix Z anchored at X with X^T Z + Z^T X = 0."""

    __slots__ = ("data", "anchor")

    def __init__(self, data, anchor, check=True):
        data = np.asarray(data, dtype=np.float64)
        if data.shape != anchor.shape:
            raise DimensionError(
                f"tangent data shape {data.shape} does not match anchor {anchor.shape}"
            )
        if check:
            X = anchor.data
            res = np.linalg.norm(X.T @ data + data.T @ X)
            if res > 1e-9 * np.sqrt(anchor.shape[1]) * max(1.0, np.linalg.norm(data)):
                raise DimensionError(f"matrix is not tangent at the anchor (residual {res:.3e})")
        self.data = data
        # anchor stored by value; mismatches are caught exactly by comparing entries
        self.anchor = anchor

    def require_anchor(self, X):
        if not self.anchor.same_point(X):
            raise AnchorMismatchError("tangent vector anchored at a different point")

    def __repr__(self):
        return "TangentVector(N={}, n={})".format(*self.anchor.shape)


def random_stiefel(N, n, seed):
    """Orthonormal factor of the thin QR of a seeded N x n standard normal sample."""
    if N < n:
        raise DimensionError(f"need N >= n, got ({N}, {n})")
    rng = np.random.default_rng(seed)
    return StiefelPoint(_qr_orthonormal(rng.standard_normal((N, n))))


def project_tangent(X, Y):
    """Orthogonal projection P_X(Y) = Y - X sym(X^T Y) onto T_X St(n,N)."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != X.shape:
        raise DimensionError(f"shape mismatch: {Y.shape} vs {X.shape}")
    A = X.data
    AtY = A.T @ Y
    Z = Y - A @ ((AtY + AtY.T) / 2.0)
    return TangentVector(Z, X, check=False)


def riemannian_gradient(metric, X, egrad):
    """Riemannian gradient of f at X from the Euclidean gradient.

    Euclidean metric: egrad - X sym(X^T egrad)  (i.e. the tangent projection).
    Canonical metric: egrad - X egrad^T X.
    """
    egrad = np.asarray(egrad, dtype=np.float64)
    if egrad.shape != X.shape:
        raise DimensionError(f"shape mismatch: {egrad.shape} vs {X.shape}")
    A = X.data
    if metric is MetricKind.Euclidean:
        Z = egrad - A @ ((A.T @ egrad + egrad.T @ A) / 2.0)
    elif metric is MetricKind.Canonical:
        Z = egrad - A @ (egrad.T @ A)
    else:
        raise DimensionError(f"unknown metric {metric!r}")
    return TangentVector(Z, X, check=False)


def metric_inner(metric, X, Z1, Z2):
    """Inner product of two tangent vectors at X for the chosen metric."""
    Z1.require_anchor(X)
    Z2.require_anchor(X)
    A, B1, B2 = X.data, Z1.data, Z2.data
    full = float(np.tensordot(B1, B2))
    if metric is MetricKind.Euclidean:
        return full
    # canonical: trace(Z1^T (I - XX^T/2) Z2)
    return full - 0.5 * float(np.tensordot(A.T @ B1, A.T @ B2))


def cayley_parts(X, Z):
    """(omega, perp) with Z = X omega + perp: omega = skew(X^T Z), perp = Z - X X^T Z."""
    Z.require_anchor(X)
    A, B = X.data, Z.data
    AtB = A.T @ B
    return skew(AtB), B - A @ AtB


def cayley_factors(omega, perp):
    """The 2n x 2n factors (C, GC) of A = Q C Q^T, Q = [X, perp]: C = [[omega, -I], [I, 0]]
    and GC = Q^T Q C.

    Given X^T X = I and X^T perp = 0, Q^T Q = blockdiag(I, perp^T perp), so
    GC = [[omega, -I], [perp^T perp, 0]]: perp enters only through its n x n Gram,
    and A is never formed.
    """
    n = omega.shape[0]
    C = np.eye(2 * n, k=-n) - np.eye(2 * n, k=n)
    C[:n, :n] = omega
    GC = C.copy()
    GC[n:, :n] = perp.T @ perp
    return C, GC


def _smw_core(GC):
    """(S, S^-1) for S = I - GC/2; raise if S is near-singular."""
    S = np.eye(GC.shape[0]) - 0.5 * GC
    if not np.all(np.isfinite(S)):
        raise RetractionSingularError("SMW system has non-finite entries")
    try:   # exact 1-norm condition ||S||_1 ||S^-1||_1; inv raises if S is exactly singular
        S_inv = np.linalg.inv(S)
        cond = np.linalg.norm(S, 1) * np.linalg.norm(S_inv, 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond <= COND_LIMIT:
        raise RetractionSingularError(f"SMW system condition exceeds {COND_LIMIT:.0e}")
    return S, S_inv


def cayley_system(omega, perp):
    """The Cayley system (perp, C, S, k) of the step X omega + perp, for the
    retraction and a transport to share.

    cay(A/2) = 2 (I - A/2)^{-1} - I and (I - A/2)^{-1} = I + Q C S^{-1} Q^T / 2,
    with Q^T X = [I; 0], give cay(A/2) X = X + Q k for the 2n x n increment
    k = C S^{-1} [I; 0], from the 2n x 2n factors alone.
    """
    C, GC = cayley_factors(omega, perp)
    S, S_inv = _smw_core(GC)
    return perp, C, S, C @ S_inv[:, :omega.shape[0]]


def cayley_retract(X, Z=None, system=None):
    """Cayley retraction R_X(Z) = cay(A_{X,Z}/2) X = X + X k_1 + perp k_2; system is the
    step's cayley_system when the caller has built it, and Z is then not read."""
    perp, _, _, k = system or cayley_system(*cayley_parts(X, Z))
    n = X.shape[1]
    # formed transposed, so it is column-major like every StiefelPoint's data
    Xt = X.data.T
    out = Xt + k[:n].T @ Xt + k[n:].T @ perp.T
    return StiefelPoint(out.T, check=False).renormalized()


def transport_submanifold(X, Z, Y, retracted):
    """Projection-based transport of Y along Z onto the tangent space at retracted = R_X(Z).
    Z is only checked for its anchor, and may be None."""
    if Z is not None:
        Z.require_anchor(X)
    Y.require_anchor(X)
    return project_tangent(retracted, Y.data)


def transport_differential(X, Z, Y, retracted, system=None, y_parts=None):
    """Differentiated-retraction transport of Y along Z.

    Evaluates (I - A_{X,Z}/2)^{-1} A_{X,Y} (I - A_{X,Z}/2)^{-1} X in the step's
    coordinates and projects it onto the tangent space at retracted = R_X(Z).
    (I - A/2)^{-1} X = (X + cay(A/2) X)/2 = X + Q k/2.  With
    Y = X omega_Y + Y_perp, A_{X,Y} = Q_Y C_Y Q_Y^T for Q_Y = [X, Y_perp];
    (I - A/2)^{-1} = I + Q C S^{-1} Q^T / 2 and Q_Y^T Q = blockdiag(I, Y_perp^T perp),
    so the one solve is with the step's S and the N-row work is the n x n cross
    Gram and the output.  system is the retraction's cayley_system, built here
    from Z if not given; y_parts is cayley_parts(X, Y), split here if not given.
    """
    Y.require_anchor(X)
    omega_y, perp_y = y_parts or cayley_parts(X, Y)
    perp, C, S, k = system or cayley_system(*cayley_parts(X, Z))
    n = X.shape[1]
    cross = perp_y.T @ perp

    # (I - A_{X,Z}/2)^{-1} X = Q w, w = [I + k_1/2; k_2/2]; A_{X,Y} Q w = Q_Y a, a = C_Y Q_Y^T Q w
    u = np.eye(n) + k[:n] / 2.0
    v = cross @ (k[n:] / 2.0)
    a = np.vstack([omega_y @ u - v, u])
    # (I - A_{X,Z}/2)^{-1} Q_Y a = Q_Y a + Q b with b = C S^{-1} Q^T Q_Y a / 2
    b = 0.5 * C @ np.linalg.solve(S, np.vstack([a[:n], cross.T @ a[n:]]))
    out = X.data @ (a[:n] + b[:n]) + perp_y @ a[n:] + perp @ b[n:]

    return project_tangent(retracted, out)


def transport(kind, X, Z, Y, retracted, system=None, y_parts=None):
    """Transport Y along Z; system and y_parts, if given, are passed on to the
    differential transport."""
    if kind is TransportKind.Submanifold:
        return transport_submanifold(X, Z, Y, retracted)
    if kind is TransportKind.Differential:
        return transport_differential(X, Z, Y, retracted, system, y_parts)
    raise DimensionError(f"unknown transport {kind!r}")
