"""FOM -> ROM pipeline: PSD cotangent lift, ROM assembly, error metrics.

The reduced system evolves xi' = J_{2n} grad H_r(xi) with
H_r = H(x_ref + d(xi)); for a symplectic decoder this is evaluated through
the Poisson-shaped product -J_{2n} (Dd)^T J_{2d} f without ever multiplying
by a full J matrix.  Every ROM needs a FOM that carries its
`models.SecondOrder` split.  A PSD ROM skips the decoder altogether:
`projected_system` projects the split once.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, SympmorError, UnsplitSystemError
from .integrators import OdeSystem, dense_newton, implicit_midpoint
from .network import Network, PSDLayer
from .stiefel import StiefelPoint


@dataclass
class SnapshotSet:
    data: np.ndarray            # 2d x (n_params * (K+1))
    params: list
    K: int
    t0: float
    t1: float
    normalized: bool = False

    def __post_init__(self):
        if self.data.shape[1] != len(self.params) * (self.K + 1):
            raise DimensionError("column count must equal n_params * (K+1)")


def normalize_snapshots(raw):
    """Subtract each parameter's initial state from its block of columns."""
    if raw.normalized:
        raise SympmorError("snapshot set is already normalized")
    inits = raw.data[:, ::raw.K + 1]     # column 0 of each parameter's block
    data = raw.data - np.repeat(inits, raw.K + 1, axis=1)
    return SnapshotSet(data=data, params=list(raw.params), K=raw.K, t0=raw.t0,
                       t1=raw.t1, normalized=True)


def psd_cotangent_lift(M, n):
    """Cotangent-lift basis X (d x n) from the snapshot matrix M (2d x k).

    Rearranges M = [M1; M2] into [M1, M2] (d x 2k) and takes the first n left
    singular vectors; sign convention makes the first nonzero entry of each
    column positive.
    """
    if M.shape[0] % 2:
        raise DimensionError("snapshot matrix must have an even row count")
    d = M.shape[0] // 2
    R = np.hstack([M[:d], M[d:]])
    if n > min(d, R.shape[1]):
        raise DimensionError("n exceeds min(d, 2k)")
    U, sigma, _ = np.linalg.svd(R, full_matrices=False)
    if sigma[0] > 0 and sigma[n - 1] < 1e-12 * sigma[0]:
        warnings.warn("PSD basis includes directions below numerical rank", RuntimeWarning)
    X = U[:, :n].copy()
    for j in range(n):
        col = X[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-13 * max(1.0, np.abs(col).max()))
        if len(nz) and col[nz[0]] < 0:
            X[:, j] = -col
    return StiefelPoint(X)


def psd_maps(X):
    """(encode, decode, decoder_jacobian) of the PSD baseline: the bound maps of
    the autoencoder's reduce and expand layers with weight X and no gradient
    layers, blockdiag(X, X)^T to reduce and blockdiag(X, X) to expand."""
    network = Network([PSDLayer(X, "reduce"), PSDLayer(X, "expand")], encoder_len=1)
    return network.encode, network.decode, network.decoder_jacobian


@dataclass
class RomSpec:
    encode: Callable
    decode: Callable
    decode_jacobian: Callable    # xi -> (d(xi), Dd(xi)) from one decoder pass
    x_r0: np.ndarray
    reduced_dim: int
    x_ref: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None     # X of a PSD decoder blockdiag(X, X), else None

    def _add_ref(self, out):
        if self.x_ref is None:
            return out
        return out + (self.x_ref if out.ndim == 1 else self.x_ref[:, None])

    def reconstruct_state(self, xr):
        return self._add_ref(self.decode(xr))

    def state_and_jacobian(self, xi):
        """(x_ref + d(xi), Dd(xi)) from one decoder pass."""
        out, D = self.decode_jacobian(xi)
        return self._add_ref(out), D


def build_rom(encode, decode, decode_jacobian, x0, use_ref, normalized):
    """Bind the ROM initial value and optional reference state.

    Normalized training (which implies a reference state): x_r0 = e(0) and
    x_ref = x0 - d(x_r0), so the initial value reconstructs exactly.
    Unnormalized: x_r0 = e(x0), no reference state.  When decode and
    decode_jacobian are one `Network`'s bound methods, the RomSpec takes its
    `fold_decoder()` pair instead, which binds the decoder's weights now, as
    x_ref is bound; a PSD decoder (no gradient layers, as from `psd_maps`)
    hands its basis X on as ``decode.basis``.
    """
    x0 = np.asarray(x0, dtype=float)
    if normalized and not use_ref:
        raise SympmorError("normalized data requires the reference-state ROM")
    owner = getattr(decode_jacobian, "__self__", None)
    if isinstance(owner, Network) and getattr(decode, "__self__", None) is owner:
        decode, decode_jacobian = owner.fold_decoder()
    if use_ref:
        x_r0 = encode(np.zeros_like(x0))
        x_ref = x0 - decode(x_r0)
    else:
        x_r0 = encode(x0)
        x_ref = None
    return RomSpec(encode=encode, decode=decode, decode_jacobian=decode_jacobian,
                   x_r0=x_r0, reduced_dim=len(x_r0), x_ref=x_ref,
                   basis=getattr(decode, "basis", None))


def _poisson_rows(D):
    """-J_{2n} D^T for D of shape 2d x 2n, without a J product."""
    n = D.shape[1] // 2
    return np.vstack([-D[:, n:].T, D[:, :n].T])


def _apply_j(V):
    """J_{2d} V for a 2d-vector or 2d-row matrix V."""
    d = V.shape[0] // 2
    return np.concatenate([V[d:], -V[:d]])


def _poisson_product(D, V):
    """-J_{2n} D^T J_{2d} V for D of shape 2d x 2n and a 2d-vector or 2d-row
    matrix V, without J products."""
    return _poisson_rows(D) @ _apply_j(V)


def reduced_vector_field(rom, fom_field):
    """xi' = -J_{2n} (Dd)^T J_{2d} f(x_ref + d(xi)), evaluated without J products."""

    def field(t, xi):
        if len(xi) != rom.reduced_dim:
            raise DimensionError(f"reduced state must have length {rom.reduced_dim}")
        x_full, D = rom.state_and_jacobian(xi)
        return _poisson_product(D, fom_field(t, x_full))

    return field


def reduced_linearization(rom, fom_sys):
    """(t, xi) -> (f_r, M) from one decoder pass at x = x_ref + d(xi) and one
    stencil pass of the FOM's `SecondOrder` split for [f | Df Dd]
    (`SecondOrder.linearization`): the reduced field f_r = -J_{2n} Dd^T J_{2d} f(x)
    and its Newton matrix M = -J_{2n} Dd^T J_{2d} Df(x) Dd.

    M is exact for a linear decoder.  For a nonlinear one it drops the
    curvature term (d Dd^T / d xi) J_{2d} f (a Gauss-Newton matrix); the
    residual the Newton loop drives to zero is still the exact reduced field.
    """
    model = fom_sys.second_order

    def linearize(t, xi):
        x_full, D = rom.state_and_jacobian(xi)
        rows = _poisson_rows(D)     # formed once for both products
        JF = _apply_j(model.linearization(t, x_full, D))
        return rows @ JF[:, 0], rows @ JF[:, 1:]

    return linearize


def projected_system(model, X, x_ref=None):
    """The PSD ROM of a `models.SecondOrder` model as a reduced OdeSystem: the
    symplectic Galerkin system (Peng & Mohseni 2016) for the decoder
    x = x_ref + blockdiag(X, X) xi with orthonormal X (d x n),

        xi_q' = X^T p_ref + xi_p,
        xi_p' = -X^T S q_ref - X^T S X xi_q - X^T (V'(q) - b(t)),  q = q_ref + X xi_q.

    X^T S X, -X^T S q_ref, X^T p_ref and the end rows of X are formed once; the
    Galerkin matrix X^T S X is symmetric, so the midpoint rule keeps a quadratic
    H(x_ref + Dd xi).  An iterate then costs X xi_q, X^T V'(q) and
    T_r = X^T S X + X^T diag(V''(q)) X, O(d n^2), and one n x n solve of the
    Schur complement (I + tau^2/4 T_r) delta_q = r_q + tau/2 r_p, then
    delta_p = r_p - tau/2 T_r delta_q.  Without a potential T_r is constant.
    No full-size state is formed.
    """
    d, n = X.shape
    if d != model.d:
        raise DimensionError(f"basis has {d} rows, the model {model.d} nodes")
    x_ref = np.zeros(2 * d) if x_ref is None else x_ref
    q_ref = x_ref[:d]
    XtSX = X.T @ model.S(X)
    c_q, c_p = X.T @ x_ref[d:], -(X.T @ model.S(q_ref))
    ends = X[[0, -1]].T                     # the two end nodes' rows, as n x 2

    def field_at(t, xi):
        """(reduced field, q) at xi; q is None without a potential."""
        if len(xi) != 2 * n:
            raise DimensionError(f"reduced state must have length {2 * n}")
        f_p, q = c_p - XtSX @ xi[:n], None
        if model.potential is not None:
            q = q_ref + X @ xi[:n]
            f_p -= X.T @ model.potential[0](q) - ends @ model.ends(t)
        return np.concatenate([c_q + xi[n:], f_p]), q

    def newton(t, xi, tau):
        f, q = field_at(t, xi)
        T = XtSX if q is None else XtSX + X.T @ (model.potential[1](q)[:, None] * X)
        schur = np.eye(n) + 0.25 * tau ** 2 * T

        def solve(r):
            dq = np.linalg.solve(schur, r[:n] + 0.5 * tau * r[n:])
            return np.concatenate([dq, r[n:] - 0.5 * tau * (T @ dq)])

        return f, solve

    return OdeSystem(dim=2 * n, vector_field=lambda t, xi: field_at(t, xi)[0], newton=newton)


def solve_rom(rom, fom_sys, t0, t1, K, tol=1e-12):
    """Integrate the ROM of a FOM that carries its `SecondOrder` split.  A PSD
    ROM runs `projected_system`; any other ROM decodes xi once per Newton
    iterate (`reduced_linearization`).  A FOM without the split is an
    UnsplitSystemError before any step."""
    model = fom_sys.second_order
    if model is None:
        raise UnsplitSystemError("a ROM needs a FOM with a SecondOrder split")
    if rom.basis is not None:
        reduced_sys = projected_system(model, rom.basis, rom.x_ref)
    else:
        field = reduced_vector_field(rom, fom_sys.vector_field)
        newton = dense_newton(reduced_linearization(rom, fom_sys))
        reduced_sys = OdeSystem(dim=rom.reduced_dim, vector_field=field, newton=newton)
    return implicit_midpoint(reduced_sys, rom.x_r0, t0, t1, K, tol=tol)


def reduction_error(variant, exact, rom, reduced):
    """Normalized trajectory error of the reconstructed ROM solution.

    variant 'no_ref' compares d(x_r^k) to x^k; 'with_ref' adds x_ref first.
    """
    if exact.K != reduced.K:
        raise DimensionError("trajectories must share K")
    recon = rom.decode(reduced.states)
    if variant == "with_ref":
        if rom.x_ref is None:
            raise SympmorError("ROM has no reference state")
        recon = recon + rom.x_ref[:, None]
    elif variant != "no_ref":
        raise SympmorError(f"unknown variant {variant!r}")
    return _relative_error(recon, exact.states)


def projection_error(variant, exact, encode, decode, x_ref=None):
    """Normalized error of d(e(.)) applied to the exact snapshots."""
    X = exact.states
    if variant == "no_ref":
        recon = decode(encode(X))
    elif variant == "with_ref":
        if x_ref is None:
            raise SympmorError("with_ref projection error needs x_ref")
        recon = x_ref[:, None] + decode(encode(X - x_ref[:, None]))
    else:
        raise SympmorError(f"unknown variant {variant!r}")
    return _relative_error(recon, X)


def _relative_error(recon, X):
    """||recon - X||_F / ||X||_F over a whole trajectory."""
    denom = np.sum(X ** 2)
    if denom == 0:
        raise SympmorError("zero-norm exact trajectory")
    return float(np.sqrt(np.sum((recon - X) ** 2) / denom))


def symplectic_residual_projection(rom, fom_field, reduced_traj):
    """Max over steps of the symplectically projected residual of the
    reconstructed trajectory, using midpoint-consistent finite differences."""
    states = reduced_traj.states
    h = (reduced_traj.t1 - reduced_traj.t0) / reduced_traj.K
    times = reduced_traj.times
    worst = 0.0
    for k in range(reduced_traj.K):
        xr_mid = 0.5 * (states[:, k] + states[:, k + 1])
        x_full, D = rom.state_and_jacobian(xr_mid)
        t_mid = 0.5 * (times[k] + times[k + 1])
        # residual of the reconstructed trajectory in the full space
        r = D @ ((states[:, k + 1] - states[:, k]) / h) - fom_field(t_mid, x_full)
        # (Dd)^+ r = J_{2n} D^T J_{2d}^T r = -J_{2n} D^T J_{2d} r
        proj = _poisson_product(D, r)
        worst = max(worst, float(np.linalg.norm(proj)))
    return worst
