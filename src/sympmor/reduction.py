"""FOM -> ROM pipeline: PSD cotangent lift, ROM assembly, error metrics.

The reduced system evolves xi' = J_{2n} grad H_r(xi) with
H_r = H(x_ref + d(xi)); for a symplectic decoder this is evaluated through
the Poisson-shaped product -J_{2n} (Dd)^T J_{2d} f without ever multiplying
by a full J matrix.  Every ROM needs a FOM that carries its
`models.SecondOrder` split.  A ROM whose decoder keeps q = q_ref + X xi_q (PSD,
or any `network.build_network` decoder) skips the decoder: `projected_system`
projects the split once, and a learned decoder adds one potential.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, SympmorError, UnsplitSystemError
from .integrators import (OdeSystem, free_drift, implicit_midpoint, kick_drift_kick,
                          newton_midpoint)
from .network import FoldedDecoder, GradientLayer, Network, PSDLayer
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
    fold: Optional[FoldedDecoder] = None   # a decoder that keeps q = q_ref + X xi_q, else None

    basis = property(lambda self: None if self.fold is None else self.fold.basis)

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
    decode_jacobian are one `Network`'s bound methods and its decoder keeps
    q = X xi_q (the PSD decoder of `psd_maps`, or 'P' layers around one
    expand), the RomSpec takes its `fold_decoder()` copy and that copy's maps,
    which binds the decoder's weights now, as x_ref is bound.
    """
    x0 = np.asarray(x0, dtype=float)
    if normalized and not use_ref:
        raise SympmorError("normalized data requires the reference-state ROM")
    owner, fold = getattr(decode_jacobian, "__self__", None), None
    if isinstance(owner, Network) and getattr(decode, "__self__", None) is owner:
        fold = owner.fold_decoder()
    if fold is not None:
        decode, decode_jacobian = fold.decode, fold.decode_jacobian
    if use_ref:
        x_r0 = encode(np.zeros_like(x0))
        x_ref = x0 - decode(x_r0)
    else:
        x_r0 = encode(x0)
        x_ref = None
    return RomSpec(encode=encode, decode=decode, decode_jacobian=decode_jacobian,
                   x_r0=x_r0, reduced_dim=len(x_r0), x_ref=x_ref, fold=fold)


def _poisson_product(D, V):
    """-J_{2n} D^T J_{2d} V for D of shape 2d x 2n and a 2d-vector or 2d-row
    matrix V, without J products."""
    d, n = D.shape[0] // 2, D.shape[1] // 2
    W = D[:d].T @ V[d:] - D[d:].T @ V[:d]      # D^T J_{2d} V
    return np.concatenate([-W[n:], W[:n]])


def reduced_vector_field(rom, fom_field):
    """xi' = -J_{2n} (Dd)^T J_{2d} f(x_ref + d(xi)), evaluated without J products."""

    def field(t, xi):
        if len(xi) != rom.reduced_dim:
            raise DimensionError(f"reduced state must have length {rom.reduced_dim}")
        x_full, D = rom.state_and_jacobian(xi)
        return _poisson_product(D, fom_field(t, x_full))

    return field


# A separable ROM takes Störmer–Verlet where omega_max tau is at most this, a
# quarter of the step's stability limit 2.
VERLET_BOUND = 0.5


def max_frequency(model, X, x_ref=None, post=None):
    """omega_max of `projected_system(model, X, x_ref, post)`, bounding its
    linearization's frequencies at every state: sqrt(rho + sup |V''| + h), rho
    the spectral radius of X^T S X, sup |V''| the model's `curvature` (0
    without a potential) and h the bound of `_post_curvature` (0 without post)."""
    XtSX = X.T @ model.S(X)
    return _max_frequency(model, XtSX, _post_curvature(X, x_ref, post))


def _max_frequency(model, XtSX, h):
    lam = np.linalg.eigvalsh(XtSX)
    return float(np.sqrt(max(-lam[0], lam[-1]) + model.curvature + h))


def _post_curvature(X, x_ref, post):
    """h >= ||Hess V_post|| at every xi_q, V_post the potential of the
    post-expand layer `post` (0 without one): Hess V_post = J^T J + sum_l (K_l r)
    a_l sigma''_l B_l^T B_l (B = K X, J = (I - X X^T) K^T diag(a sigma') B), and
    with k_l = ||(I - X X^T) K_l^T||, |tanh|, |tanh'| <= 1 and |tanh''| <= 4 / (3 sqrt 3),
    J^T J <= (sum_l |a_l| k_l^2) B^T diag(|a|) B and |K_l r| <= k_l R,
    R = ||(I - X X^T) p_ref|| + sum_l |a_l| k_l; h is lambda_max(B^T diag(w) B)."""
    if post is None:
        return 0.0
    d = X.shape[0]
    p_ref = np.zeros(d) if x_ref is None else x_ref[d:]
    a, B = np.abs(post.a), post.K @ X
    k2 = np.maximum(np.einsum("ij,ij->i", post.K, post.K) - np.einsum("ij,ij->i", B, B), 0.0)
    k = np.sqrt(k2)
    R = np.linalg.norm(p_ref - X @ (X.T @ p_ref)) + a @ k
    w = a * (a @ k2 + 4.0 / (3.0 * np.sqrt(3.0)) * R * k)
    return float(np.linalg.eigvalsh(B.T @ (w[:, None] * B))[-1])


def projected_system(model, X, x_ref=None, post=None):
    """The ROM of a `models.SecondOrder` model whose decoder keeps
    q = q_ref + X xi_q (orthonormal X, d x n), as a reduced OdeSystem:

        xi_q' = X^T p_ref + xi_p,
        xi_p' = -X^T S q_ref - X^T S X xi_q - X^T (V'(q) - b(t)) - grad V_post(xi_q).

    For the PSD decoder x_ref + blockdiag(X, X) xi this is the symplectic
    Galerkin ROM (Peng & Mohseni 2016), V_post = 0.  A learned decoder's
    post-expand layer g_post(xi_q) = K^T (a tanh(K X xi_q + b)) (`post`, from
    `network.FoldedDecoder`) adds, in its coordinates eta, V_post = 1/2 ||r||^2,
    r = (I - X X^T)(p_ref + g_post) (symplectic manifold Galerkin, Buchfink,
    Glas & Haasdonk 2023), whose force (K X)^T [a sigma' K r] is one pass
    through the layer and back, O(d L), with no decoder Jacobian.

    The step hook takes no Newton where it can, deciding once per solve.  The
    system is separable, so with a potential or a learned term it supplies
    `integrators.kick_drift_kick` with the free drift (Störmer–Verlet, one
    force per step) where omega_max tau <= VERLET_BOUND (`max_frequency`), and
    tabulates the end forcing b(t) at the K + 1 step times once.  Without a
    potential (every wave ROM) the rest of the system is linear: a PSD ROM
    steps by the implicit midpoint step of that linear part, set up once, and
    a learned ROM wraps it in half kicks by grad V_post (a Strang splitting,
    one force per step) where tau sqrt(h) <= VERLET_BOUND, h the bound on
    ||Hess V_post|| that omega_max takes in.  Otherwise it is
    `integrators.newton_midpoint` on xi_q, with the Schur matrix
    I + tau^2/4 (X^T S X + X^T diag(V''(q)) X + J^T J), J^T J V_post's
    Gauss-Newton Hessian at the solve's first iterate (a simplified Newton;
    the residual stays exact), inverted once per solve without a potential.
    """
    d, n = X.shape
    if d != model.d:
        raise DimensionError(f"basis has {d} rows, the model {model.d} nodes")
    x_ref = np.zeros(2 * d) if x_ref is None else x_ref
    q_ref = x_ref[:d]
    XtSX = X.T @ model.S(X)
    c_q, c_p = X.T @ x_ref[d:], -(X.T @ model.S(q_ref))
    ends = X[[0, -1]].T                     # the two end nodes' rows, as n x 2
    if post is not None:
        K, a, b = post.K, post.a, post.b
        B = K @ X
        r_ref = x_ref[d:] - X @ c_q         # (I - X X^T) p_ref

        def post_force(xi_q):
            s = np.tanh(B @ xi_q + b)
            g = K.T @ (a * s)
            r = r_ref + (g - X @ (X.T @ g))
            return B.T @ (a * (1.0 - s * s) * (K @ r))

    def force(xi_q, b):
        """xi_p' at xi_q under the end forcing b = model.ends(t) (None without a potential)."""
        f_p = c_p - XtSX @ xi_q
        if model.potential is not None:
            f_p -= X.T @ model.potential[0](q_ref + X @ xi_q) - ends @ b
        if post is not None:
            f_p -= post_force(xi_q)
        return f_p

    def field(t, xi):
        if len(xi) != 2 * n:
            raise DimensionError(f"reduced state must have length {2 * n}")
        return np.concatenate([c_q + xi[n:],
                               force(xi[:n], None if model.potential is None else model.ends(t))])

    def midpoint_drift(tau):
        """The implicit midpoint step of the linear part xi_q' = c_q + eta_p,
        eta_p' = c_p - A xi_q (A = X^T S X) in increment form, as in
        `models.SecondOrder.midpoint_step`: with w = c_p - A xi_q and
        G = (I + tau^2/4 A)^{-1}, inverted once here, the increment is
        dq = tau G (c_q + eta_p + tau/2 w) and tau w - tau/2 A dq.  Forming the
        small sums before the n x n products keeps a step's rounding relative to
        the step: the reconstructed H wanders by rounding, it does not drift."""
        half = 0.5 * tau
        tG = tau * np.linalg.inv(np.eye(n) + 0.25 * tau ** 2 * XtSX)
        rows = np.vstack([tG, -half * (XtSX @ tG)])     # r -> [dq; -tau/2 A dq]

        def drift(x):
            w = c_p - XtSX @ x[:n]
            y = rows @ (c_q + x[n:] + half * w)
            y[n:] += tau * w
            return x + y

        return drift

    def newton_step(t0, tau, n_steps, tol):
        """`integrators.newton_midpoint` in (xi_q, pi = c_q + xi_p), where
        xi_q' = pi and pi' = xi_p'; the state goes back to xi_p after each step."""
        w, half = 0.25 * tau ** 2, 0.5 * tau
        table = np.broadcast_to(w * c_p, (n_steps, n))
        if model.potential is not None:
            table = table + w * (model.ends(t0 + (np.arange(n_steps) + 0.5) * tau) @ ends.T)
        schur = []      # the Schur matrix's constant part, or its inverse without a potential

        def residual(y):
            g = XtSX @ y
            if model.potential is not None:
                g += X.T @ model.potential[0](q_ref + X @ y)
            if post is not None:
                g += post_force(y)
            return w * g

        def solve(y, r):
            if not schur:
                T = XtSX
                if post is not None:    # V_post's Gauss-Newton Hessian at the first iterate
                    s = np.tanh(B @ y + b)
                    J = K.T @ ((a * (1.0 - s * s))[:, None] * B)
                    J -= X @ (X.T @ J)
                    T = T + J.T @ J
                M = np.eye(n) + w * T
                schur.append(M if model.potential is not None else np.linalg.inv(M))
            if model.potential is None:
                return schur[0] @ r
            V2 = model.potential[1](q_ref + X @ y)
            return np.linalg.solve(schur[0] + w * (X.T @ (V2[:, None] * X)), r)

        advance = newton_midpoint(tau, tol, lambda k, p: half * p + table[k], residual, solve)

        def step_xi(x):
            x = x.copy()
            x[n:] += c_q
            x = advance(x)
            x[n:] -= c_q
            return x

        return step_xi

    def step(t0, tau, K, tol):
        h = _post_curvature(X, x_ref, post)
        # a wave PSD ROM skips Verlet: the midpoint step keeps its quadratic H
        if ((model.potential is not None or post is not None)
                and _max_frequency(model, XtSX, h) * tau <= VERLET_BOUND):
            # b(t_k) for t_k = t0 + k tau; Trajectory.times ends at t1 exactly and can round apart
            table = ([None] * (K + 1) if model.potential is None
                     else model.ends(t0 + tau * np.arange(K + 1)))
            return kick_drift_kick(free_drift(c_q, tau),
                                   lambda k, xi_q: force(xi_q, table[k]), tau)
        if model.potential is not None or tau * np.sqrt(h) > VERLET_BOUND:
            return newton_step(t0, tau, K, tol)
        drift = midpoint_drift(tau)
        if post is None:
            return drift
        return kick_drift_kick(drift, lambda k, xi_q: -post_force(xi_q), tau)

    return OdeSystem(dim=2 * n, vector_field=field, step=step)


def solve_rom(rom, fom_sys, t0, t1, K, tol=1e-12):
    """Integrate the ROM of a FOM that carries its `SecondOrder` split (else an
    UnsplitSystemError before any step).  A decoder that keeps
    q = q_ref + X xi_q runs `projected_system`; a learned one runs it in
    eta = shift(xi), and its trajectory goes back to xi by one block pass of
    the shift layer with -a, so it neither decodes nor calls the FOM.  Any
    other decoder decodes and projects on every field call
    (`reduced_vector_field`), by finite-difference Newton.  tol stops every
    Newton the solve runs: the finite-difference one, and the projected
    system's Newton step above its bounds (see `projected_system`)."""
    model = fom_sys.second_order
    if model is None:
        raise UnsplitSystemError("a ROM needs a FOM with a SecondOrder split")
    fold, x0 = rom.fold, rom.x_r0
    shift = None if fold is None else fold.shift
    if fold is None:
        reduced_sys = OdeSystem(dim=rom.reduced_dim,
                                vector_field=reduced_vector_field(rom, fom_sys.vector_field))
    else:
        if shift is not None:
            x0 = shift.forward(x0[:, None])[0][:, 0]
        reduced_sys = projected_system(model, fold.basis, rom.x_ref, fold.post)
    traj = implicit_midpoint(reduced_sys, x0, t0, t1, K, tol=tol)
    if shift is not None:
        traj.states[:] = GradientLayer("P", shift.K, -shift.a, shift.b).forward(traj.states)[0]
    return traj


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
