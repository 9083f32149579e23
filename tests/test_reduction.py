"""Snapshots, PSD cotangent lift (eigenvector oracle), ROM assembly,
error metrics with hand-computed oracles, snapshot file round trip."""

import copy
import dataclasses
import json
import math
import struct
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from sympmor import cli, integrators, models, reduction
from sympmor.config import RunConfig
from sympmor.errors import (DimensionError, IntegrationFailureError, SympmorError,
                            UnsplitSystemError)
from sympmor.integrators import (MAX_NEWTON, OdeSystem, Trajectory, _fd_jacobian,
                                 dense_newton, implicit_midpoint)
from sympmor.models import (SecondOrder, SgKind, SineGordonModel, sg_build, sg_initial,
                            sg_system, wave_build, wave_initial, wave_system)
from sympmor.network import (GradientLayer, LossKind, Network, PSDLayer, Trainer, build_network,
                             train_epochwise)
from sympmor.reduction import (
    VERLET_BOUND,
    RomSpec,
    SnapshotSet,
    build_rom,
    max_frequency,
    normalize_snapshots,
    projected_system,
    projection_error,
    psd_cotangent_lift,
    psd_maps,
    reduced_vector_field,
    reduction_error,
    solve_rom,
    symplectic_residual_projection,
)
from sympmor.snapshot_io import read_snapshot_file, write_snapshot_file


def block(snaps, j):
    """Columns belonging to parameter j."""
    w = snaps.K + 1
    return snaps.data[:, j * w:(j + 1) * w]


def test_snapshot_set_block_and_validation():
    data = np.arange(24, dtype=float).reshape(4, 6)
    s = SnapshotSet(data=data, params=[0.1, 0.2], K=2, t0=0.0, t1=1.0)
    assert np.array_equal(block(s, 1), data[:, 3:])
    with pytest.raises(DimensionError):
        SnapshotSet(data=data, params=[0.1], K=2, t0=0.0, t1=1.0)


def test_normalize_roundtrip():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((6, 8))
    raw = SnapshotSet(data=data.copy(), params=[1.0, 2.0], K=3, t0=0.0, t1=1.0)
    norm = normalize_snapshots(raw)
    # every block starts at zero
    assert np.all(norm.data[:, 0] == 0.0)
    assert np.all(norm.data[:, 4] == 0.0)
    assert norm.normalized
    # adding back each block's raw initial state restores the raw data
    assert np.allclose(norm.data + np.repeat(data[:, ::4], 4, axis=1), data)
    with pytest.raises(SympmorError):
        normalize_snapshots(norm)


@settings(max_examples=30, deadline=None)
@given(hst.integers(1, 8), hst.integers(1, 8), hst.data())
def test_psd_cotangent_lift_eigenvectors(d, k, data):
    """X is orthonormal and spans eigenvectors of R R^T, R = [M1, M2], in
    non-increasing eigenvalue order."""
    n = data.draw(hst.integers(1, min(d, 2 * k)))
    seed = data.draw(hst.integers(0, 10 ** 6))
    M = np.random.default_rng(seed).standard_normal((2 * d, k))
    X = psd_cotangent_lift(M, n).data
    assert X.shape == (d, n)
    assert np.linalg.norm(X.T @ X - np.eye(n)) < 1e-12
    R = np.hstack([M[:d], M[d:]])
    RRX = R @ (R.T @ X)
    lam = np.einsum("ij,ij->j", X, RRX)
    scale = max(1.0, np.linalg.norm(R, 2) ** 2)
    assert np.linalg.norm(RRX - X * lam) < 1e-10 * scale
    assert np.all(np.diff(lam) <= 1e-10 * scale)


def test_psd_cotangent_lift_is_deterministic():
    M = np.random.default_rng(2).standard_normal((40, 15))
    assert psd_cotangent_lift(M, 5).data.tobytes() == psd_cotangent_lift(M, 5).data.tobytes()


def test_psd_cotangent_lift_optimality():
    """The lift equals the dominant left singular space of [M1, M2]."""
    rng = np.random.default_rng(3)
    M = rng.standard_normal((12, 9))  # d = 6
    X = psd_cotangent_lift(M, 3)
    assert X.shape == (6, 3)
    R = np.hstack([M[:6], M[6:]])
    U, s, _ = np.linalg.svd(R, full_matrices=False)
    # compare subspaces through projectors (signs/order free)
    P_ours = X.data @ X.data.T
    P_ref = U[:, :3] @ U[:, :3].T
    assert np.linalg.norm(P_ours - P_ref) < 1e-10
    with pytest.raises(DimensionError):
        psd_cotangent_lift(M[:11], 3)
    with pytest.raises(DimensionError):
        psd_cotangent_lift(M, 7)


def test_psd_cotangent_lift_sign_convention():
    M = np.random.default_rng(4).standard_normal((10, 6))
    X = psd_cotangent_lift(M, 2)
    for j in range(2):
        col = X.data[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-13)
        assert col[nz[0]] > 0


def test_psd_cotangent_lift_warns_below_rank():
    u = np.random.default_rng(5).standard_normal((8, 1))
    M = np.hstack([u, 2 * u, -u])  # rank-1 snapshots, d = 4
    with pytest.warns(RuntimeWarning):
        X = psd_cotangent_lift(M, 3)
    # the directions below rank are still an orthonormal completion
    assert np.linalg.norm(X.data.T @ X.data - np.eye(3)) < 1e-12


def test_psd_maps_consistency():
    X = psd_cotangent_lift(np.random.default_rng(6).standard_normal((10, 8)), 2)
    encode, decode, jacobian = psd_maps(X)
    x = np.random.default_rng(7).standard_normal(10)
    xr = encode(x)
    assert xr.shape == (4,)
    # encode(decode) is the identity on the reduced space
    assert np.linalg.norm(encode(decode(xr)) - xr) < 1e-13
    # batched application agrees with column-at-a-time
    Xb = np.random.default_rng(8).standard_normal((10, 3))
    batch = decode(encode(Xb))
    for j in range(3):
        assert np.linalg.norm(batch[:, j] - decode(encode(Xb[:, j]))) < 1e-13
    out, D = jacobian(xr)
    assert np.array_equal(out, decode(xr))
    assert D.shape == (10, 4)
    # jacobian columns are exactly the decoder applied to basis vectors
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1.0
        assert np.linalg.norm(D[:, j] - decode(e)) < 1e-14


def test_build_rom_variants():
    X = psd_cotangent_lift(np.random.default_rng(9).standard_normal((8, 6)), 2)
    encode, decode, jacobian = psd_maps(X)
    x0 = np.random.default_rng(10).standard_normal(8)
    rom = build_rom(encode, decode, jacobian, x0, use_ref=True, normalized=True)
    # reference-state ROM reconstructs the initial state exactly
    assert np.linalg.norm(rom.reconstruct_state(rom.x_r0) - x0) < 1e-12
    rom2 = build_rom(encode, decode, jacobian, x0, use_ref=False, normalized=False)
    assert rom2.x_ref is None
    assert np.allclose(rom2.x_r0, encode(x0))
    with pytest.raises(SympmorError):
        build_rom(encode, decode, jacobian, x0, use_ref=False, normalized=True)


def _dense_j(m):
    return np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])


def test_reduced_field_matches_dense_j_products():
    model = wave_build(6, 0.25)
    sys = wave_system(model)
    X = psd_cotangent_lift(np.random.default_rng(11).standard_normal((sys.dim, 10)), 3)
    encode, decode, jacobian = psd_maps(X)
    x0 = wave_initial(6, 0.25)
    rom = build_rom(encode, decode, jacobian, x0, use_ref=True, normalized=True)
    field = reduced_vector_field(rom, sys.vector_field)
    d = sys.dim // 2
    n = 3
    J2d, J2n = _dense_j(d), _dense_j(n)
    rng = np.random.default_rng(12)
    for _ in range(5):
        xi = rng.standard_normal(2 * n)
        f = sys.vector_field(0.0, rom.reconstruct_state(xi))
        oracle = -J2n @ jacobian(xi)[1].T @ J2d @ f
        assert np.linalg.norm(field(0.0, xi) - oracle) < 1e-11
    with pytest.raises(DimensionError):
        field(0.0, np.zeros(2 * n + 1))


@pytest.fixture(scope="module")
def learned_wave_network():
    """A desk-trained wave network (N = 6, n = 2) with its FOM, initial state
    and normalized training data.  Tests that train it further take a copy."""
    sys = wave_system(wave_build(6, 0.3))
    x0 = wave_initial(6, 0.3)
    data = implicit_midpoint(sys, x0, 0.0, 1.0, 20).states - x0[:, None]
    network = build_network(sys.dim, 4, seed=3)
    trainer = Trainer(network, RunConfig(variant="V5", eta=0.01, seed=3))
    train_epochwise(trainer, data, batch_size=8, n_epochs=5,
                    loss_kind=LossKind.ScaledMSE, seed=4)
    return sys, x0, network, data


@pytest.fixture(scope="module")
def learned_wave_rom(learned_wave_network):
    """The desk-trained wave decoder bound as a reference-state ROM.  Its
    omega_max is 3.2: solves over [0, 1] at K = 20 take Störmer–Verlet, over
    [0, 4] at K = 20 the split midpoint (tau sqrt(h) = 0.22 for the bound h on
    ||Hess V_post||)."""
    sys, x0, network, _ = learned_wave_network
    rom = build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                    use_ref=True, normalized=True)
    return sys, rom


@pytest.fixture(scope="module")
def learned_sine_gordon_network():
    """A V6 network trained on a sine-Gordon soliton (N = 16, n = 2), with its
    FOM, initial state and normalized training data."""
    model = sg_build(16, 0.35, -10.0, 10.0, SgKind.SingleSoliton)
    sys, x0 = sg_system(model), sg_initial(model)
    data = implicit_midpoint(sys, x0, 0.0, 4.0, 20).states - x0[:, None]
    network = build_network(sys.dim, 4, seed=5)
    trainer = Trainer(network, RunConfig(variant="V6", eta=0.01, seed=5))
    train_epochwise(trainer, data, batch_size=8, n_epochs=3,
                    loss_kind=LossKind.Relative, seed=6)
    return sys, x0, network, data


def _decode_and_project(rom, sys):
    """The decode-and-project midpoint that every ROM ran before the projected
    system, kept as an oracle: at x = x_ref + d(xi) the reduced field
    -J_2n Dd^T J_2d f(x) and its Gauss-Newton matrix -J_2n Dd^T J_2d Df(x) Dd,
    from dense J products, solved by dense Newton.  Returns the system and its
    linearization (t, xi) -> (field, matrix)."""
    model = sys.second_order
    J2d, J2n = _dense_j(model.d), _dense_j(rom.reduced_dim // 2)

    def linearize(t, xi):
        x, D = rom.state_and_jacobian(xi)
        rows = -J2n @ D.T @ J2d
        return rows @ model.field(t, x), rows @ model.jacobian(t, x, D)

    system = OdeSystem(dim=rom.reduced_dim, vector_field=lambda t, xi: linearize(t, xi)[0],
                       newton=dense_newton(linearize))
    return system, linearize


def _post_gradient(X, x_ref, post):
    """grad V_post(xi_q) = (K X)^T [a sigma' K r] of a learned decoder's
    post-expand layer (K, a, b): V_post = 1/2 ||r||^2,
    r = (I - X X^T)(p_ref + K^T (a tanh(K X xi_q + b)))."""
    d = X.shape[0]
    B = post.K @ X

    def grad(xi_q):
        s = np.tanh(B @ xi_q + post.b)
        g = post.K.T @ (post.a * s)
        r = (x_ref[d:] - X @ (X.T @ x_ref[d:])) + (g - X @ (X.T @ g))
        return B.T @ (post.a * (1.0 - s * s) * (post.K @ r))

    return grad


def _separable_force(model, X, x_ref, post=None):
    """(c_q, X^T S X, force) of the separable ROM written out:
    eta_q' = c_q + eta_p with c_q = X^T p_ref, and eta_p' = force(t, xi_q) =
    -X^T S (q_ref + X xi_q) - X^T (V'(q) - b(t)) - grad V_post(xi_q) for a
    learned decoder's post-expand layer (`_post_gradient`)."""
    d = X.shape[0]
    x_ref = np.zeros(2 * d) if x_ref is None else x_ref
    XtSX = X.T @ model.S(X)
    c_q, c_p = X.T @ x_ref[d:], -(X.T @ model.S(x_ref[:d]))
    ends = X[[0, -1]].T
    grad = None if post is None else _post_gradient(X, x_ref, post)

    def force(t, xi_q):
        f_p = c_p - XtSX @ xi_q
        if model.potential is not None:
            f_p -= X.T @ model.potential[0](x_ref[:d] + X @ xi_q) - ends @ model.ends(t)
        if grad is not None:
            f_p -= grad(xi_q)
        return f_p

    return c_q, XtSX, force


def _shift(layer, states, sign=1.0):
    """The (2n, m) block of states with sign X^T g(xi_q) added to its p half,
    X^T g(xi_q) = K^T (a tanh(K xi_q + b)) for the fold's shift layer: eta from
    xi (sign 1), and xi from eta (sign -1)."""
    n = states.shape[0] // 2
    out = states.copy()
    out[n:] += layer.K.T @ ((sign * layer.a)[:, None]
                            * np.tanh(layer.K @ states[:n] + layer.b[:, None]))
    return out


def _separable_midpoint(model, rom, t0, t1, K, tol):
    """The learned ROM's midpoint solve written out, as xi states: eta(0) from
    xi(0), the separable system of _separable_force with the Newton solve of
    its Schur complement (I + tau^2/4 T) delta_q = r_q + tau/2 r_p,
    T = X^T S X + J^T J (+ X^T diag(V''(q)) X) for the Gauss-Newton
    J = (I - X X^T) K^T diag(a sigma') K X of V_post at xi_q(0), stepped by
    implicit_midpoint, and xi from eta."""
    X, post = rom.basis, rom.fold.post
    d, n = X.shape
    x_ref = np.zeros(2 * d) if rom.x_ref is None else rom.x_ref
    eta0 = _shift(rom.fold.shift, rom.x_r0[:, None])[:, 0]
    c_q, XtSX, force = _separable_force(model, X, x_ref, post)
    B = post.K @ X
    s = np.tanh(B @ eta0[:n] + post.b)
    J = post.K.T @ ((post.a * (1.0 - s * s))[:, None] * B)
    J -= X @ (X.T @ J)
    T0 = XtSX + J.T @ J

    def field(t, eta):
        return np.concatenate([c_q + eta[n:], force(t, eta[:n])])

    def newton(t, eta, tau):
        T = T0
        if model.potential is not None:
            T = T0 + X.T @ (model.potential[1](x_ref[:d] + X @ eta[:n])[:, None] * X)
        schur = np.eye(n) + 0.25 * tau ** 2 * T

        def solve(r):
            dq = np.linalg.solve(schur, r[:n] + 0.5 * tau * r[n:])
            return np.concatenate([dq, r[n:] - 0.5 * tau * (T @ dq)])

        return field(t, eta), solve

    eta = implicit_midpoint(OdeSystem(dim=2 * n, vector_field=field, newton=newton),
                            eta0, t0, t1, K, tol=tol)
    return _shift(rom.fold.shift, eta.states, -1.0)


def _xi_q_newton(model, X, x_ref, t0, tau, K, tol, post=None):
    """The projected ROM's Newton midpoint step written out: Newton on
    z = (xi_q,k+1 - xi_q,k) / 2 in (xi_q, pi = c_q + eta_p), w = tau^2/4, with

        G(z) = w (A y + X^T V'(q_ref + X y) + grad V_post(y)) + z - tau/2 pi_k
               - w (c_p + X^T b(t_k + tau/2)),   y = xi_q,k + z,

    solved with the Schur matrix I + w (A + X^T diag(V''(q)) X + J^T J)
    (A = X^T S X; J^T J V_post's Gauss-Newton Hessian at the solve's first
    iterate; without a potential the matrix is constant and inverted once).
    Returns step(x, z, k, plain=False) -> (x_{k+1}, z, iterates): step k from
    x = x_k, started at z (None at step 0: explicit Euler's tau/2 pi_0), stopped
    by the integrator's rule on the update [2 dz; 4/tau dz] and the size of
    [xi_q; pi], or by ||update|| < tol max(1, size) alone where plain."""
    d, n = X.shape
    x_ref = np.zeros(2 * d) if x_ref is None else x_ref
    c_q, A, _ = _separable_force(model, X, x_ref)
    c_p = -(X.T @ model.S(x_ref[:d]))
    ends = X[[0, -1]].T
    w, half, weight = 0.25 * tau ** 2, 0.5 * tau, math.sqrt(4.0 + 16.0 / tau ** 2)
    table = np.broadcast_to(w * c_p, (K, n))
    if model.potential is not None:
        table = table + w * (model.ends(t0 + (np.arange(K) + 0.5) * tau) @ ends.T)
    grad = None if post is None else _post_gradient(X, x_ref, post)
    schur = []

    def residual(y):
        g = A @ y
        if model.potential is not None:
            g += X.T @ model.potential[0](x_ref[:d] + X @ y)
        if grad is not None:
            g += grad(y)
        return w * g

    def solve(y, r):
        if not schur:
            T = A
            if post is not None:
                B = post.K @ X
                s = np.tanh(B @ y + post.b)
                J = post.K.T @ ((post.a * (1.0 - s * s))[:, None] * B)
                J -= X @ (X.T @ J)
                T = T + J.T @ J
            M = np.eye(n) + w * T
            schur.append(np.linalg.inv(M) if model.potential is None else M)
        if model.potential is None:
            return schur[0] @ r
        V2 = model.potential[1](x_ref[:d] + X @ y)
        return np.linalg.solve(schur[0] + w * (X.T @ (V2[:, None] * X)), r)

    def step(x, z, k, plain=False):
        q, p = x[:n], x[n:] + c_q
        z = half * p if z is None else z
        c = half * p + table[k]
        prev = None
        for it in range(1, MAX_NEWTON + 1):
            y = q + z
            dz = solve(y, residual(y) + z - c)
            z = z - dz
            x_new = np.concatenate([2.0 * z + q, (4.0 / tau) * z - p])
            update, size = weight * math.sqrt(dz @ dz), math.sqrt(x_new @ x_new)
            bound = tol * max(1.0, size)
            if update < bound or (not plain and prev is not None and update < prev
                                  and update * update < bound * (prev - update)):
                x_new[n:] -= c_q
                return x_new, z, it
            prev = update
        raise AssertionError(f"step {k} did not converge")

    return step


def _xi_q_newton_loop(model, X, x_ref, x0, t0, t1, K, tol, post=None):
    """The states of _xi_q_newton's steps from x0 over [t0, t1], each step
    started from the last step's z."""
    step = _xi_q_newton(model, X, x_ref, t0, (t1 - t0) / K, K, tol, post)
    states, z = np.empty((len(x0), K + 1)), None
    states[:, 0] = x0
    for k in range(K):
        states[:, k + 1], z, _ = step(states[:, k], z, k)
    return states


def _learned_xi_q_newton_loop(model, rom, t0, t1, K, tol):
    """_xi_q_newton_loop of a learned ROM in eta, from eta(0), converted back to xi."""
    eta0 = _shift(rom.fold.shift, rom.x_r0[:, None])[:, 0]
    eta = _xi_q_newton_loop(model, rom.basis, rom.x_ref, eta0, t0, t1, K, tol, rom.fold.post)
    return _shift(rom.fold.shift, eta, -1.0)


def _learned_system(rom, sys):
    """The learned ROM's separable system in eta, as solve_rom builds it, and eta(0)."""
    eta0 = rom.fold.shift.forward(rom.x_r0[:, None])[0][:, 0]
    return projected_system(sys.second_order, rom.basis, rom.x_ref, rom.fold.post), eta0


def _first_iterate(advance, x):
    """The Newton iterate z -> (z', ||update||, ||x_new||) of advance's step from
    x, captured where the step calls integrators.newton_solve (which then
    returns its start unchanged), or None for a step that runs no Newton."""
    captured = []
    with mock.patch.object(integrators, "newton_solve",
                           lambda iterate, z, k, tol: captured.append(iterate) or z):
        advance(x)
    return captured[0] if captured else None


def _midpoint_q_iterate(field, matrix, x, t0, tau, z):
    """One Newton iterate on the midpoint q of a separable reduced field
    (t, xi) -> [pi(xi_p); f_p(t, xi_q)]: z - (I - w matrix)^{-1} G(z) with
    G(z) = z - tau/2 pi - w f_p(t0 + tau/2, xi_q + z), w = tau^2/4, for the
    matrix standing for df_p/dxi_q."""
    n = len(x) // 2
    w = 0.25 * tau ** 2
    y = np.concatenate([x[:n] + z, x[n:]])
    G = z - 0.5 * tau * field(t0, x)[:n] - w * field(t0 + 0.5 * tau, y)[n:]
    return z - np.linalg.solve(np.eye(n) - w * matrix, G)


def test_reduced_jacobian_psd_matches_fd():
    """Linear PSD decoder on sine-Gordon above the Verlet bound: an iterate of
    the projected system's Newton step is Newton's on the midpoint q with the
    exact Jacobian of the reduced field (central differences), at every start."""
    model = sg_build(20, 0.3, -10.0, 10.0, SgKind.SingleSoliton)
    sys, x0 = sg_system(model), sg_initial(model)
    fom = implicit_midpoint(sys, x0, 0.0, 1.0, 10)
    encode, decode, jacobian = psd_maps(psd_cotangent_lift(fom.states, 3))
    rom = build_rom(encode, decode, jacobian, x0, use_ref=False, normalized=False)
    field = reduced_vector_field(rom, sys.vector_field)
    projected = projected_system(model, rom.basis, rom.x_ref)
    t0, tau, n = 0.3, 1.0, 3
    assert max_frequency(model, rom.basis) * tau > VERLET_BOUND
    rng = np.random.default_rng(13)
    for _ in range(5):
        xi = rom.x_r0 + 0.5 * rng.standard_normal(2 * n)
        iterate = _first_iterate(projected.step(t0, tau, 1, 1e-12), xi)
        for z in 0.3 * rng.standard_normal((3, n)):
            y = np.concatenate([xi[:n] + z, xi[n:]])
            fd = _fd_jacobian(field, t0 + 0.5 * tau, y)[n:, :n]
            want = z - _midpoint_q_iterate(field, fd, xi, t0, tau, z)
            assert _rel(z - iterate(z)[0], want) <= 1e-6


def test_reduced_jacobian_learned_matches_dense_j_products(learned_wave_rom):
    """An iterate of the learned ROM's Newton step in eta (tau = 1, where
    tau sqrt(h) > 1/2) is Newton's on the midpoint q with the matrix -T_0,
    T_0 = X^T S X + G^T (I - X X^T) G from dense products: S from the FOM's
    dense Jacobian and G = dp/dxi_q, the lower-left block of the decoder
    Jacobian at the first iterate's xi_q, so G^T (I - X X^T) G is V_post's
    Gauss-Newton Hessian there.  Later iterates keep that T_0."""
    sys, rom = learned_wave_rom
    model, X, n = sys.second_order, rom.basis, 2
    d = model.d
    S = -model.jacobian(0.0, np.zeros(sys.dim), np.eye(sys.dim))[d:, :d]
    projected, eta0 = _learned_system(rom, sys)
    rng = np.random.default_rng(14)
    for _ in range(3):
        eta = eta0 + rng.standard_normal(2 * n)
        iterate = _first_iterate(projected.step(0.0, 1.0, 1, 1e-12), eta)
        zs = rng.standard_normal((3, n))
        G = rom.decode_jacobian(np.concatenate([eta[:n] + zs[0], rom.x_r0[n:]]))[1][d:, :n]
        T0 = X.T @ S @ X + G.T @ (np.eye(d) - X @ X.T) @ G
        for z in zs:
            want = z - _midpoint_q_iterate(projected.vector_field, -T0, eta, 0.0, 1.0, z)
            assert _rel(z - iterate(z)[0], want) <= 1e-12


def _counter(calls):
    """A wrapper that appends fn to calls each time the wrapped fn is called."""
    def counted(fn):
        def wrapped(*args):
            calls.append(fn)
            return fn(*args)
        return wrapped
    return counted


def _scaled_post(rom, scale):
    """The learned ROM with its post-expand layer's a scaled by scale."""
    post = rom.fold.post
    post = GradientLayer("P", post.K, scale * post.a, post.b)
    return dataclasses.replace(rom, fold=dataclasses.replace(rom.fold, post=post))


def _learned_path(sys, rom, tau):
    """The step solve_rom takes for a learned ROM at step size tau: 'verlet'
    where omega_max tau <= VERLET_BOUND, else 'newton' where the step runs
    Newton, else 'split'."""
    model, post = sys.second_order, rom.fold.post
    if max_frequency(model, rom.basis, rom.x_ref, post) * tau <= VERLET_BOUND:
        return "verlet"
    projected, eta0 = _learned_system(rom, sys)
    return "split" if _first_iterate(projected.step(0.0, tau, 20, 1e-10), eta0) is None else "newton"


@pytest.mark.parametrize("t1, path", [(1.0, "verlet"), (4.0, "split")])
def test_learned_rom_forms_the_gauss_newton_hessian_on_the_first_newton_call(t1, path,
                                                                          learned_wave_rom,
                                                                          monkeypatch):
    """V_post's Gauss-Newton Hessian is formed by the Newton step alone, at its
    first iterate: a Verlet and a split solve run no Newton iterate, so with a
    Newton that fails on any call they are bitwise the solves without it."""
    sys, rom = learned_wave_rom
    assert _learned_path(sys, rom, t1 / 20) == path
    projected, eta0 = _learned_system(rom, sys)
    want = implicit_midpoint(projected, eta0, 0.0, t1, 20).states

    def unread(*args):
        raise AssertionError("read")

    monkeypatch.setattr(integrators, "newton_solve", unread)
    assert np.array_equal(implicit_midpoint(projected, eta0, 0.0, t1, 20).states, want)


def test_learned_rom_decodes_once_per_fom_field_call(learned_wave_rom):
    """A learned ROM of 'P' layers makes no decoder pass and no FOM call: by
    Störmer–Verlet, by the split midpoint and by the Newton midpoint (its
    post-expand layer scaled up until the split declines), solve_rom never
    calls decode, decode_jacobian, the FOM field or its Jacobian."""
    sys, rom = learned_wave_rom
    calls = []
    counted = _counter(calls)
    model = dataclasses.replace(sys.second_order)
    model.field, model.jacobian = counted(model.field), counted(model.jacobian)
    fom = dataclasses.replace(sys, vector_field=counted(sys.vector_field), second_order=model)
    for r, t1, path in ((rom, 1.0, "verlet"), (rom, 4.0, "split"),
                        (_scaled_post(rom, 3.0), 4.0, "newton")):
        assert _learned_path(sys, r, t1 / 20) == path
        counted_rom = dataclasses.replace(r, decode=counted(r.decode),
                                          decode_jacobian=counted(r.decode_jacobian))
        solve_rom(counted_rom, fom, 0.0, t1, 20, tol=1e-10)
    assert calls == []


def _counting_newton(monkeypatch):
    """Count the Newton iterates of every integrators.newton_solve call from now
    on: the returned list gains one entry per call, its iterate count."""
    per_call, solve = [], integrators.newton_solve

    def counting(iterate, x, k, tol):
        per_call.append(0)

        def counted(z):
            per_call[-1] += 1
            return iterate(z)

        return solve(counted, x, k, tol)

    monkeypatch.setattr(integrators, "newton_solve", counting)
    return per_call


def test_learned_rom_decoder_passes_per_solve(learned_wave_rom, monkeypatch):
    """At K = 50 the learned ROM's Newton step (its post-expand layer scaled by
    3, tau = 0.2; the unscaled ROM takes no Newton) makes at most 3 Newton
    iterates per step, as many as the 2n Newton midpoint it replaced made on
    this ROM: the extrapolated start costs none, and the contraction stop
    skips the confirming iterate."""
    sys, rom = learned_wave_rom
    rom, K = _scaled_post(rom, 3.0), 50
    assert _learned_path(sys, rom, 10.0 / K) == "newton"
    per_step = _counting_newton(monkeypatch)
    solve_rom(rom, sys, 0.0, 10.0, K, tol=1e-10)
    assert len(per_step) == K and K <= sum(per_step) <= 3 * K


def _untrained_wave_rom():
    """An untrained build_network decoder (N = 16, n = 4) as a reference-state wave ROM."""
    sys, x0 = wave_system(wave_build(16, 0.5)), wave_initial(16, 0.5)
    network = build_network(sys.dim, 8, seed=7)
    return sys, build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                          use_ref=True, normalized=True)


def _learned_case(case, sg_network):
    """(FOM, learned ROM, t1) of an untrained wave decoder or the V6 sine-Gordon one."""
    if case == "untrained_wave":
        return (*_untrained_wave_rom(), 1.0)
    sys, x0, network, _ = sg_network
    return sys, build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                          use_ref=True, normalized=True), 4.0


LEARNED_CASES = ["untrained_wave", "v6_sine_gordon"]


@pytest.mark.parametrize("case", LEARNED_CASES)
def test_learned_hamiltonian_is_separable_in_eta(case, learned_sine_gordon_network):
    """H(x_ref + d(xi)) = 1/2 ||c_q + eta_p||^2 + U(q_ref + X xi_q) + V_post(xi_q)
    with U(q) = 1/2 q.S q + sum V(q) - b(t).q, and p = X (c_q + eta_p) +
    (I - X X^T)(p_ref + g_post); the learned system's field is J grad_eta of
    H(x_ref + d(xi(eta))), by central differences."""
    sys, rom, _ = _learned_case(case, learned_sine_gordon_network)
    model, X, x_ref, fold = sys.second_order, rom.basis, rom.x_ref, rom.fold
    d, n = X.shape
    t = 0.3

    def energy(x):
        q, p = x[:d], x[d:]
        H = 0.5 * p @ p + 0.5 * q @ model.S(q)
        if model.potential is not None:     # sine-Gordon: V = 1 - cos q
            b0, b1 = model.ends(t)
            H += np.sum(1.0 - np.cos(q)) - b0 * q[0] - b1 * q[-1]
        return H

    c_q = X.T @ x_ref[d:]
    projected = projected_system(model, X, x_ref, fold.post)
    rng = np.random.default_rng(17)
    for _ in range(5):
        xi = rom.x_r0 + 0.3 * rng.standard_normal(2 * n)
        eta = _shift(fold.shift, xi[:, None])[:, 0]
        q = x_ref[:d] + X @ xi[:n]
        g_post = fold.post.K.T @ (fold.post.a * np.tanh(fold.post.K @ (X @ xi[:n]) + fold.post.b))
        r = x_ref[d:] + g_post
        r -= X @ (X.T @ r)
        x = x_ref + rom.decode(xi)
        assert _rel(x, np.concatenate([q, X @ (c_q + eta[n:]) + r])) <= 1e-12
        H = energy(x)
        separable = (0.5 * np.sum((c_q + eta[n:]) ** 2)
                     + energy(np.concatenate([q, np.zeros(d)])) + 0.5 * r @ r)
        assert abs(H - separable) <= 1e-12 * max(1.0, abs(H))

        def H_eta(e):
            return energy(x_ref + rom.decode(_shift(fold.shift, e[:, None], -1.0)[:, 0]))

        eps = 1e-6
        grad = np.array([(H_eta(eta + eps * e) - H_eta(eta - eps * e)) / (2 * eps)
                         for e in np.eye(2 * n)])
        assert _rel(projected.vector_field(t, eta),
                    np.concatenate([grad[n:], -grad[:n]])) <= 1e-6


@pytest.mark.parametrize("case", LEARNED_CASES)
def test_eta_is_a_symplectic_change_of_variables(case, learned_sine_gordon_network):
    """The Jacobian M of xi -> (xi_q, eta_p), the shift layer's jet, satisfies
    M^T J M = J to 1e-12 and matches central differences; xi -> eta -> xi
    round-trips to rounding."""
    sys, rom, _ = _learned_case(case, learned_sine_gordon_network)
    shift, dim = rom.fold.shift, rom.reduced_dim
    J = _dense_j(dim // 2)
    rng = np.random.default_rng(18)
    for _ in range(5):
        xi = rom.x_r0 + rng.standard_normal(dim)
        M = shift.differential(np.hstack([xi[:, None], np.eye(dim)]))[:, 1:]
        assert np.linalg.norm(M.T @ J @ M - J) <= 1e-12
        fd = _fd_jacobian(lambda t, v: _shift(shift, v[:, None])[:, 0], 0.0, xi)
        assert np.linalg.norm(M - fd) <= 1e-6 * np.linalg.norm(M)
    block = rom.x_r0[:, None] + rng.standard_normal((dim, 7))
    assert _rel(_shift(shift, _shift(shift, block), -1.0), block) <= 1e-15


STEPS = {"midpoint": 10, "verlet": 50}


@pytest.mark.parametrize("path", list(STEPS))
@pytest.mark.parametrize("case", LEARNED_CASES)
def test_learned_solve_is_the_separable_loop(case, path, learned_sine_gordon_network):
    """solve_rom of a learned ROM is, bitwise, the separable solve written out
    here, converted back to xi: below the bound the kick-drift-kick loop in eta;
    above it for sine-Gordon the Newton loop on xi_q of _xi_q_newton, which is
    the 2n Newton midpoint of _separable_midpoint to 1e-10 relative (3.4e-11
    measured), and for
    the wave the split midpoint loop, which is that Newton midpoint to 2e-7
    relative (9.7e-8 measured)."""
    sys, rom, t1 = _learned_case(case, learned_sine_gordon_network)
    model, K = sys.second_order, STEPS[path]
    omega = max_frequency(model, rom.basis, rom.x_ref, rom.fold.post)
    assert (omega * t1 / K <= VERLET_BOUND) == (path == "verlet")
    got = solve_rom(rom, sys, 0.0, t1, K, tol=1e-10).states
    if path == "midpoint" and model.potential is None:
        assert _learned_path(sys, rom, t1 / K) == "split"
        want = _learned_split_loop(model, rom, 0.0, t1, K)
        assert _rel(want, _separable_midpoint(model, rom, 0.0, t1, K, 1e-10)) <= 2e-7
    elif path == "midpoint":
        want = _learned_xi_q_newton_loop(model, rom, 0.0, t1, K, 1e-10)
        assert _rel(want, _separable_midpoint(model, rom, 0.0, t1, K, 1e-10)) <= 1e-10
    else:
        eta0 = _shift(rom.fold.shift, rom.x_r0[:, None])[:, 0]
        eta = _kick_drift_kick_loop(model, rom.basis, rom.x_ref, eta0, 0.0, t1, K, rom.fold.post)
        want = _shift(rom.fold.shift, eta, -1.0)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("case", ["wave", "sine_gordon"])
def test_folded_learned_rom_matches_the_per_layer_jet_rom(case, learned_wave_network,
                                                         learned_sine_gordon_network):
    """build_rom folds a Network's decoder; a decoder Jacobian that is not a
    Network's bound method keeps the per-layer jet, and solve_rom decodes and
    projects it on every field call.  Both reconstruct x_ref to 1e-14.  Over a
    horizon above the Verlet bound (the folded wave ROM takes the split
    midpoint, the sine-Gordon one the Newton midpoint), the folded e_red is
    within 1e-5 of the decode-and-project midpoint's (neither step is invariant
    under the change to eta), and the generic ROM is that midpoint to 1e-8."""
    sys, x0, network, _ = (learned_wave_network if case == "wave"
                           else learned_sine_gordon_network)
    t1, K = {"wave": 4.0, "sine_gordon": 8.0}[case], 20
    folded = build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                       use_ref=True, normalized=True)
    generic = build_rom(network.encode, network.decode,
                        lambda xi: network.decoder_jacobian(xi), x0,
                        use_ref=True, normalized=True)
    assert generic.decode == network.decode and folded.decode != network.decode
    assert generic.fold is None and folded.fold.post is not None
    assert _rel(folded.x_ref, generic.x_ref) <= 1e-14
    omega = max_frequency(sys.second_order, folded.basis, folded.x_ref, folded.fold.post)
    assert omega * t1 / K > VERLET_BOUND
    fom = implicit_midpoint(sys, x0, 0.0, t1, K)
    oracle = implicit_midpoint(_decode_and_project(generic, sys)[0], generic.x_r0, 0.0, t1, K,
                               tol=1e-10)
    a = solve_rom(folded, sys, 0.0, t1, K, tol=1e-10)
    b = solve_rom(generic, sys, 0.0, t1, K, tol=1e-10)
    e_folded, e_oracle = (reduction_error("with_ref", fom, rom, traj)
                          for rom, traj in ((folded, a), (generic, oracle)))
    assert abs(e_folded - e_oracle) <= 1e-5, (e_folded, e_oracle)
    assert _rel(b.states, oracle.states) <= 1e-8


def test_learned_rom_binds_the_decoder_weights_at_build(learned_wave_network):
    """Training the network after build_rom moves the network's decoder, not the ROM's."""
    sys, x0, network, data = learned_wave_network
    network = copy.deepcopy(network)
    rom = build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                    use_ref=True, normalized=True)
    xi = rom.x_r0 + 0.1
    before = rom.decode_jacobian(xi)
    post, shift = rom.fold.post.K.copy(), rom.fold.shift.K.copy()
    trainer = Trainer(network, RunConfig(variant="V5", eta=0.01, seed=3))
    for start in (0, 8):
        trainer.train_batch(LossKind.ScaledMSE, data[:, start:start + 8])
    after = rom.decode_jacobian(xi)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert np.array_equal(rom.fold.post.K, post) and np.array_equal(rom.fold.shift.K, shift)
    assert not np.array_equal(network.decoder_jacobian(xi)[1], before[1])


def test_psd_rom_binds_the_decoder_weight_at_build():
    """A new weight on the psd_maps network's expand layer after build_rom moves
    the network's decoder, not the ROM's."""
    rng = np.random.default_rng(21)
    encode, decode, jacobian = psd_maps(psd_cotangent_lift(rng.standard_normal((12, 8)), 2))
    rom = build_rom(encode, decode, jacobian, rng.standard_normal(12),
                    use_ref=True, normalized=True)
    xi = rng.standard_normal(4)
    before = (rom.decode(xi), *rom.decode_jacobian(xi), rom.basis.copy())
    decode.__self__.layers[-1].weight = psd_cotangent_lift(rng.standard_normal((12, 8)), 2)
    after = (rom.decode(xi), *rom.decode_jacobian(xi), rom.basis)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert not np.array_equal(decode(xi), before[0])


STOP_T1, STOP_K, STOP_TOL = 1.0, 30, 1e-10


def _sg_fom():
    """The sine-Gordon FOM and its initial state, and the plain iterate count of
    step k from a trajectory's states by the full-space Newton midpoint of the
    same model on a dense I - h/2 Df, the iteration whose q-iterates the step
    takes."""
    model = sg_build(40, 0.35, -10.0, 10.0, SgKind.SingleSoliton)
    dense = dataclasses.replace(sg_system(model), step=None, newton=dense_newton(
        lambda t, x: (model.field(t, x), model.jacobian(t, x, np.eye(model.dim)))))
    h = STOP_T1 / STOP_K
    return (sg_system(model), sg_initial(model),
            lambda states, k: _plain_iterates(dense, states, k, 0.0, h, STOP_TOL))


def _stiff_learned_wave_rom():
    """An untrained build_network decoder (N = 16, n = 4) as a wave ROM with its
    post-expand layer's a scaled by 3000: tau sqrt(h) = 0.72 at K = 50 over
    [0, 1], so every solve at that step size or above runs the Newton step."""
    sys, rom = _untrained_wave_rom()
    return sys, _scaled_post(rom, 3000.0)


def _learned_rom_system():
    """The stiff learned wave ROM's system in eta and eta(0), and the plain
    iterate count of step k from a trajectory's states by the Newton loop on
    xi_q written out in _xi_q_newton, from the same start; called for
    k = 0, 1, ... in turn, since step 0's first iterate forms the Schur matrix."""
    sys, rom = _stiff_learned_wave_rom()
    projected, eta0 = _learned_system(rom, sys)
    n = len(eta0) // 2
    step = _xi_q_newton(sys.second_order, rom.basis, rom.x_ref, 0.0, STOP_T1 / STOP_K,
                        STOP_K, STOP_TOL, rom.fold.post)

    def plain(states, k):
        z = None if k == 0 else 0.5 * (states[:n, k] - states[:n, k - 1])
        return step(states[:, k], z, k, plain=True)[2]

    return projected, eta0, plain


def _plain_iterates(sys, X, k, t0, h, tol):
    """Newton iterates step k takes from the integrator's start when it stops
    on ||delta|| < tol max(1, ||x||) alone."""
    x_old = X[:, k]
    x = x_old + h * sys.vector_field(t0, x_old) if k == 0 else 2.0 * x_old - X[:, k - 1]
    for it in range(1, MAX_NEWTON + 1):
        f_mid, solve = sys.newton(t0 + (k + 0.5) * h, 0.5 * (x_old + x), h)
        delta = solve(x - x_old - h * f_mid)
        x = x - delta
        if np.linalg.norm(delta) < tol * max(1.0, np.linalg.norm(x)):
            return it
    raise AssertionError(f"step {k} did not converge")


STOP_CASES = {"sg_fom": _sg_fom, "learned_rom": _learned_rom_system}


@pytest.mark.parametrize("case", list(STOP_CASES))
def test_contraction_stop_takes_no_more_iterates(case, monkeypatch):
    """Each step, from the same start, takes no more Newton iterates than the
    plain ||delta|| test would, and the trajectory agrees with a solve at
    tol = 1e-13 to 1e-9.  The iterates are the step's own (Newton on the
    midpoint q); the FOM's plain count is the full-space Newton's, the ROM's
    that of the same loop on xi_q."""
    sys, x0, plain = STOP_CASES[case]()
    per_step = _counting_newton(monkeypatch)
    traj = implicit_midpoint(sys, x0, 0.0, STOP_T1, STOP_K, tol=STOP_TOL)
    iterates = np.array(per_step)
    plain = [plain(traj.states, k) for k in range(STOP_K)]
    assert len(iterates) == STOP_K
    assert np.all(iterates >= 1) and np.all(iterates <= plain), (iterates, plain)
    tight = implicit_midpoint(sys, x0, 0.0, STOP_T1, STOP_K, tol=1e-13)
    assert _rel(traj.states, tight.states) <= 1e-9


def _sg_psd_rom(kind, use_ref=False):
    """PSD sine-Gordon ROM (N = 30, n = 3), with a reference state from
    normalized snapshots if use_ref."""
    model = sg_build(30, 0.35, -10.0, 10.0, kind)
    sys, x0 = sg_system(model), sg_initial(model)
    states = implicit_midpoint(sys, x0, 0.0, 1.0, 10).states
    X = psd_cotangent_lift(states - x0[:, None] if use_ref else states, 3)
    return sys, build_rom(*psd_maps(X), x0, use_ref=use_ref, normalized=use_ref)


def _wave_psd_rom(n):
    """PSD wave ROM with a reference state (mu = 0.25, N = 16) from normalized snapshots."""
    sys, x0 = wave_system(wave_build(16, 0.25)), wave_initial(16, 0.25)
    fom = implicit_midpoint(sys, x0, 0.0, 1.0, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # the square lift is below rank
        X = psd_cotangent_lift(fom.states - x0[:, None], n)
    return sys, build_rom(*psd_maps(X), x0, use_ref=True, normalized=True)


def _sg_network_psd_rom():
    """The PSD ROM of _sg_psd_rom(SingleSoliton) as a reduce + expand Network that
    went through a params file, bound by its own encode, decode and Jacobian."""
    model = sg_build(30, 0.35, -10.0, 10.0, SgKind.SingleSoliton)
    sys, x0 = sg_system(model), sg_initial(model)
    X = psd_cotangent_lift(implicit_midpoint(sys, x0, 0.0, 1.0, 10).states, 3)
    network = Network([PSDLayer(X, "reduce"), PSDLayer(X, "expand")], encoder_len=1)
    with tempfile.TemporaryDirectory() as tmp:
        cli.save_network(network, Path(tmp) / "params.npz")
        network = cli.load_network(Path(tmp) / "params.npz")
    return sys, build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                          use_ref=False, normalized=False)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("learned", [False, True])
def test_solve_rom_equals_default_dense_newton(learned, learned_wave_rom):
    """The projected system's field, under the integrator's default
    finite-difference Newton (solve_rom takes Störmer–Verlet for these ROMs at
    K = 20 over [0, 1]), agrees to rounding with dense Newton: for the PSD ROM
    on the generic decode-and-project system; for the learned ROM its Newton
    step (its post-expand layer scaled by 3, tau = 0.2) is the 2n Newton
    midpoint of its own field in eta with the dense matrix J_2n blockdiag(T_0, I),
    T_0 V_post's Gauss-Newton Hessian at the step's first iterate, to 1e-12.
    Over [0, 4] the learned ROM takes the split midpoint: solve_rom is the
    split loop written out here, bitwise, and the separable Newton midpoint to
    2e-3 relative (1.2e-3 measured: this ROM's V_post is strong,
    tau sqrt(h) = 0.22)."""
    if not learned:
        sys, rom = _sg_psd_rom(SgKind.SingleSoliton)
        projected = projected_system(sys.second_order, rom.basis, rom.x_ref)
        a = implicit_midpoint(dataclasses.replace(projected, step=None), rom.x_r0, 0.0, 1.0, 20,
                              tol=1e-10)
        b = implicit_midpoint(_decode_and_project(rom, sys)[0], rom.x_r0, 0.0, 1.0, 20, tol=1e-10)
        assert _rel(a.states, b.states) <= 1e-12
        return
    sys, rom = learned_wave_rom
    strong = _scaled_post(rom, 3.0)
    projected, eta0 = _learned_system(strong, sys)
    model, X, post, n = sys.second_order, strong.basis, strong.fold.post, 2
    assert _learned_path(sys, strong, 0.2) == "newton"
    y = eta0[:n] + 0.1 * projected.vector_field(0.0, eta0)[:n]    # the first iterate's xi_q
    s = np.tanh(post.K @ (X @ y) + post.b)
    J = post.K.T @ ((post.a * (1.0 - s * s))[:, None] * (post.K @ X))
    J -= X @ (X.T @ J)
    M = _dense_j(n) @ np.block([[X.T @ model.S(X) + J.T @ J, np.zeros((n, n))],
                                [np.zeros((n, n)), np.eye(n)]])
    default = OdeSystem(dim=rom.reduced_dim, vector_field=projected.vector_field,
                        newton=dense_newton(lambda t, eta: (projected.vector_field(t, eta), M)))
    a = implicit_midpoint(projected, eta0, 0.0, 4.0, 20, tol=1e-10)
    b = implicit_midpoint(default, eta0, 0.0, 4.0, 20, tol=1e-10)
    assert _rel(a.states, b.states) <= 1e-12
    got = solve_rom(rom, sys, 0.0, 4.0, 20, tol=1e-10).states
    assert np.array_equal(got, _learned_split_loop(sys.second_order, rom, 0.0, 4.0, 20))
    assert _rel(got, _separable_midpoint(sys.second_order, rom, 0.0, 4.0, 20, 1e-10)) <= 2e-3


PROJECTED_CASES = {"sg_single": lambda: _sg_psd_rom(SgKind.SingleSoliton),
                   "sg_doublets": lambda: _sg_psd_rom(SgKind.Doublets),
                   "sg_single_ref": lambda: _sg_psd_rom(SgKind.SingleSoliton, use_ref=True),
                   "wave_ref": lambda: _wave_psd_rom(4),
                   "wave_ref_square": lambda: _wave_psd_rom(18),    # n = d = N + 2
                   "sg_network": _sg_network_psd_rom}


@pytest.mark.parametrize("case", list(PROJECTED_CASES))
def test_projected_system_matches_generic_rom(case):
    """The projected PSD system against the decode-and-project oracles: its field
    is the reduced field; above the Verlet bound (tau = 1) a sine-Gordon ROM's
    Newton iterate is Newton's on the midpoint q with the generic matrix M's
    block df_p/dxi_q, while a wave ROM's step runs no Newton; and its
    midpoint trajectory through solve_rom is the generic one (the wave's the
    midpoint step of its linear part over [0, 1] at K = 20, the sine-Gordon
    ROMs' the Newton step over [0, 10] at K = 10)."""
    sys, rom = PROJECTED_CASES[case]()
    model = sys.second_order
    assert rom.basis is not None and model is not None
    projected = projected_system(model, rom.basis, rom.x_ref)
    field = reduced_vector_field(rom, sys.vector_field)
    generic, linearize = _decode_and_project(rom, sys)
    rng = np.random.default_rng(15)
    tau, dim, n = 1.0, rom.reduced_dim, rom.reduced_dim // 2
    for _ in range(10):
        t = rng.uniform(0.0, 1.0)
        xi = rom.x_r0 + rng.standard_normal(dim)
        assert _rel(projected.vector_field(t, xi), field(t, xi)) <= 1e-12
        iterate = _first_iterate(projected.step(t, tau, 1, 1e-12), xi)
        if model.potential is None:
            assert iterate is None
            continue
        z = rng.standard_normal(n)
        M = linearize(t + 0.5 * tau, np.concatenate([xi[:n] + z, xi[n:]]))[1][n:, :n]
        want = z - _midpoint_q_iterate(lambda t, x: linearize(t, x)[0], M, xi, t, tau, z)
        assert _rel(z - iterate(z)[0], want) <= 1e-12
    with pytest.raises(DimensionError):
        projected.vector_field(0.0, np.zeros(dim + 1))
    t1, K = (1.0, 20) if model.potential is None else (10.0, 10)
    assert (max_frequency(model, rom.basis) * t1 / K > VERLET_BOUND) == (model.potential is not None)
    a = solve_rom(rom, sys, 0.0, t1, K, tol=1e-10)
    b = implicit_midpoint(generic, rom.x_r0, 0.0, t1, K, tol=1e-10)
    assert _rel(a.states, b.states) <= 1e-12


def test_solve_rom_projects_a_fom_with_a_wrapped_field():
    """A FOM whose field is swapped for a wrapper (as a tracer does) still runs the
    projected PSD system: the FOM field is never called."""
    sys, rom = _sg_psd_rom(SgKind.SingleSoliton)
    calls = []

    def counted(t, x):
        calls.append(t)
        return sys.vector_field(t, x)

    wrapped = dataclasses.replace(sys, vector_field=counted)
    a = solve_rom(rom, wrapped, 0.0, 1.0, 20, tol=1e-10)
    assert calls == []
    assert np.array_equal(a.states, solve_rom(rom, sys, 0.0, 1.0, 20, tol=1e-10).states)


def test_solve_rom_rejects_a_fom_without_a_split(learned_wave_rom):
    """Every ROM linearizes through the FOM's SecondOrder split: without it
    solve_rom raises before any step, and neither decodes nor calls the FOM."""
    sys, rom = learned_wave_rom
    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append(fn)
            return fn(*args)
        return wrapped

    rom = dataclasses.replace(rom, decode=counted(rom.decode),
                              decode_jacobian=counted(rom.decode_jacobian))
    unsplit = dataclasses.replace(sys, vector_field=counted(sys.vector_field), second_order=None)
    with pytest.raises(UnsplitSystemError):
        solve_rom(rom, unsplit, 0.0, 1.0, 20, tol=1e-10)
    assert calls == []


def test_projected_wave_rom_conserves_the_hamiltonian():
    """Midpoint keeps a quadratic invariant: with the symmetric X^T S X, the
    reconstructed wave states keep H to rounding over every step."""
    sys, rom = _wave_psd_rom(4)
    recon = rom.reconstruct_state(solve_rom(rom, sys, 0.0, 1.0, 60).states)
    H = np.array([sys.hamiltonian(x) for x in recon.T])
    assert np.max(np.abs(H - H[0])) <= 1e-12 * abs(H[0])


def _kick_drift_kick_loop(model, X, x_ref, x0, t0, t1, K, post=None):
    """The separable ROM's Störmer–Verlet solve written out: the force of
    _separable_force, one per step, the end-of-step force reused."""
    n = X.shape[1]
    c_q, _, force = _separable_force(model, X, x_ref, post)
    h = (t1 - t0) / K
    states = np.empty((2 * n, K + 1))
    states[:, 0] = x0
    a = force(t0, states[:n, 0])
    for k in range(K):
        q, p = states[:n, k], states[n:, k]
        p_half = p + 0.5 * h * a
        q_new = q + h * (c_q + p_half)
        a = force(t0 + (k + 1) * h, q_new)
        states[:, k + 1] = np.concatenate([q_new, p_half + 0.5 * h * a])
    return states


def _split_midpoint_loop(model, X, x_ref, x0, t0, t1, K, post=None):
    """A wave ROM's split midpoint solve written out.  The linear part
    xi_q' = c_q + eta_p, eta_p' = c_p - A xi_q (A = X^T S X) takes implicit
    midpoint in increment form: with w = c_p - A xi_q and
    G = (I + tau^2/4 A)^{-1}, dq = tau G (c_q + eta_p + tau/2 w) and eta_p gains
    tau w - tau/2 A dq.  A learned decoder's post-expand layer wraps that step
    in the half kicks eta_p -= tau/2 grad V_post(xi_q), the end kick's gradient
    reused by the next step."""
    d, n = X.shape
    x_ref = np.zeros(2 * d) if x_ref is None else x_ref
    c_q, A, _ = _separable_force(model, X, x_ref)
    c_p = -(X.T @ model.S(x_ref[:d]))
    tau = (t1 - t0) / K
    tG = tau * np.linalg.inv(np.eye(n) + 0.25 * tau ** 2 * A)
    rows = np.vstack([tG, -0.5 * tau * (A @ tG)])
    grad = None if post is None else _post_gradient(X, x_ref, post)
    states = np.empty((2 * n, K + 1))
    states[:, 0] = x0
    g = None if grad is None else grad(states[:n, 0])
    for k in range(K):
        x = states[:, k]
        if grad is not None:
            x = x.copy()
            x[n:] -= 0.5 * tau * g
        w = c_p - A @ x[:n]
        y = rows @ (c_q + x[n:] + 0.5 * tau * w)
        y[n:] += tau * w
        x = x + y
        if grad is not None:
            g = grad(x[:n])
            x[n:] -= 0.5 * tau * g
        states[:, k + 1] = x
    return states


def _learned_split_loop(model, rom, t0, t1, K):
    """_split_midpoint_loop of a learned ROM in eta, from eta(0), converted back to xi."""
    eta0 = _shift(rom.fold.shift, rom.x_r0[:, None])[:, 0]
    eta = _split_midpoint_loop(model, rom.basis, rom.x_ref, eta0, t0, t1, K, rom.fold.post)
    return _shift(rom.fold.shift, eta, -1.0)


@pytest.mark.parametrize("case", ["sg_single", "sg_doublets", "sg_single_ref", "sg_network"])
def test_sine_gordon_psd_rom_takes_kick_drift_kick(case):
    """Below the bound solve_rom is the kick-drift-kick loop written here, bitwise."""
    sys, rom = PROJECTED_CASES[case]()
    model = sys.second_order
    assert max_frequency(model, rom.basis) / 20 <= VERLET_BOUND
    want = _kick_drift_kick_loop(model, rom.basis, rom.x_ref, rom.x_r0, 0.0, 1.0, 20)
    assert np.array_equal(solve_rom(rom, sys, 0.0, 1.0, 20).states, want)


@pytest.mark.parametrize("kind", list(SgKind))
def test_verlet_sine_gordon_rom_evaluates_the_boundary_once_per_solve(kind, monkeypatch):
    """A Störmer–Verlet sine-Gordon solve tabulates b(t) at its K + 1 step times
    with one closed-form call, not one per step."""
    sys, rom = _sg_psd_rom(kind)
    assert max_frequency(sys.second_order, rom.basis) / 50 <= VERLET_BOUND
    exact, calls = models.sg_exact, []

    def counting(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(models, "sg_exact", counting)
    solve_rom(rom, sys, 0.0, 1.0, 50)
    assert len(calls) == 1


def test_kick_drift_kick_is_second_order():
    """Halving tau divides the end-state error by 3 to 5, against a reference
    solve at tau / 64."""
    sys, rom = _sg_psd_rom(SgKind.Doublets)
    ref = solve_rom(rom, sys, 0.0, 1.0, 1280).states[:, -1]
    errors = [np.linalg.norm(solve_rom(rom, sys, 0.0, 1.0, K).states[:, -1] - ref)
              for K in (20, 40, 80)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(3.0 <= r <= 5.0 for r in ratios), (errors, ratios)


def _sg64_rom(kind, n, nu):
    """A row of the README's sine-Gordon table: N = 64 on [-10, 10], t in [0, 16],
    K = 50, the reference-state PSD ROM of normalized snapshots at five nu."""
    snaps = []
    for train_nu in np.linspace(0.1, 0.6, 5):
        model = sg_build(64, train_nu, -10.0, 10.0, kind)
        x0 = sg_initial(model)
        snaps.append(implicit_midpoint(sg_system(model), x0, 0.0, 16.0, 50).states - x0[:, None])
    model = sg_build(64, nu, -10.0, 10.0, kind)
    sys, x0 = sg_system(model), sg_initial(model)
    rom = build_rom(*psd_maps(psd_cotangent_lift(np.hstack(snaps), n)), x0,
                    use_ref=True, normalized=True)
    return sys, x0, rom


@pytest.mark.parametrize("nu", [0.225, 0.475])
def test_kick_drift_kick_error_matches_midpoint(nu):
    """Störmer–Verlet's e_red is within 1.1x of the same ROM's midpoint e_red."""
    sys, x0, rom = _sg64_rom(SgKind.SingleSoliton, 4, nu)
    projected = projected_system(sys.second_order, rom.basis, rom.x_ref)
    assert max_frequency(sys.second_order, rom.basis) * 16.0 / 50 <= VERLET_BOUND
    fom = implicit_midpoint(sys, x0, 0.0, 16.0, 50)
    verlet = reduction_error("with_ref", fom, rom, solve_rom(rom, sys, 0.0, 16.0, 50))
    midpoint = reduction_error("with_ref", fom, rom, implicit_midpoint(
        dataclasses.replace(projected, step=None), rom.x_r0, 0.0, 16.0, 50))
    assert verlet <= 1.1 * midpoint, (verlet, midpoint)


@dataclasses.dataclass(eq=False)
class _FrozenEndsModel(SineGordonModel):
    """Sine-Gordon with its boundary forcing and boundary energy held at t = 0,
    so the flow is autonomous and conserves H."""

    def ends(self, t):
        return super().ends(0.0 * t)   # t = 0 at one time or at an array of them

    def hamiltonian(self, x, t):
        return super().hamiltonian(x, 0.0)


@pytest.mark.parametrize("kind", list(SgKind))
def test_kick_drift_kick_hamiltonian_does_not_drift(kind):
    """At a fixed tau the reconstructed H spreads over 10x the horizon by at most
    2x its spread over the horizon: the error oscillates, it does not grow."""
    base = sg_build(64, 0.35, -10.0, 10.0, kind)
    model = _FrozenEndsModel(**{f.name: getattr(base, f.name) for f in dataclasses.fields(base)})
    sys, x0 = sg_system(model), sg_initial(model)
    X = psd_cotangent_lift(implicit_midpoint(sys, x0, 0.0, 1.0, 20).states, 4)
    rom = build_rom(*psd_maps(X), x0, use_ref=False, normalized=False)

    def spread(t1, K):
        traj = solve_rom(rom, sys, 0.0, t1, K)
        recon = rom.reconstruct_state(traj.states)
        H = np.array([model.hamiltonian(x, 0.0) for x in recon.T])
        return (H.max() - H.min()) / abs(H.mean())

    assert max_frequency(model, rom.basis) * 0.05 <= VERLET_BOUND
    one, ten = spread(10.0, 200), spread(100.0, 2000)
    assert 0 < ten <= 2.0 * one, (one, ten)


# the five ROMs whose solves run the Newton step, with the newton_solve iterates per
# solve that the 2n Newton midpoint it replaced took, by Newton tolerance
NEWTON_ROMS = {
    **{f"sg_{kind.value}_{n}": (lambda kind=kind, n=n: _sg64_rom(kind, n, 0.475)[::2],
                                {1e-12: 150})
       for kind in SgKind for n in (8, 16)},
    "stiff_learned_wave": (_stiff_learned_wave_rom, {1e-12: 159, 1e-10: 139}),
}


@pytest.mark.parametrize("case", list(NEWTON_ROMS))
def test_newton_step_matches_the_dense_newton_midpoint(case, monkeypatch):
    """Above their bounds (sine-Gordon PSD ROMs of the README's table at
    n in {8, 16}, nu = 0.475, omega_max tau = 0.76-1.58; a learned wave ROM
    with tau sqrt(h) = 0.72) solve_rom runs Newton on xi_q.  At tol = 1e-12 it
    is the finite-difference dense Newton midpoint of the same reduced field to
    1e-9 relative (4.4e-16 to 3.0e-12 measured), and it takes no more
    newton_solve iterates per solve than the 2n Newton midpoint that the
    projected system ran before (150 each on sine-Gordon; 155 against 159 on
    the wave ROM, and 135 against 139 at tol = 1e-10)."""
    make, parent_iterates = NEWTON_ROMS[case]
    sys, rom = make()
    t1 = 16.0 if sys.second_order.potential is not None else 1.0
    projected, eta0 = (_learned_system(rom, sys) if rom.fold.shift is not None else
                       (projected_system(sys.second_order, rom.basis, rom.x_ref), rom.x_r0))
    dense = implicit_midpoint(dataclasses.replace(projected, step=None), eta0, 0.0, t1, 50)
    want = dense.states if rom.fold.shift is None else _shift(rom.fold.shift, dense.states, -1.0)
    per_step = _counting_newton(monkeypatch)
    assert _rel(solve_rom(rom, sys, 0.0, t1, 50, tol=1e-12).states, want) <= 1e-9
    for tol, parent in parent_iterates.items():
        per_step.clear()
        solve_rom(rom, sys, 0.0, t1, 50, tol=tol)
        assert len(per_step) == 50 and sum(per_step) <= parent, (tol, sum(per_step))


def test_psd_rom_falls_back_to_newton_midpoint():
    """Above the bound (omega_max tau > 1/2) a sine-Gordon PSD ROM steps by
    Newton on xi_q: solve_rom is the loop of _xi_q_newton bitwise, and the 2n
    dense Newton midpoint of the decode-and-project system to 1e-12 relative
    (9.1e-16 measured).  A wave PSD ROM takes the midpoint step of its linear
    part: the loop written out here, bitwise, and the Newton midpoint to 1e-12
    relative."""
    sys, x0, rom = _sg64_rom(SgKind.SingleSoliton, 4, 0.475)
    model = sys.second_order
    assert max_frequency(model, rom.basis) * 16.0 / 20 > VERLET_BOUND
    got = solve_rom(rom, sys, 0.0, 16.0, 20).states
    assert np.array_equal(got, _xi_q_newton_loop(model, rom.basis, rom.x_ref, rom.x_r0,
                                                 0.0, 16.0, 20, 1e-12))
    dense = implicit_midpoint(_decode_and_project(rom, sys)[0], rom.x_r0, 0.0, 16.0, 20)
    assert _rel(got, dense.states) <= 1e-12
    for n in (4, 18):
        sys, rom = _wave_psd_rom(n)
        projected = projected_system(sys.second_order, rom.basis, rom.x_ref)
        got = solve_rom(rom, sys, 0.0, 1.0, 20).states
        assert np.array_equal(got, _split_midpoint_loop(sys.second_order, rom.basis, rom.x_ref,
                                                        rom.x_r0, 0.0, 1.0, 20))
        newton = implicit_midpoint(dataclasses.replace(projected, step=None), rom.x_r0,
                                   0.0, 1.0, 20)
        assert _rel(got, newton.states) <= 1e-12


def _corrected_wave(N, mu):
    """The wave model with the edge stiffness of ROADMAP item 1's fix: S's
    diagonal is minus its off-diagonal row sum, so S is positive semidefinite.
    On today's indefinite S a PSD ROM at N = 128, n = 32 grows by 1e22 over
    [0, 1], and the rounding of its H with it."""
    model = wave_build(N, mu)
    return dataclasses.replace(model, diag=-(np.r_[model.off, 0.0] + np.r_[0.0, model.off]))


def test_stiff_wave_psd_rom_takes_the_midpoint_step_without_newton(monkeypatch):
    """A stiff wave PSD ROM (N = 128, n = 32, omega_max tau = 2.5 at K = 50)
    makes no Newton call, and is the Newton midpoint to 1e-12 relative.
    Midpoint keeps its quadratic H, so the reconstructed H's spread is rounding:
    over 10x the horizon it stays below 1e-13 and grows by at most 4x, as a
    random walk of rounding does (sqrt(10) = 3.2; 1.9-2.7x measured), where a
    secular drift would grow 10x."""
    snaps = []
    for mu in np.linspace(5.0 / 12.0, 2.0 / 3.0, 5):
        sys, x0 = wave_system(_corrected_wave(128, mu)), wave_initial(128, mu)
        snaps.append(implicit_midpoint(sys, x0, 0.0, 1.0, 50).states - x0[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # the lift is below rank
        X = psd_cotangent_lift(np.hstack(snaps), 32)
    model = _corrected_wave(128, 0.6)
    sys, x0 = wave_system(model), wave_initial(128, 0.6)
    rom = build_rom(*psd_maps(X), x0, use_ref=True, normalized=True)
    assert max_frequency(model, rom.basis) / 50 == pytest.approx(2.5, abs=0.1)
    projected = projected_system(model, rom.basis, rom.x_ref)
    calls = _counting_newton(monkeypatch)
    got = implicit_midpoint(projected, rom.x_r0, 0.0, 1.0, 50).states
    assert calls == []
    assert np.array_equal(got, solve_rom(rom, sys, 0.0, 1.0, 50).states)
    newton = implicit_midpoint(dataclasses.replace(projected, step=None), rom.x_r0, 0.0, 1.0, 50)
    assert _rel(got, newton.states) <= 1e-12

    def spread(t1, K):
        recon = rom.reconstruct_state(solve_rom(rom, sys, 0.0, t1, K).states)
        H = np.array([sys.hamiltonian(x) for x in recon.T])
        return (H.max() - H.min()) / abs(H.mean())

    one, ten = spread(1.0, 50), spread(10.0, 500)
    assert 0 < ten <= min(4.0 * one, 1e-13), (one, ten)


def test_learned_split_step_is_symplectic(learned_wave_rom):
    """One split midpoint step of the learned wave ROM (tau = 0.2, omega_max tau
    = 0.64) is a symplectic map: its central-difference Jacobian M satisfies
    M^T J M = J to 1e-8, at states around eta(0)."""
    sys, rom = learned_wave_rom
    assert _learned_path(sys, rom, 0.2) == "split"
    projected, eta0 = _learned_system(rom, sys)
    J = _dense_j(rom.reduced_dim // 2)
    rng, eps = np.random.default_rng(22), 1e-5
    for _ in range(3):
        eta = eta0 + rng.standard_normal(rom.reduced_dim)
        M = np.column_stack([(projected.step(0.0, 0.2, 1, 1e-12)(eta + eps * e)
                              - projected.step(0.0, 0.2, 1, 1e-12)(eta - eps * e)) / (2 * eps)
                             for e in np.eye(rom.reduced_dim)])
        assert np.linalg.norm(M.T @ J @ M - J) <= 1e-8


def test_strong_post_potential_declines_the_split(learned_wave_rom):
    """With the post-expand layer's a scaled by 3 the bound h on ||Hess V_post||
    gives tau sqrt(h) > 1/2: the step declines the split and runs Newton on
    xi_q, and solve_rom is the loop of _xi_q_newton bitwise, and the 2n
    separable Newton midpoint of _separable_midpoint to 1e-12 relative
    (9.7e-16 measured)."""
    sys, rom = learned_wave_rom
    rom = _scaled_post(rom, 3.0)
    model, X, post = sys.second_order, rom.basis, rom.fold.post
    h = max_frequency(model, X, rom.x_ref, post) ** 2 - max_frequency(model, X) ** 2
    assert 0.2 * np.sqrt(h) > VERLET_BOUND
    assert _learned_path(sys, rom, 0.2) == "newton"
    got = solve_rom(rom, sys, 0.0, 4.0, 20, tol=1e-10).states
    assert np.array_equal(got, _learned_xi_q_newton_loop(model, rom, 0.0, 4.0, 20, 1e-10))
    assert _rel(got, _separable_midpoint(model, rom, 0.0, 4.0, 20, 1e-10)) <= 1e-12


def test_singular_constant_schur_raises_integration_failure():
    """S = -4 I and tau = 1 make I + tau^2/4 X^T S X exactly zero: the set-up of
    the ROM's midpoint step (np.linalg.inv of that matrix) fails as an
    IntegrationFailureError at step 0 that names the step's matrix, since no
    Newton runs."""
    model, X = SecondOrder(N=3, diag=-4.0, off=0.0, h=1.0), np.eye(3)[:, :2]
    with pytest.raises(IntegrationFailureError, match="singular step matrix at step 0") as exc:
        implicit_midpoint(projected_system(model, X), np.ones(4), 0.0, 2.0, 2)
    assert exc.value.step_index == 0


def test_kick_drift_kick_non_finite_state_raises():
    """A non-finite state on the explicit path is an IntegrationFailureError at its step."""
    sys, rom = _sg_psd_rom(SgKind.SingleSoliton)
    x_r0 = rom.x_r0.copy()
    x_r0[-1] = np.nan
    with pytest.raises(IntegrationFailureError, match="non-finite state at step 0") as exc:
        solve_rom(dataclasses.replace(rom, x_r0=x_r0), sys, 0.0, 1.0, 20)
    assert exc.value.step_index == 0


def test_max_frequency_is_the_spectral_radius():
    """omega_max takes the spectral radius of X^T S X.  With a negative definite
    X^T S X, sqrt(lambda_max + sup |V''|) would be nan, nan * tau > VERLET_BOUND
    is False, and Verlet would be taken; the step runs Newton."""
    base = sg_build(30, 0.35, -10.0, 10.0, SgKind.SingleSoliton)
    model = dataclasses.replace(base, diag=-200.0, off=100.0)   # S = -100 tridiag(-1, 2, -1) / h^2
    X = psd_cotangent_lift(np.random.default_rng(16).standard_normal((60, 12)), 3).data
    lam = np.linalg.eigvalsh(X.T @ model.S(X))
    assert lam[-1] < -model.curvature
    omega = max_frequency(model, X)
    assert omega == pytest.approx(np.sqrt(-lam[0] + model.curvature), rel=1e-12)
    assert omega * 0.05 > VERLET_BOUND
    assert _first_iterate(projected_system(model, X).step(0.0, 0.05, 20, 1e-12),
                          np.zeros(6)) is not None


def test_learned_rom_newton_matrix_matches_fd_path(learned_wave_rom):
    """Freezing V_post's Gauss-Newton Hessian at the first iterate changes the
    Newton matrix, not the solution: the learned ROM's Newton step (its
    post-expand layer scaled by 3, tau = 0.2) matches its separable field
    solved by finite-difference Newton."""
    sys, rom = learned_wave_rom
    rom = _scaled_post(rom, 3.0)
    assert _learned_path(sys, rom, 0.2) == "newton"
    projected, eta0 = _learned_system(rom, sys)
    analytic = implicit_midpoint(projected, eta0, 0.0, 4.0, 20, tol=1e-10)
    fd = implicit_midpoint(OdeSystem(dim=rom.reduced_dim, vector_field=projected.vector_field),
                           eta0, 0.0, 4.0, 20, tol=1e-10)
    scale = np.max(np.abs(fd.states))
    assert np.max(np.abs(analytic.states - fd.states)) <= 1e-8 * scale


@pytest.fixture(scope="module")
def desk_wave_v6(tmp_path_factory):
    """The desk V6 wave network of the benchmark and demo 02 (N = 32, n = 4,
    five speeds in [5/12, 2/3], K = 50, 10 epochs, seed 7) and its config."""
    cfg = RunConfig().apply_variant("V6")
    cfg.N, cfg.n_range, cfg.params = 32, [4], list(np.linspace(5.0 / 12.0, 2.0 / 3.0, 5))
    cfg.time_steps, cfg.batch_size, cfg.n_epochs, cfg.eta, cfg.seed = 50, 32, 10, 0.01, 7
    cfg = cfg.validate()
    out = tmp_path_factory.mktemp("desk_wave_v6")
    cli.train_run(cfg, normalize_snapshots(cli.generate_snapshots(cfg)), out)
    return cfg, cli.load_network(out / "params_n4.npz")


def _desk_rom(desk, mu):
    """FOM, initial state and learned ROM of the desk V6 network at speed mu."""
    cfg, network = desk
    sys, x0 = cli.fom_system_for(cfg, mu)
    return sys, x0, build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                              use_ref=True, normalized=True)


def test_learned_verlet_error_matches_midpoint(desk_wave_v6):
    """At mu = 0.44 the desk V6 wave ROM is below the bound and steps by
    Störmer–Verlet; its e_red is within 1.1x of the same ROM's midpoint e_red."""
    sys, x0, rom = _desk_rom(desk_wave_v6, 0.44)
    model = sys.second_order
    assert max_frequency(model, rom.basis, rom.x_ref, rom.fold.post) / 50 <= VERLET_BOUND
    fom = implicit_midpoint(sys, x0, 0.0, 1.0, 50)
    verlet = reduction_error("with_ref", fom, rom, solve_rom(rom, sys, 0.0, 1.0, 50, tol=1e-10))
    midpoint = reduction_error("with_ref", fom, rom, Trajectory(
        states=_separable_midpoint(model, rom, 0.0, 1.0, 50, 1e-10), t0=0.0, t1=1.0, K=50))
    assert verlet <= 1.1 * midpoint, (verlet, midpoint)


def test_learned_verlet_hamiltonian_does_not_drift(learned_wave_rom):
    """At a fixed tau a learned wave ROM below the bound (omega_max tau = 0.16)
    keeps its reconstructed H: the spread over 10x the horizon is at most 2x
    the spread over the horizon.  This ROM's X^T S X is positive definite; the
    desk V6 basis has a negative direction on today's wave stiffness (ROADMAP
    item 1), so its trajectories grow exponentially under any step."""
    sys, rom = learned_wave_rom
    X = rom.basis
    assert np.linalg.eigvalsh(X.T @ sys.second_order.S(X))[0] > 0
    assert max_frequency(sys.second_order, X, rom.x_ref, rom.fold.post) / 20 <= VERLET_BOUND

    def spread(t1, K):
        recon = rom.reconstruct_state(solve_rom(rom, sys, 0.0, t1, K, tol=1e-10).states)
        H = np.array([sys.hamiltonian(x) for x in recon.T])
        return (H.max() - H.min()) / abs(H.mean())

    one, ten = spread(1.0, 20), spread(10.0, 200)
    assert 0 < ten <= 2.0 * one, (one, ten)


def test_stiff_untrained_network_takes_the_split_midpoint():
    """An untrained build_network decoder at N = 128 has a random, stiff X
    (omega_max tau about 2 at K = 50) and a weak V_post (tau sqrt(h) = 8e-4):
    solve_rom is the split midpoint loop written out here, bitwise, and the
    separable Newton midpoint to 3e-10 relative (1.4e-10 measured)."""
    sys, x0 = wave_system(wave_build(128, 0.6)), wave_initial(128, 0.6)
    network = build_network(sys.dim, 8, seed=7)
    rom = build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                    use_ref=True, normalized=True)
    assert max_frequency(sys.second_order, rom.basis, rom.x_ref, rom.fold.post) / 50 > VERLET_BOUND
    assert _learned_path(sys, rom, 1.0 / 50) == "split"
    got = solve_rom(rom, sys, 0.0, 1.0, 50, tol=1e-10).states
    assert np.array_equal(got, _learned_split_loop(sys.second_order, rom, 0.0, 1.0, 50))
    assert _rel(got, _separable_midpoint(sys.second_order, rom, 0.0, 1.0, 50, 1e-10)) <= 3e-10


def _benchmark_speeds(seed):
    """The five test speeds of the wave-autoencoder benchmark at a seed
    (perfbench/workloads.py, `stratified`): one draw in each fifth of
    [5/12, 2/3]."""
    lo, hi = 5.0 / 12.0, 2.0 / 3.0
    u = np.random.default_rng(seed).uniform(0.05, 0.95, size=5)
    return [lo + (i + u[i]) * (hi - lo) / 5 for i in range(5)]


@pytest.mark.parametrize("seed, verlet", [(1, 1), (2, 2)])
def test_desk_wave_rom_makes_no_newton_iterate(seed, verlet, desk_wave_v6, monkeypatch):
    """At the benchmark's test speeds the desk V6 wave ROM steps by
    Störmer–Verlet or by the split midpoint, and makes no Newton iterate."""
    paths = []
    calls = _counting_newton(monkeypatch)
    for mu in _benchmark_speeds(seed):
        sys, _, rom = _desk_rom(desk_wave_v6, mu)
        paths.append(_learned_path(sys, rom, 1.0 / 50))
        solve_rom(rom, sys, 0.0, 1.0, 50, tol=1e-10)
    assert calls == []
    assert paths.count("verlet") == verlet and paths.count("split") == 5 - verlet, paths


@pytest.mark.parametrize("scale", [1.0, 300.0])
def test_post_curvature_bounds_the_hessian_of_v_post(scale, desk_wave_v6):
    """The state-independent bound on ||Hess V_post|| that max_frequency adds
    to omega_max^2 is at least the spectral norm of the central-difference
    Hessian at random xi_q, for the desk V6 post-expand layer and for the same
    layer with its a scaled up."""
    sys, _, rom = _desk_rom(desk_wave_v6, 0.55)
    X, x_ref, post = rom.basis, rom.x_ref, rom.fold.post
    post = GradientLayer("P", post.K, scale * post.a, post.b)
    d, n = X.shape

    def V(xi_q):
        r = x_ref[d:] + post.K.T @ (post.a * np.tanh(post.K @ (X @ xi_q) + post.b))
        r -= X @ (X.T @ r)
        return 0.5 * r @ r

    bound = (max_frequency(sys.second_order, X, x_ref, post) ** 2
             - max_frequency(sys.second_order, X) ** 2)
    rng, eps, E = np.random.default_rng(19), 1e-3, np.eye(n)
    worst = 0.0
    for _ in range(10):
        xi_q = rom.x_r0[:n] + 3.0 * rng.standard_normal(n)
        H = np.array([[(V(xi_q + eps * (ei + ej)) - V(xi_q + eps * (ei - ej))
                        - V(xi_q - eps * (ei - ej)) + V(xi_q - eps * (ei + ej))) / (4 * eps ** 2)
                       for ej in E] for ei in E])
        worst = max(worst, np.linalg.norm(H, 2))
    assert 0 < worst <= bound, (worst, bound)


def test_square_rom_reproduces_fom():
    """With n = d the PSD ROM is a change of basis and must reproduce the FOM."""
    model = wave_build(4, 0.25)
    sys = wave_system(model)
    x0 = wave_initial(4, 0.25)
    fom = implicit_midpoint(sys, x0, 0.0, 1.0, 40)
    d = sys.dim // 2
    X = psd_cotangent_lift(fom.states, d)
    encode, decode, jacobian = psd_maps(X)
    rom = build_rom(encode, decode, jacobian, x0, use_ref=True, normalized=True)
    red = solve_rom(rom, sys, 0.0, 1.0, 40)
    recon = rom.reconstruct_state(red.states)
    err = np.max(np.abs(recon - fom.states)) / max(1.0, np.max(np.abs(fom.states)))
    assert err < 1e-8
    assert reduction_error("with_ref", fom, rom, red) < 1e-8


def test_error_metrics_hand_oracles():
    """Two-step trajectories small enough to verify by hand arithmetic."""
    exact = Trajectory(states=np.array([[1.0, 0.0, 3.0], [0.0, 2.0, 0.0]]),
                       t0=0.0, t1=1.0, K=2)
    # decode doubles, encode is ignored by reduction_error
    rom = RomSpec(encode=lambda x: x, decode=lambda x: 2.0 * x,
                  decode_jacobian=lambda x: 2.0 * np.eye(2), x_r0=np.zeros(2),
                  reduced_dim=2, x_ref=np.array([0.5, 0.0]))
    reduced = Trajectory(states=np.array([[0.5, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                         t0=0.0, t1=1.0, K=2)
    # no_ref recon: [[1,0,2],[0,2,0]] -> diff only (0,2): 1; denom sum sq = 14
    assert reduction_error("no_ref", exact, rom, reduced) == pytest.approx(np.sqrt(1.0 / 14.0))
    # with_ref adds 0.5 to the first row: diffs 0.5, 0.5, -0.5 and 0,0,0
    assert reduction_error("with_ref", exact, rom, reduced) == pytest.approx(np.sqrt(0.75 / 14.0))
    with pytest.raises(SympmorError):
        reduction_error("sideways", exact, rom, reduced)

    # projection error: e = halve, d = double => identity; no_ref error 0
    assert projection_error("no_ref", exact, lambda x: 0.5 * x, lambda x: 2.0 * x) == 0.0
    # e = first row only, d = pad with zeros
    enc = lambda x: x[:1]
    dec = lambda x: np.vstack([x, np.zeros_like(x)])
    # recon kills the second row: err = sqrt((0 + 4 + 0) / 14)
    assert projection_error("no_ref", exact, enc, dec) == pytest.approx(np.sqrt(4.0 / 14.0))
    with pytest.raises(SympmorError):
        projection_error("with_ref", exact, enc, dec)  # missing x_ref


def test_projection_error_monotone_in_n():
    model = wave_build(16, 0.25)
    sys = wave_system(model)
    x0 = wave_initial(16, 0.25)
    fom = implicit_midpoint(sys, x0, 0.0, 1.0, 60)
    errs = []
    for n in (2, 4, 8):
        X = psd_cotangent_lift(fom.states, n)
        encode, decode, _ = psd_maps(X)
        errs.append(projection_error("no_ref", fom, encode, decode))
    assert errs[0] > errs[1] > errs[2]


def test_symplectic_residual_small_for_consistent_rom():
    model = wave_build(8, 0.25)
    sys = wave_system(model)
    x0 = wave_initial(8, 0.25)
    fom = implicit_midpoint(sys, x0, 0.0, 1.0, 50)
    X = psd_cotangent_lift(fom.states, 4)
    encode, decode, jacobian = psd_maps(X)
    rom = build_rom(encode, decode, jacobian, x0, use_ref=True, normalized=True)
    red = solve_rom(rom, sys, 0.0, 1.0, 50)
    # the projected residual vanishes at the midpoint discretization itself
    assert symplectic_residual_projection(rom, sys.vector_field, red) < 1e-9


def test_snapshot_file_roundtrip(tmp_path):
    rng = np.random.default_rng(20)
    data = rng.standard_normal((8, 6))
    s = SnapshotSet(data=data, params=[0.25, 0.5], K=2, t0=0.0, t1=1.0)
    norm = normalize_snapshots(s)
    p = tmp_path / "snaps.bin"
    write_snapshot_file(p, norm, model_id="wave", seed=7)
    back, meta = read_snapshot_file(p)
    assert np.array_equal(back.data, norm.data)  # bitwise
    assert back.params == [0.25, 0.5]
    assert back.K == 2 and back.normalized
    assert meta == {"params": [0.25, 0.5], "t0": 0.0, "t1": 1.0, "model": "wave", "seed": 7}


def test_snapshot_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(SympmorError):
        read_snapshot_file(p)
    # a 41-byte header claiming 2^40 parameters, no payload and no sidecar
    p.write_bytes(struct.pack("<4sIQQQQB", b"SMOR", 1, 0, 0, 2 ** 40, 0, 0))
    with pytest.raises(SympmorError, match="parameters"):
        read_snapshot_file(p)
    # a header of 2 parameters and a sidecar of 3
    write_snapshot_file(p, SnapshotSet(data=np.zeros((4, 6)), params=[0.25, 0.5], K=2,
                                       t0=0.0, t1=1.0))
    side = Path(str(p) + ".meta.json")
    side.write_text(json.dumps(dict(json.loads(side.read_text()), params=[0.25, 0.5, 0.75])))
    with pytest.raises(SympmorError, match="meta.json.* 3 parameters, the header 2"):
        read_snapshot_file(p)


def test_snapshot_sidecar_values_are_typed(tmp_path):
    """Wrongly typed sidecar values raise SympmorError, not a raw ValueError/TypeError."""
    s = SnapshotSet(data=np.zeros((4, 6)), params=[0.25, 0.5], K=2, t0=0.0, t1=1.0)
    p = tmp_path / "snaps.bin"
    for meta in ({"params": 5}, {"params": ["x", 1]}, {"t0": [1]}):
        write_snapshot_file(p, s)
        Path(str(p) + ".meta.json").write_text(json.dumps(meta))
        with pytest.raises(SympmorError, match="metadata"):
            read_snapshot_file(p)


def test_snapshot_sidecar_ignores_initial_states(tmp_path):
    """Older sidecars also carry initial_states; nothing reads it, whatever it holds."""
    s = SnapshotSet(data=np.arange(24.0).reshape(4, 6), params=[0.25, 0.5], K=2,
                    t0=0.0, t1=1.0, normalized=True)
    p = tmp_path / "snaps.bin"
    write_snapshot_file(p, s, model_id="wave", seed=7)
    side = Path(str(p) + ".meta.json")
    meta = json.loads(side.read_text())
    for inits in ([[0.0, 1.0]] * 4, [[1.0, 2.0]], "abc"):
        side.write_text(json.dumps(dict(meta, initial_states=inits)))
        back, _ = read_snapshot_file(p)
        assert np.array_equal(back.data, s.data)
        assert (back.params, back.t0, back.t1, back.normalized) == ([0.25, 0.5], 0.0, 1.0, True)
