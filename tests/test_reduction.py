"""Snapshots, PSD cotangent lift (eigenvector oracle), ROM assembly,
error metrics with hand-computed oracles, snapshot file round trip."""

import copy
import dataclasses
import json
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from sympmor import cli, reduction
from sympmor.config import RunConfig
from sympmor.errors import (DimensionError, IntegrationFailureError, SympmorError,
                            UnsplitSystemError)
from sympmor.integrators import (MAX_NEWTON, OdeSystem, Trajectory, _fd_jacobian,
                                 dense_newton, implicit_midpoint)
from sympmor.models import (SgKind, SineGordonModel, sg_build, sg_initial, sg_system,
                            wave_build, wave_initial, wave_system)
from sympmor.network import LossKind, Network, PSDLayer, Trainer, build_network, train_epochwise
from sympmor.reduction import (
    VERLET_BOUND,
    RomSpec,
    SnapshotSet,
    _poisson_product,
    build_rom,
    max_frequency,
    normalize_snapshots,
    projected_system,
    projection_error,
    psd_cotangent_lift,
    psd_maps,
    reduced_linearization,
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
    """The desk-trained wave decoder bound as a reference-state ROM."""
    sys, x0, network, _ = learned_wave_network
    rom = build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                    use_ref=True, normalized=True)
    return sys, rom


def test_reduced_jacobian_psd_matches_fd():
    """Linear PSD decoder on sine-Gordon: the Newton matrix is the exact Jacobian."""
    model = sg_build(20, 0.3, -10.0, 10.0, SgKind.SingleSoliton)
    sys, x0 = sg_system(model), sg_initial(model)
    fom = implicit_midpoint(sys, x0, 0.0, 1.0, 10)
    encode, decode, jacobian = psd_maps(psd_cotangent_lift(fom.states, 3))
    rom = build_rom(encode, decode, jacobian, x0, use_ref=False, normalized=False)
    field = reduced_vector_field(rom, sys.vector_field)
    linearize = reduced_linearization(rom, sys)
    rng = np.random.default_rng(13)
    for _ in range(5):
        xi = rom.x_r0 + 0.5 * rng.standard_normal(6)
        fd = _fd_jacobian(field, 0.3, xi)
        assert np.linalg.norm(linearize(0.3, xi)[1] - fd) < 1e-6 * np.linalg.norm(fd)


def test_reduced_jacobian_learned_matches_dense_j_products(learned_wave_rom):
    sys, rom = learned_wave_rom
    d, n = sys.dim // 2, 2
    J2d, J2n = _dense_j(d), _dense_j(n)
    Df = sys.second_order.jacobian(0.0, np.zeros(sys.dim), np.eye(sys.dim))
    linearize = reduced_linearization(rom, sys)
    rng = np.random.default_rng(14)
    for _ in range(5):
        xi = rom.x_r0 + rng.standard_normal(2 * n)
        _, Dd = rom.decode_jacobian(xi)
        oracle = -J2n @ Dd.T @ J2d @ Df @ Dd
        assert np.linalg.norm(linearize(0.0, xi)[1] - oracle) < 1e-12 * np.linalg.norm(oracle)


def test_learned_rom_decodes_once_per_fom_field_call(learned_wave_rom, monkeypatch):
    """One decoder pass per FOM field evaluation: one per Newton linearization,
    which evaluates the FOM once ([f | Df Dd] in one stencil pass), and one for
    the explicit Euler start.  Nothing bounds the number of iterates."""
    sys, rom = learned_wave_rom
    calls = {"decode": 0, "newton": 0, "fom": 0}

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    rom = dataclasses.replace(rom, decode_jacobian=counted("decode", rom.decode_jacobian))
    model = dataclasses.replace(sys.second_order)
    model.linearization = counted("fom", model.linearization)
    fom = dataclasses.replace(sys, vector_field=counted("fom", sys.vector_field),
                              second_order=model)
    monkeypatch.setattr(reduction, "dense_newton",
                        lambda linearize: counted("newton", dense_newton(linearize)))
    solve_rom(rom, fom, 0.0, 1.0, 20, tol=1e-10)
    assert calls["decode"] == calls["newton"] + 1 == calls["fom"]


def test_learned_sine_gordon_rom_fused_path_is_bitwise_two_call_path():
    """A learned (V6) sine-Gordon ROM gives the same trajectory bitwise whether
    each iterate evaluates the FOM in one stencil pass or as field and Jacobian."""
    model = sg_build(16, 0.35, -10.0, 10.0, SgKind.SingleSoliton)
    sys, x0 = sg_system(model), sg_initial(model)
    states = implicit_midpoint(sys, x0, 0.0, 4.0, 20).states
    network = build_network(sys.dim, 4, seed=5)
    trainer = Trainer(network, RunConfig(variant="V6", eta=0.01, seed=5))
    train_epochwise(trainer, states - x0[:, None], batch_size=8, n_epochs=3,
                    loss_kind=LossKind.Relative, seed=6)
    rom = build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                    use_ref=True, normalized=True)
    fused = dataclasses.replace(model)
    passes = []
    fused.linearization = lambda *args: passes.append(1) or model.linearization(*args)
    a = solve_rom(rom, dataclasses.replace(sys, second_order=fused), 0.0, 4.0, 20, tol=1e-10)

    def two_call(t, xi):
        """Field, then Jacobian: the same two products as the fused pass."""
        x_full, D = rom.state_and_jacobian(xi)
        return (_poisson_product(D, model.field(t, x_full)),
                _poisson_product(D, model.jacobian(t, x_full, D)))

    two_call_sys = OdeSystem(dim=rom.reduced_dim,
                             vector_field=reduced_vector_field(rom, sys.vector_field),
                             newton=dense_newton(two_call))
    b = implicit_midpoint(two_call_sys, rom.x_r0, 0.0, 4.0, 20, tol=1e-10)
    assert len(passes) >= 20
    assert np.array_equal(a.states, b.states)


def test_learned_rom_decoder_passes_per_solve(learned_wave_rom):
    """At K = 50 a learned-ROM solve makes at most 2.5 decoder passes per step:
    the extrapolated start costs none, and the contraction stop skips the
    confirming iterate (a start from explicit Euler and a stop on ||delta||
    alone made about 4 per step here)."""
    sys, rom = learned_wave_rom
    passes = []

    def counted(xi):
        passes.append(xi)
        return rom.decode_jacobian(xi)

    K = 50
    solve_rom(dataclasses.replace(rom, decode_jacobian=counted), sys, 0.0, 1.0, K, tol=1e-10)
    assert len(passes) <= 2.5 * K


def _learned_sine_gordon_network():
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


@pytest.mark.parametrize("case", ["wave", "sine_gordon"])
def test_folded_learned_rom_matches_the_per_layer_jet_rom(case, learned_wave_network):
    """build_rom folds a Network's decoder; a decoder Jacobian that is not a
    Network's bound method keeps the per-layer jet.  Both ROMs give the same
    trajectory to 1e-12 with the same number of decoder passes."""
    sys, x0, network, _ = (learned_wave_network if case == "wave"
                           else _learned_sine_gordon_network())
    folded = build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                       use_ref=True, normalized=True)
    generic = build_rom(network.encode, network.decode,
                        lambda xi: network.decoder_jacobian(xi), x0,
                        use_ref=True, normalized=True)
    assert generic.decode == network.decode and folded.decode != network.decode
    assert _rel(folded.x_ref, generic.x_ref) <= 1e-14
    trajectories, passes = [], []
    for rom in (folded, generic):
        counted = []

        def decode_jacobian(xi, inner=rom.decode_jacobian):
            counted.append(xi)
            return inner(xi)

        rom = dataclasses.replace(rom, decode_jacobian=decode_jacobian)
        trajectories.append(solve_rom(rom, sys, 0.0, 1.0, 20, tol=1e-10).states)
        passes.append(len(counted))
    assert passes[0] == passes[1] >= 20
    assert _rel(trajectories[0], trajectories[1]) <= 1e-12


def test_learned_rom_binds_the_decoder_weights_at_build(learned_wave_network):
    """Training the network after build_rom moves the network's decoder, not the ROM's."""
    sys, x0, network, data = learned_wave_network
    network = copy.deepcopy(network)
    rom = build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                    use_ref=True, normalized=True)
    xi = rom.x_r0 + 0.1
    before = rom.decode_jacobian(xi)
    trainer = Trainer(network, RunConfig(variant="V5", eta=0.01, seed=3))
    for start in (0, 8):
        trainer.train_batch(LossKind.ScaledMSE, data[:, start:start + 8])
    after = rom.decode_jacobian(xi)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert not np.array_equal(network.decoder_jacobian(xi)[1], before[1])


def _sg_fom():
    model = sg_build(40, 0.35, -10.0, 10.0, SgKind.SingleSoliton)
    return sg_system(model), sg_initial(model)


def _learned_rom_system(learned_wave_rom):
    """The learned ROM as solve_rom runs it, with its Newton hook exposed."""
    sys, rom = learned_wave_rom
    return _generic_system(rom, sys), rom.x_r0


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


STOP_CASES = {"sg_fom": lambda fixture: _sg_fom(), "learned_rom": _learned_rom_system}


@pytest.mark.parametrize("case", list(STOP_CASES))
def test_contraction_stop_takes_no_more_iterates(case, learned_wave_rom):
    """Each step, from the same start, takes no more Newton iterates than the
    plain ||delta|| test would, and the trajectory agrees with a solve at
    tol = 1e-13 to 1e-9."""
    sys, x0 = STOP_CASES[case](learned_wave_rom)
    t0, t1, K, tol = 0.0, 1.0, 30, 1e-10
    h = (t1 - t0) / K
    per_step = np.zeros(K, dtype=int)

    def counted(t, x, tau):
        per_step[int(round((t - t0) / h - 0.5))] += 1
        return sys.newton(t, x, tau)

    traj = implicit_midpoint(dataclasses.replace(sys, newton=counted), x0, t0, t1, K, tol=tol)
    plain = [_plain_iterates(sys, traj.states, k, t0, h, tol) for k in range(K)]
    assert np.all(per_step >= 1) and np.all(per_step <= plain), (per_step, plain)
    tight = implicit_midpoint(sys, x0, t0, t1, K, tol=1e-13)
    assert _rel(traj.states, tight.states) <= 1e-9


def _generic_system(rom, sys):
    """The ROM as every decoder runs it: decode xi, call the FOM, project back."""
    return OdeSystem(dim=rom.reduced_dim, vector_field=reduced_vector_field(rom, sys.vector_field),
                     newton=dense_newton(reduced_linearization(rom, sys)))


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
    """solve_rom matches the integrator's default dense Newton built from the
    reduced field and a reduced Jacobian written here, bitwise for the learned
    ROM.  The PSD ROM's projected system, through its Newton midpoint path
    (solve_rom takes Störmer–Verlet here), agrees with the generic
    decode-and-project system to rounding."""
    if not learned:
        sys, rom = _sg_psd_rom(SgKind.SingleSoliton)
        projected = projected_system(sys.second_order, rom.basis, rom.x_ref)
        a = implicit_midpoint(dataclasses.replace(projected, step=None), rom.x_r0, 0.0, 1.0, 20,
                              tol=1e-10)
        b = implicit_midpoint(_generic_system(rom, sys), rom.x_r0, 0.0, 1.0, 20, tol=1e-10)
        assert _rel(a.states, b.states) <= 1e-12
        return
    sys, rom = learned_wave_rom

    def reduced_jac(t, xi, V):
        x_full, D = rom.state_and_jacobian(xi)
        return _poisson_product(D, sys.second_order.jacobian(t, x_full, D)) @ V

    field = reduced_vector_field(rom, sys.vector_field)
    default = OdeSystem(dim=rom.reduced_dim, vector_field=field, newton=dense_newton(
        lambda t, xi: (field(t, xi), reduced_jac(t, xi, np.eye(len(xi))))))
    a = solve_rom(rom, sys, 0.0, 1.0, 20, tol=1e-10)
    b = implicit_midpoint(default, rom.x_r0, 0.0, 1.0, 20, tol=1e-10)
    assert np.array_equal(a.states, b.states)


PROJECTED_CASES = {"sg_single": lambda: _sg_psd_rom(SgKind.SingleSoliton),
                   "sg_doublets": lambda: _sg_psd_rom(SgKind.Doublets),
                   "sg_single_ref": lambda: _sg_psd_rom(SgKind.SingleSoliton, use_ref=True),
                   "wave_ref": lambda: _wave_psd_rom(4),
                   "wave_ref_square": lambda: _wave_psd_rom(18),    # n = d = N + 2
                   "sg_network": _sg_network_psd_rom}


@pytest.mark.parametrize("case", list(PROJECTED_CASES))
def test_projected_system_matches_generic_rom(case):
    """The projected PSD system against the decode-and-project oracles: its field
    is the reduced field, its Newton solve is the dense solve of I - h/2 M for
    the Newton matrix M, and its midpoint trajectory is the generic one (through
    solve_rom for the wave; the sine-Gordon ROMs, which solve_rom runs by
    Störmer–Verlet, through the Newton path)."""
    sys, rom = PROJECTED_CASES[case]()
    assert rom.basis is not None and sys.second_order is not None
    projected = projected_system(sys.second_order, rom.basis, rom.x_ref)
    field = reduced_vector_field(rom, sys.vector_field)
    linearize = reduced_linearization(rom, sys)
    rng = np.random.default_rng(15)
    h, dim = 0.05, rom.reduced_dim
    for _ in range(10):
        t, r = rng.uniform(0.0, 1.0), rng.standard_normal(dim)
        xi = rom.x_r0 + rng.standard_normal(dim)
        assert _rel(projected.vector_field(t, xi), field(t, xi)) <= 1e-12
        f, solve = projected.newton(t, xi, h)
        f_gen, M = linearize(t, xi)
        assert _rel(f, f_gen) <= 1e-12
        assert _rel(solve(r), np.linalg.solve(np.eye(dim) - 0.5 * h * M, r)) <= 1e-12
    with pytest.raises(DimensionError):
        projected.vector_field(0.0, np.zeros(dim + 1))
    if projected.step is None:
        a = solve_rom(rom, sys, 0.0, 1.0, 20, tol=1e-10)
    else:
        a = implicit_midpoint(dataclasses.replace(projected, step=None), rom.x_r0, 0.0, 1.0, 20,
                              tol=1e-10)
    b = implicit_midpoint(_generic_system(rom, sys), rom.x_r0, 0.0, 1.0, 20, tol=1e-10)
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


def _kick_drift_kick_loop(model, X, x_ref, x0, t0, t1, K):
    """The PSD ROM's Störmer–Verlet solve written out: the Galerkin terms of
    projected_system, one force per step, the end-of-step force reused."""
    d, n = X.shape
    x_ref = np.zeros(2 * d) if x_ref is None else x_ref
    XtSX = X.T @ model.S(X)
    c_q, c_p = X.T @ x_ref[d:], -(X.T @ model.S(x_ref[:d]))
    ends = X[[0, -1]].T

    def force(t, xi_q):
        f_p = c_p - XtSX @ xi_q
        f_p -= X.T @ np.sin(x_ref[:d] + X @ xi_q) - ends @ model.ends(t)
        return f_p

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


@pytest.mark.parametrize("case", ["sg_single", "sg_doublets", "sg_single_ref", "sg_network"])
def test_sine_gordon_psd_rom_takes_kick_drift_kick(case):
    """Below the bound solve_rom is the kick-drift-kick loop written here, bitwise."""
    sys, rom = PROJECTED_CASES[case]()
    model = sys.second_order
    assert max_frequency(model, rom.basis) / 20 <= VERLET_BOUND
    want = _kick_drift_kick_loop(model, rom.basis, rom.x_ref, rom.x_r0, 0.0, 1.0, 20)
    assert np.array_equal(solve_rom(rom, sys, 0.0, 1.0, 20).states, want)


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
    assert projected.step(0.0, 16.0 / 50) is not None
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
        return super().ends(0.0)

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


def test_psd_rom_falls_back_to_newton_midpoint():
    """Above the bound (omega_max tau > 1/2) and for every wave PSD ROM the step
    hook declines, and solve_rom is the Newton midpoint bitwise."""
    sys, x0, rom = _sg64_rom(SgKind.SingleSoliton, 4, 0.475)
    projected = projected_system(sys.second_order, rom.basis, rom.x_ref)
    assert max_frequency(sys.second_order, rom.basis) * 16.0 / 20 > VERLET_BOUND
    assert projected.step(0.0, 16.0 / 20) is None
    newton = dataclasses.replace(projected, step=None)
    assert np.array_equal(solve_rom(rom, sys, 0.0, 16.0, 20).states,
                          implicit_midpoint(newton, rom.x_r0, 0.0, 16.0, 20).states)
    for n in (4, 18):
        sys, rom = _wave_psd_rom(n)
        projected = projected_system(sys.second_order, rom.basis, rom.x_ref)
        assert projected.step is None
        assert np.array_equal(solve_rom(rom, sys, 0.0, 1.0, 20).states,
                              implicit_midpoint(projected, rom.x_r0, 0.0, 1.0, 20).states)


def test_kick_drift_kick_non_finite_state_raises():
    """A non-finite state on the explicit path is an IntegrationFailureError at its step."""
    sys, rom = _sg_psd_rom(SgKind.SingleSoliton)
    x_r0 = rom.x_r0.copy()
    x_r0[-1] = np.nan
    with pytest.raises(IntegrationFailureError, match="non-finite state at step 0") as exc:
        solve_rom(dataclasses.replace(rom, x_r0=x_r0), sys, 0.0, 1.0, 20)
    assert exc.value.step_index == 0


def test_learned_rom_newton_matrix_matches_fd_path(learned_wave_rom):
    """Dropping the decoder curvature changes the Newton matrix, not the solution."""
    sys, rom = learned_wave_rom
    analytic = solve_rom(rom, sys, 0.0, 1.0, 20, tol=1e-10)
    field = reduced_vector_field(rom, sys.vector_field)
    fd = implicit_midpoint(OdeSystem(dim=rom.reduced_dim, vector_field=field), rom.x_r0,
                           0.0, 1.0, 20, tol=1e-10)
    scale = np.max(np.abs(fd.states))
    assert np.max(np.abs(analytic.states - fd.states)) <= 1e-8 * scale


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
