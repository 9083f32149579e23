"""Autoencoder layers: symplecticity, analytic gradients vs directional FD,
hand-computed loss oracles, and training-loop behavior."""

import numpy as np
import pytest

from sympmor import optimizers as opt, stiefel
from sympmor.cli import load_network, save_network
from sympmor.config import RunConfig
from sympmor.errors import ConfigError, DegenerateBatchError, DimensionError, TrainingDivergedError
from sympmor.network import (
    GradientLayer,
    LossKind,
    Network,
    PSDLayer,
    Trainer,
    build_network,
    loss,
    loss_backward,
    train_epochwise,
    train_noepoch,
)
from sympmor.stiefel import random_stiefel


def symplectic_j(two_d):
    d = two_d // 2
    J = np.zeros((two_d, two_d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = -np.eye(d)
    return J


def fd_jacobian(fn, x, eps=1e-6):
    n = len(x)
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        cols.append((fn(x + e) - fn(x - e)) / (2 * eps))
    return np.column_stack(cols)


def make_gradient_layer(kind, dim, seed):
    rng = np.random.default_rng(seed)
    half = dim // 2
    L = 5 * half
    return GradientLayer(kind,
                         rng.standard_normal((L, half)) * 0.3,
                         rng.standard_normal(L) * 0.3,
                         rng.standard_normal(L) * 0.1)


@pytest.mark.parametrize("kind", ["P", "Q"])
def test_gradient_layer_symplectic(kind):
    layer = make_gradient_layer(kind, 6, 0)
    x = np.random.default_rng(1).standard_normal(6) * 0.5

    def apply_single(v):
        return layer.forward(v[:, None])[0][:, 0]

    M = fd_jacobian(apply_single, x)
    J = symplectic_j(6)
    assert np.linalg.norm(M.T @ J @ M - J) < 1e-7


def test_gradient_layer_hand_oracle():
    # 1 degree of freedom, L = 1, tanh: [q; p] -> [q; p + k a tanh(k q + b)]
    layer = GradientLayer("P", np.array([[2.0]]), np.array([0.5]), np.array([0.1]))
    out, _ = layer.forward(np.array([[0.3], [1.0]]))
    assert abs(out[0, 0] - 0.3) < 1e-15
    assert abs(out[1, 0] - (1.0 + 2.0 * 0.5 * np.tanh(2.0 * 0.3 + 0.1))) < 1e-15


@pytest.mark.parametrize("kind", ["P", "Q"])
def test_gradient_layer_backward_directional(kind):
    layer = make_gradient_layer(kind, 8, 3)
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((8, 5))
    out, tape = layer.forward(batch)
    upstream = rng.standard_normal(out.shape)
    input_grad, grads = layer.backward(tape, upstream)
    scalar = lambda o: float(np.tensordot(upstream, o))

    # input gradient via directional FD
    dx = rng.standard_normal(batch.shape)
    eps = 1e-6
    fd = (scalar(layer.forward(batch + eps * dx)[0])
          - scalar(layer.forward(batch - eps * dx)[0])) / (2 * eps)
    assert abs(fd - np.tensordot(input_grad, dx)) < 1e-6 * max(1.0, abs(fd))

    # parameter gradients via directional FD
    for name in ("K", "a", "b"):
        P = getattr(layer, name)
        dP = rng.standard_normal(P.shape)
        setattr(layer, name, P + eps * dP)
        up = scalar(layer.forward(batch)[0])
        setattr(layer, name, P - eps * dP)
        dn = scalar(layer.forward(batch)[0])
        setattr(layer, name, P)
        fd = (up - dn) / (2 * eps)
        assert abs(fd - np.vdot(grads[name], dP)) < 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("kind", ["P", "Q"])
def test_gradient_layer_differential_matches_fd(kind):
    layer = make_gradient_layer(kind, 6, 5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 1))
    dx = rng.standard_normal((6, 1))
    eps = 1e-6
    fd = (layer.forward(x + eps * dx)[0] - layer.forward(x - eps * dx)[0]) / (2 * eps)
    assert np.linalg.norm(layer.differential(np.hstack([x, dx]))[:, 1:] - fd) < 1e-7


def test_psd_layer_forward_and_backward():
    X = random_stiefel(4, 2, 0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3))
    reduce = PSDLayer(X, "reduce")
    expand = PSDLayer(X, "expand")
    y, tape_e = expand.forward(x)
    A = X.data
    assert np.linalg.norm(y[:4] - A @ x[:2]) < 1e-14
    assert np.linalg.norm(y[4:] - A @ x[2:]) < 1e-14
    z, tape_r = reduce.forward(y)
    # reduce after expand is the identity for orthonormal A
    assert np.linalg.norm(z - x) < 1e-12

    # Euclidean weight gradient via directional FD through a scalar head
    upstream = rng.standard_normal(y.shape)
    _, grads = expand.backward(tape_e, upstream)
    dX = rng.standard_normal(A.shape)
    eps = 1e-7
    scalar = lambda W: float(np.tensordot(
        upstream, np.vstack([W @ x[:2], W @ x[2:]])))
    fd = (scalar(A + eps * dX) - scalar(A - eps * dX)) / (2 * eps)
    assert abs(fd - np.tensordot(grads["X"], dX)) < 1e-6 * max(1.0, abs(fd))


def test_psd_layer_differential_rejects_wrong_size():
    layer = PSDLayer(random_stiefel(4, 2, 0), "expand")
    with pytest.raises(DimensionError):
        layer.differential(np.eye(6))


def test_psd_expand_is_symplectic_lift():
    # M = blockdiag(A, A) satisfies M^T J_{2N} M = J_{2n}
    X = random_stiefel(5, 2, 3)
    A = X.data
    M = np.zeros((10, 4))
    M[:5, :2] = A
    M[5:, 2:] = A
    assert np.linalg.norm(M.T @ symplectic_j(10) @ M - symplectic_j(4)) < 1e-13


def test_build_network_shapes():
    net = build_network(12, 4, seed=0)
    assert len(net.layers) == 9
    assert net.encoder_len == 5
    x = np.random.default_rng(0).standard_normal((12, 7))
    out, tape = net.forward(x)
    assert out.shape == (12, 7)
    assert len(tape) == 9
    code = net.encode(x)
    assert code.shape == (4, 7)
    assert np.linalg.norm(net.decode(code) - out) < 1e-12
    v = x[:, 0]
    assert np.linalg.norm(net.encode(v) - code[:, 0]) < 1e-13
    with pytest.raises(DimensionError):
        build_network(12, 5, seed=0)
    with pytest.raises(DimensionError):
        build_network(4, 6, seed=0)


def test_network_reproducible():
    a = build_network(8, 4, seed=11)
    b = build_network(8, 4, seed=11)
    for la, lb in zip(a.layers, b.layers):
        if isinstance(la, GradientLayer):
            assert np.array_equal(la.K, lb.K)
            assert np.array_equal(la.a, lb.a)
        else:
            assert np.array_equal(la.weight.data, lb.weight.data)


def test_decoder_jacobian_fd_and_symplectic():
    net = build_network(10, 4, seed=3)
    xr = np.random.default_rng(4).standard_normal(4) * 0.3
    out, D = net.decoder_jacobian(xr)
    assert np.array_equal(out, net.decode(xr))
    assert D.shape == (10, 4)
    fd = fd_jacobian(lambda v: net.decode(v), xr)
    assert np.linalg.norm(D - fd) < 1e-6
    assert np.linalg.norm(D.T @ symplectic_j(10) @ D - symplectic_j(4)) < 1e-11


def _pq_decoder_network():
    """A hand-built 10 -> 4 -> 10 network whose decoder has 'Q' and 'P' layers."""
    X = random_stiefel(5, 2, 4)
    decoder = [make_gradient_layer("Q", 4, 1), make_gradient_layer("P", 4, 2),
               PSDLayer(X, "expand"), make_gradient_layer("Q", 10, 3)]
    return Network(layers=[PSDLayer(X, "reduce")] + decoder, encoder_len=1)


def test_decoder_jet_with_p_and_q_layers():
    """The jet [d(xi) | Dd(xi)] of a decoder with 'Q' and 'P' gradient layers:
    each layer's jet is its forward output and forward-mode derivative, the
    decoder's state column is the decoded block column, its Jacobian matches
    central differences and is symplectic."""
    rng = np.random.default_rng(21)
    net = _pq_decoder_network()
    decoder = net.layers[1:]
    for layer in decoder:
        x, V = rng.standard_normal((layer.in_dim, 1)), rng.standard_normal((layer.in_dim, 3))
        jet = layer.differential(np.hstack([x, V]))
        assert np.linalg.norm(jet[:, :1] - layer.forward(x)[0]) < 1e-14
        eps = 1e-6
        fd = (layer.forward(x + eps * V)[0] - layer.forward(x - eps * V)[0]) / (2 * eps)
        assert np.linalg.norm(jet[:, 1:] - fd) < 1e-7
    for _ in range(3):
        xi = 0.5 * rng.standard_normal(4)
        out, D = net.decoder_jacobian(xi)
        assert np.array_equal(out, net.decode(xi))
        assert np.linalg.norm(out - net.decode(xi[:, None])[:, 0]) < 1e-14
        assert np.linalg.norm(D - fd_jacobian(net.decode, xi)) < 1e-6
        assert np.linalg.norm(D.T @ symplectic_j(10) @ D - symplectic_j(4)) < 1e-12
    with pytest.raises(DimensionError):
        decoder[0].differential(np.eye(6))


def _desk_trained(full_dim, reduced_dim):
    """build_network(full_dim, reduced_dim) after two V6 epochs on smooth data."""
    net = build_network(full_dim, reduced_dim, seed=8)
    t = np.linspace(0.0, 1.0, 24)
    data = 0.3 * np.vstack([np.sin(np.pi * (k + 1) * t + k) for k in range(full_dim)])
    train_epochwise(Trainer(net, RunConfig(variant="V6", eta=0.01, seed=8)), data,
                    batch_size=8, n_epochs=2, loss_kind=LossKind.Relative, seed=9)
    return net


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("trained", [False, True], ids=["untrained", "trained"])
@pytest.mark.parametrize("full_dim, reduced_dim", [(12, 4), (68, 8), (260, 8)])
def test_folded_decoder_matches_per_layer_jet(full_dim, reduced_dim, trained):
    """The folded decoder of build_network's 'P'-layer decoder against the
    network's per-layer jet: the copy's jet gives the same state and Jacobian
    to 1e-14, a symplectic Jacobian, block decodes that match Network.decode,
    and a single-state decode that is the Jacobian's state column bitwise.
    Its terms rebuild the decoder: q = X xi_q and
    p = X eta_p + (I - X X^T) g_post(X xi_q), eta = shift(xi), to 1e-14."""
    net = _desk_trained(full_dim, reduced_dim) if trained else build_network(
        full_dim, reduced_dim, seed=8)
    fold = net.fold_decoder()
    decode, decode_jacobian = fold.decode, fold.decode_jacobian
    assert decode_jacobian != net.decoder_jacobian
    X, d, n = fold.basis, full_dim // 2, reduced_dim // 2
    assert np.array_equal(X, net.layers[-2].weight.data)
    rng = np.random.default_rng(22)
    J2d, J2n = symplectic_j(full_dim), symplectic_j(reduced_dim)
    for _ in range(5):
        xi = rng.standard_normal(reduced_dim)
        out, D = decode_jacobian(xi)
        want, D_want = net.decoder_jacobian(xi)
        assert _rel(out, want) <= 1e-14 and _rel(D, D_want) <= 1e-14
        assert np.linalg.norm(D.T @ J2d @ D - J2n) <= 1e-12
        assert np.array_equal(decode(xi), out)
        eta = fold.shift.forward(xi[:, None])[0][:, 0]
        g_post = fold.post.forward(np.concatenate([X @ xi[:n], np.zeros(d)])[:, None])[0][d:, 0]
        rebuilt = np.concatenate([X @ eta[:n],
                                  X @ eta[n:] + g_post - X @ (X.T @ g_post)])
        assert _rel(rebuilt, want) <= 1e-14
    block = rng.standard_normal((reduced_dim, 7))
    assert _rel(decode(block), net.decode(block)) <= 1e-14
    with pytest.raises(DimensionError):
        decode_jacobian(np.zeros(reduced_dim + 2))
    with pytest.raises(DimensionError):
        decode(np.zeros((reduced_dim + 2, 3)))


def test_folded_expand_only_decoder_is_the_psd_map():
    """A decoder with no gradient layers folds to blockdiag(X, X), with no shift
    and no post-expand term."""
    X = random_stiefel(5, 2, 6)
    net = Network(layers=[PSDLayer(X, "reduce"), PSDLayer(X, "expand")], encoder_len=1)
    fold = net.fold_decoder()
    assert fold.shift is None and fold.post is None
    assert np.array_equal(fold.basis, X.data)
    B = np.zeros((10, 4))
    B[:5, :2] = B[5:, 2:] = X.data
    xi = np.random.default_rng(23).standard_normal(4)
    out, D = fold.decode_jacobian(xi)
    assert np.array_equal(D, B)
    assert np.linalg.norm(out - B @ xi) <= 1e-15
    assert np.array_equal(fold.decode(xi), out)


def test_fold_keeps_the_jet_for_other_decoders():
    """'Q' layers, a reduce layer or no expand in the decoder: nothing folds,
    and a ROM keeps the network's own decode and decoder_jacobian.  A 'Q'
    layer in the encoder does not stop the fold."""
    X = random_stiefel(5, 2, 7)
    reduce_after = Network(layers=[PSDLayer(X, "reduce"), PSDLayer(X, "expand"),
                                   PSDLayer(X, "reduce")], encoder_len=1)
    no_expand = Network(layers=[PSDLayer(X, "reduce"), make_gradient_layer("P", 4, 5)],
                        encoder_len=1)
    for net in (_pq_decoder_network(), reduce_after, no_expand):
        assert net.fold_decoder() is None
    net = _q_network()
    decode_jacobian = net.fold_decoder().decode_jacobian
    xi = np.random.default_rng(24).standard_normal(2)
    assert decode_jacobian != net.decoder_jacobian
    assert _rel(decode_jacobian(xi)[1], net.decoder_jacobian(xi)[1]) <= 1e-14


def test_loss_hand_oracles():
    Xb = np.array([[3.0, 0.0], [0.0, 4.0]])
    Yb = np.zeros((2, 2))
    # ||Xb - Yb||_F = 5, size 4 -> scaled MSE 25/4; relative = 5/5 = 1
    assert abs(loss(LossKind.ScaledMSE, Xb, Yb) - 6.25) < 1e-15
    assert abs(loss(LossKind.Relative, Xb, Yb) - 1.0) < 1e-15
    g = loss_backward(LossKind.ScaledMSE, Xb, Yb)
    assert np.allclose(g, (Yb - Xb) / 2.0)
    g = loss_backward(LossKind.Relative, Xb, Yb)
    assert np.allclose(g, (Yb - Xb) / 25.0)
    # degenerate cases
    with pytest.raises(DegenerateBatchError):
        loss(LossKind.Relative, np.zeros((2, 2)), Yb)
    assert np.all(loss_backward(LossKind.Relative, Xb, Xb) == 0.0)
    with pytest.raises(DimensionError):
        loss(LossKind.ScaledMSE, Xb, np.zeros((3, 2)))


def test_loss_backward_directional_fd():
    rng = np.random.default_rng(9)
    Xb = rng.standard_normal((6, 4))
    Yb = rng.standard_normal((6, 4))
    for kind in LossKind:
        g = loss_backward(kind, Xb, Yb)
        dY = rng.standard_normal(Yb.shape)
        eps = 1e-7
        fd = (loss(kind, Xb, Yb + eps * dY) - loss(kind, Xb, Yb - eps * dY)) / (2 * eps)
        assert abs(fd - np.tensordot(g, dY)) < 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("variant", [pytest.param("V3", id="homogeneous"),
                                     pytest.param("V5", id="stiefel")])
def test_training_reduces_loss(variant):
    rng = np.random.default_rng(0)
    # low-dimensional synthetic data with structure
    t = np.linspace(0, 1, 40)
    data = np.vstack([np.sin(2 * np.pi * k * t) for k in range(1, 9)]) * 0.5
    net = build_network(8, 2, seed=1)
    cfg = RunConfig(variant=variant, eta=0.01, seed=5)
    trainer = Trainer(net, cfg)
    losses = train_epochwise(trainer, data, batch_size=10, n_epochs=15,
                             loss_kind=LossKind.ScaledMSE, seed=2)
    # the baseline optimizer converges more slowly than the direct one
    factor = 0.8 if cfg.setup.optimizer == "homogeneous" else 0.6
    assert losses[-1] < factor * losses[0]
    # PSD weights stayed on the manifold throughout
    for layer in net.layers:
        if isinstance(layer, PSDLayer):
            assert layer.weight.ortho_residual() < 1e-8


def test_training_deterministic():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((6, 30)) * 0.3

    def run():
        net = build_network(6, 2, seed=4)
        trainer = Trainer(net, RunConfig(variant="V3", seed=17))
        return train_epochwise(trainer, data, batch_size=8, n_epochs=3,
                               loss_kind=LossKind.ScaledMSE, seed=7)

    assert run() == run()


def test_train_noepoch_iteration_count():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((6, 25)) * 0.3
    net = build_network(6, 2, seed=0)
    trainer = Trainer(net, RunConfig(variant="V5", seed=0))
    losses = train_noepoch(trainer, data, batch_size=8, n_epochs=2,
                           loss_kind=LossKind.ScaledMSE, seed=3)
    assert len(losses) == int(np.ceil(2 * 25 / 8))


def test_training_continues_after_renormalization(monkeypatch):
    """Drift inside a retraction is fixed there; the cache is transported to the QR copy."""
    data = np.random.default_rng(1).standard_normal((6, 25)) * 0.3
    net = build_network(6, 2, seed=0)
    trainer = Trainer(net, RunConfig(variant="V5", seed=0))
    build = stiefel.cayley_system
    drifted = []

    def drift_once(omega, perp):
        perp, core, k = build(omega, perp)
        if not drifted:
            # k + eps (E + k) scales the retracted X + Q k by 1 + eps: residual
            # 1e-7 sqrt(n), past REORTH_THRESHOLD
            k = k + 5e-8 * (np.eye(*k.shape) + k)
            drifted.append(k)
        return perp, core, k

    monkeypatch.setattr(stiefel, "cayley_system", drift_once)
    with pytest.warns(RuntimeWarning, match="re-orthonormalizing"):
        losses = train_noepoch(trainer, data, batch_size=8, n_epochs=2,
                               loss_kind=LossKind.ScaledMSE, seed=3)
    assert drifted and len(losses) == 7 and np.all(np.isfinite(losses))
    for layer, state in zip(net.layers, trainer.states):
        if isinstance(layer, PSDLayer):
            _, cache = state
            assert layer.weight.ortho_residual() < 1e-12
            cache.B1.require_anchor(layer.weight)
            X, B1 = layer.weight.data, cache.B1.data
            assert np.linalg.norm(X.T @ B1 + B1.T @ X) < 1e-12


def test_non_finite_batch_stops_training_before_the_update():
    data = np.random.default_rng(2).standard_normal((6, 16)) * 0.3
    net = build_network(6, 2, seed=0)
    trainer = Trainer(net, RunConfig(variant="V6", seed=0))
    trainer.train_batch(LossKind.Relative, data[:, :8])
    before = [layer.K.copy() for layer in net.layers if isinstance(layer, GradientLayer)]
    bad = data[:, 8:].copy()
    bad[0, 0] = np.nan
    with pytest.raises(TrainingDivergedError, match="batch 1") as info:
        trainer.train_batch(LossKind.Relative, bad)
    assert info.value.batch_index == 1
    after = [layer.K for layer in net.layers if isinstance(layer, GradientLayer)]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_non_finite_gradient_in_one_block_stops_training_before_the_update(monkeypatch):
    """A NaN in one layer's b gradient alone is caught by the one finiteness
    check of the flat gradient: theta, both moments, the PSD weights and the
    step counts stay as the previous batch left them."""
    data = np.random.default_rng(4).standard_normal((6, 16)) * 0.3
    net = build_network(6, 2, seed=0)
    trainer = Trainer(net, RunConfig(variant="V6", seed=0))
    trainer.train_batch(LossKind.Relative, data[:, :8])
    layer = net.layers[5]
    backward = layer.backward

    def nan_in_b(tape, upstream):
        upstream, grads = backward(tape, upstream)
        grads["b"][1] = np.nan
        return upstream, grads

    monkeypatch.setattr(layer, "backward", nan_in_b)
    psd = [(layer, state) for layer, state in zip(net.layers, trainer.states)
           if isinstance(layer, PSDLayer)]

    def snapshot():
        return [trainer.theta, trainer.cache.B1, trainer.cache.B2,
                *(layer.weight.data for layer, _ in psd)]

    before = [a.copy() for a in snapshot()]
    with pytest.raises(TrainingDivergedError, match="batch 1") as info:
        trainer.train_batch(LossKind.Relative, data[:, 8:])
    assert info.value.batch_index == 1
    assert all(np.array_equal(a, b) for a, b in zip(before, snapshot()))
    assert trainer.hyper.t == 2 and all(hyper.t == 2 for _, (hyper, _) in psd)


def _reference_training(net, cfg, batches):
    """The per-array trainer: one EuclideanAdamCache and one adam_step for each
    K, a and b of each GradientLayer; returns the batch losses."""
    setup = cfg.setup
    hyper = opt.AdamHyper(eta=cfg.eta, decay=opt.PSD_OPTIMIZERS[setup.optimizer])
    states = [{name: opt.EuclideanAdamCache(getattr(layer, name).shape) for name in "Kab"}
              if isinstance(layer, GradientLayer)
              else opt.psd_state(setup.optimizer, layer.weight, cfg.eta)
              for layer in net.layers]
    losses = []
    for batch in batches:
        out, tape = net.forward(batch)
        losses.append(loss(setup.loss, batch, out))
        upstream = loss_backward(setup.loss, batch, out)
        grads = []
        for layer, entry in zip(reversed(net.layers), reversed(tape)):
            upstream, g = layer.backward(entry, upstream)
            grads.insert(0, g)
        for layer, state, g in zip(net.layers, states, grads):
            if isinstance(layer, GradientLayer):
                for name, cache in state.items():
                    param = getattr(layer, name)
                    param += opt.adam_step(hyper, cache, g[name])
            else:
                layer.weight = opt.psd_update(*state, layer.weight, g["X"],
                                              cfg.seed + hyper.t - 1,
                                              setup.metric, setup.transport)
        opt.update_hyper(hyper)
    return losses


def _q_network():
    """A hand-built 6 -> 2 -> 6 autoencoder whose first layer is a 'Q' layer."""
    return Network(layers=[make_gradient_layer("Q", 6, 0),
                           PSDLayer(random_stiefel(3, 1, 1), "reduce"),
                           make_gradient_layer("P", 2, 2),
                           PSDLayer(random_stiefel(3, 1, 3), "expand"),
                           make_gradient_layer("P", 6, 4)], encoder_len=2)


@pytest.mark.parametrize("variant, make_net", [
    pytest.param("V3", lambda: build_network(6, 2, seed=0), id="V3"),
    pytest.param("V6", lambda: build_network(6, 2, seed=0), id="V6"),
    pytest.param("V6", _q_network, id="Q-layer")])
def test_one_adam_step_over_theta_is_bitwise_the_per_array_steps(variant, make_net, tmp_path):
    """Training through theta gives bitwise the losses and weights of the
    per-array trainer, and the view-backed network saves and loads bitwise."""
    data = np.random.default_rng(6).standard_normal((6, 24)) * 0.3
    batches = [data[:, :8], data[:, 8:16], data[:, 16:], data[:, 4:12], data[:, ::3]]
    net, ref = make_net(), make_net()
    cfg = RunConfig(variant=variant, eta=0.01, seed=5)
    trainer = Trainer(net, cfg)
    losses = [trainer.train_batch(cfg.setup.loss, batch) for batch in batches]
    assert np.array_equal(losses, _reference_training(ref, cfg, batches))
    assert not np.array_equal(net.layers[0].K, make_net().layers[0].K)
    save_network(net, tmp_path / "params.npz")
    loaded = load_network(tmp_path / "params.npz")
    for layer, ref_layer, loaded_layer in zip(net.layers, ref.layers, loaded.layers):
        if isinstance(layer, GradientLayer):
            assert np.shares_memory(layer.K, trainer.theta)
            for name in "Kab":
                assert np.array_equal(getattr(layer, name), getattr(ref_layer, name))
                assert np.array_equal(getattr(loaded_layer, name), getattr(layer, name))
        else:
            assert np.array_equal(layer.weight.data, ref_layer.weight.data)
            assert np.array_equal(loaded_layer.weight.data, layer.weight.data)


def test_zero_norm_batch_is_never_the_divergence_baseline():
    """A zero-norm batch (a t = 0 column of normalized data) has no relative
    error.  It once became the baseline, 0, so that the next healthy batch
    counted as diverged; the first nonzero-norm batch is the baseline."""
    data = np.random.default_rng(3).standard_normal((6, 8)) * 0.3
    net = build_network(6, 2, seed=0)
    trainer = Trainer(net, RunConfig(variant="V3", seed=0))
    trainer.train_batch(LossKind.ScaledMSE, np.zeros((6, 1)))
    first = data[:, :4]
    baseline = np.linalg.norm(net.forward(first)[0] - first) / np.linalg.norm(first)
    for batch in (first, data[:, 4:], np.zeros((6, 2))):
        trainer.train_batch(LossKind.ScaledMSE, batch)
    assert trainer.step_index == 4 and trainer.first_error == baseline > 0.0


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError, match="unknown variant 'V11'"):
        Trainer(build_network(6, 2, seed=0), RunConfig(variant="V11"))
