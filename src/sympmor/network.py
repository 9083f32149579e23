"""Symplectic autoencoder: layers, losses, and training loops.

The network is built from two symplectic layer types.  GradientLayers update one
half of phase space through K^T diag(a) tanh(K . + b) and are
dimension-preserving; PSDLayers apply the cotangent-lift map blockdiag(X, X)
(or its symplectic inverse) with a Stiefel weight and change the dimension.
Backpropagation is written out analytically per layer; the manifold weight
receives its Euclidean gradient, which the optimizer module converts into a
Riemannian update.  During training the GradientLayers' weights are views of
one parameter vector, which the Trainer updates with one Adam step per batch.
A ROM evaluates the decoder through `Network.fold_decoder`: a decoder of 'P'
layers around one PSD expand is folded once into one stacked gradient term, and
any other decoder runs the per-layer jet of `decoder_jacobian`.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import optimizers as opt
from . import stiefel as st
from .errors import DegenerateBatchError, DimensionError, TrainingDivergedError

# A batch whose relative error ||Y - X|| / ||X|| exceeds this multiple of the
# first nonzero-norm batch's counts as divergence.  The relative error is
# compared rather than the loss, because a scaled-MSE loss moves with the batch
# norm: on one healthy desk run (V4) the fourth batch's loss is 16x the first's.
DIVERGENCE_FACTOR = 10.0


class LossKind(enum.Enum):
    Relative = "relative"
    ScaledMSE = "scaled_mse"


class GradientLayer:
    """Dimension-preserving symplectic layer: one half of phase space, the
    driver, shifts the other by K^T diag(a) sigma(K driver + b).

    kind 'P' (q drives p): [q; p] -> [q; p + K^T diag(a) sigma(K q + b)]
    kind 'Q' (p drives q): [q; p] -> [q + K^T diag(a) sigma(K p + b); p]

    sigma is tanh.  The forward tape is (driver, sigma(u), sigma'(u)), so
    backward evaluates no activation.
    """

    def __init__(self, kind, K, a, b):
        self.kind = kind
        self.K = K          # L x d, for in_dim = 2d
        self.a = a          # L
        self.b = b          # L

    in_dim = property(lambda self: 2 * self.K.shape[1])

    def _halves(self):
        """(driver, driven) row slices: q drives p for 'P', p drives q for 'Q'."""
        half = self.K.shape[1]
        q, p = slice(None, half), slice(half, None)
        return (q, p) if self.kind == "P" else (p, q)

    def forward(self, x):
        half = self.K.shape[1]
        if x.shape[0] != 2 * half:
            raise DimensionError(f"expected {2 * half} rows, got {x.shape[0]}")
        drives, driven = self._halves()
        driver = x[drives]
        s = np.tanh(self.K @ driver + self.b[:, None])
        out = x.copy()
        out[driven] += self.K.T @ (self.a[:, None] * s)
        return out, (driver, s, 1.0 - s ** 2)

    def backward(self, tape, upstream):
        driver, s, sp = tape
        drives, driven = self._halves()
        g = upstream[driven]      # flows into the nonlinear branch
        Kg = self.K @ g
        inner = self.a[:, None] * sp * Kg
        dK = (self.a[:, None] * s) @ g.T + inner @ driver.T
        input_grad = upstream.copy()
        input_grad[drives] += self.K.T @ inner
        return input_grad, {"K": dK, "a": np.sum(s * Kg, axis=1), "b": np.sum(inner, axis=1)}

    def differential(self, jet):
        """The jet [y | Dy V] of the layer at jet = [x | V] (in_dim x (1 + m)):
        the layer's output at x and its derivative along the m columns of V,
        from one K product, one K^T product and one tanh for all columns."""
        if jet.shape[0] != self.in_dim:
            raise DimensionError(f"expected {self.in_dim} rows, got {jet.shape[0]}")
        drives, driven = self._halves()
        Z = self.K @ jet[drives]
        s = np.tanh(Z[:, 0] + self.b)
        Z *= (self.a * (1.0 - s ** 2))[:, None]    # tangents: diag(a sigma'(u)) K V
        Z[:, 0] = self.a * s                        # state: a sigma(u)
        out = jet.copy()
        out[driven] += self.K.T @ Z
        return out


class PSDLayer:
    """Linear symplectic reduce/expand layer with Stiefel weight X: blockdiag(W, W),
    W = X to expand (2n -> 2N) and X^T to reduce (2N -> 2n), applied blockwise;
    the 2N x 2n block matrix is never formed.
    """

    def __init__(self, weight, direction):
        self.weight = weight            # StiefelPoint, N x n
        self.direction = direction      # 'reduce' or 'expand'

    W = property(lambda self: self.weight.data if self.direction == "expand"
                 else self.weight.data.T)
    in_dim = property(lambda self: 2 * self.W.shape[1])

    def forward(self, x):
        W = self.W
        if x.shape[0] != 2 * W.shape[1]:
            raise DimensionError(f"expected {2 * W.shape[1]} rows, got {x.shape[0]}")
        return _blockwise(W, x), (x,)

    def backward(self, tape, upstream):
        (x,) = tape
        half, uhalf = x.shape[0] // 2, upstream.shape[0] // 2
        q, p, g_q, g_p = x[:half], x[half:], upstream[:uhalf], upstream[uhalf:]
        # dX: g x^T to expand, x g^T to reduce (transposing g x^T would round differently)
        if self.direction == "expand":
            egrad = g_q @ q.T + g_p @ p.T
        else:
            egrad = q @ g_q.T + p @ g_p.T
        return _blockwise(self.W.T, upstream), {"X": egrad}

    def differential(self, jet):
        """The jet of a linear layer is the layer applied to every column."""
        return self.forward(jet)[0]


def _blockwise(W, x):
    """blockdiag(W, W) x, one block per half of x."""
    half = x.shape[0] // 2
    return np.concatenate([W @ x[:half], W @ x[half:]])


def _run_layers(layers, x):
    """Apply layers in order to a state vector or to the columns of a batch."""
    single = x.ndim == 1
    if single:
        x = x[:, None]
    for layer in layers:
        x, _ = layer.forward(x)
    return x[:, 0] if single else x


@dataclass
class Network:
    layers: list
    encoder_len: int

    def forward(self, batch):
        tape = []
        x = batch
        for layer in self.layers:
            x, entry = layer.forward(x)
            tape.append(entry)
        return x, tape

    def encode(self, x):
        return _run_layers(self.layers[: self.encoder_len], x)

    def decode(self, xr):
        """d(xr) of the columns of a block; a single state is the state column of
        its jet, so it rounds as `decoder_jacobian` does."""
        if np.ndim(xr) == 1:
            return self.decoder_jacobian(xr)[0]
        return _run_layers(self.layers[self.encoder_len:], xr)

    def decoder_jacobian(self, x_r):
        """(d(x_r), Dd(x_r)): the decoded state and the exact decoder Jacobian,
        from one forward-mode pass of the jet [x_r | I] through the decoder."""
        x_r = np.asarray(x_r, dtype=float)
        jet = np.eye(len(x_r), len(x_r) + 1, 1)     # [0 | I]
        jet[:, 0] = x_r
        for layer in self.layers[self.encoder_len:]:
            jet = layer.differential(jet)
        return jet[:, 0], jet[:, 1:]

    def fold_decoder(self):
        """(decode, decode_jacobian) of the decoder as it is now, folded once.

        A decoder of 'P' GradientLayers around one PSD expand X never changes q.
        With the layers before the expand (K_i, a_i, b_i) and after it
        (K_j, a_j, b_j) it is exactly

            q = X xi_q,    p = X xi_p + E (a * tanh(Kh xi_q + b)),

        where Kh stacks each K_i and K_j X, E = [X K_i^T ... | K_j^T ...], and
        a, b stack the layers' a and b.  So Dd = [[X, 0], [E diag(a sigma') Kh, X]],
        whose lower-left block alone depends on xi.  The folded maps hold copies
        of the weights: training the network afterwards does not move them.  A
        decoder without gradient layers is the PSD decoder blockdiag(X, X), and
        its decode carries X as ``decode.basis``.  Any other decoder ('Q' layers,
        a reduce, not exactly one expand) gets the network's own `decode` and
        `decoder_jacobian`, the per-layer jet.
        """
        decoder = self.layers[self.encoder_len:]
        psd = [i for i, layer in enumerate(decoder) if isinstance(layer, PSDLayer)]
        if (len(psd) != 1 or decoder[psd[0]].direction != "expand"
                or any(layer.kind != "P" for layer in decoder
                       if isinstance(layer, GradientLayer))):
            return self.decode, self.decoder_jacobian
        X = decoder[psd[0]].weight.data.copy()
        before, after = decoder[:psd[0]], decoder[psd[0] + 1:]
        d, n = X.shape
        Kh = np.vstack([np.empty((0, n)), *(layer.K for layer in before),
                        *(layer.K @ X for layer in after)])
        E = np.hstack([np.empty((d, 0)), *(X @ layer.K.T for layer in before),
                       *(layer.K.T for layer in after)])
        Ea = E * np.concatenate([np.empty(0), *(layer.a for layer in before + after)])
        b = np.concatenate([np.empty(0), *(layer.b for layer in before + after)])
        D0 = np.zeros((2 * d, 2 * n))
        D0[:d, :n] = D0[d:, n:] = X

        def linear_part(xi):
            """blockdiag(X, X) xi, after checking xi's rows."""
            if len(xi) != 2 * n:
                raise DimensionError(f"expected {2 * n} rows, got {len(xi)}")
            return D0 @ xi

        def decode_jacobian(xi):
            out = linear_part(xi)
            s = np.tanh(Kh @ xi[:n] + b)
            out[d:] += Ea @ s
            D = D0.copy()
            D[d:, :n] = Ea @ ((1.0 - s * s)[:, None] * Kh)
            return out, D

        def decode(xr):
            """A single state is the state column of `decode_jacobian`, as in
            `Network.decode`; a block is decoded column by column at once."""
            if np.ndim(xr) == 1:
                return decode_jacobian(xr)[0]
            out = linear_part(xr)
            out[d:] += Ea @ np.tanh(Kh @ xr[:n] + b[:, None])
            return out

        if len(decoder) == 1:
            # the weight's own (Fortran) layout: on a C-order copy the products
            # of `reduction.projected_system` round differently
            decode.basis = decoder[0].weight.data.copy(order="K")
        return decode, decode_jacobian


def loss(kind, Xb, Yb):
    if Xb.shape != Yb.shape:
        raise DimensionError("loss operands must share a shape")
    diff = np.linalg.norm(Xb - Yb)
    if kind is LossKind.ScaledMSE:
        return diff ** 2 / Xb.size
    denom = np.linalg.norm(Xb)
    if denom == 0.0:
        raise DegenerateBatchError("relative loss on a zero-norm batch")
    return diff / denom


def loss_backward(kind, Xb, Yb):
    """Gradient of loss with respect to the network output Yb."""
    if kind is LossKind.ScaledMSE:
        return (Yb - Xb) * (2.0 / Xb.size)
    denom = np.linalg.norm(Xb)
    if denom == 0.0:
        raise DegenerateBatchError("relative loss on a zero-norm batch")
    diff = np.linalg.norm(Xb - Yb)
    if diff == 0.0:
        return np.zeros_like(Xb)
    return (Yb - Xb) / (diff * denom)


def build_network(full_dim, reduced_dim, seed):
    """Assemble the 9-layer autoencoder.

    Encoder: 4 GradientLayers at width 2d, then a PSD reduce to 2n.
    Decoder: 2 GradientLayers at width 2n, a PSD expand to 2d, one more
    GradientLayer at width 2d.
    """
    if full_dim % 2 or reduced_dim % 2:
        raise DimensionError("dims must be even")
    d, n = full_dim // 2, reduced_dim // 2
    if n > d:
        raise DimensionError("reduced dim exceeds full dim")
    rng = np.random.default_rng(seed)

    def make_gradient(half):
        L = 5 * half
        limit = np.sqrt(6.0 / (L + half))
        K = rng.uniform(-limit, limit, size=(L, half))
        a = rng.uniform(-limit, limit, size=L) / L
        b = np.zeros(L)
        return GradientLayer("P", K, a, b)

    layers = []
    for _ in range(4):
        layers.append(make_gradient(d))
    seed_enc, seed_dec = rng.integers(0, 2 ** 62, size=2)
    layers.append(PSDLayer(st.random_stiefel(d, n, int(seed_enc)), "reduce"))
    for _ in range(2):
        layers.append(make_gradient(n))
    layers.append(PSDLayer(st.random_stiefel(d, n, int(seed_dec)), "expand"))
    layers.append(make_gradient(d))
    return Network(layers=layers, encoder_len=5)


class Trainer:
    """Owns the optimizer state of every layer and performs batch updates.

    cfg is a config.RunConfig; the trainer reads its eta and seed, and the
    optimizer, metric and transport of its variant's setup.

    The weights of all GradientLayers (K, a and b of each, layer after layer)
    are one parameter vector, `theta`, which the trainer owns: it copies them
    in and leaves each layer views of theta.  Their gradients go into one flat
    buffer, `grad`, laid out alike, so every batch takes one Adam step with one
    moment pair over theta; that step's AdamHyper advances once per batch.
    Each PSD weight has its own hyper and cache, which its manifold update
    advances.  `states` has one entry per layer: a GradientLayer's views of
    `grad`, or a PSD weight's (hyper, cache).
    """

    def __init__(self, net, cfg):
        self.net = net
        self.cfg = cfg
        decay = opt.PSD_OPTIMIZERS[cfg.setup.optimizer]   # rejects an unknown variant
        gradient_layers = [layer for layer in net.layers if isinstance(layer, GradientLayer)]
        size = sum(getattr(layer, name).size for layer in gradient_layers for name in "Kab")
        self.theta, self.grad = np.empty(size), np.empty(size)
        for layer, views in zip(gradient_layers, _flat_views(self.theta, gradient_layers)):
            for name, view in views.items():
                view[...] = getattr(layer, name)
                setattr(layer, name, view)
        grad_views = iter(_flat_views(self.grad, gradient_layers))
        self.states = [next(grad_views) if isinstance(layer, GradientLayer)
                       else opt.psd_state(cfg.setup.optimizer, layer.weight, cfg.eta)
                       for layer in net.layers]
        self.cache = opt.EuclideanAdamCache(size)
        self.hyper = opt.AdamHyper(eta=cfg.eta, decay=decay)
        self.first_error = None

    @property
    def step_index(self):
        """Updates taken so far: the shared hyper advances once per update from t = 1."""
        return self.hyper.t - 1

    def update(self, egrads):
        """One Adam step on theta from `grad`, and one manifold update of each PSD
        weight from its Euclidean gradient (egrads, in layer order)."""
        cfg = self.cfg
        setup = cfg.setup
        self.theta += opt.adam_step(self.hyper, self.cache, self.grad)
        egrads = iter(egrads)
        for layer, state in zip(self.net.layers, self.states):
            if isinstance(layer, PSDLayer):
                layer.weight = opt.psd_update(*state, layer.weight, next(egrads),
                                              cfg.seed + self.step_index,
                                              setup.metric, setup.transport)
        opt.update_hyper(self.hyper)

    def train_batch(self, loss_kind, batch):
        """One update; raise TrainingDivergedError instead of taking a diverged step."""
        out, tape = self.net.forward(batch)
        value = loss(loss_kind, batch, out)
        upstream = loss_backward(loss_kind, batch, out)
        egrads = []
        for layer, state, entry in zip(reversed(self.net.layers), reversed(self.states),
                                       reversed(tape)):
            upstream, g = layer.backward(entry, upstream)
            if isinstance(layer, GradientLayer):
                for name, view in state.items():
                    view[...] = g[name]
            else:
                egrads.append(g["X"])
        egrads.reverse()
        if not (np.isfinite(value) and all(np.isfinite(g).all() for g in (self.grad, *egrads))):
            raise TrainingDivergedError(self.step_index, f"non-finite loss or gradient ({value})")
        norm = np.linalg.norm(batch)
        if norm > 0.0:   # a zero-norm batch has no relative error to compare or keep
            error = np.linalg.norm(out - batch) / norm
            if self.first_error is None:
                self.first_error = error
            if error > DIVERGENCE_FACTOR * self.first_error:
                raise TrainingDivergedError(
                    self.step_index, f"relative error {error:.4g} exceeds "
                    f"{DIVERGENCE_FACTOR:g}x the first batch's {self.first_error:.4g}")
        self.update(egrads)
        return value


def _flat_views(flat, layers):
    """Per GradientLayer of layers, {name: view of flat shaped like its K, a, b},
    packed layer after layer in that order."""
    views, start = [], 0
    for layer in layers:
        views.append({})
        for name in "Kab":
            param = getattr(layer, name)
            views[-1][name] = flat[start:start + param.size].reshape(param.shape)
            start += param.size
    return views


def train_epoch(trainer, data, batch_size, loss_kind, rng):
    """One pass over the data: shuffle columns, partition, update per batch.

    The final short batch is kept; the return value is the plain mean of the
    per-batch losses.
    """
    cols = data.shape[1]
    if cols == 0:
        raise DegenerateBatchError("empty training set")
    order = rng.permutation(cols)
    losses = []
    for start in range(0, cols, batch_size):
        batch = data[:, order[start:start + batch_size]]
        losses.append(trainer.train_batch(loss_kind, batch))
    return float(np.mean(losses))


def train_epochwise(trainer, data, batch_size, n_epochs, loss_kind, seed):
    rng = np.random.default_rng(seed)
    return [train_epoch(trainer, data, batch_size, loss_kind, rng)
            for _ in range(n_epochs)]


def train_noepoch(trainer, data, batch_size, n_epochs, loss_kind, seed):
    """Sample batches with replacement; ceil(n_epochs * cols / batch) iterations."""
    cols = data.shape[1]
    if cols == 0:
        raise DegenerateBatchError("empty training set")
    n_iter = int(np.ceil(n_epochs * cols / batch_size))
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(n_iter):
        idx = rng.integers(0, cols, size=batch_size)
        losses.append(trainer.train_batch(loss_kind, data[:, idx]))
    return losses
