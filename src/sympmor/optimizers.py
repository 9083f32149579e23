"""Adam-type optimizer updates.

Three update rules share the hyperparameter record:

* ``adam_step``: classic Euclidean Adam, with the bias correction folded into
  the moment updates.  The trainer takes one step per batch over the one
  parameter vector of all GradientLayers; the step works in the cache's
  buffers and allocates no parameter-sized array.
* ``homogeneous_psd_update``: the baseline manifold optimizer. The gradient is
  lifted into the fixed global tangent space g^{hor,E} through a QR section,
  Adam runs pointwise on its N x n block array [W; C], and the result
  retracts back.
  Caches persist across steps without transport (the global space is fixed),
  but the section is recomputed every step: one Householder QR of the
  N x (N-n) sample per step, applied in WY blocks; no Q formed.
* ``stiefel_psd_update``: the direct St(n,N) update. One first-moment cache
  lives in the tangent space at the current iterate and is carried along by a
  vector transport after each Cayley retraction.

``psd_state`` and ``psd_update`` pick one of the two PSD rules by a name of
``PSD_OPTIMIZERS``.
"""

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import blas, stiefel as st
from .errors import ConfigError
from .homogeneous import horizontal_pointwise, lift_to_global, retract_global, section_qr
from .stiefel import MetricKind, TangentVector

ETA_DECAY = 0.9995   # per-step eta factor of the decaying optimizers (stiefel_decay)


@dataclass
class AdamHyper:
    """Adam's step size and optional decay, and the step state t, beta1^t, beta2^t."""
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.99
    delta: ClassVar[float] = 1e-8
    eta: float = 0.001
    decay: float | None = None  # ETA_DECAY when enabled
    t: int = field(default=1, init=False)
    beta1_t: float = field(default=beta1, init=False)
    beta2_t: float = field(default=beta2, init=False)

    def moment_coeffs(self):
        """(old, new) mixing weights for B1 and B2 with bias correction folded in."""
        c1 = (self.beta1 - self.beta1_t) / (1.0 - self.beta1_t)
        c1n = (1.0 - self.beta1) / (1.0 - self.beta1_t)
        c2 = (self.beta2 - self.beta2_t) / (1.0 - self.beta2_t)
        c2n = (1.0 - self.beta2) / (1.0 - self.beta2_t)
        return c1, c1n, c2, c2n


def update_hyper(hyper):
    """Advance the step counter, the cached beta powers, and (optionally) decay eta."""
    hyper.t += 1
    hyper.beta1_t *= hyper.beta1
    hyper.beta2_t *= hyper.beta2
    if hyper.decay is not None:
        hyper.eta *= hyper.decay
    return hyper


class EuclideanAdamCache:
    """First/second moment arrays shaped like the parameter tensor, and the
    buffers adam_step writes its update V and its denominator into."""

    def __init__(self, shape):
        self.B1 = np.zeros(shape)
        self.B2 = np.zeros(shape)
        self.V = np.empty(shape)
        self.root = np.empty(shape)


def adam_step(hyper, cache, Y):
    """Classic Adam: update the moments in place and return the update
    V = -eta B1 / sqrt(B2 + delta), in cache.V until the next step.

    Each entry rounds as (c1 B1 + c1n Y, c2 B2 + c2n (Y Y), (-eta) B1 / sqrt(B2 + delta)).
    """
    c1, c1n, c2, c2n = hyper.moment_coeffs()
    B1, B2, V, root = cache.B1, cache.B2, cache.V, cache.root
    np.multiply(Y, c1n, out=V)
    B1 *= c1
    B1 += V
    np.multiply(Y, Y, out=V)
    V *= c2n
    B2 *= c2
    B2 += V
    np.add(B2, hyper.delta, out=root)
    np.sqrt(root, out=root)
    np.multiply(B1, -hyper.eta, out=V)
    V /= root
    return V


class HomogeneousAdamCache:
    """Moments over g^{hor,E}, stored like the lifted gradients as N x n arrays [W; C]."""

    def __init__(self, N, n):
        self.B1 = np.zeros((N, n))
        self.B2 = np.zeros((N, n))


def homogeneous_psd_update(hyper, cache, X, egrad, seed):
    """One baseline update: rgrad -> section -> lift -> blockwise Adam -> retract."""
    Z = st.riemannian_gradient(MetricKind.Canonical, X, egrad)
    section = section_qr(X, seed)
    V = horizontal_pointwise(hyper, cache, lift_to_global(section, Z))
    X_new = retract_global(section, V)
    update_hyper(hyper)
    return X_new


class StiefelAdamCache:
    """Single first-moment cache, tangent at the current iterate."""

    def __init__(self, X):
        self.B1 = TangentVector(np.zeros(X.shape), X, check=False)


def stiefel_adam_step(hyper, cache, X, Z):
    """Modified Adam on St(n,N): returns the tangent update X omega + perp as
    its parts (omega, perp), omega n x n skew and X^T perp = 0.

    The second moment is formed elementwise from the old B1 and the fresh
    gradient; the skew part of the update is scaled by the elementwise square
    root of the Gram matrix B2^T B2, the complement part elementwise by B2.
    Mutates cache.B1 in place.
    """
    Z.require_anchor(X)
    cache.B1.require_anchor(X)
    c1, c1n, c2, c2n = hyper.moment_coeffs()
    B1, G = cache.B1.data, Z.data

    B2 = np.sqrt(c2 * (B1 * B1) + c2n * (G * G) + hyper.delta)
    B1 = c1 * B1 + c1n * G
    cache.B1 = TangentVector(B1, X, check=False)

    A = X.data
    W = A.T @ B1
    comp = (B1 - A @ W) / B2
    omega = -hyper.eta * st.skew(W / np.sqrt(B2.T @ B2))
    perp = -hyper.eta * (comp - A @ (A.T @ comp))
    return omega, perp


def stiefel_psd_update(hyper, cache, X, egrad, metric, transport_kind):
    """One direct update on one BLAS thread: rgrad -> StiefelAdam -> retract -> transport.

    The update's parts give the step's Cayley system, built once and shared by
    the retraction and the transport."""
    with blas.single_thread():
        Z = st.riemannian_gradient(metric, X, egrad)
        system = st.cayley_system(*stiefel_adam_step(hyper, cache, X, Z))
        X_new = st.cayley_retract(X, system=system)
        cache.B1 = st.transport(transport_kind, X, None, cache.B1, retracted=X_new, system=system)
    update_hyper(hyper)
    return X_new


# PSD optimizer name -> per-step eta decay (None: constant eta)
PSD_OPTIMIZERS = {"homogeneous": None, "stiefel": None, "stiefel_decay": ETA_DECAY}


def psd_state(name, X, eta):
    """(hyper, cache) of the named optimizer for the PSD weight X."""
    if name not in PSD_OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {name!r}")
    hyper = AdamHyper(eta=eta, decay=PSD_OPTIMIZERS[name])
    if name == "homogeneous":
        return hyper, HomogeneousAdamCache(*X.shape)
    return hyper, StiefelAdamCache(X)


def psd_update(hyper, cache, X, egrad, seed, metric, transport):
    """One step of the optimizer psd_state chose; seed drives the homogeneous
    section, metric and transport the direct update."""
    if isinstance(cache, HomogeneousAdamCache):
        return homogeneous_psd_update(hyper, cache, X, egrad, seed)
    return stiefel_psd_update(hyper, cache, X, egrad, metric, transport)
