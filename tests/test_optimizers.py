"""Optimizer updates: hand-computed Adam oracles and manifold invariants."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from sympmor import blas, stiefel
from sympmor.homogeneous import horizontal_pointwise, section_qr
from sympmor.optimizers import (
    AdamHyper,
    EuclideanAdamCache,
    HomogeneousAdamCache,
    StiefelAdamCache,
    adam_step,
    homogeneous_psd_update,
    stiefel_adam_step,
    stiefel_psd_update,
    update_hyper,
)
from sympmor.stiefel import (
    MetricKind,
    StiefelPoint,
    TransportKind,
    project_tangent,
    random_stiefel,
    riemannian_gradient,
)


def rand_tangent(X, seed):
    rng = np.random.default_rng(seed)
    return project_tangent(X, rng.standard_normal(X.shape))


def test_moment_coeffs_first_step():
    h = AdamHyper()
    c1, c1n, c2, c2n = h.moment_coeffs()
    # at t = 1 the bias correction removes the old moment entirely
    assert abs(c1) < 1e-15 and abs(c1n - 1.0) < 1e-15
    assert abs(c2) < 1e-15 and abs(c2n - 1.0) < 1e-15
    # at t = 2: c1 = (b1 - b1^2)/(1 - b1^2) = b1/(1 + b1)
    update_hyper(h)
    c1, c1n, c2, c2n = h.moment_coeffs()
    assert abs(c1 - 0.9 / 1.9) < 1e-15
    assert abs(c1n - 0.1 / 0.19) < 1e-15
    assert abs(c2 - 0.99 / 1.99) < 1e-15
    assert abs(c1 + c1n - 1.0) < 1e-14
    assert abs(c2 + c2n - 1.0) < 1e-14


def test_update_hyper_decay():
    h = AdamHyper(decay=0.9995)
    eta0 = h.eta
    for _ in range(10):
        update_hyper(h)
    assert abs(h.eta - eta0 * 0.9995 ** 10) < 1e-18
    assert h.t == 11
    assert abs(h.beta1_t - 0.9 ** 11) < 1e-15
    assert abs(h.beta2_t - 0.99 ** 11) < 1e-15


def test_adam_step_matches_reference_formulation():
    """Folded-bias-correction Adam equals the textbook m-hat / v-hat form."""
    rng = np.random.default_rng(0)
    shape = (3, 4)
    h = AdamHyper()
    cache = EuclideanAdamCache(shape)
    m = np.zeros(shape)
    v = np.zeros(shape)
    for step in range(1, 8):
        g = rng.standard_normal(shape)
        V = adam_step(h, cache, g)
        m = h.beta1 * m + (1 - h.beta1) * g
        v = h.beta2 * v + (1 - h.beta2) * g * g
        mhat = m / (1 - h.beta1 ** step)
        vhat = v / (1 - h.beta2 ** step)
        ref = -h.eta * mhat / np.sqrt(vhat + h.delta)
        assert np.linalg.norm(V - ref) < 1e-12
        update_hyper(h)


def test_adam_first_step_direction():
    h = AdamHyper()
    cache = EuclideanAdamCache((2, 2))
    g = np.array([[4.0, -9.0], [0.0, 1.0]])
    V = adam_step(h, cache, g)
    # first step: V = -eta g / sqrt(g^2 + delta), close to -eta sign(g)
    ref = -h.eta * g / np.sqrt(g * g + h.delta)
    assert np.linalg.norm(V - ref) < 1e-16
    assert np.all(np.sign(V[np.abs(g) > 0]) == -np.sign(g[np.abs(g) > 0]))


def quad_target(N, n, seed):
    """f(X) = ||X - T||_F^2 / 2 with T fixed; egrad = X - T."""
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((N, n))

    def f(X):
        return 0.5 * np.sum((X.data - T) ** 2)

    def egrad(X):
        return X.data - T

    return f, egrad


def test_stiefel_adam_update_is_tangent():
    X = random_stiefel(12, 4, 1)
    h = AdamHyper()
    cache = StiefelAdamCache(X)
    Z = riemannian_gradient(MetricKind.Canonical, X, np.random.default_rng(2).standard_normal((12, 4)))
    V = stiefel_adam_step(h, cache, X, Z)
    res = np.linalg.norm(X.data.T @ V.data + V.data.T @ X.data)
    assert res < 1e-12
    # the cache was mutated to the new first moment
    assert np.linalg.norm(cache.B1.data - Z.data) < 1e-14  # first step: B1 = Z


def test_stiefel_psd_update_descends_and_stays_feasible():
    f, egrad = quad_target(10, 3, 7)
    for metric in MetricKind:
        for kind in TransportKind:
            X = random_stiefel(10, 3, 3)
            h = AdamHyper(eta=0.05)
            cache = StiefelAdamCache(X)
            vals = [f(X)]
            for _ in range(60):
                X = stiefel_psd_update(h, cache, X, egrad(X), metric, kind)
                vals.append(f(X))
                assert X.ortho_residual() < 1e-9
                # the transported cache stays tangent at the new iterate
                res = np.linalg.norm(X.data.T @ cache.B1.data + cache.B1.data.T @ X.data)
                assert res < 1e-9
            assert vals[-1] < vals[0] - 0.05 * abs(vals[0])


@pytest.mark.parametrize("kind", [TransportKind.Submanifold, TransportKind.Differential],
                         ids=["submanifold", "differential"])
def test_differential_step_builds_one_smw_system(monkeypatch, kind):
    """A direct step builds the SMW system once, whichever the transport, and
    hands it to the retraction and the transport, bitwise the step that
    builds it inside each."""
    _, egrad = quad_target(10, 3, 7)
    X0 = random_stiefel(10, 3, 3)
    X, h, cache = X0, AdamHyper(eta=0.05), StiefelAdamCache(X0)
    with blas.single_thread():
        for _ in range(3):
            Z = riemannian_gradient(MetricKind.Canonical, X, egrad(X))
            V = stiefel_adam_step(h, cache, X, Z)
            X_new = stiefel.cayley_retract(X, V)
            cache.B1 = stiefel.transport(kind, X, V, cache.B1, X_new)
            X = X_new
            update_hyper(h)
    cores = []
    core = stiefel._smw_core
    monkeypatch.setattr(stiefel, "_smw_core", lambda U, V: cores.append(1) or core(U, V))
    Y, h, shared = X0, AdamHyper(eta=0.05), StiefelAdamCache(X0)
    for _ in range(3):
        Y = stiefel_psd_update(h, shared, Y, egrad(Y), MetricKind.Canonical, kind)
    assert len(cores) == 3
    assert np.array_equal(Y.data, X.data) and np.array_equal(shared.B1.data, cache.B1.data)


def test_homogeneous_psd_update_descends_and_stays_feasible():
    f, egrad = quad_target(11, 3, 17)
    X = random_stiefel(11, 3, 4)
    h = AdamHyper(eta=0.05)
    cache = HomogeneousAdamCache(11, 3)
    vals = [f(X)]
    for step in range(60):
        X = homogeneous_psd_update(h, cache, X, egrad(X), seed=1000 + step)
        vals.append(f(X))
        assert X.ortho_residual() < 1e-9
        assert np.linalg.norm(cache.B1[:3] + cache.B1[:3].T) < 1e-12
    assert vals[-1] < vals[0] - 0.05 * abs(vals[0])


def test_homogeneous_first_step_oracle():
    """First homogeneous step computed by hand through dense blocks."""
    X = random_stiefel(7, 2, 5)
    rng = np.random.default_rng(6)
    egrad = rng.standard_normal((7, 2))
    h = AdamHyper()
    cache = HomogeneousAdamCache(7, 2)
    seed = 42
    out = homogeneous_psd_update(h, cache, X, egrad, seed=seed)

    # oracle: canonical rgrad, lift, V = -eta B / sqrt(B*B + delta), retract
    from sympmor.homogeneous import lift_to_global, retract_global

    Z = riemannian_gradient(MetricKind.Canonical, X, egrad)
    sec = section_qr(X, seed)
    B = lift_to_global(sec, Z)
    V = -h.__class__().eta * B / np.sqrt(B ** 2 + 1e-8)
    V[:2] = (V[:2] - V[:2].T) / 2
    ref = retract_global(sec, V)
    assert np.linalg.norm(out.data - ref.data) < 1e-12


def _explicit_q_homogeneous_step(hyper, cache, X, egrad, seed):
    """Reference homogeneous update that forms the thin Q of the section's sample
    with np.linalg.qr and multiplies by it, as the implementation once did."""
    N, n = X.shape
    Z = riemannian_gradient(MetricKind.Canonical, X, egrad).data
    A = np.random.default_rng(seed).standard_normal((N, N - n))
    A -= X.data @ (X.data.T @ A)
    Q = np.linalg.qr(A)[0]
    V = horizontal_pointwise(hyper, cache, np.vstack([X.data.T @ Z, Q.T @ Z]))
    Up = np.zeros((N, 2 * n))
    Up[:, :n] = V
    Up[:n, n:] = -np.eye(n)
    Vp = np.zeros((2 * n, N))
    Vp[:n, :n] = np.eye(n)
    Vp[n:, n:] = V[n:].T
    out = stiefel._cayley_apply(stiefel._smw_core(Up, Vp), np.eye(N, n))
    update_hyper(hyper)
    return StiefelPoint(X.data @ out[:n] + Q @ out[n:], check=False).renormalized()


def test_homogeneous_trajectory_matches_explicit_q():
    """Eight steps at (200, 6), seven WY blocks, against the explicit-Q reference."""
    _, egrad = quad_target(200, 6, 23)
    X = Y = random_stiefel(200, 6, 24)
    h, cache = AdamHyper(), HomogeneousAdamCache(200, 6)
    h_ref, cache_ref = AdamHyper(), HomogeneousAdamCache(200, 6)
    for step in range(8):
        X = homogeneous_psd_update(h, cache, X, egrad(X), seed=300 + step)
        Y = _explicit_q_homogeneous_step(h_ref, cache_ref, Y, egrad(Y), seed=300 + step)
        assert np.abs(X.data - Y.data).max() <= 1e-12
    assert np.linalg.norm(cache.B1 - cache_ref.B1) <= 1e-12 * np.linalg.norm(cache_ref.B1)


# Each script prints the scipy modules it loaded.
NO_SCIPY_SCRIPTS = {
    # the CLI import, a direct step with each transport and homogeneous steps
    # with one and with several WY blocks
    "optimizers": """
        import sys
        import numpy as np
        import sympmor.cli
        from sympmor import optimizers as opt
        from sympmor.stiefel import MetricKind, TransportKind, random_stiefel
        X = random_stiefel(40, 4, 0)
        egrad = np.random.default_rng(1).standard_normal((40, 4))
        for kind in TransportKind:
            hyper, cache = opt.psd_state("stiefel", X, 0.01)
            opt.stiefel_psd_update(hyper, cache, X, egrad, MetricKind.Canonical, kind)
        for N in (40, 160):
            Y = random_stiefel(N, 4, 0)
            hyper, cache = opt.psd_state("homogeneous", Y, 0.01)
            opt.homogeneous_psd_update(hyper, cache, Y, np.ones((N, 4)), seed=0)
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
    """,
    # the wave FOM (factor-once step), the sine-Gordon FOM (banded Newton), a
    # PSD ROM of it and a learned wave ROM
    "solvers": """
        import sys
        import sympmor.cli
        from sympmor.integrators import implicit_midpoint
        from sympmor.models import (SgKind, sg_build, sg_initial, sg_system, wave_build,
                                    wave_initial, wave_system)
        from sympmor.network import build_network
        from sympmor.reduction import build_rom, psd_cotangent_lift, psd_maps, solve_rom
        wave = wave_system(wave_build(8, 0.5))
        x0 = wave_initial(8, 0.5)
        implicit_midpoint(wave, x0, 0.0, 1.0, 10)
        net = build_network(wave.dim, 4, seed=0)
        rom = build_rom(net.encode, net.decode, net.decoder_jacobian, x0, use_ref=True,
                        normalized=True)
        solve_rom(rom, wave, 0.0, 0.2, 5)
        model = sg_build(20, 0.3, -10.0, 10.0, SgKind.SingleSoliton)
        sg, y0 = sg_system(model), sg_initial(model)
        fom = implicit_midpoint(sg, y0, 0.0, 1.0, 10)
        rom = build_rom(*psd_maps(psd_cotangent_lift(fom.states, 3)), y0, use_ref=False,
                        normalized=False)
        solve_rom(rom, sg, 0.0, 1.0, 10)
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
    """,
}


@pytest.mark.parametrize("case", sorted(NO_SCIPY_SCRIPTS))
def test_manifold_path_imports_no_scipy(case):
    """Neither the manifold optimizers nor the FOM and ROM solvers load any scipy
    module: LAPACK comes from numpy's bundled OpenBLAS.  The solvers fall back to
    scipy.linalg.lapack only where that OpenBLAS does not export the routines."""
    if case == "solvers" and not blas._LAPACK:
        pytest.skip("numpy's bundled OpenBLAS exports no LAPACK routines to bind")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(NO_SCIPY_SCRIPTS[case])],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
