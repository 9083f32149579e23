"""Acceptance gate: eight end-to-end criteria, each printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -v`. Every criterion states its
tolerance inline; the printed line goes straight to the terminal even under
pytest's capture so the gate can be read off a full-suite log.
"""

import time

import numpy as np
import pytest

import sympmor.cli as cli
import sympmor.models as models
import sympmor.network as net
import sympmor.optimizers as opt
import sympmor.reduction as red
import sympmor.stiefel as st
from sympmor.config import RunConfig
from sympmor.integrators import OdeSystem, Trajectory, implicit_midpoint
from sympmor.network import LossKind
from sympmor.stiefel import MetricKind, TransportKind


def report(capsys, index, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1: geometry against dense oracles --------------------------------------

def test_acceptance_1_geometry_oracles(capsys):
    """100+ random instances, all geometry primitives vs dense N x N oracles,
    max deviation < 1e-9, wall < 30 s."""
    t_start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(0)
    for trial in range(100):
        N = int(rng.integers(2, 13))
        n = int(rng.integers(1, min(N, 5) + 1))
        X = st.random_stiefel(N, n, trial)
        Y = rng.standard_normal((N, n))
        A = X.data

        # tangent projection
        Z = st.project_tangent(X, Y)
        skew = (A.T @ Y - Y.T @ A) / 2
        oracle = (np.eye(N) - A @ A.T) @ Y + A @ skew
        worst = max(worst, np.linalg.norm(Z.data - oracle))

        # Riemannian gradients
        ge = st.riemannian_gradient(MetricKind.Euclidean, X, Y)
        sym = (A.T @ Y + Y.T @ A) / 2
        worst = max(worst, np.linalg.norm(ge.data - (Y - A @ sym)))
        gc = st.riemannian_gradient(MetricKind.Canonical, X, Y)
        worst = max(worst, np.linalg.norm(gc.data - (Y - A @ Y.T @ A)))

        # Cayley retraction via dense solve
        P = np.eye(N) - 0.5 * A @ A.T
        AXZ = P @ Z.data @ A.T - A @ Z.data.T @ P
        dense = np.linalg.solve(np.eye(N) - 0.5 * AXZ, (np.eye(N) + 0.5 * AXZ) @ A)
        out = st.cayley_retract(X, Z)
        worst = max(worst, np.linalg.norm(out.data - dense))

        # transports vs their dense definitions
        Y2 = st.project_tangent(X, rng.standard_normal((N, n)))
        sub = st.transport_submanifold(X, Z, Y2, retracted=out)
        d = Y2.data - 0.5 * dense @ (dense.T @ Y2.data + Y2.data.T @ dense)
        worst = max(worst, np.linalg.norm(sub.data - d))
        AY = P @ Y2.data @ A.T - A @ Y2.data.T @ P
        inv = np.linalg.inv(np.eye(N) - 0.5 * AXZ)
        diff_oracle = inv @ AY @ inv @ A
        diff = st.transport_differential(X, Z, Y2, retracted=out)
        worst = max(worst, np.linalg.norm(diff.data - diff_oracle))
    wall = time.perf_counter() - t_start
    ok = worst < 1e-9 and wall < 30.0
    report(capsys, 1, ok,
           f"geometry vs dense oracles: max dev {worst:.2e} (tol 1e-9), {wall:.1f}s (< 30s)")


# -- 2: analytic gradients vs finite differences ----------------------------

def test_acceptance_2_network_gradients(capsys):
    """Backprop and decoder Jacobian vs central differences at (d, n) = (4, 2);
    relative deviation < 1e-5, wall < 60 s."""
    t_start = time.perf_counter()
    network = net.build_network(8, 4, seed=3)
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((8, 6)) * 0.5
    worst = 0.0
    for kind in LossKind:
        out, tape = network.forward(batch)
        upstream = net.loss_backward(kind, batch, out)
        grads = []
        for layer, entry in zip(reversed(network.layers), reversed(tape)):
            upstream, g = layer.backward(entry, upstream)
            grads.append(g)
        grads = list(reversed(grads))

        def total_loss():
            return net.loss(kind, batch, network.forward(batch)[0])

        eps = 1e-6
        for layer, g in zip(network.layers, grads):
            if isinstance(layer, net.GradientLayer):
                items = [("K", g["K"]), ("a", g["a"]), ("b", g["b"])]
            else:
                items = [("weight", g["X"])]
            for name, grad in items:
                if name == "weight":
                    # FD perturbation leaves the manifold; bypass the
                    # StiefelPoint validation with a bare .data carrier
                    class _Raw:
                        def __init__(self, data):
                            self.data = data
                            self.shape = data.shape

                    original = layer.weight
                    base = original.data
                    dP = rng.standard_normal(base.shape)
                    layer.weight = _Raw(base + eps * dP)
                    up = total_loss()
                    layer.weight = _Raw(base - eps * dP)
                    dn = total_loss()
                    layer.weight = original
                else:
                    base = getattr(layer, name)
                    dP = rng.standard_normal(base.shape)
                    setattr(layer, name, base + eps * dP)
                    up = total_loss()
                    setattr(layer, name, base - eps * dP)
                    dn = total_loss()
                    setattr(layer, name, base)
                fd = (up - dn) / (2 * eps)
                ana = float(np.vdot(grad, dP))
                worst = max(worst, abs(fd - ana) / max(1e-8, abs(fd)))

    # decoder Jacobian vs FD
    xr = rng.standard_normal(4) * 0.3
    _, D = network.decoder_jacobian(xr)
    eps = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = eps
        fd_col = (network.decode(xr + e) - network.decode(xr - e)) / (2 * eps)
        denom = max(1.0, np.linalg.norm(fd_col))
        worst = max(worst, np.linalg.norm(D[:, j] - fd_col) / denom)
    wall = time.perf_counter() - t_start
    ok = worst < 1e-5 and wall < 60.0
    report(capsys, 2, ok,
           f"analytic vs FD gradients: max rel dev {worst:.2e} (tol 1e-5), {wall:.1f}s (< 60s)")


# -- 3: symplecticity and manifold feasibility ------------------------------

def test_acceptance_3_symplecticity(capsys):
    """Decoder Jacobians satisfy M^T J M = J to 1e-8 at 20 random points for
    (d, n) up to (6, 3); PSD weights stay orthonormal to 1e-8 over 500
    optimizer steps; wall < 60 s."""
    t_start = time.perf_counter()

    def jmat(two_d):
        d = two_d // 2
        J = np.zeros((two_d, two_d))
        J[:d, d:] = np.eye(d)
        J[d:, :d] = -np.eye(d)
        return J

    worst_sympl = 0.0
    rng = np.random.default_rng(5)
    for d, n in [(4, 2), (6, 3)]:
        network = net.build_network(2 * d, 2 * n, seed=d)
        for _ in range(10):
            xr = rng.standard_normal(2 * n) * 0.5
            _, D = network.decoder_jacobian(xr)
            worst_sympl = max(worst_sympl, np.linalg.norm(
                D.T @ jmat(2 * d) @ D - jmat(2 * n)))

    worst_ortho = 0.0
    X = st.random_stiefel(30, 4, 0)
    hyper = opt.AdamHyper(eta=0.01, decay=0.9995)
    cache = opt.StiefelAdamCache(X)
    for step in range(500):
        egrad = np.random.default_rng(step).standard_normal((30, 4))
        X = opt.stiefel_psd_update(hyper, cache, X, egrad,
                                   MetricKind.Canonical, TransportKind.Submanifold)
        worst_ortho = max(worst_ortho, X.ortho_residual())
    Xh = st.random_stiefel(30, 4, 1)
    hyper_h = opt.AdamHyper(eta=0.01)
    cache_h = opt.HomogeneousAdamCache(30, 4)
    for step in range(100):
        egrad = np.random.default_rng(1000 + step).standard_normal((30, 4))
        Xh = opt.homogeneous_psd_update(hyper_h, cache_h, Xh, egrad, seed=step)
        worst_ortho = max(worst_ortho, Xh.ortho_residual())

    wall = time.perf_counter() - t_start
    ok = worst_sympl < 1e-8 and worst_ortho < 1e-8 and wall < 60.0
    report(capsys, 3, ok,
           f"symplecticity {worst_sympl:.2e} / orthonormality {worst_ortho:.2e} "
           f"(tol 1e-8 each), {wall:.1f}s (< 60s)")


# -- 4: integrator and model fidelity ---------------------------------------

def test_acceptance_4_integration(capsys):
    """Oscillator error quarters when K doubles (ratio in [3.5, 4.5]); the
    wave Hamiltonian drifts < 1e-9 over [0, 1] at N = 32, mu = 0.25; the
    sine-Gordon solution at nu = 0.5 on [-10, 10] matches the closed form to
    2e-2 at N = 64, K = 200 and improves by a factor in [3, 5] when both
    resolutions halve; wall < 120 s."""
    t_start = time.perf_counter()

    osc = OdeSystem(2, lambda t, x: np.array([x[1], -x[0]]))
    x0 = np.array([1.0, 0.0])

    def osc_err(K):
        traj = implicit_midpoint(osc, x0, 0.0, 2 * np.pi, K)
        return abs(traj.states[0, -1] - 1.0) + abs(traj.states[1, -1])

    ratio = osc_err(100) / osc_err(200)

    model = models.wave_build(32, 0.25)
    sys_w = models.wave_system(model)
    w0 = models.wave_initial(32, 0.25)
    traj = implicit_midpoint(sys_w, w0, 0.0, 1.0, 100)
    H = sys_w.hamiltonian
    h_ref = H(w0)
    drift = max(abs(H(traj.states[:, k]) - h_ref) for k in range(101))

    def sg_err(N, K):
        m = models.sg_build(N, 0.5, -10.0, 10.0, models.SgKind.SingleSoliton)
        s = models.sg_system(m)
        tr = implicit_midpoint(s, models.sg_initial(m), 0.0, 1.0, K)
        u = models.sg_exact(m.bc, m.nu, 1.0, m.xi)[0]
        return np.linalg.norm(tr.states[:m.N, -1] - u) / np.linalg.norm(u)

    e_coarse = sg_err(64, 200)
    e_fine = sg_err(129, 400)  # h and tau both halved
    factor = e_coarse / e_fine

    wall = time.perf_counter() - t_start
    ok = (3.5 < ratio < 4.5 and drift < 1e-9 and e_coarse < 2e-2
          and 3.0 < factor < 5.0 and wall < 120.0)
    report(capsys, 4, ok,
           f"order ratio {ratio:.3f} (in [3.5,4.5]), wave drift {drift:.2e} (< 1e-9), "
           f"sg err {e_coarse:.2e} (< 2e-2) halving factor {factor:.2f} (in [3,5]), "
           f"{wall:.1f}s (< 120s)")


# -- 5: model-reduction identities ------------------------------------------

def test_acceptance_5_reduction_identities(capsys):
    """PSD pipeline at mu = 0.25: initial-state reconstruction to 1e-10,
    projection error monotone in n, square ROM reproduces the FOM to 1e-8,
    efficient reduced field matches the dense J-product form to 1e-11;
    wall < 120 s."""
    t_start = time.perf_counter()
    model = models.wave_build(16, 0.25)
    sys_w = models.wave_system(model)
    x0 = models.wave_initial(16, 0.25)
    fom = implicit_midpoint(sys_w, x0, 0.0, 1.0, 60)
    d = sys_w.dim // 2

    X = red.psd_cotangent_lift(fom.states, 4)
    encode, decode, jac = red.psd_maps(X)
    rom = red.build_rom(encode, decode, jac, x0, use_ref=True, normalized=True)
    recon0 = np.linalg.norm(rom.reconstruct_state(rom.x_r0) - x0)

    errs = []
    for n in (2, 4, 8):
        Xn = red.psd_cotangent_lift(fom.states, n)
        en, de, _ = red.psd_maps(Xn)
        errs.append(red.projection_error("no_ref", fom, en, de))
    monotone = errs[0] > errs[1] > errs[2]

    import warnings
    with warnings.catch_warnings():
        # the square lift deliberately includes below-rank directions
        warnings.simplefilter("ignore", RuntimeWarning)
        Xsq = red.psd_cotangent_lift(fom.states, d)
    en, de, ja = red.psd_maps(Xsq)
    rom_sq = red.build_rom(en, de, ja, x0, use_ref=True, normalized=True)
    reduced = red.solve_rom(rom_sq, sys_w, 0.0, 1.0, 60)
    recon = rom_sq.reconstruct_state(reduced.states)
    sq_err = np.max(np.abs(recon - fom.states)) / max(1.0, np.max(np.abs(fom.states)))

    field = red.reduced_vector_field(rom, sys_w.vector_field)
    n = 4
    J2d = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    J2n = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    rng = np.random.default_rng(6)
    field_dev = 0.0
    for _ in range(10):
        xi = rng.standard_normal(2 * n)
        f = sys_w.vector_field(0.0, rom.reconstruct_state(xi))
        oracle = -J2n @ rom.decode_jacobian(xi)[1].T @ J2d @ f
        field_dev = max(field_dev, np.linalg.norm(field(0.0, xi) - oracle))

    wall = time.perf_counter() - t_start
    ok = (recon0 < 1e-10 and monotone and sq_err < 1e-8
          and field_dev < 1e-11 and wall < 120.0)
    report(capsys, 5, ok,
           f"initial recon {recon0:.2e} (< 1e-10), proj errs "
           f"{errs[0]:.1e}>{errs[1]:.1e}>{errs[2]:.1e} (monotone), square ROM "
           f"{sq_err:.2e} (< 1e-8), field dev {field_dev:.2e} (< 1e-11), "
           f"{wall:.1f}s (< 120s)")


# -- 6: desk-scale training run ---------------------------------------------

def _desk_config(variant):
    cfg = RunConfig().apply_variant(variant)
    cfg.model = "wave"
    cfg.N = 32
    cfg.n_range = [4]
    cfg.params = list(np.linspace(5.0 / 12.0, 2.0 / 3.0, 5))
    cfg.time_steps = 50
    cfg.batch_size = 32
    cfg.n_epochs = 10
    cfg.eta = 0.01
    cfg.seed = 7
    return cfg.validate()


def test_acceptance_6_training(capsys, tmp_path):
    """Wave training at N = 32, n = 4, mu in linspace(5/12, 2/3, 5), K = 50,
    batch 32, 10 epochs, eta = 0.01: final epoch loss < 0.5x first epoch
    loss for variants V3 and V6, and a repeated V3 run writes a bitwise
    identical loss CSV; wall < 600 s."""
    t_start = time.perf_counter()
    cfg = _desk_config("V3")
    raw = cli.generate_snapshots(cfg)
    norm = red.normalize_snapshots(raw)

    ratios = {}
    for variant in ("V3", "V6"):
        cfg = _desk_config(variant)
        data = norm if cfg.setup.normalized else raw
        out = tmp_path / variant
        summary = cli.train_run(cfg, data, out)[4]
        ratios[variant] = summary["final_loss"] / summary["first_loss"]

    cfg = _desk_config("V3")
    cli.train_run(cfg, norm, tmp_path / "V3_repeat")
    bitwise = ((tmp_path / "V3" / "losses_n4.csv").read_bytes()
               == (tmp_path / "V3_repeat" / "losses_n4.csv").read_bytes())

    wall = time.perf_counter() - t_start
    ok = ratios["V3"] < 0.5 and ratios["V6"] < 0.5 and bitwise and wall < 600.0
    report(capsys, 6, ok,
           f"loss ratios V3 {ratios['V3']:.3f} / V6 {ratios['V6']:.3f} (< 0.5), "
           f"repeat bitwise identical: {bitwise}, {wall:.1f}s (< 600s)")


def _sg_config(model, variant):
    cfg = RunConfig().apply_variant(variant)
    cfg.model = model
    cfg.N = 64
    cfg.a, cfg.b, cfg.t0, cfg.t1 = -10.0, 10.0, 0.0, 16.0
    cfg.n_range = [2]
    cfg.params = list(np.linspace(0.1, 0.6, 5))
    cfg.testing_params = [0.225, 0.475]
    cfg.time_steps = 50
    cfg.n_epochs = 10
    cfg.eta = 0.01
    cfg.seed = 7
    return cfg.validate()


@pytest.mark.parametrize("model", ["sg_single_soliton", "sg_doublets"])
def test_sine_gordon_training_orders_v3_v6(model, tmp_path):
    """The thesis's second testbed beside the wave of acceptance 6: on
    sine-Gordon (N = 64 on [-10, 10], t in [0, 16], K = 50, nu in
    linspace(0.1, 0.6, 5), n = 2), Stiefel Adam (V6) trains further than the
    homogeneous baseline (V3) and its network projects the FOM trajectory at
    each test nu more closely."""
    norm = red.normalize_snapshots(cli.generate_snapshots(_sg_config(model, "V3")))
    ratios, e_proj = {}, {}
    for variant in ("V3", "V6"):
        cfg = _sg_config(model, variant)
        summary = cli.train_run(cfg, norm, tmp_path / variant)[2]
        ratios[variant] = summary["final_loss"] / summary["first_loss"]
        network = cli.load_network(tmp_path / variant / "params_n2.npz")
        rows = cli.evaluate(cfg, lambda n: (network.encode, network.decode,
                                            network.decoder_jacobian),
                            True, tmp_path / variant / "errors.csv")
        e_proj[variant] = np.array([row[3] for row in rows])
    assert ratios["V6"] < min(ratios["V3"], 0.5), ratios
    assert np.all(e_proj["V6"] < e_proj["V3"]), e_proj


# -- 7: optimizer speed contract --------------------------------------------

def test_acceptance_7_speed(capsys):
    """At (N, n) = (2000, 10) the direct optimizer with decay is at least 5x
    faster per step than the homogeneous baseline, and its (4000, 10) step
    costs at most 3x its (2000, 10) step; wall < 180 s."""
    t_start = time.perf_counter()
    rows = cli.speed_test([(2000, 10)])
    times = {r[0]: r[3] for r in rows}
    rows2 = cli.speed_test([(4000, 10)], optimizers=("stiefel_decay",))
    t_4000 = rows2[0][3]

    speedup = times["homogeneous"] / times["stiefel_decay"]
    scaling = t_4000 / times["stiefel_decay"]
    wall = time.perf_counter() - t_start
    ok = speedup >= 5.0 and scaling <= 3.0 and wall < 180.0
    report(capsys, 7, ok,
           f"speedup {speedup:.1f}x (>= 5), 4000/2000 scaling {scaling:.2f} (<= 3), "
           f"{wall:.1f}s (< 180s)")


# -- 8: error metrics against hand arithmetic -------------------------------

def test_acceptance_8_error_oracles(capsys):
    """Two-step trajectories small enough for pencil-and-paper: reduction and
    projection errors match hand-computed values to 1e-12."""
    exact = Trajectory(states=np.array([[1.0, 0.0, 3.0], [0.0, 2.0, 0.0]]),
                       t0=0.0, t1=1.0, K=2)
    rom = red.RomSpec(encode=lambda x: x, decode=lambda x: 2.0 * x,
                      decode_jacobian=lambda x: 2.0 * np.eye(2),
                      x_r0=np.zeros(2), reduced_dim=2,
                      x_ref=np.array([0.5, 0.0]))
    reduced = Trajectory(states=np.array([[0.5, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                         t0=0.0, t1=1.0, K=2)
    # no_ref: recon [[1,0,2],[0,2,0]]; sq diff 1; denom 1+9+4 = 14
    dev = abs(red.reduction_error("no_ref", exact, rom, reduced) - np.sqrt(1.0 / 14.0))
    # with_ref: add 0.5 to row 1 -> diffs (0.5, 0.5, -0.5); sq sum 0.75
    dev = max(dev, abs(red.reduction_error("with_ref", exact, rom, reduced)
                       - np.sqrt(0.75 / 14.0)))
    # projection through rank-1 maps: keep row 1 only -> sq diff 4
    enc = lambda x: x[:1]
    dec = lambda x: np.vstack([x, np.zeros_like(x)])
    dev = max(dev, abs(red.projection_error("no_ref", exact, enc, dec)
                       - np.sqrt(4.0 / 14.0)))
    # with_ref projection, x_ref = [1, 0]: shifted states [[0,-1,2],[0,2,0]],
    # recon kills row 2 then adds back x_ref -> recon [[1,0,3],[0,0,0]];
    # diffs are row 2 only: sq sum 4
    dev = max(dev, abs(red.projection_error("with_ref", exact, enc, dec,
                                            x_ref=np.array([1.0, 0.0]))
                       - np.sqrt(4.0 / 14.0)))
    ok = dev < 1e-12
    report(capsys, 8, ok, f"hand-computed error oracles: max dev {dev:.2e} (tol 1e-12)")
