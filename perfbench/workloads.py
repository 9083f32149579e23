"""The benchmark's three workloads, driven only through sympmor's public functions.

Each workload has ``make_inputs(seed, size, workdir)``, which builds every input
from the seed, and ``run_pass(inputs, rec)``, one closed-loop pass that times
each operation and checks each output into a ``Recorder``.  ``SIZES`` holds the
measured size and a tiny size used for warm-up and the smoke tests.

Why these three: ``wave-autoencoder`` runs the learned pipeline (network
training, the decoder Jacobian in the ROM and the finite-difference Newton
path), ``sg-psd`` runs the linear PSD pipeline on the nonlinear FOM (the
in-house Jacobi SVD and the dense Newton solve) and never touches the network,
and ``stiefel-adam`` isolates the manifold optimizers at the paper's sizes.
"""

import bisect
import math
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from sympmor import cli, integrators, optimizers, reduction, stiefel
from sympmor.config import RunConfig
from sympmor.errors import SympmorError

# Output bounds checked on every pass.
LOSS_RATIO_MAX = 0.5          # final / first epoch loss (acceptance 6's bound)
E_RED_MAX = {"wave-autoencoder": 0.5, "sg-psd": 1e-3}
ORTHO_TOL = stiefel.ORTHO_TOL_FACTOR   # residual bound is ORTHO_TOL * sqrt(n)

# The training seed stays fixed (acceptance 6's desk seed): ROM cost differs by
# up to 30% from one trained network to the next, so the benchmark seed draws
# the test speeds and leaves the network being measured the same.
WAVE_TRAIN_SEED = 7
MU_RANGE = (5.0 / 12.0, 2.0 / 3.0)
NU_RANGE = (0.0, 0.7)

SIZES = {
    "wave-autoencoder": {
        "full": dict(N=32, n=4, n_train=5, K=50, epochs=10, batch=32, n_test=5),
        "tiny": dict(N=16, n=4, n_train=4, K=20, epochs=10, batch=16, n_test=2),
    },
    "sg-psd": {
        "full": dict(N=200, n=10, n_param=3, K=50),
        "tiny": dict(N=40, n=10, n_param=3, K=10),
    },
    "stiefel-adam": {
        "full": dict(N=4000, N_small=1000, n=10, submanifold=200, differential=100,
                     submanifold_small=200, homogeneous=8),
        "tiny": dict(N=200, N_small=60, n=4, submanifold=20, differential=10,
                     submanifold_small=20, homogeneous=2),
    },
}


class Recorder:
    """Operation timings, checks and quality values of one or more passes."""

    def __init__(self, memo, host=None):
        self.samples = defaultdict(list)
        self.windows = defaultdict(list)   # (start, end) of each sample
        self.values = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.memo = memo      # shared across passes, for run-level comparisons
        self.host = host      # HostSpeed sampled between operations, if given

    def op(self, kind, fn, *args, **kwargs):
        """Time fn(*args, **kwargs) as one operation; a SympmorError counts as a failure."""
        self.attempted += 1
        if self.host is not None:
            self.host.tick()
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except SympmorError as exc:
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        end = perf_counter()
        self.samples[kind].append(end - start)
        self.windows[kind].append((start, end))
        return out

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self._fail(what)
        return ok

    def check_same(self, key, value, what):
        """Check value equals the first value recorded under key in this run."""
        first = self.memo.setdefault(key, value)
        return self.check(first == value, what)

    def _fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def stratified(rng, bounds, count):
    """One uniform draw from each of count equal slices of the open interval bounds."""
    lo, hi = bounds
    u = rng.uniform(0.05, 0.95, size=count)
    return [float(lo + (i + u[i]) * (hi - lo) / count) for i in range(count)]


def _finite(a):
    return bool(np.all(np.isfinite(a)))


def _solve_and_check(rec, workload, cfg, param, encode, decode, jacobian, normalized):
    """FOM solve, ROM solve (build_rom + solve_rom) and both errors for one parameter."""
    sys_fom, x0 = cli.fom_system_for(cfg, param)
    K = cfg.time_steps
    exact = rec.op("fom_solve", integrators.implicit_midpoint, sys_fom, x0, cfg.t0, cfg.t1, K)

    def rom_solve():
        rom = reduction.build_rom(encode, decode, jacobian, x0,
                                  use_ref=normalized, normalized=normalized)
        return rom, reduction.solve_rom(rom, sys_fom, cfg.t0, cfg.t1, K, tol=1e-10)

    solved = rec.op("rom_solve", rom_solve)
    if exact is None or solved is None:
        return
    rom, reduced = solved
    rec.check(_finite(exact.states), f"FOM trajectory not finite at param {param:.4f}")
    if not rec.check(_finite(reduced.states), f"ROM trajectory not finite at param {param:.4f}"):
        return
    variant = "with_ref" if normalized else "no_ref"
    e_red = reduction.reduction_error(variant, exact, rom, reduced)
    e_proj = reduction.projection_error(variant, exact, encode, decode, x_ref=rom.x_ref)
    rec.values["e_red"].append(e_red)
    rec.values["e_proj"].append(e_proj)
    bound = E_RED_MAX[workload]
    rec.check(e_red < bound, f"e_red {e_red:.3e} >= {bound:g} at param {param:.4f}")
    rec.check(math.isfinite(e_proj), f"e_proj not finite at param {param:.4f}")


# -- wave-autoencoder ------------------------------------------------------------

def _wave_config(variant, size):
    cfg = RunConfig().apply_variant(variant)
    cfg.N = size["N"]
    cfg.n_range = [size["n"]]
    cfg.params = list(np.linspace(*MU_RANGE, size["n_train"]))
    cfg.time_steps = size["K"]
    cfg.batch_size = size["batch"]
    cfg.n_epochs = size["epochs"]
    cfg.eta = 0.01
    cfg.seed = WAVE_TRAIN_SEED
    return cfg.validate()


def wave_inputs(seed, size, workdir):
    cfgs = {v: _wave_config(v, size) for v in ("V3", "V6")}
    snaps = reduction.normalize_snapshots(cli.generate_snapshots(cfgs["V3"]))
    mus = stratified(np.random.default_rng(seed), MU_RANGE, size["n_test"])
    cols = snaps.data.shape[1]
    return SimpleNamespace(cfgs=cfgs, snaps=snaps, mus=mus, workdir=workdir, n=size["n"],
                           batches=size["epochs"] * math.ceil(cols / size["batch"]))


def wave_pass(inp, rec):
    """Train V3 and V6, then FOM and learned-ROM solves of the V6 network per test speed."""
    n = inp.n
    trained = set()
    for variant, cfg in inp.cfgs.items():
        out = inp.workdir / variant
        summaries = rec.op("train", cli.train_run, cfg, inp.snaps, out)
        if summaries is None:
            continue
        trained.add(variant)
        rec.values["train_batches"].append(inp.batches)
        ratio = summaries[n]["final_loss"] / summaries[n]["first_loss"]
        rec.values["loss_ratio"].append(ratio)
        rec.check(ratio < LOSS_RATIO_MAX, f"{variant} loss ratio {ratio:.3f} >= {LOSS_RATIO_MAX}")
        if variant == "V3":
            rec.check_same("V3 losses", (out / f"losses_n{n}.csv").read_bytes(),
                           "same-seed V3 trainings wrote different losses")
    if "V6" not in trained:
        return
    network = cli.load_network(inp.workdir / "V6" / f"params_n{n}.npz")
    for mu in inp.mus:
        _solve_and_check(rec, "wave-autoencoder", inp.cfgs["V6"], mu, network.encode,
                         network.decode, network.decoder_jacobian, normalized=True)


# -- sg-psd ------------------------------------------------------------------------

def sg_inputs(seed, size, workdir):
    cfg = RunConfig()
    cfg.model = "sg_single_soliton"
    cfg.N = size["N"]
    cfg.a, cfg.b = -10.0, 10.0
    cfg.time_steps = size["K"]
    cfg.n_range = [size["n"]]
    cfg.params = stratified(np.random.default_rng(seed), NU_RANGE, size["n_param"])
    cfg.validate()
    return SimpleNamespace(cfg=cfg, snaps=cli.generate_snapshots(cfg), n=size["n"])


def sg_pass(inp, rec):
    """PSD cotangent lift, then FOM and PSD-ROM solves for each training speed."""
    X = rec.op("lift", reduction.psd_cotangent_lift, inp.snaps.data, inp.n)
    if X is None:
        return
    res = X.ortho_residual()
    rec.values["ortho_residual"].append(res)
    rec.check(res <= ORTHO_TOL * math.sqrt(inp.n), f"PSD basis residual {res:.3e}")
    encode, decode, jacobian = reduction.psd_maps(X)
    for nu in inp.cfg.params:
        _solve_and_check(rec, "sg-psd", inp.cfg, nu, encode, decode, jacobian,
                         normalized=False)


# -- stiefel-adam --------------------------------------------------------------------

def adam_inputs(seed, size, workdir):
    n = size["n"]
    rng = np.random.default_rng(seed)
    grads = {N: [rng.standard_normal((N, n)) for _ in range(4)]
             for N in (size["N"], size["N_small"])}
    starts = {N: stiefel.random_stiefel(N, n, seed + i)
              for i, N in enumerate((size["N"], size["N_small"]))}
    return SimpleNamespace(size=size, n=n, grads=grads, starts=starts, seed=seed)


def _step(rec, kind, X, egrad, i, step):
    """One timed optimizer step and its orthonormality check; None once the run failed."""
    X_new = rec.op(kind, step, X, egrad, i)
    if X_new is None:
        return None
    res = X_new.ortho_residual()
    rec.values["ortho_residual"].append(res)
    tol = ORTHO_TOL * math.sqrt(X.shape[1])
    if not rec.check(res <= tol, f"{kind} iterate {i}: residual {res:.3e} > {tol:.1e}"):
        return None
    return X_new


def adam_pass(inp, rec):
    """Direct Stiefel Adam runs (both transports) and a shorter homogeneous run.

    The four runs advance in interleaved rounds, one homogeneous step per
    round, so each run's samples spread over the whole pass and see the same
    machine conditions.
    """
    size = inp.size
    canonical = stiefel.MetricKind.Canonical
    runs = []
    for kind, N, transport in (("step.submanifold", size["N"], stiefel.TransportKind.Submanifold),
                               ("step.differential", size["N"],
                                stiefel.TransportKind.Differential),
                               ("step.submanifold_small", size["N_small"],
                                stiefel.TransportKind.Submanifold)):
        hyper = optimizers.AdamHyper(decay=0.9995)
        cache = optimizers.StiefelAdamCache(inp.starts[N])

        def direct(X, egrad, i, hyper=hyper, cache=cache, transport=transport):
            return optimizers.stiefel_psd_update(hyper, cache, X, egrad, canonical, transport)

        runs.append((kind, N, size[kind[len("step."):]], direct))

    N = size["N_small"]
    hyper = optimizers.AdamHyper()
    cache = optimizers.HomogeneousAdamCache(N, inp.n)

    def homogeneous(X, egrad, i):
        return optimizers.homogeneous_psd_update(hyper, cache, X, egrad, seed=inp.seed + i)

    runs.append(("step.homogeneous", N, size["homogeneous"], homogeneous))

    points = [inp.starts[N] for _, N, _, _ in runs]
    rounds = size["homogeneous"]
    for r in range(rounds):
        for j, (kind, N, count, step) in enumerate(runs):
            grads = inp.grads[N]
            for i in range(r * count // rounds, (r + 1) * count // rounds):
                if points[j] is None:
                    break
                points[j] = _step(rec, kind, points[j], grads[i % len(grads)], i, step)


class HostSpeed:
    """Times a fixed numpy computation that runs no sympmor code.

    On a shared 2-vCPU Xeon VM the host speed drifted by up to 70% over a few
    minutes, and every kind of code slowed together: over five
    wave-autoencoder runs the pass time went from 3.15 s to 1.87 s while the
    FOM/ROM time ratio moved by less than 8%.  The kernel runs in short bursts
    between operations, at most every INTERVAL_S; ``scale(start, end)`` converts a time
    measured over [start, end] to the nominal host speed, on which the kernel
    takes NOMINAL_MS.  Over windows of a few seconds this halved the spread of
    a Jacobi sweep and of Stiefel steps on that VM.
    """

    NOMINAL_MS = 6.0
    INTERVAL_S = 0.25
    PAD_S = 2.5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((40, 40)) / 40.0
        self.x0 = rng.standard_normal((40, 8))
        self.M = rng.standard_normal((240, 240)) + 40.0 * np.eye(240)
        self.B = rng.standard_normal((240, 8))
        self.times = []     # end time of each burst of kernel runs
        self.costs = []     # median kernel time in that burst
        self.spent = 0.0    # total kernel time, to take out of pass walls

    def _kernel(self):
        x = self.x0
        for _ in range(800):
            x = np.tanh(self.A @ x)
        return np.linalg.solve(self.M, self.B).sum() + np.linalg.qr(self.M[:, :40])[1].sum() + x.sum()

    def sample(self, repeats=1):
        costs = []
        for _ in range(repeats):
            start = perf_counter()
            self._kernel()
            costs.append(perf_counter() - start)
        self.times.append(perf_counter())
        self.costs.append(percentile(costs, 50))
        self.spent += sum(costs)

    def tick(self):
        """Sample if INTERVAL_S has passed, more often after a long operation."""
        idle = perf_counter() - self.times[-1] if self.times else self.INTERVAL_S
        if idle >= self.INTERVAL_S:
            self.sample(min(8, int(idle / self.INTERVAL_S)))

    def scale(self, start, end):
        """Nominal / observed kernel time around [start, end].

        The observed time is the median over the bursts within PAD_S of the
        window: the host also flips speed every second or two, which a
        long operation averages out and a single burst would not.
        """
        t = self.times
        lo = bisect.bisect_left(t, start - self.PAD_S)
        hi = bisect.bisect_right(t, end + self.PAD_S)
        if lo == hi:    # no burst nearby: take the closest one
            lo = min(max(bisect.bisect_left(t, start) - 1, 0), len(t) - 1)
            hi = lo + 1
        return 1e-3 * self.NOMINAL_MS / percentile(self.costs[lo:hi], 50)


WORKLOADS = {
    "wave-autoencoder": (wave_inputs, wave_pass),
    "sg-psd": (sg_inputs, sg_pass),
    "stiefel-adam": (adam_inputs, adam_pass),
}


# -- metrics -------------------------------------------------------------------------

def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def _p50_ms(rec, kind, host=None):
    """Median of an operation's times in ms, each at nominal host speed if host is given."""
    times = rec.samples[kind]
    if not times:
        return float("nan")
    if host is not None:
        times = [t * host.scale(*w) for t, w in zip(times, rec.windows[kind])]
    return 1e3 * percentile(times, 50)


def end_to_end(workload, rec, passes, host):
    """(BENCHMARK.json metrics, report metrics) of a run's untraced passes.

    passes holds (start, end, wall) per pass, wall without the kernel runs in
    it; metrics are at nominal host speed (see HostSpeed), the report keeps
    the times as measured.
    """
    if workload == "stiefel-adam":
        baseline, proposed = "step.homogeneous", "step.submanifold_small"
    else:
        baseline, proposed = "fom_solve", "rom_solve"
    base_ms, prop_ms = _p50_ms(rec, baseline), _p50_ms(rec, proposed)
    walls = [wall for _, _, wall in passes]
    scales = [host.scale(start, end) for start, end, _ in passes]
    metrics = {
        "wall_s": (percentile([w * s for w, s in zip(walls, scales)], 50), "s"),
        "baseline_ms.p50": (_p50_ms(rec, baseline, host), "ms"),
        "proposed_ms.p50": (_p50_ms(rec, proposed, host), "ms"),
    }
    report = {
        "passes": (len(walls), "count"),
        "wall_s.measured": (percentile(walls, 50), "s"),
        "host_scale": (percentile(scales, 50), "1"),
        "fail_frac": (rec.failed / max(rec.attempted, 1), "1"),
    }
    if workload == "stiefel-adam":
        for label, kind in (("submanifold", "step.submanifold"),
                            ("differential", "step.differential"),
                            ("submanifold_1000", "step.submanifold_small"),
                            ("homogeneous", "step.homogeneous")):
            report[f"step_ms.{label}.p50"] = (_p50_ms(rec, kind), "ms")
            report[f"step_ms.{label}.samples"] = (len(rec.samples[kind]), "count")
        report["step_ms.submanifold.p95"] = (
            1e3 * percentile(rec.samples["step.submanifold"], 95), "ms")
        report["direct_speedup"] = (base_ms / prop_ms, "x")
    else:
        report["fom_solve_s.p50"] = (base_ms / 1e3, "s")
        report["rom_solve_s.p50"] = (prop_ms / 1e3, "s")
        report["rom_speedup"] = (base_ms / prop_ms, "x")
        report["solves"] = (len(rec.samples["rom_solve"]), "count")
        report["e_red_max"] = (max(rec.values["e_red"], default=float("nan")), "1")
        report["e_proj_max"] = (max(rec.values["e_proj"], default=float("nan")), "1")
    if workload == "wave-autoencoder":
        seconds = sum(rec.samples["train"])
        report["train_batches_per_s"] = (sum(rec.values["train_batches"]) / seconds, "1/s")
        report["loss_ratio_max"] = (max(rec.values["loss_ratio"], default=float("nan")), "1")
    if workload == "sg-psd":
        report["lift_s"] = (percentile(rec.samples["lift"], 50), "s")
    if rec.values["ortho_residual"]:
        report["ortho_residual_max"] = (max(rec.values["ortho_residual"]), "1")
    return metrics, report
