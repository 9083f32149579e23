"""Train the symplectic autoencoder on linear wave snapshots.

Generates snapshots for five wave speeds, normalizes them, and trains two
variants side by side: the homogeneous-space baseline (V3) and the direct
Stiefel optimizer with learning-rate decay (V6).  Then solves the V6
network's learned ROM at a held-out speed against the full-order model, and
reports the step it took: Störmer–Verlet where omega_max tau is at most
`reduction.VERLET_BOUND`, else the split midpoint, the implicit midpoint step
of the ROM's linear part between half kicks by its learned potential.
"""

import time

import numpy as np

from sympmor.cli import fom_system_for, generate_snapshots, load_network, train_run
from sympmor.config import RunConfig
from sympmor.integrators import implicit_midpoint
from sympmor.reduction import (VERLET_BOUND, build_rom, max_frequency, normalize_snapshots,
                               reduction_error, solve_rom)

HELD_OUT_MU = 0.55   # between the training speeds 0.542 and 0.604


def make_config(variant):
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


def learned_rom(cfg, params_path, mu):
    """FOM and learned-ROM solves at speed mu: (e_red, FOM s, ROM s, omega_max tau, step)."""
    network = load_network(params_path)
    sys_fom, x0 = fom_system_for(cfg, mu)
    K = cfg.time_steps
    t_start = time.perf_counter()
    exact = implicit_midpoint(sys_fom, x0, cfg.t0, cfg.t1, K)
    fom_s = time.perf_counter() - t_start
    t_start = time.perf_counter()
    # the network's own maps, so build_rom folds the decoder once
    rom = build_rom(network.encode, network.decode, network.decoder_jacobian, x0,
                    use_ref=True, normalized=True)
    reduced = solve_rom(rom, sys_fom, cfg.t0, cfg.t1, K, tol=1e-10)
    rom_s = time.perf_counter() - t_start
    tau = (cfg.t1 - cfg.t0) / K
    omega_tau = max_frequency(sys_fom.second_order, rom.basis, rom.x_ref, rom.fold.post) * tau
    step = "Stormer-Verlet" if omega_tau <= VERLET_BOUND else "split midpoint"
    return reduction_error("with_ref", exact, rom, reduced), fom_s, rom_s, omega_tau, step


def main():
    raw = generate_snapshots(make_config("V3"))
    norm = normalize_snapshots(raw)
    print(f"snapshot matrix: {norm.data.shape[0]} x {norm.data.shape[1]}")

    for variant in ("V3", "V6"):
        cfg = make_config(variant)
        summary = train_run(cfg, norm, f"out/wave_{variant}")[4]
        print(f"{variant}: first-epoch loss {summary['first_loss']:.4f} -> "
              f"final {summary['final_loss']:.4f} "
              f"({summary['wall_seconds']:.2f}s)")

    e_red, fom_s, rom_s, omega_tau, step = learned_rom(
        make_config("V6"), "out/wave_V6/params_n4.npz", HELD_OUT_MU)
    print(f"V6 learned ROM at mu = {HELD_OUT_MU}: e_red {e_red:.4f}, FOM {fom_s:.4f} s, "
          f"ROM {rom_s:.4f} s, omega_max tau {omega_tau:.3f}, {step}")


if __name__ == "__main__":
    main()
