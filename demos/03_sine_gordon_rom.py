"""Linear PSD reduction of the sine-Gordon soliton.

Builds a cotangent-lift basis from snapshots of the single-soliton solution,
integrates the reduced Hamiltonian system, and compares the reconstruction
against the full-order model for a range of basis sizes, next to the time each
solve takes (FOM seconds over ROM seconds is the ROM's speedup).  Each ROM
steps by Störmer–Verlet where omega_max tau, its largest frequency times the
step size, is at most VERLET_BOUND, and by the implicit midpoint rule above it.
"""

import time

import numpy as np

from sympmor.integrators import implicit_midpoint
from sympmor.models import SgKind, sg_build, sg_exact, sg_initial, sg_system
from sympmor.reduction import (
    VERLET_BOUND,
    build_rom,
    max_frequency,
    psd_cotangent_lift,
    psd_maps,
    reduction_error,
    solve_rom,
)


def best_of(fn, repeats=3):
    """fn()'s result and the fastest of repeats wall times, in seconds."""
    times = []
    for _ in range(repeats):
        t_start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t_start)
    return out, min(times)


def main():
    model = sg_build(64, nu=0.5, a=-10.0, b=10.0, bc=SgKind.SingleSoliton)
    sys = sg_system(model)
    x0 = sg_initial(model)
    K = 200
    tau = 1.0 / K
    fom, fom_s = best_of(lambda: implicit_midpoint(sys, x0, 0.0, 1.0, K))
    u_exact = sg_exact(model.bc, model.nu, 1.0, model.xi)[0]
    fom_err = np.linalg.norm(fom.states[:model.N, -1] - u_exact) / np.linalg.norm(u_exact)
    print(f"FOM vs closed form at t = 1: {fom_err:.2e}; FOM solve {fom_s:.4f} s")

    for n in (2, 4, 8, 12):
        X = psd_cotangent_lift(fom.states, n)
        encode, decode, jacobian = psd_maps(X)

        def rom_solve():
            rom = build_rom(encode, decode, jacobian, x0,
                            use_ref=False, normalized=False)
            return rom, solve_rom(rom, sys, 0.0, 1.0, K)

        (rom, reduced), rom_s = best_of(rom_solve)
        err = reduction_error("no_ref", fom, rom, reduced)
        omega_tau = max_frequency(model, rom.basis) * tau
        print(f"n = {n:2d}: omega_max tau {omega_tau:.3f} "
              f"({'Stormer-Verlet' if omega_tau <= VERLET_BOUND else 'midpoint'}), "
              f"reduction error {err:.2e}, "
              f"FOM {fom_s:.4f} s, ROM {rom_s:.4f} s, FOM/ROM {fom_s / rom_s:.2f}x")


if __name__ == "__main__":
    main()
