"""Layer map: what the traced run measures and which end-to-end numbers it explains.

Each traced name is ``<module>.<function>`` or ``<module>.<Class>.<method>``
inside the ``sympmor`` package.  The traced run reports, per name,
``<name>.calls`` (calls per traced unit) and ``<name>.self_pct`` (time spent
in the function's own code, as a share of the traced unit's wall time).

``moves`` lists the end-to-end numbers a change to that function should move,
as ``<report metric>@<workload>``.  Report metrics are the names the benchmark
prints for each workload; ``GATED_BY`` says which metric of BENCHMARK.json
carries each of them into the regression gate.  A function with no entry for a
workload should show no change there.
"""

WAVE, SG, ADAM = "wave-autoencoder", "sg-psd", "stiefel-adam"

# Report metric -> BENCHMARK.json end-to-end metric that gates it.
GATED_BY = {
    "fom_solve_s.p50": "baseline_ms.p50",
    "rom_solve_s.p50": "proposed_ms.p50",
    "rom_speedup": "baseline_ms.p50 / proposed_ms.p50",
    "step_ms.homogeneous.p50": "baseline_ms.p50",
    "step_ms.submanifold_1000.p50": "proposed_ms.p50",
    "direct_speedup": "baseline_ms.p50 / proposed_ms.p50",
    "train_batches_per_s": "wall_s",
    "step_ms.submanifold.p50": "wall_s",
    "step_ms.submanifold.p95": "wall_s",
    "step_ms.differential.p50": "wall_s",
    "lift_s": "wall_s",
    "loss_ratio_max": "correct",
    "e_red_max": "correct",
    "fail_frac": "failed",
}

STEP = ["step_ms.submanifold.p50", "step_ms.differential.p50", "step_ms.submanifold_1000.p50"]

# Functions and methods wrapped in a span, each with the numbers it should move.
TRACED = {
    # stiefel
    "stiefel.cayley_retract": [f"{m}@{ADAM}" for m in STEP],
    "stiefel.cayley_factors": [f"{m}@{ADAM}" for m in STEP],
    "stiefel._smw_core": [f"{m}@{ADAM}" for m in STEP]
    + [f"step_ms.homogeneous.p50@{ADAM}"],
    "stiefel.riemannian_gradient": [f"{m}@{ADAM}" for m in STEP],
    "stiefel.transport_submanifold": [f"step_ms.submanifold.p50@{ADAM}",
                                      f"step_ms.submanifold_1000.p50@{ADAM}"],
    "stiefel.transport_differential": [f"step_ms.differential.p50@{ADAM}"],
    "stiefel.StiefelPoint.__init__": [f"{m}@{ADAM}" for m in STEP],
    "stiefel.StiefelPoint.same_point": [f"{m}@{ADAM}" for m in STEP],
    "stiefel.StiefelPoint.renormalized": [f"train_batches_per_s@{WAVE}"],
    # homogeneous
    "homogeneous.section_qr": [f"step_ms.homogeneous.p50@{ADAM}", f"train_batches_per_s@{WAVE}"],
    "homogeneous.lift_to_global": [f"step_ms.homogeneous.p50@{ADAM}", f"train_batches_per_s@{WAVE}"],
    "homogeneous.horizontal_pointwise": [f"step_ms.homogeneous.p50@{ADAM}",
                                         f"train_batches_per_s@{WAVE}"],
    "homogeneous.retract_global": [f"step_ms.homogeneous.p50@{ADAM}", f"train_batches_per_s@{WAVE}"],
    # optimizers
    "optimizers.adam_step": [f"train_batches_per_s@{WAVE}"],
    "optimizers.stiefel_adam_step": [f"{m}@{ADAM}" for m in STEP],
    "optimizers.stiefel_psd_update": [f"{m}@{ADAM}" for m in STEP],
    "optimizers.homogeneous_psd_update": [f"step_ms.homogeneous.p50@{ADAM}"],
    # network
    "network.GradientLayer.forward": [f"train_batches_per_s@{WAVE}", f"rom_solve_s.p50@{WAVE}"],
    "network.GradientLayer.backward": [f"train_batches_per_s@{WAVE}"],
    "network.GradientLayer.differential": [f"rom_solve_s.p50@{WAVE}"],
    "network.PSDLayer.forward": [f"train_batches_per_s@{WAVE}", f"rom_solve_s.p50@{WAVE}"],
    "network.PSDLayer.backward": [f"train_batches_per_s@{WAVE}"],
    "network.Network.decode": [f"rom_solve_s.p50@{WAVE}"],
    "network.Network.decoder_jacobian": [f"rom_solve_s.p50@{WAVE}"],
    "network.Trainer.train_batch": [f"train_batches_per_s@{WAVE}"],
    "network.Trainer.update": [f"train_batches_per_s@{WAVE}"],
    "network.loss": [f"train_batches_per_s@{WAVE}"],
    "network.loss_backward": [f"train_batches_per_s@{WAVE}"],
    # integrators: implicit_midpoint's self time is the Newton linear algebra
    "integrators.implicit_midpoint": [f"fom_solve_s.p50@{SG}", f"fom_solve_s.p50@{WAVE}"],
    "integrators._fd_jacobian": [f"rom_solve_s.p50@{WAVE}", f"rom_solve_s.p50@{SG}"],
    # models
    "models.sg_exact": [f"fom_solve_s.p50@{SG}", "setup_s@" + SG],
    # reduction
    "reduction.psd_cotangent_lift": [f"lift_s@{SG}"],
    "reduction.solve_rom": [f"rom_solve_s.p50@{WAVE}", f"rom_solve_s.p50@{SG}"],
    "reduction.reduction_error": [f"wall_s@{WAVE}", f"wall_s@{SG}"],
    "reduction.projection_error": [f"wall_s@{WAVE}", f"wall_s@{SG}"],
    "reduction.normalize_snapshots": [f"setup_s@{WAVE}"],
    # cli: train_run's self time is the CSV, npz and manifest writes
    "cli.generate_snapshots": [f"setup_s@{WAVE}", f"setup_s@{SG}"],
    "cli.train_run": [f"train_batches_per_s@{WAVE}"],
}

# Factories whose returned closures get a span of their own: factory -> span name.
FACTORIES = {
    "models.wave_vector_field": "models.field",
    "models.sg_vector_field": "models.field",
    "models.sg_jacobian": "models.sg_jacobian",
    "reduction.reduced_vector_field": "reduction.reduced_field",
}

CLOSURE_MOVES = {
    "models.field": [f"rom_solve_s.p50@{SG}", f"fom_solve_s.p50@{SG}"],
    "models.sg_jacobian": [f"fom_solve_s.p50@{SG}"],
    "reduction.reduced_field": [f"rom_solve_s.p50@{WAVE}", f"rom_solve_s.p50@{SG}"],
}

# Counters recorded at the same boundaries: name -> (unit, numbers it explains).
COUNTERS = {
    "stiefel.renorm_events": ("count", [f"train_batches_per_s@{WAVE}"]),
    "stiefel.ortho_residual_max": ("1", [f"correct@{ADAM}", f"correct@{WAVE}"]),
    # Newton iterations are counted as Jacobian evaluations, so wasted ones show.
    "integrators.newton_iters": ("count", [f"fom_solve_s.p50@{SG}", f"rom_solve_s.p50@{WAVE}",
                                           f"rom_solve_s.p50@{SG}"]),
    "integrators.newton_iters_per_step": ("iter/step", [f"rom_solve_s.p50@{WAVE}",
                                                        f"rom_solve_s.p50@{SG}"]),
    "integrators.field_calls": ("count", [f"rom_solve_s.p50@{WAVE}", f"rom_solve_s.p50@{SG}"]),
    "trace.spans": ("count", []),
    "trace.overhead_s": ("s", []),
}


def span_names():
    """Every span name the traced run reports, in a fixed order."""
    names = list(TRACED)
    for span in FACTORIES.values():
        if span not in names:
            names.append(span)
    return names


def per_layer_metrics():
    """(name, unit) for every per-layer metric, as listed in BENCHMARK.json."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_pct", "%"))
    out.extend((name, unit) for name, (unit, _) in COUNTERS.items())
    return out
