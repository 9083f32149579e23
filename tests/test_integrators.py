"""Implicit midpoint: exact-solution oracles, order, invariants, step hook."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from sympmor import blas, integrators
from sympmor.errors import DimensionError, IntegrationFailureError
from sympmor.integrators import (OdeSystem, Trajectory, _fd_jacobian, dense_newton, free_drift,
                                 implicit_midpoint, kick_drift_kick)
from sympmor.models import (SecondOrder, SgKind, sg_build, sg_initial, sg_system, wave_build,
                            wave_initial, wave_system)


def oscillator(omega=1.0):
    A = np.array([[0.0, 1.0], [-omega ** 2, 0.0]])
    return OdeSystem(
        dim=2,
        vector_field=lambda t, x: A @ x,
        hamiltonian=lambda x: 0.5 * (x[1] ** 2 + omega ** 2 * x[0] ** 2),
    )


def test_trajectory_times():
    traj = Trajectory(states=np.zeros((2, 5)), t0=0.0, t1=2.0, K=4)
    assert np.allclose(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_input_validation():
    sys = oscillator()
    with pytest.raises(DimensionError):
        implicit_midpoint(sys, np.zeros(3), 0.0, 1.0, 10)
    with pytest.raises(DimensionError):
        implicit_midpoint(sys, np.zeros(2), 0.0, 1.0, 0)
    with pytest.raises(DimensionError):
        implicit_midpoint(sys, np.zeros(2), 1.0, 0.5, 10)


def test_fd_jacobian():
    f = lambda t, x: np.array([x[0] ** 2 + x[1], np.sin(x[0])])
    x = np.array([0.7, -0.2])
    J = _fd_jacobian(f, 0.0, x)
    oracle = np.array([[2 * 0.7, 1.0], [np.cos(0.7), 0.0]])
    assert np.linalg.norm(J - oracle) < 1e-6


def test_oscillator_against_exact():
    sys = oscillator()
    x0 = np.array([1.0, 0.0])
    traj = implicit_midpoint(sys, x0, 0.0, 2 * np.pi, 2000)
    exact = np.vstack([np.cos(traj.times), -np.sin(traj.times)])
    assert np.max(np.abs(traj.states - exact)) < 1e-5


def test_second_order_convergence():
    sys = oscillator()
    x0 = np.array([1.0, 0.0])
    T = 2 * np.pi

    def err(K):
        traj = implicit_midpoint(sys, x0, 0.0, T, K)
        return abs(traj.states[0, -1] - 1.0) + abs(traj.states[1, -1])

    ratio = err(100) / err(200)
    assert 3.5 < ratio < 4.5


def test_energy_conservation_quadratic_h():
    # implicit midpoint conserves quadratic invariants exactly (up to roundoff)
    sys = oscillator(omega=2.0)
    x0 = np.array([0.3, -1.1])
    traj = implicit_midpoint(sys, x0, 0.0, 50.0, 5000)
    H = sys.hamiltonian
    vals = [H(traj.states[:, k]) for k in range(0, 5001, 500)]
    assert max(abs(v - vals[0]) for v in vals) < 1e-12


def test_linear_fast_path_matches_newton_path():
    """The wave's step hook (its Schur matrix factored once per solve) against
    the same system solved by Newton on its dense Jacobian."""
    fast = wave_system(wave_build(12, 0.5))
    slow = dataclasses.replace(fast, step=None)
    x0 = wave_initial(12, 0.5)
    a = implicit_midpoint(fast, x0, 0.0, 1.0, 50)
    b = implicit_midpoint(slow, x0, 0.0, 1.0, 50, tol=1e-14)
    assert np.linalg.norm(a.states - b.states) <= 1e-12 * np.linalg.norm(b.states)


@pytest.mark.parametrize("K", [1, 3])
def test_only_the_first_step_starts_from_explicit_euler(K):
    """Step 0 starts from x0 + h f(t0, x0); later steps extrapolate 2 x_k - x_{k-1},
    so the field is called outside the Newton hook once per solve.  K = 1 runs
    on the Euler start alone and lands on the closed-form midpoint step."""
    A = np.array([[0.0, 1.0], [-4.0, 0.0]])
    starts = []

    def field(t, x):
        starts.append(t)
        return A @ x

    def newton(t, x, h):
        M = np.eye(2) - 0.5 * h * A
        return A @ x, lambda r: np.linalg.solve(M, r)

    x0 = np.array([0.3, -1.1])
    traj = implicit_midpoint(OdeSystem(2, field, newton=newton), x0, 0.0, 0.6, K)
    assert starts == [0.0]
    h = 0.6 / K
    step = np.linalg.solve(np.eye(2) - 0.5 * h * A, (np.eye(2) + 0.5 * h * A) @ x0)
    assert np.linalg.norm(traj.states[:, 1] - step) <= 1e-12 * np.linalg.norm(step)


def test_analytic_vs_fd_jacobian_paths():
    field = lambda t, x: np.array([x[1], -np.sin(x[0])])
    jac = lambda t, x: np.array([[0.0, 1.0], [-np.cos(x[0]), 0.0]])
    x0 = np.array([2.0, 0.0])
    analytic = dense_newton(lambda t, x: (field(t, x), jac(t, x)))
    a = implicit_midpoint(OdeSystem(2, field, newton=analytic), x0, 0.0, 5.0, 200)
    b = implicit_midpoint(OdeSystem(2, field), x0, 0.0, 5.0, 200)
    assert np.max(np.abs(a.states - b.states)) < 1e-9


def test_nonautonomous_field():
    # x' = t has exact solution x0 + t^2/2; midpoint integrates it exactly
    sys = OdeSystem(1, lambda t, x: np.array([t]))
    traj = implicit_midpoint(sys, np.array([1.0]), 0.0, 2.0, 10)
    assert abs(traj.states[0, -1] - 3.0) < 1e-12


def test_newton_failure_raises_with_step_index():
    # an absurd step size on a stiff blow-up problem defeats Newton
    sys = OdeSystem(1, lambda t, x: x ** 2)
    with pytest.raises(IntegrationFailureError) as exc:
        implicit_midpoint(sys, np.array([1.0]), 0.0, 10.0, 2)
    assert exc.value.step_index >= 0


def test_newton_solve_hook_replaces_dense_solve(monkeypatch):
    field = lambda t, x: np.array([x[1], -np.sin(x[0])])
    jac = lambda t, x: np.array([[0.0, 1.0], [-np.cos(x[0]), 0.0]])
    calls = []

    def newton(t, x, h):
        calls.append(t)
        M = np.eye(2) - 0.5 * h * jac(t, x)
        return field(t, x), lambda r: np.linalg.solve(M, r)

    def no_jacobian(f, t, x):
        raise AssertionError("the hook must replace the Jacobian")

    x0 = np.array([2.0, 0.0])
    dense = implicit_midpoint(OdeSystem(2, field, newton=dense_newton(
        lambda t, x: (field(t, x), jac(t, x)))), x0, 0.0, 5.0, 200)
    monkeypatch.setattr(integrators, "_fd_jacobian", no_jacobian)
    hooked = implicit_midpoint(OdeSystem(2, field, newton=newton), x0, 0.0, 5.0, 200)
    assert len(calls) >= 200
    assert np.array_equal(hooked.states, dense.states)


def test_singular_newton_matrix_raises_integration_failure():
    # f = (2/h) x makes I - h/2 Df exactly zero at the step size h = 1/2
    h = 0.5
    field = lambda t, x: 2.0 / h * x
    newton = dense_newton(lambda t, x: (field(t, x), np.array([[2.0 / h]])))
    sys = OdeSystem(1, field, newton=newton)
    with pytest.raises(IntegrationFailureError, match="singular Newton matrix") as exc:
        implicit_midpoint(sys, np.array([1.0]), 0.0, 2 * h, 2)
    assert exc.value.step_index == 0


def test_singular_schur_factor_raises_integration_failure(monkeypatch):
    """The step hook factors I + h^2/4 S when the solve starts: an exactly zero
    pivot (dgttrf's info > 0) is an IntegrationFailureError at step 0, on the
    bundled LAPACK and on scipy's fallback alike."""
    model = SecondOrder(N=3, diag=-4.0, off=0.0, h=1.0)   # I + S/4 = 0 at h = 1
    sys = OdeSystem(model.dim, model.field, step=model.midpoint_step)
    for bound in (blas._LAPACK, {}):
        monkeypatch.setattr(blas, "_LAPACK", bound)
        with pytest.raises(IntegrationFailureError, match="singular step matrix at step 0") as exc:
            implicit_midpoint(sys, np.ones(6), 0.0, 2.0, 2)
        assert exc.value.step_index == 0


def test_singular_banded_hook_raises_integration_failure():
    def newton(t, x, h):
        return x, lambda r: scipy.linalg.solve_banded((1, 1), np.zeros((3, 2)), r,
                                                      check_finite=False)

    sys = OdeSystem(2, lambda t, x: x, newton=newton)
    with pytest.raises(IntegrationFailureError, match="singular Newton matrix") as exc:
        implicit_midpoint(sys, np.ones(2), 0.0, 1.0, 4)
    assert exc.value.step_index == 0


def test_newton_stops_at_a_non_finite_iterate(monkeypatch):
    """A sine-Gordon FOM whose x0 holds one NaN fails at its first Newton
    iterate, naming the non-finite state, not after MAX_NEWTON Schur solves."""
    model = sg_build(40, 0.35, -10.0, 10.0, SgKind.SingleSoliton)
    sys, x0 = sg_system(model), sg_initial(model)
    x0[5] = np.nan
    calls, solver = [], blas.tridiagonal_solver

    def counted(n):
        solve = solver(n)
        return lambda *args: calls.append(args) or solve(*args)

    monkeypatch.setattr(blas, "tridiagonal_solver", counted)
    with pytest.raises(IntegrationFailureError, match="non-finite state at step 0") as exc:
        implicit_midpoint(sys, x0, 0.0, 1.0, 20)
    assert exc.value.step_index == 0
    assert len(calls) == 1


def test_kick_drift_kick_names_the_non_finite_step():
    """A force that turns NaN at t = 0.4 fails the step that ends there (k = 3),
    through the step hook of implicit_midpoint."""
    force = lambda t, q: np.full(1, np.nan) if t > 0.35 else -q
    step = lambda t0, h, K, tol: kick_drift_kick(free_drift(np.zeros(1), h),
                                                 lambda k, q: force(t0 + k * h, q), h)
    sys = OdeSystem(2, lambda t, x: x, step=step)
    with pytest.raises(IntegrationFailureError, match="non-finite state at step 3") as exc:
        implicit_midpoint(sys, np.array([1.0, 0.0]), 0.0, 1.0, 10)
    assert exc.value.step_index == 3


def test_wave_fom_non_finite_initial_state_raises():
    """A wave FOM whose x0 holds one NaN is an IntegrationFailureError at step 0
    on its midpoint step hook, not a trajectory without a finite column."""
    x0 = wave_initial(12, 0.5)
    x0[3] = np.nan
    with pytest.raises(IntegrationFailureError, match="non-finite state at step 0") as exc:
        implicit_midpoint(wave_system(wave_build(12, 0.5)), x0, 0.0, 1.0, 20)
    assert exc.value.step_index == 0


def test_newton_midpoint_is_the_midpoint_rule():
    """newton_midpoint on two forced pendulums q'' = -sin q + cos t, Newton on the
    midpoint q with the exact Schur matrix 1 + tau^2/4 cos y, is the dense
    finite-difference Newton midpoint of the same field to 1e-12 relative."""
    def field(t, x):
        return np.concatenate([x[2:], np.cos(t) - np.sin(x[:2])])

    def step(t0, tau, K, tol):
        w = 0.25 * tau ** 2
        return integrators.newton_midpoint(
            tau, tol, lambda k, p: 0.5 * tau * p + w * np.cos(t0 + (k + 0.5) * tau),
            lambda y: w * np.sin(y), lambda y, r: r / (1.0 + w * np.cos(y)))

    x0 = np.array([0.3, -1.2, 0.5, 0.1])
    got = implicit_midpoint(OdeSystem(4, field, step=step), x0, 0.5, 4.5, 40).states
    want = implicit_midpoint(OdeSystem(4, field), x0, 0.5, 4.5, 40).states
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
