"""Implicit midpoint: exact-solution oracles, order, invariants, fast path."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from sympmor.errors import DimensionError, IntegrationFailureError
from sympmor.integrators import OdeSystem, Trajectory, _fd_jacobian, implicit_midpoint


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
    rng = np.random.default_rng(0)
    S = rng.standard_normal((4, 4))
    A = S - S.T  # skew generator, stable rotations
    x0 = rng.standard_normal(4)
    fast = OdeSystem(dim=4, vector_field=lambda t, x: A @ x, linear_matrix=A)
    slow = OdeSystem(dim=4, vector_field=lambda t, x: A @ x,
                     jacobian=lambda t, x, V: A @ V)
    a = implicit_midpoint(fast, x0, 0.0, 1.0, 50)
    b = implicit_midpoint(slow, x0, 0.0, 1.0, 50, tol=1e-14)
    assert np.max(np.abs(a.states - b.states)) < 1e-10
    # a sparse A takes the same factor-once path as the dense one
    sparse = OdeSystem(dim=4, vector_field=fast.vector_field,
                       linear_matrix=scipy.sparse.csr_matrix(A))
    assert np.array_equal(implicit_midpoint(sparse, x0, 0.0, 1.0, 50).states, a.states)


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
    jac = lambda t, x, V: np.array([[0.0, 1.0], [-np.cos(x[0]), 0.0]]) @ V
    x0 = np.array([2.0, 0.0])
    a = implicit_midpoint(OdeSystem(2, field, jacobian=jac), x0, 0.0, 5.0, 200)
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


def test_newton_solve_hook_replaces_dense_solve():
    field = lambda t, x: np.array([x[1], -np.sin(x[0])])
    jac = lambda t, x, V: np.array([[0.0, 1.0], [-np.cos(x[0]), 0.0]]) @ V
    calls = []

    def newton(t, x, h):
        calls.append(t)
        M = np.eye(2) - 0.5 * h * jac(t, x, np.eye(2))
        return field(t, x), lambda r: np.linalg.solve(M, r)

    def no_jacobian(t, x, V):
        raise AssertionError("the hook must replace the Jacobian")

    x0 = np.array([2.0, 0.0])
    hooked = implicit_midpoint(OdeSystem(2, field, jacobian=no_jacobian, newton=newton),
                               x0, 0.0, 5.0, 200)
    dense = implicit_midpoint(OdeSystem(2, field, jacobian=jac), x0, 0.0, 5.0, 200)
    assert len(calls) >= 200
    assert np.array_equal(hooked.states, dense.states)


def test_singular_newton_matrix_raises_integration_failure():
    # f = (2/h) x makes I - h/2 Df exactly zero at the step size h = 1/2
    h = 0.5
    sys = OdeSystem(1, lambda t, x: 2.0 / h * x,
                    jacobian=lambda t, x, V: np.array([[2.0 / h]]) @ V)
    with pytest.raises(IntegrationFailureError, match="singular Newton matrix") as exc:
        implicit_midpoint(sys, np.array([1.0]), 0.0, 2 * h, 2)
    assert exc.value.step_index == 0


def test_singular_linear_matrix_raises_integration_failure():
    # the factor-once path: I - h/2 A is exactly singular at h = 1/2, dense or sparse
    h = 0.5
    A = np.array([[2.0 / h, 0.0], [0.0, 1.0]])
    for linear_matrix in (A[:1, :1], A, scipy.sparse.csc_matrix(A)):
        dim = linear_matrix.shape[0]
        sys = OdeSystem(dim, lambda t, x: linear_matrix @ x, linear_matrix=linear_matrix)
        with pytest.raises(IntegrationFailureError, match="singular Newton matrix at step 0") as exc:
            implicit_midpoint(sys, np.ones(dim), 0.0, 2 * h, 2)
        assert exc.value.step_index == 0


def test_singular_banded_hook_raises_integration_failure():
    def newton(t, x, h):
        return x, lambda r: scipy.linalg.solve_banded((1, 1), np.zeros((3, 2)), r,
                                                      check_finite=False)

    sys = OdeSystem(2, lambda t, x: x, newton=newton)
    with pytest.raises(IntegrationFailureError, match="singular Newton matrix") as exc:
        implicit_midpoint(sys, np.ones(2), 0.0, 1.0, 4)
    assert exc.value.step_index == 0
