"""Hamiltonian testbeds: matrix stencils, initial data, exact solutions,
conservation structure."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from sympmor import blas, models
from sympmor.errors import DimensionError, IntegrationFailureError
from sympmor.integrators import OdeSystem, dense_newton, implicit_midpoint
from sympmor.models import (
    SecondOrder,
    SgKind,
    _bump,
    _bump_prime,
    sg_build,
    sg_exact,
    sg_initial,
    sg_jacobian,
    sg_system,
    wave_build,
    wave_initial,
    wave_system,
    wave_vector_field,
)


def sg_residual_check(bc, nu, t_grid, xi_grid):
    """Max finite-difference residual of u_tt - u_xx + sin(u) for the exact solution.

    Used as a test oracle; the residual is O(tau^2 + h^2) for the interior of
    the grids.
    """
    U = np.empty((len(t_grid), len(xi_grid)))
    for i, t in enumerate(t_grid):
        U[i] = sg_exact(bc, nu, t, xi_grid)[0]
    tau = t_grid[1] - t_grid[0]
    h = xi_grid[1] - xi_grid[0]
    utt = (U[2:, 1:-1] - 2 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / tau ** 2
    uxx = (U[1:-1, 2:] - 2 * U[1:-1, 1:-1] + U[1:-1, :-2]) / h ** 2
    res = utt - uxx + np.sin(U[1:-1, 1:-1])
    return float(np.max(np.abs(res)))


def dense_laplacian(N, h):
    """tridiag(1, -2, 1)/h^2 as a dense N x N matrix, built independently of the model."""
    return (np.diag(np.full(N, -2.0)) + np.diag(np.ones(N - 1), 1)
            + np.diag(np.ones(N - 1), -1)) / h ** 2


def dense_wave_matrix(N, mu):
    """The wave's dense A = [[0, I], [-(K + K^T)/h, 0]], with the edge stencil K
    of weight mu^2/h built entry by entry, independently of the model."""
    m, h = N + 2, 1.0 / (N + 1)
    K = np.diag(np.r_[0.25, np.full(N, 0.75), 0.25])
    K += np.diag(np.r_[0.0, np.full(N, -0.5)], 1) + np.diag(np.r_[np.full(N, -0.5), 0.0], -1)
    K *= mu ** 2 / h
    return np.block([[np.zeros((m, m)), np.eye(m)], [-(K + K.T) / h, np.zeros((m, m))]])


def test_wave_build_stencil():
    model = wave_build(3, mu=2.0)  # m = 5, h = 1/4
    # half of S h^2 / mu^2 is sym(K) for the edge stencil K (weight stripped)
    half = 0.5 / model.mu ** 2
    assert np.allclose(half * model.diag, [0.25, 0.75, 0.75, 0.75, 0.25])
    # K[0, 1] = K[4, 3] = 0 next to K[1, 0] = K[3, 4] = -0.5; K[1, 2] = K[2, 1] = -0.5
    assert np.allclose(half * model.off, [0.5 * (0.0 - 0.5), -0.5, -0.5, 0.5 * (-0.5 + 0.0)])
    assert model.potential is None
    assert model.h == pytest.approx(0.25)
    assert model.dim == 10
    assert np.allclose(model.xi, np.linspace(-0.5, 0.5, 5))
    with pytest.raises(DimensionError):
        wave_build(0, 1.0)
    with pytest.raises(DimensionError):
        wave_build(3, -1.0)


def test_wave_field_matches_linear_matrix():
    model = wave_build(6, mu=0.3)
    field = wave_vector_field(model)
    A = dense_wave_matrix(6, 0.3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(model.dim)
        assert np.linalg.norm(field(0.0, x) - A @ x) < 1e-12


@pytest.mark.parametrize("N", [1, 2, 3, 32])
def test_wave_bands_match_dense_matrix(N):
    """Stencil, field, product Jacobian and the Jacobian at V = I all equal the dense A."""
    model = wave_build(N, mu=0.7)
    sys = wave_system(model)
    A = dense_wave_matrix(N, 0.7)
    m = N + 2
    scale = np.linalg.norm(A)
    I = np.eye(model.dim)
    assert np.linalg.norm(model.jacobian(0.0, I[:, 0], I) - A) <= 1e-15 * scale
    V = np.random.default_rng(N).standard_normal((model.dim, 3))
    tol = 1e-14 * scale * np.linalg.norm(V)
    assert np.linalg.norm(model.S(V[:m]) + A[m:, :m] @ V[:m]) <= tol
    assert np.linalg.norm(model.jacobian(0.0, V[:, 0], V) - A @ V) <= tol
    assert np.linalg.norm(sys.vector_field(0.0, V[:, 0]) - A @ V[:, 0]) <= tol


@pytest.mark.parametrize("N", [1, 2, 3, 32])
def test_wave_fom_matches_dense_lu_reference(N):
    """The factor-once FOM against a dense cached LU of I - h/2 A."""
    model = wave_build(N, mu=0.25)
    x0 = wave_initial(N, 0.25)
    K, h = 100, 0.01
    A = dense_wave_matrix(N, 0.25)
    I = np.eye(model.dim)
    lu = scipy.linalg.lu_factor(I - 0.5 * h * A)
    ref = np.empty((model.dim, K + 1))
    ref[:, 0] = x0
    for k in range(K):
        ref[:, k + 1] = scipy.linalg.lu_solve(lu, (I + 0.5 * h * A) @ ref[:, k])
    traj = implicit_midpoint(wave_system(model), x0, 0.0, 1.0, K)
    assert np.linalg.norm(traj.states - ref) <= 1e-12 * np.linalg.norm(ref)


def test_wave_fom_scales_to_large_n():
    """At N = 100 000 a dense A would need 160 GB; the sparse one takes two steps."""
    N = 100_000
    model = wave_build(N, mu=0.25)
    traj = implicit_midpoint(wave_system(model), wave_initial(N, 0.25), 0.0, 1e-3, 2)
    assert np.all(np.isfinite(traj.states))
    assert np.linalg.norm(traj.states[:, -1]) > 0.0


def test_wave_hamiltonian_hand_value():
    model = wave_build(1, mu=1.0)  # m = 3, h = 1/2
    H = wave_system(model).hamiltonian
    q = np.array([1.0, 0.0, 0.0])
    p = np.array([2.0, 0.0, 0.0])
    # H = q^T K q + h/2 p^T p ; K[0,0] = mu^2/h * 1/4 = 1/2
    assert H(np.concatenate([q, p])) == pytest.approx(0.5 + 0.25 * 4.0)


def test_wave_field_is_hamiltonian_gradient():
    # f = J_{2m} grad H with H = q^T K q + h/2 p^T p only when the FD
    # gradient matches: check f against the J grad of the symmetrized energy
    model = wave_build(5, mu=0.4)
    field = wave_vector_field(model)
    H = wave_system(model).hamiltonian
    m = model.N + 2
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2 * m)
    eps = 1e-6
    grad = np.empty(2 * m)
    for j in range(2 * m):
        e = np.zeros(2 * m)
        e[j] = eps
        grad[j] = (H(x + e) - H(x - e)) / (2 * eps)
    # scale by 1/h (the discrete pairing weight), then rotate by J
    f_oracle = np.concatenate([grad[m:], -grad[:m]]) / model.h
    assert np.linalg.norm(field(0.0, x) - f_oracle) < 1e-6


def test_bump_shape():
    assert _bump(np.array([0.0]))[0] == 1.0
    assert _bump(np.array([2.0]))[0] == 0.0
    assert _bump(np.array([3.0]))[0] == 0.0
    # continuity and C^1 joins at s = 1 and s = 2
    for s0 in (1.0, 2.0):
        left = _bump(np.array([s0 - 1e-9]))[0]
        right = _bump(np.array([s0 + 1e-9]))[0]
        assert abs(left - right) < 1e-8
        lp = _bump_prime(np.array([s0 - 1e-9]))[0]
        rp = _bump_prime(np.array([s0 + 1e-9]))[0]
        assert abs(lp - rp) < 1e-7
    # derivative consistency
    s = np.linspace(0.05, 1.95, 20)
    eps = 1e-7
    fd = (_bump(s + eps) - _bump(s - eps)) / (2 * eps)
    assert np.max(np.abs(fd - _bump_prime(s))) < 1e-6


def test_wave_initial_profile():
    x0 = wave_initial(6, mu=0.5)
    m = 8
    q0, p0 = x0[:m], x0[m:]
    xi = np.linspace(-0.5, 0.5, m)
    assert q0[0] == pytest.approx(1.0)  # bump peak at the left boundary
    assert np.all(q0 >= 0.0)
    # support ends where 28|xi + 1/2| > 2, i.e. xi > -0.5 + 1/14
    assert np.all(q0[xi > -0.5 + 2 / 28 + 1e-12] == 0.0)
    assert np.all(p0[xi > -0.5 + 2 / 28 + 1e-12] == 0.0)


def test_wave_hamiltonian_drift_small_mu():
    model = wave_build(16, mu=1.0 / 6.0)
    sys = wave_system(model)
    x0 = wave_initial(16, model.mu)
    traj = implicit_midpoint(sys, x0, 0.0, 1.0, 100)
    H = sys.hamiltonian
    h0 = H(x0)
    drift = max(abs(H(traj.states[:, k]) - h0) for k in range(101))
    assert drift < 1e-10


def test_sg_build():
    model = sg_build(4, nu=0.5, a=-1.0, b=1.0, bc=SgKind.SingleSoliton)
    assert model.h == pytest.approx(0.4)
    # the stencil applied to the unit vectors gives the columns of S = -L
    L = -model.S(np.eye(4)) * model.h ** 2
    assert np.allclose(np.diag(L), -2.0)
    assert L[0, 1] == 1.0 and L[1, 0] == 1.0 and L[0, 2] == 0.0
    assert np.array_equal(L, L.T) and np.count_nonzero(L) == 10
    assert model.dim == 8
    assert np.allclose(model.xi, [-0.6, -0.2, 0.2, 0.6])
    with pytest.raises(DimensionError):
        sg_build(4, nu=1.0, a=0.0, b=1.0, bc=SgKind.SingleSoliton)
    with pytest.raises(DimensionError):
        sg_build(4, nu=0.5, a=1.0, b=0.0, bc=SgKind.SingleSoliton)


@pytest.mark.parametrize("bc", list(SgKind))
def test_sg_exact_satisfies_pde(bc):
    # finite-difference residual of u_tt - u_xx + sin u decays at O(h^2)
    t = np.linspace(0.0, 1.0, 401)
    xi = np.linspace(-5.0, 5.0, 801)
    res = sg_residual_check(bc, 0.5, t, xi)
    assert res < 5e-3
    t2 = np.linspace(0.0, 1.0, 801)
    xi2 = np.linspace(-5.0, 5.0, 1601)
    res2 = sg_residual_check(bc, 0.5, t2, xi2)
    assert res2 < 0.3 * res


def test_sg_exact_ut_consistent():
    for bc in SgKind:
        xi = np.linspace(-3.0, 3.0, 7)
        eps = 1e-6
        up = sg_exact(bc, 0.4, 0.3 + eps, xi)[0]
        dn = sg_exact(bc, 0.4, 0.3 - eps, xi)[0]
        fd = (up - dn) / (2 * eps)
        u_t = sg_exact(bc, 0.4, 0.3, xi)[1]
        assert np.max(np.abs(fd - u_t)) < 1e-8


def test_sg_jacobian_matches_fd():
    model = sg_build(6, nu=0.5, a=-3.0, b=3.0, bc=SgKind.SingleSoliton)
    sys = sg_system(model)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(model.dim)
    J = sg_jacobian(model)(0.2, x, np.eye(model.dim))
    eps = 1e-6
    fd = np.empty_like(J)
    for j in range(model.dim):
        e = np.zeros(model.dim)
        e[j] = eps
        fd[:, j] = (sys.vector_field(0.2, x + e) - sys.vector_field(0.2, x - e)) / (2 * eps)
    assert np.linalg.norm(J - fd) < 1e-6


def test_sg_jacobian_lower_block_is_dense_oracle():
    for N in (1, 2, 9):
        model = sg_build(N, nu=0.3, a=-4.0, b=4.0, bc=SgKind.Doublets)
        x = 2.0 * np.random.default_rng(N).standard_normal(model.dim)
        J = sg_jacobian(model)(0.1, x, np.eye(model.dim))
        assert np.array_equal(J[N:, :N], dense_laplacian(N, model.h) - np.diag(np.cos(x[:N])))
        assert np.array_equal(J[:N, N:], np.eye(N))
        assert not J[:N, :N].any() and not J[N:, N:].any()


@pytest.mark.parametrize("N", [1, 2, 9])
def test_sg_jacobian_product_matches_dense_df(N):
    model = sg_build(N, nu=0.3, a=-4.0, b=4.0, bc=SgKind.SingleSoliton)
    rng = np.random.default_rng(30 + N)
    x = 2.0 * rng.standard_normal(model.dim)
    Df = np.block([[np.zeros((N, N)), np.eye(N)],
                   [dense_laplacian(N, model.h) - np.diag(np.cos(x[:N])), np.zeros((N, N))]])
    n = (N + 1) // 2
    for m in (1, 2 * n, 2 * N):
        V = rng.standard_normal((model.dim, m))
        JV = sg_jacobian(model)(0.4, x, V)
        assert JV.shape == (model.dim, m)
        assert np.linalg.norm(JV - Df @ V) <= 1e-14 * np.linalg.norm(Df) * np.linalg.norm(V)


TESTBEDS = {"wave": lambda N: wave_build(N, 0.4),
            **{f"sg_{kind.value}": (lambda N, kind=kind: sg_build(N, 0.3, -4.0, 4.0, kind))
               for kind in SgKind}}


@pytest.mark.parametrize("N", [1, 3, 32])
@pytest.mark.parametrize("testbed", list(TESTBEDS))
def test_linearization_is_field_and_jacobian_bitwise(testbed, N):
    """The ROM reads the FOM through its split (S, V', V'' and the end forcing b)
    and never calls the field: f(t, x) = [p; -S q - (V'(q) - b(t))] and
    Df(x) V = [V_p; -S V_q - V''(q) V_q], built here from the split's parts,
    equal `field` and `jacobian` bitwise."""
    model = TESTBEDS[testbed](N)
    d = model.d
    rng = np.random.default_rng(40 + N)
    for m in (1, 2, 9):
        x, V = 2.0 * rng.standard_normal(model.dim), rng.standard_normal((model.dim, m))
        q, p = x[:d], x[d:]
        force, DfV = model.S(q, -1.0), model.S(V[:d], -1.0)
        if model.potential is not None:
            applied = model.potential[0](q)
            b0, b1 = model.ends(0.7)
            applied[0] -= b0
            applied[-1] -= b1
            force -= applied
            DfV -= model.potential[1](q)[:, None] * V[:d]
        assert np.array_equal(model.field(0.7, x), np.concatenate([p, force]))
        assert np.array_equal(model.jacobian(0.7, x, V), np.concatenate([V[d:], DfV]))
    with pytest.raises(DimensionError):
        model.field(0.7, np.zeros(model.dim + 1))


def test_sg_integration_tracks_exact_solution():
    model = sg_build(64, nu=0.5, a=-10.0, b=10.0, bc=SgKind.SingleSoliton)
    sys = sg_system(model)
    traj = implicit_midpoint(sys, sg_initial(model), 0.0, 1.0, 100)
    u_exact = sg_exact(model.bc, model.nu, 1.0, model.xi)[0]
    # relative L2 error of the final displacement, O(h^2 + tau^2)
    err = np.linalg.norm(traj.states[:model.N, -1] - u_exact) / np.linalg.norm(u_exact)
    assert err < 5e-3


def test_sg_hamiltonian_nearly_conserved():
    model = sg_build(32, nu=0.5, a=-10.0, b=10.0, bc=SgKind.Doublets)
    sys = sg_system(model)
    traj = implicit_midpoint(sys, sg_initial(model), 0.0, 1.0, 200)
    H = model.hamiltonian
    vals = [H(traj.states[:, k], t=traj.times[k]) for k in range(0, 201, 20)]
    spread = max(vals) - min(vals)
    assert spread < 1e-3 * max(1.0, abs(vals[0]))


def test_sg_boundary_values_match_single_point_calls():
    rng = np.random.default_rng(5)
    for bc in SgKind:
        for _ in range(50):
            nu, t = rng.uniform(-0.95, 0.95), rng.uniform(-3.0, 3.0)
            model = sg_build(4, nu, a=-10.0, b=10.0, bc=bc)
            u, u_t = model.boundary(t)
            single = [sg_exact(bc, nu, t, np.array([end])) for end in (model.a, model.b)]
            assert np.allclose(u, [s[0][0] for s in single], rtol=1e-15, atol=0.0)
            assert np.allclose(u_t, [s[1][0] for s in single], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("K", [20, 50])
@pytest.mark.parametrize("bc", list(SgKind))
def test_sg_ends_table_matches_single_time_calls(bc, K):
    """ends at an array of times is one table whose rows are ends(t) at each
    time, bitwise, on the step grids t0 + h arange(K + 1) of a solve and on
    the midpoints t0 + (k + 1/2) h that the FOM step reads."""
    rng = np.random.default_rng(K)
    for nu in np.linspace(-0.9, 0.9, 7):
        t0, t1 = sorted(rng.uniform(-5.0, 20.0, 2))
        model, h = sg_build(64, nu, a=-10.0, b=10.0, bc=bc), (t1 - t0) / K
        table = model.ends(t0 + h * np.arange(K + 1))
        assert table.shape == (K + 1, 2)
        assert np.array_equal(table, [model.ends(t0 + k * h) for k in range(K + 1)])
        midpoints = model.ends(t0 + (np.arange(K) + 0.5) * h)
        assert np.array_equal(midpoints, [model.ends(t0 + (k + 0.5) * h) for k in range(K)])


@pytest.mark.parametrize("bc", list(SgKind))
def test_sg_fom_evaluates_the_closed_form_boundary_once_per_time(bc, monkeypatch):
    """A FOM solve reads b(t) at its K step midpoints from one table, one
    closed-form call per solve (a call per midpoint, 50 here, without it)."""
    model, K = sg_build(200, 0.35, a=-10.0, b=10.0, bc=bc), 50
    x0 = sg_initial(model)
    calls = []

    def counting(bc, nu, t, xi):
        calls.append(t)
        return sg_exact(bc, nu, t, xi)

    monkeypatch.setattr(models, "sg_exact", counting)
    implicit_midpoint(sg_system(model), x0, 0.0, 1.0, K)
    assert len(calls) == 1
    assert np.array_equal(calls[0][:, 0], 0.0 + (np.arange(K) + 0.5) * (1.0 / K))


def test_sg_hamiltonian_boundary_velocity_term():
    # the boundary velocities enter H as h/4 (phi_t^2 + psi_t^2) with the
    # closed-form u_t; a central difference in t misses by 1e-13 to 1e-12 here
    for bc in SgKind:
        model = sg_build(5, nu=0.6, a=-1.5, b=1.5, bc=bc)
        x = np.random.default_rng(2).standard_normal(model.dim)
        q, p, h, t = x[:5], x[5:], model.h, 0.7
        (phi, psi), (phi_t, psi_t) = sg_exact(bc, 0.6, t, np.array([model.a, model.b]))
        expected = (-0.5 * h * q @ dense_laplacian(5, h) @ q + 0.5 * h * p @ p
                    + 0.5 * h * (-2 * q[0] * phi + phi ** 2 - 2 * q[-1] * psi + psi ** 2) / h ** 2
                    + 0.25 * h * (phi_t ** 2 + psi_t ** 2)
                    + 0.5 * h * ((1 - np.cos(phi)) + (1 - np.cos(psi)))
                    + h * np.sum(1 - np.cos(q)))
        assert abs(phi_t) > 0.1 or abs(psi_t) > 0.1
        assert model.hamiltonian(x, t=t) == pytest.approx(expected, rel=1e-14)


def _counted_schur_solves(monkeypatch):
    """A list that records (off, main, rhs, solution) of every tridiagonal solve
    made from here on."""
    calls, solver = [], blas.tridiagonal_solver

    def counted(n):
        solve = solver(n)

        def recorded(off, main, rhs):
            x = solve(off, main, rhs).copy()
            calls.append((off, main.copy(), rhs.copy(), x))
            return x

        return recorded

    monkeypatch.setattr(blas, "tridiagonal_solver", counted)
    return calls


def _per_step(sys, calls):
    """sys whose step records, per step, the solves in `calls` it made."""
    per_step = []

    def step(*args):
        advance = sys.step(*args)

        def counted(x):
            before = len(calls)
            x = advance(x)
            per_step.append(len(calls) - before)
            return x

        return counted

    return dataclasses.replace(sys, step=step), per_step


@pytest.mark.parametrize("N", [1, 2, 7, 64])
def test_sg_newton_solve_matches_dense_solve(N, monkeypatch):
    """Each Newton iterate of the FOM step solves, by dgtsv, the Schur system
    (I + tau^2/4 (S + diag cos y)) dz = G of its midpoint y, with
    G = y - q_k - tau/2 p_k - tau^2/4 F(t_mid, y): checked against the matrix and
    residual built here at each iterate's y (recorded where the step asks for
    V'') and a dense solve."""
    model = sg_build(N, nu=0.4, a=-5.0, b=5.0, bc=SgKind.SingleSoliton)
    calls, midpoints = _counted_schur_solves(monkeypatch), []
    model.potential = (np.sin, lambda y: midpoints.append(y.copy()) or np.cos(y))
    L = dense_laplacian(N, model.h)
    for tau in (1e-3, 0.02, 0.5):
        del calls[:], midpoints[:]
        sys, per_step = _per_step(sg_system(model), calls)
        X = implicit_midpoint(sys, sg_initial(model), 0.0, 3 * tau, 3).states
        steps = np.repeat(np.arange(3), per_step)
        assert len(calls) == len(midpoints) == len(steps)
        for k, (off, main, rhs, dz), y in zip(steps, calls, midpoints):
            M = np.eye(N) + 0.25 * tau ** 2 * (np.diag(np.cos(y)) - L)
            assert np.allclose(main, np.diag(M), rtol=1e-14, atol=0.0)
            assert np.allclose(off, np.diag(M, 1), rtol=1e-14, atol=0.0)
            dense = np.linalg.solve(M, rhs)
            assert np.linalg.norm(dz - dense) <= 1e-12 * np.linalg.norm(dense)
            q, p = X[:N, k], X[N:, k]
            F = model.field((k + 0.5) * tau, np.concatenate([y, p]))[N:]
            G = y - q - 0.5 * tau * p - 0.25 * tau ** 2 * F
            assert np.linalg.norm(rhs - G) <= 1e-12 * max(1.0, np.linalg.norm(G))


@pytest.mark.parametrize("nu", [0.1, 0.35, 0.6])
def test_sg_banded_fom_matches_dense_fom(nu, monkeypatch):
    """The FOM step (Newton on the midpoint q, one dgtsv per iterate) agrees to
    1e-12 with the full-space Newton midpoint on a dense I - tau/2 Df from
    model.jacobian, and takes no more iterates at any step."""
    model = sg_build(200, nu, a=-10.0, b=10.0, bc=SgKind.SingleSoliton)
    calls = _counted_schur_solves(monkeypatch)
    fom, fom_steps = _per_step(sg_system(model), calls)
    dense_steps = np.zeros(50, dtype=int)

    def linearize(t, x):
        dense_steps[int(t / 0.02)] += 1     # t_mid = (k + 1/2) tau, tau = 1/50
        return model.field(t, x), model.jacobian(t, x, np.eye(model.dim))

    dense = dataclasses.replace(fom, step=None, newton=dense_newton(linearize))
    a = implicit_midpoint(fom, sg_initial(model), 0.0, 1.0, 50)
    b = implicit_midpoint(dense, sg_initial(model), 0.0, 1.0, 50)
    assert np.linalg.norm(a.states - b.states) <= 1e-12 * np.linalg.norm(b.states)
    assert len(fom_steps) == 50
    assert np.all(np.array(fom_steps) <= dense_steps), (fom_steps, dense_steps)


def test_banded_newton_singular_schur_complement():
    """The FOM step's tridiagonal Schur matrix I + tau^2/4 (S + diag V''(y)) at
    tau = 1 with S = 0 and a V'' of -4 beyond y = 1: from q = 0, p = 1 the
    midpoint reaches y = 1.5 at step 1, where the matrix is exactly zero, which
    dgtsv reports and the solve names as a singular Newton matrix at step 1."""
    class Flat(SecondOrder):
        potential = (np.zeros_like, lambda y: np.where(y > 1.0, -4.0, 0.0))

        def ends(self, t):
            return np.zeros(np.shape(t) + (2,))

    model = Flat(N=2, diag=0.0, off=0.0, h=1.0)
    sys = OdeSystem(4, model.field, step=model.midpoint_step)
    with pytest.raises(IntegrationFailureError, match="singular Newton matrix at step 1") as exc:
        implicit_midpoint(sys, np.r_[0.0, 0.0, 1.0, 1.0], 0.0, 3.0, 3)
    assert exc.value.step_index == 1
