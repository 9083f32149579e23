"""Hamiltonian PDE testbeds: 1D linear wave and 1D sine-Gordon.

Wave equation u_tt = mu^2 u_xx on Omega = [-1/2, 1/2] with homogeneous
Dirichlet boundary values, discretized on N+2 grid points (full dimension
2(N+2)); the system stays in its unscaled form with the 1/h factor folded
into the vector field.

Sine-Gordon u_tt = u_xx - sin(u) on [a, b] with N interior points (full
dimension 2N) and two boundary/initial families (single soliton, soliton-
soliton doublets), both with closed-form solutions.
"""

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import DimensionError
from .integrators import OdeSystem


# -- linear wave ------------------------------------------------------------

@dataclass
class WaveModel:
    N: int
    mu: float
    h: float
    K_mat: np.ndarray      # (N+2) x (N+2)
    xi: np.ndarray         # grid points including boundaries

    @property
    def dim(self):
        return 2 * (self.N + 2)


def wave_build(N, mu):
    """Assemble the discrete wave model on Omega = [-1/2, 1/2]."""
    if N < 1 or mu <= 0:
        raise DimensionError("need N >= 1 and mu > 0")
    h = 1.0 / (N + 1)
    m = N + 2
    diag = np.full(m, 0.75)
    diag[0] = diag[-1] = 0.25
    # off-diagonals are -1/2 except in the first and last rows
    upper = np.full(m - 1, -0.5)
    upper[0] = 0.0
    lower = np.full(m - 1, -0.5)
    lower[-1] = 0.0
    K = (np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)) * (mu ** 2 / h)
    return WaveModel(N=N, mu=mu, h=h, K_mat=K, xi=np.linspace(-0.5, 0.5, m))


def wave_vector_field(model, A=None):
    """field(t, x) = A x; pass A when the caller has already assembled it."""
    if A is None:
        A = wave_linear_matrix(model)

    def field(t, x):
        if len(x) != model.dim:
            raise DimensionError(f"state must have length {model.dim}")
        return A @ x

    return field


def wave_linear_matrix(model):
    """Dense A with field(x) = A x: the one assembly of the wave operator."""
    m = model.N + 2
    A = np.zeros((2 * m, 2 * m))
    A[:m, m:] = np.eye(m)
    A[m:, :m] = -(model.K_mat + model.K_mat.T) / model.h
    return A


def wave_hamiltonian(model):
    m = model.N + 2

    def H(x):
        q, p = x[:m], x[m:]
        return float(q @ model.K_mat @ q + 0.5 * model.h * (p @ p))

    return H


def _bump(s):
    """Piecewise cubic h(s): 1 - 3s^2/2 + 3s^3/4 on [0,1], (2-s)^3/4 on (1,2], else 0."""
    s = np.asarray(s, dtype=float)
    return np.select([(s >= 0) & (s <= 1), (s > 1) & (s <= 2)],
                     [1.0 - 1.5 * s ** 2 + 0.75 * s ** 3, 0.25 * (2.0 - s) ** 3])


def _bump_prime(s):
    s = np.asarray(s, dtype=float)
    return np.select([(s >= 0) & (s <= 1), (s > 1) & (s <= 2)],
                     [-3.0 * s + 2.25 * s ** 2, -0.75 * (2.0 - s) ** 2])


def wave_initial(N, mu):
    """Initial state [q0; p0]: q0 a cubic bump at the left edge, p0 = -mu d_xi q0."""
    xi = np.linspace(-0.5, 0.5, N + 2)   # wave_build's grid, without assembling K
    s = 28.0 * np.abs(xi + 0.5)
    q0 = _bump(s)
    sgn = np.sign(xi + 0.5)  # sign(0) = 0; harmless since h'(0) = 0
    p0 = -mu * _bump_prime(s) * 28.0 * sgn
    return np.concatenate([q0, p0])


def wave_system(model):
    A = wave_linear_matrix(model)
    return OdeSystem(
        dim=model.dim,
        vector_field=wave_vector_field(model, A),
        hamiltonian=wave_hamiltonian(model),
        jacobian=lambda t, x, V: A @ V,
        linear_matrix=A,
    )


# -- sine-Gordon ------------------------------------------------------------

class SgKind(enum.Enum):
    SingleSoliton = "single_soliton"
    Doublets = "doublets"


@dataclass
class SineGordonModel:
    N: int
    nu: float
    a: float
    b: float
    h: float
    bc: SgKind

    @property
    def dim(self):
        return 2 * self.N

    @property
    def xi(self):
        """Interior grid points."""
        return self.a + self.h * np.arange(1, self.N + 1)


def sg_build(N, nu, a, b, bc):
    if abs(nu) >= 1:
        raise DimensionError("need |nu| < 1")
    if N < 1 or b <= a:
        raise DimensionError("need N >= 1 and b > a")
    h = (b - a) / (N + 1)
    return SineGordonModel(N=N, nu=nu, a=a, b=b, h=h, bc=bc)


def sg_laplacian(q, h):
    """Apply L = tridiag(1, -2, 1)/h^2 to q; the callers add the boundary terms."""
    Lq = -2.0 * q
    Lq[1:] += q[:-1]
    Lq[:-1] += q[1:]
    return Lq / h ** 2


def sg_exact(bc, nu, t, xi):
    """Closed-form solution (u, u_t) of the sine-Gordon equation."""
    if abs(nu) >= 1:
        raise DimensionError("need |nu| < 1")
    xi = np.asarray(xi, dtype=float)
    root = np.sqrt(1.0 - nu ** 2)
    if bc is SgKind.SingleSoliton:
        z = (xi - nu * t) / root
        u = 4.0 * np.arctan(np.exp(z))
        u_t = -4.0 * nu * np.exp(z) / (root * (1.0 + np.exp(2.0 * z)))
        return u, u_t
    arg = nu * t / root
    g = nu / np.cosh(arg)
    gp = -(nu ** 2 / root) * np.tanh(arg) / np.cosh(arg)
    s = np.sinh(xi / root)
    u = 4.0 * np.arctan(g * s)
    u_t = 4.0 * s * gp / (1.0 + (g * s) ** 2)
    return u, u_t


def sg_boundary_values(model):
    """t -> ([u(t, a), u(t, b)], [u_t(t, a), u_t(t, b)]) from one sg_exact call."""
    ends = np.array([model.a, model.b])

    def boundary(t):
        return sg_exact(model.bc, model.nu, t, ends)

    return boundary


def sg_vector_field(model):
    boundary = sg_boundary_values(model)
    h = model.h

    def field(t, x):
        if len(x) != model.dim:
            raise DimensionError(f"state must have length {model.dim}")
        q, p = x[:model.N], x[model.N:]
        (phi, psi), _ = boundary(t)
        f = np.sin(q)
        f[0] -= phi / h ** 2
        f[-1] -= psi / h ** 2
        return np.concatenate([p, sg_laplacian(q, h) - f])

    return field


def sg_jacobian(model):
    """(t, x, V) -> Df(x) V = [V_p; L V_q - cos(q) V_q] for a 2N x m block V, at O(N m)."""
    N = model.N

    def jac(t, x, V):
        V_q = V[:N]
        return np.concatenate([V[N:], sg_laplacian(V_q, model.h) - np.cos(x[:N])[:, None] * V_q])

    return jac


def sg_newton(model):
    """Newton hook (t, x, tau) -> (f(t, x), banded solve of (I - tau/2 Df(x)) delta = r).

    With Df = [[0, I], [S, 0]] and S = L - diag(cos q), eliminating delta_p
    leaves the tridiagonal Schur complement (I - tau^2/4 S) delta_q =
    r_q + tau/2 r_p; then delta_p = r_p + tau/2 S delta_q.  O(N) per solve.
    """
    N = model.N
    off = 1.0 / model.h ** 2       # L's off-diagonal; its diagonal is -2 off
    field = sg_vector_field(model)

    def newton(t, x, tau):
        c = np.cos(x[:N])
        w = 0.25 * tau ** 2
        ab = np.empty((3, N))
        ab[0] = ab[2] = -w * off
        ab[1] = 1.0 + w * (2.0 * off + c)

        def solve(r):
            r_q, r_p = r[:N], r[N:]
            dq = scipy.linalg.solve_banded((1, 1), ab, r_q + 0.5 * tau * r_p, check_finite=False)
            Sdq = sg_laplacian(dq, model.h) - c * dq
            return np.concatenate([dq, r_p + 0.5 * tau * Sdq])

        return field(t, x), solve

    return newton


def sg_hamiltonian(model):
    """Discrete sine-Gordon Hamiltonian including the boundary contributions."""
    boundary = sg_boundary_values(model)
    h = model.h

    def H(x, t=0.0):
        q, p = x[:model.N], x[model.N:]
        (phi, psi), (phi_t, psi_t) = boundary(t)
        val = -0.5 * h * (q @ sg_laplacian(q, h)) + 0.5 * h * (p @ p)
        val += 0.5 * h * ((-2 * q[0] * phi + phi ** 2 - 2 * q[-1] * psi + psi ** 2) / h ** 2)
        val += 0.25 * h * (phi_t ** 2 + psi_t ** 2)
        val += 0.5 * h * ((1 - np.cos(phi)) + (1 - np.cos(psi)))
        val += h * np.sum(1 - np.cos(q))
        return float(val)

    return H


def sg_initial(model, t=0.0):
    """State [u; u_t] sampled from the exact solution at time t (the initial state at t = 0)."""
    return np.concatenate(sg_exact(model.bc, model.nu, t, model.xi))


def sg_system(model):
    return OdeSystem(
        dim=model.dim,
        vector_field=sg_vector_field(model),
        hamiltonian=sg_hamiltonian(model),
        jacobian=sg_jacobian(model),
        newton=sg_newton(model),
    )


@dataclass(frozen=True)
class Testbed:
    build: Callable                     # (N, param, a, b) -> model
    fom: Callable                       # model -> (FOM OdeSystem, x0)
    exact: Optional[Callable] = None    # (model, t) -> closed-form state; snapshots come from it
    span: Optional[tuple] = None        # the (t0, t1, a, b) the model fixes


# config model name -> testbed
MODELS = {
    "wave": Testbed(lambda N, mu, a, b: wave_build(N, mu),
                    lambda m: (wave_system(m), wave_initial(m.N, m.mu)), span=(0.0, 1.0, -0.5, 0.5)),
    **{f"sg_{kind.value}": Testbed(functools.partial(sg_build, bc=kind),
                                   lambda m: (sg_system(m), sg_initial(m)), exact=sg_initial)
       for kind in SgKind},
}
