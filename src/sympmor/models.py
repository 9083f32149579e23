"""Hamiltonian PDE testbeds: 1D linear wave and 1D sine-Gordon, both of the
`SecondOrder` form q' = p, p' = -S q - V'(q) + b(t) with S tridiagonal.

Wave equation u_tt = mu^2 u_xx on Omega = [-1/2, 1/2] with homogeneous
Dirichlet boundary values, discretized on N+2 grid points (full dimension
2(N+2)); no V and no b.

Sine-Gordon u_tt = u_xx - sin(u) on [a, b] with N interior points (full
dimension 2N) and two boundary/initial families (single soliton, soliton-
soliton doublets), both with closed-form solutions.
"""

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import blas
from .errors import DimensionError
from .integrators import OdeSystem, newton_midpoint


@dataclass(eq=False)
class SecondOrder:
    """q' = p, p' = -S q - V'(q) + b(t) on d nodes, S = tridiag(off, diag, off) / h^2.

    d is the N interior nodes unless a testbed overrides it.  diag and off are
    S's bands: arrays of length d and d - 1, or numbers for a uniform band.  A
    nonlinear testbed sets potential to the pointwise (V', V''), curvature to
    sup |V''| (0 without a potential), and defines ends(t) -> (b_0, b_{d-1}),
    the forcing on the two end nodes (b is zero elsewhere), and for an array
    of m times their (m, 2) table.
    """
    N: int
    diag: object
    off: object
    h: float
    potential = None
    curvature = 0.0
    d = property(lambda self: self.N)
    dim = property(lambda self: 2 * self.d)

    def S(self, Q):
        """S Q for a d-vector or a d x m block Q, at O(d m); no matrix is stored."""
        return _band_product(self.diag, self.off, Q) / self.h ** 2

    def field(self, t, x):
        if len(x) != self.dim:
            raise DimensionError(f"state must have length {self.dim}")
        q, p = x[:self.d], x[self.d:]
        f_p = -self.S(q)   # a / -b == -(a / b) exactly
        if self.potential is not None:
            force = self.potential[0](q)        # V'(q) - b(t), b on the two end nodes
            b0, b1 = self.ends(t)
            force[0] -= b0
            force[-1] -= b1
            f_p -= force
        return np.concatenate([p, f_p])

    def jacobian(self, t, x, V):
        """Df(x) V = [V_p; -(S + diag V''(q)) V_q] for a dim x m block V, at O(dim m)."""
        DfV = -self.S(V[:self.d])
        if self.potential is not None:
            DfV -= self.potential[1](x[:self.d])[:, None] * V[:self.d]
        return np.concatenate([V[self.d:], DfV])

    def hamiltonian(self, x):
        """h (q.S q + p.p) / 2: H without V and b."""
        q, p = x[:self.d], x[self.d:]
        return float(0.5 * self.h * (q @ self.S(q)) + 0.5 * self.h * (p @ p))

    def midpoint_step(self, t0, tau, K, tol):
        """The implicit midpoint step x_k -> x_{k+1} at step size tau, for a solve
        of K steps from t0; tol is the Newton tolerance of a model with a
        potential (`integrators.newton_solve`).

        Without a potential, q' = p, p' = -S q: with sigma = tau/2 S, eliminating
        p_{k+1} leaves the Schur system (I/tau + sigma/2) dq = p_k - sigma q_k
        for the increment dq = q_{k+1} - q_k, and then p_{k+1} = p_k - sigma (q_k +
        q_{k+1}).  The Schur matrix is factored once here (LAPACK dgttrf); a step
        costs one dgttrs and two stencils, O(d).  Solving for the increment
        rather than for q_k + q_{k+1} keeps the solve's rounding relative to the
        step, not to the state: on acceptance 4's wave the Hamiltonian drifts
        2.9e-13 against 3.7e-12.

        With a potential it is `integrators.newton_midpoint`: an iterate is one
        stencil, V', V'' and LAPACK dgtsv of I + tau^2/4 (S + diag V''(y)) on
        d-vectors, and b at the K midpoints is one `ends` table per solve.
        """
        if self.potential is not None:
            return self._newton_midpoint_step(t0, tau, K, tol)
        c = 0.5 * tau / self.h ** 2
        diag, off = c * self.diag, c * self.off   # sigma's bands
        solve = blas.tridiagonal_factor(0.5 * off, np.full(self.d, 1.0 / tau) + 0.5 * diag)
        sigma = functools.partial(_band_product, diag, off)

        def step(x):
            q, p = x[:self.d], x[self.d:]
            q_new = q + solve(p - sigma(q))
            return np.concatenate([q_new, p - sigma(q + q_new)])

        return step

    def _newton_midpoint_step(self, t0, tau, K, tol):
        """`midpoint_step` with a potential."""
        w, half = 0.25 * tau ** 2, 0.5 * tau
        off, diag = w * self.off / self.h ** 2, w * self.diag / self.h ** 2   # w S's bands
        schur_diag = 1.0 + diag
        forcing = w * self.ends(t0 + (np.arange(K) + 0.5) * tau)
        grad, curvature = self.potential
        schur_solve = blas.tridiagonal_solver(self.d)

        def rhs(k, p):
            c = half * p
            c[0] += forcing[k, 0]
            c[-1] += forcing[k, 1]
            return c

        def residual(y):
            G = _band_product(diag, off, y)
            G += w * grad(y)
            return G

        def solve(y, G):
            main = w * curvature(y)
            main += schur_diag
            return schur_solve(off, main, G)

        return newton_midpoint(tau, tol, rhs, residual, solve)


def _band_product(diag, off, Q):
    """tridiag(off, diag, off) Q for a d-vector or a d x m block Q; the bands are
    arrays of length d and d - 1, or numbers."""
    if Q.ndim == 2 and isinstance(diag, np.ndarray):   # varying bands act on rows
        diag, off = diag[:, None], off[:, None]
    out = diag * Q
    out[1:] += off * Q[:-1]
    out[:-1] += off * Q[1:]
    return out


def vector_field(model):
    """The FOM field of a testbed, `model.field`.  This factory and its aliases
    exist only so that the names perfbench traces resolve; ROADMAP item 5
    deletes them."""
    return model.field


wave_vector_field = sg_vector_field = vector_field


# -- linear wave ------------------------------------------------------------

@dataclass(eq=False)
class WaveModel(SecondOrder):
    mu: float
    d = property(lambda self: self.N + 2)       # the N interior nodes and both boundary nodes
    xi = property(lambda self: np.linspace(-0.5, 0.5, self.d))   # the grid of those d nodes


def wave_build(N, mu):
    """The discrete wave model on Omega = [-1/2, 1/2]: S = (K + K^T)/h for the
    edge stencil K = mu^2/h tridiag(-1/2, 3/4, -1/2), with 1/4 at both ends of
    its diagonal and K[0, 1] = K[N+1, N] = 0."""
    if N < 1 or mu <= 0:
        raise DimensionError("need N >= 1 and mu > 0")
    return WaveModel(N=N, diag=mu ** 2 * np.r_[0.5, np.full(N, 1.5), 0.5],
                     off=mu ** 2 * np.r_[-0.5, np.full(N - 1, -1.0), -0.5],
                     h=1.0 / (N + 1), mu=mu)


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
    xi = np.linspace(-0.5, 0.5, N + 2)   # wave_build's grid
    s = 28.0 * np.abs(xi + 0.5)
    q0 = _bump(s)
    sgn = np.sign(xi + 0.5)  # sign(0) = 0; harmless since h'(0) = 0
    p0 = -mu * _bump_prime(s) * 28.0 * sgn
    return np.concatenate([q0, p0])


def wave_system(model):
    return OdeSystem(dim=model.dim, vector_field=wave_vector_field(model),
                     hamiltonian=model.hamiltonian, step=model.midpoint_step,
                     second_order=model)


# -- sine-Gordon ------------------------------------------------------------

class SgKind(enum.Enum):
    SingleSoliton = "single_soliton"
    Doublets = "doublets"


@dataclass(eq=False)
class SineGordonModel(SecondOrder):
    """S = -L for L = tridiag(1, -2, 1)/h^2, V = 1 - cos q, and b(t) the
    closed-form boundary values over h^2."""
    nu: float
    a: float
    b: float
    bc: SgKind
    potential = (np.sin, np.cos)
    curvature = 1.0     # sup |V''| = sup |cos q|

    @property
    def xi(self):
        """Interior grid points."""
        return self.a + self.h * np.arange(1, self.N + 1)

    # serves the field at one t, which a finite-difference Newton asks 2 dim + 1
    # times per iterate, and the Hamiltonian; every step hook reads `ends` tables
    @functools.lru_cache(maxsize=4)
    def boundary(self, t):
        """([u(t, a), u(t, b)], [u_t(t, a), u_t(t, b)]) from one sg_exact call per
        model and t; callers must not write into the arrays."""
        return sg_exact(self.bc, self.nu, t, np.array([self.a, self.b]))

    def ends(self, t):
        """u at both ends over h^2 at a time t, or for an array of m times their
        (m, 2) table from one sg_exact call, row by row bitwise the same."""
        if np.ndim(t) == 0:
            return self.boundary(t)[0] / self.h ** 2
        u, _ = sg_exact(self.bc, self.nu, np.asarray(t)[:, None], np.array([self.a, self.b]))
        return u / self.h ** 2

    def hamiltonian(self, x, t):
        """The discrete Hamiltonian at time t, with the boundary contributions of t."""
        q, h = x[:self.N], self.h
        (phi, psi), (phi_t, psi_t) = self.boundary(t)
        val = 0.5 * h * ((-2 * q[0] * phi + phi ** 2 - 2 * q[-1] * psi + psi ** 2) / h ** 2)
        val += 0.25 * h * (phi_t ** 2 + psi_t ** 2)
        val += 0.5 * h * ((1 - np.cos(phi)) + (1 - np.cos(psi)))
        val += h * np.sum(1 - np.cos(q))
        return super().hamiltonian(x) + float(val)


def sg_build(N, nu, a, b, bc):
    if abs(nu) >= 1:
        raise DimensionError("need |nu| < 1")
    if N < 1 or b <= a:
        raise DimensionError("need N >= 1 and b > a")
    h = (b - a) / (N + 1)
    return SineGordonModel(N=N, diag=2.0, off=-1.0, h=h, nu=nu, a=a, b=b, bc=bc)


def sg_exact(bc, nu, t, xi):
    """Closed-form solution (u, u_t) of the sine-Gordon equation at t and xi,
    broadcast against each other."""
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


def sg_jacobian(model):
    """`model.jacobian`; nothing in the package calls it.  It exists only so that
    the name perfbench traces resolves; ROADMAP item 5 deletes it."""
    return model.jacobian


def sg_initial(model, t=0.0):
    """State [u; u_t] sampled from the exact solution at time t (the initial state at t = 0)."""
    return np.concatenate(sg_exact(model.bc, model.nu, t, model.xi))


def sg_system(model):
    return OdeSystem(dim=model.dim, vector_field=sg_vector_field(model),
                     hamiltonian=model.hamiltonian, step=model.midpoint_step, second_order=model)


@dataclass(frozen=True)
class Testbed:
    build: Callable                     # (N, param, a, b) -> model
    fom: Callable                       # (model, t0) -> (FOM OdeSystem, state at t0)
    exact: Optional[Callable] = None    # (model, t) -> closed-form state; snapshots come from it
    span: Optional[tuple] = None        # the (t0, t1, a, b) the model fixes


# config model name -> testbed
MODELS = {
    "wave": Testbed(lambda N, mu, a, b: wave_build(N, mu),
                    lambda m, t0: (wave_system(m), wave_initial(m.N, m.mu)),
                    span=(0.0, 1.0, -0.5, 0.5)),
    **{f"sg_{kind.value}": Testbed(functools.partial(sg_build, bc=kind),
                                   lambda m, t0: (sg_system(m), sg_initial(m, t0)),
                                   exact=sg_initial)
       for kind in SgKind},
}
