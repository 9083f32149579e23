"""Implicit midpoint rule for (Hamiltonian) ODEs, and the steps a system may
take in its place.

One midpoint step solves x_{k+1} = x_k + h f(t_k + h/2, (x_k + x_{k+1})/2) by Newton
iteration.  Each Newton iterate linearizes the system once: ``newton(t, x, h)``
returns f(t, x) and a solve of (I - h/2 Df(x)) delta = r; without the hook the
solve is dense, with a finite-difference Df.  A system may instead supply the
whole step, ``step(t0, h, K, tol) -> (x_k -> x_{k+1})``, set up once per solve
of K steps.  Every FOM and folded ROM does: the wave factors its tridiagonal
Schur matrix once; the sine-Gordon FOM and a projected ROM above its bounds
take `newton_midpoint`, Newton on the midpoint q alone, to tol; a projected ROM
below them takes `kick_drift_kick`, one force per step around a drift, the
free drift (Störmer–Verlet, any time-dependent force tabulated at the K + 1
step times once) or for a wave ROM the midpoint step of its linear part, set
up once per solve, which a wave PSD ROM takes alone.

Newton starts step 0 from explicit Euler and every later step from the linear
extrapolation 2 x_k - x_{k-1}, which costs no field call.  Every Newton
iteration, the dense midpoint's and `newton_midpoint`'s, stops by one rule,
`newton_solve`: a step is accepted when ||delta|| < tol max(1, ||x||), or, from
the second iterate on, when the contraction estimate of the remaining error,
theta / (1 - theta) ||delta|| with theta = ||delta_j|| / ||delta_{j-1}|| < 1, is
below the same bound (the simplified-Newton stop of Hairer & Wanner, Solving
ODEs II, IV.8).  That saves the iterate that would only confirm convergence.
A non-finite iterate ends the solve at once, naming its step.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, IntegrationFailureError

MAX_NEWTON = 50   # Newton iterations per step before IntegrationFailureError


@dataclass
class OdeSystem:
    dim: int
    vector_field: Callable          # (t, x) -> dx/dt
    hamiltonian: Optional[Callable] = None
    newton: Optional[Callable] = None  # (t, x, h) -> (f(t, x), r -> (I - h/2 Df(x))^{-1} r)
    second_order: Optional[object] = None  # the FOM's models.SecondOrder, which every ROM needs
    step: Optional[Callable] = None    # (t0, h, K, tol) -> (x_k -> x_{k+1}), set up once per solve
    linear_matrix = None   # not a field: the benchmark's step counter still reads it


@dataclass
class Trajectory:
    states: np.ndarray  # dim x (K+1)
    t0: float
    t1: float
    K: int

    @property
    def times(self):
        return np.linspace(self.t0, self.t1, self.K + 1)


def _fd_jacobian(f, t, x):
    """Dense Df(x) by central differences, one column per coordinate step."""
    steps = np.diag(np.maximum(np.abs(x), 1.0) * 1e-7)
    return np.column_stack([(f(t, x + s) - f(t, x - s)) / (2 * s[j]) for j, s in enumerate(steps)])


def dense_newton(linearize):
    """Newton hook from linearize(t, x) -> (f(t, x), dense Df(x)); solves densely."""

    def newton(t, x, h):
        f, Jf = linearize(t, x)
        M = (-0.5 * h) * np.ascontiguousarray(Jf)   # C order: reshape(-1) is a view
        M.reshape(-1)[::len(x) + 1] += 1.0          # I - h/2 Df without an identity matrix
        return f, lambda r: np.linalg.solve(M, r)

    return newton


def free_drift(c, h):
    """The exact step x -> [q + h (c + p); p] of q' = c + p, p' = 0, written into x."""
    n = len(c)

    def drift(x):
        x[:n] += h * (c + x[n:])
        return x

    return drift


def kick_drift_kick(drift, force, h):
    """The Strang splitting x_k -> x_{k+1} at step size h of x' = g(x) +
    [0; F(t, q)] on x = [q; p], t_k = t0 + k h: half kicks by the force F
    around drift(x), a step of x' = g(x) that may write into x and returns the
    new state (`free_drift` for g = [c + p; 0], or a midpoint step of a linear
    g).  force(k, q) = F(t_k, q) takes the step index, so a time-dependent force
    can read a table made once per solve:

        p_{k+1/2} = p_k + h/2 force(k, q_k),
        [q_{k+1}; p'] = drift([q_k; p_{k+1/2}]),
        p_{k+1} = p' + h/2 force(k + 1, q_{k+1}).

    With the free drift this is Störmer–Verlet, explicit; with any symmetric
    symplectic drift it is second order and symplectic (Hairer, Lubich &
    Wanner, Geometric Numerical Integration, 2006, II.5, I.3 and VI.3).  The
    end-of-step force is the next step's first kick, so a step costs one force
    call.  The advance must be called on the states it returned, in step order
    from x_0.
    """
    half = 0.5 * h
    k, a = 0, None      # the step about to be taken and force(k, q_k)

    def advance(x):
        nonlocal k, a
        n = len(x) // 2
        if k == 0:
            a = force(0, x[:n])
        x = x.copy()
        x[n:] += half * a
        x = drift(x)
        a = force(k + 1, x[:n])
        x[n:] += half * a
        k += 1
        return x

    return advance


def implicit_midpoint(sys, x0, t0, t1, K, tol=1e-12):
    """Integrate sys from x0 over [t0, t1] in K steps: the system's own step
    where `sys.step` supplies one (tol stops any Newton it runs), else implicit
    midpoint by Newton to tol.  A NaN or inf carries through every later step,
    so a supplied step's states are checked once, at the end, and Newton's at
    each iterate's norm: a non-finite one is an IntegrationFailureError naming
    its step.  A step whose set-up meets a singular matrix fails at step 0."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.dim,):
        raise DimensionError(f"initial state must have length {sys.dim}")
    if K < 1 or t1 <= t0 or tol <= 0:
        raise DimensionError("need K >= 1, t1 > t0, tol > 0")
    h = (t1 - t0) / K
    X = np.empty((sys.dim, K + 1))
    X[:, 0] = x0

    if sys.step is not None:
        try:
            advance = sys.step(t0, h, K, tol)   # set up once for the whole solve
        except np.linalg.LinAlgError:
            raise IntegrationFailureError(0, "singular step matrix at step 0") from None
        for k in range(K):
            X[:, k + 1] = advance(X[:, k])
        return _finite(X, t0, t1, K)

    f = sys.vector_field
    newton = sys.newton or dense_newton(lambda t, x: (f(t, x), _fd_jacobian(f, t, x)))

    def iterate(x_new):
        """One Newton iterate of the step from x_old at t_mid."""
        f_mid, solve = newton(t_mid, 0.5 * (x_old + x_new), h)
        delta = solve(x_new - x_old - h * f_mid)
        x_new = x_new - delta
        # sqrt(v @ v) is np.linalg.norm's arithmetic without its dispatch
        return x_new, math.sqrt(delta @ delta), math.sqrt(x_new @ x_new)

    for k in range(K):
        t_mid, x_old = t0 + (k + 0.5) * h, X[:, k]
        if k == 0:
            x_new = x_old + h * f(t0, x_old)    # explicit Euler start
        else:
            x_new = 2.0 * x_old - X[:, k - 1]   # linear extrapolation, no field call
        X[:, k + 1] = newton_solve(iterate, x_new, k, tol)
    return _finite(X, t0, t1, K)


def newton_midpoint(tau, tol, rhs, residual, solve):
    """The implicit midpoint step x_k -> x_{k+1} at step size tau of a separable
    q' = p, p' = F(t, q) on x = [q; p], by Newton on the midpoint q alone
    (Hairer & Wanner, Solving ODEs II, IV.8) in the increment
    z = (q_{k+1} - q_k) / 2: with w = tau^2/4 it solves
    G(z) = residual(q_k + z) + z - rhs(k, p_k) = 0 for residual(y) = -w F(t, y)
    without F's part that does not depend on y, rhs(k, p) = tau/2 p plus w
    times that part at step k's midpoint (a new array), and solve(y, r) the
    inverse of I - w DF(y), or a simplified Newton's stand-in, applied to r.
    Then q_{k+1} = q_k + 2 z and p_{k+1} = 4/tau z - p_k.  These are
    full-space Newton's q-iterates from the integrator's start (Euler at step
    0, then 2 q_k - q_{k-1}, whose z is the last step's), and `newton_solve`
    measures the update the state takes, [2 dz; 4/tau dz].  The increment
    keeps p_{k+1}'s rounding relative to the step.  The advance must be called
    on the states it returned, in step order from x_0.
    """
    half, weight = 0.5 * tau, math.sqrt(4.0 + 16.0 / tau ** 2)   # ||[2 dz; 4/tau dz]|| / ||dz||
    k, z = 0, None      # the step about to be taken and the last step's z

    def advance(x):
        nonlocal k, z
        n = len(x) // 2
        q, p = x[:n], x[n:]
        if k == 0:
            z = half * p    # explicit Euler's q_{k+1} = q_k + tau p_k
        c = rhs(k, p)
        x_new = np.empty(2 * n)

        def iterate(z):
            y = q + z
            G = residual(y)
            G += z
            G -= c
            dz = solve(y, G)
            z = z - dz
            np.multiply(2.0, z, out=x_new[:n])
            x_new[:n] += q
            np.multiply(4.0 / tau, z, out=x_new[n:])
            x_new[n:] -= p
            return z, weight * math.sqrt(dz @ dz), math.sqrt(x_new @ x_new)

        z = newton_solve(iterate, z, k, tol)
        k += 1
        return x_new

    return advance


def newton_solve(iterate, x, k, tol):
    """Newton's iterates x -> x' of step k from x, by iterate(x) = (x', ||dx||,
    ||x_new||), until the module's stop rule holds; returns that x'.  dx is the
    update the iterate makes to the step's new state and x_new that state
    after it, so an iteration on fewer unknowns is stopped as the full one is.
    A singular matrix (np.linalg.LinAlgError from iterate), a non-finite update
    and MAX_NEWTON iterates without acceptance are each an
    IntegrationFailureError naming step k."""
    prev = None
    for _ in range(MAX_NEWTON):
        try:
            x, step, size = iterate(x)
        except np.linalg.LinAlgError:
            raise IntegrationFailureError(k, f"singular Newton matrix at step {k}") from None
        if not math.isfinite(step):     # no later iterate can converge
            raise IntegrationFailureError(k, f"non-finite state at step {k}")
        # scale-aware: an absolute 1e-12 is unattainable for large states
        bound = tol * max(1.0, size)
        if step < bound:
            return x
        # with theta = step / prev < 1 the remaining error is at most
        # theta / (1 - theta) * step = step^2 / (prev - step)
        if prev is not None and step < prev and step * step < bound * (prev - step):
            return x
        prev = step
    raise IntegrationFailureError(k)


def _finite(X, t0, t1, K):
    """The Trajectory of X, unless step k is the first to end non-finite."""
    finite = np.isfinite(X[:, 1:]).all(axis=0)
    if not finite.all():
        k = int(np.argmin(finite))
        raise IntegrationFailureError(k, f"non-finite state at step {k}")
    return Trajectory(states=X, t0=t0, t1=t1, K=K)
