"""Implicit midpoint rule for (Hamiltonian) ODEs.

One step solves x_{k+1} = x_k + h f(t_k + h/2, (x_k + x_{k+1})/2) by Newton
iteration.  Each Newton step solves (I - h/2 Df(x_mid)) delta = r: through the
system's own ``newton_solve`` when it has one (a structured FOM solves it at
O(dim)), otherwise densely.  For linear autonomous systems (vector field A x)
the iteration matrix is step-invariant and every step collapses to one cached
LU solve.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import DimensionError, IntegrationFailureError


@dataclass
class OdeSystem:
    dim: int
    vector_field: Callable          # (t, x) -> dx/dt
    hamiltonian: Optional[Callable] = None
    jacobian: Optional[Callable] = None     # (t, x) -> d f / d x
    linear_matrix: Optional[np.ndarray] = None  # set when f(t, x) = A x
    newton_solve: Optional[Callable] = None  # (t, x, h, r) -> (I - h/2 Df(x))^{-1} r


@dataclass
class Trajectory:
    states: np.ndarray  # dim x (K+1)
    t0: float
    t1: float
    K: int

    @property
    def times(self):
        return np.linspace(self.t0, self.t1, self.K + 1)


def _fd_jacobian(f, t, x, eps=1e-7):
    n = len(x)
    J = np.empty((n, n))
    scale = np.maximum(np.abs(x), 1.0) * eps
    for j in range(n):
        step = np.zeros(n)
        step[j] = scale[j]
        J[:, j] = (f(t, x + step) - f(t, x - step)) / (2 * scale[j])
    return J


def _newton_step(sys, f, t, x, h, r):
    """delta with (I - h/2 Df(x)) delta = r."""
    if sys.newton_solve is not None:
        return sys.newton_solve(t, x, h, r)
    Jf = sys.jacobian(t, x) if sys.jacobian else _fd_jacobian(f, t, x)
    return np.linalg.solve(np.eye(sys.dim) - 0.5 * h * Jf, r)


def implicit_midpoint(sys, x0, t0, t1, K, tol=1e-12, max_newton=50):
    """Integrate sys from x0 over [t0, t1] in K implicit midpoint steps."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.dim,):
        raise DimensionError(f"initial state must have length {sys.dim}")
    if K < 1 or t1 <= t0 or tol <= 0:
        raise DimensionError("need K >= 1, t1 > t0, tol > 0")
    h = (t1 - t0) / K
    X = np.empty((sys.dim, K + 1))
    X[:, 0] = x0

    if sys.linear_matrix is not None:
        # (I - h A / 2) x_{k+1} = (I + h A / 2) x_k, factored once
        A = sys.linear_matrix
        I = np.eye(sys.dim)
        lu = scipy.linalg.lu_factor(I - 0.5 * h * A)
        plus = I + 0.5 * h * A
        for k in range(K):
            X[:, k + 1] = scipy.linalg.lu_solve(lu, plus @ X[:, k])
        return Trajectory(states=X, t0=t0, t1=t1, K=K)

    f = sys.vector_field
    for k in range(K):
        t_mid = t0 + (k + 0.5) * h
        x_old = X[:, k]
        x_new = x_old + h * f(t0 + k * h, x_old)  # explicit Euler predictor
        converged = False
        for _ in range(max_newton):
            x_mid = 0.5 * (x_old + x_new)
            res = x_new - x_old - h * f(t_mid, x_mid)
            try:
                delta = _newton_step(sys, f, t_mid, x_mid, h, res)
            except np.linalg.LinAlgError:
                raise IntegrationFailureError(k, f"singular Newton matrix at step {k}") from None
            x_new = x_new - delta
            # scale-aware: an absolute 1e-12 is unattainable for large states
            if np.linalg.norm(delta) < tol * max(1.0, np.linalg.norm(x_new)):
                converged = True
                break
        if not converged:
            raise IntegrationFailureError(k)
        X[:, k + 1] = x_new
    return Trajectory(states=X, t0=t0, t1=t1, K=K)
