"""Implicit midpoint rule for (Hamiltonian) ODEs.

One step solves x_{k+1} = x_k + h f(t_k + h/2, (x_k + x_{k+1})/2) by Newton
iteration.  Each Newton iterate linearizes the system once: ``newton(t, x, h)``
returns f(t, x) and a solve of (I - h/2 Df(x)) delta = r.  A structured FOM
supplies its own (O(dim) per solve), otherwise it is dense.  For linear
autonomous systems (vector field A x) the iteration matrix is step-invariant,
and SuperLU factors it once.

Newton starts step 0 from explicit Euler and every later step from the linear
extrapolation 2 x_k - x_{k-1}, which costs no field call.  A step is accepted
when ||delta|| < tol max(1, ||x||), or, from the second iterate on, when the
contraction estimate of the remaining error, theta / (1 - theta) ||delta|| with
theta = ||delta_j|| / ||delta_{j-1}|| < 1, is below the same bound (the
simplified-Newton stop of Hairer & Wanner, Solving ODEs II, IV.8).  That
saves the iterate that would only confirm convergence.
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
    jacobian: Optional[Callable] = None     # (t, x, V) -> Df(x) @ V for a dim x m block V
    linear_matrix: Optional[object] = None  # A, dense or scipy.sparse, when f(t, x) = A x
    newton: Optional[Callable] = None  # (t, x, h) -> (f(t, x), r -> (I - h/2 Df(x))^{-1} r)
    second_order: Optional[object] = None  # the FOM's models.SecondOrder, which a PSD ROM projects


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


def implicit_midpoint(sys, x0, t0, t1, K, tol=1e-12):
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
        import scipy.sparse as sp   # only linear systems pay for these imports
        from scipy.sparse.linalg import splu
        A, I = sp.csc_matrix(sys.linear_matrix), sp.identity(sys.dim, format="csc")
        try:
            lu = splu(I - 0.5 * h * A)
        except RuntimeError:    # SuperLU: "Factor is exactly singular"
            raise IntegrationFailureError(0, "singular Newton matrix at step 0") from None
        plus = I + 0.5 * h * A
        for k in range(K):
            X[:, k + 1] = lu.solve(plus @ X[:, k])
        return Trajectory(states=X, t0=t0, t1=t1, K=K)

    f = sys.vector_field
    # default: dense Df = jacobian(t, x, I), or finite differences (always at V = I)
    jac = sys.jacobian or (lambda t, x, V: _fd_jacobian(f, t, x))
    newton = sys.newton or dense_newton(lambda t, x: (f(t, x), jac(t, x, np.eye(len(x)))))
    for k in range(K):
        t_mid = t0 + (k + 0.5) * h
        x_old = X[:, k]
        if k == 0:
            x_new = x_old + h * f(t0, x_old)    # explicit Euler start
        else:
            x_new = 2.0 * x_old - X[:, k - 1]   # linear extrapolation, no field call
        prev = None
        for _ in range(MAX_NEWTON):
            x_mid = 0.5 * (x_old + x_new)
            try:
                f_mid, solve = newton(t_mid, x_mid, h)
                delta = solve(x_new - x_old - h * f_mid)
            except np.linalg.LinAlgError:
                raise IntegrationFailureError(k, f"singular Newton matrix at step {k}") from None
            x_new = x_new - delta
            # scale-aware: an absolute 1e-12 is unattainable for large states;
            # sqrt(v @ v) is np.linalg.norm's arithmetic without its dispatch
            bound = tol * max(1.0, math.sqrt(x_new @ x_new))
            step = math.sqrt(delta @ delta)
            if step < bound:
                break
            # contraction estimate: with theta = step / prev < 1 the remaining
            # error is at most theta / (1 - theta) * step = step^2 / (prev - step)
            if prev is not None and step < prev and step * step < bound * (prev - step):
                break
            prev = step
        else:
            raise IntegrationFailureError(k)
        X[:, k + 1] = x_new
    return Trajectory(states=X, t0=t0, t1=t1, K=K)
