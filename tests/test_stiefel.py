"""Stiefel geometry against dense N x N oracles written straight from the formulas."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as hst

from sympmor.errors import AnchorMismatchError, DimensionError, RetractionSingularError
from sympmor.homogeneous import _complement, retract_global, section_qr
from sympmor.stiefel import (
    COND_LIMIT,
    MetricKind,
    StiefelPoint,
    TangentVector,
    cayley_factors,
    cayley_parts,
    cayley_retract,
    cayley_system,
    metric_inner,
    project_tangent,
    random_stiefel,
    riemannian_gradient,
    skew,
    transport_differential,
    transport_submanifold,
    _smw_core,
)


def dense_a(X, Z):
    """A_{X,Z} assembled densely (test-only oracle)."""
    N = X.shape[0]
    P = np.eye(N) - 0.5 * X @ X.T
    return P @ Z @ X.T - X @ Z.T @ P


def dense_cayley(X, Z):
    N = X.shape[0]
    A = dense_a(X, Z)
    return np.linalg.solve(np.eye(N) - 0.5 * A, (np.eye(N) + 0.5 * A) @ X)


def rand_point(N, n, seed):
    return random_stiefel(N, n, seed)


def rand_tangent(X, seed):
    rng = np.random.default_rng(seed)
    return project_tangent(X, rng.standard_normal(X.shape))


def test_random_stiefel_props():
    assert abs(abs(random_stiefel(1, 1, 0).data[0, 0]) - 1.0) < 1e-14
    a = random_stiefel(4, 2, 7)
    b = random_stiefel(4, 2, 7)
    assert np.array_equal(a.data, b.data)
    X = random_stiefel(8, 3, 1)
    assert np.linalg.norm(X.data.T @ X.data - np.eye(3)) < 1e-12
    with pytest.raises(DimensionError):
        random_stiefel(2, 3, 0)


def test_project_tangent():
    X = rand_point(6, 2, 0)
    rng = np.random.default_rng(1)
    S = rng.standard_normal((2, 2))
    S = S + S.T
    assert np.linalg.norm(project_tangent(X, X.data @ S).data) < 1e-12
    Z = rand_tangent(X, 2)
    assert np.linalg.norm(project_tangent(X, Z.data).data - Z.data) < 1e-12
    Y = rng.standard_normal((6, 2))
    A = X.data
    skew = (A.T @ Y - Y.T @ A) / 2
    oracle = (np.eye(6) - A @ A.T) @ Y + A @ skew
    assert np.linalg.norm(project_tangent(X, Y).data - oracle) < 1e-12


def test_riemannian_gradient():
    X = rand_point(5, 2, 3)
    assert np.linalg.norm(
        riemannian_gradient(MetricKind.Canonical, X, X.data).data) < 1e-12
    S = np.array([[2.0, 0.3], [0.3, -1.0]])
    assert np.linalg.norm(
        riemannian_gradient(MetricKind.Euclidean, X, X.data @ S).data) < 1e-12
    rng = np.random.default_rng(4)
    egrad = rng.standard_normal((5, 2))
    for metric in MetricKind:
        g = riemannian_gradient(metric, X, egrad)
        for s in range(20):
            Z = rand_tangent(X, 100 + s)
            lhs = metric_inner(metric, X, g, Z)
            rhs = float(np.tensordot(Z.data, egrad))
            assert abs(lhs - rhs) < 1e-10


def test_metric_inner_split_form():
    # canonical metric equals 1/2 tr(W1^T W2) + tr(K1^T K2) on split components
    X = rand_point(7, 3, 9)
    rng = np.random.default_rng(10)
    A = rng.standard_normal((7, 4))
    A -= X.data @ (X.data.T @ A)
    Xperp, _ = np.linalg.qr(A)
    W1, W2 = [m - m.T for m in rng.standard_normal((2, 3, 3))]
    K1, K2 = rng.standard_normal((2, 4, 3))
    Z1 = TangentVector(X.data @ W1 + Xperp @ K1, X)
    Z2 = TangentVector(X.data @ W2 + Xperp @ K2, X)
    val = metric_inner(MetricKind.Canonical, X, Z1, Z2)
    split = 0.5 * np.tensordot(W1, W2) + np.tensordot(K1, K2)
    assert abs(val - split) < 1e-10
    assert metric_inner(MetricKind.Euclidean, X, Z1, Z1) > 0


def test_anchor_mismatch_detected():
    X = rand_point(6, 2, 0)
    Y = rand_point(6, 2, 1)
    Z = rand_tangent(X, 2)
    with pytest.raises(AnchorMismatchError):
        metric_inner(MetricKind.Euclidean, Y, Z, Z)


def test_anchor_check_compares_values_not_identity():
    """A tangent vector anchored at an equal-valued copy of X passes the anchor
    check; one anchored at another point still fails it."""
    X = rand_point(6, 2, 0)
    copy = StiefelPoint(X.data.copy())
    assert copy is not X and X.same_point(X) and X.same_point(copy)
    rand_tangent(copy, 1).require_anchor(X)
    with pytest.raises(AnchorMismatchError):
        rand_tangent(rand_point(6, 2, 1), 1).require_anchor(X)


def test_nan_point_rejected():
    with pytest.raises(DimensionError):
        StiefelPoint(np.full((4, 2), np.nan))


def test_nan_tangent_retraction_is_singular():
    X = rand_point(6, 2, 0)
    Z = TangentVector(np.full((6, 2), np.nan), X)
    with pytest.raises(RetractionSingularError):
        cayley_retract(X, Z)


def test_smw_condition_estimate():
    """_smw_core returns S = I - GC/2 and rejects it when its exact 1-norm condition
    ||S||_1 ||S^-1||_1 exceeds COND_LIMIT."""
    rng = np.random.default_rng(3)
    U, V = rng.standard_normal((9, 4)), 0.3 * rng.standard_normal((4, 9))
    GC = V @ U
    S = np.eye(4) - 0.5 * GC
    S_core = _smw_core(GC)[0]
    assert np.array_equal(S_core, S)
    b = rng.standard_normal(4)
    assert np.allclose(S_core @ np.linalg.solve(S_core, b), b)
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]

    def graded(s_min):   # GC = 2(I - S) gives back S = Q diag(1, .5, .2, s_min) Q^T
        return 2.0 * (np.eye(4) - Q @ np.diag([1.0, 0.5, 0.2, s_min]) @ Q.T)

    # graded down to 1e-17 ...
    with pytest.raises(RetractionSingularError, match="condition"):
        _smw_core(graded(1e-17))
    # ... exactly singular, which np.linalg.inv rejects ...
    with pytest.raises(RetractionSingularError, match="condition"):
        _smw_core(np.diag([0.0, 1.0, 1.6, 2.0]))
    # ... and a little below the limit, which passes: the condition grows as
    # 1/s_min, so one rescale of s_min lands it near 0.9 COND_LIMIT
    s_min = 1e-13 * np.linalg.cond(_smw_core(graded(1e-13))[0], 1) / (0.9 * COND_LIMIT)
    assert 0.8 * COND_LIMIT < np.linalg.cond(_smw_core(graded(s_min))[0], 1) < COND_LIMIT


def test_smw_core_returns_the_system():
    """_smw_core(GC) returns (S, S^-1) with S = I - GC/2 and S^-1 = np.linalg.inv(S), bitwise."""
    rng = np.random.default_rng(4)
    GC = 0.3 * rng.standard_normal((6, 11)) @ rng.standard_normal((11, 6))
    S, S_inv = _smw_core(GC)
    assert np.array_equal(S, np.eye(6) - 0.5 * GC)
    assert np.array_equal(S_inv, np.linalg.inv(S))


def test_prebuilt_system_gives_the_same_bits():
    """A retraction and a differential transport give the same bits whether they
    build the Cayley system themselves or are handed cayley_system(X, Z)."""
    X = rand_point(12, 3, 60)
    Z, Y = rand_tangent(X, 61), rand_tangent(X, 62)
    system = cayley_system(*cayley_parts(X, Z))
    retracted = cayley_retract(X, Z)
    assert np.array_equal(retracted.data, cayley_retract(X, Z, system).data)
    assert np.array_equal(transport_differential(X, Z, Y, retracted).data,
                          transport_differential(X, Z, Y, retracted, system).data)


def test_cayley_factors():
    """cayley_parts splits Z as X omega + perp, and cayley_factors gives the 2n x 2n
    (C, GC) with Q C Q^T = A_{X,Z} and GC = Q^T Q C for Q = [X, perp]."""
    X = rand_point(6, 2, 5)
    Z0 = TangentVector(np.zeros((6, 2)), X)
    C, GC = cayley_factors(*cayley_parts(X, Z0))
    Q = np.hstack([X.data, np.zeros((6, 2))])
    assert np.linalg.norm(Q @ C @ Q.T) < 1e-14
    Z = rand_tangent(X, 6)
    omega, perp = cayley_parts(X, Z)
    assert np.array_equal(omega, -omega.T)
    assert np.linalg.norm(X.data.T @ perp) < 1e-14
    assert np.linalg.norm(X.data @ omega + perp - Z.data) < 1e-14
    C, GC = cayley_factors(omega, perp)
    Q = np.hstack([X.data, perp])
    prod = Q @ C @ Q.T
    assert np.linalg.norm(prod - dense_a(X.data, Z.data)) < 1e-11
    assert np.linalg.norm(prod + prod.T) < 1e-11
    assert np.linalg.norm(GC - Q.T @ Q @ C) < 1e-14
    G = np.eye(4)
    G[2:, 2:] = perp.T @ perp
    assert np.array_equal(GC, G @ C)


def test_cayley_retract_oracle():
    X = rand_point(8, 2, 11)
    Z0 = TangentVector(np.zeros((8, 2)), X)
    assert np.linalg.norm(cayley_retract(X, Z0).data - X.data) < 1e-13
    Z = rand_tangent(X, 12)
    Zs = TangentVector(0.1 * Z.data, X)
    out = cayley_retract(X, Zs)
    assert np.linalg.norm(out.data - dense_cayley(X.data, Zs.data)) < 1e-10
    assert out.ortho_residual() < 1e-10 * np.sqrt(2)


def test_cayley_first_order():
    X = rand_point(8, 3, 13)
    Z = rand_tangent(X, 14)
    errs = []
    for t in (1e-3, 1e-4, 1e-5):
        Zt = TangentVector(t * Z.data, X)
        errs.append(np.linalg.norm((cayley_retract(X, Zt).data - X.data) / t - Z.data))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-4
    # ratio consistent with O(t)
    assert 5 < errs[0] / errs[1] < 20


def test_transport_submanifold():
    X = rand_point(6, 2, 20)
    Y = rand_tangent(X, 21)
    Z0 = TangentVector(np.zeros((6, 2)), X)
    assert np.linalg.norm(transport_submanifold(X, Z0, Y, cayley_retract(X, Z0)).data
                          - Y.data) < 1e-12
    Z = rand_tangent(X, 22)
    Phi = cayley_retract(X, Z)
    Y2 = rand_tangent(X, 23)
    a, b = 0.37, -1.4
    comb = TangentVector(a * Y.data + b * Y2.data, X)
    lhs = transport_submanifold(X, Z, comb, Phi).data
    rhs = (a * transport_submanifold(X, Z, Y, Phi).data
           + b * transport_submanifold(X, Z, Y2, Phi).data)
    assert np.linalg.norm(lhs - rhs) < 1e-11
    oracle = project_tangent(Phi, Y.data).data
    assert np.linalg.norm(transport_submanifold(X, Z, Y, Phi).data - oracle) < 1e-11


def test_transport_differential():
    X = rand_point(7, 2, 30)
    Y = rand_tangent(X, 31)
    Z0 = TangentVector(np.zeros((7, 2)), X)
    assert np.linalg.norm(transport_differential(X, Z0, Y, cayley_retract(X, Z0)).data
                          - Y.data) < 1e-10
    # finite-difference of the retraction in direction Y
    Z = rand_tangent(X, 32)
    Zs = TangentVector(0.01 * Z.data, X)
    t = 1e-6
    fd = (cayley_retract(X, TangentVector(Zs.data + t * Y.data, X)).data
          - cayley_retract(X, Zs).data) / t
    T = transport_differential(X, Zs, Y, cayley_retract(X, Zs))
    assert np.linalg.norm(T.data - fd) < 1e-4
    # dense oracle
    X2 = rand_point(6, 3, 33)
    Z2 = rand_tangent(X2, 34)
    Y2 = rand_tangent(X2, 35)
    A = dense_a(X2.data, Z2.data)
    Ay = dense_a(X2.data, Y2.data)
    inv = np.linalg.inv(np.eye(6) - 0.5 * A)
    oracle = inv @ Ay @ inv @ X2.data
    T2 = transport_differential(X2, Z2, Y2, cayley_retract(X2, Z2))
    assert np.linalg.norm(T2.data - oracle) < 1e-9


def _nrow_factors(X, Z):
    """Generic factors U (N x 2n), V (2n x N) with U V = A_{X,Z} (reference implementation)."""
    A, B = X.data, Z.data
    return np.hstack([B - A @ skew(A.T @ B), -A]), np.vstack([A.T, B.T])


def _lu_cayley_apply(U, V, M):
    """The SMW apply with (I - VU/2) factored by scipy's LU (reference implementation)."""
    lu = scipy.linalg.lu_factor(np.eye(U.shape[1]) - 0.5 * (V @ U))
    VM = V @ M
    first = M + 0.5 * U @ VM
    return first + 0.5 * U @ scipy.linalg.lu_solve(lu, VM + 0.5 * (V @ U) @ VM)


@pytest.mark.parametrize("N, n", [(34, 4), (1000, 10)])
def test_smw_apply_matches_lu_reference(N, n):
    """cayley_retract, transport_differential and retract_global, in 2n x 2n
    coordinates, agree to 1e-13 relative with the SMW formulas on the generic
    N-row factors of the generator, solved through scipy's LU."""
    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    X = rand_point(N, n, 50)
    Z = rand_tangent(X, 51)
    Z = TangentVector(Z.data / np.linalg.norm(Z.data), X)
    Y = rand_tangent(X, 52)
    U, V = _nrow_factors(X, Z)
    retracted = cayley_retract(X, Z)
    assert rel(retracted.data, _lu_cayley_apply(U, V, X.data)) <= 1e-13

    UY, VY = _nrow_factors(X, Y)
    lu = scipy.linalg.lu_factor(np.eye(2 * n) - 0.5 * (V @ U))
    W = X.data + 0.5 * U @ scipy.linalg.lu_solve(lu, V @ X.data)
    AW = UY @ (VY @ W)
    ref = project_tangent(retracted, AW + 0.5 * U @ scipy.linalg.lu_solve(lu, V @ AW))
    assert rel(transport_differential(X, Z, Y, retracted).data, ref.data) <= 1e-13

    section = section_qr(X, 53)
    B = 0.5 * np.random.default_rng(54).standard_normal((N, n)) / np.sqrt(N * n)
    B[:n] = skew(B[:n])
    Up = np.zeros((N, 2 * n))
    Up[:, :n] = B
    Up[:n, n:] = -np.eye(n)
    Vp = np.zeros((2 * n, N))
    Vp[:n, :n] = np.eye(n)
    Vp[n:, n:] = B[n:].T
    out = _lu_cayley_apply(Up, Vp, np.eye(N, n))
    lam_bar = _complement(section, np.eye(N - n))  # the section applied to I_{N-n}
    ref = X.data @ out[:n] + lam_bar @ out[n:]
    assert rel(retract_global(section, B).data, ref) <= 1e-13


def test_transports_land_tangent():
    X = rand_point(9, 3, 40)
    Z = rand_tangent(X, 41)
    Y = rand_tangent(X, 42)
    Phi = cayley_retract(X, Z)
    for T in (transport_submanifold(X, Z, Y, Phi), transport_differential(X, Z, Y, Phi)):
        res = np.linalg.norm(Phi.data.T @ T.data + T.data.T @ Phi.data)
        assert res < 1e-9


@settings(max_examples=30, deadline=None)
@given(hst.integers(2, 12), hst.integers(1, 4), hst.integers(0, 10 ** 6))
def test_retraction_properties_random(N, n, seed):
    n = min(n, N)
    X = rand_point(N, n, seed)
    Z = rand_tangent(X, seed + 1)
    out = cayley_retract(X, Z)
    assert out.ortho_residual() <= 1e-10 * np.sqrt(n)
    assert np.linalg.norm(out.data - dense_cayley(X.data, Z.data)) < 1e-9
