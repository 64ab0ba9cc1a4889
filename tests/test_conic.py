from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from oracles import dense_scaling
from voltcraft.conic import (
    ConeDims,
    _nt_scaling,
    cone_identity,
    jordan_div,
    jordan_prod,
    max_step,
    min_eig,
    solve_conic,
)


def random_interior(rng, dims, margin=0.1):
    u = rng.normal(size=dims.total)
    u[: dims.nonneg] = np.abs(u[: dims.nonneg]) + margin
    idx = dims.nonneg
    for m in dims.soc:
        u[idx] = np.linalg.norm(u[idx + 1 : idx + m]) + abs(rng.normal()) + margin
        idx += m
    return u


DIMS = ConeDims(nonneg=4, soc=(3, 5))


def test_cone_identity_is_neutral():
    rng = np.random.default_rng(0)
    e = cone_identity(DIMS)
    u = random_interior(rng, DIMS)
    assert np.allclose(jordan_prod(e, u, DIMS), u)
    assert min_eig(e, DIMS) == 1.0


def test_jordan_div_inverts_prod():
    rng = np.random.default_rng(1)
    for _ in range(50):
        lam = random_interior(rng, DIMS)
        d = rng.normal(size=DIMS.total)
        u = jordan_div(lam, d, DIMS)
        assert np.allclose(jordan_prod(lam, u, DIMS), d, atol=1e-10)


def test_nt_scaling_identities():
    rng = np.random.default_rng(2)
    for _ in range(50):
        s = random_interior(rng, DIMS)
        z = random_interior(rng, DIMS)
        sc = _nt_scaling(s, z, DIMS)
        W, Winv = dense_scaling(sc)
        assert np.allclose(W @ z, sc.lmbda, atol=1e-10)
        assert np.allclose(Winv @ s, sc.lmbda, atol=1e-10)
        assert np.allclose(W, W.T, atol=1e-12)
        assert np.allclose(W @ (W @ z), s, atol=1e-9)
        assert np.allclose(W @ Winv, np.eye(DIMS.total), atol=1e-10)


def test_max_step_lands_on_boundary():
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = random_interior(rng, DIMS)
        du = rng.normal(size=DIMS.total)
        t = max_step(u, du, DIMS)
        if np.isfinite(t):
            assert t > 0
            assert min_eig(u + t * du, DIMS) >= -1e-9
            assert min_eig(u + t * du, DIMS) <= 1e-6 * (1 + np.abs(u).max())
        else:
            assert min_eig(u + 100.0 * du, DIMS) > 0


def test_lp_unique_vertex():
    # min -2 x1 - x2 over the triangle x >= 0, x1 + x2 <= 1
    c = np.array([-2.0, -1.0])
    G = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    h = np.array([1.0, 0.0, 0.0])
    res = solve_conic(c, G, h, ConeDims(nonneg=3))
    assert res.meets(1e-8)
    assert res.pobj == pytest.approx(-2.0, abs=1e-8)
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-7)


def test_lp_degenerate_face_still_usable():
    # the whole edge x1 + x2 = 1 is optimal; the returned point must still
    # satisfy the residual contract even if the solver flags stalling
    c = np.array([-1.0, -1.0])
    G = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    h = np.array([1.0, 0.0, 0.0])
    res = solve_conic(c, G, h, ConeDims(nonneg=3))
    assert res.meets(1e-8)
    assert res.pobj == pytest.approx(-1.0, abs=1e-7)


def test_socp_norm_point():
    # min t subject to t >= ||(x1, x2)||, x = (1, 2)
    c = np.array([1.0, 0.0, 0.0])
    G = -np.eye(3)
    h = np.zeros(3)
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = solve_conic(c, G, h, ConeDims(soc=(3,)), A, b)
    assert res.status == "optimal"
    assert res.pobj == pytest.approx(np.sqrt(5.0), abs=1e-8)


def test_infeasible_problem_reports_bad_residuals():
    # x <= -1 and x >= 1 cannot hold
    c = np.array([1.0])
    G = np.array([[1.0], [-1.0]])
    h = np.array([-1.0, -1.0])
    res = solve_conic(c, G, h, ConeDims(nonneg=2))
    assert not res.meets(1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_random_box_lp_matches_linprog(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 8)
    c = rng.normal(size=n)
    ne = rng.integers(0, max(1, n - 1))
    A = rng.normal(size=(ne, n))
    x0 = rng.uniform(-0.5, 0.5, size=n)
    b = A @ x0
    G = np.vstack([np.eye(n), -np.eye(n)])
    h = np.ones(2 * n)
    res = solve_conic(c, G, h, ConeDims(nonneg=2 * n), A, b)
    ref = linprog(
        c, A_eq=A if ne else None, b_eq=b if ne else None,
        bounds=[(-1, 1)] * n, method="highs",
    )
    assert ref.status == 0
    assert res.meets(1e-8)
    assert res.pobj == pytest.approx(ref.fun, abs=1e-7)


@pytest.mark.parametrize("seed", range(8))
def test_random_projection_socp(seed):
    # min ||x - y0|| s.t. A x = b has the closed-form affine projection
    rng = np.random.default_rng(100 + seed)
    n = rng.integers(3, 9)
    ne = rng.integers(1, n)
    A = rng.normal(size=(ne, n))
    b = rng.normal(size=ne)
    y0 = rng.normal(size=n)
    # variables (t, x)
    c = np.zeros(n + 1)
    c[0] = 1.0
    G = np.zeros((n + 1, n + 1))
    G[0, 0] = -1.0
    G[1:, 1:] = -np.eye(n)
    h = np.concatenate([[0.0], -y0])
    Aeq = np.hstack([np.zeros((ne, 1)), A])
    res = solve_conic(c, G, h, ConeDims(soc=(n + 1,)), Aeq, b)
    lam = np.linalg.solve(A @ A.T, A @ y0 - b)
    x_star = y0 - A.T @ lam
    t_star = np.linalg.norm(x_star - y0)
    assert res.meets(1e-8)
    assert res.pobj == pytest.approx(t_star, abs=1e-7)
    assert np.allclose(res.x[1:], x_star, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_lp_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    c = rng.normal(size=n)
    G = np.vstack([np.eye(n), -np.eye(n)])
    h = rng.uniform(0.5, 2.0, size=2 * n)
    res = solve_conic(c, G, h, ConeDims(nonneg=2 * n))
    # separable box LP solves in closed form
    lo, hi = -h[n:], h[:n]
    x_star = np.where(c >= 0, lo, hi)
    assert res.meets(1e-8)
    assert res.pobj == pytest.approx(c @ x_star, abs=1e-7)
