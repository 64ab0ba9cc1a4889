"""Vectorised cone operations, scaling and KKT assembly against the loop
references in oracles.py."""

from __future__ import annotations

import copy
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import zero_state
from oracles import (
    cone_blocks,
    dense_scaling,
    jordan_div_loop,
    jordan_prod_loop,
    max_step_loop,
    min_eig_loop,
    nt_scaling_dense,
)
from voltcraft import conic
from voltcraft.baseline import _build_program, solve_baseline
from voltcraft.conic import (
    KKT_REG,
    ConeDims,
    ConicProgram,
    _factor,
    _kkt_matrix,
    _kkt_pattern,
    _kkt_refresh,
    _reorder,
    _nt_scaling,
    cone_identity,
    jordan_div,
    jordan_prod,
    max_step,
    min_eig,
    solve_conic,
)
from voltcraft.errors import NumericalError

# The block sums run in another order (bincount, not a dot product per
# block), so results agree to a few ulps of the largest term, not bitwise.
RTOL = 1e3 * np.finfo(float).eps

DIMS_CASES = [
    ConeDims(nonneg=5),  # orthant only
    ConeDims(soc=(4,)),  # one SOC, nonneg = 0
    ConeDims(soc=(2, 3, 4, 5, 6)),  # SOC only, every size from 2 to 6
    ConeDims(nonneg=3, soc=(6, 2, 5, 3, 4)),  # mixed
    ConeDims(nonneg=1, soc=(3, 3, 3)),
]


def random_interior(rng, dims, margin=0.1):
    u = rng.normal(size=dims.total)
    for a, b, soc in cone_blocks(dims):
        if soc:
            u[a] = np.linalg.norm(u[a + 1 : b]) + abs(rng.normal()) + margin
        else:
            u[a:b] = np.abs(u[a:b]) + margin
    return u


def close(new, ref):
    np.testing.assert_allclose(new, ref, rtol=RTOL, atol=RTOL * np.max(np.abs(ref)))


@pytest.mark.parametrize("dims", DIMS_CASES, ids=str)
def test_index_arrays_and_identity(dims):
    e = np.zeros(dims.total)
    heads, tails, tail_block = [], [], []
    for a, b, soc in cone_blocks(dims):
        e[a] = 1.0
        if soc:
            heads.append(a)
            tails.extend(range(a + 1, b))
            tail_block.extend([len(heads) - 1] * (b - a - 1))
        else:
            e[a:b] = 1.0
    assert np.array_equal(cone_identity(dims), e)
    assert dims.heads.tolist() == heads
    assert dims.tails.tolist() == tails
    assert dims.tail_block.tolist() == tail_block


@pytest.mark.parametrize("nonneg, soc", [(-1, ()), (2, (3, 0))])
def test_cone_dims_reject_empty_blocks(nonneg, soc):
    with pytest.raises(ValueError):
        ConeDims(nonneg=nonneg, soc=soc)


@pytest.mark.parametrize("dims", DIMS_CASES, ids=str)
def test_cone_ops_match_loops(dims):
    rng = np.random.default_rng(dims.total)
    for _ in range(30):
        u = random_interior(rng, dims)
        w = rng.normal(size=dims.total)
        close(min_eig(u, dims), min_eig_loop(u, dims))
        close(min_eig(w, dims), min_eig_loop(w, dims))
        close(jordan_prod(u, w, dims), jordan_prod_loop(u, w, dims))
        close(jordan_div(u, w, dims), jordan_div_loop(u, w, dims))


@pytest.mark.parametrize("dims", DIMS_CASES, ids=str)
def test_max_step_matches_loop(dims):
    rng = np.random.default_rng(100 + dims.total)
    steps = []
    for _ in range(60):
        u = random_interior(rng, dims)
        # a random direction, and one that stays inside K
        for du in (rng.normal(size=dims.total), random_interior(rng, dims)):
            t, ref = max_step(u, du, dims), max_step_loop(u, du, dims)
            steps.append(t)
            if np.isfinite(ref):
                close(t, ref)
            else:
                assert t == ref
    assert np.isinf(steps).any() and np.isfinite(steps).any()


SOC3 = ConeDims(soc=(3,))


@pytest.mark.parametrize(
    "u, du, expected",
    [
        # qa == 0 with qb < 0: the linear root 1/2, before the head's 1
        ([1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], 0.5),
        # qa == 0 with qb > 0: the direction runs along the cone, unbounded
        ([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], np.inf),
        # along the identity: unbounded
        ([2.0, 0.5, -0.5], [1.0, 0.0, 0.0], np.inf),
    ],
    ids=["qa0-linear-root", "qa0-unbounded", "unbounded"],
)
def test_max_step_branches(u, du, expected):
    u, du = np.array(u), np.array(du)
    assert max_step(u, du, SOC3) == expected
    assert max_step_loop(u, du, SOC3) == expected


def test_max_step_negative_discriminant():
    # straight at the apex, where the discriminant is zero in exact
    # arithmetic and rounds to -2.8e-14: only the head's own crossing counts
    u0, d0 = 2.45848369368079, -2.746991174105393
    qa, qb, qc = d0 * d0, 2.0 * (u0 * d0), u0 * u0
    assert qb * qb - 4.0 * qa * qc < 0.0
    u, du = np.array([u0, 0.0, 0.0]), np.array([d0, 0.0, 0.0])
    assert max_step(u, du, SOC3) == max_step_loop(u, du, SOC3) == -u0 / d0


def test_max_step_orthant():
    dims = ConeDims(nonneg=3, soc=(2,))
    u = np.array([1.0, 2.0, 3.0, 1.0, 0.5])
    assert max_step(u, np.array([0.0, 1.0, 2.0, 1.0, 1.0]), dims) == np.inf
    assert max_step(u, np.array([0.0, -4.0, 2.0, 1.0, 1.0]), dims) == 0.5


@pytest.mark.parametrize("dims", DIMS_CASES, ids=str)
def test_nt_scaling_matches_dense(dims):
    rng = np.random.default_rng(200 + dims.total)
    for _ in range(20):
        s = random_interior(rng, dims)
        z = random_interior(rng, dims)
        sc = _nt_scaling(s, z, dims)
        W, Winv, lmbda = nt_scaling_dense(s, z, dims)
        sc_W, sc_Winv = dense_scaling(sc)
        close(sc_W, W)
        close(sc_Winv, Winv)
        close(sc.lmbda, lmbda)
        u = rng.normal(size=dims.total)
        close(sc.scale(u), W @ u)
        close(sc.unscale(u), Winv @ u)


@pytest.mark.parametrize("dims", DIMS_CASES, ids=str)
def test_one_pass_inverse_square(dims):
    rng = np.random.default_rng(250 + dims.total)
    for _ in range(10):
        sc = _nt_scaling(random_interior(rng, dims), random_interior(rng, dims), dims)
        u = rng.normal(size=dims.total)
        _, Winv = dense_scaling(sc)
        close(sc.unscale2(u), Winv @ Winv @ u)


def dense_kkt(G, A, Winv):
    WG = Winv @ G
    ny, nx = A.shape
    return np.block([
        [WG.T @ WG + KKT_REG * np.eye(nx), A.T],
        [A, -KKT_REG * np.eye(ny)],
    ])


def random_sparse_program(rng, dims, nx=7, ny=3):
    # at most two nonzeros per row, as in the feeder relaxation, plus one
    # dense row
    G = np.zeros((dims.total, nx))
    for i in range(dims.total):
        cols = rng.choice(nx, size=rng.integers(1, 3), replace=False)
        G[i, cols] = rng.normal(size=cols.size)
    G[rng.integers(dims.total)] = rng.normal(size=nx)
    A = np.where(rng.random((ny, nx)) < 0.4, rng.normal(size=(ny, nx)), 0.0)
    return G, A


@pytest.mark.parametrize("dims", DIMS_CASES, ids=str)
def test_scattered_kkt_matches_dense(dims):
    rng = np.random.default_rng(300 + dims.total)
    G, A = random_sparse_program(rng, dims)
    pattern = _kkt_pattern(G, A, dims)
    for _ in range(10):
        s = random_interior(rng, dims)
        z = random_interior(rng, dims)
        K = _kkt_matrix(pattern, _nt_scaling(s, z, dims)).toarray()
        close(K, dense_kkt(G, A, nt_scaling_dense(s, z, dims)[1]))


@pytest.mark.parametrize("dims", DIMS_CASES, ids=str)
def test_refreshed_kkt_matches_fresh(dims):
    rng = np.random.default_rng(350 + dims.total)
    G, A = random_sparse_program(rng, dims)
    pattern = _kkt_pattern(G, A, dims)

    def scaling():
        return _nt_scaling(random_interior(rng, dims), random_interior(rng, dims), dims)

    K = _kkt_matrix(pattern, scaling())
    for _ in range(2):  # twice in a row, so that no stale value survives
        sc = scaling()
        _kkt_refresh(K, pattern, sc)
        fresh = _kkt_matrix(pattern, sc)
        assert np.array_equal(K.indptr, fresh.indptr)
        assert np.array_equal(K.indices, fresh.indices)
        assert np.array_equal(K.data, fresh.data)


@pytest.mark.parametrize("dims", DIMS_CASES, ids=str)
def test_sparse_constraint_products(dims):
    rng = np.random.default_rng(400 + dims.total)
    G, A = random_sparse_program(rng, dims)
    pattern = _kkt_pattern(G, A, dims)
    for M, dense in ((pattern.G, G), (pattern.GT, G.T), (pattern.A, A), (pattern.AT, A.T)):
        assert M.format == "csr"
        assert np.array_equal(M.toarray(), dense)
        u = rng.normal(size=dense.shape[1])
        close(M @ u, dense @ u)


@pytest.mark.parametrize("dims", DIMS_CASES, ids=str)
def test_reordered_kkt_is_a_symmetric_permutation(dims):
    rng = np.random.default_rng(450 + dims.total)
    G, A = random_sparse_program(rng, dims)
    pattern = _kkt_pattern(G, A, dims)
    position = rng.permutation(pattern.order)
    ordered = _reorder(pattern, position)
    p = ordered.perm
    assert np.array_equal(p[position], np.arange(pattern.order))
    assert np.array_equal(ordered.reg, pattern.reg[p])
    sc = _nt_scaling(random_interior(rng, dims), random_interior(rng, dims), dims)
    K = _kkt_matrix(pattern, sc).toarray()
    assert np.array_equal(_kkt_matrix(ordered, sc).toarray(), K[np.ix_(p, p)])


def test_fixed_order_fills_like_minimum_degree(surrogate47):
    # SuperLU's perm_c gives the new position of each column; taken as the
    # list of old columns instead, it fills L about four times as much
    for elastic in (False, True):
        c, G, h, dims, A = _build_program(surrogate47, elastic)
        prog = ConicProgram(c, G, h, dims, A)
        K = _kkt_matrix(_kkt_pattern(G, A, dims), prog.identity)
        fresh = _factor(K, "MMD_AT_PLUS_A")
        assert prog.factor.L.nnz == fresh.L.nnz
        assert prog.factor.U.nnz == fresh.U.nnz


def test_scattered_kkt_matches_dense_on_feeder(feeder6):
    rng = np.random.default_rng(4)
    for elastic in (False, True):
        _, G, _, dims, A = _build_program(feeder6, elastic)
        pattern = _kkt_pattern(G, A, dims)
        s = random_interior(rng, dims)
        z = random_interior(rng, dims)
        K = _kkt_matrix(pattern, _nt_scaling(s, z, dims))
        close(K.toarray(), dense_kkt(G, A, nt_scaling_dense(s, z, dims)[1]))
        # the pattern holds the structural nonzeros only
        assert K.nnz < 0.2 * K.shape[0] ** 2


def singular_splu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def test_singular_factor_reports_numerical(monkeypatch):
    c = np.array([1.0])
    G = np.array([[-1.0], [1.0]])
    h = np.array([0.0, 1.0])
    dims = ConeDims(nonneg=2)
    built = ConicProgram(c, G, h, dims)  # its first iteration fails
    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular_splu)
    for prog, iterations in ((built, 1), (ConicProgram(c, G, h, dims), 0)):
        res = solve_conic(prog)
        assert res.status == "numerical"
        assert res.iterations == iterations
        assert not res.meets(1e-6)


def test_singular_factor_falls_back_to_elastic(monkeypatch, feeder6):
    # a model of its own: the programs built under the patch fail for good,
    # and solve_baseline keeps them for as long as the model lives
    model = copy.deepcopy(feeder6)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular_splu)
    pattern = "primary \\(numerical\\).*elastic \\(numerical\\)"
    with pytest.raises(NumericalError, match=pattern):
        solve_baseline(model, zero_state(model))


# perfbench/tracing.py wraps these wherever a voltcraft module holds them and
# fails its traced run if one is never entered
TRACED = ("max_step", "min_eig", "jordan_prod", "jordan_div")


def test_traced_cone_operations_entered(monkeypatch, surrogate47):
    calls = dict.fromkeys(TRACED, 0)
    modules = [m for k, m in list(sys.modules.items())
               if k == "voltcraft" or k.startswith("voltcraft.")]
    for name in TRACED:
        original = getattr(conic, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    sol = solve_baseline(surrogate47, zero_state(surrogate47))
    assert sol.solver_iterations > 0
    assert all(calls.values()), calls
