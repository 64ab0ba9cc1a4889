"""Primal-dual interior-point solver for cone programs.

Solves the pair

    minimize    c'x                 maximize    -b'y - h'z
    subject to  A x = b             subject to  A'y + G'z + c = 0
                G x + s = h                     z in K*
                s in K

where K is a product of a nonnegative orthant and second-order cones
(t, u) with t >= ||u||. Mehrotra predictor-corrector with Nesterov-Todd
scaling. The scaling is stored compactly (a diagonal on the orthant, a
scalar and a vector per second-order block) and every cone operation acts on
all blocks at once through index arrays, so the cost of an iteration is
linear in the number of cone rows. The KKT system is reduced to the
quasi-definite form [[G'W^-2 G, A'], [A, 0]], whose sparsity pattern does not
change between iterations: it is worked out once per solve, and each
iteration writes new values into the data array of the one CSC matrix built
per solve and factors it with SuperLU, with static regularization and one pass
of iterative refinement. The constraint products use CSR copies of G, G', A
and A', also made once per solve.

Only numpy/scipy are used; no external solver is wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

STEP_FRACTION = 0.99
# stopping rule: both residuals under FEASTOL and the gap under ABSTOL or,
# relative to the objective, under RELTOL; MAX_ITER iterations at most
FEASTOL = 1e-9
ABSTOL = 1e-10
RELTOL = 1e-9
MAX_ITER = 100
# static regularization of the reduced KKT system; the refinement pass
# corrects the perturbation
KKT_REG = 1e-12


@dataclass(frozen=True)
class ConeDims:
    """Sizes of the cone blocks, orthant first, then second-order cones.

    The derived index arrays locate the second-order blocks in a cone
    vector: `heads` holds the first entry of each block, `tails` every other
    entry and `tail_block` the block number of each tail entry. On u[nonneg:],
    all SOC entries, `block` gives the block number, `sign` the diagonal of
    J = diag(1, -1, ..., -1) and `block3` the block of three such slices
    laid end to end, for per-block sums of three terms in one bincount.
    """

    nonneg: int = 0
    soc: tuple[int, ...] = ()
    heads: np.ndarray = field(init=False, repr=False, compare=False)
    tails: np.ndarray = field(init=False, repr=False, compare=False)
    tail_block: np.ndarray = field(init=False, repr=False, compare=False)
    block: np.ndarray = field(init=False, repr=False, compare=False)
    sign: np.ndarray = field(init=False, repr=False, compare=False)
    block3: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        soc = tuple(int(m) for m in self.soc)
        if self.nonneg < 0 or any(m < 1 for m in soc):
            raise ValueError(
                f"need nonneg >= 0 and SOC sizes >= 1, got {self.nonneg}, {soc}"
            )
        sizes = np.array(soc, dtype=int)
        heads = self.nonneg + np.cumsum(sizes) - sizes
        block = np.repeat(np.arange(len(soc)), sizes)  # of every SOC entry
        pos = self.nonneg + np.arange(block.size)
        tail = pos != heads[block]
        block3 = np.concatenate([block + j * len(soc) for j in range(3)])
        for name, value in (("soc", soc), ("heads", heads), ("tails", pos[tail]),
                            ("tail_block", block[tail]), ("block", block),
                            ("sign", np.where(tail, -1.0, 1.0)), ("block3", block3)):
            object.__setattr__(self, name, value)

    @property
    def total(self) -> int:
        return self.nonneg + sum(self.soc)

    @property
    def rank(self) -> int:
        # barrier degree: 1 per orthant entry, 1 per SOC block
        return self.nonneg + len(self.soc)


@dataclass
class ConicResult:
    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    z: np.ndarray
    status: str  # "optimal" | "max_iterations" | "numerical"
    iterations: int
    pres: float
    dres: float
    relgap: float = field(default=np.nan)
    pobj: float = field(default=np.nan)

    def meets(self, tol: float) -> bool:
        """True if the returned point satisfies all residuals at `tol`.

        A run that stalls numerically on a degenerate face can still carry a
        perfectly usable iterate; acceptance is a property of the point, not
        of the termination flag.
        """
        return bool(
            np.isfinite(self.pres)
            and max(self.pres, self.dres, self.relgap) <= tol
        )


# -- Jordan-algebra helpers on the block structure -------------------------


def _tail_dot(u: np.ndarray, w: np.ndarray, dims: ConeDims) -> np.ndarray:
    """Inner product of the tails of u and w, one entry per SOC block."""
    t = dims.tails
    return np.bincount(dims.tail_block, weights=u[t] * w[t], minlength=len(dims.soc))


def cone_identity(dims: ConeDims) -> np.ndarray:
    e = np.zeros(dims.total)
    e[: dims.nonneg] = 1.0
    e[dims.heads] = 1.0
    return e


def min_eig(u: np.ndarray, dims: ConeDims) -> float:
    """Smallest spectral value; positive iff u is strictly inside K."""
    soc = u[dims.heads] - np.sqrt(_tail_dot(u, u, dims))
    return np.concatenate([u[: dims.nonneg], soc]).min(initial=np.inf)


def jordan_prod(u: np.ndarray, w: np.ndarray, dims: ConeDims) -> np.ndarray:
    h, t, tb = dims.heads, dims.tails, dims.tail_block
    out = u * w
    out[h] += _tail_dot(u, w, dims)
    out[t] = u[h][tb] * w[t] + w[h][tb] * u[t]
    return out


def jordan_div(lmbda: np.ndarray, d: np.ndarray, dims: ConeDims) -> np.ndarray:
    """Solve lmbda o u = d blockwise (arrow-matrix inverse on SOC blocks)."""
    k, h, t, tb = dims.nonneg, dims.heads, dims.tails, dims.tail_block
    out = np.empty_like(d)
    out[:k] = d[:k] / lmbda[:k]
    l0 = lmbda[h]
    det = l0 * l0 - _tail_dot(lmbda, lmbda, dims)
    u0 = (l0 * d[h] - _tail_dot(lmbda, d, dims)) / det
    out[h] = u0
    out[t] = (d[t] - u0[tb] * lmbda[t]) / l0[tb]
    return out


def _soc_sums(dims: ConeDims, *terms: np.ndarray) -> np.ndarray:
    """Sum over each SOC block of each of three terms given on the SOC entries."""
    nb = len(dims.soc)
    return np.bincount(dims.block3, weights=np.concatenate(terms),
                       minlength=3 * nb).reshape(3, nb)


def max_step(u: np.ndarray, du: np.ndarray, dims: ConeDims) -> float:
    """Largest t with u + t*du in K (u strictly inside); inf if unbounded."""
    k, h, sgn = dims.nonneg, dims.heads, dims.sign
    us, ds = u[k:], du[k:]
    sd = sgn * ds
    # boundary of (u0+t d0)^2 - ||u1+t d1||^2 = qa t^2 + qb t + qc = 0
    qa, qb, qc = _soc_sums(dims, sd * ds, 2.0 * sd * us, sgn * us * us)
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(qb * qb - 4.0 * qa * qc)
        two_qa = 2.0 * qa
        t = np.concatenate([
            -u[:k] / du[:k],
            (-qb - sq) / two_qa,
            (sq - qb) / two_qa,
            np.where(qa == 0.0, -qc / qb, np.nan),  # the root of a linear qa = 0
            -u[h] / du[h],
        ])
    # u is strictly inside K, so a candidate is positive iff its crossing lies
    # ahead (du < 0 on the orthant, d0 < 0 at a head, qb < 0 for the linear
    # root); NaN, from a negative discriminant or qa == 0, never is
    return np.where(t > 0.0, t, np.inf).min(initial=np.inf)


# -- Nesterov-Todd scaling -------------------------------------------------


def _hyperbolic(out, u, a, f, dims: ConeDims) -> None:
    """out_k = f_k (2 a_k (a_k'u_k) - J u_k) on every SOC block k, in place."""
    k, blk = dims.nonneg, dims.block
    us, a_s = u[k:], a[k:]
    dot = np.bincount(blk, weights=a_s * us, minlength=len(dims.soc))
    out[k:] = f[blk] * (2.0 * a_s * dot[blk] - dims.sign * us)


@dataclass
class _Scaling:
    """Nesterov-Todd scaling W, stored block-wise, plus the scaling point lambda.

    W is symmetric and satisfies W z = W^-1 s = lambda for the current
    iterate. On the orthant W = diag(w) with w = sqrt(s/z). On each SOC
    block it is the hyperbolic Householder form beta * (2 v v' - J), with
    J = diag(1, -1, ..., -1) and v'Jv = 1, whose inverse is
    (2 Jv v'J - J) / beta. `v` holds the SOC vectors at their positions in
    the cone vector (zero on the orthant).
    """

    dims: ConeDims
    w: np.ndarray
    beta: np.ndarray
    v: np.ndarray
    lmbda: np.ndarray
    Jv: np.ndarray = field(init=False, repr=False)
    inv_beta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.Jv = self.v.copy()
        self.Jv[self.dims.nonneg :] *= self.dims.sign
        self.inv_beta = 1.0 / self.beta

    def scale(self, u: np.ndarray) -> np.ndarray:
        """W u."""
        k = self.dims.nonneg
        out = np.empty_like(u)
        out[:k] = self.w * u[:k]
        _hyperbolic(out, u, self.v, self.beta, self.dims)
        return out

    def unscale(self, u: np.ndarray) -> np.ndarray:
        """W^-1 u."""
        k = self.dims.nonneg
        out = np.empty_like(u)
        out[:k] = u[:k] / self.w
        _hyperbolic(out, u, self.Jv, self.inv_beta, self.dims)
        return out

    @cached_property
    def inverse_square(self):
        """W^-2 as (d, f, a): diag(d) plus f_k a_k a_k' on every SOC block k.

        On each block W^2 = beta^2 (2 wbar wbar' - J) with the NT point wbar
        of unit hyperbolic norm (wbar'J wbar = 1), so
        W^-2 = (2 J wbar wbar'J - J) / beta^2; and wbar = 2 v_0 v - e follows
        from v = (wbar + e) / sqrt(2 (wbar_0 + 1)).
        """
        dims = self.dims
        k, h, blk = dims.nonneg, dims.heads, dims.block
        inv_b2 = self.inv_beta * self.inv_beta
        d = np.empty(dims.total)
        d[:k] = 1.0 / (self.w * self.w)
        d[k:] = -dims.sign * inv_b2[blk]
        a = np.zeros(dims.total)  # J wbar, zero on the orthant
        v0 = self.v[h]
        a[k:] = -2.0 * v0[blk] * self.v[k:]
        a[h] = 2.0 * v0 * v0 - 1.0
        return d, 2.0 * inv_b2, a

    def unscale2(self, u: np.ndarray) -> np.ndarray:
        """W^-2 u in one pass, as (2 a_k a_k' - J) / beta_k^2 on each block."""
        d, f, a = self.inverse_square
        out = d * u
        _hyperbolic(out, u, a, 0.5 * f, self.dims)
        return out


def _nt_scaling(s: np.ndarray, z: np.ndarray, dims: ConeDims) -> _Scaling:
    k, blk, sgn = dims.nonneg, dims.block, dims.sign
    s1, z1 = s[k:], z[k:]
    ss, zz, sz = _soc_sums(dims, sgn * s1 * s1, sgn * z1 * z1, s1 * z1)
    aa, bb = np.sqrt(ss), np.sqrt(zz)
    beta = np.sqrt(aa / bb)
    gamma = np.sqrt((1.0 + sz / (aa * bb)) / 2.0)
    # NT point normalized to unit hyperbolic norm, then its square root:
    # W^2 = (aa/bb) * (2 wbar wbar' - J) satisfies W^2 z = s, and
    # W = beta * (2 v v' - J) with v = (wbar + e) / sqrt(2 (wbar0 + 1)).
    wbar = (s1 / aa[blk] + sgn * z1 / bb[blk]) / (2.0 * gamma[blk])
    h = dims.heads - k  # the heads within the SOC entries
    root = np.sqrt(2.0 * (wbar[h] + 1.0))
    wbar[h] += 1.0
    v = np.zeros(dims.total)
    v[k:] = wbar / root[blk]
    lmbda = np.empty(dims.total)
    lmbda[:k] = np.sqrt(s[:k] * z[:k])
    _hyperbolic(lmbda, z, v, beta, dims)
    return _Scaling(dims=dims, w=np.sqrt(s[:k] / z[:k]), beta=beta, v=v, lmbda=lmbda)


# -- the reduced KKT system ------------------------------------------------


def _group_pairs(group: np.ndarray, n_groups: int):
    """All ordered pairs (a, b) of positions whose sorted group ids are equal."""
    size = np.bincount(group, minlength=n_groups)
    start = np.cumsum(size) - size
    reps = size[group]
    first = np.cumsum(reps) - reps  # where the pairs of each position begin
    a = np.repeat(np.arange(group.size), reps)
    b = np.repeat(start[group] - first, reps) + np.arange(a.size)
    return a, b


@dataclass
class _KKTPattern:
    """Fixed sparsity pattern of K = [[G'W^-2 G + delta I, A'], [A, -delta I]].

    W^-2 = diag(d) + sum_k f_k a_k a_k', so G'W^-2 G couples two columns of
    G when they have nonzeros in one row (the diagonal part), or in one SOC
    block (the rank-one part). `slot` maps each such term, diagonal terms
    first, to its entry of the CSC data array. G, G', A and A' ride along in
    CSR form for the products of each iteration.
    """

    order: int
    indices: np.ndarray
    indptr: np.ndarray
    base: np.ndarray  # the constant entries: A, A' and the regularization
    reg: np.ndarray  # +delta on the x block, -delta on the y block
    slot: np.ndarray
    row_coef: np.ndarray  # G[i, p] G[i, q] of each same-row pair
    row: np.ndarray  # its row i
    soc_row: np.ndarray  # row of each nonzero of G in a SOC block
    soc_val: np.ndarray  # its value
    soc_col: np.ndarray  # its (block, column) index, each used at least once
    col_a: np.ndarray  # (block, column) pairs of the rank-one part
    col_b: np.ndarray
    pair_block: np.ndarray  # the block of each pair
    G: scipy.sparse.csr_matrix
    GT: scipy.sparse.csr_matrix
    A: scipy.sparse.csr_matrix
    AT: scipy.sparse.csr_matrix


def _nonzeros(M: np.ndarray):
    """Row, column and value of every nonzero of M, in row-major order."""
    flat = np.flatnonzero(M != 0.0)  # far faster than a 2-D nonzero
    return flat // M.shape[1], flat % M.shape[1], M.ravel()[flat]


def _csr(rows, cols, vals, shape):
    """CSR matrix from its nonzeros, sorted by row."""
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1))
    return scipy.sparse.csr_matrix((vals, cols, indptr), shape=shape)


def _kkt_pattern(G: np.ndarray, A: np.ndarray, dims: ConeDims) -> _KKTPattern:
    ny, nx = A.shape
    N = nx + ny
    gi, gp, gv = _nonzeros(G)  # row-major, so grouped by row and by block
    a, b = _group_pairs(gi, dims.total)
    row_keys = gp[b] * N + gp[a]

    on_soc = gi >= dims.nonneg
    block_col, soc_col = np.unique(
        dims.block[gi[on_soc] - dims.nonneg] * nx + gp[on_soc], return_inverse=True
    )
    col_block = block_col // nx
    col = block_col % nx
    col_a, col_b = _group_pairs(col_block, len(dims.soc))
    soc_keys = col[col_b] * N + col[col_a]

    ai, ac, av = _nonzeros(A)
    reg = np.concatenate([np.full(nx, KKT_REG), np.full(ny, -KKT_REG)])
    diag = np.arange(N)
    const_keys = np.concatenate([diag * N + diag, ac * N + nx + ai, (nx + ai) * N + ac])
    keys, where = np.unique(
        np.concatenate([row_keys, soc_keys, const_keys]), return_inverse=True
    )
    n_var = row_keys.size + soc_keys.size
    gt, at = np.argsort(gp, kind="stable"), np.argsort(ac, kind="stable")  # by column
    return _KKTPattern(
        order=N,
        indices=keys % N,
        indptr=np.searchsorted(keys, np.arange(N + 1) * N),
        base=np.bincount(where[n_var:], weights=np.concatenate([reg, av, av]),
                         minlength=keys.size),
        reg=reg,
        slot=where[:n_var],
        row_coef=gv[a] * gv[b],
        row=gi[a],
        soc_row=gi[on_soc],
        soc_val=gv[on_soc],
        soc_col=soc_col,
        col_a=col_a,
        col_b=col_b,
        pair_block=col_block[col_a],
        G=_csr(gi, gp, gv, G.shape), GT=_csr(gp[gt], gi[gt], gv[gt], G.T.shape),
        A=_csr(ai, ac, av, A.shape), AT=_csr(ac[at], ai[at], av[at], A.T.shape),
    )


def _kkt_matrix(pat: _KKTPattern, sc: _Scaling) -> scipy.sparse.csc_matrix:
    """K at scaling `sc` on the fixed pattern."""
    K = scipy.sparse.csc_matrix((np.empty(pat.base.size), pat.indices, pat.indptr),
                                shape=(pat.order, pat.order))
    _kkt_refresh(K, pat, sc)
    return K


def _kkt_refresh(K: scipy.sparse.csc_matrix, pat: _KKTPattern, sc: _Scaling) -> None:
    """Overwrite the values of K, built by _kkt_matrix, with those at `sc`."""
    d, f, a = sc.inverse_square
    # G_k'a_k for every block k, on the columns the block touches
    g = np.bincount(pat.soc_col, weights=pat.soc_val * a[pat.soc_row])
    vals = np.concatenate([
        pat.row_coef * d[pat.row],
        f[pat.pair_block] * g[pat.col_a] * g[pat.col_b],
    ])
    np.add(pat.base, np.bincount(pat.slot, weights=vals, minlength=pat.base.size),
           out=K.data)


# -- the solver ------------------------------------------------------------


# overflow on a diverging iterate is caught by the finiteness guards
@np.errstate(over="ignore", invalid="ignore")
def solve_conic(
    c: np.ndarray,
    G: np.ndarray,
    h: np.ndarray,
    dims: ConeDims,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
) -> ConicResult:
    c = np.asarray(c, dtype=float)
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    nx = c.size
    if A is None:
        A = np.zeros((0, nx))
        b = np.zeros(0)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    ny = b.size
    m = dims.total
    if G.shape != (m, nx) or A.shape != (ny, nx):
        raise ValueError("constraint matrix shapes disagree with dims")

    e = cone_identity(dims)
    rank = dims.rank
    pattern = _kkt_pattern(G, A, dims)
    G, GT, A, AT = pattern.G, pattern.GT, pattern.A, pattern.AT

    def kkt_factor():
        try:
            # a symmetric fill-reducing order with diagonal pivots suits a
            # quasi-definite K; no supernode relaxation or panels, which
            # only cost time on a matrix this sparse
            return scipy.sparse.linalg.splu(
                K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                relax=1, panel_size=1, options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # SuperLU: the factor is exactly singular
            raise np.linalg.LinAlgError(str(exc)) from exc

    def kkt_solve(factor, sc, rx, ry, rz_scaled):
        # eliminate dz = W^-1 (W^-1 G dx - rz_scaled) from
        #   G'W^-2 G dx + A'dy = rx + G'W^-1 rz_scaled ; A dx = ry
        # where rz_scaled = W^-1 rz - lambda \ ds_target
        w_rz = sc.unscale(rz_scaled)
        rhs = np.concatenate([rx + GT @ w_rz, ry])
        sol = factor.solve(rhs)
        # one round of iterative refinement against the unregularized system
        resid = rhs - (K @ sol - pattern.reg * sol)
        sol = sol + factor.solve(resid)
        if not np.isfinite(sol).all():
            raise FloatingPointError("KKT solve produced non-finite values")
        dx, dy = sol[:nx], sol[nx:]
        return dx, dy, sc.unscale2(G @ dx) - w_rz

    def into_cone(u):
        me = min_eig(u, dims)
        return u if me > 0.0 else u + (1.0 + abs(me)) * e

    # -- starting point: least-norm primal/dual estimates nudged into K
    try:
        identity = _nt_scaling(e, e, dims)  # W = I
        K = _kkt_matrix(pattern, identity)  # each iteration refreshes its values
        factor = kkt_factor()
        x, y, _ = kkt_solve(factor, identity, np.zeros(nx), b, h)
        s = into_cone(h - G @ x)
        z = into_cone(kkt_solve(factor, identity, -c, np.zeros(ny), np.zeros(m))[2])
    except (np.linalg.LinAlgError, FloatingPointError, ValueError):
        return ConicResult(
            x=np.full(nx, np.nan), s=np.full(m, np.nan), y=np.full(ny, np.nan),
            z=np.full(m, np.nan), status="numerical", iterations=0,
            pres=np.nan, dres=np.nan,
        )

    bnorm = max(1.0, np.linalg.norm(b))
    hnorm = max(1.0, np.linalg.norm(h))
    cnorm = max(1.0, np.linalg.norm(c))

    def residuals():
        rd, rp, rg = c + AT @ y + GT @ z, A @ x - b, G @ x + s - h
        gap, pobj = s @ z, c @ x
        pres = max(np.linalg.norm(rp) / bnorm, np.linalg.norm(rg) / hnorm)
        dres = np.linalg.norm(rd) / cnorm
        return rd, rp, rg, gap, pobj, pres, dres, gap / max(1.0, abs(pobj))

    status = "max_iterations"
    it = 0
    for it in range(1, MAX_ITER + 1):
        rd, rp, rg, gap, pobj, pres, dres, relgap = residuals()
        if pres <= FEASTOL and dres <= FEASTOL and (gap <= ABSTOL or relgap <= RELTOL):
            status = "optimal"
            break
        mu = gap / rank

        try:
            sc = _nt_scaling(s, z, dims)
            lmbda = sc.lmbda
            _kkt_refresh(K, pattern, sc)
            factor = kkt_factor()

            # predictor: pure Newton direction toward the central path at 0,
            # whose ds target -lambda o lambda gives lambda \ target = -lambda
            w_rg = sc.unscale(-rg)
            dxa, dya, dza = kkt_solve(factor, sc, -rd, -rp, w_rg + lmbda)
            dsa = -rg - G @ dxa

            alpha_p = max_step(s, dsa, dims)
            alpha_d = max_step(z, dza, dims)
            alpha_aff = min(1.0, alpha_p, alpha_d)
            gap_aff = (s + alpha_aff * dsa) @ (z + alpha_aff * dza)
            sigma = max(0.0, min(1.0, gap_aff / gap)) ** 3

            # corrector with Mehrotra second-order term
            eta = jordan_prod(sc.unscale(dsa), sc.scale(dza), dims)
            target = -jordan_prod(lmbda, lmbda, dims) - eta + sigma * mu * e
            scale = 1.0 - sigma
            rz_scaled = scale * w_rg - jordan_div(lmbda, target, dims)
            dx, dy, dz = kkt_solve(factor, sc, -scale * rd, -scale * rp, rz_scaled)
            ds = -scale * rg - G @ dx
        except (np.linalg.LinAlgError, FloatingPointError, ValueError):
            status = "numerical"
            break

        alpha = STEP_FRACTION * min(max_step(s, ds, dims), max_step(z, dz, dims))
        alpha = min(1.0, alpha)
        if not np.isfinite(alpha) or alpha <= 0.0:
            status = "numerical"
            break
        x_n, y_n = x + alpha * dx, y + alpha * dy
        z_n, s_n = z + alpha * dz, s + alpha * ds
        if min_eig(s_n, dims) <= 0.0 or min_eig(z_n, dims) <= 0.0:
            status = "numerical"
            break
        x, y, z, s = x_n, y_n, z_n, s_n

    *_, pobj, pres, dres, relgap = residuals()
    return ConicResult(
        x=x, s=s, y=y, z=z, status=status, iterations=it,
        pres=float(pres), dres=float(dres), relgap=float(relgap), pobj=float(pobj),
    )
