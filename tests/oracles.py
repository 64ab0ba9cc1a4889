"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's solver internals: the two-bus case is
a closed-form quadratic, and the general case runs a successive-substitution
sweep on complex phasors (voltages and currents) rather than on the squared
branch-flow variables. The cone operations and the Nesterov-Todd scaling are
the interior-point solver's original versions, one cone block at a time with
dense blocks, kept as references for its vectorised ones. The masked logistic
is the policy head's original one, kept as the reference for its branch-free
one. The training loop is the trainer's original one, which keeps every
applied loss in a list of its own and takes the control variate from it.
"""

from __future__ import annotations

import math

import numpy as np

from voltcraft.policy import (
    get_flat_params,
    grad_log_prob,
    init_policy,
    policy_distribution,
    sample,
    set_flat_params,
)
from voltcraft.powerflow import evaluate_loss


def two_bus_closed_form(r, x, p_inj, q_inj, v0=1.0):
    """Single line, net injection (p_inj, q_inj) at the far bus.

    Eliminating P = r*l - p_inj and Q = x*l - q_inj from l*v0 = P^2 + Q^2
    leaves one quadratic in l; the physical (high-voltage) branch is the
    smaller root. Returns (P, Q, l, v1).
    """
    a, b = -p_inj, -q_inj  # net consumption
    z2 = r * r + x * x
    if z2 == 0:
        raise ValueError("zero impedance")
    coef_b = 2.0 * (a * r + b * x) - v0
    coef_c = a * a + b * b
    disc = coef_b * coef_b - 4.0 * z2 * coef_c
    if disc < 0:
        raise ValueError("no real power-flow solution for this loading")
    l = (-coef_b - math.sqrt(disc)) / (2.0 * z2)
    P = a + r * l
    Q = b + x * l
    v1 = v0 - 2.0 * (r * P + x * Q) + z2 * l
    return P, Q, l, v1


def phasor_sweep(parent, r, x, p_inj, q_inj, v0=1.0, tol=1e-14, max_iter=500):
    """Backward/forward sweep on complex voltages and currents.

    parent[i] is the parent bus of bus i+1 (0 = substation). Injections are
    per non-root bus, generation positive. Returns (P, Q, l, v) in the
    squared-variable convention: P, Q, l per line (indexed by child bus),
    v per bus including the substation.
    """
    parent = np.asarray(parent, dtype=int)
    z = np.asarray(r, dtype=float) + 1j * np.asarray(x, dtype=float)
    s = np.asarray(p_inj, dtype=float) + 1j * np.asarray(q_inj, dtype=float)
    n = len(parent)

    depth = np.zeros(n + 1, dtype=int)
    for bus in range(1, n + 1):
        node, d = bus, 0
        while node != 0:
            node = parent[node - 1]
            d += 1
        depth[bus] = d
    deepest_first = sorted(range(1, n + 1), key=lambda b: -depth[b])
    shallowest_first = deepest_first[::-1]

    V = np.full(n + 1, complex(math.sqrt(v0)))
    I = np.zeros(n, dtype=complex)  # branch current into each child bus
    for _ in range(max_iter):
        # backward: draw currents from the latest voltages, fold children
        # into parents (deepest first, so subtrees are complete when read)
        I_new = -np.conj(s / V[1:])
        for bus in deepest_first:
            par = parent[bus - 1]
            if par != 0:
                I_new[par - 1] += I_new[bus - 1]
        # forward: voltage drops from the substation outwards
        V_new = V.copy()
        for bus in shallowest_first:
            V_new[bus] = V_new[parent[bus - 1]] - z[bus - 1] * I_new[bus - 1]
        delta = max(np.max(np.abs(V_new - V)), np.max(np.abs(I_new - I)))
        V, I = V_new, I_new
        if delta < tol:
            break
    else:
        raise RuntimeError("phasor sweep did not converge")

    l = np.abs(I) ** 2
    v = np.abs(V) ** 2
    S_front = np.array([V[parent[i]] * np.conj(I[i]) for i in range(n)])
    return S_front.real, S_front.imag, l, v


# -- policy head ------------------------------------------------------------


def sigmoid_masked(z):
    """The policy's original logistic: each sign through its own boolean mask."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# -- training loop ----------------------------------------------------------


def training_reference(network, states, config, hidden):
    """Train as `trainer.run_training` does, with the control variate taken as
    the window mean of an explicit list of the losses of applied batches.
    Returns the flat parameters and the running average of every record."""
    pol = init_policy(network, hidden=hidden, seed=config.seed,
                      sigma_floor=config.sigma_floor)
    X = np.stack([np.concatenate([s.p, s.q_c]) for s in states])
    std = X.std(axis=0)
    pol.input_mean, pol.input_std = X.mean(axis=0), np.where(std < 1e-12, 1.0, std)
    theta = get_flat_params(pol)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    raw, running_avg, applied_losses, batch = [], [], [], []
    step = 0

    def update():
        nonlocal theta, m, v, step
        if config.baseline_mode == "running_mean" and applied_losses:
            b = float(np.mean(np.asarray(applied_losses)[-config.baseline_window:]))
        else:
            b = 0.0
        g = np.zeros_like(theta)
        for score, loss in batch:
            g += (loss - b) * score
        g /= len(batch)
        norm = float(np.linalg.norm(g))
        if norm > config.grad_clip:
            g = g * (config.grad_clip / norm)
        step += 1
        if config.optimizer == "sgd":
            theta = theta - config.learning_rate * g
        else:
            b1, b2 = config.adam_beta1, config.adam_beta2
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat, v_hat = m / (1.0 - b1**step), v / (1.0 - b2**step)
            theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
        set_flat_params(pol, theta)
        applied_losses.extend(loss for _, loss in batch)
        batch.clear()

    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        for idx in rng.permutation(len(states)):
            s = states[idx]
            q = sample(policy_distribution(pol, s), rng)
            loss = evaluate_loss(network, s, q, penalty_coeff=config.penalty_coeff).penalized
            raw.append(float(loss))
            running_avg.append(float(np.mean(raw[-config.baseline_window:])))
            batch.append((grad_log_prob(pol, s, q), loss))
            if len(batch) == config.batch_size:
                update()
    if batch:
        update()
    return theta, running_avg


# -- truncated-Gaussian references (quadrature, no scipy.special) ----------


def _gauss_density(mu, sigma):
    norm = sigma * math.sqrt(2.0 * math.pi)
    return lambda x: math.exp(-0.5 * ((x - mu) / sigma) ** 2) / norm


def trunc_mass_quad(mu, sigma, lo, hi):
    """Normalizer of the truncated Gaussian by adaptive quadrature."""
    from scipy.integrate import quad

    mass, _ = quad(_gauss_density(mu, sigma), lo, hi, epsabs=1e-14, epsrel=1e-12)
    return mass


def trunc_logpdf_quad(q, mu, sigma, lo, hi):
    """1-D truncated-normal log-density with a quadrature normalizer."""
    t = (q - mu) / sigma
    return (
        -0.5 * t * t
        - math.log(sigma * math.sqrt(2.0 * math.pi))
        - math.log(trunc_mass_quad(mu, sigma, lo, hi))
    )


def trunc_moments_quad(mu, sigma, lo, hi):
    """Mean and standard deviation of the truncated Gaussian by quadrature."""
    from scipy.integrate import quad

    dens = _gauss_density(mu, sigma)
    mass = trunc_mass_quad(mu, sigma, lo, hi)
    m1, _ = quad(lambda x: x * dens(x), lo, hi, epsabs=1e-14, epsrel=1e-12)
    m1 /= mass
    var, _ = quad(
        lambda x: (x - m1) ** 2 * dens(x), lo, hi, epsabs=1e-14, epsrel=1e-12
    )
    return m1, math.sqrt(var / mass)


def dmu_expectation_quad(f, mu, sigma, lo, hi, h=1e-5):
    """d/dmu of E[f(q)] under the truncated Gaussian, by central difference
    of quadrature integrals (step h, error O(h^2))."""
    from scipy.integrate import quad

    def expect(m):
        dens = _gauss_density(m, sigma)
        mass = trunc_mass_quad(m, sigma, lo, hi)
        val, _ = quad(
            lambda x: f(x) * dens(x), lo, hi, epsabs=1e-14, epsrel=1e-12
        )
        return val / mass

    return (expect(mu + h) - expect(mu - h)) / (2.0 * h)


# -- cone operations, one block at a time (loop references) ---------------


def cone_blocks(dims):
    """Yield (start, stop, is_soc) for every cone block."""
    if dims.nonneg:
        yield 0, dims.nonneg, False
    idx = dims.nonneg
    for m in dims.soc:
        yield idx, idx + m, True
        idx += m


def min_eig_loop(u, dims):
    worst = np.inf
    for a, b, soc in cone_blocks(dims):
        blk = u[a:b]
        if soc:
            worst = min(worst, blk[0] - np.linalg.norm(blk[1:]))
        elif blk.size:
            worst = min(worst, np.min(blk))
    return worst


def jordan_prod_loop(u, w, dims):
    out = np.empty_like(u)
    for a, b, soc in cone_blocks(dims):
        if soc:
            out[a] = u[a:b] @ w[a:b]
            out[a + 1 : b] = u[a] * w[a + 1 : b] + w[a] * u[a + 1 : b]
        else:
            out[a:b] = u[a:b] * w[a:b]
    return out


def jordan_div_loop(lmbda, d, dims):
    out = np.empty_like(d)
    for a, b, soc in cone_blocks(dims):
        if soc:
            l0, l1 = lmbda[a], lmbda[a + 1 : b]
            det = l0 * l0 - l1 @ l1
            u0 = (l0 * d[a] - l1 @ d[a + 1 : b]) / det
            out[a] = u0
            out[a + 1 : b] = (d[a + 1 : b] - u0 * l1) / l0
        else:
            out[a:b] = d[a:b] / lmbda[a:b]
    return out


def max_step_loop(u, du, dims):
    t_max = np.inf
    for a, b, soc in cone_blocks(dims):
        if soc:
            u0, u1 = u[a], u[a + 1 : b]
            d0, d1 = du[a], du[a + 1 : b]
            qa = d0 * d0 - d1 @ d1
            qb = 2.0 * (u0 * d0 - u1 @ d1)
            qc = u0 * u0 - u1 @ u1
            disc = qb * qb - 4.0 * qa * qc
            if disc >= 0.0:
                sq = np.sqrt(disc)
                for root in ((-qb - sq), (-qb + sq)):
                    if qa != 0.0:
                        t = root / (2.0 * qa)
                        if t > 0.0:
                            t_max = min(t_max, t)
                if qa == 0.0 and qb < 0.0:
                    t_max = min(t_max, -qc / qb)
            if d0 < 0.0:
                t_max = min(t_max, -u0 / d0)
        else:
            neg = du[a:b] < 0.0
            if np.any(neg):
                t_max = min(t_max, np.min(-u[a:b][neg] / du[a:b][neg]))
    return t_max


def dense_scaling(sc):
    """Dense W and W^-1 of a block-wise scaling, column by column."""
    eye = np.eye(sc.dims.total)
    W = np.column_stack([sc.scale(col) for col in eye])
    Winv = np.column_stack([sc.unscale(col) for col in eye])
    return W, Winv


def nt_scaling_dense(s, z, dims):
    """Dense Nesterov-Todd W, W^-1 and lambda = W z, built block by block."""
    m = dims.total
    W = np.zeros((m, m))
    Winv = np.zeros((m, m))
    lmbda = np.empty(m)
    for a, b, soc in cone_blocks(dims):
        sk, zk = s[a:b], z[a:b]
        if not soc:
            w = np.sqrt(sk / zk)
            W[a:b, a:b] = np.diag(w)
            Winv[a:b, a:b] = np.diag(1.0 / w)
            lmbda[a:b] = np.sqrt(sk * zk)
            continue
        aa = np.sqrt(sk[0] ** 2 - sk[1:] @ sk[1:])
        bb = np.sqrt(zk[0] ** 2 - zk[1:] @ zk[1:])
        beta = np.sqrt(aa / bb)
        gamma = np.sqrt((1.0 + (sk @ zk) / (aa * bb)) / 2.0)
        wbar = np.empty(b - a)
        wbar[0] = sk[0] / aa + zk[0] / bb
        wbar[1:] = sk[1:] / aa - zk[1:] / bb
        wbar /= 2.0 * gamma
        v = wbar.copy()
        v[0] += 1.0
        v /= np.sqrt(2.0 * (wbar[0] + 1.0))
        J = np.diag(np.concatenate(([1.0], -np.ones(b - a - 1))))
        Jv = J @ v
        W[a:b, a:b] = beta * (2.0 * np.outer(v, v) - J)
        Winv[a:b, a:b] = (2.0 * np.outer(Jv, Jv) - J) / beta
        lmbda[a:b] = W[a:b, a:b] @ zk
    return W, Winv, lmbda
