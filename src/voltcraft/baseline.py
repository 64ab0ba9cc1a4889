"""Jointly optimal inverter setpoints via second-order cone relaxation.

The nonconvex branch-flow equality ell = (P^2 + Q^2) / v_parent is relaxed to
the inequality ell >= (P^2 + Q^2) / v_parent, written as a standard cone

    || (2P, 2Q, ell - v_parent) ||  <=  ell + v_parent

which avoids dividing by v. Minimizing line loss over this convex set gives a
lower bound on the achievable loss; when every cone is tight at the optimum
(`OpfSolution.exact`, from the per-line `cone_residuals`) the relaxed point
is an actual operating point and the bound is attained.

Only the net injections depend on the interval, and they enter only the
right-hand side b of the equality rows; the cone program without b depends
on the feeder alone. So each `NetworkModel` gets one prepared
`ConicProgram`, built on its first solve and kept in a weak-keyed cache that
keeps no model alive, and every solve only sets b.

A brute-force action-grid oracle is included for cross-validation on feeders
with at most three inverters, plus an elastic re-solve that diagnoses genuine
voltage infeasibility instead of failing opaquely; its program is built on a
feeder's first failed solve.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .conic import ConeDims, ConicProgram, solve_conic
from .errors import (
    Infeasible,
    MaxIterations,
    NoFeasiblePoint,
    NumericalError,
    TooManyInverters,
)
from .network import GridState, NetworkModel
from .powerflow import PowerFlowSolution, evaluate_loss

GRID_ORACLE_MAX_INVERTERS = 3
KKT_TOL = 1e-8  # largest residual of an accepted solve
FEAS_TOL = 1e-8  # band violation the elastic re-solve still counts as feasible
EXACT_TOL = 1e-6  # largest cone slack of an exact relaxation


@dataclass
class OpfSolution:
    """Relaxation optimum plus certificates."""

    q_g_star: np.ndarray
    flows: PowerFlowSolution
    objective: float
    cone_residuals: np.ndarray  # (P^2+Q^2)/v_parent - ell per line, <= 0 feasible
    exact: bool
    kkt_residual: float
    solver_iterations: int  # interior-point iterations; 0 for the grid oracle
    solver_status: str  # ConicResult.status of the accepted solve; "grid" (oracle)


def _cone_slacks(model: NetworkModel, P, Q, ell, v) -> np.ndarray:
    vpar = v[model.parent]
    return (P**2 + Q**2) / vpar - ell


def _build_program(model: NetworkModel, elastic: bool):
    """Assemble (c, G, h, dims, A) of the relaxed loss minimization.

    Variable layout: [q_g (M), P (N), Q (N), ell (N), v (N), (u (N) if
    elastic)]. The elastic variant relaxes the voltage band by a nonnegative
    per-bus slack u and minimizes its sum, which measures infeasibility.
    Row i of each equality group and SOC block i belong to the line into
    bus i+1; `_rhs` gives their right-hand side b.
    """
    n, m = model.n, model.n_inverters
    iq, iP, iQ, iL, iV = 0, m, m + n, m + 2 * n, m + 3 * n
    nx = m + 4 * n + (n if elastic else 0)
    iU = m + 4 * n
    r, x = model.r, model.x
    bus = np.arange(n)
    par = model.parent - 1  # line into the parent bus; -1 at the substation
    fed = par >= 0
    kid, up = bus[fed], par[fed]
    inv = np.arange(m)

    A = np.zeros((3 * n, nx))
    # active balance: P_i - sum(P_kids) - r ell = -p
    A[bus, iP + bus] = 1.0
    A[up, iP + kid] = -1.0
    A[bus, iL + bus] = -r
    # reactive balance: Q_i - sum(Q_kids) - x ell + q_g(at bus) = q_c
    A[n + bus, iQ + bus] = 1.0
    A[n + up, iQ + kid] = -1.0
    A[n + bus, iL + bus] = -x
    A[n + model.inverter_buses - 1, iq + inv] = 1.0
    # voltage drop: v_i - v_parent + 2rP + 2xQ - (r^2+x^2) ell = 0, with
    # v_parent = v0 moved to the right-hand side on a line out of the substation
    A[2 * n + bus, iV + bus] = 1.0
    A[2 * n + bus, iP + bus] = 2.0 * r
    A[2 * n + bus, iQ + bus] = 2.0 * x
    A[2 * n + bus, iL + bus] = -(r**2 + x**2)
    A[2 * n + kid, iV + up] = -1.0

    n_orth = 2 * m + 2 * n + (n if elastic else 0)
    G = np.zeros((n_orth + 4 * n, nx))
    h = np.zeros(n_orth + 4 * n)
    G[inv, iq + inv] = 1.0
    h[:m] = model.q_hi
    G[m + inv, iq + inv] = -1.0
    h[m : 2 * m] = -model.q_lo
    hi, lo = 2 * m + bus, 2 * m + n + bus
    G[hi, iV + bus] = 1.0
    h[hi] = model.v_max[1:]
    G[lo, iV + bus] = -1.0
    h[lo] = -model.v_min[1:]
    if elastic:
        G[hi, iU + bus] = -1.0
        G[lo, iU + bus] = -1.0
        G[2 * m + 2 * n + bus, iU + bus] = -1.0

    # (ell + v_par, 2P, 2Q, ell - v_par) in the second-order cone
    head = n_orth + 4 * bus
    G[head, iL + bus] = -1.0
    G[head + 1, iP + bus] = -2.0
    G[head + 2, iQ + bus] = -2.0
    G[head + 3, iL + bus] = -1.0
    G[head[fed], iV + up] = -1.0
    G[head[fed] + 3, iV + up] = 1.0
    h[head[~fed]] = model.v0
    h[head[~fed] + 3] = -model.v0
    dims = ConeDims(nonneg=n_orth, soc=(4,) * n)

    c = np.zeros(nx)
    if elastic:
        c[iU : iU + n] = 1.0
    else:
        c[iL : iL + n] = model.r
    return c, G, h, dims, A


def _rhs(model: NetworkModel, state: GridState) -> np.ndarray:
    """b of `_build_program`'s equality rows at `state`."""
    v_root = np.where(model.parent > 0, 0.0, model.v0)  # on lines out of the substation
    return np.concatenate([-state.p, state.q_c, v_root])


# model -> {elastic: its ConicProgram}. Weak keys, so that the cache keeps no
# model alive; an id() key could be reused by another model after collection.
_PROGRAMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _program(model: NetworkModel, elastic: bool) -> ConicProgram:
    """The model's prepared program, built on first use."""
    programs = _PROGRAMS.setdefault(model, {})
    if elastic not in programs:
        programs[elastic] = ConicProgram(*_build_program(model, elastic))
    return programs[elastic]


def _extract(model: NetworkModel, x: np.ndarray, kkt_residual: float,
             iterations: int, status: str = "optimal") -> OpfSolution:
    n, m = model.n, model.n_inverters
    q_g = x[:m].copy()
    P = x[m : m + n].copy()
    Q = x[m + n : m + 2 * n].copy()
    ell = x[m + 2 * n : m + 3 * n].copy()
    v = np.concatenate(([model.v0], x[m + 3 * n : m + 4 * n]))
    loss = float(model.r @ ell)
    slacks = _cone_slacks(model, P, Q, ell, v)
    max_slack = float(np.max(np.abs(slacks))) if n else 0.0
    # no power-flow sweep ran; the residual is that of the branch-flow
    # equality at the relaxed point
    flows = PowerFlowSolution(
        P=P, Q=Q, ell=ell, v=v, loss=loss, iterations=0,
        converged=True, max_residual=max_slack,
    )
    return OpfSolution(
        q_g_star=q_g,
        flows=flows,
        objective=loss,
        cone_residuals=slacks,
        exact=max_slack <= EXACT_TOL,
        kkt_residual=kkt_residual,
        solver_iterations=iterations,
        solver_status=status,
    )


def solve_baseline(model: NetworkModel, state: GridState) -> OpfSolution:
    """Minimize total line loss over inverter setpoints and the voltage band."""
    model.check_state(state)
    b = _rhs(model, state)
    res = solve_conic(_program(model, elastic=False), b)
    if res.meets(KKT_TOL):
        kkt = max(res.pres, res.dres, res.relgap)
        return _extract(model, res.x, kkt, res.iterations, res.status)

    # primary solve failed: measure how infeasible the band really is
    rese = solve_conic(_program(model, elastic=True), b)
    if not rese.meets(KKT_TOL):
        raise NumericalError(
            f"conic solver failed on both primary ({res.status}) and "
            f"elastic ({rese.status}) problems"
        )
    n, m = model.n, model.n_inverters
    u = rese.x[m + 4 * n :]
    max_violation = float(np.max(u)) if n else 0.0
    if max_violation > FEAS_TOL:
        raise Infeasible(
            f"voltage band unattainable; best effort violates it by "
            f"{max_violation:.3e} (squared per-unit)",
            max_violation=max_violation,
            least_violating=rese.x[:m].copy(),
        )
    raise MaxIterations(
        f"relaxation is feasible but the solver stalled ({res.status}, "
        f"pres {res.pres:.2e}, dres {res.dres:.2e}, relgap {res.relgap:.2e})"
    )


def grid_search_oracle(
    model: NetworkModel, state: GridState, points_per_axis: int
) -> OpfSolution:
    """Exhaustive evaluation of the exact power flow over an action grid.

    Violating points are rejected outright; ties break toward the
    lexicographically smallest action so results are order-independent.
    """
    m = model.n_inverters
    if m > GRID_ORACLE_MAX_INVERTERS:
        raise TooManyInverters(
            f"grid oracle is exponential in inverters; got {m} > "
            f"{GRID_ORACLE_MAX_INVERTERS}"
        )
    if points_per_axis < 3:
        raise ValueError("points_per_axis must be at least 3")
    axes = [
        np.linspace(model.q_lo[j], model.q_hi[j], points_per_axis)
        for j in range(m)
    ]
    best = None
    grid = np.meshgrid(*axes, indexing="ij") if m else []
    actions = (
        np.stack([g.ravel() for g in grid], axis=1)
        if m
        else np.zeros((1, 0))
    )
    for action in actions:
        ev = evaluate_loss(model, state, action)
        if not ev.feasible:
            continue
        key = (ev.objective, tuple(action))
        if best is None or key < best[0]:
            best = (key, action, ev)
    if best is None:
        raise NoFeasiblePoint(
            f"no voltage-feasible action on a {points_per_axis}^{m} grid"
        )
    _, action, ev = best
    sol = ev.solution
    slacks = _cone_slacks(model, sol.P, sol.Q, sol.ell, sol.v)
    return OpfSolution(
        q_g_star=np.asarray(action, dtype=float),
        flows=sol,
        objective=ev.objective,
        cone_residuals=slacks,
        exact=True,
        kkt_residual=0.0,
        solver_iterations=0,
        solver_status="grid",
    )


# CSV surface consumed by the command-line compare/baseline paths


def trace_header(model: NetworkModel) -> list[str]:
    qcols = [f"q_g_{model.labels[inv.bus]}" for inv in model.inverters]
    return ["t", "objective", "exact", "max_cone_slack", "solver_iterations",
            "solver_status", "kkt_residual"] + qcols


def solution_row(t: int, sol: OpfSolution) -> list:
    max_slack = (
        float(np.max(np.abs(sol.cone_residuals))) if sol.cone_residuals.size else 0.0
    )
    return [t, sol.objective, int(sol.exact), max_slack, sol.solver_iterations,
            sol.solver_status, sol.kkt_residual] + [float(q) for q in sol.q_g_star]
