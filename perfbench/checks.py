"""Output checks of the benchmark.

Each check compares the program's output with a property of the method or
with a computation made apart from the program, never with a stored copy of
earlier output, and raises CheckFailed with the measured discrepancy.
"""

from __future__ import annotations

import numpy as np

# convergence tolerance that solve_power_flow promises (PF_TOL in powerflow)
PF_TOL = 1e-10
# baseline objective against the exact power flow at its setpoints; the worst
# case seen on the benchmark's windows (seeds 31 to 35) is 1.7e-7
OBJ_RTOL = 1e-5


class CheckFailed(Exception):
    pass


def power_balance(net, state, q_g, sol, tol: float = PF_TOL) -> None:
    """Branch-flow equations and feeder-wide conservation at one solution.

    Recomputed line by line from the parent array, not through the subtree
    matrix the power flow uses: every line balances its children plus its own
    injection and loss, the voltage drops as the branch-flow model says, the
    squared current matches the flows, and the root lines carry the feeder's
    net demand plus the sum of r*ell (active) and x*ell (reactive).
    """
    p = np.array(state.p, dtype=float)
    q = -np.array(state.q_c, dtype=float)
    for j, bus in enumerate(net.inverter_buses):
        q[bus - 1] += q_g[j]
    P, Q, ell, v = sol.P, sol.Q, sol.ell, sol.v
    r, x = net.r, net.x
    kids_P = np.zeros(net.n)
    kids_Q = np.zeros(net.n)
    for i, parent in enumerate(net.parent):
        if parent != 0:
            kids_P[parent - 1] += P[i]
            kids_Q[parent - 1] += Q[i]
    v_par = v[net.parent]
    root = net.parent == 0
    residuals = {
        "active balance": P - (kids_P - p + r * ell),
        "reactive balance": Q - (kids_Q - q + x * ell),
        "voltage drop": v[1:] - (v_par - 2.0 * (r * P + x * Q) + (r * r + x * x) * ell),
        "squared current": ell * v_par - (P * P + Q * Q),
        "root active flow": P[root].sum() - (-p.sum() + r @ ell),
        "root reactive flow": Q[root].sum() - (-q.sum() + x @ ell),
    }
    for name, res in residuals.items():
        worst = float(np.max(np.abs(res)))
        if not worst <= tol:
            raise CheckFailed(f"{name} off by {worst:.3e} > {tol:.0e}")


def in_box(net, actions, what: str) -> None:
    """Every setpoint lies in the inverter capability box [q_lo, q_hi]."""
    a = np.atleast_2d(np.asarray(actions, dtype=float))
    outside = np.maximum(a - net.q_hi, 0.0) + np.maximum(net.q_lo - a, 0.0)
    if not np.all(np.isfinite(a)) or np.any(outside > 0.0):
        raise CheckFailed(
            f"{what} setpoint outside [q_lo, q_hi] by {np.nanmax(outside):.3e}"
        )


def same_params(first: np.ndarray, second: np.ndarray) -> None:
    """Two training runs with one seed give bit-identical parameters."""
    if first.shape != second.shape:
        raise CheckFailed(f"parameter shapes differ: {first.shape} vs {second.shape}")
    differ = int(np.count_nonzero(first.view(np.uint64) != second.view(np.uint64)))
    if differ:
        raise CheckFailed(f"two run_training calls with one seed differ in {differ} parameters")


def baseline_optimal(objective: float, exact, rivals: dict, rtol: float = OBJ_RTOL) -> None:
    """The baseline's setpoints are feasible and optimal among the rivals.

    `exact` is evaluate_loss at the baseline's setpoints; `rivals` maps a name
    to the evaluate_loss of another action on the same state.
    """
    if not exact.feasible:
        raise CheckFailed(
            f"exact power flow at the baseline setpoints leaves the band by {exact.violation:.3e}"
        )
    rel = abs(exact.objective - objective) / abs(exact.objective)
    if not rel <= rtol:
        raise CheckFailed(
            f"baseline objective {objective:.9g} vs exact loss at its setpoints "
            f"{exact.objective:.9g}: relative error {rel:.2e} > {rtol:.0e}"
        )
    for name, ev in rivals.items():
        if ev.feasible and objective > ev.objective * (1.0 + rtol):
            raise CheckFailed(
                f"baseline objective {objective:.9g} above the feasible {name} loss {ev.objective:.9g}"
            )


def learned_beats(learned: float, rivals: dict) -> None:
    """The learned policy's mean loss is below each constant policy's."""
    for name, loss in rivals.items():
        if not learned < loss:
            raise CheckFailed(f"learned mean loss {learned:.6g} not below {name} {loss:.6g}")
