"""Branch-flow power flow on a radial feeder.

Variables live on lines, indexed by the downstream (child) bus: P, Q are the
active/reactive power at the front end of each line, ell the squared current
magnitude, v the squared bus voltage. The balance equations for a tree

    P_n = sum_{j in children(n)} P_j - p_n + r_n ell_n
    Q_n = sum_{j in children(n)} Q_j - q_n + x_n ell_n
    v_n = v_parent(n) - 2 (r_n P_n + x_n Q_n) + (r_n^2 + x_n^2) ell_n
    ell_n = (P_n^2 + Q_n^2) / v_parent(n)

are solved by fixed-point iteration on ell: given ell, the first three lines
are linear and collapse to products with the subtree indicator matrix, so one
sweep costs two matvecs regardless of feeder depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ActionOutOfBounds,
    DimensionMismatch,
    Diverged,
    NumericalError,
)
from .network import GridState, NetworkModel

PF_TOL = 1e-10
MAX_ITER = 200
PENALTY_COEFF = 100.0
FEAS_TOL = 1e-8


@dataclass
class PowerFlowSolution:
    """Converged operating point, all quantities per unit.

    P, Q, ell are line quantities of length N (entry i for the line into bus
    i+1); v covers buses 0..N with v[0] the substation. loss is the total
    ohmic loss sum_n r_n ell_n.
    """

    P: np.ndarray
    Q: np.ndarray
    ell: np.ndarray
    v: np.ndarray
    loss: float
    iterations: int
    converged: bool
    max_residual: float


@dataclass
class LossEvaluation:
    """Loss functional value for one (state, action) pair."""

    objective: float
    violation: float
    penalized: float
    feasible: bool
    solution: PowerFlowSolution


def injection_vectors(
    model: NetworkModel, state: GridState, q_g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus net injections (p, q) with inverter reactive output scattered in."""
    q_g = np.asarray(q_g, dtype=float)
    if q_g.shape != (model.n_inverters,):
        raise DimensionMismatch(
            f"expected {model.n_inverters} inverter setpoints, got shape {q_g.shape}"
        )
    model.check_state(state)
    p = state.p.copy()
    q = -state.q_c
    q[model.inverter_buses - 1] += q_g  # the model allows one inverter a bus
    return p, q


def solve_power_flow(model: NetworkModel, p: np.ndarray, q: np.ndarray) -> PowerFlowSolution:
    """Fixed point of the branch-flow equations for net injections (p, q)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (model.n,) or q.shape != (model.n,):
        raise DimensionMismatch(
            f"injection vectors must have length {model.n}, got {p.shape}, {q.shape}"
        )
    T = model.subtree
    r, x = model.r, model.x
    z2 = r**2 + x**2
    v0 = model.v0

    ell = np.zeros(model.n)
    P = T @ (r * ell - p)
    Q = T @ (x * ell - q)
    v = np.full(model.n + 1, v0)
    step = np.inf
    # overflow here means divergence, caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, MAX_ITER + 1):
            vpar = v[model.parent]
            if (vpar <= 0.0).any():
                raise NumericalError("voltage collapsed to zero during the sweep")
            ell_new = (P**2 + Q**2) / vpar
            P = T @ (r * ell_new - p)
            Q = T @ (x * ell_new - q)
            drop = T.T @ (2.0 * (r * P + x * Q) - z2 * ell_new)
            v = np.empty(model.n + 1)
            v[0] = v0
            np.subtract(v0, drop, out=v[1:])
            if not np.isfinite(ell_new).all():
                raise Diverged(f"iterate left the finite range at sweep {it}")
            step = np.abs(ell_new - ell).max()
            ell = ell_new
            if step <= PF_TOL:
                vpar = v[model.parent]
                if (vpar <= 0.0).any():
                    raise NumericalError("voltage collapsed to zero during the sweep")
                residual = float(np.abs(ell * vpar - (P**2 + Q**2)).max())
                if residual <= PF_TOL:
                    return PowerFlowSolution(
                        P=P,
                        Q=Q,
                        ell=ell,
                        v=v,
                        loss=float(r @ ell),
                        iterations=it,
                        converged=True,
                        max_residual=residual,
                    )
    raise Diverged(f"no fixed point after {MAX_ITER} sweeps (last step {step:.3e})")


def band_violation(model: NetworkModel, v: np.ndarray) -> float:
    """Aggregate squared-voltage band violation over all buses."""
    under = np.maximum(model.v_min - v, 0.0)
    over = np.maximum(v - model.v_max, 0.0)
    return float(np.sum(under + over))


def evaluate_loss(
    model: NetworkModel,
    state: GridState,
    q_g: np.ndarray,
    penalty_coeff: float = PENALTY_COEFF,
    strict: bool = False,
) -> LossEvaluation:
    """Ohmic loss plus penalty_coeff times the voltage-band violation.

    Actions outside the inverter capability box are clipped; with strict=True
    they raise ActionOutOfBounds instead. A NaN setpoint raises in both modes.
    """
    q_g = np.asarray(q_g, dtype=float)
    if q_g.shape != (model.n_inverters,):
        raise DimensionMismatch(
            f"expected {model.n_inverters} inverter setpoints, got shape {q_g.shape}"
        )
    if model.n_inverters:
        outside = np.maximum(q_g - model.q_hi, 0.0) + np.maximum(model.q_lo - q_g, 0.0)
        # a NaN setpoint makes its `outside` NaN, which fails either bound
        if not np.all(outside <= (1e-12 if strict else np.inf)):
            raise ActionOutOfBounds(
                f"setpoint leaves the capability box by {np.max(outside):.3e}"
            )
        q_g = np.clip(q_g, model.q_lo, model.q_hi)
    p, q = injection_vectors(model, state, q_g)
    sol = solve_power_flow(model, p, q)
    violation = band_violation(model, sol.v)
    return LossEvaluation(
        objective=sol.loss,
        violation=violation,
        penalized=sol.loss + penalty_coeff * violation,
        feasible=violation <= FEAS_TOL,
        solution=sol,
    )
