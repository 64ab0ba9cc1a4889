from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from conftest import model_from_parents, single_line_model, zero_state
from oracles import phasor_sweep, two_bus_closed_form
from voltcraft.errors import (
    ActionOutOfBounds,
    DimensionMismatch,
    Diverged,
    NumericalError,
)
from voltcraft.network import GridState
from voltcraft.powerflow import (
    PF_TOL,
    band_violation,
    evaluate_loss,
    injection_vectors,
    solve_power_flow,
)


def equation_residuals(model, p, q, sol):
    """Recompute all four balance equations with plain loops."""
    worst = 0.0
    for ln in model.lines:
        i = ln.bus - 1
        kids = [m.bus - 1 for m in model.lines if m.parent == ln.bus]
        r1a = sum(sol.P[k] for k in kids) - p[i] + ln.r * sol.ell[i] - sol.P[i]
        r1b = sum(sol.Q[k] for k in kids) - q[i] + ln.x * sol.ell[i] - sol.Q[i]
        r1c = (
            sol.v[ln.parent]
            - 2.0 * (ln.r * sol.P[i] + ln.x * sol.Q[i])
            + (ln.r**2 + ln.x**2) * sol.ell[i]
            - sol.v[ln.bus]
        )
        r1d = sol.ell[i] * sol.v[ln.parent] - (sol.P[i] ** 2 + sol.Q[i] ** 2)
        worst = max(worst, abs(r1a), abs(r1b), abs(r1c), abs(r1d))
    return worst


# -- fixed points ----------------------------------------------------------


def test_zero_injections_flat_start():
    model = model_from_parents([0, 1, 1, 3])
    sol = solve_power_flow(model, np.zeros(4), np.zeros(4))
    assert np.array_equal(sol.ell, np.zeros(4))
    assert np.array_equal(sol.P, np.zeros(4))
    assert np.allclose(sol.v, model.v0)
    assert sol.loss == 0.0
    assert sol.iterations == 1
    assert sol.converged


def test_two_bus_matches_frozen_closed_form():
    model = single_line_model(r=0.02, x=0.01)
    sol = solve_power_flow(model, np.array([-0.1]), np.array([-0.05]))
    assert sol.P[0] == pytest.approx(0.10025125786760061, abs=1e-10)
    assert sol.Q[0] == pytest.approx(0.050125628933800306, abs=1e-10)
    assert sol.ell[0] == pytest.approx(0.01256289338003036, abs=1e-10)
    assert sol.v[1] == pytest.approx(0.99499371855331, abs=1e-10)
    assert sol.loss == pytest.approx(0.0002512578676006072, abs=1e-12)


@pytest.mark.parametrize(
    "r,x,p_inj,q_inj",
    [
        (0.02, 0.01, -0.1, -0.05),
        (0.01, 0.02, -0.3, -0.12),
        (0.05, 0.03, 0.08, -0.02),  # net generation
        (0.03, 0.0, -0.2, 0.0),  # purely resistive line
    ],
)
def test_two_bus_matches_live_closed_form(r, x, p_inj, q_inj):
    model = single_line_model(r=r, x=x)
    sol = solve_power_flow(model, np.array([p_inj]), np.array([q_inj]))
    P, Q, l, v1 = two_bus_closed_form(r, x, p_inj, q_inj)
    assert sol.P[0] == pytest.approx(P, abs=1e-12)
    assert sol.Q[0] == pytest.approx(Q, abs=1e-12)
    assert sol.ell[0] == pytest.approx(l, abs=1e-12)
    assert sol.v[1] == pytest.approx(v1, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_feeder6_matches_phasor_sweep(feeder6, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-0.15, 0.1, size=feeder6.n)
    q = rng.uniform(-0.1, 0.05, size=feeder6.n)
    sol = solve_power_flow(feeder6, p, q)
    P, Q, l, v = phasor_sweep(feeder6.parent, feeder6.r, feeder6.x, p, q, v0=feeder6.v0)
    assert np.allclose(sol.P, P, atol=1e-9)
    assert np.allclose(sol.Q, Q, atol=1e-9)
    assert np.allclose(sol.ell, l, atol=1e-9)
    assert np.allclose(sol.v, v, atol=1e-9)


def test_residual_certificate(feeder6):
    p = np.array([-0.2, -0.15, 0.25, -0.1, -0.18])
    q = np.array([-0.1, -0.08, 0.05, -0.06, -0.09])
    sol = solve_power_flow(feeder6, p, q)
    assert sol.max_residual <= PF_TOL
    assert equation_residuals(feeder6, p, q, sol) <= PF_TOL


def test_conservation(feeder6):
    p = np.array([-0.25, -0.1, 0.2, -0.12, -0.2])
    q = np.array([-0.12, -0.05, 0.04, -0.07, -0.1])
    sol = solve_power_flow(feeder6, p, q)
    root_lines = [ln.bus - 1 for ln in feeder6.lines if ln.parent == 0]
    drawn = sum(sol.P[i] for i in root_lines)
    assert drawn == pytest.approx(-np.sum(p) + sol.loss, abs=10 * PF_TOL)


def test_determinism_bitwise(feeder6):
    p = np.array([-0.2, -0.15, 0.25, -0.1, -0.18])
    q = np.array([-0.1, -0.08, 0.05, -0.06, -0.09])
    a = solve_power_flow(feeder6, p, q)
    b = solve_power_flow(feeder6, p, q)
    assert a.P.tobytes() == b.P.tobytes()
    assert a.Q.tobytes() == b.Q.tobytes()
    assert a.ell.tobytes() == b.ell.tobytes()
    assert a.v.tobytes() == b.v.tobytes()


def test_divergence_raises():
    model = single_line_model(r=0.02, x=0.01)
    with pytest.raises((Diverged, NumericalError)):
        solve_power_flow(model, np.array([-15.0]), np.array([-5.0]))


def test_length_mismatch():
    model = model_from_parents([0, 1])
    with pytest.raises(DimensionMismatch):
        solve_power_flow(model, np.zeros(3), np.zeros(3))


def test_loss_positive_iff_flow(feeder6):
    sol0 = solve_power_flow(feeder6, np.zeros(feeder6.n), np.zeros(feeder6.n))
    assert sol0.loss == 0.0
    sol = solve_power_flow(feeder6, np.full(feeder6.n, -0.05), np.zeros(feeder6.n))
    assert sol.loss > 0.0


# -- injection assembly ----------------------------------------------------


def test_injection_vectors_no_inverters():
    model = model_from_parents([0, 1])
    state = GridState(p=np.array([0.1, -0.2]), q_c=np.array([0.05, 0.03]))
    p, q = injection_vectors(model, state, np.array([]))
    assert np.array_equal(p, state.p)
    assert np.array_equal(q, -state.q_c)


def test_injection_vectors_scatter():
    model = model_from_parents([0, 1, 1], inverter_buses=(2, 3), inverter_p=0.5)
    state = GridState(p=np.zeros(3), q_c=np.array([0.01, 0.02, 0.03]))
    p, q = injection_vectors(model, state, np.array([0.07, -0.04]))
    assert q[0] == pytest.approx(-0.01)
    assert q[1] == pytest.approx(0.07 - 0.02)
    assert q[2] == pytest.approx(-0.04 - 0.03)
    # inputs untouched
    assert np.array_equal(state.q_c, np.array([0.01, 0.02, 0.03]))


def test_injection_vectors_shape_errors():
    model = model_from_parents([0, 1], inverter_buses=(2,))
    state = GridState(p=np.zeros(2), q_c=np.zeros(2))
    with pytest.raises(DimensionMismatch):
        injection_vectors(model, state, np.zeros(3))
    bad = GridState(p=np.zeros(4), q_c=np.zeros(4))
    with pytest.raises(DimensionMismatch):
        injection_vectors(model, bad, np.zeros(1))


# -- loss functional -------------------------------------------------------


def test_zero_state_zero_loss():
    model = single_line_model(inverter_p=0.2)
    ev = evaluate_loss(model, zero_state(model), np.array([0.0]))
    assert ev.objective == 0.0
    assert ev.violation == 0.0
    assert ev.feasible
    assert ev.penalized == 0.0


def test_penalty_monotone_in_coefficient():
    model = single_line_model(r=0.02, x=0.01)
    state = GridState(p=np.array([-2.2]), q_c=np.array([1.0]))
    evals = [
        evaluate_loss(model, state, np.array([]), penalty_coeff=c)
        for c in (0.0, 10.0, 100.0)
    ]
    assert evals[0].violation > 0.0
    assert not evals[0].feasible
    assert evals[0].penalized <= evals[1].penalized <= evals[2].penalized
    for ev in evals:
        assert ev.penalized >= ev.objective


def test_penalized_formula():
    model = single_line_model(r=0.02, x=0.01)
    state = GridState(p=np.array([-2.2]), q_c=np.array([1.0]))
    ev = evaluate_loss(model, state, np.array([]), penalty_coeff=100.0)
    assert ev.penalized == pytest.approx(ev.objective + 100.0 * ev.violation, rel=1e-12)
    assert ev.violation == pytest.approx(
        band_violation(model, ev.solution.v), rel=1e-12
    )


def test_heavy_load_below_band():
    model = single_line_model(r=0.02, x=0.01)
    state = GridState(p=np.array([-2.2]), q_c=np.array([1.0]))
    ev = evaluate_loss(model, state, np.array([]))
    assert ev.solution.v[1] < 0.9025
    assert ev.violation > 0.0 and not ev.feasible


def test_one_dim_sweep_unimodal_matches_grid():
    model = single_line_model(r=0.02, x=0.01, inverter_p=0.2)
    state = GridState(p=np.array([-0.15]), q_c=np.array([0.05]))
    lo, hi = model.q_lo[0], model.q_hi[0]
    grid = np.linspace(lo, hi, 10_000)
    vals = np.array(
        [evaluate_loss(model, state, np.array([g])).penalized for g in grid]
    )
    diffs = np.sign(np.diff(vals))
    switches = np.count_nonzero(np.diff(diffs[diffs != 0]))
    assert switches <= 1  # unimodal along the box
    best = grid[np.argmin(vals)]
    res = minimize_scalar(
        lambda g: evaluate_loss(model, state, np.array([g])).penalized,
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-10},
    )
    assert abs(best - res.x) <= (hi - lo) / 9_999 + 1e-8
    assert lo < best < hi


def test_strict_action_bounds():
    model = single_line_model(inverter_p=0.2)
    state = zero_state(model)
    big = np.array([model.q_hi[0] + 0.05])
    with pytest.raises(ActionOutOfBounds):
        evaluate_loss(model, state, big, strict=True)
    clipped = evaluate_loss(model, state, big)
    at_edge = evaluate_loss(model, state, np.array([model.q_hi[0]]))
    assert clipped.penalized == at_edge.penalized


def test_nan_setpoint_rejected_in_both_modes():
    model = single_line_model(inverter_p=0.2)
    state = zero_state(model)
    for strict in (False, True):
        with pytest.raises(ActionOutOfBounds):
            evaluate_loss(model, state, np.array([np.nan]), strict=strict)
    # an infinite setpoint is out of the box, not undefined: it clips
    with pytest.raises(ActionOutOfBounds):
        evaluate_loss(model, state, np.array([np.inf]), strict=True)
    clipped = evaluate_loss(model, state, np.array([np.inf]))
    at_edge = evaluate_loss(model, state, np.array([model.q_hi[0]]))
    assert clipped.penalized == at_edge.penalized


# -- randomized invariants -------------------------------------------------


@st.composite
def tree_and_injections(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    parents = [draw(st.integers(min_value=0, max_value=i)) for i in range(n)]
    finite = st.floats(min_value=-0.06, max_value=0.06, allow_nan=False)
    p = [draw(finite) for _ in range(n)]
    q = [draw(finite) for _ in range(n)]
    return parents, np.array(p), np.array(q)


@settings(max_examples=60, deadline=None)
@given(tree_and_injections())
def test_random_feeder_solution_invariants(case):
    parents, p, q = case
    model = model_from_parents(parents)
    sol = solve_power_flow(model, p, q)
    assert sol.converged
    assert np.all(sol.ell >= 0.0)
    assert np.all(sol.v > 0.0)
    assert sol.loss >= 0.0
    assert equation_residuals(model, p, q, sol) <= PF_TOL
    again = solve_power_flow(model, p, q)
    assert sol.ell.tobytes() == again.ell.tobytes()
    assert sol.v.tobytes() == again.v.tobytes()
