from __future__ import annotations

import numpy as np
import pytest

from conftest import model_from_parents, single_line_model, zero_state
from voltcraft.baseline import (
    FEAS_TOL,
    KKT_TOL,
    _build_program,
    _extract,
    grid_search_oracle,
    solution_row,
    solve_baseline,
    trace_header,
)
from voltcraft.conic import solve_conic
from voltcraft.errors import (
    DimensionMismatch,
    Infeasible,
    NoFeasiblePoint,
    TooManyInverters,
)
from voltcraft.network import GridState, InverterSpec, Line, NetworkModel
from voltcraft.powerflow import evaluate_loss, injection_vectors, solve_power_flow


def mixed_state(seed=11):
    rng = np.random.default_rng(seed)
    return GridState(
        p=rng.uniform(-0.2, 0.12, size=5), q_c=rng.uniform(0.0, 0.1, size=5)
    )


# -- solve_baseline --------------------------------------------------------


def test_zero_state_zero_action(feeder6):
    sol = solve_baseline(feeder6, zero_state(feeder6))
    assert sol.objective <= 1e-10
    assert np.all(np.abs(sol.q_g_star) <= 1e-3)
    assert sol.exact


def test_solution_invariants(feeder6):
    state = mixed_state()
    sol = solve_baseline(feeder6, state)
    assert sol.kkt_residual <= KKT_TOL
    assert sol.objective >= 0.0
    assert np.all(sol.q_g_star >= feeder6.q_lo - 1e-9)
    assert np.all(sol.q_g_star <= feeder6.q_hi + 1e-9)
    assert np.all(sol.flows.v >= feeder6.v_min - FEAS_TOL)
    assert np.all(sol.flows.v <= feeder6.v_max + FEAS_TOL)
    assert np.all(sol.cone_residuals <= FEAS_TOL)


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_state_length_mismatch(feeder6, extra):
    n = feeder6.n + extra
    with pytest.raises(DimensionMismatch, match="state has"):
        solve_baseline(feeder6, GridState(p=np.zeros(n), q_c=np.zeros(n)))


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_matches_grid_oracle(feeder6, seed):
    state = mixed_state(seed)
    sol = solve_baseline(feeder6, state)
    oracle = grid_search_oracle(feeder6, state, 41)
    assert sol.objective == pytest.approx(oracle.objective, rel=0.01)
    # relaxation can only undershoot the exhaustive search
    assert sol.objective <= oracle.objective + 1e-9


def test_lower_bound_against_random_feasible_actions(feeder6):
    state = mixed_state(31)
    sol = solve_baseline(feeder6, state)
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        q = rng.uniform(feeder6.q_lo, feeder6.q_hi)
        ev = evaluate_loss(feeder6, state, q)
        if ev.feasible:
            checked += 1
            assert sol.objective <= ev.objective + 1e-9
    assert checked > 50


def test_exact_point_reproduced_by_power_flow(feeder6):
    state = mixed_state(59)
    sol = solve_baseline(feeder6, state)
    assert sol.exact
    p, q = injection_vectors(feeder6, state, sol.q_g_star)
    pf = solve_power_flow(feeder6, p, q)
    assert np.max(np.abs(pf.v - sol.flows.v)) <= 1e-6
    assert np.max(np.abs(pf.ell - sol.flows.ell)) <= 1e-6
    assert pf.loss == pytest.approx(sol.objective, abs=1e-8)


def test_infeasible_band_diagnosed():
    n = 1
    model = NetworkModel(
        lines=[Line(bus=1, parent=0, r=0.02, x=0.01)],
        inverters=[InverterSpec(bus=1, p_rated=0.05)],
        base_mva=1.0,
        base_kv=12.47,
        v0=1.0,
        v_min=np.full(n + 1, 0.999**2),
        v_max=np.full(n + 1, 1.001**2),
    )
    state = GridState(p=np.array([-0.5]), q_c=np.array([0.1]))
    with pytest.raises(Infeasible) as exc:
        solve_baseline(model, state)
    assert exc.value.max_violation > 0.0
    assert exc.value.least_violating.shape == (1,)


def test_reversed_objective_breaks_exactness(feeder6):
    # maximizing loss leaves the cones strictly slack, which the
    # certificate has to flag
    state = mixed_state(11)
    c, G, h, dims, A, b = _build_program(feeder6, state, elastic=False)
    res = solve_conic(-c, G, h, dims, A, b)
    assert res.meets(1e-6)
    sol = _extract(feeder6, res.x, max(res.pres, res.dres, res.relgap),
                   res.iterations)
    assert not sol.exact
    assert np.max(np.abs(sol.cone_residuals)) > 1e-6


# -- grid oracle -----------------------------------------------------------


def test_oracle_symmetric_center(feeder6):
    model = single_line_model(r=0.02, x=0.01, inverter_p=0.2)
    sol = grid_search_oracle(model, zero_state(model), 3)
    assert sol.q_g_star[0] == 0.0
    assert sol.objective == 0.0


def test_oracle_tie_breaks_lexicographically():
    # buses 1 and 2 hang on a lossless (purely reactive) chain, bus 3 on its
    # own lossy line. Every action with q3 = 0 has a loss of exactly 0 and
    # any other q3 a positive one. The tight band on buses 1 and 2 keeps
    # (-b, b), (0, 0), (0, b), (b, 0) and (b, b) in the tie, so the smallest
    # action, lowest on the first inverter first, is (-b, b, 0): ignoring
    # the loss would give (-b, b, -b) and comparing the last inverter first
    # would give (0, 0, 0)
    model = NetworkModel(
        lines=[Line(bus=1, parent=0, r=0.0, x=0.01),
               Line(bus=2, parent=1, r=0.0, x=0.01),
               Line(bus=3, parent=0, r=0.02, x=0.01)],
        inverters=[InverterSpec(bus=k, p_rated=0.2) for k in (1, 2, 3)],
        base_mva=1.0,
        base_kv=12.47,
        v0=1.0,
        v_min=np.array([0.9025, 0.999, 0.999, 0.9025]),
        v_max=np.full(4, 1.1025),
    )
    sol = grid_search_oracle(model, zero_state(model), 3)
    b = model.q_hi[0]
    assert sol.objective == 0.0
    assert np.array_equal(sol.q_g_star, np.array([-b, b, 0.0]))


def test_oracle_rejects_many_inverters():
    model = model_from_parents([0, 1, 1, 0], inverter_buses=(1, 2, 3, 4))
    with pytest.raises(TooManyInverters):
        grid_search_oracle(model, zero_state(model), 5)


def test_oracle_rejects_coarse_grid(feeder6):
    with pytest.raises(ValueError):
        grid_search_oracle(feeder6, zero_state(feeder6), 2)


def test_oracle_no_feasible_point():
    n = 1
    model = NetworkModel(
        lines=[Line(bus=1, parent=0, r=0.02, x=0.01)],
        inverters=[InverterSpec(bus=1, p_rated=0.05)],
        base_mva=1.0,
        base_kv=12.47,
        v0=1.0,
        v_min=np.full(n + 1, 0.999**2),
        v_max=np.full(n + 1, 1.001**2),
    )
    state = GridState(p=np.array([-0.5]), q_c=np.array([0.1]))
    with pytest.raises(NoFeasiblePoint):
        grid_search_oracle(model, state, 5)


def test_oracle_zero_load_slacks_identically_zero():
    model = single_line_model(inverter_p=0.2)
    sol = grid_search_oracle(model, zero_state(model), 3)
    assert np.array_equal(sol.cone_residuals, np.zeros(1))


def test_oracle_within_one_cell_of_baseline_1d():
    model = single_line_model(r=0.02, x=0.01, inverter_p=0.2)
    state = GridState(p=np.array([-0.15]), q_c=np.array([0.05]))
    points = 201
    oracle = grid_search_oracle(model, state, points)
    sol = solve_baseline(model, state)
    cell = (model.q_hi[0] - model.q_lo[0]) / (points - 1)
    assert abs(oracle.q_g_star[0] - sol.q_g_star[0]) <= cell
    assert sol.objective <= oracle.objective + 1e-12


# -- reporting -------------------------------------------------------------


def test_trace_row_shapes(feeder6):
    header = trace_header(feeder6)
    assert header[:4] == ["t", "objective", "exact", "max_cone_slack"]
    assert len(header) == 4 + feeder6.n_inverters
    sol = solve_baseline(feeder6, mixed_state())
    row = solution_row(7, sol)
    assert len(row) == len(header)
    assert row[0] == 7 and row[2] in (0, 1)
