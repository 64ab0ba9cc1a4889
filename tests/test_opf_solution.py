"""Solver counts on OpfSolution, kept apart from the power-flow fields."""

from __future__ import annotations

import numpy as np

from conftest import single_line_model, zero_state
from voltcraft.baseline import _build_program, _rhs, grid_search_oracle, solve_baseline
from voltcraft.conic import ConicProgram, solve_conic
from voltcraft.network import GridState


def test_solver_counts_are_fields_of_their_own(feeder6):
    rng = np.random.default_rng(11)
    state = GridState(
        p=rng.uniform(-0.2, 0.12, size=5), q_c=rng.uniform(0.0, 0.1, size=5)
    )
    sol = solve_baseline(feeder6, state)
    program = ConicProgram(*_build_program(feeder6, elastic=False))
    res = solve_conic(program, _rhs(feeder6, state))
    assert sol.solver_iterations == res.iterations > 0
    assert sol.solver_status == res.status == "optimal"
    # no power-flow sweep ran; the residual is the branch-flow equality's
    assert sol.flows.iterations == 0
    assert sol.flows.max_residual == np.max(np.abs(sol.cone_residuals))


def test_grid_oracle_reports_sweeps_not_solver_counts():
    model = single_line_model(inverter_p=0.2)
    sol = grid_search_oracle(model, zero_state(model), 3)
    assert sol.solver_iterations == 0
    assert sol.solver_status == "grid"
    assert sol.flows.iterations >= 1
