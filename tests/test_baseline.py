from __future__ import annotations

import copy
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from conftest import model_from_parents, single_line_model, zero_state
from voltcraft import baseline, conic
from voltcraft.baseline import (
    FEAS_TOL,
    KKT_TOL,
    _build_program,
    _extract,
    _rhs,
    grid_search_oracle,
    solution_row,
    solve_baseline,
    trace_header,
)
from voltcraft.conic import ConicProgram, solve_conic
from voltcraft.data import SynthesisProfile, synthesize_timeseries
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


def tight_band_case():
    """One line whose +-0.1% voltage band no setpoint can hold at this state."""
    model = NetworkModel(
        lines=[Line(bus=1, parent=0, r=0.02, x=0.01)],
        inverters=[InverterSpec(bus=1, p_rated=0.05)],
        base_mva=1.0,
        base_kv=12.47,
        v0=1.0,
        v_min=np.full(2, 0.999**2),
        v_max=np.full(2, 1.001**2),
    )
    return model, GridState(p=np.array([-0.5]), q_c=np.array([0.1]))


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
    model, state = tight_band_case()
    with pytest.raises(Infeasible) as exc:
        solve_baseline(model, state)
    assert exc.value.max_violation > 0.0
    assert exc.value.least_violating.shape == (1,)


def test_reversed_objective_breaks_exactness(feeder6):
    # maximizing loss leaves the cones strictly slack, which the
    # certificate has to flag
    state = mixed_state(11)
    c, G, h, dims, A = _build_program(feeder6, elastic=False)
    res = solve_conic(ConicProgram(-c, G, h, dims, A), _rhs(feeder6, state))
    assert res.meets(1e-6)
    sol = _extract(feeder6, res.x, max(res.pres, res.dres, res.relgap),
                   res.iterations)
    assert not sol.exact
    assert np.max(np.abs(sol.cone_residuals)) > 1e-6


# -- the program kept per model --------------------------------------------


def assert_bitwise_equal(a, b):
    for name, value in vars(a).items():
        other = getattr(b, name)
        if dataclasses.is_dataclass(value):
            assert_bitwise_equal(value, other)
        else:
            assert np.array_equal(value, other), name


def test_solves_on_one_program_share_no_state(feeder6):
    model = copy.deepcopy(feeder6)  # so that its first solve builds the program
    first = solve_baseline(model, mixed_state(11))
    solve_baseline(model, mixed_state(23))
    assert_bitwise_equal(first, solve_baseline(model, mixed_state(11)))


@pytest.fixture
def kkt_patterns_built(monkeypatch):
    built = []
    original = conic._kkt_pattern

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(conic, "_kkt_pattern", counted)
    return built


def test_program_built_once_per_model(feeder6, kkt_patterns_built):
    model = copy.deepcopy(feeder6)
    for seed in (11, 23, 47):
        assert solve_baseline(model, mixed_state(seed)).solver_status == "optimal"
    assert len(kkt_patterns_built) == 1  # the primary program; no elastic one


def test_elastic_program_built_on_first_failed_solve(kkt_patterns_built):
    model, state = tight_band_case()
    for _ in range(2):
        with pytest.raises(Infeasible):
            solve_baseline(model, state)
    assert len(kkt_patterns_built) == 2  # the primary and the elastic program


def test_program_cache_keeps_no_model_alive(feeder6):
    model = copy.deepcopy(feeder6)
    solve_baseline(model, mixed_state())
    assert model in baseline._PROGRAMS
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


# interior-point iterations on the surrogate feeder, recorded before the KKT
# ordering was fixed once per program: the order changes rounding only
PINNED_ITERATIONS = {
    (40.0, 432): 20, (40.0, 528): 13, (40.0, 1200): 18, (40.0, 2152): 17,
    (10.0, 1056): 12, (10.0, 1416): 11, (10.0, 2640): 17, (10.0, 2716): 16,
}


@pytest.fixture(scope="module")
def surrogate_days(surrogate47):
    return {peak: synthesize_timeseries(
        surrogate47, SynthesisProfile(load_peak_kw=peak), seed=0).intervals
        for peak in (40.0, 10.0)}


@pytest.mark.parametrize("peak_kw, interval", sorted(PINNED_ITERATIONS))
def test_iteration_counts_pinned(surrogate47, surrogate_days, peak_kw, interval):
    sol = solve_baseline(surrogate47, surrogate_days[peak_kw][interval])
    assert sol.solver_status == "optimal"
    assert sol.solver_iterations == PINNED_ITERATIONS[peak_kw, interval]


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
    model, state = tight_band_case()
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
    assert header[:7] == ["t", "objective", "exact", "max_cone_slack",
                          "solver_iterations", "solver_status", "kkt_residual"]
    assert len(header) == 7 + feeder6.n_inverters
    sol = solve_baseline(feeder6, mixed_state())
    row = solution_row(7, sol)
    assert len(row) == len(header)
    assert row[0] == 7 and row[2] in (0, 1)
    assert row[4:7] == [sol.solver_iterations, "optimal", sol.kkt_residual]
    assert row[4] > 0
    assert 0.0 <= row[6] <= KKT_TOL
    assert row[7:] == list(sol.q_g_star)
