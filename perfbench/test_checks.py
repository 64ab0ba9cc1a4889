"""Each output check of the benchmark passes on the program's own output and
fails on corrupted input.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from voltcraft.baseline import solve_baseline
from voltcraft.data import SynthesisProfile, synthesize_timeseries
from voltcraft.network import load_network
from voltcraft.policy import get_flat_params, init_policy
from voltcraft.powerflow import evaluate_loss

import checks
from checks import CheckFailed

FEEDERS = Path(__file__).resolve().parent.parent / "src" / "voltcraft" / "feeders"


@pytest.fixture(scope="module")
def case():
    """The surrogate feeder at a mid-evening interval, solved three ways."""
    net = load_network(FEEDERS / "surrogate47.json")
    state = synthesize_timeseries(net, SynthesisProfile(load_peak_kw=10.0), seed=0).intervals[2716]
    sol = solve_baseline(net, state)
    return {
        "net": net,
        "state": state,
        "sol": sol,
        "exact": evaluate_loss(net, state, sol.q_g_star),
        "zero": evaluate_loss(net, state, np.zeros(net.n_inverters)),
        "q_hi": evaluate_loss(net, state, net.q_hi),
    }


def test_power_balance_holds_on_the_power_flow(case):
    net, state = case["net"], case["state"]
    checks.power_balance(net, state, case["sol"].q_g_star, case["exact"].solution)
    checks.power_balance(net, state, np.zeros(net.n_inverters), case["zero"].solution)


def test_power_balance_rejects_a_shifted_ell(case):
    sol = case["exact"].solution
    shifted = type(sol)(**{**vars(sol), "ell": sol.ell + np.eye(sol.ell.size)[7] * 1e-7})
    with pytest.raises(CheckFailed, match="balance"):
        checks.power_balance(case["net"], case["state"], case["sol"].q_g_star, shifted)


def test_power_balance_rejects_a_perturbed_setpoint(case):
    q = case["sol"].q_g_star.copy()
    q[2] += 1e-6
    with pytest.raises(CheckFailed, match="reactive"):
        checks.power_balance(case["net"], case["state"], q, case["exact"].solution)


def test_in_box_rejects_a_perturbed_setpoint(case):
    net = case["net"]
    checks.in_box(net, [net.q_lo, net.q_hi, np.zeros(net.n_inverters)], "served")
    q = net.q_hi.copy()
    q[0] = np.nextafter(q[0], np.inf)
    with pytest.raises(CheckFailed, match="outside"):
        checks.in_box(net, [np.zeros(net.n_inverters), q], "served")


def test_same_params_rejects_a_changed_weight(case):
    theta = get_flat_params(init_policy(case["net"], seed=0))
    checks.same_params(theta, get_flat_params(init_policy(case["net"], seed=0)))
    changed = theta.copy()
    changed[123] = np.nextafter(changed[123], np.inf)
    with pytest.raises(CheckFailed, match="differ in 1 parameters"):
        checks.same_params(theta, changed)


def test_baseline_optimal_accepts_the_solver_output(case):
    checks.baseline_optimal(
        case["sol"].objective, case["exact"], {"q = 0": case["zero"], "q = q_hi": case["q_hi"]})


def test_baseline_optimal_rejects_a_perturbed_setpoint(case):
    net, state = case["net"], case["state"]
    q = case["sol"].q_g_star.copy()
    q[0] -= 0.1 * (net.q_hi[0] - net.q_lo[0])
    moved = evaluate_loss(net, state, q)
    with pytest.raises(CheckFailed, match="relative error"):
        checks.baseline_optimal(case["sol"].objective, moved, {})


def test_baseline_optimal_rejects_an_objective_above_a_rival(case):
    # the q = 0 loss reported as the optimum: exact flow disagrees, and once
    # that is matched the optimum exceeds the true optimum's loss
    with pytest.raises(CheckFailed, match="relative error"):
        checks.baseline_optimal(case["zero"].objective, case["exact"], {})
    with pytest.raises(CheckFailed, match="above the feasible"):
        checks.baseline_optimal(case["zero"].objective, case["zero"], {"optimum": case["exact"]})


def test_learned_beats_rejects_a_swapped_loss():
    learned, zero, q_hi = 0.00085, 0.00119, 0.00193
    checks.learned_beats(learned, {"q = 0": zero, "q = q_hi": q_hi})
    with pytest.raises(CheckFailed, match="not below q = 0"):
        checks.learned_beats(zero, {"q = 0": learned, "q = q_hi": q_hi})
