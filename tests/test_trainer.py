"""Gradient estimator, optimizer steps, and the training loop.

The estimator checks compare Monte Carlo means against quadrature
derivatives; the end-to-end convergence check compares the trained mean
against the grid-search argmin. Monte Carlo tolerances are stated in
standard errors of the run itself.
"""

import math

import numpy as np
import pytest

from conftest import mu_sigma, single_line_model
from oracles import dmu_expectation_quad
from voltcraft.baseline import grid_search_oracle, solve_baseline
from voltcraft.data import SynthesisProfile, synthesize_timeseries
from voltcraft.errors import DimensionMismatch, NonFiniteGradient, NumericalError
from voltcraft.network import GridState
from voltcraft.policy import (
    PolicyModel,
    get_flat_params,
    grad_log_prob,
    init_policy,
    policy_distribution,
    sample,
)
from voltcraft.powerflow import evaluate_loss
from voltcraft.trainer import (
    LossTrace,
    OptState,
    TrainConfig,
    apply_update,
    compare_to_baseline,
    dataset_fingerprint,
    estimate_gradient,
    infer,
    init_opt_state,
    network_fingerprint,
    run_training,
    train,
)


def arr(*vals):
    return np.array(vals, dtype=float)


def bias_only_policy(a_bias, b_bias, lo, hi, sigma_floor=0.01):
    """Single affine layer with zero weights: (mu, sigma) set by biases."""
    return PolicyModel(
        layer_sizes=[2, 2],
        weights=[np.zeros((2, 2))],
        biases=[arr(a_bias, b_bias)],
        q_lo=arr(lo),
        q_hi=arr(hi),
        sigma_floor=sigma_floor,
    )


# -- config validation -----------------------------------------------------


def test_config_rejects_bad_values():
    bad = {
        "learning_rate": (-0.1, math.inf, math.nan),
        "batch_size": (0, 2.5, True),
        "epochs": (0, 1.5, True),
        "baseline_window": (0, 3.0, False),
        "optimizer": ("rmsprop",),
        "baseline_mode": ("constant",),
        "seed": (-1, 1.5, True),
        "grad_clip": (0.0, -1.0, math.nan),
        "sigma_floor": (0.0, -0.01, math.nan),
        "penalty_coeff": (-5.0, math.inf, math.nan),
        "adam_eps": (0.0, -1e-8),
        "adam_beta1": (-0.1, 1.0, 2.0, math.nan),
        "adam_beta2": (-0.1, 1.0, math.nan),
    }
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: value})
    TrainConfig(learning_rate=0.0)  # lr = 0 is a legal no-op configuration
    TrainConfig(penalty_coeff=0.0, adam_beta1=0.0, adam_beta2=0.0, grad_clip=math.inf)


# -- estimate_gradient -----------------------------------------------------


def make_records(n, loss, seed=0):
    net = single_line_model(r=0.02, x=0.01, inverter_p=0.3)
    pol = init_policy(net, hidden=(4,), seed=1)
    rng = np.random.default_rng(seed)
    s = GridState(p=arr(-0.05), q_c=arr(0.03))
    out = []
    for _ in range(n):
        q = sample(policy_distribution(pol, s), rng)
        out.append((s, grad_log_prob(pol, s, q), loss))
    return out


def test_constant_loss_with_matching_baseline_gives_zero():
    records = make_records(8, loss=3.25)
    g = estimate_gradient(records, "running_mean", prior_losses=[3.25, 3.25])
    assert np.all(g == 0.0)


def test_single_record_no_baseline_is_loss_times_score():
    records = make_records(1, loss=0.7)
    g = estimate_gradient(records, "none")
    assert np.array_equal(g, 0.7 * records[0][1].grad_theta_log_prob)


def test_estimate_gradient_deterministic():
    records = make_records(12, loss=0.4, seed=5)
    assert np.array_equal(
        estimate_gradient(records, "none"), estimate_gradient(records, "none")
    )


def test_running_mean_uses_window_tail():
    records = make_records(6, loss=2.0)
    prior = [10.0] * 300 + [2.0] * 200
    g = estimate_gradient(records, "running_mean", prior_losses=prior, window=200)
    # the tail of the window is all 2.0, matching the batch loss exactly
    assert np.all(g == 0.0)


def test_nonfinite_loss_rejected():
    records = make_records(2, loss=float("inf"))
    with pytest.raises(NonFiniteGradient):
        estimate_gradient(records, "none")


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        estimate_gradient([], "none")


# -- apply_update ----------------------------------------------------------


def test_sgd_zero_gradient_is_identity():
    pol = init_policy(single_line_model(inverter_p=0.3), hidden=(4,), seed=0)
    before = get_flat_params(pol)
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.5)
    apply_update(pol, np.zeros_like(before), cfg)
    assert np.array_equal(get_flat_params(pol), before)


def test_sgd_unit_rate_on_own_parameters_zeroes_them():
    pol = init_policy(single_line_model(inverter_p=0.3), hidden=(4,), seed=0)
    theta = get_flat_params(pol)
    cfg = TrainConfig(optimizer="sgd", learning_rate=1.0)
    apply_update(pol, theta, cfg)
    assert np.all(get_flat_params(pol) == 0.0)


def test_sgd_step_is_exact():
    pol = init_policy(single_line_model(inverter_p=0.3), hidden=(4,), seed=2)
    theta = get_flat_params(pol)
    g = np.linspace(-1.0, 1.0, theta.size)
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.05)
    apply_update(pol, g, cfg)
    assert np.array_equal(get_flat_params(pol), theta - 0.05 * g)


def test_adam_first_step_literal():
    # step 1: m_hat = g, v_hat = g^2, so the shift is -lr * c / (|c| + eps)
    pol = init_policy(single_line_model(inverter_p=0.3), hidden=(4,), seed=3)
    theta = get_flat_params(pol)
    c, lr = 0.3, 0.01
    cfg = TrainConfig(optimizer="adam", learning_rate=lr)
    _, st = apply_update(pol, np.full(theta.size, c), cfg)
    expected = -lr * c / (abs(c) + cfg.adam_eps)
    assert np.allclose(get_flat_params(pol) - theta, expected, rtol=1e-12, atol=0)
    assert st.step == 1


def test_adam_matches_reference_recurrence():
    pol = init_policy(single_line_model(inverter_p=0.3), hidden=(4,), seed=4)
    theta = get_flat_params(pol).copy()
    cfg = TrainConfig(optimizer="adam", learning_rate=0.002)
    rng = np.random.default_rng(9)
    gs = [rng.normal(0, 1, theta.size) for _ in range(5)]

    st = None
    for g in gs:
        _, st = apply_update(pol, g, cfg, st)

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    ref = theta.copy()
    for t, g in enumerate(gs, start=1):
        m = cfg.adam_beta1 * m + (1.0 - cfg.adam_beta1) * g
        v = cfg.adam_beta2 * v + (1.0 - cfg.adam_beta2) * g * g
        m_hat = m / (1.0 - cfg.adam_beta1**t)
        v_hat = v / (1.0 - cfg.adam_beta2**t)
        ref = ref - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    assert np.array_equal(get_flat_params(pol), ref)


def test_apply_update_dimension_errors():
    pol = init_policy(single_line_model(inverter_p=0.3), hidden=(4,), seed=0)
    cfg = TrainConfig(optimizer="sgd")
    with pytest.raises(DimensionMismatch):
        apply_update(pol, np.zeros(3), cfg)
    with pytest.raises(DimensionMismatch):
        apply_update(
            pol, np.zeros(pol.n_params), cfg, OptState(m=np.zeros(2), v=np.zeros(2))
        )


# -- estimator statistics (1-D pilot) --------------------------------------

PILOT = {
    "lo": -0.12,
    "hi": 0.12,
    "a_bias": 0.2,
    "b_bias": -3.49,
    "c": 0.03,
    "chunks": 100,
    "chunk_size": 1000,
}


@pytest.fixture(scope="module")
def pilot_records():
    """1e5 (record, loss) pairs with the synthetic quadratic loss."""
    pol = bias_only_policy(
        PILOT["a_bias"], PILOT["b_bias"], PILOT["lo"], PILOT["hi"]
    )
    s = GridState(p=arr(-0.05), q_c=arr(0.03))
    rng = np.random.default_rng(77)
    n = PILOT["chunks"] * PILOT["chunk_size"]
    records = []
    for _ in range(n):
        q = sample(policy_distribution(pol, s), rng)
        rec = grad_log_prob(pol, s, q)
        records.append((s, rec, float((q[0] - PILOT["c"]) ** 2)))
    return pol, s, records


def _pilot_truth_in_bias_units(pol, s):
    mu, sigma = mu_sigma(pol, s)
    width = PILOT["hi"] - PILOT["lo"]
    sig = (mu[0] - PILOT["lo"]) / width
    dmu_da = width * sig * (1.0 - sig)
    d_dmu = dmu_expectation_quad(
        lambda q: (q - PILOT["c"]) ** 2,
        mu[0], sigma[0], PILOT["lo"], PILOT["hi"],
    )
    return d_dmu * dmu_da


def test_score_estimator_matches_quadrature_derivative(pilot_records):
    pol, s, records = pilot_records
    # flat layout for layer_sizes [2, 2]: four weights, then the two biases
    a_idx = 4
    chunk_means = []
    for k in range(PILOT["chunks"]):
        chunk = records[k * PILOT["chunk_size"] : (k + 1) * PILOT["chunk_size"]]
        g = estimate_gradient(chunk, "none")
        chunk_means.append(g[a_idx])
    est = float(np.mean(chunk_means))
    se = float(np.std(chunk_means)) / math.sqrt(len(chunk_means))
    truth = _pilot_truth_in_bias_units(pol, s)
    assert abs(est - truth) <= 4.0 * se


def test_running_mean_baseline_preserves_expectation(pilot_records):
    pol, s, records = pilot_records
    a_idx = 4
    history = []
    diffs = []
    for k in range(PILOT["chunks"]):
        chunk = records[k * PILOT["chunk_size"] : (k + 1) * PILOT["chunk_size"]]
        g0 = estimate_gradient(chunk, "none")
        gb = estimate_gradient(chunk, "running_mean", prior_losses=history)
        if history:
            diffs.append(g0[a_idx] - gb[a_idx])
        history.extend(loss for _, _, loss in chunk)
    mean_diff = float(np.mean(diffs))
    se = float(np.std(diffs)) / math.sqrt(len(diffs))
    assert abs(mean_diff) <= 3.0 * se


# -- train loop ------------------------------------------------------------


def small_setup():
    net = single_line_model(r=0.02, x=0.01, inverter_p=0.3)
    states = [
        GridState(p=arr(-0.05), q_c=arr(0.03), timestamp=0),
        GridState(p=arr(0.02), q_c=arr(0.01), timestamp=30),
        GridState(p=arr(-0.08), q_c=arr(0.05), timestamp=60),
    ]
    return net, states


def test_zero_learning_rate_leaves_weights_untouched():
    net, states = small_setup()
    pol = init_policy(net, hidden=(5,), seed=2)
    before = get_flat_params(pol).copy()
    cfg = TrainConfig(learning_rate=0.0, batch_size=2, epochs=3, seed=4)
    pol, trace, manifest = train(pol, net, states, cfg)
    assert np.array_equal(get_flat_params(pol), before)
    assert len(trace) == 3 * len(states)
    assert all(isinstance(f, bool) for f in trace.feasible)
    assert manifest["updates"] == math.ceil(3 * len(states) / 2)


def test_trace_running_average_recomputable():
    net, states = small_setup()
    pol = init_policy(net, hidden=(5,), seed=2)
    cfg = TrainConfig(batch_size=4, epochs=2, seed=1, baseline_window=5)
    _, trace, _ = train(pol, net, states, cfg)
    for i in range(len(trace)):
        expected = float(np.mean(trace.raw[max(0, i - 4) : i + 1]))
        assert trace.running_avg[i] == expected


def test_train_bitwise_reproducible():
    net, states = small_setup()
    cfg = TrainConfig(batch_size=3, epochs=4, seed=11)
    run1 = run_training(net, states, cfg, hidden=(6, 4))
    run2 = run_training(net, states, cfg, hidden=(6, 4))
    assert np.array_equal(get_flat_params(run1[0]), get_flat_params(run2[0]))
    assert run1[1].raw == run2[1].raw
    assert run1[2] == run2[2]


def test_partial_final_batch_applied():
    net, states = small_setup()
    pol = init_policy(net, hidden=(4,), seed=0)
    before = get_flat_params(pol).copy()
    cfg = TrainConfig(batch_size=30, epochs=2, seed=0, learning_rate=0.01)
    pol, trace, manifest = train(pol, net, states, cfg)
    # 6 records never fill the batch; the trailing flush applies them
    assert manifest["updates"] == 1
    assert not np.array_equal(get_flat_params(pol), before)


def test_failed_power_flow_names_its_record(feeder6):
    rng = np.random.default_rng(0)
    states = [
        GridState(p=rng.uniform(-0.02, 0.02, feeder6.n), q_c=np.zeros(feeder6.n),
                  timestamp=30 * k)
        for k in range(5)
    ]
    states[3] = GridState(p=np.full(feeder6.n, -50.0), q_c=np.zeros(feeder6.n),
                          timestamp=90)
    pattern = (r"^aborted at update 0, record \d \(state 3, timestamp 90\): "
               r"voltage collapsed")
    with pytest.raises(NumericalError, match=pattern):
        run_training(feeder6, states, TrainConfig(epochs=1, seed=0), hidden=(4,))


def test_input_stats_stored_from_training_set():
    net, states = small_setup()
    pol = init_policy(net, hidden=(4,), seed=0)
    cfg = TrainConfig(batch_size=2, epochs=1, seed=0)
    pol, _, _ = train(pol, net, states, cfg)
    X = np.stack([np.concatenate([s.p, s.q_c]) for s in states])
    assert np.array_equal(pol.input_mean, X.mean(axis=0))
    assert np.array_equal(pol.input_std, X.std(axis=0))


def test_model_network_mismatch_rejected():
    net, states = small_setup()
    other = single_line_model(r=0.02, x=0.01)  # no inverters
    pol = init_policy(net, hidden=(4,), seed=0)
    with pytest.raises(DimensionMismatch):
        train(pol, other, states, TrainConfig())
    with pytest.raises(ValueError):
        train(pol, net, [], TrainConfig())


def test_trained_mean_hits_grid_argmin_within_one_cell():
    # single repeated state: the policy input standardizes to zero, so only
    # the output biases train and the run is a clean 1-D descent. Tight
    # exploration plus a small gradient clip (the first batch has no
    # baseline yet) lands the mean well inside one cell of the 1e4-point
    # grid argmin; margin over seeds 0..13 was 0.34 cells.
    net = single_line_model(r=0.1, x=0.05, inverter_p=0.3)
    state = GridState(p=arr(-0.10), q_c=arr(0.08))
    oracle = grid_search_oracle(net, state, 10_000)
    cell = (net.q_hi[0] - net.q_lo[0]) / 9999

    pol = init_policy(net, hidden=(4,), seed=1, sigma_floor=2.5e-4)
    pol.biases[-1][1:] = -12.0  # start the exploration width at its floor
    cfg = TrainConfig(
        learning_rate=25.0,
        batch_size=10,
        epochs=40,
        optimizer="sgd",
        baseline_mode="running_mean",
        seed=3,
        sigma_floor=2.5e-4,
        grad_clip=0.01,
    )
    pol, trace, _ = train(pol, net, [state] * 600, cfg)
    mu, _ = mu_sigma(pol, state)
    assert abs(mu[0] - oracle.q_g_star[0]) <= cell
    assert all(trace.feasible)


# -- inference -------------------------------------------------------------


def test_infer_sample_in_box_and_seeded():
    net, states = small_setup()
    pol = init_policy(net, hidden=(4,), seed=0)
    a1 = infer(pol, net, states[0], mode="sample", rng=np.random.default_rng(5))
    a2 = infer(pol, net, states[0], mode="sample", rng=np.random.default_rng(5))
    assert np.array_equal(a1, a2)
    assert np.all(a1 >= pol.q_lo) and np.all(a1 <= pol.q_hi)


def test_infer_deterministic_is_clipped_mean():
    net, states = small_setup()
    pol = init_policy(net, hidden=(4,), seed=0)
    a1 = infer(pol, net, states[1], mode="deterministic")
    a2 = infer(pol, net, states[1], mode="deterministic")
    assert np.array_equal(a1, a2)
    mu, _ = mu_sigma(pol, states[1])
    assert np.array_equal(a1, np.clip(mu, pol.q_lo, pol.q_hi))


def test_infer_errors():
    net, states = small_setup()
    pol = init_policy(net, hidden=(4,), seed=0)
    other = single_line_model(r=0.02, x=0.01)
    with pytest.raises(DimensionMismatch):
        infer(pol, other, states[0])
    with pytest.raises(ValueError):
        infer(pol, net, states[0], mode="greedy")


def test_compare_to_baseline_per_state_arrays(feeder6):
    ds = synthesize_timeseries(
        feeder6, SynthesisProfile(n_intervals=120, load_peak_kw=30.0), seed=1
    )
    pol, _, _ = run_training(
        feeder6, ds.train_states, TrainConfig(epochs=1, seed=5), hidden=(6,)
    )
    states = ds.test_states
    res = compare_to_baseline(pol, feeder6, states)
    for a in (res.learned, res.optimal, res.feasible, res.infer_s, res.baseline_s,
              res.zero, res.q_hi):
        assert a.shape == (len(states),)
    assert res.feasible.dtype == bool
    assert np.all(res.learned >= res.optimal - 1e-8)
    assert np.all(res.zero >= res.optimal - 1e-8)
    assert np.all(res.q_hi >= res.optimal - 1e-8)
    assert np.all(res.infer_s > 0) and np.all(res.baseline_s > 0)
    for k in (0, len(states) - 1):
        ev = evaluate_loss(
            feeder6, states[k], infer(pol, feeder6, states[k], mode="deterministic")
        )
        assert res.learned[k] == ev.objective
        assert res.feasible[k] == ev.feasible
        assert res.optimal[k] == solve_baseline(feeder6, states[k]).objective
        zero = np.zeros(feeder6.n_inverters)
        assert res.zero[k] == evaluate_loss(feeder6, states[k], zero).objective
        assert res.q_hi[k] == evaluate_loss(feeder6, states[k], feeder6.q_hi).objective
    assert compare_to_baseline(pol, feeder6, []).learned.shape == (0,)


# -- trace and manifests ---------------------------------------------------


def test_trace_rows_structure():
    trace = LossTrace(window=3)
    trace.append(1.0, True)
    trace.append(2.0, False)
    rows = list(trace.rows())
    assert rows[0] == {
        "step": 0,
        "raw_loss": 1.0,
        "running_avg": 1.0,
        "feasible": True,
    }
    assert rows[1] == {
        "step": 1,
        "raw_loss": 2.0,
        "running_avg": 1.5,
        "feasible": False,
    }
    assert len(rows) == len(trace)


def test_fingerprints_track_content():
    net, states = small_setup()
    assert network_fingerprint(net) == network_fingerprint(net)
    other = single_line_model(r=0.03, x=0.01, inverter_p=0.3)
    assert network_fingerprint(net) != network_fingerprint(other)
    assert dataset_fingerprint(states) == dataset_fingerprint(list(states))
    changed = states[:2] + [GridState(p=arr(-0.08), q_c=arr(0.051), timestamp=60)]
    assert dataset_fingerprint(states) != dataset_fingerprint(changed)


def test_manifest_contents():
    net, states = small_setup()
    cfg = TrainConfig(batch_size=2, epochs=1, seed=9)
    _, _, manifest = run_training(net, states, cfg, hidden=(4,))
    assert manifest["seed"] == 9
    assert manifest["config"]["batch_size"] == 2
    assert manifest["network_sha256"] == network_fingerprint(net)
    assert manifest["dataset_sha256"] == dataset_fingerprint(states)
    assert manifest["layer_sizes"] == [2, 4, 2]
    assert manifest["hidden"] == [4]
    assert manifest["n_states"] == 3
