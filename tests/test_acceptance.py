"""End-to-end acceptance gates, one test per criterion.

Each test prints a single PASS/FAIL verdict line with the measured
numbers, then asserts on the same condition, so `pytest -v` shows one
line per criterion and failures carry the measurements.
"""

import json
import time
from importlib.resources import files

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from voltcraft.baseline import grid_search_oracle, solve_baseline
from voltcraft.cli import main as cli_main
from voltcraft.data import SynthesisProfile, synthesize_timeseries, write_timeseries
from voltcraft.policy import (
    PolicyModel,
    TruncatedGaussian,
    _dlogp_dmu_dsigma,
    grad_log_prob,
    log_prob,
    policy_distribution,
    sample,
)
from voltcraft.powerflow import evaluate_loss, solve_power_flow
from voltcraft.trainer import TrainConfig, compare_to_baseline, run_training

from conftest import single_line_model
from oracles import dmu_expectation_quad, two_bus_closed_form
from test_policy import _fd_grad_theta


def verdict(n, ok, detail):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return ok, line


def nominal_state(net, seed=0, interval=1080):
    """Mid-morning interval of the default synthetic day."""
    ds = synthesize_timeseries(net, SynthesisProfile(), seed=seed)
    return ds.intervals[interval]


@pytest.fixture(scope="session")
def experiment(surrogate47):
    """One full stock-configuration run on the 47-bus surrogate, shared
    by the training-behavior and timing criteria."""
    net = surrogate47
    ds = synthesize_timeseries(net, SynthesisProfile(), seed=0)
    t0 = time.perf_counter()
    model, trace, manifest = run_training(net, ds.train_states, TrainConfig())
    t_train = time.perf_counter() - t0

    t0 = time.perf_counter()
    held_out = compare_to_baseline(model, net, ds.test_states)
    t_eval = time.perf_counter() - t0
    return {
        "net": net,
        "dataset": ds,
        "model": model,
        "trace": trace,
        "inf_losses": held_out.learned,
        "opt_losses": held_out.optimal,
        "feasible": int(held_out.feasible.sum()),
        "t_train": t_train,
        "t_eval": t_eval,
    }


def test_criterion_1_power_flow_fidelity(feeder6, surrogate47):
    # 2-bus closed form
    r, x, p, q = 0.03, 0.02, -0.12, -0.07
    net2 = single_line_model(r=r, x=x)
    sol = solve_power_flow(net2, np.array([p]), np.array([q]))
    P, Q, ell, v = two_bus_closed_form(r, x, p, q)
    err = max(
        abs(sol.P[0] - P), abs(sol.Q[0] - Q),
        abs(sol.ell[0] - ell), abs(sol.v[1] - v),
    )

    # residuals and per-solve runtime on every bundled feeder
    worst_res, worst_ms = 0.0, 0.0
    for net in (net2, feeder6, surrogate47):
        if net is net2:
            pv, qv = np.array([p]), np.array([q])
        else:
            s = nominal_state(net)
            pv, qv = s.p, -s.q_c
        times = []
        for _ in range(30):
            t0 = time.perf_counter()
            sol_i = solve_power_flow(net, pv, qv)
            times.append(time.perf_counter() - t0)
        assert sol_i.converged
        worst_res = max(worst_res, sol_i.max_residual)
        worst_ms = max(worst_ms, float(np.median(times)) * 1e3)

    ok, line = verdict(
        1,
        err <= 1e-10 and worst_res <= 1e-10 and worst_ms < 1.0,
        f"closed-form err {err:.2e} <= 1e-10, worst residual {worst_res:.2e}"
        f" <= 1e-10, worst median solve {worst_ms:.3f} ms < 1 ms",
    )
    assert ok, line


def test_criterion_2_relaxation_exactness(feeder6, surrogate47):
    worst = 0.0
    for net in (feeder6, surrogate47):
        sol = solve_baseline(net, nominal_state(net))
        worst = max(worst, float(np.max(np.abs(sol.cone_residuals))))
    ok, line = verdict(2, worst <= 1e-6, f"max cone slack {worst:.2e} <= 1e-6")
    assert ok, line


def test_criterion_3_oracle_equivalence(feeder6):
    t0 = time.perf_counter()
    state = nominal_state(feeder6)
    sol = solve_baseline(feeder6, state)
    grid = grid_search_oracle(feeder6, state, points_per_axis=41)
    rel = abs(sol.objective - grid.objective) / grid.objective

    rng = np.random.default_rng(2025)
    checked, lb_violations = 0, 0
    while checked < 1000:
        q = rng.uniform(feeder6.q_lo, feeder6.q_hi)
        ev = evaluate_loss(feeder6, state, q)
        if not ev.feasible:
            continue
        checked += 1
        if sol.objective > ev.objective + 1e-8:
            lb_violations += 1
    elapsed = time.perf_counter() - t0

    ok, line = verdict(
        3,
        rel <= 0.01 and lb_violations == 0 and elapsed < 10.0,
        f"grid gap {rel * 100:.3f}% <= 1%, lower-bound violations "
        f"{lb_violations}/1000, {elapsed:.1f} s < 10 s",
    )
    assert ok, line


def random_small_policy(rng, n_act, hidden, lo, hi):
    """Small random policy; biases off zero so no pre-activation sits on
    the ReLU kink, where the subgradient and a straddling difference
    quotient legitimately disagree."""
    sizes = [3, *hidden, 2 * n_act]
    weights, biases = [], []
    for a, b in zip(sizes[:-1], sizes[1:]):
        s = np.sqrt(6.0 / (a + b))
        weights.append(rng.uniform(-s, s, (b, a)))
        biases.append(rng.normal(0.0, 0.1, b))
    return PolicyModel(
        layer_sizes=sizes, weights=weights, biases=biases, q_lo=lo, q_hi=hi,
    )


def test_criterion_4_gradient_suite():
    t0 = time.perf_counter()

    # finite differences on 20 random instances
    rng = np.random.default_rng(99)
    hiddens = [(5, 4), (6,), (8, 5), (4, 4)]
    worst_ratio = 0.0
    for trial in range(20):
        n_act = int(rng.integers(1, 4))
        lo = -rng.uniform(0.05, 0.3, n_act)
        hi = rng.uniform(0.05, 0.3, n_act)
        model = random_small_policy(rng, n_act, hiddens[trial % 4], lo, hi)
        x = rng.normal(0.0, 1.0, 3)
        dist = policy_distribution(model, x)
        q = sample(dist, rng)
        g = grad_log_prob(model, dist, q)
        fd = _fd_grad_theta(model, x, q)
        assert np.all(np.abs(g - fd) <= 1e-7 + 1e-4 * np.abs(fd))
        worst_ratio = max(
            worst_ratio,
            np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-30),
        )

    # normalization of the truncated density
    worst_mass_err = 0.0
    for mu, sigma, lo, hi in [
        (0.0, 1.0, -1.0, 1.0),
        (0.1, 0.05, -0.08, 0.12),
        (-0.3, 0.4, -0.2, 0.2),
        (0.0, 0.02, -0.1, 0.1),
    ]:
        dist = TruncatedGaussian(
            mu=np.array([mu]), sigma=np.array([sigma]),
            lo=np.array([lo]), hi=np.array([hi]),
        )
        total, _ = quad(
            lambda z: float(np.exp(log_prob(dist, np.array([z])))),
            lo, hi, epsabs=1e-12, epsrel=1e-12,
        )
        worst_mass_err = max(worst_mass_err, abs(total - 1.0))

    # 1-D unbiasedness pilot at 1e6 samples
    mu, sigma, lo, hi, c = 0.02, 0.06, -0.1, 0.12, 0.03
    n = 10**6
    big = TruncatedGaussian(
        mu=np.full(n, mu), sigma=np.full(n, sigma),
        lo=np.full(n, lo), hi=np.full(n, hi),
    )
    qs = sample(big, np.random.default_rng(7))
    f = (qs - c) ** 2
    dmu, _ = _dlogp_dmu_dsigma(big, qs)
    est = f * dmu
    mc, se = est.mean(), est.std(ddof=1) / np.sqrt(n)
    truth = dmu_expectation_quad(lambda z: (z - c) ** 2, mu, sigma, lo, hi)
    pilot_err_se = abs(mc - truth) / se

    elapsed = time.perf_counter() - t0
    ok, line = verdict(
        4,
        worst_ratio <= 1e-4 and worst_mass_err <= 1e-6
        and pilot_err_se <= 3.0 and elapsed < 60.0,
        f"fd ratio {worst_ratio:.2e} <= 1e-4, mass err {worst_mass_err:.2e}"
        f" <= 1e-6, pilot {pilot_err_se:.2f} SE <= 3, {elapsed:.1f} s < 60 s",
    )
    assert ok, line


def test_criterion_5_stock_training_run(experiment):
    ra = np.array(experiment["trace"].running_avg)
    rho, p = stats.spearmanr(np.arange(len(ra)), ra)
    mi = experiment["inf_losses"].mean()
    mo = experiment["opt_losses"].mean()
    gap = (mi - mo) / mo
    n = len(experiment["inf_losses"])
    feas_frac = experiment["feasible"] / n
    elapsed = experiment["t_train"] + experiment["t_eval"]
    ok, line = verdict(
        5,
        rho < 0.0 and p < 0.01 and gap <= 0.15
        and feas_frac >= 0.99 and elapsed <= 1800.0,
        f"Spearman rho {rho:.3f} < 0 at p {p:.1e} < 0.01, held-out gap "
        f"{gap * 100:.2f}% <= 15%, feasible {feas_frac * 100:.2f}% >= 99%, "
        f"{elapsed:.0f} s <= 1800 s",
    )
    assert ok, line


def test_criterion_6_inference_latency(experiment):
    net = experiment["net"]
    ds = experiment["dataset"]
    model = experiment["model"]
    idx = np.linspace(0, len(ds) - 1, 1000).astype(int)
    assert len(np.unique(idx)) >= 1000
    timed = compare_to_baseline(model, net, [ds.intervals[i] for i in idx])
    t_inf, t_base = timed.infer_s, timed.baseline_s
    ratio = float(np.median(t_inf) / np.median(t_base))
    ok, line = verdict(
        6,
        ratio <= 0.1,
        f"median infer {np.median(t_inf) * 1e3:.3f} ms / median baseline "
        f"{np.median(t_base) * 1e3:.1f} ms = {ratio:.4f} <= 0.1 over "
        f"{len(idx)} intervals",
    )
    assert ok, line


def test_criterion_7_manifest_reproducibility(
    experiment, tmp_path, monkeypatch
):
    monkeypatch.delenv("VOLTCRAFT_SEED", raising=False)
    net = experiment["net"]
    feeder = str(files("voltcraft").joinpath("feeders/surrogate47.json"))
    day = tmp_path / "day.csv"
    write_timeseries(day, net, experiment["dataset"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 2, "seed": 11}))
    first = tmp_path / "m0.json"
    assert cli_main([
        "train", "--network", feeder, "--data", str(day),
        "--config", str(cfg), "--out", str(first),
    ]) == 0
    manifest = str(first) + ".manifest.json"
    replays = [tmp_path / "m1.json", tmp_path / "m2.json"]
    for out in replays:
        assert cli_main([
            "train", "--network", feeder, "--data", str(day),
            "--config", manifest, "--out", str(out),
        ]) == 0
    identical = replays[0].read_bytes() == replays[1].read_bytes()
    matches_origin = replays[0].read_bytes() == first.read_bytes()
    ok, line = verdict(
        7,
        identical and matches_origin,
        f"two runs from one manifest bit-identical: {identical}, "
        f"replay matches the manifest's own run: {matches_origin}",
    )
    assert ok, line
