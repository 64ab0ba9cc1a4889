"""Policy network and truncated-Gaussian head.

Reference values come from quadrature (normalizer, moments, expectation
derivatives) and central finite differences; frozen literals were computed
from those oracles and agree with the implementation to machine precision.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import model_from_parents, mu_sigma
from oracles import (
    dmu_expectation_quad,
    sigmoid_masked,
    trunc_logpdf_quad,
    trunc_moments_quad,
)
from voltcraft.errors import (
    DegenerateSupport,
    DimensionMismatch,
    NonFiniteActivation,
    OutOfSupport,
    ParseError,
    VersionMismatch,
)
from voltcraft.network import GridState
from voltcraft.policy import (
    MODEL_VERSION,
    SIGMA_BIAS_INIT,
    PolicyModel,
    TruncatedGaussian,
    _dlogp_dmu_dsigma,
    _sigmoid,
    get_flat_params,
    grad_log_prob,
    init_policy,
    load,
    log_prob,
    mean_action,
    policy_distribution,
    sample,
    save,
    set_flat_params,
)


def arr(*vals):
    return np.array(vals, dtype=float)


def three_bus_net():
    return model_from_parents([0, 1, 1], inverter_buses=(2, 3), inverter_p=0.1)


def random_state(rng, n):
    return GridState(p=rng.normal(0, 0.05, n), q_c=rng.uniform(0, 0.04, n))


def zero_policy(net, hidden=(4,)):
    pol = init_policy(net, hidden=hidden, seed=0)
    for i in range(len(pol.weights)):
        pol.weights[i] = np.zeros_like(pol.weights[i])
        pol.biases[i] = np.zeros_like(pol.biases[i])
    return pol


# -- construction and initialization ---------------------------------------


def test_init_shapes_and_glorot_bounds():
    net = three_bus_net()
    pol = init_policy(net, hidden=(48, 32, 16), seed=0)
    assert pol.layer_sizes == [6, 48, 32, 16, 4]
    assert pol.n_actions == 2
    for i, (fan_in, fan_out) in enumerate(
        zip(pol.layer_sizes[:-1], pol.layer_sizes[1:])
    ):
        W = pol.weights[i]
        assert W.shape == (fan_out, fan_in)
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(W) <= bound)
    # hidden biases start at zero; the sigma head starts wide
    for b in pol.biases[:-1]:
        assert np.all(b == 0.0)
    assert np.all(pol.biases[-1][:2] == 0.0)
    assert np.all(pol.biases[-1][2:] == SIGMA_BIAS_INIT)


def test_init_seed_determinism():
    net = three_bus_net()
    a = init_policy(net, seed=5)
    b = init_policy(net, seed=5)
    c = init_policy(net, seed=6)
    for Wa, Wb in zip(a.weights, b.weights):
        assert np.array_equal(Wa, Wb)
    assert any(
        not np.array_equal(Wa, Wc) for Wa, Wc in zip(a.weights, c.weights)
    )


def test_inconsistent_layer_chain_rejected():
    net = three_bus_net()
    pol = init_policy(net, hidden=(5,), seed=0)
    with pytest.raises(DimensionMismatch):
        PolicyModel(
            layer_sizes=pol.layer_sizes,
            weights=[w[:, :-1] for w in pol.weights],
            biases=pol.biases,
            q_lo=pol.q_lo,
            q_hi=pol.q_hi,
        )


# -- forward pass ----------------------------------------------------------


def test_zero_network_head_values():
    net = three_bus_net()
    pol = zero_policy(net)
    s = GridState(p=arr(0.01, -0.02, 0.03), q_c=arr(0.01, 0.0, 0.02))
    mu, sigma = mu_sigma(pol, s)
    mid = (pol.q_lo + pol.q_hi) / 2.0
    assert np.all(np.abs(mu - mid) <= 1e-15)
    assert np.all(np.abs(sigma - (math.log(2.0) + pol.sigma_floor)) <= 1e-15)


def test_forward_purity():
    net = three_bus_net()
    pol = init_policy(net, seed=2)
    s = GridState(p=arr(0.02, -0.01, 0.0), q_c=arr(0.01, 0.03, 0.02))
    m1, s1 = mu_sigma(pol, s)
    m2, s2 = mu_sigma(pol, s)
    assert np.array_equal(m1, m2) and np.array_equal(s1, s2)


def test_zero_input_equals_bias_only_pass():
    net = three_bus_net()
    pol = init_policy(net, hidden=(7, 5), seed=9)
    mu, sigma = mu_sigma(pol, np.zeros(6))
    # bias-only reference: propagate the bias vectors by hand
    h = np.zeros(6)
    for W, b in zip(pol.weights[:-1], pol.biases[:-1]):
        h = np.maximum(W @ h + b, 0.0)
    raw = pol.weights[-1] @ h + pol.biases[-1]
    m = pol.n_actions
    ref_mu = pol.q_lo + (pol.q_hi - pol.q_lo) / (1.0 + np.exp(-raw[:m]))
    ref_sigma = np.log1p(np.exp(raw[m:])) + pol.sigma_floor
    assert np.all(np.abs(mu - ref_mu) <= 1e-14)
    assert np.all(np.abs(sigma - ref_sigma) <= 1e-14)


def test_forward_wrong_length_raises():
    pol = init_policy(three_bus_net(), seed=0)
    with pytest.raises(DimensionMismatch):
        mu_sigma(pol, np.zeros(5))


def test_forward_nan_input_raises():
    pol = init_policy(three_bus_net(), seed=0)
    x = np.zeros(6)
    x[3] = np.nan
    with pytest.raises(NonFiniteActivation):
        mu_sigma(pol, x)


def test_nonfinite_parameters_rejected_at_construction():
    pol = init_policy(three_bus_net(), seed=0)
    W = [w.copy() for w in pol.weights]
    W[0][0, 0] = np.inf
    with pytest.raises(NonFiniteActivation):
        PolicyModel(
            layer_sizes=pol.layer_sizes,
            weights=W,
            biases=pol.biases,
            q_lo=pol.q_lo,
            q_hi=pol.q_hi,
        )


# each case: the constructor field it breaks, how, and the error it raises
BAD_MODEL_FIELDS = [
    ("input_mean", lambda v: v[:-1], DimensionMismatch),
    ("input_std", lambda v: np.append(v, 1.0), DimensionMismatch),
    ("input_mean", lambda v: np.where(np.arange(v.size) == 2, np.nan, v),
     NonFiniteActivation),
    ("input_std", lambda v: np.where(np.arange(v.size) == 0, np.inf, v),
     NonFiniteActivation),
    ("input_std", lambda v: np.where(np.arange(v.size) == 1, 0.0, v), ValueError),
    ("input_std", lambda v: -v, ValueError),
    ("q_lo", lambda v: np.full_like(v, -np.inf), NonFiniteActivation),
    ("q_hi", lambda v: np.where(np.arange(v.size) == 0, np.inf, v),
     NonFiniteActivation),
    ("q_hi", lambda v: np.full_like(v, np.nan), NonFiniteActivation),
    ("sigma_floor", lambda v: v * np.inf, ValueError),
]
BAD_MODEL_IDS = ["mean-short", "std-long", "mean-nan", "std-inf", "std-zero",
                 "std-negative", "lo-inf", "hi-inf", "hi-nan", "floor-inf"]


def model_fields(pol):
    return dict(layer_sizes=pol.layer_sizes, weights=pol.weights, biases=pol.biases,
                q_lo=pol.q_lo, q_hi=pol.q_hi, sigma_floor=pol.sigma_floor,
                input_mean=np.linspace(-0.02, 0.03, 6),
                input_std=np.linspace(0.9, 1.4, 6))


@pytest.mark.parametrize("name, corrupt, error", BAD_MODEL_FIELDS, ids=BAD_MODEL_IDS)
def test_input_statistics_and_box_checked_at_construction(name, corrupt, error):
    fields = model_fields(init_policy(three_bus_net(), hidden=(4,), seed=0))
    PolicyModel(**fields)
    fields[name] = corrupt(fields[name])
    with pytest.raises(error):
        PolicyModel(**fields)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.0, 5.0))
def test_forward_output_invariants(seed, scale):
    net = three_bus_net()
    pol = init_policy(net, hidden=(6, 5), seed=seed % 17)
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, scale, size=6)
    mu, sigma = mu_sigma(pol, x)
    assert np.all(mu > pol.q_lo) and np.all(mu < pol.q_hi)
    assert np.all(sigma >= pol.sigma_floor)
    assert np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))


# -- serving path ------------------------------------------------------------


SIGMOID_SPECIALS = [0.0, 1e-300, 1.0, 36.0, 709.0, 746.0, np.inf]


def test_sigmoid_matches_masked_oracle_bitwise():
    rng = np.random.default_rng(11)
    z = np.concatenate([
        SIGMOID_SPECIALS, np.negative(SIGMOID_SPECIALS), [np.nan],
        rng.standard_normal(100_000) * 10.0 ** rng.uniform(-3.0, 3.0, 100_000),
    ])
    got, ref = _sigmoid(z), sigmoid_masked(z)
    # NaN stays NaN, but -abs sets its sign bit; the forward pass raises on
    # a non-finite raw output before the logistic sees it
    nan = np.isnan(z)
    assert np.array_equal(np.isnan(got), nan) and np.all(np.isnan(ref[nan]))
    # bitwise elsewhere, so that -0.0 against 0.0 counts too
    assert got[~nan].tobytes() == ref[~nan].tobytes()
    assert got[0] == 0.5 and got[7] == 0.5  # +0.0 and -0.0


def test_mean_action_overflow_in_sigma_rows_alone_raises():
    # one affine layer; the mean rows stay finite, the sigma rows overflow
    net = three_bus_net()
    pol = PolicyModel(layer_sizes=[6, 4], weights=[np.zeros((4, 6))],
                      biases=[np.zeros(4)], q_lo=net.q_lo, q_hi=net.q_hi)
    pol.weights[0][2:] = 1e308  # set after construction, past its check
    x = np.ones(6)
    assert np.all(np.isfinite(pol.weights[0][:2] @ x))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteActivation):
            mean_action(pol, x)
        with pytest.raises(NonFiniteActivation):
            policy_distribution(pol, x)


# -- sampling --------------------------------------------------------------


def test_sample_support_hard_assertion():
    # 4 x 250k components = 1e6 independent draws, including a mean outside
    # the box and a sigma at the floor
    rng = np.random.default_rng(0)
    configs = [
        (0.0, 0.06, -0.1, 0.12),
        (0.11, 0.01, -0.1, 0.12),
        (-0.2, 0.05, -0.1, 0.12),
        (0.0, 3.0, -0.1, 0.12),
    ]
    for mu, sg, lo, hi in configs:
        k = 250_000
        dist = TruncatedGaussian(
            mu=np.full(k, mu), sigma=np.full(k, sg),
            lo=np.full(k, lo), hi=np.full(k, hi),
        )
        q = sample(dist, rng)
        assert np.all(q >= lo) and np.all(q <= hi)


def test_sample_mean_matches_quadrature():
    mu, sg, lo, hi = 0.04, 0.06, -0.1, 0.12
    true_mean, true_std = trunc_moments_quad(mu, sg, lo, hi)
    n = 1_000_000
    dist = TruncatedGaussian(
        mu=np.full(n, mu), sigma=np.full(n, sg),
        lo=np.full(n, lo), hi=np.full(n, hi),
    )
    q = sample(dist, np.random.default_rng(123))
    se = q.std() / math.sqrt(n)
    assert abs(q.mean() - true_mean) <= 4.0 * se


def test_sample_std_near_floor_wide_box():
    # truncation negligible: box edges sit 70+ sigma away
    n = 1_000_000
    dist = TruncatedGaussian(
        mu=np.full(n, 0.3), sigma=np.full(n, 0.01),
        lo=np.full(n, -1.0), hi=np.full(n, 1.0),
    )
    q = sample(dist, np.random.default_rng(7))
    assert abs(q.std() - 0.01) / 0.01 <= 0.01


def test_sample_determinism():
    dist = TruncatedGaussian(mu=arr(0.0, 0.02), sigma=arr(0.05, 0.01),
                             lo=arr(-0.1, -0.1), hi=arr(0.1, 0.1))
    a = sample(dist, np.random.default_rng(42))
    b = sample(dist, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sample_degenerate_support():
    dist = TruncatedGaussian(mu=arr(0.0), sigma=arr(1.0),
                             lo=arr(40.0), hi=arr(41.0))
    with pytest.raises(DegenerateSupport):
        sample(dist, np.random.default_rng(0))


# -- log density -----------------------------------------------------------


def test_log_prob_frozen_wide_box():
    dist = TruncatedGaussian(mu=arr(0.0), sigma=arr(1.0),
                             lo=arr(-10.0), hi=arr(10.0))
    lp = log_prob(dist, arr(0.0))
    assert abs(lp - (-0.9189385332046727)) <= 1e-12
    assert abs(lp - trunc_logpdf_quad(0.0, 0.0, 1.0, -10.0, 10.0)) <= 1e-9


def test_log_prob_frozen_tight_box_edge():
    dist = TruncatedGaussian(mu=arr(0.0), sigma=arr(0.02),
                             lo=arr(-0.05), hi=arr(0.05))
    lp = log_prob(dist, arr(0.05))
    assert math.isfinite(lp)
    assert abs(lp - (-0.11941843271262133)) <= 1e-12
    assert abs(lp - trunc_logpdf_quad(0.05, 0.0, 0.02, -0.05, 0.05)) <= 1e-9


def test_log_prob_sums_independent_components():
    d2 = TruncatedGaussian(mu=arr(0.01, -0.03), sigma=arr(0.05, 0.02),
                           lo=arr(-0.1, -0.08), hi=arr(0.1, 0.06))
    q = arr(0.04, -0.05)
    parts = [
        log_prob(
            TruncatedGaussian(mu=arr(d2.mu[i]), sigma=arr(d2.sigma[i]),
                              lo=arr(d2.lo[i]), hi=arr(d2.hi[i])),
            arr(q[i]),
        )
        for i in range(2)
    ]
    assert abs(log_prob(d2, q) - sum(parts)) <= 1e-12


@pytest.mark.parametrize(
    "mu,sg,lo,hi",
    [
        (0.0, 1.0, -10.0, 10.0),
        (0.0, 0.02, -0.05, 0.05),
        (0.1, 0.5, -0.12, 0.12),
        (-0.08, 0.01, -0.1, 0.1),
    ],
)
def test_density_normalization_quadrature(mu, sg, lo, hi):
    from scipy.integrate import quad

    dist = TruncatedGaussian(mu=arr(mu), sigma=arr(sg), lo=arr(lo), hi=arr(hi))
    total, _ = quad(
        lambda q: math.exp(log_prob(dist, arr(q))),
        lo, hi, epsabs=1e-12, epsrel=1e-10,
    )
    assert abs(total - 1.0) <= 1e-6


def test_log_prob_out_of_support():
    dist = TruncatedGaussian(mu=arr(0.0), sigma=arr(0.05),
                             lo=arr(-0.1), hi=arr(0.1))
    with pytest.raises(OutOfSupport):
        log_prob(dist, arr(0.11))


def test_log_prob_shape_mismatch():
    dist = TruncatedGaussian(mu=arr(0.0), sigma=arr(0.05),
                             lo=arr(-0.1), hi=arr(0.1))
    with pytest.raises(DimensionMismatch):
        log_prob(dist, arr(0.0, 0.0))


# -- analytic partials -----------------------------------------------------


def test_partials_match_untruncated_closed_form():
    # box edges 70 sigma out: normalizer terms vanish
    dist = TruncatedGaussian(mu=arr(0.3), sigma=arr(0.7),
                             lo=arr(-50.0), hi=arr(50.0))
    q = arr(1.1)
    dmu, dsigma = _dlogp_dmu_dsigma(dist, q)
    t = (1.1 - 0.3) / 0.7
    assert abs(dmu[0] - (1.1 - 0.3) / 0.7**2) <= 1e-10
    assert abs(dsigma[0] - (t * t - 1.0) / 0.7) <= 1e-10


def test_mu_partial_vanishes_at_symmetric_center():
    dist = TruncatedGaussian(mu=arr(0.0), sigma=arr(0.03),
                             lo=arr(-0.08), hi=arr(0.08))
    dmu, _ = _dlogp_dmu_dsigma(dist, arr(0.0))
    assert dmu[0] == 0.0


# -- gradient of log pi wrt theta ------------------------------------------


def _fd_grad_theta(pol, s, action, h=1e-6):
    theta = get_flat_params(pol)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        for sign in (1.0, -1.0):
            t = theta.copy()
            t[i] += sign * h
            set_flat_params(pol, t)
            lp = log_prob(policy_distribution(pol, s), action)
            g[i] += sign * lp
    set_flat_params(pol, theta)
    return g / (2.0 * h)


def test_grad_log_prob_finite_differences():
    # 20 random (theta, s, q) instances; step 1e-6. Per-component check uses
    # atol 1e-7 to absorb the difference-quotient roundoff floor
    # (~eps*|logp|/h), rtol 1e-4 as the accuracy contract; the norm-wise
    # relative error must also sit below 1e-4.
    hiddens = [(5, 4), (6,), (8, 5), (4, 4)]
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        net = three_bus_net()
        pol = init_policy(net, hidden=hiddens[trial % 4], seed=trial)
        for i in range(len(pol.biases)):
            # move every pre-activation off the ReLU kink, where the
            # one-sided difference quotient and the subgradient disagree
            pol.biases[i] = pol.biases[i] + rng.normal(0.0, 0.1, pol.biases[i].size)
        s = random_state(rng, 3)
        action = sample(policy_distribution(pol, s), rng)
        g = grad_log_prob(pol, s, action)
        fd = _fd_grad_theta(pol, s, action)
        assert np.all(np.abs(g - fd) <= 1e-7 + 1e-4 * np.abs(fd))
        assert np.linalg.norm(g - fd) <= 1e-4 * np.linalg.norm(fd)


def test_grad_record_contents():
    rng = np.random.default_rng(3)
    net = three_bus_net()
    pol = init_policy(net, seed=1)
    s = random_state(rng, 3)
    action = sample(policy_distribution(pol, s), rng)
    g = grad_log_prob(pol, s, action)
    assert g.shape == (pol.n_params,)
    assert np.all(np.isfinite(g))


def test_grad_log_prob_out_of_support():
    net = three_bus_net()
    pol = init_policy(net, seed=1)
    s = GridState(p=arr(0.0, 0.0, 0.0), q_c=arr(0.0, 0.0, 0.0))
    with pytest.raises(OutOfSupport):
        grad_log_prob(pol, s, pol.q_hi + 0.01)


# -- estimator unbiasedness (1-D pilot) ------------------------------------


def test_score_estimator_unbiased_1d():
    # E[f(q) * d log pi / d mu] must equal d/dmu E[f(q)]; the right side
    # comes from quadrature, the left from 1e6 Monte Carlo draws.
    mu, sg, lo, hi, c = 0.02, 0.05, -0.1, 0.12, 0.03
    n = 1_000_000
    dist = TruncatedGaussian(
        mu=np.full(n, mu), sigma=np.full(n, sg),
        lo=np.full(n, lo), hi=np.full(n, hi),
    )
    q = sample(dist, np.random.default_rng(2024))
    score_mu, _ = _dlogp_dmu_dsigma(dist, q)
    vals = (q - c) ** 2 * score_mu
    est = vals.mean()
    se = vals.std() / math.sqrt(n)
    truth = dmu_expectation_quad(lambda x: (x - c) ** 2, mu, sg, lo, hi)
    assert abs(est - truth) <= 3.0 * se


# -- persistence -----------------------------------------------------------


def test_save_load_round_trip_bit_exact(tmp_path):
    net = three_bus_net()
    pol = init_policy(net, hidden=(6, 5), seed=8)
    pol.input_mean = np.linspace(-0.02, 0.03, 6)
    pol.input_std = np.linspace(0.9, 1.4, 6)
    path = tmp_path / "model.json"
    save(pol, path)
    back = load(path)
    for Wa, Wb in zip(pol.weights, back.weights):
        assert np.array_equal(Wa, Wb)
    for ba, bb in zip(pol.biases, back.biases):
        assert np.array_equal(ba, bb)
    x = np.linspace(-0.05, 0.05, 6)
    assert np.array_equal(mu_sigma(pol, x)[0], mu_sigma(back, x)[0])
    assert np.array_equal(mu_sigma(pol, x)[1], mu_sigma(back, x)[1])
    # reserializing the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.json"
    save(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_truncated_file(tmp_path):
    net = three_bus_net()
    pol = init_policy(net, seed=0)
    path = tmp_path / "model.json"
    save(pol, path)
    path.write_text(path.read_text()[:100])
    with pytest.raises(ParseError):
        load(path)


def test_load_wrong_version(tmp_path):
    net = three_bus_net()
    pol = init_policy(net, seed=0)
    path = tmp_path / "model.json"
    save(pol, path)
    doc = json.loads(path.read_text())
    doc["version"] = "voltcraft-policy-v0"
    path.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        load(path)


def test_load_missing_field(tmp_path):
    net = three_bus_net()
    pol = init_policy(net, seed=0)
    path = tmp_path / "model.json"
    save(pol, path)
    doc = json.loads(path.read_text())
    del doc["layers"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load(path)


@pytest.mark.parametrize("name, corrupt, error", BAD_MODEL_FIELDS, ids=BAD_MODEL_IDS)
def test_load_bad_statistics_or_box_is_parse_error(tmp_path, name, corrupt, error):
    path = tmp_path / "model.json"
    save(PolicyModel(**model_fields(init_policy(three_bus_net(), hidden=(4,), seed=0))),
         path)
    doc = json.loads(path.read_text())
    key = {"q_lo": "action_lo", "q_hi": "action_hi"}.get(name, name)
    doc[key] = corrupt(np.array(doc[key])).tolist()
    path.write_text(json.dumps(doc))  # writes inf and nan as Infinity and NaN
    with pytest.raises(ParseError):
        load(path)


def test_flat_param_round_trip():
    pol = init_policy(three_bus_net(), hidden=(5,), seed=4)
    theta = get_flat_params(pol)
    assert theta.size == pol.n_params
    set_flat_params(pol, theta * 2.0)
    assert np.array_equal(get_flat_params(pol), theta * 2.0)
    with pytest.raises(DimensionMismatch):
        set_flat_params(pol, theta[:-1])
