"""Stochastic reactive-power policy: MLP trunk, truncated-Gaussian head.

The network maps a standardized state vector (p, q_c) through ReLU hidden
layers to 2M raw outputs. The first M are squashed by a logistic into the
per-inverter action box to give the mean, the last M pass through softplus
plus a floor to give the standard deviation. Actions are drawn from the
Gaussian truncated to the box, so every sampled setpoint is feasible for the
inverter hardware by construction.

Log-density gradients are analytic (including the truncation-normalizer
terms) and are backpropagated to a flat parameter vector; no autodiff
framework is involved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    DegenerateSupport,
    DimensionMismatch,
    NonFiniteActivation,
    NonFiniteGradient,
    OutOfSupport,
    ParseError,
    VersionMismatch,
)
from .network import GridState, NetworkModel

MODEL_VERSION = "voltcraft-policy-v1"
SIGMA_FLOOR = 0.01
SIGMA_BIAS_INIT = -2.0  # wide initial exploration relative to the box
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass
class PolicyModel:
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    q_lo: np.ndarray
    q_hi: np.ndarray
    sigma_floor: float = SIGMA_FLOOR
    input_mean: np.ndarray = field(default=None)
    input_std: np.ndarray = field(default=None)
    version: str = MODEL_VERSION

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise DimensionMismatch("one weight/bias pair per layer expected")
        for i, (W, bi) in enumerate(zip(self.weights, self.biases)):
            if W.shape != (sizes[i + 1], sizes[i]) or bi.shape != (sizes[i + 1],):
                raise DimensionMismatch(
                    f"layer {i}: got W {W.shape}, b {bi.shape} for sizes "
                    f"{sizes[i]} -> {sizes[i + 1]}"
                )
        m = self.q_lo.size
        if self.q_hi.size != m or sizes[-1] != 2 * m:
            raise DimensionMismatch("output layer must emit (mu, sigma) per inverter")
        if not (np.all(np.isfinite(self.q_lo)) and np.all(np.isfinite(self.q_hi))):
            raise NonFiniteActivation("action box must be finite")
        if np.any(self.q_lo >= self.q_hi):
            raise DimensionMismatch("action box must have lo < hi")
        if not 0 < self.sigma_floor < math.inf:
            raise ValueError("sigma_floor must be positive and finite")
        if self.input_mean is None:
            self.input_mean = np.zeros(sizes[0])
        if self.input_std is None:
            self.input_std = np.ones(sizes[0])
        for name in ("input_mean", "input_std"):
            if getattr(self, name).shape != (sizes[0],):
                raise DimensionMismatch(
                    f"{name} has shape {getattr(self, name).shape}, expected "
                    f"({sizes[0]},)"
                )
        for arr in self.weights + self.biases + [self.input_mean, self.input_std]:
            if not np.all(np.isfinite(arr)):
                raise NonFiniteActivation(
                    "model parameters and input statistics must be finite"
                )
        if np.any(self.input_std <= 0):
            raise ValueError("input_std must be positive")

    @property
    def n_actions(self) -> int:
        return self.q_lo.size

    @property
    def n_params(self) -> int:
        return sum(W.size + b.size for W, b in zip(self.weights, self.biases))


@dataclass
class TruncatedGaussian:
    """Per-inverter independent Gaussians restricted to the action box."""

    mu: np.ndarray
    sigma: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if np.any(self.lo >= self.hi):
            raise DimensionMismatch("support must have lo < hi")
        if np.any(self.sigma <= 0) or not np.all(np.isfinite(self.sigma)):
            raise DimensionMismatch("sigma must be positive and finite")


# -- parameter flattening --------------------------------------------------


def get_flat_params(model: PolicyModel) -> np.ndarray:
    parts = []
    for W, b in zip(model.weights, model.biases):
        parts.append(W.ravel())
        parts.append(b)
    return np.concatenate(parts)


def set_flat_params(model: PolicyModel, theta: np.ndarray) -> None:
    if theta.size != model.n_params:
        raise DimensionMismatch(
            f"expected {model.n_params} parameters, got {theta.size}"
        )
    idx = 0
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        model.weights[i] = theta[idx : idx + W.size].reshape(W.shape).copy()
        idx += W.size
        model.biases[i] = theta[idx : idx + b.size].copy()
        idx += b.size


def init_policy(
    network: NetworkModel,
    hidden: tuple[int, ...] = (48, 32, 16),
    seed: int = 0,
    sigma_floor: float = SIGMA_FLOOR,
) -> PolicyModel:
    """Fresh policy with Glorot-uniform weights and a wide-exploration head."""
    n_in = 2 * network.n
    m = network.n_inverters
    sizes = [n_in, *hidden, 2 * m]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    biases[-1][m:] = SIGMA_BIAS_INIT
    return PolicyModel(
        layer_sizes=sizes,
        weights=weights,
        biases=biases,
        q_lo=network.q_lo.copy(),
        q_hi=network.q_hi.copy(),
        sigma_floor=sigma_floor,
    )


# -- forward pass ----------------------------------------------------------


def _input_vector(model: PolicyModel, s) -> np.ndarray:
    if isinstance(s, GridState):
        x = np.concatenate([s.p, s.q_c])
    else:
        x = np.asarray(s, dtype=float)
    if x.shape != (model.layer_sizes[0],):
        raise DimensionMismatch(
            f"expected input of length {model.layer_sizes[0]}, got {x.shape}"
        )
    return (x - model.input_mean) / model.input_std


def _sigmoid(z):
    # exp(-|z|) never overflows; for z < 0 it is exp(z)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _softplus(z):
    return np.logaddexp(0.0, z)


def _layers(model: PolicyModel, s):
    """Raw outputs of the last layer, with the layer inputs `hs` and the
    hidden pre-activations that the backward pass reuses."""
    h = _input_vector(model, s)
    hs, pre_acts = [h], []
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        z = W @ h + b
        pre_acts.append(z)
        h = np.maximum(z, 0.0)
        hs.append(h)
    raw = model.weights[-1] @ h + model.biases[-1]
    if not np.isfinite(raw).all():
        raise NonFiniteActivation("non-finite value in the forward pass")
    return raw, hs, pre_acts


def _mean(model: PolicyModel, a):
    """The box-squashed mean of the head's first M raw outputs, and their logistic."""
    sig_a = _sigmoid(a)
    return model.q_lo + (model.q_hi - model.q_lo) * sig_a, sig_a


def _forward_cached(model: PolicyModel, s):
    raw, hs, pre_acts = _layers(model, s)
    m = model.n_actions
    a, braw = raw[:m], raw[m:]
    mu, sig_a = _mean(model, a)
    sigma = _softplus(braw) + model.sigma_floor
    cache = (hs, pre_acts, sig_a, braw)
    return mu, sigma, cache


def mean_action(model: PolicyModel, s) -> np.ndarray:
    """The deterministic action for state s: the mean clipped to the box.

    Equal bit for bit to `np.clip(policy_distribution(model, s).mu, q_lo,
    q_hi)`, but computes neither the deviation nor the training caches.
    """
    raw, _, _ = _layers(model, s)
    mu, _ = _mean(model, raw[: model.n_actions])
    return np.minimum(np.maximum(mu, model.q_lo), model.q_hi)


def policy_distribution(model: PolicyModel, s) -> TruncatedGaussian:
    """The action distribution for state s: mean and deviation, truncated to the box."""
    mu, sigma, _ = _forward_cached(model, s)
    return TruncatedGaussian(mu=mu, sigma=sigma, lo=model.q_lo, hi=model.q_hi)


# -- truncated-Gaussian head -----------------------------------------------


def _standardized(dist: TruncatedGaussian):
    """The box edges in units of sigma from the mean, the lower edge's
    cumulative probability, and the mass the box holds."""
    alpha = (dist.lo - dist.mu) / dist.sigma
    beta = (dist.hi - dist.mu) / dist.sigma
    cdf_lo = ndtr(alpha)
    mass = ndtr(beta) - cdf_lo
    if np.any(mass < 1e-300):
        raise DegenerateSupport("truncated mass underflows; support unusable")
    return alpha, beta, cdf_lo, mass


def _standardized_action(dist: TruncatedGaussian, action) -> np.ndarray:
    """The action in units of sigma from the mean, once it is checked to
    have the distribution's shape and to lie in its support."""
    action = np.asarray(action, dtype=float)
    if action.shape != dist.mu.shape:
        raise DimensionMismatch(
            f"action shape {action.shape} vs distribution {dist.mu.shape}"
        )
    if np.any(action < dist.lo - 1e-12) or np.any(action > dist.hi + 1e-12):
        raise OutOfSupport("action outside the truncation box")
    return (action - dist.mu) / dist.sigma


def _phi(t):
    return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def sample(dist: TruncatedGaussian, rng: np.random.Generator) -> np.ndarray:
    """Exact inverse-CDF draw; never leaves [lo, hi]."""
    _, _, cdf_lo, mass = _standardized(dist)
    u = rng.random(dist.mu.size)
    q = dist.mu + dist.sigma * ndtri(cdf_lo + u * mass)
    return np.clip(q, dist.lo, dist.hi)


def log_prob(dist: TruncatedGaussian, action: np.ndarray) -> float:
    t = _standardized_action(dist, action)
    _, _, _, mass = _standardized(dist)
    terms = -0.5 * t * t - LOG_SQRT_2PI - np.log(dist.sigma) - np.log(mass)
    return float(np.sum(terms))


def _dlogp_dmu_dsigma(dist: TruncatedGaussian, action: np.ndarray):
    """Per-component partials of the summed log-density."""
    t = _standardized_action(dist, action)
    alpha, beta, _, mass = _standardized(dist)
    phi_a, phi_b = _phi(alpha), _phi(beta)
    dmu = t / dist.sigma - (phi_a - phi_b) / (dist.sigma * mass)
    dsigma = (t * t - 1.0) / dist.sigma - (alpha * phi_a - beta * phi_b) / (
        dist.sigma * mass
    )
    return dmu, dsigma


def grad_log_prob(model: PolicyModel, s, action: np.ndarray) -> np.ndarray:
    """Gradient of log pi(action | s) with respect to the flat parameters."""
    mu, sigma, cache = _forward_cached(model, s)
    dist = TruncatedGaussian(mu=mu, sigma=sigma, lo=model.q_lo, hi=model.q_hi)
    dmu, dsigma = _dlogp_dmu_dsigma(dist, action)

    hs, pre_acts, sig_a, braw = cache
    width = model.q_hi - model.q_lo
    # chain through the two head maps
    da = dmu * width * sig_a * (1.0 - sig_a)
    db = dsigma * _sigmoid(braw)
    delta = np.concatenate([da, db])

    n_layers = len(model.weights)
    grads_W = [None] * n_layers
    grads_b = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        grads_W[i] = np.outer(delta, hs[i])
        grads_b[i] = delta
        if i > 0:
            delta = (model.weights[i].T @ delta) * (pre_acts[i - 1] > 0)
    flat = np.concatenate(
        [np.concatenate([gW.ravel(), gb]) for gW, gb in zip(grads_W, grads_b)]
    )
    if not np.all(np.isfinite(flat)):
        raise NonFiniteGradient("non-finite entries in the policy gradient")
    return flat


# -- persistence -----------------------------------------------------------


def save(model: PolicyModel, path) -> None:
    doc = {
        "version": model.version,
        "layer_sizes": list(model.layer_sizes),
        "action_lo": model.q_lo.tolist(),
        "action_hi": model.q_hi.tolist(),
        "sigma_floor": model.sigma_floor,
        "input_mean": model.input_mean.tolist(),
        "input_std": model.input_std.tolist(),
        "layers": [
            {"W": W.tolist(), "b": b.tolist()}
            for W, b in zip(model.weights, model.biases)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load(path) -> PolicyModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: not a valid model file ({exc})") from exc
    try:
        version = doc["version"]
        if version != MODEL_VERSION:
            raise VersionMismatch(
                f"{path}: model version {version!r}, expected {MODEL_VERSION!r}"
            )
        return PolicyModel(
            layer_sizes=list(doc["layer_sizes"]),
            weights=[np.array(layer["W"], dtype=float) for layer in doc["layers"]],
            biases=[np.array(layer["b"], dtype=float) for layer in doc["layers"]],
            q_lo=np.array(doc["action_lo"], dtype=float),
            q_hi=np.array(doc["action_hi"], dtype=float),
            sigma_floor=float(doc["sigma_floor"]),
            input_mean=np.array(doc["input_mean"], dtype=float),
            input_std=np.array(doc["input_std"], dtype=float),
            version=version,
        )
    except VersionMismatch:
        raise
    except (KeyError, TypeError, ValueError, DimensionMismatch,
            NonFiniteActivation) as exc:
        raise ParseError(f"{path}: malformed model file ({exc})") from exc
